"""C-rules: crypto hygiene (DESIGN.md §5c).

KeyTrap (Heftrig et al. 2024) showed DNSSEC validators are exploitable
through unbounded work on attacker-controlled collections; the classic
timing-oracle and key-material-entropy bugs round out the family.
"""

from __future__ import annotations

import ast
import re
from typing import Optional

from repro.lint.framework import SCOPE_CRYPTO, SCOPE_HANDLERS, Rule, register

#: Identifier fragments that name secret material.  Deliberately excludes
#: bare "signature"/"share": assembled signatures and received shares are
#: public values whose comparison is part of verification.
_SECRET_NAME_RE = re.compile(
    r"(^|_)(secret|private|password|passwd|mac|hmac|token)(_|$)", re.IGNORECASE
)

#: Handler names whose inputs arrive from untrusted peers.
_HANDLER_NAME_RE = re.compile(r"^(on_message|_on_[a-z0-9_]+)$")

#: Comparing against one of these identifiers counts as a bound check.
_BOUND_NAME_RE = re.compile(r"(MAX|LIMIT|BOUND|CAP)", re.IGNORECASE)


def _terminal_identifier(node: ast.AST) -> Optional[str]:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@register
class SecretEqualityRule(Rule):
    """C301: ``==`` on secret material instead of hmac.compare_digest."""

    rule_id = "C301"
    summary = "non-constant-time comparison of secret material"
    scope = SCOPE_CRYPTO
    level = "error"

    def visit_Compare(self, node: ast.Compare) -> None:
        if any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
            for side in [node.left] + list(node.comparators):
                name = _terminal_identifier(side)
                if name and _SECRET_NAME_RE.search(name):
                    self.report(
                        node,
                        f"== / != on {name!r} leaks a timing oracle; use "
                        "hmac.compare_digest",
                    )
                    break
        self.generic_visit(node)


@register
class SecretInOutputRule(Rule):
    """C302: secret-bearing names interpolated into output/log strings."""

    rule_id = "C302"
    summary = "secret material in a log/format string"
    scope = SCOPE_CRYPTO
    level = "error"

    def visit_JoinedStr(self, node: ast.JoinedStr) -> None:
        for value in node.values:
            if isinstance(value, ast.FormattedValue):
                name = _terminal_identifier(value.value)
                if name and _SECRET_NAME_RE.search(name):
                    self.report(
                        node,
                        f"f-string interpolates secret {name!r}; log a digest "
                        "or redact it",
                    )
                    break
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        is_print = resolved == "print"
        is_log = resolved is not None and (
            resolved.startswith("logging.")
            or resolved.split(".")[-1]
            in ("debug", "info", "warning", "error", "exception", "critical")
        )
        if is_print or is_log:
            for arg in node.args:
                name = _terminal_identifier(arg)
                if name and _SECRET_NAME_RE.search(name):
                    self.report(
                        node,
                        f"secret {name!r} passed to {'print' if is_print else 'a logger'};"
                        " log a digest or redact it",
                    )
                    break
        self.generic_visit(node)


@register
class SeededRandomForKeysRule(Rule):
    """C303: the ``random`` module anywhere key material is made."""

    rule_id = "C303"
    summary = "random module used in a crypto path (use secrets)"
    scope = SCOPE_CRYPTO
    level = "error"

    def visit_Call(self, node: ast.Call) -> None:
        resolved = self.ctx.imports.resolve(node.func)
        if resolved is not None and (
            resolved == "random.Random" or resolved.startswith("random.")
        ):
            self.report(
                node,
                f"{resolved} is a PRNG with guessable state; key material "
                "must come from the secrets module",
            )
        self.generic_visit(node)


@register
class UnboundedHandlerGrowthRule(Rule):
    """C304: handler grows a collection with no visible bound (KeyTrap).

    Heuristic: inside ``on_message`` / ``_on_*`` methods, flag
    ``self.<attr>...append/add/setdefault/insert`` calls and
    ``self.<attr>[...] = ...`` stores when the enclosing function body
    contains neither a ``len(...)`` comparison nor a comparison against a
    ``MAX``/``LIMIT``/``BOUND``/``CAP`` name.  Bounds enforced elsewhere
    need an inline suppression with a justification.
    """

    rule_id = "C304"
    summary = "unbounded collection growth in a message handler"
    scope = SCOPE_HANDLERS
    level = "error"

    _GROW_METHODS = {"append", "add", "setdefault", "insert", "appendleft", "extend"}

    def run(self, tree: ast.Module) -> None:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if _HANDLER_NAME_RE.match(node.name):
                    self._check_handler(node)

    def _check_handler(self, func: ast.AST) -> None:
        if self._has_bound_check(func):
            return
        reported_lines: set = set()
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                target = self._growth_target(node)
                if target is not None and node.lineno not in reported_lines:
                    reported_lines.add(node.lineno)
                    self.report(
                        node,
                        f"handler grows {target} with no bound in sight; an "
                        "adversary can drive memory/work unboundedly (KeyTrap)",
                    )
            elif isinstance(node, ast.Assign):
                for tgt in node.targets:
                    if isinstance(tgt, ast.Subscript) and self._rooted_at_self(
                        tgt.value
                    ):
                        self.report(
                            node,
                            "handler stores into a self-attached mapping with "
                            "no bound in sight (KeyTrap)",
                        )

    def _growth_target(self, call: ast.Call) -> Optional[str]:
        func = call.func
        if not isinstance(func, ast.Attribute) or func.attr not in self._GROW_METHODS:
            return None
        chain = func.value
        # setdefault(...).append(...) — walk through the inner call.
        while isinstance(chain, ast.Call) and isinstance(chain.func, ast.Attribute):
            chain = chain.func.value
        if self._rooted_at_self(chain):
            return ast.unparse(func.value) if hasattr(ast, "unparse") else "a collection"
        return None

    def _rooted_at_self(self, node: ast.AST) -> bool:
        while isinstance(node, (ast.Attribute, ast.Subscript)):
            node = node.value
        return isinstance(node, ast.Name) and node.id == "self"

    def _has_bound_check(self, func: ast.AST) -> bool:
        for node in ast.walk(func):
            if not isinstance(node, ast.Compare):
                continue
            for side in [node.left] + list(node.comparators):
                for sub in ast.walk(side):
                    if (
                        isinstance(sub, ast.Call)
                        and isinstance(sub.func, ast.Name)
                        and sub.func.id == "len"
                    ):
                        return True
                    name = _terminal_identifier(sub)
                    if name and _BOUND_NAME_RE.search(name):
                        return True
        return False
