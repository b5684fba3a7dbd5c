"""Quorum-arithmetic checker (Q501-Q505, DESIGN.md §5h).

Walks every indexed function in the ``quorum`` scope, extracts
*threshold sites* — comparisons and slice bounds that
mention the protocol parameters ``n``/``t`` — normalizes them with the
:mod:`repro.lint.linexpr` algebra, resolves each site's declared
obligation (inline ``# repro-quorum:`` comment first, then the central
:data:`~repro.lint.quorum_specs.QUORUM_SPEC` table), and proves the
obligation over every admissible ``(n, t)``.  Failures carry the first
concrete counterexample deployment.

Known unsoundness (documented, deliberate): no constant propagation —
``needed = self.t + 1`` followed by ``len(pool) >= needed`` is invisible
because ``needed`` is a plain local at the comparison.  Keep thresholds
literal in guards (the codebase convention) so the checker sees them.
"""

from __future__ import annotations

import ast
import fnmatch
import re
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.lint.framework import SCOPE_QUORUM, Finding, Program, register_pass
from repro.lint.index import FunctionInfo
from repro.lint.linexpr import (
    LinExpr,
    N,
    T,
    ONE,
    first_failure,
    mentions_params,
    parse_expr_text,
    parse_linear,
)
from repro.lint.quorum_specs import INLINE_MARKER, QUORUM_RULES, QUORUM_SPEC

_INLINE_RE = re.compile(
    rf"#\s*{INLINE_MARKER}:\s*([A-Za-z\-]+(?::[^#\s]+)?)"
)

#: Kinds whose obligation is a lower bound on the quorum size Q,
#: expressed as (bound, rule-on-failure).
_QUORUM_KINDS: Dict[str, Tuple[LinExpr, str]] = {
    "intersect": (LinExpr(), "Q501"),  # special-cased: 2Q-n >= t+1
    "final-overlap": (T.scale(2) + ONE, "Q503"),
    "honest-majority": (T.scale(2) + ONE, "Q503"),
    "amplify": (T + ONE, "Q503"),
    "threshold-sig": (T + ONE, "Q503"),
}

_NO_CHECK_KINDS = ("config", "window", "declared")


@dataclass(frozen=True)
class Site:
    """One threshold site: a comparison guard or a slice bound."""

    fn: FunctionInfo
    node: ast.AST
    is_slice: bool
    line: int
    col: int
    #: (render-or-unparse text, LinExpr-or-None, threshold-or-None)
    operands: Tuple[Tuple[str, Optional[LinExpr], Optional[LinExpr]], ...]

    @property
    def text(self) -> str:
        try:
            return ast.unparse(self.node)  # type: ignore[arg-type]
        except Exception:  # pragma: no cover - unparse is total on 3.9+
            return "<expr>"


def _walk_no_nested(fn_node: ast.AST) -> Iterator[ast.AST]:
    """Walk a function body without descending into nested ``def``s
    (those are indexed — and therefore visited — separately)."""
    stack = list(ast.iter_child_nodes(fn_node))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _threshold(op: ast.cmpop, expr: LinExpr, mirrored: bool) -> LinExpr:
    """The quorum size Q such that the guard means ``count >= Q``.

    ``mirrored`` means the expression is on the *left* (``E <= count``).
    Both wait-until (``count >= E``) and early-return (``count < E``)
    spellings denote the same quorum E.
    """
    if mirrored:
        if isinstance(op, (ast.LtE, ast.Lt)):  # E <= count / E < count
            return expr if isinstance(op, ast.LtE) else expr + ONE
        if isinstance(op, (ast.GtE, ast.Gt)):  # E >= count / E > count
            return expr + ONE if isinstance(op, ast.GtE) else expr
        return expr
    if isinstance(op, (ast.GtE, ast.Lt)):  # count >= E / count < E
        return expr
    if isinstance(op, (ast.Gt, ast.LtE)):  # count > E / count <= E
        return expr + ONE
    return expr


def _compare_site(fn: FunctionInfo, node: ast.Compare) -> Optional[Site]:
    chain = [node.left] + list(node.comparators)
    if not any(mentions_params(op) for op in chain):
        return None
    operands: List[Tuple[str, Optional[LinExpr], Optional[LinExpr]]] = []
    for pos, operand in enumerate(chain):
        if not mentions_params(operand):
            continue
        expr = parse_linear(operand)
        if expr is None or not expr.mentions_params:
            operands.append((ast.unparse(operand), None, None))
            continue
        # Relate the expression to its neighbour in the chain: the op to
        # the left reads ``neighbour OP expr``; at position 0 the op to
        # the right reads ``expr OP neighbour`` (mirrored).
        if pos > 0:
            quorum = _threshold(node.ops[pos - 1], expr, mirrored=False)
        else:
            quorum = _threshold(node.ops[0], expr, mirrored=True)
        operands.append((expr.render(), expr, quorum))
    if not operands:
        return None
    return Site(fn, node, False, node.lineno, node.col_offset, tuple(operands))


def _slice_site(fn: FunctionInfo, node: ast.Subscript) -> Optional[Site]:
    if not isinstance(node.slice, ast.Slice):
        return None
    upper = node.slice.upper
    if upper is None or not mentions_params(upper):
        return None
    expr = parse_linear(upper)
    if expr is None or not expr.mentions_params:
        operands = ((ast.unparse(upper), None, None),)
    else:
        operands = ((expr.render(), expr, expr),)
    return Site(fn, node, True, node.lineno, node.col_offset, operands)


class QuorumChecker:
    """Extract threshold sites, resolve obligations, prove them."""

    def __init__(self, program: Program) -> None:
        self.program = program
        #: path -> {line: declared kind} from inline comments
        self.inline: Dict[str, Dict[int, str]] = {}
        for ctx in program.contexts:
            decls: Dict[int, str] = {}
            for lineno, line in enumerate(ctx.source.splitlines(), start=1):
                match = _INLINE_RE.search(line)
                if match:
                    decls[lineno] = match.group(1).strip()
            if decls:
                self.inline[ctx.path] = decls

    # -- obligation resolution ------------------------------------------------

    def _inline_kind(self, site: Site) -> Optional[str]:
        decls = self.inline.get(site.fn.path, {})
        if not decls:
            return None
        end = getattr(site.node, "end_lineno", site.line) or site.line
        for lineno in range(site.line - 1, end + 1):
            if lineno in decls:
                return decls[lineno]
        return None

    def _spec_kind(self, site: Site) -> Optional[str]:
        for mod_pat, fn_pat, expr_text, kind in QUORUM_SPEC:
            if not fnmatch.fnmatchcase(site.fn.module, mod_pat):
                continue
            if not fnmatch.fnmatchcase(site.fn.name, fn_pat):
                continue
            if not any(text == expr_text for text, _e, _q in site.operands):
                continue
            if site.is_slice != kind.startswith(("truncate:", "window")):
                if kind != "declared":
                    continue
            return kind
        return None

    # -- obligation checking --------------------------------------------------

    def _check_site(self, site: Site, kind: str) -> Iterator[Finding]:
        def finding(rule: str, message: str) -> Finding:
            return Finding(rule, site.fn.path, site.line, site.col, message)

        if kind in _NO_CHECK_KINDS:
            return
        if kind.startswith(("truncate:", "cap:")):
            base, _, expr_text = kind.partition(":")
            need = parse_expr_text(expr_text)
            if need is None:
                yield finding(
                    "Q505",
                    f"obligation '{kind}' has an unparseable bound "
                    f"'{expr_text}' at '{site.text}'",
                )
                return
            rule = "Q502" if base == "truncate" else "Q504"
            for text, expr, quorum in site.operands:
                if expr is None or quorum is None:
                    yield finding(
                        "Q505",
                        f"'{text}' mentions n/t but does not normalize; "
                        f"cannot prove '{kind}'",
                    )
                    continue
                # For slices the kept count is the bound itself; for cap
                # guards (reject-when-over form, ``if count > cap:``) the
                # admitted count is Q-1.
                kept = quorum if site.is_slice else quorum - ONE
                witness = first_failure(kept, need)
                if witness is not None:
                    n_w, t_w = witness
                    what = "truncates to" if site.is_slice else "admits only"
                    yield finding(
                        rule,
                        f"'{site.text}' {what} {kept.render()} < required "
                        f"{need.render()} at (n={n_w}, t={t_w})",
                    )
            return
        if kind == "identity-bound":
            for text, expr, _quorum in site.operands:
                if expr != N:
                    yield finding(
                        "Q504",
                        f"identity bound '{text}' in '{site.text}' is not "
                        f"exactly n; replica ids range over 0..n-1 "
                        f"(1..n for share indices)",
                    )
            return
        if kind in _QUORUM_KINDS:
            _bound, rule = _QUORUM_KINDS[kind]
            for text, expr, quorum in site.operands:
                if expr is None or quorum is None:
                    yield finding(
                        "Q505",
                        f"'{text}' mentions n/t but does not normalize; "
                        f"cannot prove '{kind}'",
                    )
                    continue
                if kind == "intersect":
                    witness = first_failure(quorum.scale(2) - N, T + ONE)
                    if witness is not None:
                        n_w, t_w = witness
                        overlap = quorum.scale(2) - N
                        yield finding(
                            rule,
                            f"quorum '{text}' declared '{kind}': two "
                            f"quorums may share only "
                            f"{max(overlap.eval(n_w, t_w), 0)} < t+1="
                            f"{t_w + 1} replicas at (n={n_w}, t={t_w}); "
                            f"use n-t for general-n intersection",
                        )
                else:
                    bound = _QUORUM_KINDS[kind][0]
                    witness = first_failure(quorum, bound)
                    if witness is not None:
                        n_w, t_w = witness
                        yield finding(
                            rule,
                            f"quorum '{text}' declared '{kind}' needs >= "
                            f"{bound.render()} but admits "
                            f"{quorum.eval(n_w, t_w)} at (n={n_w}, t={t_w})",
                        )
                # Liveness: the quorum must be reachable from honest
                # replicas alone.
                witness = first_failure(N - T, quorum)
                if witness is not None:
                    n_w, t_w = witness
                    yield finding(
                        rule,
                        f"quorum '{text}' declared '{kind}' exceeds the "
                        f"n-t={n_w - t_w} honest guarantee at "
                        f"(n={n_w}, t={t_w}): liveness lost",
                    )
            return
        yield finding(
            "Q505",
            f"unknown obligation kind '{kind}' declared at '{site.text}'",
        )

    # -- driver ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        findings: List[Finding] = []
        seen: set = set()
        for fn in self.program.index.functions.values():
            if not self.program.in_scope(fn, SCOPE_QUORUM):
                continue
            for node in _walk_no_nested(fn.node):
                site: Optional[Site] = None
                if isinstance(node, ast.Compare):
                    site = _compare_site(fn, node)
                elif isinstance(node, ast.Subscript):
                    site = _slice_site(fn, node)
                if site is None:
                    continue
                key = (site.fn.path, site.line, site.col)
                if key in seen:
                    continue
                seen.add(key)
                kind = self._inline_kind(site) or self._spec_kind(site)
                if kind is None:
                    what = "slice bound" if site.is_slice else "comparison"
                    findings.append(
                        Finding(
                            "Q505",
                            site.fn.path,
                            site.line,
                            site.col,
                            f"threshold {what} '{site.text}' matches no "
                            f"declared obligation; declare its kind "
                            f"(spec table or '# {INLINE_MARKER}: <kind>')",
                        )
                    )
                    continue
                findings.extend(self._check_site(site, kind))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        return findings


@register_pass(SCOPE_QUORUM, QUORUM_RULES)
def quorum_pass(program: Program) -> List[Finding]:
    return QuorumChecker(program).run()
