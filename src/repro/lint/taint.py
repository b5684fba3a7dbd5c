"""Interprocedural taint engine (rules T401-T408).

Model (DESIGN.md §5e): every value carries a :class:`Taint` — a set of
*markers* (``"src"`` for real attacker-controlled data, ``"p<i>"`` as a
symbolic stand-in for the i-th parameter of the function under analysis),
the set of rules already *cleared* by sanitizers on this path, a
*laundered* bit set by serialization round-trips, and optional per-field
taints for dataclass message construction.

Each function is summarized as: which parameter markers reach its return
value, which reach sinks inside it (transitively, through its own
callees), and which are stored into ``self.<attr>``.  Summaries are
recomputed to a fixpoint (the lattice is finite: markers/cleared/sink
sites are drawn from fixed sets, so it terminates; a widening cap bounds
pathological recursion).  A final reporting pass walks every function
with real taint bound to handler parameters and class attributes and
emits findings through the standard lint :class:`Finding` machinery.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.lint.framework import SCOPE_TAINT, Finding, Program, register_pass
from repro.lint.index import FunctionInfo
from repro.lint.taint_specs import (
    ALLOC_CALLS,
    BOUND_NAME_HINTS,
    CONTROL_STATE_ATTRS,
    GROWTH_CALLS,
    IDENTITY_ATTRS,
    LAUNDERABLE_RULES,
    SANITIZERS,
    SINK_CALLS,
    SINK_MESSAGE_FIRST,
    SOURCE_CALLS,
    TAINT_RULES,
    TRUSTED_PRODUCERS,
    UNTAINTED_HANDLER_PARAMS,
    VERDICT_CALLS,
)

#: Widening cap on summary fixpoint rounds (lattice is finite, so this is
#: a safety net for pathological recursion, not the termination argument).
MAX_FIXPOINT_ROUNDS = 12

#: Serialization methods whose output on tainted input is "laundered".
SERIALIZERS = frozenset({"to_bytes", "to_wire", "encode", "serialize", "pack"})


# -- taint lattice ------------------------------------------------------------


@dataclass(frozen=True)
class Taint:
    markers: FrozenSet[str] = frozenset()
    cleared: FrozenSet[str] = frozenset()
    laundered: bool = False
    fields: Tuple[Tuple[str, "Taint"], ...] = ()

    @property
    def is_tainted(self) -> bool:
        return bool(self.markers) or bool(self.fields)

    def clear(self, rules: FrozenSet[str]) -> "Taint":
        if not self.is_tainted:
            return self
        return replace(
            self,
            cleared=self.cleared | rules,
            fields=tuple((n, t.clear(rules)) for n, t in self.fields),
        )

    def field_taint(self, name: str) -> "Taint":
        for fname, ftaint in self.fields:
            if fname == name:
                return ftaint
        if self.markers:
            return Taint(self.markers, self.cleared, self.laundered)
        return EMPTY

    def flat(self) -> "Taint":
        """Collapse field taints into one value (for sink checks)."""
        out = Taint(self.markers, self.cleared, self.laundered)
        for _name, ftaint in self.fields:
            out = merge(out, ftaint.flat())
        return out


EMPTY = Taint()


def merge(a: Taint, b: Taint) -> Taint:
    if not a.is_tainted and not a.fields:
        return b
    if not b.is_tainted and not b.fields:
        return a
    field_names = {n for n, _ in a.fields} | {n for n, _ in b.fields}
    fields = tuple(
        sorted((n, merge(a.field_taint(n), b.field_taint(n))) for n in field_names)
    )
    cleared: FrozenSet[str]
    if a.markers and b.markers:
        cleared = a.cleared & b.cleared
    else:
        cleared = a.cleared | b.cleared
    return Taint(
        markers=a.markers | b.markers,
        cleared=cleared,
        laundered=a.laundered or b.laundered,
        fields=fields,
    )


# -- summaries ----------------------------------------------------------------


@dataclass(frozen=True)
class SinkHit:
    """Inside some function, parameter ``marker`` reaches a ``rule`` sink."""

    marker: str
    rule: str
    path: str
    line: int
    col: int
    message: str


@dataclass(frozen=True)
class Summary:
    returns: Taint = EMPTY
    sink_hits: FrozenSet[SinkHit] = frozenset()
    #: (class qname, attribute, marker, cleared rules, laundered, key):
    #: param flows into self.<attr>.  Carrying the cleared set is what lets
    #: a callee's sanitization (``share_is_valid`` before the store) survive
    #: summary substitution at the call site.  ``key`` is the literal dict
    #: key when the store targeted one slot (``self.cache['soa'] = x``),
    #: else None for whole-attr / dynamic-key stores.
    attr_stores: FrozenSet[
        Tuple[str, str, str, FrozenSet[str], bool, Optional[str]]
    ] = frozenset()
    #: (marker, rules): the callee applied a sanitizer clearing ``rules``
    #: to the parameter bound as ``marker``.  Replayed at call sites so a
    #: sanitizer one call-hop below the sink still triggers T408 when the
    #: caller's value already reached that sink (DESIGN.md §5e).
    sanitizes: FrozenSet[Tuple[str, FrozenSet[str]]] = frozenset()


# -- engine -------------------------------------------------------------------


class TaintEngine:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.index = program.index
        self.summaries: Dict[str, Summary] = {}
        #: (class qname, attr) -> real taint stored cross-function
        #: (whole-attr assignments and dynamic-key stores)
        self.attr_map: Dict[Tuple[str, str], Taint] = {}
        #: (class qname, attr) -> {literal key -> taint}: per-key slots so
        #: a tainted value under one dict key does not taint reads of the
        #: other keys (the T404/T405 over-approximation fix)
        self.attr_keys: Dict[Tuple[str, str], Dict[str, Taint]] = {}
        self.changed = False

    def store_attr(self, cls_qname: str, attr: str, taint: Taint) -> None:
        key = (cls_qname, attr)
        merged = merge(self.attr_map.get(key, EMPTY), taint)
        if merged != self.attr_map.get(key, EMPTY):
            self.attr_map[key] = merged
            self.changed = True

    def store_attr_key(
        self, cls_qname: str, attr: str, key: str, taint: Taint
    ) -> None:
        slots = self.attr_keys.setdefault((cls_qname, attr), {})
        merged = merge(slots.get(key, EMPTY), taint)
        if merged != slots.get(key, EMPTY):
            slots[key] = merged
            self.changed = True

    def read_attr(self, cls_qname: Optional[str], attr: str) -> Taint:
        """Whole-attribute read: merges the wildcard taint and every
        per-key slot (reading the full dict sees all of its values)."""
        if cls_qname is None:
            return EMPTY
        out = EMPTY
        for cls in self.index.mro(cls_qname):
            slot = (cls.qname, attr)
            out = merge(out, self.attr_map.get(slot, EMPTY))
            for keyed in self.attr_keys.get(slot, {}).values():
                out = merge(out, keyed)
        return out

    def read_attr_key(
        self, cls_qname: Optional[str], attr: str, key: str
    ) -> Taint:
        """Literal-key read: the key's own slot plus the wildcard taint
        (dynamic-key stores may have hit any slot), but NOT the other
        literal keys' slots — that is the precision this buys."""
        if cls_qname is None:
            return EMPTY
        out = EMPTY
        for cls in self.index.mro(cls_qname):
            slot = (cls.qname, attr)
            out = merge(out, self.attr_map.get(slot, EMPTY))
            out = merge(out, self.attr_keys.get(slot, {}).get(key, EMPTY))
        return out

    def run(self) -> List[Finding]:
        fns = [
            fn
            for fn in self.index.functions.values()
            if self.program.in_scope(fn, SCOPE_TAINT)
        ]
        fns.sort(key=lambda f: f.qname)
        for fn in fns:
            self.summaries[fn.qname] = Summary()
        for _round in range(MAX_FIXPOINT_ROUNDS):
            self.changed = False
            for fn in fns:
                analyzer = FunctionAnalyzer(self, fn, report=False)
                summary = analyzer.analyze()
                if summary != self.summaries[fn.qname]:
                    self.summaries[fn.qname] = summary
                    self.changed = True
            if not self.changed:
                break
        findings: List[Finding] = []
        for fn in fns:
            analyzer = FunctionAnalyzer(self, fn, report=True)
            analyzer.analyze()
            findings.extend(analyzer.findings)
        unique = {(f.rule, f.path, f.line, f.col): f for f in findings}
        return sorted(
            unique.values(), key=lambda f: (f.path, f.line, f.col, f.rule)
        )


def _literal_key(node: ast.expr) -> Optional[str]:
    """Canonical form of a literal subscript key (str/int/bytes constants),
    or None for dynamic keys.  bools are excluded: ``d[ok]`` is almost
    always a computed flag, not a two-slot table."""
    if isinstance(node, ast.Constant) and not isinstance(node.value, bool):
        if isinstance(node.value, (str, int, bytes)):
            return repr(node.value)
    return None


def _expr_text(node: ast.AST, limit: int = 48) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - defensive
        text = "<expr>"
    return text if len(text) <= limit else text[: limit - 3] + "..."


class FunctionAnalyzer(ast.NodeVisitor):
    """One flow-sensitive pass over a function body."""

    def __init__(self, engine: TaintEngine, fn: FunctionInfo, report: bool) -> None:
        self.engine = engine
        self.index = engine.index
        self.fn = fn
        self.report = report
        self.findings: List[Finding] = []
        self.sink_hits: Set[SinkHit] = set()
        self.attr_stores: Set[
            Tuple[str, str, str, FrozenSet[str], bool, Optional[str]]
        ] = set()
        #: (marker, rules) sanitizer applications to parameters, exported
        #: in the summary for the cross-function T408 check
        self.sanitizes: Set[Tuple[str, FrozenSet[str]]] = set()
        self.return_taint = EMPTY
        #: collections (self-attr or local names) with a membership/len guard
        self.guarded: Set[str] = set()
        #: path -> [(rule, line)] sinks already hit (for T408)
        self.sunk: Dict[str, List[Tuple[str, int]]] = {}
        #: local name -> self-attr it aliases (setdefault/get/subscript)
        self.aliases: Dict[str, str] = {}
        #: local name -> rules its per-item verdicts clear (VERDICT_CALLS)
        self.verdict_lists: Dict[str, FrozenSet[str]] = {}
        #: bool name -> (paired item name, rules) from a verdict zip
        self.verdict_guards: Dict[str, Tuple[str, FrozenSet[str]]] = {}

    # -- entry ----------------------------------------------------------------

    def analyze(self) -> Summary:
        env: Dict[str, Taint] = {}
        node = self.fn.node
        params = self.fn.params
        for i, name in enumerate(params):
            if name in ("self", "cls"):
                continue
            markers = {f"p{i}"}
            if self.fn.is_handler and name not in UNTAINTED_HANDLER_PARAMS:
                markers.add("src")
            env[name] = Taint(frozenset(markers))
        if isinstance(node, ast.Lambda):
            self.return_taint = merge(self.return_taint, self.eval(node.body, env))
        else:
            self.exec_block(node.body, env)
        returns = Taint(
            markers=frozenset(
                m for m in self.return_taint.markers if m == "src" or m.startswith("p")
            ),
            cleared=self.return_taint.cleared,
            laundered=self.return_taint.laundered,
        )
        return Summary(
            returns=returns,
            sink_hits=frozenset(self.sink_hits),
            attr_stores=frozenset(self.attr_stores),
            sanitizes=frozenset(self.sanitizes),
        )

    # -- statements -----------------------------------------------------------

    def exec_block(self, stmts: Sequence[ast.stmt], env: Dict[str, Taint]) -> bool:
        """Execute statements in order; True if the block terminated
        (return/raise/break/continue) before falling through."""
        for stmt in stmts:
            if self.exec_stmt(stmt, env):
                return True
        return False

    def exec_stmt(self, stmt: ast.stmt, env: Dict[str, Taint]) -> bool:
        if isinstance(stmt, ast.Assign):
            taint = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.assign(target, taint, env, stmt)
                self._track_alias(target, stmt.value)
                self._track_verdict(target, stmt.value)
            return False
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.assign(stmt.target, self.eval(stmt.value, env), env, stmt)
                self._track_alias(stmt.target, stmt.value)
            return False
        if isinstance(stmt, ast.AugAssign):
            taint = merge(self.eval(stmt.target, env), self.eval(stmt.value, env))
            self.assign(stmt.target, taint, env, stmt)
            return False
        if isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
            return False
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_taint = merge(self.return_taint, self.eval(stmt.value, env))
            return True
        if isinstance(stmt, (ast.Raise, ast.Break, ast.Continue)):
            if isinstance(stmt, ast.Raise) and stmt.exc is not None:
                self.eval(stmt.exc, env)
            return True
        if isinstance(stmt, ast.If):
            self.eval(stmt.test, env)  # guard side effects (clears)
            then_env = dict(env)
            else_env = dict(env)
            guard = self._verdict_guard_in_test(stmt.test)
            if guard is not None:
                item, rules, positive = guard
                # a verdict guard is a comparison, not a late sanitizer
                # call, so it clears without the T408 check
                self.clear_path(
                    then_env if positive else else_env,
                    item,
                    rules,
                    stmt.lineno,
                )
            then_done = self.exec_block(stmt.body, then_env)
            else_done = self.exec_block(stmt.orelse, else_env)
            if then_done and else_done:
                return True
            if then_done:
                env.clear()
                env.update(else_env)
            elif else_done:
                env.clear()
                env.update(then_env)
            else:
                merged = self.merge_envs(then_env, else_env)
                env.clear()
                env.update(merged)
            return False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            target, it = stmt.target, stmt.iter
            if (
                isinstance(target, ast.Tuple)
                and isinstance(it, (ast.Tuple, ast.List))
                and it.elts
                and all(
                    isinstance(e, (ast.Tuple, ast.List))
                    and len(e.elts) == len(target.elts)
                    for e in it.elts
                )
            ):
                # literal ``for a, b in ((x, n1), (y, n2))``: bind each
                # target position to the merge of that column only, so a
                # bounds-cleared count does not re-absorb unrelated taint
                for i, tgt in enumerate(target.elts):
                    taint = EMPTY
                    for e in it.elts:
                        taint = merge(taint, self.eval(e.elts[i], env))  # type: ignore[attr-defined]
                    self.bind_loop_target(tgt, taint, env)
            elif self._bind_verdict_zip(target, it, env):
                pass
            else:
                iter_taint = self.eval(it, env)
                self.bind_loop_target(target, iter_taint, env)
            # two passes so loop-carried taint stabilizes
            for _ in range(2):
                body_env = dict(env)
                self.exec_block(stmt.body, body_env)
                merged = self.merge_envs(env, body_env)
                env.clear()
                env.update(merged)
            self.exec_block(stmt.orelse, env)
            return False
        if isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            for _ in range(2):
                body_env = dict(env)
                self.exec_block(stmt.body, body_env)
                merged = self.merge_envs(env, body_env)
                env.clear()
                env.update(merged)
            self.exec_block(stmt.orelse, env)
            return False
        if isinstance(stmt, ast.Try):
            done = self.exec_block(stmt.body, env)
            for handler in stmt.handlers:
                handler_env = dict(env)
                self.exec_block(handler.body, handler_env)
                merged = self.merge_envs(env, handler_env)
                env.clear()
                env.update(merged)
            self.exec_block(stmt.orelse, env)
            final_done = self.exec_block(stmt.finalbody, env)
            return (done and not stmt.handlers) or final_done
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                taint = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, taint, env, stmt)
            return self.exec_block(stmt.body, env)
        if isinstance(stmt, ast.Assert):
            self.eval(stmt.test, env)
            return False
        # nested defs/classes/imports/global: no taint effect modeled
        return False

    def merge_envs(
        self, a: Dict[str, Taint], b: Dict[str, Taint]
    ) -> Dict[str, Taint]:
        out: Dict[str, Taint] = {}
        for key in set(a) | set(b):
            out[key] = merge(a.get(key, EMPTY), b.get(key, EMPTY))
        return out

    def bind_loop_target(
        self, target: ast.expr, taint: Taint, env: Dict[str, Taint]
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self.bind_loop_target(elt, taint, env)

    # -- assignment targets ---------------------------------------------------

    def assign(
        self,
        target: ast.expr,
        taint: Taint,
        env: Dict[str, Taint],
        stmt: ast.stmt,
    ) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = taint
            for prefix in (target.id + ".", target.id + "["):
                for key in [k for k in env if k.startswith(prefix)]:
                    del env[key]
            return
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                inner = taint
                if isinstance(elt, ast.Starred):
                    elt = elt.value
                self.assign(elt, inner, env, stmt)
            return
        if isinstance(target, ast.Attribute):
            path = self.path_of(target)
            if path is not None:
                env[path] = taint
                # whole-value assignment invalidates stale per-key slots
                prefix = path + "["
                for key in [k for k in env if k.startswith(prefix)]:
                    del env[key]
            if (
                isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and self.fn.cls is not None
            ):
                attr = target.attr
                flat = taint.flat()
                if attr in CONTROL_STATE_ATTRS:
                    value = getattr(stmt, "value", None)
                    self.hit_sink(
                        "T402",
                        flat,
                        stmt,
                        f"control state self.{attr} assigned from "
                        f"'{_expr_text(stmt)}' without certificate/"
                        "signature validation on this path",
                        self.paths_in(value) if value is not None else (),
                    )
                if "src" in flat.markers:
                    self.engine.store_attr(
                        self.fn.cls,
                        attr,
                        Taint(frozenset({"src"}), flat.cleared, flat.laundered),
                    )
                for marker in flat.markers:
                    if marker.startswith("p"):
                        self.attr_stores.add(
                            (
                                self.fn.cls,
                                attr,
                                marker,
                                flat.cleared,
                                flat.laundered,
                                None,
                            )
                        )
            return
        if isinstance(target, ast.Subscript):
            key_taint = self.eval(target.slice, env).flat()
            base_path = self.path_of(target.value)
            self.check_growth(target.value, target.slice, key_taint, stmt)
            # the collection now holds the assigned *value* (keys are
            # checked by T404/T406 above, not mixed into content taint)
            direct_self = (
                isinstance(target.value, ast.Attribute)
                and isinstance(target.value.value, ast.Name)
                and target.value.value.id == "self"
            )
            attr: Optional[str] = None
            if direct_self:
                attr = target.value.attr  # type: ignore[union-attr]
            elif isinstance(target.value, ast.Name):
                attr = self.aliases.get(target.value.id)
            key_lit = _literal_key(target.slice)
            if key_lit is not None and base_path is not None:
                # literal key: the value lands in that key's slot only —
                # the base wildcard and sibling keys stay untouched
                env[f"{base_path}[{key_lit}]"] = taint
                if attr is not None and self.fn.cls is not None:
                    # alias-mediated writes (pool = self.x.setdefault(...))
                    # may target a nested collection whose keys are not the
                    # attr's own key space: fall back to the wildcard there
                    self.store_content(
                        attr, taint.flat(), key=key_lit if direct_self else None
                    )
                return
            if attr is not None and self.fn.cls is not None:
                self.store_content(attr, taint.flat())
            if base_path is not None:
                env[base_path] = merge(env.get(base_path, EMPTY), taint)
            return

    def store_content(
        self, attr: str, flat: Taint, key: Optional[str] = None
    ) -> None:
        """Record that ``self.<attr>`` now contains ``flat``-tainted data
        (in the per-key slot when ``key`` is a literal, else wildcard)."""
        if self.fn.cls is None:
            return
        if "src" in flat.markers:
            stored = Taint(frozenset({"src"}), flat.cleared, flat.laundered)
            if key is not None:
                self.engine.store_attr_key(self.fn.cls, attr, key, stored)
            else:
                self.engine.store_attr(self.fn.cls, attr, stored)
        for marker in flat.markers:
            if marker.startswith("p"):
                self.attr_stores.add(
                    (self.fn.cls, attr, marker, flat.cleared, flat.laundered, key)
                )

    def _track_alias(self, target: ast.expr, value: ast.expr) -> None:
        """``pool = self._shares.setdefault(k, {})`` makes writes through
        ``pool`` visible as content of ``self._shares``."""
        if not isinstance(target, ast.Name):
            return
        expr = value
        if (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Attribute)
            and expr.func.attr in ("setdefault", "get")
        ):
            expr = expr.func.value
        if isinstance(expr, ast.Subscript):
            expr = expr.value
        if (
            isinstance(expr, ast.Attribute)
            and isinstance(expr.value, ast.Name)
            and expr.value.id == "self"
        ):
            self.aliases[target.id] = expr.attr
        else:
            self.aliases.pop(target.id, None)

    # -- verdict-list flow (batch verification) -------------------------------

    def _track_verdict(self, target: ast.expr, value: ast.expr) -> None:
        """``verdicts = executor.rsa_verify_many(pairs)`` remembers that
        ``verdicts`` holds one verification verdict per submitted item."""
        if not isinstance(target, ast.Name):
            return
        name: Optional[str] = None
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute):
                name = func.attr
            elif isinstance(func, ast.Name):
                name = func.id
        if name is not None and name in VERDICT_CALLS:
            self.verdict_lists[target.id] = SANITIZERS[name]
        else:
            self.verdict_lists.pop(target.id, None)

    def _bind_verdict_zip(
        self, target: ast.expr, it: ast.expr, env: Dict[str, Taint]
    ) -> bool:
        """``for item, ok in zip(items, verdicts)``: bind ``item`` to the
        items' own taint (not the coarse merge of both zip arguments) and
        register ``ok`` as its per-item verification verdict so a
        subsequent ``if ok:`` / ``if not ok: continue`` guard clears the
        verifier's rules on ``item``."""
        if not (isinstance(target, ast.Tuple) and len(target.elts) == 2):
            return False
        if not (
            isinstance(it, ast.Call)
            and isinstance(it.func, ast.Name)
            and it.func.id == "zip"
            and len(it.args) == 2
        ):
            return False
        names = [
            arg.id if isinstance(arg, ast.Name) else None for arg in it.args
        ]
        for v_pos in (0, 1):
            v_name = names[v_pos]
            if v_name is None or v_name not in self.verdict_lists:
                continue
            item_tgt = target.elts[1 - v_pos]
            ok_tgt = target.elts[v_pos]
            if not (
                isinstance(item_tgt, ast.Name) and isinstance(ok_tgt, ast.Name)
            ):
                return False
            self.bind_loop_target(
                item_tgt, self.eval(it.args[1 - v_pos], env), env
            )
            env[ok_tgt.id] = EMPTY
            self.verdict_guards[ok_tgt.id] = (
                item_tgt.id,
                self.verdict_lists[v_name],
            )
            return True
        return False

    def _verdict_guard_in_test(
        self, test: ast.expr
    ) -> Optional[Tuple[str, FrozenSet[str], bool]]:
        """``if ok:`` / ``if not ok:`` where ``ok`` is a registered verdict:
        return (item path, rules to clear, whether the *then* branch is the
        verified one)."""
        if isinstance(test, ast.Name) and test.id in self.verdict_guards:
            item, rules = self.verdict_guards[test.id]
            return item, rules, True
        if (
            isinstance(test, ast.UnaryOp)
            and isinstance(test.op, ast.Not)
            and isinstance(test.operand, ast.Name)
            and test.operand.id in self.verdict_guards
        ):
            item, rules = self.verdict_guards[test.operand.id]
            return item, rules, False
        return None

    # -- expressions ----------------------------------------------------------

    def path_of(self, node: ast.expr) -> Optional[str]:
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            base = self.path_of(node.value)
            if base is None:
                return None
            return f"{base}.{node.attr}"
        return None

    def paths_in(self, node: ast.expr) -> List[str]:
        """Dotted paths of every Name/Attribute chain inside ``node``
        (so a sink on ``[msg.share]`` records ``msg.share`` for T408)."""
        direct = self.path_of(node)
        if direct is not None:
            return [direct]
        out: List[str] = []
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                out.extend(self.paths_in(child))
        return out

    def _with_keyed(
        self, env: Dict[str, Taint], path: str, base: Taint
    ) -> Taint:
        """Whole-collection read: fold the env's per-key slots for ``path``
        back into the base taint (reading the full dict sees all values)."""
        prefix = path + "["
        for key, taint in env.items():
            if key.startswith(prefix):
                base = merge(base, taint)
        return base

    def eval(self, node: ast.expr, env: Dict[str, Taint]) -> Taint:
        if isinstance(node, ast.Constant):
            return EMPTY
        if isinstance(node, ast.Name):
            return self._with_keyed(env, node.id, env.get(node.id, EMPTY))
        if isinstance(node, ast.Attribute):
            path = self.path_of(node)
            if path is not None and path in env:
                return self._with_keyed(env, path, env[path])
            if (
                isinstance(node.value, ast.Name)
                and node.value.id == "self"
            ):
                out = self.engine.read_attr(self.fn.cls, node.attr)
                return self._with_keyed(env, f"self.{node.attr}", out)
            base = self.eval(node.value, env)
            return base.field_taint(node.attr)
        if isinstance(node, ast.Call):
            return self.eval_call(node, env)
        if isinstance(node, ast.BinOp):
            left = self.eval(node.left, env)
            right = self.eval(node.right, env)
            if isinstance(node.op, ast.Mult):
                self.check_repetition(node, left, right)
            return merge(left, right)
        if isinstance(node, ast.BoolOp):
            out = EMPTY
            for value in node.values:
                out = merge(out, self.eval(value, env))
            return out
        if isinstance(node, ast.UnaryOp):
            inner = self.eval(node.operand, env)
            if isinstance(node.op, ast.Not):
                return EMPTY
            return inner
        if isinstance(node, ast.Compare):
            self.eval_compare(node, env)
            return EMPTY
        if isinstance(node, ast.Subscript):
            self.check_identity_index(node, env)
            self.eval(node.slice, env)
            key_lit = _literal_key(node.slice)
            base_path = self.path_of(node.value)
            if key_lit is not None and base_path is not None:
                # precise per-key read: this key's slot plus the base
                # wildcard, but NOT the other literal keys' slots
                out = env.get(f"{base_path}[{key_lit}]", EMPTY)
                if base_path in env:
                    return merge(out, env[base_path])
                if (
                    isinstance(node.value, ast.Attribute)
                    and isinstance(node.value.value, ast.Name)
                    and node.value.value.id == "self"
                ):
                    return merge(
                        out,
                        self.engine.read_attr_key(
                            self.fn.cls, node.value.attr, key_lit
                        ),
                    )
                return merge(out, self.eval(node.value, env))
            return self.eval(node.value, env)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            out = EMPTY
            for elt in node.elts:
                inner = elt.value if isinstance(elt, ast.Starred) else elt
                out = merge(out, self.eval(inner, env))
            return out
        if isinstance(node, ast.Dict):
            out = EMPTY
            for key in node.keys:
                if key is not None:
                    out = merge(out, self.eval(key, env))
            for value in node.values:
                out = merge(out, self.eval(value, env))
            return out
        if isinstance(node, ast.IfExp):
            self.eval(node.test, env)
            return merge(self.eval(node.body, env), self.eval(node.orelse, env))
        if isinstance(node, (ast.Await, ast.Starred, ast.FormattedValue)):
            return self.eval(node.value, env)
        if isinstance(node, ast.JoinedStr):
            out = EMPTY
            for value in node.values:
                out = merge(out, self.eval(value, env))
            return out
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            comp_env = dict(env)
            for gen in node.generators:
                iter_taint = self.eval(gen.iter, comp_env)
                self.bind_loop_target(gen.target, iter_taint, comp_env)
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            return self.eval(node.elt, comp_env)
        if isinstance(node, ast.DictComp):
            comp_env = dict(env)
            for gen in node.generators:
                iter_taint = self.eval(gen.iter, comp_env)
                self.bind_loop_target(gen.target, iter_taint, comp_env)
                for cond in gen.ifs:
                    self.eval(cond, comp_env)
            return merge(
                self.eval(node.key, comp_env), self.eval(node.value, comp_env)
            )
        if isinstance(node, ast.Lambda):
            return EMPTY
        if isinstance(node, ast.NamedExpr):
            taint = self.eval(node.value, env)
            self.assign(node.target, taint, env, ast.Expr(value=node))
            return taint
        if isinstance(node, ast.Slice):
            for part in (node.lower, node.upper, node.step):
                if part is not None:
                    self.eval(part, env)
            return EMPTY
        return EMPTY

    # -- guards (comparisons) -------------------------------------------------

    def eval_compare(self, node: ast.Compare, env: Dict[str, Taint]) -> None:
        operands = [node.left] + list(node.comparators)
        for operand in operands:
            self.eval(operand, env)
        is_membership = any(isinstance(op, (ast.In, ast.NotIn)) for op in node.ops)
        if is_membership:
            key = node.left
            key_path = self.path_of(key)
            if key_path is not None:
                self.clear_path(env, key_path, frozenset({"T404"}), node.lineno)
            for container in node.comparators:
                cpath = self.path_of(container)
                if cpath is not None:
                    self.guarded.add(cpath)
            return
        for operand in operands:
            path = self.path_of(operand)
            if path is None:
                # len(coll) bound check guards that collection
                if (
                    isinstance(operand, ast.Call)
                    and isinstance(operand.func, ast.Name)
                    and operand.func.id == "len"
                    and operand.args
                ):
                    inner = self.path_of(operand.args[0])
                    if inner is not None:
                        self.guarded.add(inner)
                continue
            taint = self.lookup_path(env, path)
            others = [o for o in operands if o is not operand]
            if self._is_identity_path(operand) and others:
                self.clear_path(env, path, frozenset({"T406"}), node.lineno)
            if taint.is_tainted and any(self._is_bound_expr(o) for o in others):
                self.clear_path(
                    env, path, frozenset({"T403", "T404"}), node.lineno
                )

    def _is_identity_path(self, node: ast.expr) -> bool:
        return isinstance(node, ast.Attribute) and node.attr in IDENTITY_ATTRS

    def _is_bound_expr(self, node: ast.expr) -> bool:
        if isinstance(node, ast.Constant) and isinstance(node.value, (int, float)):
            return True
        if isinstance(node, ast.BinOp):  # self.round + MAX_ROUND_AHEAD
            return self._is_bound_expr(node.left) or self._is_bound_expr(node.right)
        if isinstance(node, ast.Call):
            name = (
                node.func.id
                if isinstance(node.func, ast.Name)
                else getattr(node.func, "attr", "")
            )
            return name in ("len", "min", "max")
        path = self.path_of(node)
        if path is not None:
            upper = path.upper()
            return any(hint in upper for hint in BOUND_NAME_HINTS) or path.startswith(
                "self."
            )
        return False

    def lookup_path(self, env: Dict[str, Taint], path: str) -> Taint:
        """Taint of a dotted path: exact env entry, else parent fields."""
        if path in env:
            return env[path]
        if "." in path:
            base, _, attr = path.rpartition(".")
            if base == "self":
                return self.engine.read_attr(self.fn.cls, attr)
            return self.lookup_path(env, base).field_taint(attr)
        return EMPTY

    def clear_path(
        self,
        env: Dict[str, Taint],
        path: str,
        rules: FrozenSet[str],
        lineno: int,
        from_sanitizer: bool = False,
    ) -> None:
        # T408: an explicit sanitizer *call* arrived after the value
        # already hit a sink (compare-based guards are exempt: a late
        # dedupe/bounds comparison is not a misplaced verification).
        if from_sanitizer:
            for rule, sink_line in self.sunk.get(path, ()):
                if rule in rules and sink_line < lineno and self.report:
                    self.findings.append(
                        Finding(
                            "T408",
                            self.fn.path,
                            lineno,
                            0,
                            f"'{path}' is sanitized here but already "
                            f"reached a {rule} sink at line {sink_line}; "
                            "the check cannot protect the earlier use",
                        )
                    )
        env[path] = self.lookup_path(env, path).clear(rules)
        for prefix in (path + ".", path + "["):
            for key in list(env):
                if key.startswith(prefix):
                    env[key] = env[key].clear(rules)

    # -- calls ----------------------------------------------------------------

    def eval_call(self, node: ast.Call, env: Dict[str, Taint]) -> Taint:
        func = node.func
        callee_qname, call_name = self.index.resolve_call(node, self.fn)
        # evaluate the receiver chain so nested calls (sinks inside
        # x.setdefault(...).append(...)) are not skipped
        receiver = EMPTY
        if isinstance(func, ast.Attribute):
            receiver = self.eval(func.value, env)
        arg_taints: List[Taint] = [self.eval(a, env) for a in node.args]
        kw_taints: Dict[str, Taint] = {
            kw.arg: self.eval(kw.value, env)
            for kw in node.keywords
            if kw.arg is not None
        }

        # serialization of tainted data -> laundered bytes
        if call_name in SERIALIZERS and isinstance(func, ast.Attribute):
            base = receiver.flat()
            if base.is_tainted:
                return replace(base, laundered=True, fields=())
            return EMPTY

        if call_name == "len":
            out = EMPTY
            for t in arg_taints:
                out = merge(out, t)
            # len() measures data already held: its result is not an
            # attacker-*claimed* size, so allocation by it is not T403.
            return out.clear(frozenset({"T403", "T404"}))

        if call_name in TRUSTED_PRODUCERS:
            # locally-generated shares/signatures over any message are
            # trusted material, even when the message itself is remote
            return EMPTY

        # sinks ---------------------------------------------------------------
        if call_name in SINK_CALLS:
            rule = SINK_CALLS[call_name]
            skip_first = call_name in SINK_MESSAGE_FIRST and len(node.args) >= 2
            for pos, (arg, taint) in enumerate(zip(node.args, arg_taints)):
                if skip_first and pos == 0:
                    continue
                self.hit_sink(
                    rule,
                    taint.flat(),
                    node,
                    f"'{_expr_text(arg)}' reaches {call_name}() without "
                    "the required verification on this path",
                    self.paths_in(arg),
                )
            for name, taint in kw_taints.items():
                self.hit_sink(
                    rule,
                    taint.flat(),
                    node,
                    f"argument '{name}' reaches {call_name}() without "
                    "the required verification on this path",
                )
        if call_name in ALLOC_CALLS:
            rule = ALLOC_CALLS[call_name]
            for arg, taint in zip(node.args, arg_taints):
                self.hit_sink(
                    rule,
                    taint.flat(),
                    node,
                    f"allocation {call_name}({_expr_text(arg)}) sized by a "
                    "remote value without a bounds check",
                    self.paths_in(arg),
                )
        if (
            call_name in GROWTH_CALLS
            and isinstance(func, ast.Attribute)
            and node.args
        ):
            key_taint = arg_taints[0].flat()
            self.check_growth(func.value, node.args[0], key_taint, node)

        # collection mutation stores taint cross-function (content only:
        # for setdefault the key is checked by T404/T406, not stored)
        if (
            isinstance(func, ast.Attribute)
            and call_name in ("setdefault", "add", "append", "update", "extend")
            and self.fn.cls is not None
        ):
            attr: Optional[str] = None
            if (
                isinstance(func.value, ast.Attribute)
                and isinstance(func.value.value, ast.Name)
                and func.value.value.id == "self"
            ):
                attr = func.value.attr
            elif isinstance(func.value, ast.Name):
                attr = self.aliases.get(func.value.id)
            if attr is not None:
                content = arg_taints[1:] if call_name == "setdefault" else arg_taints
                stored = EMPTY
                for t in content:
                    stored = merge(stored, t.flat())
                self.store_content(attr, stored)

        # dict access returns content, never the key
        if call_name in ("setdefault", "get") and isinstance(func, ast.Attribute):
            out = receiver.flat()
            for t in arg_taints[1:2]:  # default value
                out = merge(out, t.flat())
            return out

        # sanitizers ----------------------------------------------------------
        sanitized = call_name in SANITIZERS
        if sanitized:
            rules = SANITIZERS[call_name]
            cleared_args: List[Taint] = []
            for arg, taint in zip(node.args, arg_taints):
                # paths_in, not path_of: verify_shares(m, [msg.share])
                # must clear msg.share inside the list literal too
                for path in self.paths_in(arg):
                    self.clear_path(env, path, rules, node.lineno, from_sanitizer=True)
                for marker in taint.flat().markers:
                    if marker.startswith("p"):
                        self.sanitizes.add((marker, rules))
                cleared_args.append(taint.clear(rules))
            arg_taints = cleared_args
            kw_taints = {k: t.clear(rules) for k, t in kw_taints.items()}
            # verifying a method's receiver (msg.verify()) clears it too
            if isinstance(func, ast.Attribute):
                rpath = self.path_of(func.value)
                if rpath is not None:
                    self.clear_path(env, rpath, rules, node.lineno, from_sanitizer=True)
                for marker in receiver.flat().markers:
                    if marker.startswith("p"):
                        self.sanitizes.add((marker, rules))

        # sources -------------------------------------------------------------
        if call_name in SOURCE_CALLS:
            merged = EMPTY
            for t in list(arg_taints) + list(kw_taints.values()):
                merged = merge(merged, t.flat())
            return Taint(
                markers=frozenset({"src"}) | merged.markers,
                cleared=merged.cleared | frozenset({"T405"}),
                laundered=merged.laundered,
            )
        if sanitized:
            return EMPTY

        # dataclass constructor: field-sensitive message taint
        ctor = self.index.resolve_constructor(node, self.fn)
        if ctor is not None and ctor.fields:
            fields: List[Tuple[str, Taint]] = []
            for pos, taint in enumerate(arg_taints):
                if pos < len(ctor.fields) and taint.is_tainted:
                    fields.append((ctor.fields[pos], taint.flat()))
            for name, taint in kw_taints.items():
                if name in ctor.fields and taint.is_tainted:
                    fields.append((name, taint.flat()))
            if fields:
                return Taint(fields=tuple(sorted(fields)))
            return EMPTY

        # interprocedural: apply the callee's summary ------------------------
        if callee_qname is not None and callee_qname in self.engine.summaries:
            return self.apply_summary(
                node, callee_qname, arg_taints, kw_taints, receiver, env
            )

        # unknown call: propagate conservatively
        out = receiver.flat()
        for t in list(arg_taints) + list(kw_taints.values()):
            out = merge(out, t.flat())
        return out

    def _arg_for_marker(
        self, node: ast.Call, callee: FunctionInfo, offset: int, marker: str
    ) -> Optional[ast.expr]:
        """Call-site expression bound to the callee parameter ``marker``
        (``p<idx>``): the receiver for p0 of a method call, a positional
        argument, or a keyword matched by parameter name."""
        try:
            idx = int(marker[1:])
        except ValueError:
            return None
        pos = idx - offset
        if pos == -1 and isinstance(node.func, ast.Attribute):
            return node.func.value
        if 0 <= pos < len(node.args):
            return node.args[pos]
        if idx < len(callee.params):
            pname = callee.params[idx]
            for kw in node.keywords:
                if kw.arg == pname:
                    return kw.value
        return None

    def apply_summary(
        self,
        node: ast.Call,
        callee_qname: str,
        arg_taints: List[Taint],
        kw_taints: Dict[str, Taint],
        receiver: Taint = EMPTY,
        env: Optional[Dict[str, Taint]] = None,
    ) -> Taint:
        callee = self.index.functions[callee_qname]
        summary = self.engine.summaries[callee_qname]
        offset = 1 if callee.params and callee.params[0] in ("self", "cls") and isinstance(
            node.func, ast.Attribute
        ) else 0
        bindings: Dict[str, Taint] = {}
        if offset == 1 and receiver.is_tainted:
            bindings["p0"] = receiver.flat()
        for pos, taint in enumerate(arg_taints):
            idx = pos + offset
            if idx < len(callee.params):
                bindings[f"p{idx}"] = taint.flat()
        for name, taint in kw_taints.items():
            if name in callee.params:
                bindings[f"p{callee.params.index(name)}"] = taint.flat()

        for hit in summary.sink_hits:
            bound = bindings.get(hit.marker)
            if bound is None or hit.rule in bound.cleared:
                continue
            if "src" in bound.markers:
                if self.report:
                    rule = (
                        "T407"
                        if bound.laundered and hit.rule in LAUNDERABLE_RULES
                        else hit.rule
                    )
                    self.findings.append(
                        Finding(rule, hit.path, hit.line, hit.col, hit.message)
                    )
            for marker in bound.markers:
                if marker.startswith("p"):
                    self.sink_hits.add(replace(hit, marker=marker))

        # sanitizers applied inside the callee act at this call site too:
        # clearing the argument's path here is what trips T408 when the
        # value already reached a sink earlier in THIS function
        for marker, rules in summary.sanitizes:
            bound = bindings.get(marker)
            if bound is None:
                continue
            if env is not None:
                arg_expr = self._arg_for_marker(node, callee, offset, marker)
                if arg_expr is not None:
                    for path in self.paths_in(arg_expr):
                        self.clear_path(
                            env, path, rules, node.lineno, from_sanitizer=True
                        )
            for m in bound.markers:
                if m.startswith("p"):
                    self.sanitizes.add((m, rules))

        for cls_qname, attr, marker, cleared, laundered, key in summary.attr_stores:
            bound = bindings.get(marker)
            if bound is None:
                continue
            # sanitization performed inside the callee before the store
            # applies on top of whatever the caller had already cleared
            eff_cleared = bound.cleared | cleared
            eff_laundered = bound.laundered or laundered
            if "src" in bound.markers:
                stored = Taint(frozenset({"src"}), eff_cleared, eff_laundered)
                if key is not None:
                    self.engine.store_attr_key(cls_qname, attr, key, stored)
                else:
                    self.engine.store_attr(cls_qname, attr, stored)
            for m in bound.markers:
                if m.startswith("p"):
                    self.attr_stores.add(
                        (cls_qname, attr, m, eff_cleared, eff_laundered, key)
                    )

        markers: Set[str] = set()
        cleared = summary.returns.cleared
        laundered = summary.returns.laundered
        if "src" in summary.returns.markers:
            markers.add("src")
        for marker in summary.returns.markers:
            bound = bindings.get(marker)
            if bound is not None and bound.is_tainted:
                markers.update(bound.markers)
                laundered = laundered or bound.laundered
        if not markers:
            return EMPTY
        return Taint(frozenset(markers), cleared, laundered)

    # -- sink helpers ---------------------------------------------------------

    def hit_sink(
        self,
        rule: str,
        taint: Taint,
        node: ast.AST,
        message: str,
        paths: Sequence[str] = (),
    ) -> None:
        if not taint.markers or rule in taint.cleared:
            return
        line = getattr(node, "lineno", self.fn.lineno)
        col = getattr(node, "col_offset", 0)
        if "src" in taint.markers and self.report:
            effective = (
                "T407" if taint.laundered and rule in LAUNDERABLE_RULES else rule
            )
            if effective == "T407":
                message += " (value was laundered through a serialization round-trip)"
            self.findings.append(
                Finding(effective, self.fn.path, line, col, message)
            )
        for marker in taint.markers:
            if marker.startswith("p"):
                self.sink_hits.add(
                    SinkHit(marker, rule, self.fn.path, line, col, message)
                )
        for path in paths:
            self.sunk.setdefault(path, []).append((rule, line))

    def check_growth(
        self,
        container: ast.expr,
        key: ast.expr,
        key_taint: Taint,
        node: ast.AST,
    ) -> None:
        cpath = self.path_of(container)
        if cpath is not None and cpath in self.guarded:
            return
        # only replica state (self.<attr>) growth is in scope
        if not (cpath or "").startswith("self."):
            return
        if self._is_identity_path(key):
            self.hit_sink(
                "T406",
                key_taint,
                node,
                f"message-claimed identity '{_expr_text(key)}' indexes "
                f"{cpath} without a sender/bounds check",
                self.paths_in(key),
            )
            return
        self.hit_sink(
            "T404",
            key_taint,
            node,
            f"remote value '{_expr_text(key)}' keys unbounded growth of "
            f"{cpath} (no membership/bounds guard on this path)",
            self.paths_in(key),
        )

    def check_identity_index(self, node: ast.Subscript, env: Dict[str, Taint]) -> None:
        if not self._is_identity_path(node.slice):
            return
        base_path = self.path_of(node.value)
        if not (base_path or "").startswith("self."):
            return
        slice_path = self.path_of(node.slice)
        taint = (
            env.get(slice_path, EMPTY).flat() if slice_path else EMPTY
        )
        if not taint.is_tainted and isinstance(node.slice, ast.Attribute):
            taint = self.eval(node.slice, env).flat()
        self.hit_sink(
            "T406",
            taint,
            node,
            f"message-claimed identity '{_expr_text(node.slice)}' indexes "
            f"{base_path} without a sender/bounds check",
            [slice_path] if slice_path else (),
        )

    def check_repetition(self, node: ast.BinOp, left: Taint, right: Taint) -> None:
        def is_seq_literal(expr: ast.expr) -> bool:
            return isinstance(expr, (ast.List, ast.Tuple)) or (
                isinstance(expr, ast.Constant)
                and isinstance(expr.value, (str, bytes))
            )

        for seq, count_expr, count in (
            (node.left, node.right, right),
            (node.right, node.left, left),
        ):
            if is_seq_literal(seq):
                self.hit_sink(
                    "T403",
                    count.flat(),
                    node,
                    f"sequence repetition '{_expr_text(node)}' sized by a "
                    "remote value without a bounds check",
                    self.paths_in(count_expr),
                )


# -- the pass -----------------------------------------------------------------


@register_pass(SCOPE_TAINT, TAINT_RULES)
def taint_pass(program: Program) -> List[Finding]:
    return TaintEngine(program).run()
