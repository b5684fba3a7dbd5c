"""Yield-point atomicity checker (Y601-Y604, DESIGN.md §5h).

A replica handler runs atomically only between ``await``s: every yield
point is a seam where another activation (or another handler of the same
object) can run.  This pass linearizes each dispatcher-reachable
``async def`` into self-attribute reads/writes and yield points, then
flags spans where an await interposes between a guard and the write it
protects (Y601), between a read and a write of state shared with other
handlers (Y602), or inside a busy-flag critical section with no
``finally`` reset (Y603) — plus fire-and-forget task spawns whose
exceptions are silently dropped (Y604).

Handler reachability reuses the program index: every function marked
``is_handler`` (dispatcher registrations + ``on_``/``handle_`` naming)
seeds a call-graph BFS; Y601-Y603 run over the async functions in that
closure, Y604 over every in-scope ``async def``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.framework import SCOPE_RACES, Finding, Program, register_pass
from repro.lint.index import FunctionInfo
from repro.lint.quorum import _walk_no_nested

RACE_RULES: Dict[str, Tuple[str, str]] = {
    "Y601": (
        "lost update across await (TOCTOU)",
        "An await interposes between a guard that reads a protocol field "
        "and a write the guard protects, with no re-validation after the "
        "yield; a concurrent handler activation can invalidate the guard "
        "while this one is suspended.",
    ),
    "Y602": (
        "shared handler state mutated across await",
        "A field read before an await and written after it is also "
        "touched by other dispatcher-reachable handlers; without a "
        "re-check after the yield the write can clobber a concurrent "
        "activation's update.",
    ),
    "Y603": (
        "busy/session flag held across await without finally",
        "A _busy-style flag is set and an await runs while it is held, "
        "but the reset is not guaranteed by a try/finally; an exception "
        "at the yield point wedges the flag and deadlocks the session.",
    ),
    "Y604": (
        "fire-and-forget task drops exceptions",
        "asyncio.create_task/ensure_future result is discarded, so the "
        "task's exceptions vanish into the 'Task exception was never "
        "retrieved' log; keep a reference and attach a done callback or "
        "await it.",
    ),
}

#: Attribute-name fragments that mark a field as a busy/session flag.
BUSY_FLAG_HINTS: Tuple[str, ...] = ("busy", "lock", "inflight", "in_flight")

#: Call names that spawn a task whose exceptions vanish if unreferenced.
TASK_SPAWNERS: Tuple[str, ...] = ("create_task", "ensure_future")


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return ""


def _self_attr(node: ast.AST) -> Optional[str]:
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _is_busy_name(attr: str) -> bool:
    lowered = attr.lower()
    return any(hint in lowered for hint in BUSY_FLAG_HINTS)


@dataclass(frozen=True)
class RaceWindow:
    """Structured form of one Y-finding, for the explorer's confirm mode.

    Identifies the await window a finding points at — enough for
    ``repro explore --confirm-races`` to search for a schedule whose
    interleaving exercises exactly this suspension point.
    """

    rule: str
    path: str
    line: int
    fn_qname: str
    cls: Optional[str]
    attr: Optional[str]
    yield_line: Optional[int]


@dataclass
class _Events:
    """Line-indexed access summary of one async function."""

    awaits: List[int] = field(default_factory=list)
    reads: List[Tuple[str, int]] = field(default_factory=list)
    writes: List[Tuple[str, int]] = field(default_factory=list)
    #: self-attrs read inside If/While/Assert tests: (attr, test line)
    test_reads: List[Tuple[str, int]] = field(default_factory=list)


def _collect_events(fn_node: ast.AST) -> _Events:
    ev = _Events()
    for node in _walk_no_nested(fn_node):
        if isinstance(node, (ast.Await, ast.AsyncFor, ast.AsyncWith)):
            ev.awaits.append(node.lineno)
        elif isinstance(node, ast.Attribute):
            attr = _self_attr(node)
            if attr is None:
                continue
            if isinstance(node.ctx, ast.Store):
                ev.writes.append((attr, node.lineno))
            elif isinstance(node.ctx, ast.Load):
                ev.reads.append((attr, node.lineno))
        if isinstance(node, (ast.If, ast.While, ast.Assert)):
            test = node.test
            for sub in ast.walk(test):
                attr = _self_attr(sub)
                if attr is not None and isinstance(sub.ctx, ast.Load):
                    ev.test_reads.append((attr, test.lineno))
    ev.awaits.sort()
    return ev


def _revalidated(ev: _Events, attr: str, after: int, before: int) -> bool:
    """True when ``attr`` is re-read in a guard test in (after, before]."""
    return any(
        a == attr and after < line <= before for a, line in ev.test_reads
    )


class RaceChecker:
    def __init__(self, program: Program) -> None:
        self.program = program
        self.index = program.index
        self.reachable = self._handler_closure()
        self.attr_users = self._attr_users()
        #: RaceWindow per finding of the most recent :meth:`run`, aligned
        #: with the returned findings (same sort order).
        self.last_windows: List[RaceWindow] = []

    def _handler_closure(self) -> Set[str]:
        seeds = {
            qname
            for qname, fn in self.index.functions.items()
            if fn.is_handler
        }
        return self.index.call_closure(seeds)

    def _attr_users(self) -> Dict[Tuple[str, str], Set[str]]:
        """(class qname, attr) -> handler-reachable methods touching it."""
        users: Dict[Tuple[str, str], Set[str]] = {}
        for qname, fn in self.index.functions.items():
            if fn.cls is None or qname not in self.reachable:
                continue
            for node in _walk_no_nested(fn.node):
                attr = _self_attr(node)
                if attr is not None:
                    users.setdefault((fn.cls, attr), set()).add(qname)
        return users

    def _note_window(
        self,
        finding: Finding,
        fn: FunctionInfo,
        attr: Optional[str],
        yield_line: Optional[int],
    ) -> None:
        key = (finding.rule, finding.path, finding.line, finding.col)
        self._window_map[key] = RaceWindow(
            rule=finding.rule,
            path=finding.path,
            line=finding.line,
            fn_qname=fn.qname,
            cls=fn.cls,
            attr=attr,
            yield_line=yield_line,
        )

    # -- per-function checks --------------------------------------------------

    def _check_toctou(
        self, fn: FunctionInfo, ev: _Events, reported: Set[Tuple[str, int]]
    ) -> List[Finding]:
        findings: List[Finding] = []
        for stmt in _walk_no_nested(fn.node):
            if not isinstance(stmt, ast.If):
                continue
            guard_attrs = {
                _self_attr(sub)
                for sub in ast.walk(stmt.test)
                if _self_attr(sub) is not None
            }
            if not guard_attrs:
                continue
            end = stmt.end_lineno or stmt.lineno
            region = range(stmt.lineno + 1, end + 1)
            region_awaits = [a for a in ev.awaits if a in region]
            if not region_awaits:
                continue
            for attr, wline in ev.writes:
                if attr not in guard_attrs or wline not in region:
                    continue
                prior = [a for a in region_awaits if a <= wline]
                if not prior:
                    continue
                yield_line = max(prior)
                if _revalidated(ev, attr, yield_line, wline):
                    continue
                if (attr, wline) in reported:
                    continue
                reported.add((attr, wline))
                findings.append(
                    Finding(
                        "Y601",
                        fn.path,
                        wline,
                        0,
                        f"'self.{attr}' guards this branch (line "
                        f"{stmt.lineno}) but is written after the await "
                        f"at line {yield_line} without re-validation: a "
                        f"concurrent activation can invalidate the guard "
                        f"while suspended",
                    )
                )
                self._note_window(findings[-1], fn, attr, yield_line)
        return findings

    def _check_shared_state(
        self, fn: FunctionInfo, ev: _Events, reported: Set[Tuple[str, int]]
    ) -> List[Finding]:
        findings: List[Finding] = []
        if fn.cls is None or not ev.awaits:
            return findings
        for attr, wline in ev.writes:
            others = self.attr_users.get((fn.cls, attr), set()) - {fn.qname}
            if not others:
                continue
            prior = [a for a in ev.awaits if a <= wline]
            if not prior:
                continue
            yield_line = max(prior)
            read_before = any(
                a == attr and line < yield_line for a, line in ev.reads
            )
            if not read_before:
                continue
            if _revalidated(ev, attr, yield_line, wline):
                continue
            if (attr, wline) in reported:
                continue
            reported.add((attr, wline))
            handlers = ", ".join(sorted(q.rsplit(":", 1)[-1] for q in others))
            findings.append(
                Finding(
                    "Y602",
                    fn.path,
                    wline,
                    0,
                    f"'self.{attr}' is read before the await at line "
                    f"{yield_line} and written after it, but is also "
                    f"touched by {handlers}; re-check it after the yield "
                    f"or the write clobbers concurrent updates",
                )
            )
            self._note_window(findings[-1], fn, attr, yield_line)
        return findings

    def _check_busy_flags(self, fn: FunctionInfo, ev: _Events) -> List[Finding]:
        findings: List[Finding] = []
        sets: List[Tuple[str, int]] = []
        clears: Dict[str, List[int]] = {}
        protected: Dict[str, List[Tuple[int, int]]] = {}
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Constant
            ):
                for target in node.targets:
                    attr = _self_attr(target)
                    if attr is None or not _is_busy_name(attr):
                        continue
                    if node.value.value is True:
                        sets.append((attr, node.lineno))
                    elif node.value.value in (False, None):
                        clears.setdefault(attr, []).append(node.lineno)
            elif isinstance(node, ast.Try):
                resets: Set[str] = set()
                for cleanup in list(node.finalbody) + [
                    s for h in node.handlers for s in h.body
                ]:
                    for sub in ast.walk(cleanup):
                        attr = _self_attr(sub)
                        if attr is not None and isinstance(sub.ctx, ast.Store):
                            resets.add(attr)
                span = (node.lineno, node.end_lineno or node.lineno)
                for attr in resets:
                    protected.setdefault(attr, []).append(span)
        fn_end = fn.node.end_lineno or fn.lineno
        for attr, sline in sets:
            later_clears = [c for c in clears.get(attr, []) if c > sline]
            held_until = min(later_clears) if later_clears else fn_end
            for a in ev.awaits:
                if not sline < a <= held_until:
                    continue
                if any(
                    lo <= a <= hi for lo, hi in protected.get(attr, [])
                ):
                    continue
                findings.append(
                    Finding(
                        "Y603",
                        fn.path,
                        a,
                        0,
                        f"await while 'self.{attr}' is held (set at line "
                        f"{sline}); an exception here wedges the flag — "
                        f"reset it in a try/finally",
                    )
                )
                self._note_window(findings[-1], fn, attr, a)
                break  # one finding per critical section
        return findings

    def _check_fire_and_forget(
        self, fn: FunctionInfo, ev: _Events
    ) -> List[Finding]:
        findings: List[Finding] = []
        name_loads: List[Tuple[str, int]] = []
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                name_loads.append((node.id, node.lineno))
        for node in _walk_no_nested(fn.node):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                if _call_name(node.value) in TASK_SPAWNERS:
                    findings.append(
                        Finding(
                            "Y604",
                            fn.path,
                            node.lineno,
                            node.col_offset,
                            f"result of {_call_name(node.value)}() is "
                            f"discarded; the task's exceptions are never "
                            f"retrieved — keep a reference and attach a "
                            f"done callback or await it",
                        )
                    )
                    self._note_window(findings[-1], fn, None, None)
            elif isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                if _call_name(node.value) not in TASK_SPAWNERS:
                    continue
                if len(node.targets) != 1 or not isinstance(
                    node.targets[0], ast.Name
                ):
                    continue  # stored on self/container: reference kept
                var = node.targets[0].id
                used_later = any(
                    name == var and line > node.lineno
                    for name, line in name_loads
                )
                if not used_later:
                    findings.append(
                        Finding(
                            "Y604",
                            fn.path,
                            node.lineno,
                            node.col_offset,
                            f"task assigned to '{var}' is never awaited, "
                            f"cancelled, or given a done callback; its "
                            f"exceptions are dropped",
                        )
                    )
                    self._note_window(findings[-1], fn, None, None)
        return findings

    # -- driver ---------------------------------------------------------------

    def run(self) -> List[Finding]:
        findings: List[Finding] = []
        self._window_map: Dict[Tuple[str, str, int, int], RaceWindow] = {}
        for fn in sorted(
            self.index.functions.values(), key=lambda f: (f.path, f.lineno)
        ):
            if not self.program.in_scope(fn, SCOPE_RACES):
                continue
            if not isinstance(fn.node, ast.AsyncFunctionDef):
                continue
            ev = _collect_events(fn.node)
            findings.extend(self._check_fire_and_forget(fn, ev))
            if fn.qname not in self.reachable:
                continue
            reported: Set[Tuple[str, int]] = set()
            findings.extend(self._check_toctou(fn, ev, reported))
            findings.extend(self._check_shared_state(fn, ev, reported))
            findings.extend(self._check_busy_flags(fn, ev))
        findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
        self.last_windows = [
            self._window_map[(f.rule, f.path, f.line, f.col)] for f in findings
        ]
        return findings


@register_pass(SCOPE_RACES, RACE_RULES)
def races_pass(program: Program) -> List[Finding]:
    return RaceChecker(program).run()


def race_windows(program: Program) -> List[Tuple[Finding, RaceWindow]]:
    """Unsuppressed race findings paired with their await windows; used
    by ``repro explore --confirm-races`` to search for a schedule
    exercising each window."""
    checker = RaceChecker(program)
    findings = checker.run()
    return [
        (f, window)
        for f, window in zip(findings, checker.last_windows, strict=True)
        if not program.shielded(f)
    ]
