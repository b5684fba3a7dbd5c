"""Dynamic confirmation of the static race findings (Y601-Y604).

The static yield-point checker (``repro.lint.races``) reasons about
one function's source; it cannot tell whether a flagged await window is
actually reachable by two concurrent activations.  ``repro explore
--confirm-races`` closes that loop: for every Y-finding it searches the
interleaving space of a matching *harness* — an executable fixture
driving the flagged code through :class:`~repro.explore.tasks.TaskModel`
— and reclassifies the finding:

* ``X702`` — **confirmed**: some explored schedule violates the
  harness's invariant *and* suspends at the exact await line the static
  finding points at; the minimized schedule ships as a replayable
  counterexample.
* ``X703`` — **unwitnessed**: exhaustive (or budget-bounded)
  exploration of every harness in the finding's file produced no such
  schedule.  Not a proof of absence unless exploration completed, but a
  strong signal the static window is not dynamically exercisable.

Harnesses are published by the analyzed file itself: a module-level
``EXPLORE_HARNESSES`` list of :class:`RaceHarness`.  Production protocol
code carries no harnesses (the repo is Y-clean, so there is nothing to
confirm); the explorer's test corpus plants both the bugs and their
harnesses side by side.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.explore.dpor import Choice, DporEngine, replay_schedule
from repro.explore.schedule import minimize_violation
from repro.explore.tasks import BuildFn, CheckFn, TaskModel
from repro.lint.framework import SCOPE_ALL, Finding, Program, rule_table
from repro.lint.races import RaceWindow, race_windows

#: Rule catalog for the exploration family, rendered by the lint reporter.
EXPLORE_RULES = rule_table("explore", SCOPE_ALL, "error", {
    "X701": (
        "invariant violated under systematic exploration",
        "Exhaustive (or delay-bounded) exploration of the protocol's "
        "message interleavings found a schedule violating a safety or "
        "liveness invariant; the minimized schedule replays the "
        "violation deterministically via 'repro explore --replay'.",
    ),
    "X702": (
        "static race confirmed by a minimized schedule",
        "A Y601-Y604 yield-point finding was dynamically confirmed: a "
        "systematically explored schedule violates the matching "
        "harness's invariant while suspending at the flagged await, "
        "proving the static window is exercisable.",
    ),
    "X703": (
        "static race unwitnessed at the explored bound",
        "Systematic exploration of every harness covering a Y601-Y604 "
        "finding produced no violating schedule through the flagged "
        "await window at the explored cluster size and budget; the "
        "static finding stands but no dynamic witness exists at this "
        "bound.",
    ),
})


@dataclass
class RaceHarness:
    """An executable confirmation fixture published by an analyzed file.

    ``build`` is a :class:`TaskModel` build function (scheduler in,
    shared state + tasks out); ``invariant`` runs at every state and
    ``final`` at completed leaves.  ``confirm_rules`` lists rules this
    harness confirms *by violating at all* — used for Y604, whose
    findings have no await line to match suspension evidence against.
    """

    name: str
    build: BuildFn
    invariant: Optional[CheckFn] = None
    final: Optional[CheckFn] = None
    confirm_rules: Tuple[str, ...] = ()
    segment_cap: int = 400


@dataclass
class ConfirmOutcome:
    """One Y-finding's reclassification."""

    original: Finding
    window: RaceWindow
    status: str  # "confirmed" | "unwitnessed"
    harness: str = ""
    schedule: List[Choice] = field(default_factory=list)
    messages: List[str] = field(default_factory=list)
    fingerprint: str = ""
    schedules_explored: int = 0
    complete: bool = True

    @property
    def rule(self) -> str:
        return "X702" if self.status == "confirmed" else "X703"

    def finding(self) -> Finding:
        f = self.original
        if self.status == "confirmed":
            detail = self.messages[0] if self.messages else "invariant violated"
            message = (
                f"{f.rule} confirmed: harness '{self.harness}' violates "
                f"('{detail}') under a minimized schedule of "
                f"{len(self.schedule)} segments through the flagged await"
            )
        else:
            completeness = (
                "exhaustive" if self.complete else "budget-bounded"
            )
            message = (
                f"{f.rule} unwitnessed: {completeness} exploration of "
                f"{self.schedules_explored} schedule(s) found no violation "
                f"through the flagged await at this bound"
            )
        return Finding(
            rule=self.rule, path=f.path, line=f.line, col=f.col, message=message
        )


@dataclass
class _HarnessEvidence:
    """What exploring one harness proved."""

    harness: RaceHarness
    schedules: int
    complete: bool
    #: Per violation: (minimized schedule, messages, fingerprint,
    #: suspension lines exercised by the *full* violating schedule).
    violations: List[Tuple[List[Choice], List[str], str, frozenset]] = field(
        default_factory=list
    )


def _load_harnesses(path: Any, text: str) -> List[RaceHarness]:
    """Execute an analyzed file and collect its ``EXPLORE_HARNESSES``."""
    namespace: Dict[str, Any] = {"__name__": f"_confirm_{abs(hash(str(path)))}"}
    code = compile(text, str(path), "exec")
    exec(code, namespace)  # the file is repo-local fixture/production code
    harnesses = namespace.get("EXPLORE_HARNESSES", [])
    return [h for h in harnesses if isinstance(h, RaceHarness)]


def _explore_harness(
    harness: RaceHarness,
    *,
    max_schedules: Optional[int],
    deadline_s: Optional[float],
) -> _HarnessEvidence:
    model = TaskModel(
        harness.build,
        invariant=harness.invariant,
        final=harness.final,
        segment_cap=harness.segment_cap,
    )
    engine = DporEngine(
        model,
        max_schedules=max_schedules,
        deadline_s=deadline_s,
        strategy=harness.name,
    )
    result = engine.run()
    evidence = _HarnessEvidence(
        harness=harness, schedules=result.schedules, complete=result.complete
    )
    for violation in result.violations:
        # Line evidence comes from the full violating schedule (the
        # minimized prefix may stop before the racing await); the
        # minimized schedule is what ships in the report.
        replay_model = TaskModel(
            harness.build,
            invariant=harness.invariant,
            final=harness.final,
            segment_cap=harness.segment_cap,
        )
        replay_schedule(replay_model, list(violation.schedule), complete=True)
        lines = replay_model.suspension_lines()
        fresh = TaskModel(
            harness.build,
            invariant=harness.invariant,
            final=harness.final,
            segment_cap=harness.segment_cap,
        )
        schedule, messages, fingerprint, _digest = minimize_violation(
            fresh, violation
        )
        evidence.violations.append(
            (list(schedule), list(messages), fingerprint, lines)
        )
    return evidence


def _match(
    finding: Finding, window: RaceWindow, evidence: Sequence[_HarnessEvidence]
) -> Optional[Tuple[_HarnessEvidence, Tuple[List[Choice], List[str], str, frozenset]]]:
    for ev in evidence:
        for vio in ev.violations:
            _schedule, _messages, _fp, lines = vio
            if window.yield_line is not None:
                if window.yield_line in lines:
                    return ev, vio
            elif finding.rule in ev.harness.confirm_rules:
                return ev, vio
    return None


def confirm_races(
    program: Program,
    *,
    max_schedules: Optional[int] = 5_000,
    deadline_s: Optional[float] = None,
    harnesses: Optional[Dict[str, List[RaceHarness]]] = None,
) -> List[ConfirmOutcome]:
    """Reclassify every Y601-Y604 finding in ``program`` as X702 or X703.

    ``harnesses`` overrides harness discovery (finding path -> harness
    list); by default each flagged file is executed and its module-level
    ``EXPLORE_HARNESSES`` collected.
    """
    paired = race_windows(program)
    if not paired:
        return []
    sources = {ctx.path: ctx.source for ctx in program.contexts}
    evidence_cache: Dict[str, List[_HarnessEvidence]] = {}
    outcomes: List[ConfirmOutcome] = []
    for finding, window in paired:
        if finding.path not in evidence_cache:
            if harnesses is not None:
                hs = harnesses.get(finding.path, [])
            else:
                hs = _load_harnesses(finding.path, sources[finding.path])
            evidence_cache[finding.path] = [
                _explore_harness(
                    h, max_schedules=max_schedules, deadline_s=deadline_s
                )
                for h in hs
            ]
        evidence = evidence_cache[finding.path]
        matched = _match(finding, window, evidence)
        if matched is not None:
            ev, (schedule, messages, fingerprint, _lines) = matched
            outcomes.append(
                ConfirmOutcome(
                    original=finding,
                    window=window,
                    status="confirmed",
                    harness=ev.harness.name,
                    schedule=schedule,
                    messages=messages,
                    fingerprint=fingerprint,
                    schedules_explored=ev.schedules,
                    complete=ev.complete,
                )
            )
        else:
            outcomes.append(
                ConfirmOutcome(
                    original=finding,
                    window=window,
                    status="unwitnessed",
                    schedules_explored=sum(e.schedules for e in evidence),
                    complete=all(e.complete for e in evidence),
                )
            )
    return outcomes
