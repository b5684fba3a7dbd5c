"""Protocol exploration driver: strategy enumeration, reports, replay.

``explore_protocol`` is the one entry point behind ``repro explore``: it
builds the explorer model(s) for a protocol — reliable broadcast, binary
agreement, atomic broadcast, or the full end-to-end name service — runs
one :class:`~repro.explore.dpor.DporEngine` per Byzantine strategy, and
folds the results into an :class:`ExploreReport` that knows how to
render itself as text, JSON findings (rule ``X701``), or SARIF via the
existing lint plumbing.

Every violation is minimized (:func:`minimize_violation`) and packaged
as a replayable :class:`~repro.explore.schedule.ScheduleFile`;
``replay_file`` rebuilds the identical model from such a file and
re-executes it, so a CI counterexample reproduces bit-for-bit locally.

The end-to-end model (:class:`E2eModel`) drives the *real* simulated
deployment: it installs a delivery hook on the sim network that parks
every transmitted message in a channel frontier (after byte accounting),
letting the engine choose delivery order while the kernel's
``run_available`` drains each choice's zero-delay cascade.  The full
service state graph is far too large for exhaustive search, so e2e
exploration is always delay-bounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.explore.dpor import (
    Choice,
    DporEngine,
    ExploreResult,
    StepMeta,
    Violation,
    replay_schedule,
)
from repro.explore.frontier import ChannelFrontier
from repro.explore.models import (
    AbaModel,
    AbcModel,
    ByzStrategy,
    RbcModel,
    aba_strategies,
    abc_strategies,
    rbc_strategies,
    rbc_voter_strategies,
)
from repro.explore.schedule import (
    ScheduleFile,
    load_schedule,
    minimize_violation,
    transcript_hash,
)
from repro.lint.framework import Finding

PROTOCOLS = ("rbc", "aba", "abc", "e2e")

#: Where a protocol-level violation anchors in the source tree.
_PROTOCOL_SOURCE = {
    "rbc": "src/repro/broadcast/rbc.py",
    "aba": "src/repro/broadcast/aba.py",
    "abc": "src/repro/broadcast/abc.py",
    "e2e": "src/repro/core/service.py",
}


# ---------------------------------------------------------------------------
# End-to-end model over the real deployment
# ---------------------------------------------------------------------------


class _ParkHook:
    """Network delivery hook parking every message in the frontier.

    A callable object (not a closure) so its identity survives model
    rebuilds; it reads the owning model's current step index to record
    the happens-before "sent by" edge.
    """

    def __init__(self, model: "E2eModel") -> None:
        self.model = model

    def __call__(self, src: int, dest: int, payload: Any) -> bool:
        self.model.state_frontier.push(
            src, dest, payload, sent_by=self.model.current_index
        )
        return True


class _OpSink:
    """Records completed client operations by plan index."""

    def __init__(self, results: List[Optional[Any]], index: int) -> None:
        self.results = results
        self.index = index

    def __call__(self, completed: Any) -> None:
        self.results[self.index] = completed


class E2eModel:
    """Explorer model over the full :class:`ReplicatedNameService`.

    Choices are ``(src, dest)`` network-channel picks exactly as in the
    message models; protocol timeouts live in the sim kernel's heap and
    fire only at frontier quiescence, earliest first, as barrier steps.
    The service arms closures over live objects everywhere, so the model
    is replay-restored (``snapshot()`` is None) and every ``reset()``
    rebuilds the deployment — expensive, which is one more reason e2e
    runs delay-bounded.
    """

    sids_isolated = False
    step_cap = 2_000

    def __init__(
        self,
        n: int,
        t: int,
        *,
        mode: str = "digest",
        strategy: str = "honest",
        ops: Sequence[Tuple[str, str]] = (("read", "www"),),
        timer_cap: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self.n = n
        self.t = t
        self.mode = mode
        self.strategy = strategy
        self.ops = list(ops)
        self.timer_cap = timer_cap if timer_cap is not None else 8 * n
        self.seed = seed
        self.service: Any = None
        self.state_frontier = ChannelFrontier()
        self.results: List[Optional[Any]] = []
        self.current_index = -1
        self.steps = 0
        self.timer_fires = 0
        self.bound_hit = False

    # -- construction ------------------------------------------------------

    def _build_service(self) -> Any:
        from repro.chaos.scenarios import _deployment_for
        from repro.config import ServiceConfig
        from repro.core.faults import CorruptionMode
        from repro.core.service import ReplicatedNameService

        config = ServiceConfig(
            n=self.n,
            t=self.t,
            broadcast_mode=self.mode,
            # Short protocol timers: the explorer fires them symbolically
            # (ordering matters, absolute durations do not).
            abc_timeout=1.0,
            client_timeout=5.0,
        )
        service = ReplicatedNameService(
            config,
            deployment=_deployment_for(config),
            seed=self.seed,
        )
        if self.strategy == "crash-follower":
            # Crash a non-gateway replica: the protocol must stay live
            # and consistent with n - 1 >= n - t participants.
            service.corrupt(self.n - 1, CorruptionMode.CRASH)
        elif self.strategy not in ("", "honest"):
            raise ValueError(f"unknown e2e strategy {self.strategy!r}")
        return service

    def reset(self) -> None:
        from repro.dns.constants import TYPE_A
        from repro.dns.name import Name

        self.state_frontier = ChannelFrontier()
        self.current_index = -1
        self.steps = 0
        self.timer_fires = 0
        self.bound_hit = False
        if self.service is not None:
            self.service.close()
        self.service = self._build_service()
        self.service.net.delivery_hook = _ParkHook(self)
        self.results = [None] * len(self.ops)
        for i, (kind, name_text) in enumerate(self.ops):
            name = Name.from_text(f"{name_text}.example.com.")
            sink = _OpSink(self.results, i)
            if kind == "read":
                self.service.client.query(name, TYPE_A, sink)
            elif kind == "delete":
                self.service.client.delete_name(name, sink)
            else:
                raise ValueError(f"unknown e2e op kind {kind!r}")
        self._drain()

    # -- kernel draining ---------------------------------------------------

    def _drain(self) -> None:
        """Process every kernel event inside the busy-CPU horizon.

        After a delivery the receiving node is CPU-busy for a while and
        the kernel may have re-parked follow-on work at ``busy_until``;
        protocol timeouts sit much further out.  Draining up to the
        (moving) busy horizon runs the whole synchronous cascade without
        letting a timeout fire out of turn.
        """
        sim = self.service.net.sim
        for _ in range(10_000):
            horizon = max(
                [sim.now] + [node.busy_until for node in self.service.net.nodes]
            )
            if sim.run_available(horizon=horizon) == 0:
                return
        raise RuntimeError("e2e cascade did not settle")  # pragma: no cover

    # -- engine interface --------------------------------------------------

    def enabled(self) -> List[Choice]:
        if self.steps >= self.step_cap:
            self.bound_hit = True
            return []
        return list(self.state_frontier.enabled())

    def execute(self, choice: Choice, index: int) -> StepMeta:
        key = choice  # (src, dest)
        fifo_pred = self.state_frontier.fifo_predecessor(key)
        msg = self.state_frontier.pop(key, index)
        self.current_index = index
        src, dest = key
        try:
            self.service.net.nodes[dest]._deliver(src, msg.payload)
            self._drain()
        finally:
            self.current_index = -1
        self.steps += 1
        return StepMeta(
            choice=choice,
            dest=dest,
            sent_by=msg.sent_by,
            fifo_pred=fifo_pred,
            label=f"{src}->{dest}:{type(msg.payload).__name__}",
        )

    def peek(self, choice: Choice) -> StepMeta:
        return StepMeta(choice=choice, dest=choice[1])

    def fire_next_timer(self, index: int) -> Optional[StepMeta]:
        if self.timer_fires >= self.timer_cap:
            self.bound_hit = True
            return None
        sim = self.service.net.sim
        when = sim.next_event_time()
        if when is None:
            return None
        self.timer_fires += 1
        self.current_index = index
        try:
            sim.step()
            self._drain()
        finally:
            self.current_index = -1
        return StepMeta(
            choice=("timer", self.timer_fires),
            dest=-1,
            barrier=True,
            label=f"timer@{when:.3f}",
        )

    def snapshot(self) -> Optional[object]:
        return None  # live closures everywhere; replay from reset()

    def restore(self, snap: object) -> None:  # pragma: no cover - unused
        raise RuntimeError("E2eModel restores by replay, not snapshot")

    # -- invariants --------------------------------------------------------

    def check_now(self) -> List[str]:
        """Total-order prefix consistency of executed request logs.

        Zone digests legitimately diverge transiently (one replica has
        executed an update the other has not seen yet), but the executed
        request *sequences* must always be prefix-consistent — that is
        atomic broadcast's safety half, valid at every intermediate
        state.
        """
        logs = [
            tuple(r.delivered_requests) for r in self.service.honest_replicas()
        ]
        problems: List[str] = []
        for i in range(len(logs)):
            for j in range(i + 1, len(logs)):
                a, b = logs[i], logs[j]
                k = min(len(a), len(b))
                if a[:k] != b[:k]:
                    problems.append(
                        "G1: executed request logs are not prefix-consistent: "
                        f"{a[:k]} vs {b[:k]}"
                    )
        return problems

    def check_leaf(self) -> List[str]:
        from repro.chaos.invariants import InvariantReport, check_g1, check_g3

        problems = self.check_now()
        report = InvariantReport()
        check_g1(self.service, report)
        check_g3(self.service, self.results, report)
        problems.extend(report.violations)
        if not self.bound_hit and self.service.net.sim.next_event_time() is None:
            missing = [
                self.ops[i] for i, r in enumerate(self.results) if r is None
            ]
            if missing:
                problems.append(f"liveness: client ops never completed: {missing}")
        return problems

    def fingerprint(self) -> str:
        import hashlib

        h = hashlib.sha256()
        for replica in self.service.honest_replicas():
            h.update(replica.zone.digest())
            for rid in replica.delivered_requests:
                h.update(rid.encode())
                h.update(b";")
            h.update(b"|")
        return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Strategy enumeration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StrategySpec:
    """One (strategy name, model factory) exploration unit."""

    name: str
    factory: Callable[[], Any]


def _rbc_specs(n: int, t: int, mode: str) -> List[StrategySpec]:
    sid = "s"
    payload = b"alpha"
    specs = [
        StrategySpec(
            "honest",
            lambda: RbcModel(n, t, mode=mode, byz=None, sender=0, sid=sid),
        )
    ]
    byz_sender = 0
    honest = [i for i in range(n) if i != byz_sender]
    for strat in rbc_strategies(n, t, sid, mode, byz_sender, honest):
        specs.append(
            StrategySpec(
                f"sender-{strat.name}",
                lambda s=strat: RbcModel(
                    n, t, mode=mode, byz=byz_sender, strategy=s, sender=byz_sender, sid=sid
                ),
            )
        )
    byz_voter = n - 1
    voters = [i for i in range(n) if i != byz_voter]
    for strat in rbc_voter_strategies(n, t, sid, mode, byz_voter, voters, payload):
        specs.append(
            StrategySpec(
                f"voter-{strat.name}",
                lambda s=strat: RbcModel(
                    n, t, mode=mode, byz=byz_voter, strategy=s, sender=0,
                    payload=payload, sid=sid,
                ),
            )
        )
    return specs


def _aba_specs(n: int, t: int) -> List[StrategySpec]:
    sid = "s"
    byz = 0
    honest = [i for i in range(n) if i != byz]
    # Unanimous proposals keep the round-0 coin irrelevant and the state
    # space exhaustively explorable; the split strategies attack exactly
    # that unanimity.
    proposals = {i: 1 for i in honest}
    specs = []
    for strat in aba_strategies(n, t, sid, byz, honest):
        specs.append(
            StrategySpec(
                strat.name,
                lambda s=strat: AbaModel(
                    n, t, byz=byz, strategy=s, proposals=dict(proposals), sid=sid
                ),
            )
        )
    specs.append(
        StrategySpec(
            "honest-mixed",
            lambda: AbaModel(n, t, byz=None, proposals={i: i % 2 for i in range(n)}, sid=sid),
        )
    )
    return specs


def _abc_specs(n: int, t: int, mode: str) -> List[StrategySpec]:
    payloads = (b"req-a",)
    byz = 0  # replica 0 is the initial leader: the interesting corruption
    honest = [i for i in range(n) if i != byz]
    specs = [
        StrategySpec(
            "honest",
            lambda: AbcModel(n, t, dissemination=mode, payloads=payloads),
        ),
        # Three requests: the second and third reach the leader while the
        # first one's slot is in flight, so the schedules cover the held
        # backlog and its batch frame (one request alone never holds).
        StrategySpec(
            "honest-backlog",
            lambda: AbcModel(
                n, t, dissemination=mode,
                payloads=(b"req-a", b"req-b", b"req-c"),
            ),
        ),
    ]
    for strat in abc_strategies(n, t, byz, honest, [b"req-a", b"req-b"]):
        specs.append(
            StrategySpec(
                f"leader-{strat.name}",
                lambda s=strat: AbcModel(
                    n, t, dissemination=mode, byz=byz, strategy=s,
                    payloads=payloads,
                ),
            )
        )
    return specs


def _e2e_specs(n: int, t: int, mode: str) -> List[StrategySpec]:
    return [
        StrategySpec(
            "honest", lambda: E2eModel(n, t, mode=mode, strategy="honest")
        ),
        StrategySpec(
            "crash-follower",
            lambda: E2eModel(n, t, mode=mode, strategy="crash-follower"),
        ),
    ]


def strategy_specs(
    protocol: str, mode: str, n: int, t: int
) -> List[StrategySpec]:
    """All Byzantine/fault strategies explored for ``protocol`` at (n, t)."""
    if protocol == "rbc":
        return _rbc_specs(n, t, mode or "full")
    if protocol == "aba":
        return _aba_specs(n, t)
    if protocol == "abc":
        return _abc_specs(n, t, mode or "digest")
    if protocol == "e2e":
        return _e2e_specs(n, t, mode or "digest")
    raise ValueError(f"unknown protocol {protocol!r}; choose from {PROTOCOLS}")


def build_model(
    protocol: str, mode: str, n: int, t: int, strategy: str
) -> Any:
    """Rebuild the exact model a schedule file was recorded against."""
    for spec in strategy_specs(protocol, mode, n, t):
        if spec.name == strategy:
            return spec.factory()
    raise ValueError(
        f"unknown strategy {strategy!r} for protocol {protocol!r}"
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass
class StrategyRun:
    """One engine run: a strategy explored under one budget."""

    strategy: str
    result: ExploreResult
    wall_s: float


@dataclass
class ExploreReport:
    """Aggregated exploration outcome for one protocol configuration."""

    protocol: str
    mode: str
    cluster: Tuple[int, int]
    runs: List[StrategyRun] = field(default_factory=list)
    counterexamples: List[ScheduleFile] = field(default_factory=list)

    @property
    def schedules(self) -> int:
        return sum(r.result.schedules for r in self.runs)

    @property
    def naive_lower_bound(self) -> int:
        return sum(r.result.naive_lower_bound for r in self.runs)

    @property
    def complete(self) -> bool:
        return all(r.result.complete for r in self.runs)

    @property
    def violations(self) -> List[Violation]:
        return [v for r in self.runs for v in r.result.violations]

    @property
    def ok(self) -> bool:
        return not self.violations

    def findings(self) -> List[Finding]:
        """One ``X701`` finding per distinct (strategy, kind, fingerprint)."""
        path = _PROTOCOL_SOURCE[self.protocol]
        out: List[Finding] = []
        seen = set()
        for sf in self.counterexamples:
            key = (sf.strategy, sf.kind, sf.fingerprint)
            if key in seen:
                continue
            seen.add(key)
            detail = "; ".join(sf.messages[:2])
            out.append(
                Finding(
                    rule="X701",
                    path=path,
                    line=1,
                    col=0,
                    message=(
                        f"invariant violated under systematic exploration of "
                        f"{self.protocol}/{self.mode or 'default'} at "
                        f"(n={self.cluster[0]}, t={self.cluster[1]}), "
                        f"strategy {sf.strategy or 'honest'}: {detail} "
                        f"[minimized schedule: {len(sf.schedule)} steps]"
                    ),
                )
            )
        return out

    def to_dict(self) -> Dict[str, Any]:
        return {
            "protocol": self.protocol,
            "mode": self.mode,
            "cluster": list(self.cluster),
            "schedules": self.schedules,
            "naive_lower_bound": self.naive_lower_bound,
            "complete": self.complete,
            "ok": self.ok,
            "runs": [
                {
                    "strategy": r.strategy,
                    "schedules": r.result.schedules,
                    "complete": r.result.complete,
                    "violations": len(r.result.violations),
                    "naive_lower_bound": r.result.naive_lower_bound,
                    "naive_exact": r.result.naive_exact,
                    "reduction_factor": round(r.result.reduction_factor, 2),
                    "steps": r.result.stats.steps,
                    "wall_s": round(r.wall_s, 2),
                }
                for r in self.runs
            ],
            "counterexamples": [
                {
                    "strategy": sf.strategy,
                    "kind": sf.kind,
                    "schedule_length": len(sf.schedule),
                    "fingerprint": sf.fingerprint,
                    "transcript_hash": sf.transcript_hash,
                    "messages": sf.messages,
                }
                for sf in self.counterexamples
            ],
        }

    def summary_lines(self) -> List[str]:
        lines = [
            f"explore {self.protocol}/{self.mode or 'default'} "
            f"(n={self.cluster[0]}, t={self.cluster[1]}): "
            f"{self.schedules} schedules, "
            f"{'complete' if self.complete else 'budget-bounded'}, "
            f"{len(self.violations)} violation(s), "
            f"naive >= {self.naive_lower_bound}"
        ]
        for r in self.runs:
            res = r.result
            lines.append(
                f"  {r.strategy:<24} {res.schedules:>8} schedules  "
                f"{'complete' if res.complete else 'partial':<9} "
                f"naive{'=' if res.naive_exact else '>='}{res.naive_lower_bound:<12} "
                f"viol={len(res.violations)}  {r.wall_s:.1f}s"
            )
        for sf in self.counterexamples:
            lines.append(
                f"  counterexample [{sf.strategy or 'honest'}/{sf.kind}]: "
                f"{len(sf.schedule)} steps, fp={sf.fingerprint}, "
                f"{sf.messages[0] if sf.messages else ''}"
            )
        return lines


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def _package_violation(
    model: Any,
    violation: Violation,
    protocol: str,
    mode: str,
    cluster: Tuple[int, int],
) -> ScheduleFile:
    schedule, messages, fingerprint, digest = minimize_violation(model, violation)
    return ScheduleFile(
        protocol=protocol,
        mode=mode,
        cluster=cluster,
        strategy=violation.strategy,
        schedule=list(schedule),
        kind=violation.kind,
        messages=list(messages),
        fingerprint=fingerprint or violation.fingerprint,
        transcript_hash=digest,
    )


def explore_protocol(
    protocol: str,
    *,
    mode: str = "",
    n: int = 4,
    t: int = 1,
    strategies: Optional[Sequence[str]] = None,
    bound: Optional[int] = None,
    max_schedules: Optional[int] = None,
    max_steps: Optional[int] = None,
    deadline_s: Optional[float] = None,
    stop_on_first: bool = False,
    minimize: bool = True,
    use_dpor: bool = True,
    snapshot_interval: int = 4,
    max_counterexamples: int = 4,
) -> ExploreReport:
    """Explore every (selected) strategy of ``protocol`` at ``(n, t)``.

    The e2e protocol refuses unbounded exploration: its state graph is
    the whole deployment, so a delay ``bound`` is mandatory there.
    """
    if protocol == "e2e" and bound is None:
        raise ValueError("e2e exploration must be delay-bounded (pass bound=...)")
    specs = strategy_specs(protocol, mode, n, t)
    if strategies is not None:
        wanted = set(strategies)
        unknown = wanted - {s.name for s in specs}
        if unknown:
            raise ValueError(
                f"unknown strategies {sorted(unknown)}; "
                f"available: {[s.name for s in specs]}"
            )
        specs = [s for s in specs if s.name in wanted]
    report = ExploreReport(protocol=protocol, mode=mode, cluster=(n, t))
    for spec in specs:
        model = spec.factory()
        engine = DporEngine(
            model,
            use_dpor=use_dpor,
            bound=bound,
            max_schedules=max_schedules,
            max_steps=max_steps,
            deadline_s=deadline_s,
            stop_on_first=stop_on_first,
            strategy=spec.name,
            snapshot_interval=snapshot_interval,
        )
        t0 = time.monotonic()
        result = engine.run()
        report.runs.append(
            StrategyRun(spec.name, result, time.monotonic() - t0)
        )
        if minimize:
            for violation in result.violations[:max_counterexamples]:
                report.counterexamples.append(
                    _package_violation(
                        spec.factory(), violation, protocol, mode, (n, t)
                    )
                )
        else:
            for violation in result.violations[:max_counterexamples]:
                report.counterexamples.append(
                    ScheduleFile(
                        protocol=protocol,
                        mode=mode,
                        cluster=(n, t),
                        strategy=violation.strategy,
                        schedule=list(violation.schedule),
                        kind=violation.kind,
                        messages=list(violation.messages),
                        fingerprint=violation.fingerprint,
                    )
                )
        if stop_on_first and result.violations:
            break
    return report


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


@dataclass
class ReplayOutcome:
    """Result of replaying one schedule file."""

    problems: List[str]
    fingerprint: str
    transcript_hash: str
    reproduced: bool  # violation messages observed again


def replay_file(source: "ScheduleFile | Path | str") -> ReplayOutcome:
    """Rebuild the recorded model and re-execute its schedule."""
    sf = (
        source
        if isinstance(source, ScheduleFile)
        else load_schedule(Path(source))
    )
    n, t = sf.cluster
    model = build_model(sf.protocol, sf.mode, n, t, sf.strategy)
    problems, fingerprint, labels = replay_schedule(
        model, list(sf.schedule), complete=True
    )
    return ReplayOutcome(
        problems=list(problems),
        fingerprint=fingerprint,
        transcript_hash=transcript_hash(labels),
        reproduced=bool(problems) if sf.kind else not problems,
    )
