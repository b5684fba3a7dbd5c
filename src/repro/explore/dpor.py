"""Stateless model checking with dynamic partial-order reduction.

The engine explores every message-delivery interleaving of a *model*
(a wrapper around real protocol instances, see ``repro.explore.models``)
by depth-first search over schedule prefixes, in the style of
Flanagan–Godefroid DPOR with Godefroid's sleep sets:

* A **schedule** is a sequence of choices (FIFO channel picks).
  Because channels are FIFO, a choice sequence identifies a unique
  execution.
* **Backtrack sets** — after executing step ``S``, find the latest
  earlier step ``R`` that is *dependent* with ``S`` but not ordered
  before it by happens-before; schedule ``S``'s choice (or, if it was
  not yet enabled there, every enabled choice) for exploration at
  ``R``'s state.  Dependence is decided by the commutativity oracle:
  two deliveries commute unless they touch the same
  ``(replica, protocol-instance)`` state — refined by static read/write
  footprints from the lint ``ProgramIndex``.  Over-approximating
  dependence is always sound; it only costs extra schedules.
* **Sleep sets** — a choice fully explored from a state is inherited by
  sibling subtrees that are independent of the step taken, pruning the
  symmetric half of commuting pairs.  Sleep-set pruning is sound only
  for truly commuting steps, which is exactly the oracle's independence
  direction: disjoint replica state means the two handler executions
  commute as state transformers and enqueue into distinct FIFO channels.
* **Timers** never race with deliveries: they fire only at quiescent
  states (no channel enabled), earliest-armed first, as deterministic
  barrier steps.  This matches the sim's regime — protocol timeouts
  dwarf link delays — and keeps the choice space purely over deliveries.

Happens-before is tracked as an integer bitmask per step (edges: the
step that sent the delivered message, the FIFO predecessor on the same
channel, and the latest barrier; closures union), so a race check is one
``&``.  States are restored from the nearest model snapshot (a pickle of
the model's state) plus a replay of the choices below it, or by replaying
the choice prefix from ``reset()`` when no ancestor has a snapshot.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

Choice = Hashable


@dataclass(frozen=True)
class StepMeta:
    """What the oracle needs to know about one executed (or peeked) step."""

    choice: Choice
    dest: int  # replica the handler runs on
    instance: Optional[str] = None  # protocol-instance id (sid); None = unknown
    reads: Optional[FrozenSet[str]] = None  # None = unknown (conservative)
    writes: Optional[FrozenSet[str]] = None
    #: Commuting-vote token: two same-destination deliveries with equal
    #: non-None tokens are declared independent.  Models attach these
    #: only to handlers that are pure set-inserts with deterministic
    #: threshold effects (vote counting), where delivery order provably
    #: cannot change the resulting state or emissions.
    token: Optional[Hashable] = None
    sent_by: int = -1  # trace index of the step that sent this message
    fifo_pred: int = -1  # trace index of the previous delivery on this channel
    barrier: bool = False  # timer steps: globally ordered
    label: str = ""


@dataclass
class Violation:
    """One schedule that broke an invariant (or crashed the protocol)."""

    kind: str  # "invariant" | "crash" | "quiescent"
    messages: List[str]
    schedule: List[Choice]
    fingerprint: str
    depth: int
    strategy: str = ""

    def headline(self) -> str:
        first = self.messages[0] if self.messages else "?"
        return f"[{self.kind}] {first}"


@dataclass
class ExploreStats:
    steps: int = 0
    timer_steps: int = 0
    sleep_blocked: int = 0
    backtrack_points: int = 0
    max_depth: int = 0
    replays: int = 0


@dataclass
class ExploreResult:
    schedules: int
    violations: List[Violation]
    stats: ExploreStats
    complete: bool  # False if a budget stopped the search early
    naive_lower_bound: int
    naive_exact: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def reduction_factor(self) -> float:
        if self.schedules == 0:
            return 1.0
        return self.naive_lower_bound / self.schedules


class _Frame:
    """One DFS node: the choice point at a reached state.

    ``base`` is the trace index where this frame's choice step lands;
    the ``pre_steps`` barrier (timer) steps directly below ``base``
    belong to the transition *into* this frame and are popped with it.
    """

    __slots__ = (
        "enabled",
        "backtrack",
        "sleep",
        "snapshot",
        "choice",
        "base",
        "pre_steps",
        "budget",
        "explored",
    )

    def __init__(
        self,
        enabled: List[Choice],
        snapshot: Optional[object],
        base: int,
        pre_steps: int,
        budget: Optional[int],
    ) -> None:
        self.enabled = enabled
        self.backtrack: List[Choice] = []
        self.sleep: Set[Choice] = set()
        self.snapshot = snapshot
        self.choice: Optional[Choice] = None  # choice currently on the path
        self.base = base
        self.pre_steps = pre_steps
        self.budget = budget  # remaining delay budget (None = unbounded)
        self.explored = 0


class _ExtensionOverflow(Exception):
    pass


def count_linear_extensions(
    preds: List[int], budget: int = 200_000
) -> Optional[int]:
    """Number of linear extensions of the poset given by predecessor masks.

    ``preds[i]`` is a bitmask of elements that must precede element ``i``.
    Returns None if the memo table would exceed ``budget`` entries.
    """
    n = len(preds)
    full = (1 << n) - 1
    memo: Dict[int, int] = {}

    def rec(remaining: int) -> int:
        if remaining == 0:
            return 1
        hit = memo.get(remaining)
        if hit is not None:
            return hit
        if len(memo) >= budget:
            raise _ExtensionOverflow
        total = 0
        rest = remaining
        while rest:
            low = rest & -rest
            i = low.bit_length() - 1
            rest ^= low
            if preds[i] & remaining == 0:  # minimal in the remaining poset
                total += rec(remaining & ~low)
        memo[remaining] = total
        return total

    try:
        return rec(full)
    except _ExtensionOverflow:
        return None


class DporEngine:
    """Depth-first systematic exploration of one model configuration."""

    def __init__(
        self,
        model: Any,
        *,
        use_dpor: bool = True,
        use_sleep: bool = True,
        bound: Optional[int] = None,
        max_schedules: Optional[int] = None,
        max_steps: Optional[int] = None,
        deadline_s: Optional[float] = None,
        naive_samples: int = 64,
        extension_budget: int = 200_000,
        stop_on_first: bool = False,
        strategy: str = "",
        snapshot_interval: int = 4,
    ) -> None:
        self.model = model
        self.use_dpor = use_dpor
        self.use_sleep = use_sleep and use_dpor
        self.bound = bound
        self.max_schedules = max_schedules
        self.max_steps = max_steps
        self.deadline_s = deadline_s
        self.naive_samples = naive_samples
        self.extension_budget = extension_budget
        self.stop_on_first = stop_on_first
        self.strategy = strategy
        self.snapshot_interval = max(1, snapshot_interval)
        self.stats = ExploreStats()
        self._trace: List[StepMeta] = []
        self._hb: List[int] = []  # happens-before bitmask per trace index
        self._last_barrier = -1
        self._stack: List[_Frame] = []
        self._stopped = False
        self._t0 = 0.0
        self._sampled_leaves: List[int] = []
        self._sample_overflow = False
        self._leaf_count = 0

    # -- dependence oracle -------------------------------------------------

    def _dependent(self, a: StepMeta, b: StepMeta) -> bool:
        if a.barrier or b.barrier:
            return True
        if a.dest != b.dest:
            return False
        if (
            getattr(self.model, "sids_isolated", False)
            and a.instance is not None
            and b.instance is not None
            and a.instance != b.instance
        ):
            return False
        if a.token is not None and a.token == b.token:
            return False  # same-vote set-inserts commute (see StepMeta)
        if (
            a.reads is not None
            and a.writes is not None
            and b.reads is not None
            and b.writes is not None
        ):
            return bool(
                (a.writes & b.writes)
                or (a.writes & b.reads)
                or (a.reads & b.writes)
            )
        return True  # unknown footprints on the same replica: assume dependent

    # -- execution plumbing ------------------------------------------------

    def _settle(self) -> None:
        """Fire timers at quiescence until a delivery is enabled (or none)."""
        while not self.model.enabled():
            meta = self.model.fire_next_timer(len(self._trace))
            if meta is None:
                return
            self.stats.timer_steps += 1
            index = len(self._trace)
            self._trace.append(meta)
            self._hb.append((1 << index) - 1)  # barrier: all priors precede
            self._last_barrier = index

    def _execute(self, choice: Choice) -> StepMeta:
        index = len(self._trace)
        meta = self.model.execute(choice, index)
        mask = 0
        if meta.sent_by >= 0:
            mask |= (1 << meta.sent_by) | self._hb[meta.sent_by]
        if meta.fifo_pred >= 0:
            mask |= (1 << meta.fifo_pred) | self._hb[meta.fifo_pred]
        if self._last_barrier >= 0:
            mask |= (1 << self._last_barrier) | self._hb[self._last_barrier]
        self._trace.append(meta)
        self._hb.append(mask)
        self.stats.steps += 1
        self.stats.max_depth = max(self.stats.max_depth, len(self._trace))
        return meta

    def _restore_to(self, depth: int) -> None:
        """Bring the model back to frame ``depth``'s choice point.

        Snapshots are taken only every ``snapshot_interval`` frames (and
        never at leaves), so restoring finds the nearest snapshotted
        ancestor and deterministically replays the few recorded choices
        below it — one snapshot amortized over several cheap handler
        re-executions.
        """
        frame = self._stack[depth]
        if frame.snapshot is not None:
            self.model.restore(frame.snapshot)
            return
        start = depth
        while start >= 0 and self._stack[start].snapshot is None:
            start -= 1
        self.stats.replays += 1
        if start < 0:
            self.model.reset()
            index = 0
            for _pre in range(self._stack[0].pre_steps):
                self.model.fire_next_timer(index)
                index += 1
            start = 0
        else:
            self.model.restore(self._stack[start].snapshot)
        for i in range(start, depth):
            f = self._stack[i]
            nxt = self._stack[i + 1]
            assert f.choice is not None
            self.model.execute(f.choice, f.base)
            index = f.base + 1
            for _pre in range(nxt.pre_steps):
                self.model.fire_next_timer(index)
                index += 1

    def _truncate_trace(self, length: int) -> None:
        del self._trace[length:]
        del self._hb[length:]
        self._last_barrier = -1
        for i in range(len(self._trace) - 1, -1, -1):
            if self._trace[i].barrier:
                self._last_barrier = i
                break

    # -- DPOR bookkeeping --------------------------------------------------

    def _update_backtracks(self, meta: StepMeta, index: int) -> None:
        if not self.use_dpor:
            return
        mask = self._hb[index]
        for i in range(index - 1, -1, -1):
            prior = self._trace[i]
            if prior.barrier:
                break  # everything at or before a barrier precedes us
            if mask & (1 << i):
                continue
            if not self._dependent(prior, meta):
                continue
            frame = self._frame_of_step(i)
            if frame is None:  # pragma: no cover - defensive
                break
            if frame.budget is not None and frame.budget <= 0:
                break  # bounded mode: deviations here are over budget
            wanted = (
                [meta.choice]
                if meta.choice in frame.enabled
                else list(frame.enabled)
            )
            added = False
            for w in wanted:
                if w not in frame.backtrack:
                    frame.backtrack.append(w)
                    added = True
            if added:
                self.stats.backtrack_points += 1
            break

    def _frame_of_step(self, index: int) -> Optional[_Frame]:
        for frame in self._stack:
            if frame.base == index and frame.choice is not None:
                return frame
        return None

    # -- naive schedule-count estimate ------------------------------------

    def _sample_leaf(self) -> None:
        """Count the Mazurkiewicz class size of the current leaf trace.

        The number of naive schedules equivalent to this execution is the
        number of linear extensions of the trace's dependence-plus-causality
        partial order; summed over (distinct) explored classes this lower-
        bounds the naive schedule count.  Budgeted: on memo overflow we
        count a downward-closed prefix instead, which is still a valid
        lower bound.
        """
        self._leaf_count += 1
        if len(self._sampled_leaves) >= self.naive_samples:
            self._sample_overflow = True
            return
        steps = self._trace
        n = len(steps)
        if n == 0:
            self._sampled_leaves.append(1)
            return
        limit = min(n, 42)
        while limit > 0:
            cut = (1 << limit) - 1
            preds: List[int] = []
            for j in range(limit):
                mask = self._hb[j] & cut
                for i in range(j):
                    if not (mask & (1 << i)) and self._dependent(
                        steps[i], steps[j]
                    ):
                        mask |= 1 << i
                preds.append(mask)
            count = count_linear_extensions(preds, self.extension_budget)
            if count is not None:
                if limit < n:
                    self._sample_overflow = True
                self._sampled_leaves.append(count)
                return
            self._sample_overflow = True
            limit -= 8
        self._sampled_leaves.append(1)

    def _naive_estimate(self) -> Tuple[int, bool]:
        if not self.use_dpor:
            # Without reduction every leaf IS one naive schedule;
            # summing class sizes would count each class once per member.
            return self._leaf_count, not self._stopped
        sampled = sum(self._sampled_leaves)
        unsampled = max(0, self._leaf_count - len(self._sampled_leaves))
        exact = (
            not self._sample_overflow and unsampled == 0 and not self._stopped
        )
        return sampled + unsampled, exact

    # -- budgets -----------------------------------------------------------

    def _budget_exhausted(self) -> bool:
        if self._stopped:
            return True
        if self.max_schedules is not None and self._leaf_count >= self.max_schedules:
            self._stopped = True
        elif self.max_steps is not None and self.stats.steps >= self.max_steps:
            self._stopped = True
        elif (
            self.deadline_s is not None
            and time.monotonic() - self._t0 > self.deadline_s
        ):
            self._stopped = True
        return self._stopped

    # -- main loop ---------------------------------------------------------

    def run(self) -> ExploreResult:
        self._t0 = time.monotonic()
        violations: List[Violation] = []
        self.model.reset()
        self._trace.clear()
        self._hb.clear()
        self._last_barrier = -1
        self._settle()
        self._stack = [self._push_frame(pre_steps=len(self._trace), budget=self.bound, sleep=set())]
        if not self._stack[0].enabled:
            quiescent = list(self.model.check_leaf())
            if quiescent:
                violations.append(self._violation("quiescent", quiescent))
            self._sample_leaf()
        state_at = 0  # frame depth the live model state corresponds to

        while self._stack and not self._budget_exhausted():
            depth = len(self._stack) - 1
            frame = self._stack[-1]

            candidate: Optional[Choice] = None
            for c in frame.backtrack:
                if c in frame.sleep:
                    continue
                if (
                    frame.budget is not None
                    and frame.budget <= 0
                    and frame.enabled
                    and c != frame.enabled[0]
                ):
                    continue
                candidate = c
                break

            if candidate is None:
                if frame.enabled and frame.explored == 0:
                    self.stats.sleep_blocked += 1
                self._stack.pop()
                if self._stack:
                    parent = self._stack[-1]
                    finished = parent.choice
                    self._truncate_trace(parent.base)
                    parent.choice = None
                    if finished is not None:
                        parent.sleep.add(finished)
                else:
                    self._truncate_trace(0)
                state_at = -1
                continue

            if state_at != depth:
                self._restore_to(depth)
                state_at = depth

            # Sleep inheritance needs independence between the sleeping
            # transitions (peeked at *this* state) and the chosen step.
            sleep_metas: List[Tuple[Choice, Optional[StepMeta]]] = []
            if self.use_sleep and frame.sleep:
                for s in frame.sleep:
                    try:
                        sleep_metas.append((s, self.model.peek(s)))
                    except Exception:  # pragma: no cover - defensive
                        sleep_metas.append((s, None))

            frame.choice = candidate
            frame.explored += 1
            crash: Optional[str] = None
            try:
                meta = self._execute(candidate)
            except Exception as exc:  # crash capture is part of the job
                crash = f"{type(exc).__name__}: {exc}"
                meta = StepMeta(choice=candidate, dest=-1, label="crash")
                self._trace.append(meta)
                self._hb.append(0)

            if crash is None:
                self._update_backtracks(meta, frame.base)
                self._settle()
                problems = list(self.model.check_now())
            else:
                problems = [f"handler crashed: {crash}"]

            if problems:
                violations.append(
                    self._violation("crash" if crash else "invariant", problems)
                )
                self._leaf_count += 1
                self._truncate_trace(frame.base)
                frame.choice = None
                frame.sleep.add(candidate)
                state_at = -1
                if self.stop_on_first:
                    self._stopped = True
                continue

            child_sleep: Set[Choice] = set()
            if self.use_sleep:
                for s, smeta in sleep_metas:
                    if smeta is not None and not self._dependent(smeta, meta):
                        child_sleep.add(s)
            cost = 0 if (frame.enabled and candidate == frame.enabled[0]) else 1
            child_budget = None if frame.budget is None else frame.budget - cost
            child = self._push_frame(
                pre_steps=len(self._trace) - frame.base - 1,
                budget=child_budget,
                sleep=child_sleep,
            )
            if not child.enabled:
                quiescent = list(self.model.check_leaf())
                if quiescent:
                    violations.append(self._violation("quiescent", quiescent))
                    if self.stop_on_first:
                        self._stopped = True
                self._sample_leaf()
            self._stack.append(child)
            state_at = len(self._stack) - 1

        naive, exact = self._naive_estimate()
        return ExploreResult(
            schedules=self._leaf_count,
            violations=violations,
            stats=self.stats,
            complete=not self._stopped,
            naive_lower_bound=naive,
            naive_exact=exact,
        )

    def _push_frame(
        self, pre_steps: int, budget: Optional[int], sleep: Set[Choice]
    ) -> _Frame:
        enabled = list(self.model.enabled())
        # Leaves never need restoring, and interior frames only every
        # ``snapshot_interval`` levels (nearest-ancestor replay covers
        # the rest) — snapshotting is the engine's dominant cost.
        snapshot = None
        if enabled and len(self._stack) % self.snapshot_interval == 0:
            snapshot = self.model.snapshot()
        frame = _Frame(
            enabled,
            snapshot,
            base=len(self._trace),
            pre_steps=pre_steps,
            budget=budget,
        )
        frame.sleep = sleep
        if enabled:
            if not self.use_dpor:
                frame.backtrack = list(enabled)
            else:
                # The initial pick must be a choice NOT in the inherited
                # sleep set (Flanagan-Godefroid: "choose t enabled with
                # t not in sleep(s)").  Seeding with a sleeping choice
                # would abandon the node before executing anything, so
                # no races — hence no further backtrack entries — could
                # ever be discovered from it: an unsound prune.  Only
                # when *every* enabled choice is sleeping is the node a
                # genuine sleep-set prune point (leave backtrack empty).
                seed = next((c for c in enabled if c not in sleep), None)
                if seed is not None:
                    frame.backtrack = [seed]
        return frame

    def _violation(self, kind: str, messages: List[str]) -> Violation:
        return Violation(
            kind=kind,
            messages=messages,
            schedule=self._current_schedule(),
            fingerprint=self.model.fingerprint(),
            depth=len(self._trace),
            strategy=self.strategy,
        )

    def _current_schedule(self) -> List[Choice]:
        return [f.choice for f in self._stack if f.choice is not None]


def replay_schedule(
    model: Any,
    choices: List[Choice],
    *,
    complete: bool = True,
    max_completion_steps: int = 100_000,
) -> Tuple[List[str], str, List[str]]:
    """Deterministically replay a schedule prefix against a fresh model.

    Runs ``choices`` in order (firing quiescent timers between steps just
    as the explorer does), then — when ``complete`` — extends with the
    default oldest-first pick until quiescence.  Returns
    ``(violations, fingerprint, step_labels)``.
    """
    model.reset()
    labels: List[str] = []
    index = 0

    def settle() -> None:
        nonlocal index
        while not model.enabled():
            meta = model.fire_next_timer(index)
            if meta is None:
                return
            labels.append(meta.label or "timer")
            index += 1

    settle()
    for choice in choices:
        enabled = model.enabled()
        if choice not in enabled:
            return (
                [f"replay diverged: choice {choice!r} not enabled (have {enabled})"],
                model.fingerprint(),
                labels,
            )
        try:
            meta = model.execute(choice, index)
        except Exception as exc:
            labels.append(f"crash:{type(exc).__name__}")
            return (
                [f"handler crashed: {type(exc).__name__}: {exc}"],
                model.fingerprint(),
                labels,
            )
        labels.append(meta.label or str(choice))
        index += 1
        settle()
        problems = list(model.check_now())
        if problems:
            return problems, model.fingerprint(), labels
    steps = 0
    while complete and steps < max_completion_steps:
        enabled = model.enabled()
        if not enabled:
            break
        try:
            meta = model.execute(enabled[0], index)
        except Exception as exc:
            labels.append(f"crash:{type(exc).__name__}")
            return (
                [f"handler crashed: {type(exc).__name__}: {exc}"],
                model.fingerprint(),
                labels,
            )
        labels.append(meta.label or str(enabled[0]))
        index += 1
        steps += 1
        settle()
        problems = list(model.check_now())
        if problems:
            return problems, model.fingerprint(), labels
    if complete:
        problems = list(model.check_leaf())
        if problems:
            return problems, model.fingerprint(), labels
    return [], model.fingerprint(), labels
