"""Await-interleaving exploration for async handler code.

The message models explore *network* nondeterminism; this module
explores *scheduler* nondeterminism — the interleavings of ``async def``
handlers at their ``await`` suspension points, which is exactly the
territory of the Y601–Y604 static race rules (``repro.lint.races``).

A fixture builds a :class:`Scheduler`, a shared :class:`TrackedObject`,
and a set of coroutine tasks whose only suspension is ``await
sched.point()`` (standing in for any real await: an RPC, a crypto
executor round-trip, a timer).  :class:`TaskModel` then drives the
coroutines one suspension-to-suspension segment at a time, with the DPOR
engine choosing which task runs next.  Unlike the message models, the
commutativity oracle here uses **runtime** read/write sets: every data
attribute the segment touched on the tracked shared object, recorded as
it happens — reads and writes genuinely distinguished, because they are
observed, not statically approximated.

Coroutines cannot be deep-copied, so the model is replay-restored: the
engine re-runs the choice prefix from ``reset()``, which is sound
because fixture code is deterministic given the schedule.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.explore.dpor import StepMeta


class _Point:
    """A single-suspension awaitable: ``await sched.point()`` parks the
    coroutine until the scheduler steps it again."""

    def __await__(self):
        yield self
        return None


class Scheduler:
    """Cooperative scheduler facade the fixtures program against.

    ``point()`` marks an await; ``spawn()`` registers a new task from
    inside a running one (the fire-and-forget shape Y604 flags).
    """

    def __init__(self) -> None:
        #: (reads, writes) of the segment currently executing, or None.
        self.recorder: Optional[Tuple[Set[str], Set[str]]] = None
        self.spawned: List[Tuple[str, object]] = []
        self._spawn_seq = 0

    def point(self) -> _Point:
        return _Point()

    def spawn(self, coro: object, name: Optional[str] = None) -> None:
        self._spawn_seq += 1
        self.spawned.append((name or f"spawned-{self._spawn_seq}", coro))

    #: asyncio-shaped alias so fixtures exercising the Y604 fire-and-forget
    #: pattern read (and statically analyze) like real handler code.
    create_task = spawn


class TrackedObject:
    """Base for shared state: records data-attribute touches.

    Only attributes present in the instance ``__dict__`` are recorded
    (method lookups and dunders stay silent), and only while a segment
    is executing (``sched.recorder`` is set).  Underscore attributes are
    exempt so fixtures can keep untracked bookkeeping.
    """

    def __init__(self, sched: Scheduler) -> None:
        object.__setattr__(self, "_sched", sched)

    def __getattribute__(self, name: str):
        if not name.startswith("_"):
            d = object.__getattribute__(self, "__dict__")
            if name in d:
                sched = d.get("_sched")
                if sched is not None and sched.recorder is not None:
                    sched.recorder[0].add(name)
        return object.__getattribute__(self, name)

    def __setattr__(self, name: str, value: object) -> None:
        if not name.startswith("_"):
            d = object.__getattribute__(self, "__dict__")
            sched = d.get("_sched")
            if sched is not None and sched.recorder is not None:
                sched.recorder[1].add(name)
        object.__setattr__(self, name, value)

    def _data(self) -> Dict[str, object]:
        return {
            k: v
            for k, v in object.__getattribute__(self, "__dict__").items()
            if not k.startswith("_")
        }


class _Task:
    __slots__ = ("name", "coro", "done", "last_step", "spawned_by", "segments")

    def __init__(self, name: str, coro: object, spawned_by: int) -> None:
        self.name = name
        self.coro = coro
        self.done = False
        self.last_step = -1  # trace index of this task's previous segment
        self.spawned_by = spawned_by  # trace index of the spawning segment
        self.segments = 0


#: ``build(sched)`` returns the shared tracked object plus the initial
#: (name, coroutine) tasks.
BuildFn = Callable[[Scheduler], Tuple[TrackedObject, List[Tuple[str, object]]]]
CheckFn = Callable[[TrackedObject], List[str]]


class TaskModel:
    """Engine model over coroutine segments; choices are task names."""

    sids_isolated = False

    def __init__(
        self,
        build: BuildFn,
        *,
        invariant: Optional[CheckFn] = None,
        final: Optional[CheckFn] = None,
        segment_cap: int = 400,
    ) -> None:
        self.build = build
        self.invariant = invariant
        self.final = final
        self.segment_cap = segment_cap
        self.sched: Scheduler = None  # type: ignore[assignment]
        self.shared: TrackedObject = None  # type: ignore[assignment]
        self.tasks: Dict[str, _Task] = {}
        self.order: List[str] = []
        #: (task, suspension line) per executed segment; line None once done.
        self.last_lines: List[Tuple[str, Optional[int]]] = []
        self.steps = 0

    # -- engine interface --------------------------------------------------

    def reset(self) -> None:
        self.sched = Scheduler()
        self.shared, initial = self.build(self.sched)
        self.tasks = {}
        self.order = []
        self.last_lines = []
        self.steps = 0
        for name, coro in initial:
            self._add_task(name, coro, spawned_by=-1)

    def _add_task(self, name: str, coro: object, spawned_by: int) -> None:
        if name in self.tasks:
            raise ValueError(f"duplicate task name {name!r}")
        self.tasks[name] = _Task(name, coro, spawned_by)
        self.order.append(name)

    def enabled(self) -> List[str]:
        if self.steps >= self.segment_cap:
            return []
        return [name for name in self.order if not self.tasks[name].done]

    def execute(self, choice: str, index: int) -> StepMeta:
        task = self.tasks[choice]
        self.sched.recorder = (set(), set())
        self.sched.spawned = []
        line: Optional[int] = None
        try:
            task.coro.send(None)  # type: ignore[attr-defined]
            frame = getattr(task.coro, "cr_frame", None)
            line = frame.f_lineno if frame is not None else None
        except StopIteration:
            task.done = True
        finally:
            reads, writes = self.sched.recorder
            self.sched.recorder = None
            spawned = list(self.sched.spawned)
            self.sched.spawned = []
        self.steps += 1
        for name, coro in spawned:
            self._add_task(name, coro, spawned_by=index)
        self.last_lines.append((choice, line))
        meta = StepMeta(
            choice=choice,
            dest=0,  # one shared-state group; footprints split it further
            reads=frozenset(reads),
            writes=frozenset(writes),
            sent_by=task.spawned_by if task.segments == 0 else -1,
            fifo_pred=task.last_step,  # program order within the task
            label=f"{choice}@{line if line is not None else 'end'}",
        )
        task.last_step = index
        task.segments += 1
        return meta

    def peek(self, choice: str) -> StepMeta:
        # Runtime sets are unknowable without running the segment.
        return StepMeta(choice=choice, dest=0)

    def fire_next_timer(self, index: int) -> Optional[StepMeta]:
        return None

    def snapshot(self) -> Optional[object]:
        return None  # coroutines cannot be copied; replay from reset()

    def restore(self, snap: object) -> None:  # pragma: no cover - unused
        raise RuntimeError("TaskModel restores by replay, not snapshot")

    def check_now(self) -> List[str]:
        if self.invariant is None:
            return []
        return list(self.invariant(self.shared))

    def check_leaf(self) -> List[str]:
        problems = list(self.check_now())
        stuck = [n for n in self.order if not self.tasks[n].done]
        if stuck and self.steps < self.segment_cap:
            problems.append(f"tasks never completed: {stuck}")
        if self.final is not None and not stuck:
            problems.extend(self.final(self.shared))
        return problems

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for key, value in sorted(self.shared._data().items()):
            h.update(f"{key}={value!r};".encode())
        for name in self.order:
            h.update(f"{name}:{self.tasks[name].done};".encode())
        return h.hexdigest()[:16]

    # -- confirm-races support --------------------------------------------

    def suspension_lines(self) -> FrozenSet[int]:
        """Lines at which any segment of the last run suspended."""
        return frozenset(
            line for _name, line in self.last_lines if line is not None
        )
