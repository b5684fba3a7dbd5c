"""The deliverable-event frontier: delivery choice = scheduling choice.

The explorer models the network as per-ordered-pair FIFO channels
(matching the sim network's TCP-like links, which enforce per-link FIFO
via ``_last_arrival``).  At any state, the *frontier* is the set of
channels with at least one undelivered message; picking a channel
delivers exactly the head of its queue, so a schedule is fully described
by a sequence of ``(src, dest)`` pairs.  That is the whole
``SchedulePoint`` abstraction: the enabled channel set at a state, plus
the default (oldest-first) pick used for deterministic completion.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

BROADCAST = -1  # mirror of repro.broadcast.aba.BROADCAST / coin.BROADCAST

ChannelKey = Tuple[int, int]  # (src, dest)


@dataclass
class QueuedMessage:
    """One undelivered message plus the step index that produced it."""

    payload: object
    sent_by: int  # step index whose execution enqueued this (-1 = initial)


@dataclass(frozen=True)
class SchedulePoint:
    """One choice point: the enabled channels, in deterministic order.

    ``enabled[0]`` is the default pick; a schedule that always takes the
    default is the canonical "oldest sender first" completion used for
    replay and for counterexample minimization.
    """

    depth: int
    enabled: Tuple[ChannelKey, ...]

    @property
    def default(self) -> Optional[ChannelKey]:
        return self.enabled[0] if self.enabled else None


class ChannelFrontier:
    """FIFO message queues keyed by (src, dest) channel."""

    def __init__(self) -> None:
        self._queues: Dict[ChannelKey, Deque[QueuedMessage]] = {}
        # Step index of the last message *delivered* on each channel, for
        # happens-before FIFO edges (-1 = none delivered yet).
        self._last_delivered_step: Dict[ChannelKey, int] = {}

    def push(
        self, src: int, dest: int, payload: object, sent_by: int = -1
    ) -> None:
        self._queues.setdefault((src, dest), deque()).append(
            QueuedMessage(payload, sent_by)
        )

    def enabled(self) -> List[ChannelKey]:
        """Channels with pending messages, in deterministic sorted order."""
        return sorted(key for key, q in self._queues.items() if q)

    def peek(self, key: ChannelKey) -> QueuedMessage:
        return self._queues[key][0]

    def pop(self, key: ChannelKey, step_index: int) -> QueuedMessage:
        """Deliver the head of ``key``; records the FIFO-predecessor edge."""
        msg = self._queues[key].popleft()
        self._last_delivered_step[key] = step_index
        return msg

    def fifo_predecessor(self, key: ChannelKey) -> int:
        """Step index of the previous delivery on this channel (-1 if none)."""
        return self._last_delivered_step.get(key, -1)

    def pending(self) -> int:
        return sum(len(q) for q in self._queues.values())

    def __bool__(self) -> bool:
        return any(self._queues.values())


@dataclass
class ModelTimer:
    """A protocol timer armed via the model's schedule hook.

    Timers never race with deliveries: the explorer fires them only at
    quiescent states (no enabled channel), earliest-armed first, which is
    both deterministic and sound — a timer that fires while deliveries
    are still pending is subsumed by the schedule that delivers those
    messages first (the sim's timeouts are large relative to link
    delays).
    """

    seq: int
    delay: float
    callback: object  # zero-arg callable; typed loosely for deepcopy safety
    cancelled: bool = False

    def cancel(self) -> None:
        self.cancelled = True


@dataclass
class TimerRail:
    """Ordered collection of armed timers with deterministic firing."""

    timers: List[ModelTimer] = field(default_factory=list)
    next_seq: int = 0
    fired: int = 0

    def arm(self, delay: float, callback: object) -> ModelTimer:
        timer = ModelTimer(self.next_seq, delay, callback)
        self.next_seq += 1
        self.timers.append(timer)
        return timer

    def pop_next(self) -> Optional[ModelTimer]:
        """Earliest-armed live timer (delay, then arm order), or None."""
        live = [t for t in self.timers if not t.cancelled]
        if not live:
            return None
        timer = min(live, key=lambda t: (t.delay, t.seq))
        self.timers.remove(timer)
        self.fired += 1
        return timer

    def pending(self) -> int:
        return sum(1 for t in self.timers if not t.cancelled)
