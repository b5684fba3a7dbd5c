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
from typing import Deque, Dict, Hashable, List, Optional, Tuple

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
    """A protocol timer a model armed under ``key``.

    Timers never race with deliveries: the explorer fires them only at
    quiescent states (no enabled channel), earliest-armed first, which is
    both deterministic and sound — a timer that fires while deliveries
    are still pending is subsumed by the schedule that delivers those
    messages first (the sim's timeouts are large relative to link
    delays).
    """

    seq: int
    delay: float
    key: Hashable


@dataclass
class TimerRail:
    """Armed timers by key, fired in a deterministic order."""

    timers: Dict[Hashable, ModelTimer] = field(default_factory=dict)
    next_seq: int = 0
    fired: int = 0

    def arm(self, key: Hashable, delay: float) -> None:
        self.timers[key] = ModelTimer(self.next_seq, delay, key)
        self.next_seq += 1

    def cancel(self, key: Hashable) -> None:
        self.timers.pop(key, None)

    def pop_next(self) -> Optional[ModelTimer]:
        """Earliest-armed timer (delay, then arm order), or None."""
        if not self.timers:
            return None
        timer = min(self.timers.values(), key=lambda t: (t.delay, t.seq))
        del self.timers[timer.key]
        self.fired += 1
        return timer

    def pending(self) -> int:
        return len(self.timers)
