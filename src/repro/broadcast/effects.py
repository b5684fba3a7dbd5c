"""What the broadcast plane's protocol cores ask their host to do.

``AtomicBroadcast``, ``PayloadRecovery`` and ``BatchQueue`` never send,
arm a timer or hand anything upward themselves: each call yields one
ordered list of these items (returned, or for ``BatchQueue`` kept until
``take()``), and the host applies it **in the order produced**.  On the
simulator a send leaves at the node's virtual time when it is applied
and a timer's deadline counts from then, so a host that regrouped the
list would move both.  Timer ids are plain ``(owner, kind, key)``
tuples, so a core's state is data and deep-copies; the host maps ids to
live timers and feeds a firing back through ``on_timer(timer_id)``.
"""

from __future__ import annotations

from typing import Hashable, Mapping, NamedTuple, Tuple, Union

TimerId = Tuple[str, str, Hashable]


class Send(NamedTuple):
    """Transmit ``msg`` to replica ``dest`` over the authenticated link."""

    dest: int
    msg: object


class SetTimer(NamedTuple):
    """Arm ``timer_id`` to fire ``delay`` seconds from now, replacing
    its deadline if it is armed already."""

    timer_id: TimerId
    delay: float


class CancelTimer(NamedTuple):
    """Disarm ``timer_id``; a no-op if it already fired."""

    timer_id: TimerId


class Deliver(NamedTuple):
    """Hand ``payload`` upward.

    From ``AtomicBroadcast`` it is an a-delivered request, and
    ``entry_ids`` maps the payload and every (nested) batch entry in it
    to the request id delivery derived for it; from ``BatchQueue`` it is
    a flushed batch to broadcast; from ``PayloadRecovery`` a pulled
    payload that verified.
    """

    request_id: str
    payload: bytes
    entry_ids: Mapping[bytes, str] = {}


Effect = Union[Send, SetTimer, CancelTimer, Deliver]
