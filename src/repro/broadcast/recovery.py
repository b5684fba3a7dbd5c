"""Payload recovery: the pull behind ABC's digest ORDERs (DESIGN.md §5i).

A replica holding a digest ORDER but no INITIATE opens one retry chain
per wanted key; the same :class:`PayloadRecovery` keeps the serve budget
for its peers' pulls and the counters :data:`PULL_COUNTERS` in the
host's stats.  Like the host, it returns its sends and retry timers as
effect lists (:mod:`repro.broadcast.effects`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.broadcast.effects import Deliver, Effect, Send, SetTimer, TimerId
from repro.broadcast.messages import PayloadPull, PayloadReply
from repro.util.lru import BoundedLRU

PullKey = Tuple[str, bytes]  # (sid, digest), as both messages carry it
Candidates = Callable[[], List[int]]
Accept = Callable[[PullKey, bytes], bool]
Serve = Callable[[PullKey], List[object]]

#: Delivered payloads a replica keeps pullable
#: (``AtomicBroadcast._payload_archive``); the serve budget below keeps
#: ``n`` times as many (requester, key) entries.
PAYLOAD_STORE_ENTRIES = 4096

#: Seconds before the first pull (the payload is usually in flight) and
#: between the single pulls that follow.
PULL_RETRY_TIMEOUT = 0.25
#: Cycles through the candidates before the burst that ends a chain.
MAX_PULL_ROUNDS = 3
#: Replies per (requester, key): a reply is a whole payload, so an
#: unbudgeted server would be a bandwidth amplifier.
MAX_PULL_SERVES = 3

#: refused = budget hit; rejected = forged or unsolicited; exhausted =
#: chains that reached their burst.
PULL_COUNTERS = ("pulls_sent", "pulls_served", "pulls_refused",
                 "pull_replies_rejected", "pull_chains_exhausted")


@dataclass
class _Chain:
    candidates: Candidates
    accept: Accept
    serial: int
    attempt: int = 0


class PayloadRecovery:
    """One replica's pull requester and server.

    A chain's retry timer is ``("pull", "retry", (key, serial))``: a
    cancelled or answered chain leaves its timer armed, and the serial
    tells that firing apart from the timer of a later chain for the same
    key.
    """

    def __init__(self, n: int, me: int, stats: Dict[str, int]) -> None:
        self.n = n
        self.me = me
        self.stats = stats
        stats.update(dict.fromkeys(PULL_COUNTERS, 0))
        # One chain per key the host awaits (buffered digest ORDERs,
        # <= MAX_SEQ_AHEAD) until it cancels.  An accepted reply closes
        # its chain; a burst leaves it open (for the replies) without a
        # timer.
        self._chains: Dict[PullKey, _Chain] = {}
        self._chain_serial = 0
        self._served: BoundedLRU[Tuple[int, PullKey], int] = BoundedLRU(
            n * PAYLOAD_STORE_ENTRIES
        )

    def want(self, key: PullKey, candidates: Candidates, accept: Accept) -> List[Effect]:
        """Open the chain for ``key`` unless one is open or nobody holds
        the payload yet; its first pull waits one retry timeout."""
        if key in self._chains or not candidates():
            return []
        self._chain_serial += 1
        self._chains[key] = _Chain(candidates, accept, self._chain_serial)
        return [SetTimer(("pull", "retry", (key, self._chain_serial)), PULL_RETRY_TIMEOUT)]

    def cancel(self, key: PullKey) -> None:
        self._chains.pop(key, None)

    def on_reply(self, sender: int, msg: PayloadReply) -> List[Deliver]:
        """A reply that answers an open chain and verifies closes it and
        is handed up as a :class:`Deliver` of ``msg.payload``."""
        key = (msg.sid, msg.digest)
        chain = self._chains.get(key)
        if chain is None or not chain.accept(key, msg.payload):
            self.stats["pull_replies_rejected"] += 1
            return []
        del self._chains[key]
        return [Deliver(msg.sid, msg.payload)]

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        key, serial = timer_id[2]  # type: ignore[misc]
        chain = self._chains.get(key)
        if chain is None or chain.serial != serial:
            return []  # cancelled or answered: send nothing
        candidates = chain.candidates()
        if chain.attempt >= MAX_PULL_ROUNDS * len(candidates):
            # The burst that ends the chain: every candidate, no timer.
            self.stats["pull_chains_exhausted"] += 1
            self.stats["pulls_sent"] += len(candidates)
            return [Send(dest, PayloadPull(*key)) for dest in candidates]
        target = candidates[chain.attempt % len(candidates)]
        chain.attempt += 1
        self.stats["pulls_sent"] += 1
        return [Send(target, PayloadPull(*key)), SetTimer(timer_id, PULL_RETRY_TIMEOUT)]

    def on_pull(self, sender: int, msg: PayloadPull, serve: Serve) -> List[Effect]:
        """Answer a peer's pull with ``serve(key)``'s replies (``[]`` for
        a key the host does not hold), within the serve budget."""
        if sender == self.me or not 0 <= sender < self.n:  # repro-quorum: identity-bound
            return []
        key = (msg.sid, msg.digest)
        served = self._served.peek((sender, key)) or 0
        if served >= MAX_PULL_SERVES:
            self.stats["pulls_refused"] += 1
            return []
        replies = serve(key)
        if replies:
            self._served.put((sender, key), served + 1)
            self.stats["pulls_served"] += 1
        return [Send(sender, reply) for reply in replies]
