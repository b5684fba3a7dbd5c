"""Planted bug: the epoch change decides each slot by a majority of claims.

Locks are not transferable, so a Byzantine replica can claim one in its
signed EPOCH_FINAL.  This subclass replaces ``decide``'s A1/A2/B rule
with a plain vote: per slot, the request id that the most finals locked
or accepted wins.  Against the leader that ORDERs r to two honest
replicas and r' to the third, PREPAREs and COMMITs r, then claims a lock
on r' (``leader-equivocate-lie`` at (4, 1)), the pool {liar, one locker
of r, the r' replica} votes r' two to one — for a slot that delivered r.
The real rule finds that pool undecided and waits for the second locker.
"""

from typing import Dict, List, Optional, Tuple

from repro.broadcast.abc import AtomicBroadcast, Decision


class VulnAbcClaimMajority(AtomicBroadcast):
    """``_decide`` by claim majority."""

    def _decide(self, claims: List[Tuple[dict, dict]]) -> Optional[Decision]:
        chosen: Dict[int, Tuple[str, bytes]] = {}
        payloads: Dict[str, bytes] = {}
        votes: Dict[int, Dict[str, int]] = {}
        for locks, accepted in claims:
            for seq, (_epoch, rid, payload) in locks.items():
                payloads[rid] = payload
                votes.setdefault(seq, {})[rid] = votes.get(seq, {}).get(rid, 0) + 1
            for seq, by_rid in accepted.items():
                if seq in locks:
                    continue
                for rid in by_rid:
                    votes.setdefault(seq, {})[rid] = votes.get(seq, {}).get(rid, 0) + 1
        for seq, tally in votes.items():
            # BUG: a majority of *claims* is not evidence: one liar plus
            # one replica that merely accepted outvote a real lock.
            rid = max((rid for rid in tally if rid in payloads), key=lambda r: (tally[r], r), default=None)
            if rid is not None:
                chosen[seq] = (rid, payloads[rid])
        return (max(chosen) + 1 if chosen else 0), chosen
