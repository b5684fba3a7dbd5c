"""Planted bug: ABC slot locked on 2t+1 PREPAREs, not n-t.

At n == 3t+1 the two thresholds coincide, so the bug is invisible at
(4, 1) — the corpus explores it at (5, 1), where 2t+1 = 3 < n-t = 4 and
two prepare quorums no longer intersect in an honest replica.  An
equivocating leader that ORDERs a different request into slot 0 for
each honest camp, and PREPAREs and COMMITs each camp's digest, then
drives both camps to a lock and on to delivery: a total-order
violation the explorer finds as a concrete schedule.
"""

from repro.broadcast.abc import MODE_FAST, AtomicBroadcast
from repro.broadcast.messages import AbcPrepare


class VulnAbcWeakPrepareQuorum(AtomicBroadcast):
    """``_on_prepare`` with the classic 2t+1 mistake."""

    def _on_prepare(self, sender: int, msg: AbcPrepare) -> None:
        if msg.seq < 0:  # the install slot is not what this fixture varies
            super()._on_prepare(sender, msg)
            return
        if msg.signer != sender:
            return
        if self._buffer_future(sender, msg, msg.epoch):
            return
        if msg.epoch != self.epoch or self.mode != MODE_FAST:
            return
        if not self._seq_in_window(msg.seq) or self._slot_retired(msg.seq):
            return
        if (msg.epoch, msg.seq) in self._commit_sent:
            return
        if not self._admit_slot_digest(sender, msg.epoch, msg.seq, msg.digest):
            return
        pool = self._prepares.setdefault((msg.epoch, msg.seq, msg.digest), set())
        if sender in pool:
            return
        pool.add(sender)
        # BUG: 2t+1 prepares only guarantee quorum intersection at the
        # minimum cluster size n == 3t+1; the sound threshold is n - t.
        if len(pool) >= 2 * self.t + 1:
            self._lock_slot(msg.epoch, msg.seq, msg.digest)
