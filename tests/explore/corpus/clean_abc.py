"""Clean control: an ABC subclass with the *correct* prepare quorum.

Identical override surface to ``vuln_abc_weak_prepare_quorum`` but with
the sound ``n - t`` threshold, so the corpus can show the explorer flags
the weakened arithmetic and not the mere act of subclassing.  Explored
at (5, 1) under the same equivocating, voting leader, this class must
stay violation-free.
"""

from repro.broadcast.abc import MODE_FAST, AtomicBroadcast
from repro.broadcast.messages import AbcPrepare


class CleanAbcPrepareQuorum(AtomicBroadcast):
    """``_on_prepare`` restated with the production n - t threshold."""

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
        if len(pool) >= self.n - self.t:
            self._lock_slot(msg.epoch, msg.seq, msg.digest)
