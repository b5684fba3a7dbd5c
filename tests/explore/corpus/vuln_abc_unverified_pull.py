"""Planted bug: pulled payloads accepted without the request-id check.

A replica holding a digest ORDER whose payload was withheld pulls it
from its peers; request ids are payload digests, so the reply must hash
to the id it answers or a Byzantine peer can substitute an arbitrary
payload.  This subclass skips that check, so whichever reply arrives
*first* wins: a forged one closes the pull chain and is adopted as the
request's payload in place of the real one.
"""

from repro.broadcast.abc import MAX_SEQ_AHEAD, AtomicBroadcast
from repro.broadcast.messages import AbcOrder


class VulnAbcUnverifiedPull(AtomicBroadcast):
    """``_await_order`` whose pull trusts whatever arrives."""

    def _await_order(self, sender: int, msg: AbcOrder) -> None:
        if msg.request_id in self._awaiting_order:
            return
        if len(self._awaiting_order) >= MAX_SEQ_AHEAD:
            return
        self._awaiting_order[msg.request_id] = (sender, msg)
        self._out.extend(self._recovery.want(
            (msg.request_id, b""), self._pull_candidates, _accept_anything
        ))


def _accept_anything(key, payload):
    # BUG: no derive_request_id check — first responder wins.
    return True
