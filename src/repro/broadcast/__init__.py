"""Asynchronous BFT broadcast substrate (our SINTRA equivalent).

Implements the protocol stack the paper's prototype obtained from SINTRA
and the replicas actually run:

* optimistic atomic broadcast with a leader fast path
  (:mod:`repro.broadcast.abc`) — every DNS request goes through it;
* its fall-back: signed EPOCH_FINAL and NEW_EPOCH messages around a
  randomized asynchronous binary Byzantine agreement
  (:mod:`repro.broadcast.aba`) on switching epochs;
* the threshold-signature common coin that agreement tosses
  (:mod:`repro.broadcast.coin`).

No reliable broadcast runs anywhere in this stack.  All protocols are
sans-IO: they consume ``(sender, message)`` events and emit outgoing
messages plus timer requests, so the same code runs on the
discrete-event simulator and the asyncio transport.  The model is the
paper's: ``n > 3t``, asynchronous authenticated reliable point-to-point
links, Byzantine corruptions.
"""

from repro.broadcast.coin import CommonCoin
from repro.broadcast.aba import BinaryAgreement
from repro.broadcast.abc import AtomicBroadcast

__all__ = [
    "CommonCoin",
    "BinaryAgreement",
    "AtomicBroadcast",
]
