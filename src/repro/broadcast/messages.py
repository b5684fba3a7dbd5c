"""Message types of the broadcast/agreement protocols.

Messages are immutable dataclasses.  Transports in this repository are
in-process (deterministic simulator or asyncio bus), so messages travel
as objects; the DNS payloads they carry have their own RFC wire format.
Every message names its protocol instance (``sid`` — session id), so one
pair of nodes can run many protocol instances over one link.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Tuple

from repro.crypto.protocols import SigningMessage
from repro.crypto.shoup import SignatureShare


# --------------------------------------------------------------------------
# Request batching (SINTRA-style payload amortization)
# --------------------------------------------------------------------------

#: Marker distinguishing a batch payload from a single client request.
#: Single-request payloads start with a 4-byte client node id; ids anywhere
#: near 0xFF424154 ("\xffBAT") would require ~4.2 billion simulated nodes,
#: so the prefix cannot collide with a legitimate request payload.
BATCH_MAGIC = b"\xffBATCH1\x00"

#: Batch frames may nest (a new leader re-batches whole pending payloads,
#: including gateway batch frames, on epoch change); decoding recursion is
#: capped so a Byzantine frame cannot nest arbitrarily deep.
MAX_BATCH_NESTING = 8


def encode_batch(payloads: List[bytes]) -> bytes:
    """Frame a list of request payloads as one length-prefixed batch.

    Layout: ``MAGIC || u32 count || (u32 len || payload)*`` — every replica
    decodes the same ordered list, so batch execution stays deterministic.
    """
    out = bytearray(BATCH_MAGIC)
    out += struct.pack(">I", len(payloads))
    for payload in payloads:
        out += struct.pack(">I", len(payload))
        out += payload
    return bytes(out)


def is_batch_payload(payload: bytes) -> bool:
    return payload.startswith(BATCH_MAGIC)


def decode_batch(payload: bytes) -> List[bytes]:
    """Decode a batch payload; malformed batches decode to ``[]``.

    Decoding is strict and total: a Byzantine gateway can broadcast a
    truncated or over-long batch, and every honest replica must reach the
    same verdict from the same bytes — here, "drop the whole batch".
    """
    if not payload.startswith(BATCH_MAGIC):
        return []
    offset = len(BATCH_MAGIC)
    if len(payload) < offset + 4:
        return []
    (count,) = struct.unpack_from(">I", payload, offset)
    offset += 4
    entries: List[bytes] = []
    for _ in range(count):
        if len(payload) < offset + 4:
            return []
        (length,) = struct.unpack_from(">I", payload, offset)
        offset += 4
        if len(payload) < offset + length:
            return []
        entries.append(payload[offset : offset + length])
        offset += length
    if offset != len(payload):
        return []  # trailing garbage
    return entries


# --------------------------------------------------------------------------
# Payload recovery (ABC's digest fast path, broadcast/recovery.py)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PayloadPull:
    """Ask a peer for the payload behind ``(sid, digest)``: an ABC request
    id and ``b""`` (request ids are payload digests themselves)."""

    sid: str
    digest: bytes


@dataclass(frozen=True)
class PayloadReply:
    """The payload for ``(sid, digest)``, checked against that key."""

    sid: str
    digest: bytes
    payload: bytes


# --------------------------------------------------------------------------
# Common coin (threshold-signature based)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoinShare:
    sid: str
    round: int
    share: SignatureShare


# --------------------------------------------------------------------------
# Binary agreement (randomized, coin-based)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AbaEst:
    sid: str
    round: int
    value: int  # 0 or 1


@dataclass(frozen=True)
class AbaAux:
    sid: str
    round: int
    value: int


@dataclass(frozen=True)
class AbaDecided:
    sid: str
    value: int


# --------------------------------------------------------------------------
# Optimistic atomic broadcast
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class AbcInitiate:
    """A request enters the system: sent to all replicas (incl. the leader)."""

    request_id: str
    payload: bytes


@dataclass(frozen=True)
class AbcOrder:
    """Leader's fast-path sequencing of one request."""

    epoch: int
    seq: int
    request_id: str
    payload: bytes


@dataclass(frozen=True)
class AbcPrepare:
    """First-phase echo: replica ``signer`` vouches for (epoch, seq, digest).

    Unsigned: the authenticated link names the sender, and a PREPARE
    whose ``signer`` is not that sender is dropped.  ``seq`` is
    ``INSTALL_SEQ`` for a vote on a NEW_EPOCH's choice list."""

    epoch: int
    seq: int
    digest: bytes
    signer: int


@dataclass(frozen=True)
class AbcCommit:
    """Second-phase echo, sent only by replicas holding a lock on the slot."""

    epoch: int
    seq: int
    digest: bytes
    signer: int
    signature: bytes


@dataclass(frozen=True)
class AbcComplain:
    """Leader-suspicion vote for the current epoch."""

    epoch: int
    complainer: int


@dataclass(frozen=True)
class AbcEpochFinal:
    """A replica's closing state for an epoch (sent during fall-back).

    ``locks`` holds the replica's highest-epoch lock on every slot it
    locked, ``(seq, epoch, request_id, payload)``, with request id
    ``""`` and an empty payload for a null (skipped) slot.  ``accepted``
    holds, per slot, each request id it accepted at an epoch above its
    lock there, ``(seq, epoch, request_id)``.  ``pending`` lists its
    undelivered requests, so the new leader can re-propose them.  The
    whole message is signed (DESIGN.md §5o).
    """

    epoch: int
    sender: int
    locks: Tuple[Tuple[int, int, str, bytes], ...]
    accepted: Tuple[Tuple[int, int, str], ...]
    pending: Tuple[Tuple[str, bytes], ...]  # (request_id, payload)


@dataclass(frozen=True)
class AbcNewEpoch:
    """New leader's epoch-start message: the signed finals it decided from.

    ``finals`` carries the signed EPOCH_FINAL messages themselves
    (``(final, signature)`` pairs), so every validator re-verifies them
    and re-runs the decision instead of trusting the new leader.
    """

    epoch: int  # the NEW epoch
    finals: Tuple[Tuple[AbcEpochFinal, bytes], ...]


@dataclass(frozen=True)
class WrapperSigning:
    """Envelope for threshold-signing traffic between Wrapper modules.

    Signing messages are point-to-point (§3.3), outside atomic broadcast.
    """

    inner: SigningMessage


@dataclass(frozen=True)
class ClientRequest:
    """Client-to-replica DNS request (wire bytes, possibly TSIG-signed)."""

    request_id: str
    wire: bytes


@dataclass(frozen=True)
class ClientResponse:
    """Replica-to-client DNS response."""

    request_id: str
    wire: bytes
    replica: int
