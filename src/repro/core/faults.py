"""Corrupted-server behaviours for fault-injection experiments.

The paper's prototype can "configure a server to misbehave and to mimic a
corrupted server.  A server that is corrupted in this way inverts all the
bits in its signature share before sending it to the others" (§4.4) — the
behaviour Table 2's ``(4,1)``, ``(7,1)``, ``(7,2)`` rows measure.  This
module implements that behaviour plus the other corruption modes the
tests, ablations, and the chaos harness use.

The extended palette attacks each of the paper's goals in a targeted way:

* ``EQUIVOCATE`` — a Byzantine leader sends *different* ORDER payloads to
  different replicas (the classic safety attack; quorum intersection must
  keep G1), and its signed EPOCH_FINAL claims a lock on the tampered
  request (the epoch-change decision must not believe it).
* ``EQUIVOCATE_MINORITY`` — the same, but only ``t`` replicas get the
  tampered ORDER, so the honest request delivers at the other ``n-t-1``
  before the lie; the leader then stops ordering, forcing the epoch
  change in which the lie is told.
* ``MALFORMED_BATCHES`` — a Byzantine gateway garbles the length-prefixed
  batch frames it broadcasts; strict total decoding must make every honest
  replica reach the same verdict (drop the batch) and client retry must
  restore G2.
* ``POISON_STALE`` — a replica records the first signed answer it produced
  for each question and replays it forever, splicing in the current
  message id.  The signature verifies (it is authentic, G3 holds) but the
  data may be stale — exactly the §3.4 replay attack that weak
  correctness G1' permits and the full client's majority vote defeats.
* ``WITHHOLD_SHARES`` — the replica participates in agreement but never
  contributes signing shares or finals, shrinking the honest share pool
  and forcing OptProof/OptTE onto their slow paths.
"""

from __future__ import annotations

import enum
import hashlib
import random
import struct
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Optional, Set, Tuple

from repro.broadcast.abc import _final_signing_input
from repro.broadcast.messages import (
    BATCH_MAGIC,
    AbcEpochFinal,
    AbcInitiate,
    AbcOrder,
    ClientResponse,
    WrapperSigning,
    is_batch_payload,
)
from repro.crypto.protocols import SigningMessage
from repro.crypto.shoup import SignatureShare
from repro.dns.message import Message
from repro.errors import WireFormatError


class CorruptionMode(enum.Enum):
    """How a corrupted replica misbehaves."""

    HONEST = "honest"
    #: §4.4 — invert every bit of outgoing signature shares.
    BAD_SHARES = "bad_shares"
    #: Crash fault: the replica stops sending and processing entirely.
    CRASH = "crash"
    #: Ignore client requests (breaks G2 for clients that only contact us).
    MUTE_TO_CLIENTS = "mute_to_clients"
    #: Answer reads from a stale snapshot (the §3.4 replay-style attack
    #: that weak correctness G1' permits but full G1 does not).
    STALE_READS = "stale_reads"
    #: Byzantine leader: send conflicting ORDER payloads to different
    #: replicas for the same sequence slot, then claim a lock on the
    #: tampered one in a re-signed EPOCH_FINAL.
    EQUIVOCATE = "equivocate"
    #: EQUIVOCATE with a tampered camp of only t replicas, on the first
    #: ORDER only; later ORDERs are withheld.
    EQUIVOCATE_MINORITY = "equivocate_minority"
    #: Byzantine gateway: garble the length-prefixed batch frames so the
    #: strict decoder (and client retry) are exercised end to end.
    MALFORMED_BATCHES = "malformed_batches"
    #: Replay the first signed answer per question with the current
    #: message id spliced in — authentic but possibly stale.
    POISON_STALE = "poison_stale"
    #: Participate in agreement but contribute no signing shares/finals.
    WITHHOLD_SHARES = "withhold_shares"


def _invert_bits(value: int, modulus: int) -> int:
    """Invert all bits of a share value within the modulus width."""
    width = modulus.bit_length()
    return (value ^ ((1 << width) - 1)) % modulus


def _derive_rid(payload: bytes) -> str:
    # Mirrors repro.broadcast.abc.derive_request_id without importing the
    # broadcast machinery into the fault layer.
    return hashlib.sha256(payload).hexdigest()[:32]


def tampered_zone_share(share):
    """A corrupted replica's view of its zone-key share.

    §4.4's corrupted server "inverts all the bits in its signature share
    before sending it to the others".  We corrupt the *key share* itself,
    which is equivalent for every receiver and additionally means the
    corrupted server cannot quietly assemble valid signatures from its
    own (secretly correct) share — the behaviour Table 2's corruption
    rows exhibit.
    """
    from repro.crypto.shoup import ThresholdKeyShare

    return ThresholdKeyShare(
        index=share.index,
        secret=share.secret ^ ((1 << 64) - 1),
        public=share.public,
    )


@dataclass
class FaultInjector:
    """Outgoing-message filter attached to a corrupted replica."""

    mode: CorruptionMode = CorruptionMode.HONEST
    modulus: int = 0  # zone key modulus, needed for bit inversion
    corrupted_sessions: Set[str] = field(default_factory=set)
    #: Misbehaviour-choice RNG seed.  The owning replica derives it from
    #: the scenario seed (see :meth:`derive_seed`) so chaos replays
    #: reproduce the same choices and different scenario seeds explore
    #: different misbehaviour schedules.
    seed: int = 0xFA17
    rng: random.Random = field(init=False, repr=False)
    #: POISON_STALE memory: (qname, qtype) -> first response sent.
    recorded_answers: Dict[Tuple[object, int], ClientResponse] = field(
        default_factory=dict
    )
    stats: Dict[str, int] = field(
        default_factory=lambda: {
            "equivocations": 0,
            "lying_finals": 0,
            "garbled_batches": 0,
            "poisoned_responses": 0,
            "withheld_messages": 0,
        }
    )

    #: Set by the replica when it turns equivocating (``arm_lies``): the
    #: cluster's (n, t) and its authenticator signing function.
    cluster: Tuple[int, int] = field(default=(0, 0), init=False, repr=False)
    sign: Optional[Callable[[bytes], bytes]] = field(default=None, init=False, repr=False)
    #: Equivocation memory: payloads of this replica's own INITIATEs (so
    #: a digest ORDER can be tampered), the tampered (rid, payload) per
    #: (epoch, seq), and the re-signed final per epoch.
    initiated: Dict[str, bytes] = field(default_factory=dict, repr=False)
    lies: Dict[Tuple[int, int], Tuple[str, bytes]] = field(default_factory=dict, repr=False)
    lying_finals: Dict[int, Tuple[AbcEpochFinal, bytes]] = field(
        default_factory=dict, repr=False
    )

    def __post_init__(self) -> None:
        self.rng = random.Random(self.seed)

    def arm_lies(self, n: int, t: int, sign: Callable[[bytes], bytes]) -> None:
        self.cluster = (n, t)
        self.sign = sign

    @staticmethod
    def derive_seed(scenario_seed: int, replica_index: int) -> int:
        """Mix the scenario seed with the replica index.

        Two corrupted servers in one run make different (but replayable)
        choices; the same scenario seed always reproduces both streams.
        """
        return (scenario_seed << 20) ^ (replica_index << 8) ^ 0xFA17

    def reseed(self, scenario_seed: int, replica_index: int) -> None:
        self.seed = self.derive_seed(scenario_seed, replica_index)
        self.rng = random.Random(self.seed)

    @property
    def is_corrupted(self) -> bool:
        return self.mode is not CorruptionMode.HONEST

    def transform_outgoing(
        self, msg: object, dest: Optional[int] = None
    ) -> Optional[object]:
        """Rewrite (or swallow) an outgoing message; ``None`` drops it.

        ``dest`` lets destination-dependent misbehaviour (equivocation)
        send different replicas different messages.
        """
        if self.mode is CorruptionMode.HONEST:
            return msg
        if self.mode is CorruptionMode.CRASH:
            return None
        if self.mode is CorruptionMode.BAD_SHARES:
            return self._corrupt_share(msg)
        if self.mode is CorruptionMode.MUTE_TO_CLIENTS and isinstance(
            msg, ClientResponse
        ):
            return None
        if self.mode in (CorruptionMode.EQUIVOCATE, CorruptionMode.EQUIVOCATE_MINORITY):
            return self._equivocate(msg, dest)
        if self.mode is CorruptionMode.MALFORMED_BATCHES:
            return self._garble_batch(msg)
        if self.mode is CorruptionMode.POISON_STALE:
            return self._poison(msg)
        if self.mode is CorruptionMode.WITHHOLD_SHARES:
            return self._withhold(msg)
        return msg

    def _corrupt_share(self, msg: object) -> object:
        if not isinstance(msg, WrapperSigning):
            return msg
        inner = msg.inner
        if inner.is_final:
            # A corrupted server never helps its peers converge: any final
            # signature it would send out is garbled.
            self.corrupted_sessions.add(inner.sign_id)
            bad_sig = bytes(b ^ 0xFF for b in inner.signature)
            return WrapperSigning(SigningMessage.final(inner.sign_id, bad_sig))
        if not inner.is_share or inner.share is None:
            return msg
        self.corrupted_sessions.add(inner.sign_id)
        bad_share = SignatureShare(
            index=inner.share.index,
            value=_invert_bits(inner.share.value, self.modulus),
            proof=inner.share.proof,
        )
        return WrapperSigning(
            SigningMessage.share_message(inner.sign_id, bad_share)
        )

    # -- extended palette ---------------------------------------------------

    def _equivocate(self, msg: object, dest: Optional[int]) -> Optional[object]:
        """Byzantine leader: part of the replicas get a conflicting ORDER.

        The tampered payload carries a *consistent* payload-derived
        request id, so it passes the per-message sanity check; a digest
        ORDER for one of this replica's own INITIATEs is tampered through
        the payload it remembers, and travels full.  EQUIVOCATE tampers
        every ORDER for odd-numbered replicas, so no slot locks and the
        complaint/ABA path takes over.  EQUIVOCATE_MINORITY tampers only
        the first ORDER, for the ``t`` highest-numbered replicas, so the
        honest request delivers at the others, and withholds the rest.
        Either way the signed EPOCH_FINAL then claims a lock on every
        tampered request (:meth:`_lie`).
        """
        if isinstance(msg, AbcInitiate):
            if len(self.initiated) < 4096:  # a chaos run sends far fewer
                self.initiated[msg.request_id] = msg.payload
            return msg
        if isinstance(msg, tuple) and len(msg) == 2 and isinstance(msg[0], AbcEpochFinal):
            return self._lie(msg)
        if not isinstance(msg, AbcOrder) or dest is None:
            return msg
        minority = self.mode is CorruptionMode.EQUIVOCATE_MINORITY
        key = (msg.epoch, msg.seq)
        if minority and self.lies and key not in self.lies:
            return None  # stall: the epoch change that follows hears the lie
        n, t = self.cluster
        if (dest < n - t) if minority else (dest % 2 == 0):
            return msg  # the honest camp sees the honest ORDER
        if key in self.lies:
            rid, tampered = self.lies[key]
            return AbcOrder(epoch=msg.epoch, seq=msg.seq, request_id=rid, payload=tampered)
        payload = msg.payload or self.initiated.get(msg.request_id, b"")
        if payload == b"":
            # A digest ORDER for a payload this replica never held: the
            # leader equivocates on the request id itself.  That camp
            # chases a payload that does not exist (their pulls are
            # bounded), the slot never locks, and the complaint path
            # takes over; there is no payload to lie about.
            flipped = "0" if msg.request_id[-1] != "0" else "1"
            self.stats["equivocations"] += 1
            return AbcOrder(
                epoch=msg.epoch,
                seq=msg.seq,
                request_id=msg.request_id[:-1] + flipped,
                payload=b"",
            )
        if len(payload) < 5:
            return msg
        tampered = payload[:-1] + bytes([payload[-1] ^ 0xFF])
        self.stats["equivocations"] += 1
        self.lies[key] = (_derive_rid(tampered), tampered)
        return AbcOrder(
            epoch=msg.epoch,
            seq=msg.seq,
            request_id=_derive_rid(tampered),
            payload=tampered,
        )

    def _lie(self, signed: Tuple[AbcEpochFinal, bytes]) -> object:
        """Re-sign this replica's EPOCH_FINAL with a lock on every request
        it tampered, at the epoch it ORDERed it in."""
        final = signed[0]
        if not self.lies or self.sign is None:
            return signed
        cached = self.lying_finals.get(final.epoch)
        if cached is not None:
            return cached
        lied = {seq: (epoch, rid, payload) for (epoch, seq), (rid, payload) in self.lies.items()}
        locks = {seq: (epoch, rid, payload) for seq, epoch, rid, payload in final.locks}
        locks.update(lied)
        lie = replace(
            final,
            locks=tuple((seq, *lock) for seq, lock in sorted(locks.items())),
            accepted=tuple(claim for claim in final.accepted if claim[0] not in lied),
        )
        self.stats["lying_finals"] += 1
        self.lying_finals[final.epoch] = (lie, self.sign(_final_signing_input(lie)))
        return self.lying_finals[final.epoch]

    def _garble_batch(self, msg: object) -> object:
        """Byzantine gateway: damage the batch frame it disseminates.

        Each attack targets a different branch of the strict decoder:
        truncation, an inflated entry count, and trailing garbage.  The
        request id is recomputed so the broadcast layer orders the bad
        payload — the point is that every honest replica must *decode* it
        to the same empty batch and drop it deterministically.
        """
        if not isinstance(msg, AbcInitiate) or not is_batch_payload(msg.payload):
            return msg
        payload = msg.payload
        attack = self.rng.randrange(3)
        if attack == 0 and len(payload) > len(BATCH_MAGIC) + 4:
            bad = payload[:-3]
        elif attack == 1:
            offset = len(BATCH_MAGIC)
            (count,) = struct.unpack_from(">I", payload, offset)
            bad = (
                payload[:offset]
                + struct.pack(">I", count + 5)
                + payload[offset + 4 :]
            )
        else:
            bad = payload + b"\xde\xad"
        self.stats["garbled_batches"] += 1
        return AbcInitiate(request_id=_derive_rid(bad), payload=bad)

    def _poison(self, msg: object) -> object:
        """Replay the first signed answer per question, id-spliced.

        This is the strongest stale-data attack available to a single
        corrupted replica: the replayed wire (and, in A3 mode, its
        threshold signature over the id-zeroed form) verifies perfectly —
        G3 holds — but the data predates later updates.  A pragmatic
        client that trusts one gateway accepts it (G1' world); the full
        client's t+1 majority vote rejects it.
        """
        if not isinstance(msg, ClientResponse) or not msg.wire:
            return msg
        try:
            response = Message.from_wire(msg.wire)
        except WireFormatError:
            return msg
        if len(response.questions) != 1:
            return msg
        question = response.questions[0]
        key = (question.name, question.rtype)
        recorded = self.recorded_answers.get(key)
        if recorded is None:
            self.recorded_answers[key] = msg
            return msg
        if recorded.wire[2:] == msg.wire[2:]:
            return msg  # nothing changed yet; the honest answer IS the replay
        poisoned_wire = msg.wire[:2] + recorded.wire[2:]
        self.stats["poisoned_responses"] += 1
        return replace(recorded, request_id=msg.request_id, wire=poisoned_wire)

    def _withhold(self, msg: object) -> Optional[object]:
        """Silently sit out of threshold signing (shares *and* finals).

        Unlike CRASH the replica keeps running atomic broadcast, so it
        still counts toward quorums and causes no epoch churn — the only
        effect is one fewer honest share, which is exactly what pushes
        the optimistic protocols onto their slow paths when combined with
        a bad-share peer.
        """
        if isinstance(msg, WrapperSigning) and (
            msg.inner.is_share or msg.inner.is_final
        ):
            self.stats["withheld_messages"] += 1
            return None
        return msg
