"""Optimistic asynchronous atomic broadcast (Kursawe–Shoup style).

This is the protocol the paper uses to disseminate *every* DNS request to
all replicas (§3.3): a fast **optimistic** mode in which a leader orders
requests, and a **fall-back** mode entered when the leader is apparently
not performing correctly, which runs a Byzantine agreement to switch
epochs and re-establish a consistent state.

Fast path (no crypto beyond transferable prepare authenticators):

1. A request enters via :meth:`AtomicBroadcast.a_broadcast` — the replica
   sends ``INITIATE`` to all (the client talks to one gateway, §3.4).
2. The epoch's leader assigns the next sequence number and sends
   ``ORDER(epoch, seq, request)``.
3. Replicas answer with a *signed* ``PREPARE(epoch, seq, digest)``; a set
   of ``2t+1`` valid prepares is a transferable **prepare certificate**.
4. A replica holding a certificate broadcasts ``COMMIT``; on ``2t+1``
   commits the request is **a-delivered** in sequence order.

Two quorum intersections give safety: two certificates for the same
``(epoch, seq)`` share an honest replica, so at most one digest per slot;
and a delivered slot implies ``t+1`` honest replicas hold its
certificate, so *any* ``n-t`` epoch-final messages collected during
fall-back contain that certificate — the new epoch can never lose a
delivered request.

Fall-back: replicas that time out on an undelivered request broadcast
``COMPLAIN``; ``t+1`` complaints are joined, ``2t+1`` complaints start a
binary Byzantine agreement on switching epochs (this is where the
threshold-coin ABA of :mod:`repro.broadcast.aba` runs).  After deciding,
replicas send signed ``EPOCH_FINAL`` messages carrying their certificates
and pending requests; the next leader assembles ``n-t`` of them into
``NEW_EPOCH``, which every replica *revalidates and recomputes
deterministically* — a Byzantine new leader can stall but never corrupt
the sequence.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple

from repro.broadcast.aba import BinaryAgreement
from repro.broadcast.effects import CancelTimer, Deliver, Effect, Send, SetTimer, TimerId
from repro.broadcast.messages import (
    MAX_BATCH_NESTING,
    AbaAux,
    AbaDecided,
    AbaEst,
    AbcCommit,
    AbcComplain,
    AbcEpochFinal,
    AbcInitiate,
    AbcNewEpoch,
    AbcOrder,
    AbcPrepare,
    CoinShare,
    PayloadPull,
    PayloadReply,
    PrepareCertificate,
    decode_batch,
    encode_batch,
    is_batch_payload,
)
from repro.broadcast.recovery import PAYLOAD_STORE_ENTRIES, PayloadRecovery, PullKey
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.shoup import ThresholdKeyShare
from repro.errors import ConfigError
from repro.util.lru import BoundedLRU

DEFAULT_TIMEOUT = 5.0

#: Cap on not-yet-delivered requests buffered in ``pending``: one INITIATE
#: per distinct payload, so without a cap any peer (or a flood of clients
#: through an honest gateway) could grow memory without bound (KeyTrap).
MAX_PENDING_REQUESTS = 65536

#: Fast-path messages for sequence slots this far beyond ``next_deliver``
#: are ignored.  A Byzantine replica can *sign* prepares for arbitrary
#: sequence numbers, so each accepted seq opens a pool entry; honest
#: replicas never run ahead of delivery by anything close to this window,
#: so the bound affects adversarial traffic only.
MAX_SEQ_AHEAD = 4096

#: Complaints, epoch-final messages, buffered fast-path traffic and the
#: epoch-switch agreement's ABA/coin traffic for epochs this far beyond
#: our own are ignored.  Epoch numbers only advance through a 2t+1
#: quorum, so an honest replica can lag at most a handful of epochs;
#: without the bound a single Byzantine replica could key unbounded
#: ``_complaints``/``_finals``/ABA state by inventing far-future epochs.
MAX_EPOCH_AHEAD = 64

#: Cap on fast-path messages held for an epoch we have not entered yet,
#: shared out as a quota of ``MAX_FUTURE_BUFFER // n`` per sender: a
#: flooder fills only its own share and cannot crowd out honest
#: next-epoch traffic.
MAX_FUTURE_BUFFER = 4096

MODE_FAST = "fast"
MODE_RECOVERY = "recovery"

#: Leader-side batching: the requests that queued up behind the leader's
#: slot in flight — or, at a new leader, during the epoch switch — share
#: batch frames of up to this many payloads per sequence slot.
#: (``AtomicBroadcast(rebatch_max=1)`` keeps the paper's one request per
#: slot.)
LEADER_BATCH_MAX = 32


def derive_request_id(payload: bytes) -> str:
    """Request ids are payload digests, so every replica derives the same id."""
    return hashlib.sha256(payload).hexdigest()[:32]


#: Request id of the empty payload.  A digest-mode ORDER's wire frame
#: carries ``payload=b""``; a genuine empty request is the one payload
#: that collides with that framing, so empty requests always travel full.
_EMPTY_RID = derive_request_id(b"")


def _switch_epoch(sid: object) -> Optional[int]:
    """The epoch of an epoch-switch agreement id ``switch/<epoch>``, in
    its canonical spelling; None for any other sid."""
    if not isinstance(sid, str):
        return None
    prefix, _, digits = sid.partition("/")
    if prefix != "switch" or not digits.isdecimal() or len(digits) > 18:
        return None
    epoch = int(digits)
    return epoch if sid == f"switch/{epoch}" else None


def _payload_matches_id(key: Tuple[str, bytes], payload: bytes) -> bool:
    """A pulled payload verifies when it hashes to the id it answers."""
    return derive_request_id(payload) == key[0]


def request_digest(epoch: int, seq: int, payload: bytes) -> bytes:
    h = hashlib.sha256()
    h.update(f"{epoch}/{seq}/".encode())
    h.update(payload)
    return h.digest()


def _prepare_signing_input(epoch: int, seq: int, digest: bytes) -> bytes:
    return b"prepare/" + f"{epoch}/{seq}/".encode() + digest


def _final_signing_input(final: AbcEpochFinal) -> bytes:
    h = hashlib.sha256()
    h.update(f"final/{final.epoch}/{final.sender}/{final.delivered_seq}/".encode())
    for cert in final.certificates:
        h.update(f"{cert.epoch}/{cert.seq}/".encode())
        h.update(cert.digest)
    for rid, payload in final.pending:
        h.update(rid.encode())
        h.update(hashlib.sha256(payload).digest())
    return h.digest()


#: The id of :class:`BatchQueue`'s flush timer.
BATCH_TIMER: TimerId = ("batch", "flush", None)


class BatchQueue:
    """Accumulates request payloads and flushes them as one batch.

    SINTRA-style amortization: instead of paying a full agreement instance
    (ORDER / PREPARE-certificate / COMMIT round with its per-slot signature
    work) for every request, the gateway buffers payloads and hands the
    broadcast layer one length-prefixed batch per sequence slot.  A batch
    is flushed when it reaches ``max_batch`` entries (size threshold) or
    ``max_delay`` elapses on the local clock since the first buffered entry
    (latency threshold), whichever comes first.

    A flush is a :class:`Deliver` of the payload to a-broadcast: a lone
    request as it is (its id is what an unbatched gateway would have
    broadcast), two or more in one batch frame.  The queue's effects wait
    in order until the host calls :meth:`take`, rather than coming back
    from :meth:`append` and :meth:`flush`: the benchmark tracer
    (``benchmarks/e2e/trace.py``) wraps those two in functions that do
    not pass a return value on.
    """

    def __init__(self, max_batch: int, max_delay: float) -> None:
        if max_batch < 1:
            raise ConfigError("batch size must be at least 1")
        if max_delay <= 0:
            raise ConfigError("batch flush delay must be positive")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._buffer: List[bytes] = []
        self._timer_armed = False
        self._out: List[Effect] = []
        self.stats: Dict[str, int] = {
            "flushes": 0,
            "flushed_requests": 0,
            "size_flushes": 0,
            "timer_flushes": 0,
        }

    def __len__(self) -> int:
        return len(self._buffer)

    def take(self) -> List[Effect]:
        """The effects of the calls since the last take, in order."""
        out, self._out = self._out, []
        return out

    def append(self, payload: bytes) -> None:
        """Buffer one payload; flush if the size threshold is reached."""
        self._buffer.append(payload)
        if len(self._buffer) >= self.max_batch:
            self.flush(reason="size")
        elif not self._timer_armed:
            self._timer_armed = True
            self._out.append(SetTimer(BATCH_TIMER, self.max_delay))

    def on_timer(self, timer_id: TimerId) -> None:
        self._timer_armed = False
        self.flush(reason="timer")

    def flush(self, reason: str = "explicit") -> None:
        """Deliver all buffered payloads, oldest first."""
        if self._timer_armed:
            self._timer_armed = False
            self._out.append(CancelTimer(BATCH_TIMER))
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self.stats["flushes"] += 1
        self.stats["flushed_requests"] += len(batch)
        if reason == "size":
            self.stats["size_flushes"] += 1
        elif reason == "timer":
            self.stats["timer_flushes"] += 1
        payload = batch[0] if len(batch) == 1 else encode_batch(batch)
        self._out.append(Deliver(derive_request_id(payload), payload))


class AuthPlane:
    """Broadcast-layer authenticator crypto (PREPARE / EPOCH_FINAL RSA).

    :meth:`verify_many` checks a whole authenticator pool — a PREPARE
    certificate's 2t+1 signatures, or a NEW_EPOCH's n-t signed finals —
    in one call.
    """

    def __init__(self, auth_key: RsaPrivateKey, auth_public: List[RsaPublicKey]) -> None:
        self.auth_key = auth_key
        self.auth_public = list(auth_public)

    def sign(self, data: bytes) -> bytes:
        return self.auth_key.sign(data)

    def verify(self, signer: int, data: bytes, signature: bytes) -> bool:
        return self.auth_public[signer].is_valid(data, signature)

    def verify_many(
        self, items: List[Tuple[RsaPublicKey, bytes, bytes]]
    ) -> List[bool]:
        return [key.is_valid(data, sig) for key, data, sig in items]


class AtomicBroadcast:
    """One replica's endpoint of the atomic broadcast channel.

    Sans-IO: :meth:`a_broadcast`, :meth:`on_message` and :meth:`on_timer`
    each return the ordered effect list of the call
    (:mod:`repro.broadcast.effects`) — sends over the authenticated link,
    timer set/cancel requests, and a :class:`Deliver` per a-delivered
    request for the replicated state machine.  Handlers append to
    ``_out`` as they go; the entry point hands it over.
    """

    def __init__(
        self,
        n: int,
        t: int,
        me: int,
        auth_key: RsaPrivateKey,
        auth_public: List[RsaPublicKey],
        coin_key: ThresholdKeyShare,
        timeout: float = DEFAULT_TIMEOUT,
        crypto: Optional[AuthPlane] = None,
        rebatch_max: int = LEADER_BATCH_MAX,
    ) -> None:
        if n <= 3 * t:
            raise ConfigError("atomic broadcast requires n > 3t")
        if len(auth_public) != n:
            raise ConfigError("need one verification key per replica")
        if rebatch_max < 1:
            raise ConfigError("rebatch_max must be at least 1")
        self.n = n
        self.t = t
        self.me = me
        self.auth_key = auth_key
        self.auth_public = auth_public
        self.crypto = crypto if crypto is not None else AuthPlane(auth_key, auth_public)
        # Payloads per leader batch frame (LEADER_BATCH_MAX, _order_pending).
        self.rebatch_max = rebatch_max
        self.timeout = timeout
        self._out: List[Effect] = []  # the running call's effects

        self.epoch = 0
        self.mode = MODE_FAST
        self.next_deliver = 0
        self.delivered_ids: Set[str] = set()
        self.delivered_log: List[Tuple[int, str]] = []  # (seq, request_id)

        self.pending: Dict[str, bytes] = {}
        # Leader's counter, restarted at the delivery watermark by every
        # NEW_EPOCH: above ``next_deliver`` exactly while a slot this
        # replica ordered *in the current epoch* is undelivered here.
        self._next_order_seq = 0
        self._ordered: Dict[Tuple[int, int], Tuple[str, bytes]] = {}
        self._payload_by_digest: Dict[bytes, Tuple[str, bytes]] = {}
        self._prepared_digest: Dict[Tuple[int, int], bytes] = {}
        self._prepares: Dict[Tuple[int, int, bytes], Dict[int, bytes]] = {}
        # Distinct digests admitted per (epoch, seq) slot.  A Byzantine
        # signer carries a valid signature over any digest it invents, so
        # without a cap each in-window slot admits unlimited pool entries
        # in _prepares/_commits (digest stuffing).  Admission is bounded
        # *per sender* — each replica may introduce at most one digest per
        # slot — so a flooder exhausts only its own budget and can never
        # crowd out the honest leader's digest (a global first-come cap
        # would let one replica censor every slot).
        self._slot_digests: Dict[Tuple[int, int], Set[bytes]] = {}
        self._slot_introducer: Dict[Tuple[int, int], Dict[int, bytes]] = {}
        self._certificates: Dict[int, PrepareCertificate] = {}  # seq -> best cert
        self._commit_sent: Set[Tuple[int, int]] = set()
        self._commits: Dict[Tuple[int, int, bytes], Set[int]] = {}
        self._committed: Dict[int, bytes] = {}  # seq -> digest (commit quorum)
        self._skipped: Set[int] = set()
        # Slot retirement (DESIGN.md "State lifetime"): once a slot is
        # delivered here *and* this replica has sent its own COMMIT, every
        # per-slot structure above except ``_certificates[seq]`` is
        # dropped.  Retired slots are remembered as a contiguous watermark
        # plus the few slots retired ahead of it, so late ORDER / PREPARE
        # / COMMIT traffic is shed before any signature work and a retired
        # slot can never be prepared a second time.
        self._retired_below = 0
        self._retired: Set[int] = set()

        # Fast-path traffic for an epoch we have not entered yet (or that
        # arrives while we are mid-recovery) is buffered and replayed once
        # NEW_EPOCH installs the epoch: links are reliable, so a replica
        # that switches epochs late must not lose the ORDER / PREPARE /
        # COMMIT messages the others sent while it lagged.
        self._future_buffer: List[Tuple[int, object]] = []
        self._future_held = [0] * n  # buffered messages per sender
        self._complaints: Dict[int, Set[int]] = {}
        self._complained: Set[int] = set()
        # epoch -> sender -> the signed (final, signature) tuple, kept
        # whole so NEW_EPOCH can forward the signatures for re-verification
        self._finals: Dict[int, Dict[int, Tuple[AbcEpochFinal, bytes]]] = {}
        self._final_sent: Set[int] = set()
        self._new_epoch_done: Set[int] = set()
        # Ids of the armed leader-suspicion and recovery-stall timers.
        self._timer: Optional[TimerId] = None
        self._recovery_timer: Optional[TimerId] = None

        # Digest dissemination state (DESIGN.md §5i).  Buffered digest
        # ORDERs whose payload has not arrived yet, keyed by request id;
        # resolved by INITIATE or the pull fallback.  The payload archive
        # keeps recently delivered payloads around so this replica can
        # serve late peers' pulls.
        self._awaiting_order: Dict[str, Tuple[int, AbcOrder]] = {}
        self._payload_archive: BoundedLRU[str, bytes] = BoundedLRU(
            PAYLOAD_STORE_ENTRIES
        )

        self.aba = BinaryAgreement(
            n, t, me, coin_key, on_decide=self._on_switch_decided
        )
        self._switch_decided: Set[int] = set()

        # Statistics for benchmarks/ablations; the dict is ABA's, so its
        # coin-round drops count here too.
        self.stats: Dict[str, int] = self.aba.stats
        self.stats.update({
            "fast_deliveries": 0,
            "recovery_deliveries": 0,
            "epoch_changes": 0,
            "complaints_sent": 0,
            "initiates_dropped": 0,
            "out_of_window": 0,
            "retired_slot_msgs": 0,
            "surplus_prepares": 0,
            "rebatches": 0,
            "rebatched_requests": 0,
            # Dropped at a cap: ABA/coin traffic for a sid outside the
            # switch window, future-epoch traffic, buffered digest ORDERs.
            "aba_out_of_window": 0,
            "future_dropped": 0,
            "await_dropped": 0,
        })
        self._recovery = PayloadRecovery(n, me, self.stats)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    @property
    def leader(self) -> int:
        return self.epoch % self.n

    def delivery_digest(self) -> str:
        """Fingerprint of the a-delivered sequence ``(seq, request_id)*``.

        Atomic broadcast's total-order guarantee means every honest
        replica's digest must be identical once the network quiesces; the
        chaos harness's G1 check compares these directly.
        """
        h = hashlib.sha256()
        for seq, rid in self.delivered_log:
            h.update(f"{seq}:{rid};".encode())
        return h.hexdigest()

    def a_broadcast(self, payload: bytes) -> List[Effect]:
        """Inject a request into the channel.

        Its request id is :func:`derive_request_id` of the payload
        (distinct requests must have distinct payloads — DNS messages
        carry random ids, so they do), which lets epoch recovery
        recompute ids deterministically.
        """
        msg = AbcInitiate(derive_request_id(payload), payload)
        self._broadcast(msg)
        self._on_initiate(self.me, msg)
        return self._take()

    def on_message(self, sender: int, msg: object) -> List[Effect]:
        """Feed one received protocol message."""
        self._dispatch(sender, msg)
        return self._take()

    def on_timer(self, timer_id: TimerId) -> List[Effect]:
        """Fire one of the timers this endpoint's effects armed."""
        owner, kind, key = timer_id
        if owner == "pull":
            self._out.extend(self._recovery.on_timer(timer_id))
        elif kind == "suspect":
            self._on_timeout(key)  # type: ignore[arg-type]
        else:
            self._recovery_stalled(key)  # type: ignore[arg-type]
        return self._take()

    def _take(self) -> List[Effect]:
        out, self._out = self._out, []
        return out

    def _dispatch(self, sender: int, msg: object) -> None:
        if isinstance(msg, AbcInitiate):
            self._on_initiate(sender, msg)
        elif isinstance(msg, AbcOrder):
            self._on_order(sender, msg)
        elif isinstance(msg, AbcPrepare):
            self._on_prepare(sender, msg)
        elif isinstance(msg, AbcCommit):
            self._on_commit(sender, msg)
        elif isinstance(msg, AbcComplain):
            self._on_complain(sender, msg)
        elif isinstance(msg, AbcEpochFinal):
            self._on_epoch_final(sender, msg)
        elif isinstance(msg, AbcNewEpoch):
            self._on_new_epoch(sender, msg)
        elif isinstance(msg, PayloadPull):
            self._out.extend(self._recovery.on_pull(sender, msg, self._serve_pull))
        elif isinstance(msg, PayloadReply):
            for pulled in self._recovery.on_reply(sender, msg):
                self._on_pulled(pulled.request_id, pulled.payload)
        elif isinstance(msg, tuple) and len(msg) == 2 and isinstance(msg[0], AbcEpochFinal):
            self._on_epoch_final(sender, msg)
        elif isinstance(msg, (AbaEst, AbaAux, AbaDecided, CoinShare)):
            epoch = _switch_epoch(msg.sid)
            if epoch is None or epoch > self.epoch + MAX_EPOCH_AHEAD:
                # Each sid opens an ABA instance and coin pools: only
                # epoch-switch agreements in the window get one.  Past
                # epochs pass so lagging peers can finish theirs.
                self.stats["aba_out_of_window"] += 1
                return
            for dest, out in self.aba.on_message(sender, msg):
                self._route(dest, out)

    # ------------------------------------------------------------------
    # fast path
    # ------------------------------------------------------------------

    def _on_initiate(self, sender: int, msg: AbcInitiate) -> None:
        if msg.request_id in self.delivered_ids:
            return
        if msg.request_id not in self.pending:
            if len(self.pending) >= MAX_PENDING_REQUESTS:
                self.stats["initiates_dropped"] += 1
                return
            self.pending[msg.request_id] = msg.payload
            self._arm_timer()
        if msg.request_id in self._awaiting_order:
            self._replay_awaited(msg.request_id, msg.payload)
        if self.mode == MODE_FAST and self.me == self.leader:
            self._order_pending()

    def _order_pending(self) -> None:
        """Leader: order the not-yet-ordered backlog, one slot in flight.

        Self-clocked batching (Nagle's rule): with none of this epoch's
        own slots undelivered the backlog is ordered at once; otherwise
        it stays in ``pending`` and rides in the *next* slot, ordered
        when the one in flight delivers here (``_advance_delivery``) or a
        NEW_EPOCH installs.  Delivery is in sequence order, so a slot
        ordered behind an undelivered one could not deliver before it
        anyway — holding costs no latency and turns k agreement instances
        into one.  Two or more payloads share a batch frame of up to
        ``rebatch_max`` whole payloads (a larger backlog goes out as
        consecutive slots); members may themselves be gateway batch
        frames, and delivery unwraps the nesting (``_mark_batch_delivered``
        and the replica's recursive batch decoding).  ``rebatch_max=1``
        means one request per slot, so there is nothing to wait for.
        """
        if self.rebatch_max > 1 and self._next_order_seq > self.next_deliver:
            return
        already = {
            rid
            for (epoch, _), (rid, _) in self._ordered.items()
            if epoch == self.epoch
        }
        backlog = [
            rid
            for rid in sorted(self.pending)
            if rid not in already and rid not in self.delivered_ids
        ]
        for i in range(0, len(backlog), self.rebatch_max):
            group = backlog[i : i + self.rebatch_max]
            if len(group) == 1:
                self._order_one(group[0], self.pending[group[0]])
                continue
            payload = encode_batch([self.pending[rid] for rid in group])
            self.stats["rebatches"] += 1
            self.stats["rebatched_requests"] += len(group)
            self._order_one(derive_request_id(payload), payload)

    def _order_one(self, rid: str, payload: bytes) -> None:
        seq = self._next_order_seq
        self._next_order_seq += 1
        order = AbcOrder(self.epoch, seq, rid, payload)
        if payload and rid in self.pending:
            # Digest ORDER: followers hold (or will hold) the payload via
            # INITIATE, so the wire frame needs only the payload-derived
            # request id.  The leader's batch frames never entered
            # pending and always travel full.
            self._broadcast(AbcOrder(self.epoch, seq, rid, b""))
        else:
            self._broadcast(order)
        self._on_order(self.me, order)

    def _seq_in_window(self, seq: int) -> bool:
        """Bound per-sequence state against Byzantine far-future slots."""
        if seq >= self.next_deliver + MAX_SEQ_AHEAD:
            self.stats["out_of_window"] += 1
            return False
        return True

    def _slot_retired(self, seq: int) -> bool:
        """Shed fast-path traffic for a slot whose state was reclaimed.

        Also what keeps "an honest replica prepares at most one digest per
        (epoch, seq)" true once ``_prepared_digest`` is gone: a retired
        slot was prepared (or certified by a NEW_EPOCH) before it retired,
        and no ORDER for it is ever looked at again.
        """
        if seq < self._retired_below or seq in self._retired:
            self.stats["retired_slot_msgs"] += 1
            return True
        return False

    def _retire_if_done(self, epoch: int, seq: int) -> None:
        """Retire a slot at the later of local delivery and our own COMMIT.

        Waiting for the COMMIT is liveness, not safety: a replica that
        delivered on 2t+1 foreign COMMITs still owes the others its own,
        so it keeps the vote state until the late PREPAREs complete its
        certificate.  Safety needs neither — the certificate stays in
        ``_certificates`` and t+1 honest replicas hold one for every
        delivered slot, so any n-t epoch finals carry it.
        """
        if seq < self.next_deliver and (epoch, seq) in self._commit_sent:
            self._retire(epoch, seq)

    def _retire(self, epoch: int, seq: int) -> None:
        key = (epoch, seq)
        self._ordered.pop(key, None)
        self._prepared_digest.pop(key, None)
        self._slot_introducer.pop(key, None)
        self._commit_sent.discard(key)
        self._committed.pop(seq, None)
        # Every _prepares/_commits pool and the slot's payload entry are
        # keyed by a digest that went through _admit_slot_digest.
        for digest in self._slot_digests.pop(key, ()):
            self._prepares.pop((epoch, seq, digest), None)
            self._commits.pop((epoch, seq, digest), None)
            self._payload_by_digest.pop(digest, None)
        self._retired.add(seq)
        while self._retired_below in self._retired:
            self._retired.discard(self._retired_below)
            self._retired_below += 1

    def _buffer_future(self, sender: int, msg: object, epoch: int) -> bool:
        """Hold fast-path messages we cannot process *yet* (not stale ones).

        Epochs past the window, non-replica senders and replicas over
        their quota are dropped and counted.
        """
        if epoch > self.epoch or (epoch == self.epoch and self.mode != MODE_FAST):
            if (
                not 0 <= sender < self.n
                or epoch > self.epoch + MAX_EPOCH_AHEAD
                or self._future_held[sender] >= MAX_FUTURE_BUFFER // self.n
            ):
                self.stats["future_dropped"] += 1
                return True
            self._future_held[sender] += 1
            self._future_buffer.append((sender, msg))
            return True
        return False

    def _replay_buffered(self) -> None:
        buffered, self._future_buffer = self._future_buffer, []
        self._future_held = [0] * self.n
        for sender, msg in buffered:
            self._dispatch(sender, msg)

    def _on_order(self, sender: int, msg: AbcOrder) -> None:
        if self._buffer_future(sender, msg, msg.epoch):
            return
        if self.mode != MODE_FAST or msg.epoch != self.epoch:
            return
        if sender != self.leader:
            return  # only the epoch's leader may order
        if not self._seq_in_window(msg.seq) or self._slot_retired(msg.seq):
            return
        key = (msg.epoch, msg.seq)
        if key in self._prepared_digest:
            return  # first ORDER for a slot wins; equivocation is ignored
        payload = msg.payload
        if payload == b"" and msg.request_id != _EMPTY_RID:
            # Digest-mode ORDER: the payload travels separately in the
            # INITIATE.  Unknown ids are buffered; the pull fallback
            # fires only if the payload never shows up.
            resolved = self._resolve_payload(msg.request_id)
            if resolved is None:
                self._await_order(sender, msg)
                return
            payload = resolved
        if msg.request_id != derive_request_id(payload):
            return  # ids are payload-derived; anything else is malformed
        digest = request_digest(msg.epoch, msg.seq, payload)
        self._ordered[key] = (msg.request_id, payload)
        self._payload_by_digest[digest] = (msg.request_id, payload)
        self._prepared_digest[key] = digest
        signature = self.crypto.sign(
            _prepare_signing_input(msg.epoch, msg.seq, digest)
        )
        prepare = AbcPrepare(msg.epoch, msg.seq, digest, self.me, signature)
        self._broadcast(prepare)
        self._on_prepare(self.me, prepare)
        # Prepares may have reached quorum before the ORDER arrived.  The
        # prepare quorum is n-t, not 2t+1: two certificates for the same
        # slot must share an honest signer for every n >= 3t+1, and
        # 2*(n-t) - n = n - 2t >= t+1 always, while 2t+1 only intersects
        # when n == 3t+1 exactly.
        pool = self._prepares.get((msg.epoch, msg.seq, digest))
        if pool is not None and len(pool) >= self.n - self.t:
            self._form_certificate(msg.epoch, msg.seq, digest, pool)
        self._advance_delivery(fast=True)

    # ------------------------------------------------------------------
    # digest dissemination (DESIGN.md §5i)
    # ------------------------------------------------------------------

    def _resolve_payload(self, rid: str) -> Optional[bytes]:
        """The payload behind ``rid``, if this replica holds it.

        ``pending`` entries come from unauthenticated INITIATEs, so the
        payload-derived id is re-checked here rather than trusted.
        """
        payload = self.pending.get(rid)
        if payload is not None and derive_request_id(payload) == rid:
            return payload
        archived = self._payload_archive.get(rid)
        if archived is not None and derive_request_id(archived) == rid:
            return archived
        return None

    def _await_order(self, sender: int, msg: AbcOrder) -> None:
        """Buffer a digest ORDER whose payload has not arrived yet.

        The happy path resolves itself: the INITIATE is already in flight
        and replays the order on arrival.  The pull chain only ends up
        sending traffic against a gateway or leader that withheld the
        payload.
        """
        if msg.request_id in self._awaiting_order:
            return  # one buffered order and one pull chain per request
        if len(self._awaiting_order) >= MAX_SEQ_AHEAD:
            # Window-bounded; the slot stalls and complaints fire.
            self.stats["await_dropped"] += 1
            return
        self._awaiting_order[msg.request_id] = (sender, msg)
        self._out.extend(self._recovery.want(
            (msg.request_id, b""), self._pull_candidates, _payload_matches_id
        ))

    def _replay_awaited(self, rid: str, payload: bytes) -> None:
        """Re-dispatch a buffered digest ORDER now that its payload is known."""
        entry = self._awaiting_order.pop(rid, None)
        if entry is None:
            return
        self._recovery.cancel((rid, b""))
        sender, order = entry
        self._on_order(
            sender, AbcOrder(order.epoch, order.seq, order.request_id, payload)
        )

    def _on_pulled(self, rid: str, payload: bytes) -> None:
        """The withheld INITIATE, pulled and verified: it replaces a forged
        ``pending`` entry, and its ORDER replays even if ``pending`` is full
        (the chain that fetched it is closed)."""
        if rid in self.pending or len(self.pending) < MAX_PENDING_REQUESTS:
            self.pending[rid] = payload
        else:
            self.stats["initiates_dropped"] += 1
        self._replay_awaited(rid, payload)

    def _pull_candidates(self) -> List[int]:
        """The leader (it holds what it ordered), then the ring."""
        ring = [(self.leader + k) % self.n for k in range(self.n)]
        return [replica for replica in ring if replica != self.me]

    def _serve_pull(self, key: PullKey) -> List[object]:
        # Only the canonical key: a fresh digest per pull must not buy a
        # fresh serve budget.
        payload = self._resolve_payload(key[0]) if key[1] == b"" else None
        return [] if payload is None else [PayloadReply(key[0], b"", payload)]

    def _on_prepare(self, sender: int, msg: AbcPrepare) -> None:
        if self._buffer_future(sender, msg, msg.epoch):
            return
        if msg.epoch != self.epoch or self.mode != MODE_FAST:
            return
        if msg.signer != sender:
            return
        if not self._seq_in_window(msg.seq) or self._slot_retired(msg.seq):
            return
        if (msg.epoch, msg.seq) in self._commit_sent:
            # The slot's certificate is formed and our COMMIT is out: a
            # PREPARE beyond its n-t can change nothing, so it is shed
            # before the RSA check like traffic for a retired slot.
            self.stats["surplus_prepares"] += 1
            return
        # Our own PREPARE was signed a few lines up in _on_order; only
        # foreign signatures need checking.
        if sender != self.me and not self._verify_prepare(msg):
            return
        if not self._admit_slot_digest(sender, msg.epoch, msg.seq, msg.digest):
            return
        pool = self._prepares.setdefault((msg.epoch, msg.seq, msg.digest), {})
        if msg.signer in pool:
            return
        pool[msg.signer] = msg.signature
        if len(pool) >= self.n - self.t:
            self._form_certificate(msg.epoch, msg.seq, msg.digest, pool)

    def _admit_slot_digest(
        self, sender: int, epoch: int, seq: int, digest: bytes
    ) -> bool:
        """Admit at most one *introduced* digest per sender per slot.

        Honest replicas prepare/commit exactly one digest per slot, so a
        sender presenting a second distinct digest is equivocating —
        Byzantine digest stuffing aimed at growing the
        ``_prepares``/``_commits`` pools without bound.  Bounding per
        sender (rather than a global first-come cap) keeps the slot at
        ≤ ``n`` distinct digests while guaranteeing the honest leader's
        digest is always admitted: a flooder only burns its own budget.
        Voting for a digest someone else already introduced is free.
        """
        digests = self._slot_digests.setdefault((epoch, seq), set())
        if digest in digests:
            return True
        introducer = self._slot_introducer.setdefault((epoch, seq), {})
        if sender in introducer:
            return False  # this sender already introduced a different digest
        introducer[sender] = digest
        digests.add(digest)
        return True

    def _verify_prepare(self, msg: AbcPrepare) -> bool:
        if not 0 <= msg.signer < self.n:
            return False
        return self.crypto.verify(
            msg.signer,
            _prepare_signing_input(msg.epoch, msg.seq, msg.digest),
            msg.signature,
        )

    def _form_certificate(
        self, epoch: int, seq: int, digest: bytes, pool: Dict[int, bytes]
    ) -> None:
        known = self._payload_by_digest.get(digest)
        if known is None:
            return  # wait until the ORDER (payload) arrives
        existing = self._certificates.get(seq)
        if existing is not None and existing.epoch >= epoch:
            pass
        else:
            self._certificates[seq] = PrepareCertificate(
                epoch=epoch,
                seq=seq,
                digest=digest,
                payload=known[1],
                signatures=tuple(sorted(pool.items()))[: self.n - self.t],
            )
        if (epoch, seq) not in self._commit_sent:
            self._commit_sent.add((epoch, seq))
            commit = AbcCommit(epoch, seq, digest, self.me, b"")
            self._broadcast(commit)
            self._on_commit(self.me, commit)
            self._retire_if_done(epoch, seq)

    def _on_commit(self, sender: int, msg: AbcCommit) -> None:
        if self._buffer_future(sender, msg, msg.epoch):
            return
        if msg.epoch != self.epoch or self.mode != MODE_FAST:
            return
        if msg.signer != sender:
            return
        if not self._seq_in_window(msg.seq) or self._slot_retired(msg.seq):
            return
        if not self._admit_slot_digest(sender, msg.epoch, msg.seq, msg.digest):
            return
        voters = self._commits.setdefault((msg.epoch, msg.seq, msg.digest), set())
        if sender in voters:
            return
        voters.add(sender)
        if len(voters) >= 2 * self.t + 1 and msg.seq not in self._committed:
            self._committed[msg.seq] = msg.digest
            self._advance_delivery(fast=True)

    def _advance_delivery(self, fast: bool) -> None:
        delivered_from = self.next_deliver
        while True:
            seq = self.next_deliver
            if seq in self._skipped:
                self.next_deliver += 1
                continue
            digest = self._committed.get(seq)
            if digest is None:
                break
            known = self._payload_by_digest.get(digest)
            if known is None:
                break
            rid, payload = known
            self.next_deliver += 1
            self._deliver_once(seq, rid, payload, fast)
            self._retire_if_done(self.epoch, seq)
        # A slot delivered on foreign COMMITs whose certificate never
        # completes here (a Byzantine signer withholding its PREPARE at
        # n > 3t+1) must not pin the watermark: once it trails delivery
        # by the window, it is retired without our COMMIT.
        while self.next_deliver - self._retired_below > MAX_SEQ_AHEAD:
            self.stats["out_of_window"] += 1
            self._retire(self.epoch, self._retired_below)
        self._arm_timer()
        if (
            fast
            and self.next_deliver > delivered_from
            and self.mode == MODE_FAST
            and self.me == self.leader
        ):
            # The slot in flight delivered: order what queued up behind
            # it.  (A NEW_EPOCH install orders its own backlog once the
            # new epoch's state is in place.)
            self._order_pending()

    def _deliver_once(self, seq: int, rid: str, payload: bytes, fast: bool) -> None:
        if rid in self.delivered_ids:
            return
        self.delivered_ids.add(rid)
        self.delivered_log.append((seq, rid))
        self.pending.pop(rid, None)
        self._awaiting_order.pop(rid, None)
        self._recovery.cancel((rid, b""))
        # Keep the payload pullable for peers whose digest ORDER outlived
        # their copy (pending is popped on delivery).
        self._payload_archive.put(rid, payload)
        entry_ids = self._mark_batch_delivered(payload, {payload: rid})
        key = "fast_deliveries" if fast else "recovery_deliveries"
        self.stats[key] += 1
        self._out.append(Deliver(rid, payload, entry_ids))

    def _mark_batch_delivered(
        self, payload: bytes, ids: Dict[bytes, str], depth: int = 0
    ) -> Dict[bytes, str]:
        """Mark a delivered batch frame's constituent requests delivered.

        A re-batched frame carries payloads that entered the channel under
        their own request ids (they sit in ``pending`` and may be
        re-INITIATEd by peers); delivering the frame delivers them, so
        their ids must be marked to clear complaint pressure and dedupe
        future INITIATEs.  Recurses through nested frames (a new leader
        re-batches whole gateway batches) up to the decoding depth cap.
        Returns ``ids`` with every entry's request id added (payload ->
        id), which the :class:`Deliver` item carries to the host, so the
        host need not hash an entry a second time.
        """
        if depth >= MAX_BATCH_NESTING or not is_batch_payload(payload):
            return ids
        for entry in decode_batch(payload):
            entry_rid = ids[entry] = derive_request_id(entry)
            # Bounded by total-ordered committed deliveries: every id
            # marked here rode inside a frame that passed consensus, so a
            # lone Byzantine replica cannot drive this growth.
            # repro-lint: disable=T404
            self.delivered_ids.add(entry_rid)
            self.pending.pop(entry_rid, None)
            self._mark_batch_delivered(entry, ids, depth + 1)
        return ids

    # ------------------------------------------------------------------
    # complaints and epoch switch
    # ------------------------------------------------------------------

    def _arm_timer(self) -> None:
        """(Re)arm the leader-suspicion timer while work is pending."""
        if self._timer is not None:
            self._out.append(CancelTimer(self._timer))
            self._timer = None
        if self.pending and self.mode == MODE_FAST:
            self._timer = ("abc", "suspect", self.epoch)
            self._out.append(SetTimer(self._timer, self.timeout))

    def _on_timeout(self, epoch: int) -> None:
        if epoch != self.epoch or self.mode != MODE_FAST or not self.pending:
            return
        self._complain(epoch)

    def _complain(self, epoch: int) -> None:
        if epoch in self._complained:
            return
        self._complained.add(epoch)
        self.stats["complaints_sent"] += 1
        msg = AbcComplain(epoch, self.me)
        self._broadcast(msg)
        self._on_complain(self.me, msg)

    def _on_complain(self, sender: int, msg: AbcComplain) -> None:
        if msg.complainer != sender or msg.epoch < self.epoch:
            return
        if msg.epoch > self.epoch + MAX_EPOCH_AHEAD:
            return  # far-future epochs only come from Byzantine senders
        voters = self._complaints.setdefault(msg.epoch, set())
        if sender in voters:
            return
        voters.add(sender)
        if len(voters) >= self.t + 1 and msg.epoch not in self._complained:
            self._complain(msg.epoch)  # join: an honest replica complained
        if len(voters) >= 2 * self.t + 1:
            sid = f"switch/{msg.epoch}"
            for dest, out in self.aba.propose(sid, 1):
                self._route(dest, out)

    def _on_switch_decided(self, sid: str, value: int) -> None:
        if not sid.startswith("switch/") or value != 1:
            return
        epoch = int(sid.split("/", 1)[1])
        # Bounded: one entry per *decided* ABA instance, each of which
        # needed 2t+1 participating replicas — not attacker-drivable.
        # repro-lint: disable=C304,T404
        self._switch_decided.add(epoch)
        self._enter_recovery(epoch)

    def _enter_recovery(self, epoch: int) -> None:
        if epoch < self.epoch or epoch in self._final_sent:
            return
        self.mode = MODE_RECOVERY
        self.stats["epoch_changes"] += 1
        self._final_sent.add(epoch)
        if self._timer is not None:
            self._out.append(CancelTimer(self._timer))
            self._timer = None
        final = AbcEpochFinal(
            epoch=epoch,
            sender=self.me,
            delivered_seq=self.next_deliver - 1,
            certificates=tuple(
                cert for _, cert in sorted(self._certificates.items())
            ),
            pending=tuple(sorted(self.pending.items())),
        )
        signed = (final, self.crypto.sign(_final_signing_input(final)))
        self._broadcast(signed)
        self._on_epoch_final(self.me, signed)
        # If the next leader stalls, complain about the next epoch.
        if self._recovery_timer is not None:
            self._out.append(CancelTimer(self._recovery_timer))
        self._recovery_timer = ("abc", "stalled", epoch)
        self._out.append(SetTimer(self._recovery_timer, self.timeout * 2))

    def _recovery_stalled(self, epoch: int) -> None:
        if self.epoch > epoch or self.mode == MODE_FAST:
            return
        self._complain(epoch + 1)

    def _on_epoch_final(self, sender: int, msg: object) -> None:
        if not (isinstance(msg, tuple) and len(msg) == 2):
            return
        final, signature = msg
        if not isinstance(final, AbcEpochFinal) or final.sender != sender:
            return
        # Window check first: it reads only final.epoch, so stale/far-future
        # spam is shed before paying for a full signature verification.
        if final.epoch < self.epoch or final.epoch > self.epoch + MAX_EPOCH_AHEAD:
            return  # stale finals are useless; far-future ones are Byzantine
        if not self.crypto.verify(sender, _final_signing_input(final), signature):
            return
        pool = self._finals.setdefault(final.epoch, {})
        if sender in pool:
            return
        pool[sender] = (final, signature)  # signed tuple, forwarded in NEW_EPOCH
        next_epoch = final.epoch + 1
        if (
            len(pool) >= self.n - self.t
            and next_epoch % self.n == self.me
            and next_epoch not in self._new_epoch_done
            and next_epoch > self.epoch
        ):
            self._new_epoch_done.add(next_epoch)
            finals = tuple(pool.values())[: self.n - self.t]
            new_epoch = AbcNewEpoch(
                epoch=next_epoch,
                certificates=finals,  # carries the signed finals themselves
                start_seq=0,          # recomputed by every validator
            )
            self._broadcast(new_epoch)
            self._on_new_epoch(self.me, new_epoch)

    def _on_new_epoch(self, sender: int, msg: AbcNewEpoch) -> None:
        if msg.epoch <= self.epoch:
            return
        if sender != msg.epoch % self.n:
            return
        adopted, start_seq, merged_pending = self._validate_new_epoch(msg)
        if adopted is None:
            return
        # Explicit local bound on the certificate-validated state installed
        # below: _validate_new_epoch clamps every final's delivered-seq
        # claim to its own certificate evidence, so a legitimate NEW_EPOCH
        # can never open a window wider than the fast path's delivery
        # window — refuse anything larger outright instead of installing
        # unbounded per-slot state.  Slots this replica already delivered
        # install nothing but their certificate, so they do not count.
        missing = [seq for seq in sorted(adopted) if seq >= self.next_deliver]
        if len(missing) > MAX_SEQ_AHEAD or start_seq > self.next_deliver + MAX_SEQ_AHEAD:
            self.stats["out_of_window"] += 1
            return
        # Install the certified prefix.
        self._certificates.update(adopted)
        for seq in missing:
            cert = adopted[seq]
            self._payload_by_digest[cert.digest] = (
                derive_request_id(cert.payload),
                cert.payload,
            )
            self._committed[seq] = cert.digest
        for seq in range(self.next_deliver, start_seq):
            if seq not in self._committed:
                self._skipped.add(seq)
        self._advance_delivery(fast=False)
        if self.next_deliver < start_seq:
            self.next_deliver = start_seq
        # Enter the new epoch.  Everything below start_seq is delivered or
        # skipped and all fast-path vote state is keyed by an epoch that
        # is over (traffic for this one was only buffered), so the slot
        # structures restart empty behind the watermark; complaint and
        # epoch-final pools of finished epochs go with them.
        self._ordered.clear()
        self._payload_by_digest.clear()
        self._prepared_digest.clear()
        self._prepares.clear()
        self._slot_digests.clear()
        self._slot_introducer.clear()
        self._commit_sent.clear()
        self._commits.clear()
        self._committed.clear()
        self._skipped.clear()
        self._retired.clear()
        self._retired_below = self.next_deliver
        self._complaints = {
            e: v for e, v in self._complaints.items() if e >= msg.epoch
        }
        self._finals = {e: v for e, v in self._finals.items() if e >= msg.epoch}
        self.epoch = msg.epoch
        self.mode = MODE_FAST
        # Restart at the watermark, whatever this replica ordered in an
        # earlier leadership: slots nobody certified are below nobody's
        # watermark, so a surviving counter would order past a gap that is
        # never filled — and read as "slot in flight" forever.
        self._next_order_seq = self.next_deliver
        for rid, payload in merged_pending.items():
            if rid in self.delivered_ids:
                continue
            if len(self.pending) >= MAX_PENDING_REQUESTS:
                self.stats["initiates_dropped"] += 1
                break
            self.pending.setdefault(rid, payload)
        if self._recovery_timer is not None:
            self._out.append(CancelTimer(self._recovery_timer))
            self._recovery_timer = None
        self._arm_timer()
        if self.me == self.leader:
            self._order_pending()
        # Replay fast-path traffic that arrived while we lagged behind the
        # epoch switch; anything still ahead of us is re-buffered.
        self._replay_buffered()

    def _validate_new_epoch(
        self, msg: AbcNewEpoch
    ) -> Tuple[Optional[Dict[int, PrepareCertificate]], int, Dict[str, bytes]]:
        """Revalidate a NEW_EPOCH deterministically from its signed finals."""
        prev_epoch = msg.epoch - 1
        candidates: List[Tuple[AbcEpochFinal, bytes]] = []
        for item in msg.certificates:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            final, signature = item
            if not isinstance(final, AbcEpochFinal):
                continue
            if final.epoch != prev_epoch:
                continue
            if not 0 <= final.sender < self.n:
                continue
            candidates.append((final, signature))
        # Amortized verification: every structurally-valid final is checked
        # in one crypto-plane task instead of one verify call per final.
        verdicts = self.crypto.verify_many(
            [
                (self.auth_public[final.sender], _final_signing_input(final), sig)
                for final, sig in candidates
            ]
        )
        seen: Set[int] = set()
        valid_finals: List[AbcEpochFinal] = []
        for (final, _sig), ok in zip(candidates, verdicts):
            if ok and final.sender not in seen:
                seen.add(final.sender)
                valid_finals.append(final)
        if len(valid_finals) < self.n - self.t:
            return None, 0, {}
        adopted: Dict[int, PrepareCertificate] = {}
        merged_pending: Dict[str, bytes] = {}
        delivered_claim = 0
        for final in valid_finals:
            for cert in final.certificates:
                if not self._validate_certificate(cert):
                    continue
                current = adopted.get(cert.seq)
                if current is None or cert.epoch > current.epoch:
                    adopted[cert.seq] = cert
            for rid, payload in final.pending:
                merged_pending.setdefault(rid, payload)
            # A final's delivered-seq claim counts only up to its own
            # certificate evidence: honest replicas carry certificates for
            # every slot at or above their watermark, so clamping changes
            # nothing for them, while a Byzantine final cannot skip the
            # sequence space ahead with a bare delivered_seq number.
            evidence = max((c.seq for c in final.certificates), default=-1)
            delivered_claim = max(
                delivered_claim, min(final.delivered_seq, evidence) + 1
            )
        start_seq = max(adopted) + 1 if adopted else 0
        start_seq = max(start_seq, delivered_claim)
        return adopted, start_seq, merged_pending

    def _validate_certificate(self, cert: PrepareCertificate) -> bool:
        if not isinstance(cert, PrepareCertificate):
            return False
        if cert.digest != request_digest(cert.epoch, cert.seq, cert.payload):
            return False
        seen: Set[int] = set()
        data = _prepare_signing_input(cert.epoch, cert.seq, cert.digest)
        items = []
        for signer, signature in cert.signatures:
            if signer in seen or not 0 <= signer < self.n:
                continue
            seen.add(signer)
            items.append((self.auth_public[signer], data, signature))
        # One amortized crypto-plane task checks the whole prepare pool.
        # Certificates need the full n-t intersection quorum (see
        # _on_prepare); accepting 2t+1 here would admit certificates a
        # Byzantine signer could duplicate for a conflicting digest.
        return sum(self.crypto.verify_many(items)) >= self.n - self.t

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------

    def _broadcast(self, msg: object) -> None:
        self._out.extend(Send(dest, msg) for dest in range(self.n) if dest != self.me)

    def _route(self, dest: int, msg: object) -> None:
        if dest == -1:
            self._broadcast(msg)
            # ABA components expect their own broadcast handled via
            # self-processing inside the component, which they already do.
        elif dest == self.me:
            self._dispatch(self.me, msg)
        else:
            self._out.append(Send(dest, msg))
