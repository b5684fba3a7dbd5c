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
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.broadcast.aba import BinaryAgreement
from repro.broadcast.messages import (
    MAX_BATCH_NESTING,
    AbaAux,
    AbaDecided,
    AbaEst,
    AbcCommit,
    AbcComplain,
    AbcEpochFinal,
    AbcFrag,
    AbcInitiate,
    AbcNewEpoch,
    AbcOrder,
    AbcPayload,
    AbcPrepare,
    AbcPull,
    CoinShare,
    PrepareCertificate,
    decode_batch,
    encode_batch,
    is_batch_payload,
)
from repro.broadcast.stores import FragmentStore, PayloadStore
from repro.crypto.executor import CryptoExecutor
from repro.crypto.merkle import merkle_proof, merkle_root, merkle_verify
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.crypto.shoup import ThresholdKeyShare
from repro.errors import ConfigError
from repro.util.erasure import ErasureError, rs_decode, rs_encode

DeliverFn = Callable[[str, bytes], None]
SendFn = Callable[[int, object], None]
ScheduleFn = Callable[[float, Callable[[], None]], Any]  # returns cancellable

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

#: Complaints and epoch-final messages for epochs this far beyond our own
#: are ignored.  Epoch numbers only advance through a 2t+1 quorum, so an
#: honest replica can lag at most a handful of epochs; without the bound a
#: single Byzantine replica could key unbounded ``_complaints``/``_finals``
#: state by inventing far-future epoch numbers.
MAX_EPOCH_AHEAD = 64

MODE_FAST = "fast"
MODE_RECOVERY = "recovery"

#: Request-introduction modes for the fast path (DESIGN.md §5i).
#: ``full`` ships the whole payload in both INITIATE and ORDER; ``digest``
#: keeps the INITIATE fan-out but strips ORDER frames down to the
#: payload-derived request id (with a pull fallback for withheld
#: payloads); ``erasure`` additionally replaces the INITIATE fan-out with
#: per-replica Reed-Solomon fragments so no link carries the whole batch.
#: The recovery path (EPOCH_FINAL / NEW_EPOCH) always travels
#: full-payload — recovery is rare and must be self-contained — and so
#: does a leader batch frame: followers never saw it under its own id.
DISSEMINATION_MODES = ("full", "digest", "erasure")

#: Leader-side batching: the requests that queued up behind the leader's
#: slot in flight — or, at a new leader, during the epoch switch — share
#: batch frames of up to this many payloads per sequence slot.
#: (``AtomicBroadcast(rebatch_max=1)`` keeps the paper's one request per
#: slot.)
LEADER_BATCH_MAX = 32

#: Delay before (re)pulling the payload behind an unresolved digest-mode
#: ORDER.  The happy path never pulls: the INITIATE or the reconstructed
#: erasure payload is already in flight when the ORDER arrives.
PULL_RETRY_TIMEOUT = 0.25

#: Pull attempts per request before giving up and letting the complaint /
#: epoch-change machinery own liveness for the stalled slot.
MAX_PULL_ATTEMPTS = 8

#: Pull responses served per requesting peer — a pull serves a full
#: payload, so without a budget a Byzantine peer could use an honest
#: replica as a bandwidth amplifier.
MAX_PULL_SERVES_PER_SENDER = 64

#: Payloads below this size are cheaper to fan out whole than to frame as
#: ``n`` Merkle-proven fragments; erasure mode sends them as plain
#: INITIATEs.
ERASURE_MIN_BYTES = 256


def derive_request_id(payload: bytes) -> str:
    """Request ids are payload digests, so every replica derives the same id."""
    return hashlib.sha256(payload).hexdigest()[:32]


#: Request id of the empty payload.  A digest-mode ORDER's wire frame
#: carries ``payload=b""``; a genuine empty request is the one payload
#: that collides with that framing, so empty requests always travel full.
_EMPTY_RID = derive_request_id(b"")


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


class BatchQueue:
    """Accumulates request payloads and flushes them as one batch.

    SINTRA-style amortization: instead of paying a full agreement instance
    (ORDER / PREPARE-certificate / COMMIT round with its per-slot signature
    work) for every request, the gateway buffers payloads and hands the
    broadcast layer one length-prefixed batch per sequence slot.  A batch
    is flushed when it reaches ``max_batch`` entries (size threshold) or
    ``max_delay`` elapses on the local clock since the first buffered entry
    (latency threshold), whichever comes first.
    """

    def __init__(
        self,
        max_batch: int,
        max_delay: float,
        flush: Callable[[List[bytes]], None],
        schedule: ScheduleFn,
    ) -> None:
        if max_batch < 1:
            raise ConfigError("batch size must be at least 1")
        if max_delay <= 0:
            raise ConfigError("batch flush delay must be positive")
        self.max_batch = max_batch
        self.max_delay = max_delay
        self._flush_fn = flush
        self._schedule = schedule
        self._buffer: List[bytes] = []
        self._timer: Optional[Any] = None
        self.stats: Dict[str, int] = {
            "flushes": 0,
            "flushed_requests": 0,
            "size_flushes": 0,
            "timer_flushes": 0,
        }

    def __len__(self) -> int:
        return len(self._buffer)

    def append(self, payload: bytes) -> None:
        """Buffer one payload; flush if the size threshold is reached."""
        self._buffer.append(payload)
        if len(self._buffer) >= self.max_batch:
            self.flush(reason="size")
        elif self._timer is None:
            self._timer = self._schedule(self.max_delay, self._on_timer)

    def _on_timer(self) -> None:
        self._timer = None
        self.flush(reason="timer")

    def flush(self, reason: str = "explicit") -> None:
        """Hand all buffered payloads to the flush callback, oldest first."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if not self._buffer:
            return
        batch, self._buffer = self._buffer, []
        self.stats["flushes"] += 1
        self.stats["flushed_requests"] += len(batch)
        if reason == "size":
            self.stats["size_flushes"] += 1
        elif reason == "timer":
            self.stats["timer_flushes"] += 1
        self._flush_fn(batch)


class AuthPlane:
    """Broadcast-layer authenticator crypto (PREPARE / EPOCH_FINAL RSA).

    Routes signing and verification through a pluggable
    :class:`~repro.crypto.executor.CryptoExecutor` when one is attached;
    :meth:`verify_many` amortizes a whole authenticator pool — a PREPARE
    certificate's 2t+1 signatures, or a NEW_EPOCH's n-t signed finals —
    into one executor task instead of one per signature.  Without an
    executor it computes inline, exactly as the pre-plane code did.
    """

    def __init__(
        self,
        auth_key: RsaPrivateKey,
        auth_public: List[RsaPublicKey],
        executor: Optional[CryptoExecutor] = None,
    ) -> None:
        self.auth_key = auth_key
        self.auth_public = list(auth_public)
        self.executor = executor

    def sign(self, data: bytes) -> bytes:
        if self.executor is not None and self.executor.auth_key is not None:
            return self.executor.rsa_sign(data)
        return self.auth_key.sign(data)

    def verify(self, signer: int, data: bytes, signature: bytes) -> bool:
        if self.executor is not None:
            return self.executor.rsa_verify(
                self.auth_public[signer], data, signature
            )
        return self.auth_public[signer].is_valid(data, signature)

    def verify_many(
        self, items: List[Tuple[RsaPublicKey, bytes, bytes]]
    ) -> List[bool]:
        if self.executor is not None:
            return self.executor.rsa_verify_many(items)
        return [key.is_valid(data, sig) for key, data, sig in items]


class AtomicBroadcast:
    """One replica's endpoint of the atomic broadcast channel.

    Effects are injected: ``send(dest, msg)`` transmits over the
    authenticated link, ``schedule(delay, fn)`` arms a timer (returning a
    handle with ``.cancel()``), and ``deliver(request_id, payload)`` hands
    an a-delivered request to the replicated state machine.
    """

    def __init__(
        self,
        n: int,
        t: int,
        me: int,
        auth_key: RsaPrivateKey,
        auth_public: List[RsaPublicKey],
        coin_key: ThresholdKeyShare,
        deliver: DeliverFn,
        send: SendFn,
        schedule: ScheduleFn,
        timeout: float = DEFAULT_TIMEOUT,
        crypto: Optional[AuthPlane] = None,
        rebatch_max: int = LEADER_BATCH_MAX,
        dissemination: str = "digest",
        erasure_min_bytes: int = ERASURE_MIN_BYTES,
    ) -> None:
        if n <= 3 * t:
            raise ConfigError("atomic broadcast requires n > 3t")
        if len(auth_public) != n:
            raise ConfigError("need one verification key per replica")
        if rebatch_max < 1:
            raise ConfigError("rebatch_max must be at least 1")
        if dissemination not in DISSEMINATION_MODES:
            raise ConfigError(
                f"unknown dissemination mode {dissemination!r}; "
                f"expected one of {DISSEMINATION_MODES}"
            )
        self.n = n
        self.t = t
        self.me = me
        self.auth_key = auth_key
        self.auth_public = auth_public
        self.crypto = crypto if crypto is not None else AuthPlane(auth_key, auth_public)
        # Payloads per leader batch frame (LEADER_BATCH_MAX, _order_pending).
        self.rebatch_max = rebatch_max
        self.dissemination = dissemination
        self.erasure_min_bytes = erasure_min_bytes
        self._deliver = deliver
        self._send = send
        self._schedule = schedule
        self.timeout = timeout

        self.epoch = 0
        self.mode = MODE_FAST
        self.next_deliver = 0
        self.delivered_ids: Set[str] = set()
        self.delivered_log: List[Tuple[int, str]] = []  # (seq, request_id)
        # payload -> request id for the slot being delivered (see entry_id)
        self._entry_ids: Dict[bytes, str] = {}

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
        self._complaints: Dict[int, Set[int]] = {}
        self._complained: Set[int] = set()
        # epoch -> sender -> the signed (final, signature) tuple, kept
        # whole so NEW_EPOCH can forward the signatures for re-verification
        self._finals: Dict[int, Dict[int, Tuple[AbcEpochFinal, bytes]]] = {}
        self._final_sent: Set[int] = set()
        self._new_epoch_done: Set[int] = set()
        self._timer: Optional[Any] = None
        self._recovery_timer: Optional[Any] = None

        # Digest/erasure dissemination state (DESIGN.md §5i).  Buffered
        # digest ORDERs whose payload has not arrived yet, keyed by
        # request id; resolved by INITIATE, fragment reconstruction, or
        # the pull fallback.  The payload archive keeps recently delivered
        # payloads around so this replica can serve late peers' pulls.
        self._awaiting_order: Dict[str, Tuple[int, AbcOrder]] = {}
        self._pull_attempt: Dict[str, int] = {}
        self._pull_served: Dict[int, int] = {}
        self._payload_archive = PayloadStore()
        self._frag_store = FragmentStore()
        self._frag_forwarded: Dict[str, bytes] = {}

        self.aba = BinaryAgreement(
            n, t, me, coin_key, on_decide=self._on_switch_decided
        )
        self._switch_decided: Set[int] = set()

        # Statistics for benchmarks/ablations.
        self.stats: Dict[str, int] = {
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
            "pulls_sent": 0,
            "pulls_served": 0,
            "erasure_disperses": 0,
            "erasure_reconstructions": 0,
        }

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

    def a_broadcast(self, payload: bytes) -> str:
        """Inject a request into the channel; returns its request id.

        Request ids are derived from the payload (distinct requests must
        have distinct payloads — DNS messages carry random ids, so they
        do), which lets epoch recovery recompute ids deterministically.
        """
        rid = derive_request_id(payload)
        if self.dissemination == "erasure" and len(payload) >= self.erasure_min_bytes:
            self._disperse(rid, payload)
            return rid
        msg = AbcInitiate(rid, payload)
        self._broadcast(msg)
        self.on_message(self.me, msg)
        return rid

    def on_message(self, sender: int, msg: object) -> None:
        """Feed one received protocol message."""
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
        elif isinstance(msg, AbcPull):
            self._on_pull(sender, msg)
        elif isinstance(msg, AbcPayload):
            self._on_payload(sender, msg)
        elif isinstance(msg, AbcFrag):
            self._on_frag(sender, msg)
        elif isinstance(msg, tuple) and len(msg) == 2 and isinstance(msg[0], AbcEpochFinal):
            self._on_epoch_final(sender, msg)
        elif isinstance(msg, (AbaEst, AbaAux, AbaDecided, CoinShare)):
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
        if self.dissemination != "full" and payload and rid in self.pending:
            # Digest ORDER: followers hold (or will hold) the payload via
            # INITIATE / fragment reconstruction, so the wire frame needs
            # only the payload-derived request id.  The leader's batch
            # frames never entered pending and always travel full.
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
        """Hold fast-path messages we cannot process *yet* (not stale ones)."""
        if epoch > self.epoch or (epoch == self.epoch and self.mode != MODE_FAST):
            if len(self._future_buffer) < 4096:
                self._future_buffer.append((sender, msg))
            return True
        return False

    def _replay_buffered(self) -> None:
        buffered, self._future_buffer = self._future_buffer, []
        for sender, msg in buffered:
            self.on_message(sender, msg)

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
            # Digest-mode ORDER: the payload travels separately (INITIATE
            # or erasure fragments).  Unknown ids are buffered; the pull
            # fallback fires only if the payload never shows up.
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
    # digest/erasure dissemination (DESIGN.md §5i)
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

        The happy path resolves itself: the INITIATE (or the reconstructed
        erasure payload) is already in flight and replays the order on
        arrival.  The pull timer only ends up sending traffic against a
        gateway or leader that withheld the payload.
        """
        if msg.request_id in self._awaiting_order:
            return  # one buffered order and one pull chain per request
        if len(self._awaiting_order) >= MAX_SEQ_AHEAD:
            return  # window-bounded; the slot stalls and complaints fire
        self._awaiting_order[msg.request_id] = (sender, msg)
        self._pull_attempt[msg.request_id] = 0
        self._schedule(PULL_RETRY_TIMEOUT, lambda: self._retry_pull(msg.request_id))

    def _replay_awaited(self, rid: str, payload: bytes) -> None:
        """Re-dispatch a buffered digest ORDER now that its payload is known."""
        entry = self._awaiting_order.pop(rid, None)
        self._pull_attempt.pop(rid, None)
        if entry is None:
            return
        sender, order = entry
        self._on_order(
            sender, AbcOrder(order.epoch, order.seq, order.request_id, payload)
        )

    def _retry_pull(self, rid: str) -> None:
        if rid not in self._awaiting_order or rid in self.delivered_ids:
            return
        payload = self._resolve_payload(rid)
        if payload is not None:
            self._replay_awaited(rid, payload)
            return
        attempt = self._pull_attempt.get(rid, 0)
        if attempt >= MAX_PULL_ATTEMPTS:
            # Stop pulling; the complaint / epoch-change machinery owns
            # liveness for the stalled slot from here.
            return
        self._pull_attempt[rid] = attempt + 1
        # Start with the leader (an honest leader always holds what it
        # ordered) and rotate through the other replicas on retry.
        target = (self.leader + attempt) % self.n
        if target == self.me:
            target = (target + 1) % self.n
        self.stats["pulls_sent"] += 1
        self._send(target, AbcPull(rid))
        self._schedule(PULL_RETRY_TIMEOUT, lambda: self._retry_pull(rid))

    def _on_pull(self, sender: int, msg: AbcPull) -> None:
        if sender == self.me or not 0 <= sender < self.n:  # repro-quorum: identity-bound
            return
        served = self._pull_served.get(sender, 0)
        if served >= MAX_PULL_SERVES_PER_SENDER:
            return  # per-peer budget: pulls cannot become an amplifier
        payload = self._resolve_payload(msg.request_id)
        if payload is None:
            return
        self._pull_served[sender] = served + 1
        self.stats["pulls_served"] += 1
        self._send(sender, AbcPayload(msg.request_id, payload))

    def _on_payload(self, sender: int, msg: AbcPayload) -> None:
        if msg.request_id not in self._awaiting_order:
            return  # unsolicited payload push
        if derive_request_id(msg.payload) != msg.request_id:
            return  # forged response; the retry chain keeps pulling
        if msg.request_id not in self.pending:
            if len(self.pending) >= MAX_PENDING_REQUESTS:
                self.stats["initiates_dropped"] += 1
            else:
                self.pending[msg.request_id] = msg.payload
        self._replay_awaited(msg.request_id, msg.payload)

    def _disperse(self, rid: str, payload: bytes) -> None:
        """Erasure-mode request introduction (AVID-M style).

        Frame the payload as ``n`` Reed-Solomon fragments (any ``n - 2t``
        reconstruct), Merkle-prove each against the fragment-tree root,
        and ship replica ``i`` only fragment ``i`` — no link out of the
        gateway carries the whole payload.  Each replica forwards its own
        fragment once, so every honest replica eventually holds at least
        ``n - t`` verified fragments.
        """
        fragments = rs_encode(payload, self.n - 2 * self.t, self.n)
        root = merkle_root(fragments)
        self.stats["erasure_disperses"] += 1
        own: Optional[AbcFrag] = None
        for index in range(self.n):
            frag = AbcFrag(
                rid, root, index, fragments[index], merkle_proof(fragments, index)
            )
            if index == self.me:
                own = frag
            else:
                self._send(index, frag)
        # The gateway holds the full payload, so it introduces the request
        # to itself directly; fragments were queued first so any ORDER a
        # leader-gateway emits departs each link after that replica's
        # direct fragment.
        self._on_initiate(self.me, AbcInitiate(rid, payload))
        if own is not None:
            self._on_frag(self.me, own)

    def _on_frag(self, sender: int, msg: AbcFrag) -> None:
        if msg.request_id in self.delivered_ids or msg.request_id in self.pending:
            return  # payload already known; fragments are redundant
        if not 0 <= msg.index < self.n:  # repro-quorum: identity-bound
            return
        if not merkle_verify(msg.root, msg.fragment, msg.proof):
            return
        if not self._frag_store.put(
            msg.request_id, msg.root, msg.index, msg.fragment, msg.proof
        ):
            return  # duplicate slot, or the group is at its cap
        if msg.index == self.me:
            self._forward_own_fragment(msg)
        group = self._frag_store.group(msg.request_id, msg.root)
        if len(group) >= self.n - 2 * self.t:  # repro-quorum: reconstruct
            self._reconstruct_request(msg.request_id, msg.root)

    def _forward_own_fragment(self, msg: AbcFrag) -> None:
        """Forward the fragment addressed to this replica, exactly once.

        One forward per request id keeps erasure traffic at one fragment
        in plus ``n - 1`` fragments out per request — duplicate or
        multi-root floods cannot amplify it.
        """
        if msg.request_id in self._frag_forwarded:
            return
        if len(self._frag_forwarded) >= MAX_PENDING_REQUESTS:
            return
        self._frag_forwarded[msg.request_id] = msg.root
        self._broadcast(msg)

    def _reconstruct_request(self, rid: str, root: bytes) -> None:
        group = self._frag_store.group(rid, root)
        fragments = {index: frag for index, (frag, _proof) in group.items()}
        try:
            payload = rs_decode(fragments, self.n - 2 * self.t, self.n)
        except ErasureError:
            return
        if derive_request_id(payload) != rid:
            # Inconsistent encoding, or a root that does not belong to
            # this request id.  Ids are payload-derived, so the binding is
            # self-certifying and every honest replica rejects identically.
            return
        self.stats["erasure_reconstructions"] += 1
        self._frag_store.discard(rid)
        self._on_initiate(self.me, AbcInitiate(rid, payload))

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
        self._pull_attempt.pop(rid, None)
        self._frag_forwarded.pop(rid, None)
        self._frag_store.discard(rid)
        # Keep the payload pullable for peers whose digest ORDER outlived
        # their copy (pending is popped on delivery).
        self._payload_archive.put(rid, payload)
        self._entry_ids = self._mark_batch_delivered(payload, {payload: rid})
        key = "fast_deliveries" if fast else "recovery_deliveries"
        self.stats[key] += 1
        self._deliver(rid, payload)

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
        id), which :meth:`entry_id` serves to the deliver callback.
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

    def entry_id(self, entry: bytes) -> str:
        """Request id of ``entry``, a (batch entry of the) payload being delivered.

        Delivery already hashed every entry to mark it delivered; the
        deliver callback gets that same id object instead of hashing the
        entry a second time and keeping a second copy of the string.
        """
        return self._entry_ids.get(entry) or derive_request_id(entry)

    # ------------------------------------------------------------------
    # complaints and epoch switch
    # ------------------------------------------------------------------

    def _arm_timer(self) -> None:
        """(Re)arm the leader-suspicion timer while work is pending."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self.pending and self.mode == MODE_FAST:
            epoch_at_arm = self.epoch
            self._timer = self._schedule(
                self.timeout, lambda: self._on_timeout(epoch_at_arm)
            )

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
            self._timer.cancel()
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
            self._recovery_timer.cancel()
        self._recovery_timer = self._schedule(
            self.timeout * 2, lambda: self._recovery_stalled(epoch)
        )

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
            self._recovery_timer.cancel()
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
        for dest in range(self.n):
            if dest != self.me:
                self._send(dest, msg)

    def _route(self, dest: int, msg: object) -> None:
        if dest == -1:
            self._broadcast(msg)
            # ABA components expect their own broadcast handled via
            # self-processing inside the component, which they already do.
        elif dest == self.me:
            self.on_message(self.me, msg)
        else:
            self._send(dest, msg)
