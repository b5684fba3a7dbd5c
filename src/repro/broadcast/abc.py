"""Optimistic asynchronous atomic broadcast (Kursawe–Shoup style).

This is the protocol the paper uses to disseminate *every* DNS request to
all replicas (§3.3): a fast **optimistic** mode in which a leader orders
requests, and a **fall-back** mode entered when the leader is apparently
not performing correctly, which runs a Byzantine agreement to switch
epochs and re-establish a consistent state.

Fast path (no public-key operation; DESIGN.md §5o):

1. A request enters via :meth:`AtomicBroadcast.a_broadcast` — the replica
   sends ``INITIATE`` to all (the client talks to one gateway, §3.4).
2. The epoch's leader assigns the next sequence number and sends
   ``ORDER(epoch, seq, request)``.  A replica that takes it has
   *accepted* ``(epoch, request)`` for the slot.
3. Replicas answer with an unsigned ``PREPARE(epoch, seq, digest)`` over
   the authenticated link; ``n-t`` matching PREPAREs and the payload are
   a **lock** on the slot.
4. A replica holding a lock broadcasts ``COMMIT``; on ``2t+1`` commits
   the request is **a-delivered** in sequence order.

Fall-back: replicas that time out on an undelivered request broadcast
``COMPLAIN``; ``t+1`` complaints are joined, ``2t+1`` complaints start a
binary Byzantine agreement on switching epochs (this is where the
threshold-coin ABA of :mod:`repro.broadcast.aba` runs).  After deciding,
replicas send RSA-signed ``EPOCH_FINAL`` messages carrying their locks,
accepted claims and pending requests.  The next leader sends
``NEW_EPOCH`` with a pool of ``n-t`` to ``n`` signed finals once
:func:`decide` — PBFT's view-change rule with MACs — leaves no slot of
it undecided; every replica re-verifies the finals and re-runs
:func:`decide`.  The choice list is then one slot of the new epoch:
``n-t`` PREPAREs over its digest lock every choice and ``2t+1`` COMMITs
deliver it.  A committed request has ``t+1`` honest lockers, so no
decisive pool can choose anything else for its slot; a Byzantine new
leader can stall the epoch change but never corrupt the sequence.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional, Set, Tuple, Union

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
MODE_RECOVERY = "recovery"  # until a NEW_EPOCH's choice list delivers

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


#: Request id of the null choice: a slot an epoch change skips.
NULL_RID = ""
_NULL = (NULL_RID, b"")

#: Sequence number of a new epoch's install slot: PREPARE and COMMIT
#: votes on the choice list of the NEW_EPOCH that opens the epoch.
INSTALL_SEQ = -1

#: What :func:`decide` returns for a decisive pool: the end of the choice
#: range, and the slots a lock candidate chose, seq -> (rid, payload).
#: Every other slot below the range end is null.
Decision = Tuple[int, Dict[int, Tuple[str, bytes]]]


def _final_signing_input(final: AbcEpochFinal) -> bytes:
    h = hashlib.sha256()
    h.update(
        f"final/{final.epoch}/{final.sender}/{len(final.locks)}/"
        f"{len(final.accepted)}/{len(final.pending)}/".encode()
    )
    for seq, epoch, rid, payload in final.locks:
        h.update(f"L{seq}/{epoch}/{len(rid)}/{rid}".encode())
        h.update(hashlib.sha256(payload).digest())
    for seq, epoch, rid in final.accepted:
        h.update(f"A{seq}/{epoch}/{len(rid)}/{rid}".encode())
    for rid, payload in final.pending:
        h.update(f"P{len(rid)}/{rid}".encode())
        h.update(hashlib.sha256(payload).digest())
    return h.digest()


def _is_index(value: object) -> bool:
    return type(value) is int and value >= 0


_Claims = Tuple[Dict[int, Tuple[int, str, bytes]], Dict[int, Dict[str, int]]]


def final_claims(final: AbcEpochFinal) -> Optional[_Claims]:
    """A final's locks (seq -> (epoch, rid, payload)) and accepted claims
    (seq -> rid -> epoch), or None when it is malformed: a repeated slot
    or (slot, rid), a non-index number, or a locked payload that does not
    hash to its rid.  A malformed final counts nowhere; honest finals
    never are."""
    try:
        if not (_is_index(final.epoch) and _is_index(final.sender)):
            return None
        locks: Dict[int, Tuple[int, str, bytes]] = {}
        for seq, epoch, rid, payload in final.locks:
            if not (_is_index(seq) and _is_index(epoch)) or seq in locks:
                return None
            if not isinstance(payload, bytes) or not isinstance(rid, str):
                return None
            if rid != NULL_RID and derive_request_id(payload) != rid:
                return None
            if rid == NULL_RID and payload:
                return None
            locks[seq] = (epoch, rid, payload)
        accepted: Dict[int, Dict[str, int]] = {}
        for seq, epoch, rid in final.accepted:
            if not (_is_index(seq) and _is_index(epoch)) or not isinstance(rid, str):
                return None
            by_rid = accepted.setdefault(seq, {})
            if rid in by_rid:
                return None
            by_rid[rid] = epoch
        for rid, payload in final.pending:
            if not (isinstance(rid, str) and isinstance(payload, bytes)):
                return None
    except (TypeError, ValueError):
        return None  # an entry of the wrong arity
    return locks, accepted


def decide(claims: List[_Claims], n: int, t: int) -> Optional[Decision]:
    """The epoch-change decision over a pool of finals' claims
    (:func:`final_claims`), or None when some slot is undecided.

    Per slot named by a lock, a lock ``(e, r)`` in the pool is a
    candidate.  **A1**: at least n-t finals hold no lock on the slot at
    an epoch above e and none on another rid at e.  **A2**: at least t+1
    finals accepted or locked r at an epoch >= e.  A candidate meeting
    both chooses the slot — a value beats null, then the higher epoch,
    then the smaller rid.  Otherwise **B** (n-t finals hold no lock on
    the slot) makes it null; otherwise it is undecided.  The choice range
    ends at the highest slot a candidate chose; every other slot below
    that is null.  DESIGN.md §5o argues safety and liveness.
    """
    chosen: Dict[int, Tuple[str, bytes]] = {}
    for seq in sorted({seq for locks, _ in claims for seq in locks}):
        slot = [locks.get(seq) for locks, _ in claims]
        candidates = {(lock[0], lock[1]): lock[2] for lock in slot if lock is not None}
        best: Optional[Tuple[bool, int, str]] = None
        for (epoch, rid), payload in candidates.items():
            free = sum(
                1
                for lock in slot
                if lock is None
                or lock[0] < epoch
                or (lock[0] == epoch and lock[1] == rid)
            )
            if free < n - t:  # A1
                continue
            support = 0
            for locks, accepted in claims:
                lock = locks.get(seq)
                if lock is not None and lock[1] == rid and lock[0] >= epoch:
                    support += 1
                elif accepted.get(seq, {}).get(rid, -1) >= epoch:
                    support += 1
            if support < t + 1:  # A2
                continue
            rank = (rid == NULL_RID, -epoch, rid)
            if best is None or rank < best:
                best = rank
                chosen[seq] = (rid, payload)
        if best is None and sum(lock is None for lock in slot) < n - t:  # B
            return None
    start_seq = max(chosen) + 1 if chosen else 0
    return start_seq, chosen


def _decision_digest(epoch: int, decision: Decision) -> bytes:
    start_seq, chosen = decision
    h = hashlib.sha256()
    h.update(f"install/{epoch}/{start_seq}/".encode())
    for seq, (rid, _payload) in sorted(chosen.items()):
        h.update(f"{seq}/{len(rid)}/{rid}".encode())
    return h.digest()


#: The id of :class:`BatchQueue`'s flush timer.
BATCH_TIMER: TimerId = ("batch", "flush", None)


class BatchQueue:
    """Accumulates request payloads and flushes them as one batch.

    SINTRA-style amortization: instead of paying a full agreement instance
    (ORDER / PREPARE / COMMIT round) for every request, the gateway
    buffers payloads and hands the broadcast layer one length-prefixed
    batch per sequence slot.  A batch
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
    """Broadcast-layer authenticator crypto: the EPOCH_FINAL RSA signature.

    Nothing on the fast path signs; a replica signs its final once per
    epoch change, and :meth:`verify_many` checks a NEW_EPOCH's pool of
    signed finals in one call.
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


class _Install:
    """An accepted NEW_EPOCH: its decision and its install-slot votes."""

    def __init__(
        self, epoch: int, decision: Decision, pending: Dict[str, bytes]
    ) -> None:
        self.epoch = epoch
        self.start_seq, self.chosen = decision
        self.digest = _decision_digest(epoch, decision)
        self.pending = pending
        self.prepares: Set[int] = set()
        self.commits: Set[int] = set()
        self.locked = False
        self.delivered = False

    def choice(self, seq: int) -> Tuple[str, bytes]:
        return self.chosen.get(seq, _NULL)


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
        self._prepares: Dict[Tuple[int, int, bytes], Set[int]] = {}
        # Distinct digests admitted per (epoch, seq) slot.  A Byzantine
        # replica can vote for any digest it invents, so without a cap
        # each in-window slot admits unlimited pool entries in
        # _prepares/_commits (digest stuffing).  Admission is bounded
        # *per sender* — each replica may introduce at most one digest per
        # slot — so a flooder exhausts only its own budget and can never
        # crowd out the honest leader's digest (a global first-come cap
        # would let one replica censor every slot).
        self._slot_digests: Dict[Tuple[int, int], Set[bytes]] = {}
        self._slot_introducer: Dict[Tuple[int, int], Dict[int, bytes]] = {}
        # DESIGN.md §5o.  seq -> (epoch, rid, payload): the highest-epoch
        # lock this replica holds on each slot (rid NULL_RID for a null).
        self._locks: Dict[int, Tuple[int, str, bytes]] = {}
        # seq -> rid -> highest epoch this replica accepted rid at, kept
        # only above the slot's lock epoch and below delivery.
        self._accepted: Dict[int, Dict[str, int]] = {}
        self._commit_sent: Set[Tuple[int, int]] = set()
        self._commits: Dict[Tuple[int, int, bytes], Set[int]] = {}
        self._committed: Dict[int, bytes] = {}  # seq -> digest (commit quorum)
        # Slot retirement (DESIGN.md "State lifetime"): once a slot is
        # delivered here *and* this replica has sent its own COMMIT, every
        # per-slot structure above except ``_locks[seq]`` is dropped.
        # Retired slots are remembered as a contiguous watermark plus the
        # few slots retired ahead of it, so late ORDER / PREPARE / COMMIT
        # traffic is shed and a retired slot is never prepared again.
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
        # The NEW_EPOCH this replica accepted last, while its choice list
        # collects its install-slot votes (and after, for late votes).
        self._install: Optional[_Install] = None
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
            # Complaints and finals for epochs past MAX_EPOCH_AHEAD.
            "complaints_out_of_window": 0,
            "finals_out_of_window": 0,
            # NEW_EPOCHs refused: some slot undecided, or a choice that
            # contradicts this replica's delivered log (a G1 tripwire).
            "undecided_new_epochs": 0,
            "conflicting_new_epochs": 0,
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
        slot was prepared (or installed by a NEW_EPOCH) before it retired,
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
        lock.  Safety needs neither — the lock stays in ``_locks`` and
        t+1 honest replicas hold one for every delivered slot.
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
        self._accepted.pop(seq, None)
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
        self._accept(msg.seq, msg.epoch, msg.request_id)
        prepare = AbcPrepare(msg.epoch, msg.seq, digest, self.me)
        self._broadcast(prepare)
        self._on_prepare(self.me, prepare)
        # Prepares may have reached quorum before the ORDER arrived.  The
        # lock quorum is n-t, not 2t+1: two locks on the same slot must
        # share an honest voter for every n >= 3t+1, and 2*(n-t) - n =
        # n - 2t >= t+1 always, while 2t+1 only intersects when n == 3t+1
        # exactly.
        pool = self._prepares.get((msg.epoch, msg.seq, digest))
        if pool is not None and len(pool) >= self.n - self.t:
            self._lock_slot(msg.epoch, msg.seq, digest)
        self._advance_delivery()

    def _accept(self, seq: int, epoch: int, rid: str) -> None:
        """Record an accepted claim: ``rid`` at ``epoch`` for ``seq``."""
        lock = self._locks.get(seq)
        if lock is not None and lock[0] >= epoch:
            return  # the lock already speaks for this epoch
        claims = self._accepted.setdefault(seq, {})
        if claims.get(rid, -1) < epoch:
            claims[rid] = epoch

    def _set_lock(self, seq: int, epoch: int, rid: str, payload: bytes) -> None:
        """Keep the highest-epoch lock per slot; accepted claims at or
        below it say nothing more."""
        existing = self._locks.get(seq)
        if existing is not None and existing[0] >= epoch:
            return
        self._locks[seq] = (epoch, rid, payload)
        claims = self._accepted.get(seq)
        if claims is not None:
            for claimed in [r for r, e in claims.items() if e <= epoch]:
                del claims[claimed]
            if not claims:
                del self._accepted[seq]

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
        if msg.signer != sender:
            return  # the link names the voter; PREPAREs carry no signature
        if msg.seq == INSTALL_SEQ:
            self._on_install_vote(sender, msg)
            return
        if self._buffer_future(sender, msg, msg.epoch):
            return
        if msg.epoch != self.epoch or self.mode != MODE_FAST:
            return
        if not self._seq_in_window(msg.seq) or self._slot_retired(msg.seq):
            return
        if (msg.epoch, msg.seq) in self._commit_sent:
            # The slot is locked and our COMMIT is out: a PREPARE beyond
            # its n-t can change nothing, so it is shed like traffic for
            # a retired slot.
            self.stats["surplus_prepares"] += 1
            return
        if not self._admit_slot_digest(sender, msg.epoch, msg.seq, msg.digest):
            return
        pool = self._prepares.setdefault((msg.epoch, msg.seq, msg.digest), set())
        if sender in pool:
            return
        pool.add(sender)
        if len(pool) >= self.n - self.t:
            self._lock_slot(msg.epoch, msg.seq, msg.digest)

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

    def _lock_slot(self, epoch: int, seq: int, digest: bytes) -> None:
        """n-t PREPAREs for ``digest``: lock the slot once the ORDER's
        payload is here, and send our COMMIT."""
        known = self._payload_by_digest.get(digest)
        if known is None:
            return  # wait until the ORDER (payload) arrives
        self._set_lock(seq, epoch, known[0], known[1])
        if (epoch, seq) not in self._commit_sent:
            self._commit_sent.add((epoch, seq))
            commit = AbcCommit(epoch, seq, digest, self.me, b"")
            self._broadcast(commit)
            self._on_commit(self.me, commit)
            self._retire_if_done(epoch, seq)

    def _on_commit(self, sender: int, msg: AbcCommit) -> None:
        if msg.signer != sender:
            return
        if msg.seq == INSTALL_SEQ:
            self._on_install_vote(sender, msg)
            return
        if self._buffer_future(sender, msg, msg.epoch):
            return
        if msg.epoch != self.epoch or self.mode != MODE_FAST:
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
            self._advance_delivery()

    def _advance_delivery(self) -> None:
        delivered_from = self.next_deliver
        while True:
            seq = self.next_deliver
            digest = self._committed.get(seq)
            if digest is None:
                break
            known = self._payload_by_digest.get(digest)
            if known is None:
                break
            rid, payload = known
            self.next_deliver += 1
            self._deliver_once(seq, rid, payload, fast=True)
            self._retire_if_done(self.epoch, seq)
        # A slot delivered on foreign COMMITs whose lock never
        # completes here (a Byzantine signer withholding its PREPARE at
        # n > 3t+1) must not pin the watermark: once it trails delivery
        # by the window, it is retired without our COMMIT.
        while self.next_deliver - self._retired_below > MAX_SEQ_AHEAD:
            self.stats["out_of_window"] += 1
            self._retire(self.epoch, self._retired_below)
        self._arm_timer()
        if (
            self.next_deliver > delivered_from
            and self.mode == MODE_FAST
            and self.me == self.leader
        ):
            # The slot in flight delivered: order what queued up behind
            # it.  (An install orders its own backlog once the new
            # epoch's state is in place.)
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

    def _disarm_timer(self) -> None:
        if self._timer is not None:
            self._out.append(CancelTimer(self._timer))
            self._timer = None

    def _arm_timer(self) -> None:
        """(Re)arm the leader-suspicion timer while work is pending."""
        self._disarm_timer()
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
            # Far-future epochs only come from Byzantine senders.
            self.stats["complaints_out_of_window"] += 1
            return
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
        self._enter_recovery(int(sid.split("/", 1)[1]))

    def _enter_recovery(self, epoch: int) -> None:
        """Close ``epoch``: sign and send this replica's final.  From here
        on it neither locks nor COMMITs in any epoch <= ``epoch`` — a
        lock formed later would be missing from the final."""
        if epoch < self.epoch or epoch in self._final_sent:
            return
        self.mode = MODE_RECOVERY
        self.stats["epoch_changes"] += 1
        self._final_sent.add(epoch)
        self._disarm_timer()
        final = AbcEpochFinal(
            epoch=epoch,
            sender=self.me,
            locks=tuple(
                (seq, lock_epoch, rid, payload)
                for seq, (lock_epoch, rid, payload) in sorted(self._locks.items())
            ),
            accepted=tuple(
                (seq, claim_epoch, rid)
                for seq, claims in sorted(self._accepted.items())
                for rid, claim_epoch in sorted(claims.items())
            ),
            pending=tuple(sorted(self.pending.items())),
        )
        signed = (final, self.crypto.sign(_final_signing_input(final)))
        self._broadcast(signed)
        self._on_epoch_final(self.me, signed)
        self._arm_stall_timer(epoch)

    def _arm_stall_timer(self, epoch: int) -> None:
        """If the next leader stalls, complain about the next epoch."""
        if self._recovery_timer is not None:
            self._out.append(CancelTimer(self._recovery_timer))
        self._recovery_timer = ("abc", "stalled", epoch)
        self._out.append(SetTimer(self._recovery_timer, self.timeout * 2))

    def _recovery_stalled(self, epoch: int) -> None:
        """No fast path in an epoch past ``epoch`` yet: the next leader
        never sent a NEW_EPOCH, or its choice list never committed."""
        if self.epoch > epoch and self.mode == MODE_FAST:
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
        if final.epoch < self.epoch:
            return  # stale finals are useless
        if final.epoch > self.epoch + MAX_EPOCH_AHEAD:
            # Far-future finals only come from Byzantine senders.
            self.stats["finals_out_of_window"] += 1
            return
        pool = self._finals.setdefault(final.epoch, {})
        if sender in pool or final_claims(final) is None:
            return
        if not self.crypto.verify(sender, _final_signing_input(final), signature):
            return
        pool[sender] = (final, signature)  # signed tuple, forwarded in NEW_EPOCH
        next_epoch = final.epoch + 1
        if (
            len(pool) >= self.n - self.t
            and next_epoch % self.n == self.me
            and next_epoch not in self._new_epoch_done
            and next_epoch > self.epoch
        ):
            # Send only a decisive pool; until then keep collecting (a
            # pool with every honest final is decisive, DESIGN.md §5o).
            claims = [final_claims(f) for f, _sig in pool.values()]
            if self._decide([c for c in claims if c is not None]) is None:
                return
            self._new_epoch_done.add(next_epoch)
            new_epoch = AbcNewEpoch(epoch=next_epoch, finals=tuple(pool.values()))
            self._broadcast(new_epoch)
            self._on_new_epoch(self.me, new_epoch)

    def _decide(self, claims: List[_Claims]) -> Optional[Decision]:
        return decide(claims, self.n, self.t)

    def _on_new_epoch(self, sender: int, msg: AbcNewEpoch) -> None:
        """Accept a NEW_EPOCH: vote for its choice list in the install
        slot.  Nothing is delivered until that slot commits."""
        if msg.epoch <= self.epoch:
            return
        if sender != msg.epoch % self.n:
            return
        install = self._validate_new_epoch(msg)
        if install is None:
            return
        self.epoch = msg.epoch
        self.mode = MODE_RECOVERY
        self._install = install
        self._disarm_timer()  # a replica that missed the switch still had it
        if self._recovery_timer is None:  # ... and no stall timer yet
            self._arm_stall_timer(msg.epoch - 1)
        for seq in range(install.start_seq):
            self._accept(seq, msg.epoch, install.choice(seq)[0])
        prepare = AbcPrepare(msg.epoch, INSTALL_SEQ, install.digest, self.me)
        self._broadcast(prepare)
        self._on_prepare(self.me, prepare)
        # Install votes that arrived early; fast-path traffic of the new
        # epoch is buffered again until the install delivers.
        self._replay_buffered()

    def _validate_new_epoch(self, msg: AbcNewEpoch) -> Optional[_Install]:
        """Re-verify a NEW_EPOCH's signed finals and re-run the decision."""
        prev_epoch = msg.epoch - 1
        candidates: List[Tuple[AbcEpochFinal, bytes]] = []
        for item in msg.finals:
            if not (isinstance(item, tuple) and len(item) == 2):
                continue
            final, signature = item
            if not isinstance(final, AbcEpochFinal):
                continue
            if final.epoch != prev_epoch:
                continue
            if not 0 <= final.sender < self.n or final_claims(final) is None:
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
            return None
        claims = [final_claims(final) for final in valid_finals]
        decision = self._decide([c for c in claims if c is not None])
        if decision is None:
            self.stats["undecided_new_epochs"] += 1
            return None
        start_seq, chosen = decision
        # The fast path's delivery window bounds what an install opens.
        missing = [seq for seq in chosen if seq >= self.next_deliver]
        if len(missing) > MAX_SEQ_AHEAD or start_seq > self.next_deliver + MAX_SEQ_AHEAD:
            self.stats["out_of_window"] += 1
            return None
        if not self._consistent_with_log(decision):
            self.stats["conflicting_new_epochs"] += 1
            return None
        merged_pending: Dict[str, bytes] = {}
        for final in valid_finals:
            for rid, payload in final.pending:
                merged_pending.setdefault(rid, payload)
        return _Install(msg.epoch, decision, merged_pending)

    def _consistent_with_log(self, decision: Decision) -> bool:
        """The G1 tripwire: a decision never contradicts what this replica
        delivered (a different request at a delivered slot, a request at a
        slot it skipped, or a range ending below its watermark)."""
        start_seq, chosen = decision
        if start_seq < self.next_deliver:
            return False
        delivered_at = dict(self.delivered_log)
        for seq in range(self.next_deliver):
            rid = chosen.get(seq, _NULL)[0]
            logged = delivered_at.get(seq)
            if logged is not None:
                if rid != logged:
                    return False
            elif rid != NULL_RID and rid not in self.delivered_ids:
                return False  # skipped here (or a duplicate of nothing)
        return True

    def _on_install_vote(self, sender: int, msg: Union[AbcPrepare, AbcCommit]) -> None:
        """A PREPARE or COMMIT on a new epoch's choice list."""
        epoch = msg.epoch
        if epoch > self.epoch:
            self._buffer_future(sender, msg, epoch)
            return
        install = self._install
        if (
            install is None
            or install.epoch != epoch
            or epoch in self._final_sent  # closed: no lock or COMMIT now
            or not 0 <= sender < self.n
            or msg.digest != install.digest
        ):
            return
        if isinstance(msg, AbcPrepare):
            install.prepares.add(sender)
            if len(install.prepares) >= self.n - self.t and not install.locked:
                # n-t PREPAREs: lock every choice (nulls too) at this epoch.
                install.locked = True
                for seq in range(install.start_seq):
                    rid, payload = install.choice(seq)
                    self._set_lock(seq, epoch, rid, payload)
                commit = AbcCommit(epoch, INSTALL_SEQ, install.digest, self.me, b"")
                self._broadcast(commit)
                self._on_commit(self.me, commit)
        else:
            install.commits.add(sender)
            if len(install.commits) >= 2 * self.t + 1 and not install.delivered:
                install.delivered = True
                self._complete_install(install)

    def _complete_install(self, install: _Install) -> None:
        """2t+1 COMMITs on the choice list: deliver it, enter the epoch."""
        for seq in range(self.next_deliver, install.start_seq):
            rid, payload = install.choice(seq)
            if rid != NULL_RID:
                self._deliver_once(seq, rid, payload, fast=False)
        self.next_deliver = max(self.next_deliver, install.start_seq)
        # Everything below start_seq is delivered or skipped and all
        # fast-path vote state is keyed by an epoch that is over (traffic
        # for this one was only buffered), so the slot structures restart
        # empty behind the watermark; accepted claims below it and the
        # complaint and epoch-final pools of finished epochs go with them.
        self._ordered.clear()
        self._payload_by_digest.clear()
        self._prepared_digest.clear()
        self._prepares.clear()
        self._slot_digests.clear()
        self._slot_introducer.clear()
        self._commit_sent.clear()
        self._commits.clear()
        self._committed.clear()
        self._retired.clear()
        self._retired_below = self.next_deliver
        self._accepted = {
            seq: claims
            for seq, claims in self._accepted.items()
            if seq >= self.next_deliver
        }
        self._complaints = {
            e: v for e, v in self._complaints.items() if e >= install.epoch
        }
        self._finals = {e: v for e, v in self._finals.items() if e >= install.epoch}
        self.mode = MODE_FAST
        # Restart at the watermark, whatever this replica ordered in an
        # earlier leadership: slots nobody locked are below nobody's
        # watermark, so a surviving counter would order past a gap that is
        # never filled — and read as "slot in flight" forever.
        self._next_order_seq = self.next_deliver
        for rid, payload in install.pending.items():
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
