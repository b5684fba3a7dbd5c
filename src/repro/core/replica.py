"""One replica of the replicated name service: Wrapper + named (§4).

The replica glues together everything below it:

* the **atomic broadcast** endpoint that totally orders client requests
  (reads *and* writes, §3.3),
* the **DNS engine** (query processing and RFC 2136 updates) executing
  delivered requests deterministically,
* the **threshold signing coordinator** that computes SIG records for
  dynamic updates in the signed zone — sequentially, one record at a
  time, exactly as the modified named did (§4.2, §5.2),
* the **fault injector** that can make this replica behave as a
  corrupted server (§4.4).

Like named, request execution is serialized: while an update's signature
tasks are in flight, subsequently delivered requests wait in the
execution queue — this preserves the deterministic order across replicas.
"""

from __future__ import annotations

import hashlib
import struct
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.broadcast.abc import (
    AtomicBroadcast,
    AuthPlane,
    BatchQueue,
    derive_request_id,
)
from repro.broadcast.effects import CancelTimer, Deliver, Effect, Send, SetTimer, TimerId
from repro.broadcast.messages import (
    MAX_BATCH_NESTING,
    AbcNewEpoch,
    ClientRequest,
    ClientResponse,
    WrapperSigning,
    decode_batch,
    is_batch_payload,
)
from repro.config import ServiceConfig
from repro.core.faults import CorruptionMode, FaultInjector
from repro.core.keytool import Deployment
from repro.crypto.costmodel import CostModel
from repro.crypto.protocols import SigningCoordinator, SigningMessage
from repro.dns import constants as c
from repro.dns import dnssec
from repro.dns.dnssec import SigningPolicy, SigningTask
from repro.dns.message import Message, make_response
from repro.dns.server import AuthoritativeServer
from repro.dns.name import Name
from repro.dns.rdata import SIG
from repro.dns.tsig import TsigKeyring, verify_message
from repro.dns.update import UpdateProcessor, UpdateResult
from repro.dns.zone import Zone
from repro.errors import TsigError, WireFormatError, ZoneError
from repro.sim.network import SimNode
from repro.util.lru import BoundedLRU


#: Caps on the retry/answer caches.  Both are keyed by client-chosen input
#: (request-wire hash, query bytes), so without a bound a client flooding
#: distinct queries grows replica memory without limit; at the cap the
#: least-recently-used entry is evicted and counted.
MAX_RESPONSE_CACHE_ENTRIES = 4096
MAX_ANSWER_CACHE_ENTRIES = 4096

#: Session pipelining: the signing coordinator speculatively generates
#: shares for up to this many upcoming signing tasks while the current
#: session waits for its peers' shares.  (``SigningCoordinator(lookahead=0)`` disables pipelining.)
SIGNING_LOOKAHEAD = 2


def encode_request(client: int, wire: bytes) -> bytes:
    """ABC payload: the requesting client's node id plus the DNS wire."""
    return struct.pack(">I", client) + wire


def decode_request(payload: bytes) -> Tuple[int, bytes]:
    (client,) = struct.unpack_from(">I", payload, 0)
    return client, payload[4:]


def canonical_response_wire(wire: bytes) -> bytes:
    """The response wire with its message id zeroed.

    Identical queries differ only in their random DNS message id, and the
    id is echoed in the response header.  Threshold signatures over signed
    answers cover this id-less form so one distributed signing round can
    vouch for every future repetition of the same question.
    """
    return b"\x00\x00" + wire[2:]


@dataclass
class _PendingUpdate:
    """An update waiting for its threshold signatures.

    Sequential mode walks ``tasks`` one session at a time through
    ``index``; parallel mode (``parallel_update_signing``) opens every
    session up front and tracks per-task completion in ``attached``.
    """

    request_id: str
    client: int
    response_wire: bytes
    tasks: List[SigningTask]
    index: int = 0
    wire_hash: bytes = b""
    parallel: bool = False
    attached: Set[int] = field(default_factory=set)

    @property
    def current(self) -> SigningTask:
        return self.tasks[self.index]

    @property
    def finished(self) -> bool:
        if self.parallel:
            return len(self.attached) >= len(self.tasks)
        return self.index >= len(self.tasks)


@dataclass
class _CachedAnswer:
    """One signed-answer cache entry plus its invalidation metadata.

    ``owner_names`` holds every owner name appearing in the cached
    response (question, answers, authority, additionals — CNAME chains and
    referrals drag other names into a response); an update touching a
    related name invalidates the entry.  ``volatile`` marks entries whose
    correctness depends on the zone as a whole (negative answers, and
    responses carrying SOA or NXT records, both of which change on *any*
    data-changing update); those drop on every update.
    """

    wire: bytes           # canonical (id-zeroed) response wire
    signature: bytes      # threshold signature over ``wire`` (A3) or b""
    owner_names: frozenset
    volatile: bool


@dataclass
class _PendingSignedRead:
    """A read whose *response* is being threshold-signed (ablation A3).

    The signature covers :func:`canonical_response_wire`, so the completed
    (wire, signature) pair is cacheable under ``cache_key`` for every later
    repetition of the same question at the same zone serial.
    """

    request_id: str
    client: int
    response_wire: bytes
    task: SigningTask
    cache_key: Optional[Tuple[bytes, int]] = None
    owner_names: frozenset = frozenset()
    volatile: bool = True


class ReplicaServer:
    """One authoritative server of the replicated zone."""

    def __init__(
        self,
        index: int,
        deployment: Deployment,
        zone: Zone,
        node: SimNode,
        costs: Optional[CostModel] = None,
        signing_policy: Optional[SigningPolicy] = None,
        seed: int = 0,
        signers: Optional[int] = None,
    ) -> None:
        self.index = index
        self.deployment = deployment
        self.config: ServiceConfig = deployment.config
        self.zone = zone
        self.node = node
        self.costs = costs if costs is not None else CostModel()
        self.policy = signing_policy if signing_policy is not None else SigningPolicy()
        self._seed = seed

        self.server = AuthoritativeServer(zone)
        self.processor = UpdateProcessor(zone)
        self.keyring = TsigKeyring()
        self.keyring.add(deployment.tsig_key)
        self.fault = FaultInjector(
            modulus=deployment.zone_public.modulus,
            seed=FaultInjector.derive_seed(seed, index),
        )
        self._stale_zone = zone.copy()
        self._stale_server = AuthoritativeServer(self._stale_zone)

        keys = deployment.replicas[index]
        # Threshold signing: ``signers`` replicas (default t+1) sign each
        # session at start; a session still unsigned after abc_timeout
        # makes everyone sign (SigningCoordinator.on_timeout).
        self._signers = signers
        # Every live timer of this replica, by id (repro.broadcast.effects):
        # the broadcast plane's and the signing sessions' alike.
        self._timers: Dict[TimerId, object] = {}
        self.coordinator = SigningCoordinator(
            self.config.signing_protocol,
            keys.zone_share,
            lookahead=SIGNING_LOOKAHEAD,
            signers=signers,
        )
        if self.config.replicated:
            self.abc: Optional[AtomicBroadcast] = AtomicBroadcast(
                n=self.config.n,
                t=self.config.t,
                me=index,
                auth_key=keys.auth_key.private,
                auth_public=list(deployment.auth_public),
                coin_key=keys.coin_share,
                timeout=self.config.abc_timeout,
                crypto=AuthPlane(keys.auth_key.private, list(deployment.auth_public)),
            )
        else:
            self.abc = None

        if self.abc is not None and self.config.batch_size > 1:
            self.batch_queue: Optional[BatchQueue] = BatchQueue(
                max_batch=self.config.batch_size,
                max_delay=self.config.batch_delay,
            )
        else:
            self.batch_queue = None

        self._exec_queue: Deque[Tuple[str, int, bytes]] = deque()
        self._busy = False
        self._pending_update: Optional[_PendingUpdate] = None
        self._pending_read: Optional[_PendingSignedRead] = None
        # Responses already produced, keyed by request-wire hash.  Clients
        # retry by resending the same message (§3.4); the atomic broadcast
        # deduplicates it, so replicas must replay the cached response.
        # Hits refresh recency, so entries clients are actively retrying
        # survive a flood of one-shot queries.
        self._response_cache: BoundedLRU[bytes, bytes] = BoundedLRU(
            MAX_RESPONSE_CACHE_ENTRIES
        )
        # Requests already executed, by payload-derived id.  Atomic
        # broadcast deduplicates identical *payloads*, but with batching
        # the same request can ride in two differently-framed batches
        # (e.g. via two gateways), so execution dedupes again here —
        # deterministically, since all honest replicas see the same
        # delivery order.
        self._executed_rids: Set[str] = set()
        # The executed request sequence (for determinism checks): every
        # honest replica must log the identical list.
        self.delivered_requests: List[str] = []
        # Signed-answer cache: (query wire minus its id, zone serial) ->
        # entry, so a hit parses nothing.  The serial is part of the key, so
        # a data-changing update makes every old entry unreachable; per-name
        # invalidation then *re-keys* entries unrelated to the update to the
        # new serial (keeping hot answers alive) and drops the affected and
        # volatile ones.
        self._answer_cache: BoundedLRU[Tuple[bytes, int], _CachedAnswer] = (
            BoundedLRU(MAX_ANSWER_CACHE_ENTRIES)
        )

        # Statistics for benchmarks.
        self.stats: Dict[str, int] = {
            "queries": 0,
            "updates": 0,
            "signatures_completed": 0,
            "tsig_failures": 0,
            "batches_delivered": 0,
            "batched_requests": 0,
            "answer_cache_hits": 0,
            "answer_cache_misses": 0,
            "answer_cache_invalidated": 0,
            "answer_cache_retained": 0,
        }

        node.set_handler(self.on_message)

    @property
    def signing_rounds(self) -> int:
        """Distributed signing rounds this replica has started (for benches)."""
        return self.coordinator.rounds_started

    # ------------------------------------------------------------------
    # corruption control
    # ------------------------------------------------------------------

    def corrupt(self, mode: CorruptionMode) -> None:
        """Turn this replica into a corrupted server (§4.4)."""
        from repro.core.faults import tampered_zone_share

        self.fault.mode = mode
        # Restart the misbehaviour stream from the scenario-derived seed so
        # corruption at any point in a run replays identically.
        self.fault.reseed(self._seed, self.index)
        if mode is CorruptionMode.CRASH:
            self.node.dropped = True
        if self.abc is not None and mode in (
            CorruptionMode.EQUIVOCATE, CorruptionMode.EQUIVOCATE_MINORITY
        ):
            self.fault.arm_lies(self.config.n, self.config.t, self.abc.crypto.sign)
        if mode is CorruptionMode.BAD_SHARES:
            bad = tampered_zone_share(
                self.deployment.replicas[self.index].zone_share
            )
            self.coordinator = SigningCoordinator(
                self.config.signing_protocol,
                bad,
                signers=self._signers,
            )

    # ------------------------------------------------------------------
    # message dispatch
    # ------------------------------------------------------------------

    def on_message(self, sender: int, msg: object) -> None:
        self.node.charge(self.costs.message_handling)
        if isinstance(msg, ClientRequest):
            self._on_client_request(sender, msg)
        elif isinstance(msg, WrapperSigning):
            self._on_signing_message(sender, msg)
        else:
            self._on_abc_message(sender, msg)

    def _on_client_request(self, client: int, msg: ClientRequest) -> None:
        """Gateway role: accept a client request and disseminate it (§3.4)."""
        wire_hash = hashlib.sha256(msg.wire).digest()
        cached = self._response_cache.get(wire_hash)
        if cached is not None:
            self._send(
                client,
                ClientResponse(
                    request_id=msg.request_id, wire=cached, replica=self.index
                ),
            )
            return
        opcode = self._peek_opcode(msg.wire)
        if opcode is None:
            self._respond_error(client, msg.wire, c.RCODE_FORMERR)
            return
        if self.abc is None:
            # Unreplicated base case: execute directly (the (1,0) row).
            self._execute(msg.request_id, client, msg.wire)
            return
        if opcode == c.OPCODE_QUERY and not self.config.reads_via_abc:
            # Rarely-updated-zone mode (§3.4 last ¶): serve reads locally.
            self._execute(msg.request_id, client, msg.wire)
            return
        payload = encode_request(client, msg.wire)
        if (
            opcode == c.OPCODE_QUERY
            and derive_request_id(payload) in self._executed_rids
        ):
            # Retry of an already-delivered query whose cached response was
            # evicted.  Re-broadcasting cannot answer it — the broadcast
            # layer deduplicates the request id — so the retry would go
            # silent forever.  Queries are idempotent reads: re-execute
            # against the current zone instead.  Never while _busy: a
            # delivered rid may still be queued behind an in-flight
            # signing round, during which the zone's SIGs are incomplete
            # and serving them would violate G3 — staying silent lets the
            # client's next retry land after the queue drains.
            if not self._busy:
                self._execute(msg.request_id, client, msg.wire)
            return
        if self.batch_queue is not None:
            # Bounded: BatchQueue flushes itself at max_batch entries.
            # repro-lint: disable=C304
            self.batch_queue.append(payload)
            self._apply(self.batch_queue.take(), self._broadcast_batch)
        else:
            self._apply(self.abc.a_broadcast(payload), self._on_deliver)

    def _broadcast_batch(self, flushed: Deliver) -> None:
        """Order a flushed batch in one atomic-broadcast sequence slot."""
        assert self.abc is not None
        self._apply(self.abc.a_broadcast(flushed.payload), self._on_deliver)

    def _on_signing_message(self, sender: int, msg: WrapperSigning) -> None:
        outs = self.coordinator.on_message(sender, msg.inner)
        self.node.charge_ops(self.coordinator.drain_ops(), self.costs)
        self._send_signing(outs)
        self._check_signing_progress()

    def _on_abc_message(self, sender: int, msg: object) -> None:
        if self.abc is None:
            return
        # Charge the broadcast layer's authentication work: nothing per
        # slot (PREPAREs are unsigned), one verification per signed
        # EPOCH_FINAL received or re-checked in a NEW_EPOCH, one
        # signature per final this replica sends.
        if isinstance(msg, tuple):
            self.node.charge(self.costs.auth_verify)
        elif isinstance(msg, AbcNewEpoch):
            self.node.charge(self.costs.auth_verify * len(msg.finals))
        epoch_changes = self.abc.stats["epoch_changes"]
        effects = self.abc.on_message(sender, msg)
        if self.abc.stats["epoch_changes"] > epoch_changes:
            self.node.charge(self.costs.auth_sign)
        self._apply(effects, self._on_deliver)

    # ------------------------------------------------------------------
    # effects and timers (repro.broadcast.effects)
    # ------------------------------------------------------------------

    def _apply(self, effects: List[Effect], deliver: Callable[[Deliver], None]) -> None:
        """Carry out a core's effects strictly in the order produced;
        ``deliver`` takes its :class:`Deliver` items."""
        for effect in effects:
            if isinstance(effect, Send):
                self._send(effect.dest, effect.msg)
            elif isinstance(effect, Deliver):
                deliver(effect)
            elif isinstance(effect, SetTimer):
                self._set_timer(effect.timer_id, effect.delay)
            else:
                self._cancel_timer(effect.timer_id)

    def _set_timer(self, timer_id: TimerId, delay: float) -> None:
        if timer_id in self._timers:  # re-armed: the new deadline replaces it
            self._cancel_timer(timer_id)
        self._timers[timer_id] = self.node.schedule_timer(
            delay, lambda: self._on_timer(timer_id)
        )

    def _cancel_timer(self, timer_id: TimerId) -> None:
        handle = self._timers.pop(timer_id, None)
        if handle is not None:
            handle.cancel()  # type: ignore[attr-defined]

    def _on_timer(self, timer_id: TimerId) -> None:
        self._timers.pop(timer_id, None)
        owner = timer_id[0]
        if owner == "sign":
            outs = self.coordinator.on_timeout(timer_id[2])  # type: ignore[arg-type]
            self.node.charge_ops(self.coordinator.drain_ops(), self.costs)
            self._send_signing(outs)
            self._check_signing_progress()
        elif owner == "batch":
            assert self.batch_queue is not None
            self.batch_queue.on_timer(timer_id)
            self._apply(self.batch_queue.take(), self._broadcast_batch)
        else:
            assert self.abc is not None
            self._apply(self.abc.on_timer(timer_id), self._on_deliver)

    # ------------------------------------------------------------------
    # execution (the deterministic state machine)
    # ------------------------------------------------------------------

    def _flatten_batches(self, payload: bytes, depth: int = 0) -> List[bytes]:
        """Unwrap (possibly nested) batch frames into request payloads.

        A new leader re-batches whole pending payloads on epoch change —
        including gateway batch frames — so delivered batches may nest.
        Nesting is capped at MAX_BATCH_NESTING; a deeper (necessarily
        Byzantine) frame is dropped whole, identically on every replica.
        """
        if not is_batch_payload(payload):
            return [payload]
        if depth >= MAX_BATCH_NESTING:
            return []
        entries = decode_batch(payload)
        self.stats["batches_delivered"] += 1
        self.stats["batched_requests"] += len(entries)
        flat: List[bytes] = []
        for entry in entries:
            flat.extend(self._flatten_batches(entry, depth + 1))
        return flat

    def _on_deliver(self, delivered: Deliver) -> None:
        entry_ids = delivered.entry_ids
        for entry in self._flatten_batches(delivered.payload):
            # Batch entries execute in frame order, and every request
            # executes at most once system-wide: sub-request ids are
            # payload-derived, so all honest replicas skip the same
            # duplicates and the state machine stays deterministic.
            # Delivery already hashed every entry; reuse that id object.
            sub_rid = entry_ids.get(entry) or derive_request_id(entry)
            if sub_rid in self._executed_rids:
                continue
            if len(entry) < 4:
                continue  # malformed entry from a Byzantine gateway
            self._executed_rids.add(sub_rid)
            self.delivered_requests.append(sub_rid)
            client, wire = decode_request(entry)
            self._exec_queue.append((sub_rid, client, wire))
        self._drain_exec_queue()

    def _drain_exec_queue(self) -> None:
        while not self._busy and self._exec_queue:
            rid, client, wire = self._exec_queue.popleft()
            self._execute(rid, client, wire)

    def _execute(self, rid: str, client: int, wire: bytes) -> None:
        opcode = self._peek_opcode(wire)
        if opcode == c.OPCODE_UPDATE:
            self.node.charge(self.costs.dns_processing)
            self._execute_update(rid, client, wire)
        else:
            # Queries charge inside _execute_query: an answer-cache hit
            # skips full request processing and pays the cheap lookup cost.
            self._execute_query(rid, client, wire)

    def _answer_cache_key(self, wire: bytes) -> Optional[Tuple[bytes, int]]:
        """Cache key ``(query wire after the 2-byte id, zone serial)``.

        Everything but the random message id is part of the key, so two
        queries that differ in flags, class or the case of the name get
        their own entries, and a hit needs no parse.
        """
        if not self.config.answer_cache:
            return None
        if self.fault.mode is CorruptionMode.STALE_READS:
            return None  # the stale server must not touch the cache
        try:
            serial = self.zone.serial
        except ZoneError:
            return None
        return wire[2:], serial

    def _execute_query(self, rid: str, client: int, wire: bytes) -> None:
        self.stats["queries"] += 1
        cache_key = self._answer_cache_key(wire)
        if cache_key is not None:
            hit = self._answer_cache.get(cache_key)
            if hit is not None:
                # Fast path: splice the query's message id into the cached
                # wire; with sign_every_response the cached threshold
                # signature (over the id-less canonical wire) rides along,
                # so no distributed signing round runs at all.
                self.stats["answer_cache_hits"] += 1
                self.node.charge(self.costs.answer_cache_hit)
                response_wire = wire[:2] + hit.wire[2:]
                self._response_cache.put(hashlib.sha256(wire).digest(), response_wire)
                self._respond(rid, client, response_wire, threshold_sig=hit.signature)
                return
        try:
            query = Message.from_wire(wire)
        except WireFormatError:
            self.node.charge(self.costs.dns_processing)
            self._respond_error(client, wire, c.RCODE_FORMERR)
            return
        if len(query.questions) != 1:
            cache_key = None
        if cache_key is not None:
            self.stats["answer_cache_misses"] += 1
        self.node.charge(self.costs.dns_processing)
        if self.fault.mode is CorruptionMode.STALE_READS:
            response = self._stale_server.handle_query(query)
        else:
            response = self.server.handle_query(query)
        owner_names, volatile = self._answer_meta(response)
        response_wire = response.to_wire()
        self._response_cache.put(hashlib.sha256(wire).digest(), response_wire)
        if self.config.sign_every_response:
            self._start_response_signing(
                rid, client, response_wire, cache_key, owner_names, volatile
            )
            return
        if cache_key is not None:
            self._answer_cache.put(cache_key, _CachedAnswer(
                wire=canonical_response_wire(response_wire),
                signature=b"",
                owner_names=owner_names,
                volatile=volatile,
            ))
        self._respond(rid, client, response_wire)

    @staticmethod
    def _answer_meta(response: Message) -> Tuple[frozenset, bool]:
        """Invalidation metadata for a response about to be cached."""
        rrs = (*response.answers, *response.authority, *response.additional)
        names = {rr.name for rr in rrs}
        names.update(q.name for q in response.questions)
        volatile = response.rcode != c.RCODE_NOERROR or any(
            rr.rtype in (c.TYPE_SOA, c.TYPE_NXT)
            or (
                # a SIG query returns SIG(NXT)/SIG(SOA) without the data
                isinstance(rr.rdata, SIG)
                and rr.rdata.type_covered in (c.TYPE_SOA, c.TYPE_NXT)
            )
            for rr in rrs
        )
        return frozenset(names), volatile

    def _invalidate_answer_cache(self, result: UpdateResult) -> None:
        """Per-name invalidation after a data-changing update.

        Drops entries whose owner names are related (equal, ancestor, or
        descendant — delegation and subtree deletes change answers above
        and below the touched name) to any name the update affected, plus
        all volatile entries; every surviving entry is re-keyed to the new
        zone serial so it keeps hitting.
        """
        if not self._answer_cache:
            return
        affected = (
            result.changed_names | result.added_names | result.deleted_names
        )
        try:
            new_serial = self.zone.serial
        except ZoneError:
            self._answer_cache.clear()
            return
        survivors: List[Tuple[Tuple[bytes, int], _CachedAnswer]] = []
        for (query_tail, _serial), entry in self._answer_cache.items():
            if entry.volatile or self._names_related(entry.owner_names, affected):
                self.stats["answer_cache_invalidated"] += 1
                continue
            survivors.append(((query_tail, new_serial), entry))
            self.stats["answer_cache_retained"] += 1
        self._answer_cache.clear()
        for key, entry in survivors:
            self._answer_cache.put(key, entry)

    @staticmethod
    def _names_related(owner_names: frozenset, affected: Set[Name]) -> bool:
        for name in owner_names:
            for changed in affected:
                if not isinstance(name, Name) or not isinstance(changed, Name):
                    return True  # unknown name kinds: be conservative
                if name.is_subdomain_of(changed) or changed.is_subdomain_of(name):
                    return True
        return False

    def _execute_update(self, rid: str, client: int, wire: bytes) -> None:
        self.stats["updates"] += 1
        update: Optional[Message] = None
        if self.config.require_tsig:
            try:
                update, _ = verify_message(wire, self.keyring, now=None)
            except TsigError:
                self.stats["tsig_failures"] += 1
                self._respond_error(client, wire, c.RCODE_REFUSED)
                return
        if update is None:
            try:
                update = Message.from_wire(wire)
            except WireFormatError:
                self._respond_error(client, wire, c.RCODE_FORMERR)
                return
        response, result = self.processor.respond(update)
        if result.ok and result.data_changed:
            # The update bumped the zone serial: old-serial keys are
            # unreachable, so invalidate affected entries and re-key the
            # unrelated survivors to keep hot answers alive.
            self._invalidate_answer_cache(result)
        response_wire = response.to_wire()
        wire_hash = hashlib.sha256(wire).digest()
        if not (self.config.signed_zone and result.ok and result.data_changed):
            self._response_cache.put(wire_hash, response_wire)
            self._respond(rid, client, response_wire)
            return
        if self.config.resign_whole_zone:
            # Baseline ablation for the write benchmarks: re-derive and
            # re-sign every RRset of the zone after each update (the
            # pre-incremental write path).
            tasks = dnssec.signing_tasks_for_zone(
                self.zone, self.deployment.zone_key_record, self.policy
            )
        else:
            tasks = dnssec.signing_tasks_for_update(
                self.zone, result, self.deployment.zone_key_record, self.policy
            )
        if not tasks:
            self._response_cache.put(wire_hash, response_wire)
            self._respond(rid, client, response_wire)
            return
        self._busy = True
        parallel = self.config.parallel_update_signing and self.abc is not None
        self._pending_update = _PendingUpdate(
            request_id=rid,
            client=client,
            response_wire=response_wire,
            tasks=tasks,
            wire_hash=wire_hash,
            parallel=parallel,
        )
        if parallel:
            self._start_all_tasks()
        else:
            self._start_current_task()

    # ------------------------------------------------------------------
    # threshold signing orchestration
    # ------------------------------------------------------------------

    def _start_current_task(self) -> None:
        assert self._pending_update is not None
        if self.abc is None:
            # Unreplicated base case: named signs locally with its own
            # key, like unmodified BIND (4 SIGs per add, 2 per delete —
            # the (1,0) row of Table 2).
            pending = self._pending_update
            self._pending_update = None
            self._busy = False
            keys = self.deployment.replicas[self.index].zone_share
            for task in pending.tasks:
                share = keys.generate_share(task.data)
                signature = keys.public.assemble(task.data, [share])
                self.node.charge(self.costs.local_sign)
                # The signature was produced just above from our own key
                # share over update data that already passed TSIG + policy
                # checks; there is nothing remote left to verify.
                # repro-lint: disable=T405
                dnssec.attach_signature(self.zone, task, signature)
                self.stats["signatures_completed"] += 1
            self._respond(pending.request_id, pending.client, pending.response_wire)
            self._drain_exec_queue()
            return
        pending = self._pending_update
        task = pending.current
        outs = self.coordinator.sign(task.sign_id, task.data)
        self._arm_sign_timer(task.sign_id)
        # Session pipelining: while this session verifies and assembles,
        # speculatively generate our shares for the next few SIG tasks of
        # the same update (bounded in-flight; refusals just fall back to
        # on-demand generation when the session starts).
        if self.coordinator.lookahead > 0:
            upcoming = pending.tasks[
                pending.index + 1 : pending.index + 1 + self.coordinator.lookahead
            ]
            for nxt in upcoming:
                self.coordinator.prefetch(nxt.sign_id, nxt.data)
        self.node.charge_ops(self.coordinator.drain_ops(), self.costs)
        self._send_signing(outs)
        self._check_signing_progress()

    def _start_all_tasks(self) -> None:
        """Write-path fan-out: open every signing session of the update.

        The coordinator multiplexes concurrent sessions (peers buffer
        shares for sessions they have not reached yet).  Session order is
        the deterministic task order, so transcripts still match across
        replicas.
        """
        pending = self._pending_update
        assert pending is not None
        for task in pending.tasks:
            outs = self.coordinator.sign(task.sign_id, task.data)
            self._arm_sign_timer(task.sign_id)
            self.node.charge_ops(self.coordinator.drain_ops(), self.costs)
            self._send_signing(outs)
        self._check_signing_progress()

    def _start_response_signing(
        self,
        rid: str,
        client: int,
        response_wire: bytes,
        cache_key: Optional[Tuple[bytes, int]] = None,
        owner_names: frozenset = frozenset(),
        volatile: bool = True,
    ) -> None:
        """Ablation A3: threshold-sign the response itself.

        The signature covers the canonical (id-zeroed) wire, so the session
        id — and therefore the whole distributed signing round — is shared
        by every repetition of the same question at this zone serial.
        """
        canonical = canonical_response_wire(response_wire)
        sign_id = "resp-" + hashlib.sha256(canonical).hexdigest()[:24]
        task = SigningTask(
            sign_id=sign_id,
            name=self.zone.origin,
            rtype=0,
            data=canonical,
            template=None,  # type: ignore[arg-type]
            ttl=0,
        )
        self._busy = True
        self._pending_read = _PendingSignedRead(
            request_id=rid,
            client=client,
            response_wire=response_wire,
            task=task,
            cache_key=cache_key,
            owner_names=owner_names,
            volatile=volatile,
        )
        outs = self.coordinator.sign(sign_id, canonical)
        self._arm_sign_timer(sign_id)
        self.node.charge_ops(self.coordinator.drain_ops(), self.costs)
        self._send_signing(outs)
        self._check_signing_progress()

    def _arm_sign_timer(self, sign_id: str) -> None:
        """Arm the session timer of a session that is still unsigned.

        With ``signers == n`` everyone signs at start and no timer runs.
        """
        coordinator = self.coordinator
        if coordinator.all_sign or sign_id not in coordinator.sessions:
            return
        timer_id = ("sign", "timeout", sign_id)
        if timer_id not in self._timers:
            self._set_timer(timer_id, self.config.abc_timeout)

    def _finish_pending_update(self) -> None:
        done = self._pending_update
        assert done is not None
        self._pending_update = None
        self._busy = False
        if done.wire_hash:
            self._response_cache.put(done.wire_hash, done.response_wire)
        self._respond(done.request_id, done.client, done.response_wire)
        self._drain_exec_queue()

    def _check_signing_progress(self) -> None:
        progressed = True
        while progressed:
            progressed = False
            if self._pending_update is not None and self._pending_update.parallel:
                pending = self._pending_update
                for i, task in enumerate(pending.tasks):
                    if i in pending.attached:
                        continue
                    signature = self.coordinator.result(task.sign_id)
                    if signature is None:
                        continue
                    # Verified exactly as in the sequential branch below.
                    # repro-lint: disable=T405
                    dnssec.attach_signature(self.zone, task, signature)
                    self._cancel_timer(("sign", "timeout", task.sign_id))
                    self.stats["signatures_completed"] += 1
                    pending.attached.add(i)
                if pending.finished:
                    self._finish_pending_update()
            elif self._pending_update is not None:
                task = self._pending_update.current
                signature = self.coordinator.result(task.sign_id)
                if signature is not None:
                    # coordinator.result only exposes assembled signatures
                    # after the signing protocol verified them against the
                    # zone public key (shares proof-checked or the OptTE
                    # assemble-then-verify path, §3.5).
                    # repro-lint: disable=T405
                    dnssec.attach_signature(self.zone, task, signature)
                    self._cancel_timer(("sign", "timeout", task.sign_id))
                    self.stats["signatures_completed"] += 1
                    self._pending_update.index += 1
                    if self._pending_update.finished:
                        self._finish_pending_update()
                    else:
                        self._start_current_task()
                        progressed = False  # _start_current_task loops itself
            elif self._pending_read is not None:
                signature = self.coordinator.result(self._pending_read.task.sign_id)
                if signature is not None:
                    done = self._pending_read
                    self._pending_read = None
                    self._busy = False
                    self._cancel_timer(("sign", "timeout", done.task.sign_id))
                    self.stats["signatures_completed"] += 1
                    if done.cache_key is not None:
                        self._answer_cache.put(done.cache_key, _CachedAnswer(
                            wire=canonical_response_wire(done.response_wire),
                            signature=signature,
                            owner_names=done.owner_names,
                            volatile=done.volatile,
                        ))
                    self._respond(
                        done.request_id,
                        done.client,
                        done.response_wire,
                        threshold_sig=signature,
                    )
                    self._drain_exec_queue()

    # ------------------------------------------------------------------
    # outgoing plumbing
    # ------------------------------------------------------------------

    def _send_signing(self, outs: List[Tuple[int, SigningMessage]]) -> None:
        for dest, inner in outs:
            envelope = WrapperSigning(inner)
            if dest == -1:  # broadcast to all other replicas
                for peer in range(self.config.n):
                    if peer != self.index:
                        self._send(peer, envelope)
            else:
                self._send(dest, envelope)

    def _send(self, dest: int, msg: object) -> None:
        transformed = self.fault.transform_outgoing(msg, dest)
        if transformed is None:
            return
        self.node.send(dest, transformed)

    def _respond(
        self, rid: str, client: int, wire: bytes, threshold_sig: bytes = b""
    ) -> None:
        # Clients correlate responses by the DNS message id inside the
        # wire (as dig/nsupdate do); the request_id is informational.
        if threshold_sig:
            response: ClientResponse = _SignedClientResponse(
                request_id=rid, wire=wire, replica=self.index, signature=threshold_sig
            )
        else:
            response = ClientResponse(request_id=rid, wire=wire, replica=self.index)
        self._send(client, response)

    def _respond_error(self, client: int, wire: bytes, rcode: int) -> None:
        try:
            query = Message.from_wire(wire)
            response = make_response(query, rcode)
            response_wire = response.to_wire()
        except WireFormatError:
            response_wire = b""
        rid = hashlib.sha256(wire).hexdigest()[:32]
        self._send(
            client,
            ClientResponse(request_id=rid, wire=response_wire, replica=self.index),
        )

    @staticmethod
    def _peek_opcode(wire: bytes) -> Optional[int]:
        if len(wire) < 12:
            return None
        return (struct.unpack_from(">H", wire, 2)[0] >> 11) & 0xF


@dataclass(frozen=True)
class _SignedClientResponse(ClientResponse):
    """Response carrying a threshold signature (ablation A3 only)."""

    signature: bytes = b""
