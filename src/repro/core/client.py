"""Clients of the replicated name service.

Two models from the paper:

* :class:`PragmaticClient` (§3.4) — an *unmodified* DNS client: sends each
  request to a single server (the gateway), accepts the response arriving
  from that server, optionally verifies the zone signatures on the data,
  and on timeout retries the next server in round-robin order (this is
  what gives the stronger practical liveness the paper notes).
* :class:`FullClient` (§3.3) — the modified client: sends every request
  to *all* replicas, collects ``n - t`` responses, and accepts the
  majority value, achieving full G1/G2.

Both issue real DNS wire messages (built by the dig/nsupdate-style
helpers) and correlate responses by DNS message id, like real resolvers.
"""

from __future__ import annotations

import random
import secrets
from collections import deque
from dataclasses import dataclass, field, replace
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.broadcast.messages import ClientRequest, ClientResponse
from repro.config import ServiceConfig
from repro.crypto.costmodel import CostModel
from repro.crypto.protocols import OP_VERIFY_SIGNATURE
from repro.crypto.rsa import RsaPublicKey
from repro.dns import constants as c
from repro.dns import dnssec
from repro.dns.message import Message, RR, make_query, make_update, rrs_to_rrsets
from repro.dns.name import Name
from repro.dns.rdata import KEY, Rdata, SIG
from repro.dns.tsig import TsigKey, sign_message
from repro.errors import DnssecError, InvalidSignature, WireFormatError

Callback = Callable[["CompletedOp"], None]

#: Length of the per-client history of finished operations.  The history
#: is for inspection (latencies, retries of recent ops); the callback is
#: the interface that hands out responses, so a long-running client's
#: memory follows its requests in flight, not its requests ever made.
MAX_COMPLETED_HISTORY = 4096


@dataclass
class CompletedOp:
    """Outcome of one client operation."""

    kind: str                 # "read" / "add" / "delete" / "update"
    msg_id: int
    response: Optional[Message]
    latency: float            # simulated seconds from issue to acceptance
    accepted_from: int        # replica id the accepted response came from
    verified: bool = False    # zone-signature verification result (reads)
    retries: int = 0


@dataclass
class _InFlight:
    kind: str
    wire: bytes
    issued_at: float
    callback: Callback
    target: int                  # replica we are currently waiting on
    retries: int = 0
    timer: Optional[object] = None
    responses: Dict[int, bytes] = field(default_factory=dict)  # full client


class _ClientBase:
    """Shared machinery: building, sending, and tracking DNS requests."""

    def __init__(
        self,
        node,
        config: ServiceConfig,
        replica_ids: List[int],
        zone_origin: Name,
        zone_key: Optional[KEY] = None,
        tsig_key: Optional[TsigKey] = None,
        costs: Optional[CostModel] = None,
        verify_signatures: bool = True,
        id_rng: Optional[random.Random] = None,
    ) -> None:
        self.node = node
        self.config = config
        self.replica_ids = list(replica_ids)
        self.zone_origin = zone_origin
        self.zone_key = zone_key
        self.tsig_key = tsig_key
        self.costs = costs if costs is not None else CostModel()
        self.verify_signatures = verify_signatures
        # DNS message ids are random per RFC practice; a seeded RNG makes
        # them — and everything downstream that hashes the request wire —
        # replayable, which the chaos harness's transcript contract needs.
        self._id_rng = id_rng
        self._inflight: Dict[int, _InFlight] = {}
        self._tsig_clock = 1_000_000
        # Recent operations, oldest evicted, stored without their parsed
        # response; ``stats`` counts every operation exactly.
        self.completed: Deque[CompletedOp] = deque(maxlen=MAX_COMPLETED_HISTORY)
        self.stats: Dict[str, int] = {"completed": 0, "retries": 0}
        node.set_handler(self._on_message)

    # -- request builders -------------------------------------------------------

    def _fresh_id(self) -> int:
        while True:
            if self._id_rng is not None:
                msg_id = self._id_rng.randrange(0x10000)
            else:
                msg_id = secrets.randbelow(0x10000)
            if msg_id not in self._inflight:
                return msg_id

    def build_query_wire(self, name: Name, rtype: int) -> Tuple[int, bytes]:
        query = make_query(name, rtype, msg_id=self._fresh_id())
        return query.msg_id, query.to_wire()

    def build_update_wire(self, updates: List[RR], prerequisites: Optional[List[RR]] = None) -> Tuple[int, bytes]:
        update = make_update(self.zone_origin, msg_id=self._fresh_id())
        if prerequisites:
            update.answers.extend(prerequisites)
        update.authority.extend(updates)
        if self.tsig_key is not None:
            self._tsig_clock += 1
            wire = sign_message(update, self.tsig_key, time_signed=self._tsig_clock)
        else:
            wire = update.to_wire()
        return update.msg_id, wire

    # -- public operations ----------------------------------------------------------

    def query(self, name: Name, rtype: int, callback: Callback) -> int:
        """dig-style read request."""
        msg_id, wire = self.build_query_wire(name, rtype)
        self._issue("read", msg_id, wire, callback)
        return msg_id

    def add_record(
        self,
        name: Name,
        rtype: int,
        ttl: int,
        rdata: Rdata,
        callback: Callback,
    ) -> int:
        """nsupdate-style add of a single record."""
        rr = RR(name, rtype, c.CLASS_IN, ttl, rdata)
        msg_id, wire = self.build_update_wire([rr])
        self._issue("add", msg_id, wire, callback)
        return msg_id

    def delete_record(
        self, name: Name, rtype: int, rdata: Rdata, callback: Callback
    ) -> int:
        rr = RR(name, rtype, c.CLASS_NONE, 0, rdata)
        msg_id, wire = self.build_update_wire([rr])
        self._issue("delete", msg_id, wire, callback)
        return msg_id

    def delete_name(self, name: Name, callback: Callback) -> int:
        """nsupdate-style delete of all records at a name."""
        rr = RR(name, c.TYPE_ANY, c.CLASS_ANY, 0, None)
        msg_id, wire = self.build_update_wire([rr])
        self._issue("delete", msg_id, wire, callback)
        return msg_id

    def send_update(self, update: Message, callback: Callback) -> int:
        """Send a fully custom UPDATE message (prerequisites included)."""
        if self.tsig_key is not None:
            self._tsig_clock += 1
            wire = sign_message(update, self.tsig_key, time_signed=self._tsig_clock)
        else:
            wire = update.to_wire()
        self._issue("update", update.msg_id, wire, callback)
        return update.msg_id

    # -- response verification --------------------------------------------------------

    def _verify_response(self, response: Message) -> bool:
        """Check zone signatures on the answer RRsets (DNSSEC client role)."""
        if self.zone_key is None or response.opcode != c.OPCODE_QUERY:
            return False
        rrsets = rrs_to_rrsets(response.answers)
        data_sets = [r for r in rrsets if r.rtype != c.TYPE_SIG]
        sig_sets = {
            (r.name, rd.type_covered): rd
            for r in rrsets
            if r.rtype == c.TYPE_SIG
            for rd in r
            if isinstance(rd, SIG)
        }
        if not data_sets:
            return False
        for rrset in data_sets:
            sig = sig_sets.get((rrset.name, rrset.rtype))
            if sig is None:
                return False
            try:
                dnssec.verify_rrset(rrset, sig, self.zone_key)
            except DnssecError:
                return False
        return True

    def _verify_threshold_signature(self, msg: ClientResponse) -> bool:
        """Verify a threshold signature over the whole response (A3 mode).

        The signature covers the response wire with its message id zeroed
        (see :func:`repro.core.replica.canonical_response_wire`), so one
        signing round vouches for every repetition of the question.  The
        assembled signature is a plain RSA signature under the zone key.
        """
        signature = getattr(msg, "signature", b"")
        if not signature or self.zone_key is None:
            return False
        modulus, exponent = self.zone_key.rsa_parameters()
        self.node.charge(self.costs.crypto_cost(OP_VERIFY_SIGNATURE))
        key = RsaPublicKey(modulus=modulus, exponent=exponent)
        data = b"\x00\x00" + msg.wire[2:]
        try:
            key.verify(data, signature)
        except InvalidSignature:
            return False
        return True

    # -- plumbing -----------------------------------------------------------------------

    def _issue(self, kind: str, msg_id: int, wire: bytes, callback: Callback) -> None:
        raise NotImplementedError

    def _on_message(self, sender: int, msg: object) -> None:
        if not isinstance(msg, ClientResponse) or len(msg.wire) < 2:
            return
        # Every replica answers every request, so most responses are for
        # an operation already finished: look the 2-byte message id up
        # before paying for a full decode.
        msg_id = int.from_bytes(msg.wire[:2], "big")
        flight = self._inflight.get(msg_id)
        if flight is not None:
            self._handle_response(sender, msg, msg_id, flight)

    def _handle_response(
        self, sender: int, msg: ClientResponse, msg_id: int, flight: _InFlight
    ) -> None:
        raise NotImplementedError

    def _finish(
        self,
        flight: _InFlight,
        msg_id: int,
        response: Optional[Message],
        accepted_from: int,
        verified: bool,
    ) -> None:
        if flight.timer is not None:
            flight.timer.cancel()  # type: ignore[attr-defined]
        self._inflight.pop(msg_id, None)
        op = CompletedOp(
            kind=flight.kind,
            msg_id=msg_id,
            response=response,
            latency=self.node.now - flight.issued_at,
            accepted_from=accepted_from,
            verified=verified,
            retries=flight.retries,
        )
        self.completed.append(replace(op, response=None))
        self.stats["completed"] += 1
        self.stats["retries"] += flight.retries
        flight.callback(op)


class PragmaticClient(_ClientBase):
    """Unmodified client of §3.4: one server, one response, retry on timeout."""

    def __init__(self, *args, gateway: int = 0, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._gateway_index = gateway  # index into replica_ids

    @property
    def gateway(self) -> int:
        return self.replica_ids[self._gateway_index % len(self.replica_ids)]

    def _issue(self, kind: str, msg_id: int, wire: bytes, callback: Callback) -> None:
        self.node.charge(self.costs.client_overhead)
        target = self.gateway
        flight = _InFlight(
            kind=kind,
            wire=wire,
            issued_at=self.node.now,
            callback=callback,
            target=target,
        )
        self._inflight[msg_id] = flight
        self._transmit(msg_id, flight)

    def _transmit(self, msg_id: int, flight: _InFlight) -> None:
        request = ClientRequest(request_id=f"req-{msg_id}", wire=flight.wire)
        self.node.send(flight.target, request)
        flight.timer = self.node.schedule_timer(
            self.config.client_timeout, lambda: self._on_timeout(msg_id)
        )

    def _on_timeout(self, msg_id: int) -> None:
        """Round-robin to the next authoritative server, like dig/nsupdate."""
        flight = self._inflight.get(msg_id)
        if flight is None:
            return
        flight.retries += 1
        current = self.replica_ids.index(flight.target)
        flight.target = self.replica_ids[(current + 1) % len(self.replica_ids)]
        self._transmit(msg_id, flight)

    def _handle_response(
        self, sender: int, msg: ClientResponse, msg_id: int, flight: _InFlight
    ) -> None:
        if sender != flight.target:
            return  # source-address check: only the queried server counts
        try:
            response = Message.from_wire(msg.wire)
        except WireFormatError:
            return
        verified = False
        if self.verify_signatures and flight.kind == "read":
            verified = self._verify_response(response)
            if not verified:
                # A3 mode: the whole response carries one threshold
                # signature instead of per-RRset zone signatures.
                verified = self._verify_threshold_signature(msg)
        self._finish(flight, msg_id, response, sender, verified)


class FullClient(_ClientBase):
    """Modified client of §3.3: multicast the request, majority-vote."""

    def _issue(self, kind: str, msg_id: int, wire: bytes, callback: Callback) -> None:
        self.node.charge(self.costs.client_overhead)
        flight = _InFlight(
            kind=kind,
            wire=wire,
            issued_at=self.node.now,
            callback=callback,
            target=-1,
        )
        self._inflight[msg_id] = flight
        request = ClientRequest(request_id=f"req-{msg_id}", wire=wire)
        for replica in self.replica_ids:
            self.node.send(replica, request)

    def _handle_response(
        self, sender: int, msg: ClientResponse, msg_id: int, flight: _InFlight
    ) -> None:
        if sender in flight.responses:
            return
        flight.responses[sender] = msg.wire
        if len(flight.responses) < self.config.quorum:
            return
        # Majority vote over the exact response bytes.
        counts: Dict[bytes, List[int]] = {}
        for replica, wire in flight.responses.items():
            counts.setdefault(wire, []).append(replica)
        wire, voters = max(counts.items(), key=lambda item: len(item[1]))
        if len(voters) < self.config.t + 1:
            return  # no value represents t+1 replicas yet; wait for more
        # The vote is over raw bytes; only the winner is ever decoded.
        try:
            winner = Message.from_wire(wire)
        except WireFormatError:
            return
        verified = False
        if self.verify_signatures and flight.kind == "read":
            verified = self._verify_response(winner)
        self._finish(flight, msg_id, winner, voters[0], verified)
