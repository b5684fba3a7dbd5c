"""Request batching: wire format, deterministic delivery, Byzantine safety.

Batches are framed at the gateway and ordered by atomic broadcast as one
payload; every honest replica must unpack them into the *same* request
sequence, even with corrupted replicas in the system or garbage batch
frames injected into the broadcast layer.
"""

from repro.broadcast.abc import derive_request_id
from repro.broadcast.messages import (
    BATCH_MAGIC,
    AbcOrder,
    decode_batch,
    encode_batch,
    is_batch_payload,
)
from repro.config import ServiceConfig
from repro.core.replica import encode_request
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.name import Name
from repro.sim.machines import lan_setup


def make_service(n=4, t=1, batch_size=4, **config_extra):
    config = ServiceConfig(n=n, t=t, batch_size=batch_size, **config_extra)
    return ReplicatedNameService(config, topology=lan_setup(n))


def run_concurrent_queries(svc, names, limit=600.0):
    """Issue all queries before driving the simulator, so batches form."""
    box = []
    for name in names:
        svc.client.query(Name.from_text(name), c.TYPE_A, box.append)
    deadline = svc.net.sim.now + limit
    svc.net.sim.run(until=deadline, condition=lambda: len(box) == len(names))
    return box


class TestBatchWireFormat:
    def test_roundtrip(self):
        payloads = [b"a", b"bb" * 100, b"\x00", b"\xff" * 7]
        blob = encode_batch(payloads)
        assert is_batch_payload(blob)
        assert decode_batch(blob) == payloads

    def test_empty_batch(self):
        assert decode_batch(encode_batch([])) == []

    def test_client_payload_is_not_mistaken_for_batch(self):
        # Request payloads start with a 4-byte client node id.
        assert not is_batch_payload(b"\x00\x00\x00\x07" + b"any dns wire")

    def test_truncated_batch_decodes_empty(self):
        blob = encode_batch([b"hello", b"world"])
        assert decode_batch(blob[:-3]) == []

    def test_trailing_garbage_decodes_empty(self):
        assert decode_batch(encode_batch([b"x"]) + b"junk") == []

    def test_bad_length_prefix_decodes_empty(self):
        assert decode_batch(BATCH_MAGIC + b"\x00\x00\x00\x01\xff\xff\xff\xff") == []


class TestBatchedDelivery:
    def test_concurrent_reads_are_batched_and_answered(self):
        svc = make_service(batch_size=4)
        ops = run_concurrent_queries(svc, ["www.example.com."] * 8)
        assert len(ops) == 8
        assert all(op.response.rcode == c.RCODE_NOERROR for op in ops)
        assert all(op.verified for op in ops)
        delivered = sum(r.stats["batches_delivered"] for r in svc.replicas)
        assert delivered >= 1
        assert svc.states_consistent()

    def test_honest_replicas_deliver_identical_sequences(self):
        svc = make_service(batch_size=4)
        run_concurrent_queries(
            svc,
            ["www.example.com.", "ns1.example.com.", "ns2.example.com."] * 2,
        )
        svc.add_record("batch1.example.com.", c.TYPE_A, 300, "192.0.2.11")
        run_concurrent_queries(svc, ["batch1.example.com."] * 3)
        svc.settle()
        sequences = {tuple(r.delivered_requests) for r in svc.honest_replicas()}
        assert len(sequences) == 1
        assert next(iter(sequences))  # non-empty
        assert svc.states_consistent()

    def test_batching_with_corrupted_replica(self):
        svc = make_service(batch_size=4)
        svc.corrupt_paper_style(1)
        ops = run_concurrent_queries(svc, ["www.example.com."] * 6)
        assert all(op.response.rcode == c.RCODE_NOERROR for op in ops)
        svc.add_record("byz.example.com.", c.TYPE_A, 300, "192.0.2.66")
        op = svc.query("byz.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR
        svc.settle()
        sequences = {tuple(r.delivered_requests) for r in svc.honest_replicas()}
        assert len(sequences) == 1
        assert svc.states_consistent()

    def test_injected_garbage_batch_is_ignored(self):
        svc = make_service(batch_size=4)
        # A Byzantine gateway broadcasts a malformed batch frame; honest
        # replicas must skip it and keep serving real traffic.
        gateway = svc.replicas[1]
        gateway._apply(
            gateway.abc.a_broadcast(BATCH_MAGIC + b"\x00\x00\x00\x02junk"),
            gateway._on_deliver,
        )
        svc.settle(limit=30.0)
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR
        svc.settle()
        sequences = {tuple(r.delivered_requests) for r in svc.honest_replicas()}
        assert len(sequences) == 1
        assert svc.states_consistent()

    def test_member_ordered_alone_and_inside_a_frame_executes_once(self):
        """A Byzantine leader orders one request in its own slot *and*
        inside a leader frame; the frame adds it no power: every honest
        replica executes the request exactly once, in the same place."""
        svc = make_service(batch_size=1)
        client = svc.client.node.node_id
        payloads = [
            encode_request(client, svc.client.build_query_wire(
                Name.from_text(name), c.TYPE_A)[1])
            for name in ("www.example.com.", "ns1.example.com.")
        ]
        frame = encode_batch(payloads)
        leader = svc.replicas[0].node
        for seq, payload in enumerate((payloads[0], frame)):
            order = AbcOrder(0, seq, derive_request_id(payload), payload)
            for follower in (1, 2, 3):
                leader.run_local(0.0, lambda f=follower, o=order: leader.send(f, o))
        svc.settle(limit=30.0)
        rids = [derive_request_id(p) for p in payloads]
        for replica in svc.replicas[1:]:
            assert replica.abc.next_deliver == 2
            assert replica.delivered_requests == rids
            assert replica.stats["queries"] == 2
            assert set(rids) <= replica.abc.delivered_ids

    def test_batch_size_one_keeps_seed_behaviour(self):
        svc = make_service(batch_size=1)
        assert all(r.batch_queue is None for r in svc.replicas)
        op = svc.query("www.example.com.", c.TYPE_A)
        assert op.response.rcode == c.RCODE_NOERROR
        assert sum(r.stats["batches_delivered"] for r in svc.replicas) == 0
