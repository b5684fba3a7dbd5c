"""Replica-level unit tests (execution queue, caching, determinism)."""

from repro.config import ServiceConfig
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.name import Name
from repro.sim.machines import lan_setup, paper_setup


def make_service(**kwargs):
    config_extra = kwargs.pop("config_extra", {})
    kwargs.setdefault("topology", lan_setup(4))
    return ReplicatedNameService(
        ServiceConfig(n=4, t=1, **config_extra), **kwargs
    )


class TestExecutionOrdering:
    def test_queries_wait_behind_update_signing(self):
        """named is sequential: a read delivered after an update must
        observe the update's effects (same order on every replica)."""
        svc = make_service()
        # Issue an update and a read of the same name back to back; the
        # read is delivered after the update in the total order, so it
        # must see the new record even though signing takes a while.
        box = []
        svc.client.add_record(
            Name.from_text("seq.example.com."), c.TYPE_A, 300,
            __import__("repro.dns.rdata", fromlist=["A"]).A("192.0.2.77"),
            box.append,
        )
        svc.client.query(Name.from_text("seq.example.com."), c.TYPE_A, box.append)
        svc.net.sim.run(condition=lambda: len(box) >= 2)
        read_op = next(op for op in box if op.kind == "read")
        assert read_op.response.rcode == c.RCODE_NOERROR
        assert read_op.response.answers

    def test_stats_counters(self):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        svc.add_record("x.example.com.", c.TYPE_A, 300, "192.0.2.1")
        svc.settle()
        replica = svc.replicas[0]
        assert replica.stats["queries"] >= 1
        assert replica.stats["updates"] == 1
        assert replica.stats["signatures_completed"] == 4  # one add


class TestAnswerCacheMeta:
    def test_sig_query_for_a_resigned_nxt_is_volatile(self):
        """A SIG query returns SIG(NXT) without the NXT itself; an add
        next to the name re-signs it, so the answer must not be cached
        across updates."""
        svc = make_service()
        op = svc.query("www.example.com.", c.TYPE_SIG)
        assert op.response.rcode == c.RCODE_NOERROR and op.response.answers
        for replica in svc.replicas:
            assert all(entry.volatile for _key, entry in replica._answer_cache.items())


class TestResponseCache:
    def test_duplicate_request_replayed_from_cache(self):
        svc = make_service()
        svc.query("www.example.com.", c.TYPE_A)
        # Re-send the identical wire (same msg_id) straight to the gateway.
        from repro.broadcast.messages import ClientRequest

        wire = None
        # Rebuild the same query wire via the client's builder with a
        # fixed id, send twice, and count executions.
        msg_id, wire = svc.client.build_query_wire(
            Name.from_text("ns1.example.com."), c.TYPE_A
        )
        responses = []
        svc.client._inflight.clear()
        client_node = svc.client.node
        client_node.set_handler(lambda s, m: responses.append(m))
        client_node.run_local(0.0, lambda: client_node.send(0, ClientRequest("r1", wire)))
        svc.net.sim.run()
        executed_once = svc.replicas[0].stats["queries"]
        from_gateway_before = sum(1 for m in responses if m.replica == 0)
        client_node.run_local(0.0, lambda: client_node.send(0, ClientRequest("r1", wire)))
        svc.net.sim.run()
        # The retry was answered from the cache, not re-executed.
        assert svc.replicas[0].stats["queries"] == executed_once
        from_gateway = [m for m in responses if m.replica == 0]
        assert len(from_gateway) == from_gateway_before + 1
        assert from_gateway[-1].wire == from_gateway[0].wire


class TestRetryAfterEviction:
    def test_evicted_retry_is_reexecuted_not_silent(self):
        """A retry whose cached response was evicted must still be
        answered: the broadcast layer dedupes the request id, so the
        gateway re-executes the idempotent read locally (REVIEW §3.4)."""
        svc = make_service()
        from repro.broadcast.messages import ClientRequest

        _msg_id, wire = svc.client.build_query_wire(
            Name.from_text("ns1.example.com."), c.TYPE_A
        )
        responses = []
        svc.client._inflight.clear()
        client_node = svc.client.node
        client_node.set_handler(lambda s, m: responses.append(m))
        client_node.run_local(
            0.0, lambda: client_node.send(0, ClientRequest("r1", wire))
        )
        svc.net.sim.run()
        assert responses
        # Simulate a query flood having evicted the gateway's entry.
        svc.replicas[0]._response_cache.clear()
        before = len(responses)
        client_node.run_local(
            0.0, lambda: client_node.send(0, ClientRequest("r1", wire))
        )
        svc.net.sim.run()
        assert len(responses) == before + 1
        assert responses[-1].wire == responses[0].wire


class TestDeterminism:
    def test_same_seed_same_latencies(self):
        def run(seed):
            svc = ReplicatedNameService(
                ServiceConfig(n=4, t=1), topology=paper_setup(4), seed=seed
            )
            read = svc.query("www.example.com.", c.TYPE_A).latency
            add = svc.add_record("d.example.com.", c.TYPE_A, 300, "192.0.2.1").latency
            return read, add

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_replica_responses_byte_identical(self):
        """State-machine replication: all honest replicas answer alike."""
        svc = make_service(client_model="full")
        op = svc.query("www.example.com.", c.TYPE_A)
        # The full client saw at least n - t responses; majority must be
        # unanimous in the fault-free case.
        assert op.response is not None

    def test_malformed_wire_gets_error_response(self):
        svc = make_service()
        from repro.broadcast.messages import ClientRequest

        responses = []
        client_node = svc.client.node
        client_node.set_handler(lambda s, m: responses.append(m))
        client_node.run_local(
            0.0, lambda: client_node.send(0, ClientRequest("bad", b"\x00\x01"))
        )
        svc.net.sim.run()
        assert responses and responses[0].wire == b""
