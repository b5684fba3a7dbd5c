"""The asyncio transport: same replicas, real time."""

import asyncio

import pytest

from repro.config import ServiceConfig
from repro.core.faults import CorruptionMode
from repro.dns import constants as c
from repro.dns.name import Name
from repro.dns.rdata import rdata_from_text
from repro.errors import ConfigError
from repro.net.local import AsyncNameService, AsyncNetwork


def run(coro):
    return asyncio.run(coro)


class TestAsyncNetwork:
    def test_requires_running_loop(self):
        with pytest.raises(ConfigError):
            AsyncNetwork(2)

    def test_message_delivery(self):
        async def scenario():
            net = AsyncNetwork(2)
            received = []
            net.node(1).set_handler(lambda s, p: received.append((s, p)))
            net.node(0).send(1, "hello")
            await asyncio.sleep(0.05)
            return received

        assert run(scenario()) == [(0, "hello")]

    def test_payloads_are_shared_not_copied(self):
        # Isolation comes from the message classes being immutable, not
        # from a copy per send.
        async def scenario():
            net = AsyncNetwork(2)
            received = []
            net.node(1).set_handler(lambda s, p: received.append(p))
            payload = ("frozen", b"wire")
            net.node(0).send(1, payload)
            await asyncio.sleep(0.05)
            return payload, received

        payload, received = run(scenario())
        assert len(received) == 1 and received[0] is payload

    def test_dropped_node(self):
        async def scenario():
            net = AsyncNetwork(2)
            received = []
            net.node(1).set_handler(lambda s, p: received.append(p))
            net.node(1).dropped = True
            net.node(0).send(1, "x")
            await asyncio.sleep(0.05)
            return received

        assert run(scenario()) == []

    def test_timer_fires_and_cancels(self):
        async def scenario():
            net = AsyncNetwork(1)
            fired = []
            net.node(0).schedule_timer(0.01, lambda: fired.append("a"))
            handle = net.node(0).schedule_timer(0.01, lambda: fired.append("b"))
            handle.cancel()
            await asyncio.sleep(0.05)
            return fired

        assert run(scenario()) == ["a"]


class TestAsyncNameService:
    def test_read(self):
        async def scenario():
            service = AsyncNameService(ServiceConfig(n=4, t=1))
            return await service.query("www.example.com.", c.TYPE_A)

        op = run(scenario())
        assert op.response.rcode == c.RCODE_NOERROR
        assert op.verified

    def test_signed_update_end_to_end(self):
        async def scenario():
            service = AsyncNameService(ServiceConfig(n=4, t=1))
            op = await service.add_record(
                "live.example.com.", c.TYPE_A, 300, "192.0.2.200"
            )
            await service.settle()
            return op, service.states_consistent(), service.verify_all_zones()

        op, consistent, verified = run(scenario())
        assert op.response.rcode == c.RCODE_NOERROR
        assert consistent
        assert verified > 0

    def test_delete_after_add(self):
        async def scenario():
            service = AsyncNameService(ServiceConfig(n=4, t=1))
            await service.add_record("tmp.example.com.", c.TYPE_A, 300, "192.0.2.5")
            await service.delete_name("tmp.example.com.")
            read = await service.query("tmp.example.com.", c.TYPE_A)
            await service.settle()
            return read, service.states_consistent()

        read, consistent = run(scenario())
        assert read.response.rcode == c.RCODE_NXDOMAIN
        assert consistent

    def test_update_with_corrupted_signer(self):
        async def scenario():
            service = AsyncNameService(ServiceConfig(n=4, t=1))
            service.replicas[1].corrupt(CorruptionMode.BAD_SHARES)
            op = await service.add_record(
                "live.example.com.", c.TYPE_A, 300, "192.0.2.201"
            )
            await service.settle()
            return op, service.verify_all_zones()

        op, verified = run(scenario())
        assert op.response.rcode == c.RCODE_NOERROR
        assert verified > 0

    def test_update_with_silent_signer_waits_for_the_session_timer(self):
        """A withholding replica stalls the sessions that designate it
        until their timers fire on the loop; every timer is gone after."""
        from repro.chaos.scenarios import _deployment_for

        async def scenario():
            config = ServiceConfig(n=4, t=1, abc_timeout=0.5, client_timeout=5.0)
            service = AsyncNameService(config, deployment=_deployment_for(config))
            service.replicas[1].corrupt(CorruptionMode.WITHHOLD_SHARES)
            ops = [
                await service.add_record(f"s{k}.example.com.", c.TYPE_A, 300, "192.0.2.7")
                for k in range(2)
            ]
            await service.settle()
            return service, ops

        service, ops = run(scenario())
        assert all(op.response.rcode == c.RCODE_NOERROR for op in ops)
        assert service.states_consistent() and service.verify_all_zones() > 0
        honest = service.honest_replicas()
        assert sum(r.coordinator.stats["share_timeouts"] for r in honest) > 0
        # Suspicion is local: a replica whose session the others' released
        # shares completed before its own timer fired suspects nobody.
        assert {frozenset(r.coordinator.suspects) for r in honest} <= {
            frozenset(), frozenset({1})
        }
        assert any(r.coordinator.suspects == {1} for r in honest)
        assert all(
            not [timer for timer in r._timers if timer[0] == "sign"]
            for r in service.replicas
        )

    def test_full_client_model(self):
        async def scenario():
            service = AsyncNameService(
                ServiceConfig(n=4, t=1), client_model="full"
            )
            return await service.query("www.example.com.", c.TYPE_A)

        op = run(scenario())
        assert op.response.rcode == c.RCODE_NOERROR

    def test_crashed_gateway_retry(self):
        async def scenario():
            service = AsyncNameService(
                ServiceConfig(n=4, t=1, client_timeout=0.3, abc_timeout=0.5)
            )
            service.replicas[0].corrupt(CorruptionMode.CRASH)
            return await service.query("www.example.com.", c.TYPE_A)

        op = run(scenario())
        assert op.retries >= 1
        assert op.response.rcode == c.RCODE_NOERROR


class TestAsyncBatching:
    """BatchQueue over the asyncio transport: timers are real, so batches
    fill only when several clients have requests in flight at once."""

    def test_concurrent_clients_fill_batches(self):
        async def scenario():
            service = AsyncNameService(
                ServiceConfig(n=4, t=1, batch_size=4, batch_delay=0.1)
            )
            clients = [service.client] + [service.add_client() for _ in range(2)]
            names = ["www.example.com.", "ns1.example.com.", "ns2.example.com."]
            ops = await asyncio.gather(
                *(
                    service.query(names[i % len(names)], c.TYPE_A, client=clients[i % len(clients)])
                    for i in range(6)
                )
            )
            await service.settle()
            batches = sum(r.stats["batches_delivered"] for r in service.replicas)
            return ops, batches, service.states_consistent()

        ops, batches, consistent = run(scenario())
        assert all(op.response.rcode == c.RCODE_NOERROR for op in ops)
        # With three clients firing simultaneously into one gateway, at
        # least one multi-request batch must have been ordered.
        assert batches > 0
        assert consistent

    def test_batched_updates_apply_once(self):
        async def scenario():
            service = AsyncNameService(
                ServiceConfig(n=4, t=1, batch_size=3, batch_delay=0.05)
            )
            extra = service.add_client()
            op1, op2 = await asyncio.gather(
                service.add_record("b1.example.com.", c.TYPE_A, 300, "192.0.2.51"),
                service._await_op(
                    lambda cb: extra.add_record(
                        Name.from_text("b2.example.com."),
                        c.TYPE_A,
                        300,
                        rdata_from_text(c.TYPE_A, ["192.0.2.52"], service.zone_origin),
                        cb,
                    )
                ),
            )
            await service.settle()
            read1 = await service.query("b1.example.com.", c.TYPE_A)
            read2 = await service.query("b2.example.com.", c.TYPE_A)
            return op1, op2, read1, read2, service.states_consistent()

        op1, op2, read1, read2, consistent = run(scenario())
        assert op1.response.rcode == c.RCODE_NOERROR
        assert op2.response.rcode == c.RCODE_NOERROR
        assert read1.response.rcode == c.RCODE_NOERROR
        assert read2.response.rcode == c.RCODE_NOERROR
        assert consistent
