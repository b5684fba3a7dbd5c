"""Soak: request state follows the work in flight, not the work ever done.

2 000 reads and 20 add/delete pairs through the simulated (4,1) service,
then every structure that holds per-request, per-slot or per-session
state is measured.  What may still grow with the request count is named
explicitly (it waits for signed checkpoints, ROADMAP item 3); everything
else must be back at its in-flight size — which at quiescence is zero.
"""

import gc

from repro.chaos.invariants import InvariantReport, check_g1, check_g3
from repro.config import ServiceConfig
from repro.core import client as client_mod
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.message import Message
from repro.dns.name import Name
from repro.sim.machines import lan_setup

from tests.broadcast.test_abc import slot_state_sizes

READ_NAMES = [
    "www.example.com.", "ns1.example.com.", "mail.example.com.",
    "nope.example.com.", "txt.example.com.",
]
WAVES, READS_PER_WAVE, HISTORY = 20, 100, 256


def read_wave(svc, count):
    """Issue ``count`` reads at once (so batches form) and wait for all."""
    done = []
    for k in range(count):
        name = Name.from_text(READ_NAMES[k % len(READ_NAMES)])
        svc.client.query(name, c.TYPE_A, done.append)
    svc.net.sim.run(
        until=svc.net.sim.now + 600.0, condition=lambda: len(done) == count
    )
    assert len(done) == count
    return done


def reachable(roots, depth=4):
    """Objects within ``depth`` references of ``roots`` (classes excluded)."""
    seen, frontier = set(), list(roots)
    for _ in range(depth):
        frontier = [
            obj for obj in gc.get_referents(*frontier)
            if id(obj) not in seen and not isinstance(obj, type)
        ]
        seen.update(id(obj) for obj in frontier)
        yield from frontier


def test_state_is_proportional_to_inflight_work(monkeypatch):
    monkeypatch.setattr(client_mod, "MAX_COMPLETED_HISTORY", HISTORY, raising=False)
    svc = ReplicatedNameService(
        ServiceConfig(n=4, t=1, batch_size=8), topology=lan_setup(4)
    )
    leader = svc.replicas[0].abc
    for wave in range(WAVES):
        ordered_before = leader._next_order_seq
        ops = read_wave(svc, READS_PER_WAVE)
        assert all(op.response is not None for op in ops)  # callbacks get the answer
        # mid-run, not settled: the leader's ordering table only holds
        # slots still in flight — at most this wave's — where it used to
        # hold (and _order_pending used to scan) every slot since boot
        assert len(leader._ordered) <= leader._next_order_seq - ordered_before
        name = f"soak{wave}.example.com."
        assert svc.add_record(name, c.TYPE_A, 300, "192.0.2.9").response.rcode == c.RCODE_NOERROR
        assert svc.delete_name(name).response.rcode == c.RCODE_NOERROR
    svc.settle()

    issued = WAVES * (READS_PER_WAVE + 2)
    for replica in svc.replicas:
        abc = replica.abc
        assert abc._retired_below == abc.next_deliver  # nothing in flight
        sizes = slot_state_sizes(abc)
        assert not any(sizes.values()), sizes
        assert len(abc.pending) == 0 and len(abc._awaiting_order) == 0
        assert len(replica.coordinator.sessions) == 0
        assert len(replica.coordinator._pending) == 0
        assert len(replica._exec_queue) == 0
        # still one entry per slot / per request until checkpoints exist
        assert len(abc._certificates) == abc.next_deliver
        # (a few less than issued: reads that repeat a name *and* a
        # 16-bit message id are one payload, ordered and executed once)
        assert issued - 40 <= len(replica.delivered_requests) <= issued
        # ... but one id string per request, shared by both layers
        shared = {id(rid) for rid in abc.delivered_ids}
        assert all(id(rid) in shared for rid in replica.delivered_requests)

    client = svc.client
    assert client.stats == {"completed": issued, "retries": 0}
    assert len(client.completed) == HISTORY and len(client._inflight) == 0
    assert all(op.response is None for op in client.completed)
    assert not any(isinstance(obj, Message) for obj in reachable(client.completed))

    assert svc.states_consistent()
    report = InvariantReport()
    check_g1(svc, report)
    check_g3(svc, ops, report)
    assert report.ok, report.violations
