"""Transport-differential test: one plan, simulator vs. asyncio.

Both transports are :class:`repro.core.service.NameService`; only the
client endpoint and the completion driver differ.  A fixed sequential plan
over one shared :class:`Deployment` must therefore yield the same rcodes,
answer sections and ``verified`` flags on both, and one zone digest across
all eight replicas — Shoup threshold signatures are unique and SIG timing
is serial-derived, so even the signature bytes must match although the
message interleavings (and the DNS ids) do not.

A concurrent tail follows the sequential plan: one add issued together
with reads whose answers it cannot change.  Which slot each one lands
in — alone, or framed with others behind the leader's slot in flight —
differs by transport; what the client is told must not.
"""

import asyncio

import pytest

from repro.chaos.invariants import InvariantReport, check_g1, check_g3
from repro.config import ServiceConfig
from repro.core.keytool import generate_deployment
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.name import Name
from repro.dns.rdata import A
from repro.net.local import AsyncNameService

PLAN = [
    ("query", "www.example.com.", c.TYPE_A),
    ("query", "missing.example.com.", c.TYPE_A),
    ("add_record", "d1.example.com.", c.TYPE_A, 300, "192.0.2.101"),
    ("query", "d1.example.com.", c.TYPE_A),
    ("add_record", "d2.example.com.", c.TYPE_A, 300, "192.0.2.102"),
    ("delete_name", "d1.example.com."),
    ("query", "d1.example.com.", c.TYPE_A),
]
EXPECTED_RCODES = [
    c.RCODE_NOERROR,
    c.RCODE_NXDOMAIN,
    c.RCODE_NOERROR,
    c.RCODE_NOERROR,
    c.RCODE_NOERROR,
    c.RCODE_NOERROR,
    c.RCODE_NXDOMAIN,
]


CONCURRENT_ADD = ("d3.example.com.", "192.0.2.103")
CONCURRENT_READS = [
    "www.example.com.",
    "d2.example.com.",
    "missing.example.com.",
    "ns1.example.com.",
]


def issue_concurrently(service, results):
    """The add and every read in flight at once; fills ``results`` by label."""
    client = service.client
    name, address = CONCURRENT_ADD
    client.add_record(
        Name.from_text(name), c.TYPE_A, 300, A(address),
        lambda op: results.__setitem__("add", op),
    )
    for read in CONCURRENT_READS:
        client.query(
            Name.from_text(read), c.TYPE_A,
            lambda op, read=read: results.__setitem__(read, op),
        )


def observe(op):
    return (
        op.response.rcode,
        [rr.to_text() for rr in op.response.answers],
        op.verified,
    )


@pytest.fixture(scope="module")
def runs():
    config = ServiceConfig(n=4, t=1)
    # Deployment-size authenticator keys (three primes); the zone key stays
    # small to keep threshold signing cheap.
    deployment = generate_deployment(config, auth_bits=1024)

    with ReplicatedNameService(config, deployment=deployment) as sim:
        sim_ops = [getattr(sim, method)(*args) for method, *args in PLAN]
        sim_tail = {}
        issue_concurrently(sim, sim_tail)
        sim.net.sim.run(
            until=sim.net.sim.now + 600.0,
            condition=lambda: len(sim_tail) == 1 + len(CONCURRENT_READS),
        )
        sim_digests = sim.zone_digests()

    async def live():
        with AsyncNameService(config, deployment=deployment) as service:
            ops = [await getattr(service, method)(*args) for method, *args in PLAN]
            tail = {}
            issue_concurrently(service, tail)
            for _ in range(600):
                if len(tail) == 1 + len(CONCURRENT_READS):
                    break
                await asyncio.sleep(0.1)
            await service.settle()
            report = InvariantReport()
            check_g1(service, report)
            check_g3(service, [*ops, *tail.values()], report)
            return ops, tail, service.zone_digests(), report

    live_ops, live_tail, live_digests, report = asyncio.run(live())
    return (
        sim_ops, sim_digests, live_ops, live_digests,
        sim_tail, live_tail, report,
    )


def test_same_plan_same_answers(runs):
    sim_ops, _, live_ops, *_ = runs
    assert [op.response.rcode for op in sim_ops] == EXPECTED_RCODES
    assert [observe(op) for op in live_ops] == [observe(op) for op in sim_ops]


def test_concurrent_tail_same_answers(runs):
    sim_tail, live_tail = runs[4:6]
    assert set(sim_tail) == set(live_tail) == {"add", *CONCURRENT_READS}
    for label, op in sim_tail.items():
        assert observe(live_tail[label]) == observe(op), label
    assert sim_tail["missing.example.com."].response.rcode == c.RCODE_NXDOMAIN
    for read in ("www.example.com.", "d2.example.com.", "ns1.example.com."):
        assert sim_tail[read].verified and live_tail[read].verified


def test_same_plan_one_zone_digest(runs):
    _, sim_digests, _, live_digests, *_ = runs
    assert len(sim_digests) == len(live_digests) == 4
    assert set(sim_digests) == set(live_digests)
    assert len(set(sim_digests)) == 1


def test_invariants_hold_on_the_asyncio_transport(runs):
    report = runs[-1]
    assert report.violations == []
