"""Transport-differential test: one plan, simulator vs. asyncio.

Both transports are :class:`repro.core.service.NameService`; only the
client endpoint and the completion driver differ.  A fixed sequential plan
over one shared :class:`Deployment` must therefore yield the same rcodes,
answer sections and ``verified`` flags on both, and one zone digest across
all eight replicas — Shoup threshold signatures are unique and SIG timing
is serial-derived, so even the signature bytes must match although the
message interleavings (and the DNS ids) do not.
"""

import asyncio

import pytest

from repro.chaos.invariants import InvariantReport, check_g1, check_g3
from repro.config import ServiceConfig
from repro.core.keytool import generate_deployment
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
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


def observe(op):
    return (
        op.response.rcode,
        [rr.to_text() for rr in op.response.answers],
        op.verified,
    )


@pytest.fixture(scope="module")
def runs():
    config = ServiceConfig(n=4, t=1)
    deployment = generate_deployment(config)

    with ReplicatedNameService(config, deployment=deployment) as sim:
        sim_ops = [getattr(sim, method)(*args) for method, *args in PLAN]
        sim_digests = sim.zone_digests()

    async def live():
        with AsyncNameService(config, deployment=deployment) as service:
            ops = [await getattr(service, method)(*args) for method, *args in PLAN]
            await service.settle()
            report = InvariantReport()
            check_g1(service, report)
            check_g3(service, ops, report)
            return ops, service.zone_digests(), report

    live_ops, live_digests, report = asyncio.run(live())
    return sim_ops, sim_digests, live_ops, live_digests, report


def test_same_plan_same_answers(runs):
    sim_ops, _, live_ops, _, _ = runs
    assert [op.response.rcode for op in sim_ops] == EXPECTED_RCODES
    assert [observe(op) for op in live_ops] == [observe(op) for op in sim_ops]


def test_same_plan_one_zone_digest(runs):
    _, sim_digests, _, live_digests, _ = runs
    assert len(sim_digests) == len(live_digests) == 4
    assert set(sim_digests) == set(live_digests)
    assert len(set(sim_digests)) == 1


def test_invariants_hold_on_the_asyncio_transport(runs):
    report = runs[-1]
    assert report.violations == []
