"""Atomic broadcast under adversarial timing and network conditions."""

import pytest

from repro.sim.machines import lan_setup, paper_setup
from repro.sim.network import SimNetwork

from tests.broadcast.harness import auth_keys, coin_keys
from tests.broadcast.test_abc import build, inject


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


class SlowLinkNetwork(SimNetwork):
    """A network where chosen links are drastically slower."""

    def __init__(self, topology, slow_pairs, slowdown=0.4, **kwargs):
        super().__init__(topology, **kwargs)
        self._slow_pairs = set(slow_pairs)
        self._slowdown = slowdown

    def _link_delay(self, src, dest):
        base = super()._link_delay(src, dest)
        if (src, dest) in self._slow_pairs or (dest, src) in self._slow_pairs:
            return base + self._slowdown
        return base


class TestSlowLinks:
    def test_order_consistent_with_asymmetric_delays(self, keys_4_1):
        """Slow links reorder message arrivals between replicas; the
        total delivery order must still be identical everywhere."""
        net = SlowLinkNetwork(
            lan_setup(4), slow_pairs={(0, 3), (1, 2)}, cpu_jitter=0.0
        )
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=30.0)
        inject(net, abcs, 1, [f"a{k}".encode() for k in range(4)])
        inject(net, abcs, 2, [f"b{k}".encode() for k in range(4)])
        net.run()
        orders = {tuple(delivered[i]) for i in range(4)}
        assert len(orders) == 1
        assert len(delivered[0]) == 8

    def test_slow_follower_catches_up(self, keys_4_1):
        """A replica behind very slow links still delivers everything."""
        net = SlowLinkNetwork(
            lan_setup(4),
            slow_pairs={(3, 0), (3, 1), (3, 2)},
            slowdown=0.8,
            cpu_jitter=0.0,
        )
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=30.0)
        inject(net, abcs, 0, [b"x", b"y", b"z"])
        net.run()
        assert delivered[3] == delivered[0]
        assert len(delivered[3]) == 3


class TestWanDeployment:
    def test_total_order_on_paper_topology(self, keys_4_1):
        net = SimNetwork(paper_setup(4), cpu_jitter=0.0)
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=30.0)
        inject(net, abcs, 0, [f"req{k}".encode() for k in range(5)])
        net.run()
        orders = {tuple(delivered[i]) for i in range(4)}
        assert len(orders) == 1
        assert len(delivered[0]) == 5
        # Fast-path delivery over the WAN completes in under a second.
        assert net.sim.now < 1.0


class TestCrashDuringEpochChange:
    def test_leader_crash_mid_stream(self, keys_4_1):
        """The leader crashes after ordering some requests; everything
        injected before and after still delivers in one agreed order."""
        net = SimNetwork(lan_setup(4), cpu_jitter=0.0)
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=1.0)
        inject(net, abcs, 1, [b"early0", b"early1"])
        # Crash the leader shortly after the first batch.
        net.sim.schedule(0.5, lambda: setattr(net.node(0), "dropped", True))  # noqa: B010
        net.node(1).run_local(0.6, lambda: net.node(1).handler.submit(b"late0"))
        net.node(2).run_local(0.7, lambda: net.node(2).handler.submit(b"late1"))
        net.run(until=600)
        for i in (1, 2, 3):
            assert sorted(delivered[i]) == [b"early0", b"early1", b"late0", b"late1"]
        orders = {tuple(delivered[i]) for i in (1, 2, 3)}
        assert len(orders) == 1

    def test_no_duplicate_delivery_across_epochs(self, keys_4_1):
        """Requests certified in the crashed epoch must deliver exactly
        once after recovery adopts the certificates."""
        net = SimNetwork(lan_setup(4), cpu_jitter=0.0)
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=1.0)
        inject(net, abcs, 2, [b"once"])
        net.sim.schedule(0.0005, lambda: setattr(net.node(0), "dropped", True))  # noqa: B010
        net.run(until=600)
        for i in (1, 2, 3):
            assert delivered[i].count(b"once") == 1
