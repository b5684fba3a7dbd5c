"""Randomized binary Byzantine agreement."""

import pytest

from repro.broadcast.aba import BinaryAgreement

from tests.broadcast.harness import coin_keys, drive, make_lan


@pytest.fixture(scope="module")
def shares_4_1():
    return coin_keys(4, 1)


def build(n, t, net, shares):
    decisions = {i: {} for i in range(n)}
    abas = []
    drivers = []
    for i in range(n):
        aba = BinaryAgreement(
            n, t, i, shares[i],
            on_decide=lambda sid, v, i=i: decisions[i].__setitem__(sid, v),
        )
        abas.append(aba)
        drivers.append(drive(net.node(i), aba))
    return abas, drivers, decisions


def propose_all(net, abas, drivers, sid, values):
    for i, value in enumerate(values):
        if value is None:
            continue
        drivers[i].apply(abas[i].propose(sid, value))


class TestAgreement:
    @pytest.mark.parametrize("value", [0, 1])
    def test_unanimous_decides_that_value(self, shares_4_1, value):
        net = make_lan(4)
        abas, drivers, decisions = build(4, 1, net, shares_4_1)
        propose_all(net, abas, drivers, "s", [value] * 4)
        net.run(until=60)
        for i in range(4):
            assert decisions[i].get("s") == value, f"replica {i}"

    def test_mixed_proposals_agree(self, shares_4_1):
        net = make_lan(4)
        abas, drivers, decisions = build(4, 1, net, shares_4_1)
        propose_all(net, abas, drivers, "s", [0, 1, 0, 1])
        net.run(until=120)
        values = {decisions[i].get("s") for i in range(4)}
        assert len(values) == 1
        assert values.pop() in (0, 1)

    def test_crashed_minority_does_not_block(self, shares_4_1):
        net = make_lan(4)
        abas, drivers, decisions = build(4, 1, net, shares_4_1)
        net.node(3).dropped = True
        propose_all(net, abas, drivers, "s", [1, 1, 1, None])
        net.run(until=120)
        for i in range(3):
            assert decisions[i].get("s") == 1

    def test_multiple_instances_independent(self, shares_4_1):
        net = make_lan(4)
        abas, drivers, decisions = build(4, 1, net, shares_4_1)
        propose_all(net, abas, drivers, "x", [1, 1, 1, 1])
        propose_all(net, abas, drivers, "y", [0, 0, 0, 0])
        net.run(until=120)
        for i in range(4):
            assert decisions[i]["x"] == 1
            assert decisions[i]["y"] == 0

    def test_validity_unanimous_zero(self, shares_4_1):
        """Decision must be a proposed value: all-0 can never yield 1."""
        for seed in range(3):
            net = make_lan(4, seed=seed)
            abas, drivers, decisions = build(4, 1, net, shares_4_1)
            propose_all(net, abas, drivers, "s", [0, 0, 0, 0])
            net.run(until=120)
            assert all(decisions[i].get("s") == 0 for i in range(4))

    def test_decision_exposed_via_accessor(self, shares_4_1):
        net = make_lan(4)
        abas, drivers, decisions = build(4, 1, net, shares_4_1)
        propose_all(net, abas, drivers, "s", [1, 1, 1, 1])
        net.run(until=60)
        assert abas[0].decision("s") == 1
        assert abas[0].decision("other") is None

    def test_seven_replicas_two_crashes(self):
        shares = coin_keys(7, 2)
        net = make_lan(7)
        abas, drivers, decisions = build(7, 2, net, shares)
        net.node(5).dropped = True
        net.node(6).dropped = True
        propose_all(net, abas, drivers, "s", [1, 0, 1, 0, 1, None, None])
        net.run(until=240)
        values = {decisions[i].get("s") for i in range(5)}
        assert len(values) == 1 and values.pop() in (0, 1)
