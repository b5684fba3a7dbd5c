"""Threshold common coin."""

import pytest

from repro.broadcast.coin import CommonCoin
from repro.broadcast.messages import CoinShare
from repro.crypto.shoup import SignatureShare

from tests.broadcast.harness import coin_keys, drive, make_lan


def build(n, t, net, shares):
    """The coins and what each observed; a coin's driver is its node's
    handler (``drive``)."""
    values = {i: {} for i in range(n)}
    coins = []
    for i in range(n):
        coin = CommonCoin(
            shares[i], i,
            on_value=lambda sid, r, v, i=i: values[i].__setitem__((sid, r), v),
        )
        coins.append(coin)
        drive(net.node(i), coin)
    return coins, values


@pytest.fixture(scope="module")
def shares_4_1():
    return coin_keys(4, 1)


class TestCoin:
    def test_all_nodes_agree_on_value(self, shares_4_1):
        net = make_lan(4)
        coins, values = build(4, 1, net, shares_4_1)
        for i in range(4):
            net.node(i).handler.apply(coins[i].request("sid", 0))
        net.run()
        observed = {values[i][("sid", 0)] for i in range(4)}
        assert len(observed) == 1
        assert observed.pop() in (0, 1)

    def test_rounds_are_independent(self, shares_4_1):
        net = make_lan(4)
        coins, values = build(4, 1, net, shares_4_1)
        for round_ in range(8):
            for i in range(4):
                net.node(i).handler.apply(coins[i].request("s", round_))
        net.run()
        bits = [values[0][("s", r)] for r in range(8)]
        # Eight coins should not all collapse to a constant (p = 2^-7 each way).
        assert len(set(bits)) == 2 or len(bits) < 4

    def test_t_shares_insufficient(self, shares_4_1):
        net = make_lan(4)
        coins, values = build(4, 1, net, shares_4_1)
        # Only node 0 reveals; t+1 = 2 shares are needed.
        net.node(0).handler.apply(coins[0].request("sid", 0))
        net.run()
        assert ("sid", 0) not in values[1]
        assert coins[1].value("sid", 0) is None

    def test_invalid_share_rejected(self, shares_4_1):
        net = make_lan(4)
        coins, values = build(4, 1, net, shares_4_1)
        net.node(1).handler.apply(coins[1].request("sid", 0))
        # Node 0 sends a garbage share claiming index 1 (its own).
        garbage = SignatureShare(index=1, value=12345)
        net.node(0).send(1, CoinShare("sid", 0, garbage))
        net.run()
        # One real share + garbage is below threshold.
        assert coins[1].value("sid", 0) is None

    def test_share_from_wrong_sender_rejected(self, shares_4_1):
        net = make_lan(4)
        coins, values = build(4, 1, net, shares_4_1)
        net.node(1).handler.apply(coins[1].request("sid", 0))
        # Node 0 replays node 3's hypothetical share index — not its own.
        msg = b"coin/sid/0"
        stolen = shares_4_1[2].generate_share_with_proof(msg)  # index 3
        net.node(0).send(1, CoinShare("sid", 0, stolen))
        net.run()
        assert coins[1].value("sid", 0) is None

    def test_duplicate_request_idempotent(self, shares_4_1):
        net = make_lan(4)
        coins, _ = build(4, 1, net, shares_4_1)
        first = coins[0].request("sid", 0)
        again = coins[0].request("sid", 0)
        assert first and not again
