"""KeyTrap-style resource bounds on the agreement message handlers.

A Byzantine peer must not be able to grow per-sequence or per-round
state without limit by naming far-future slots; these tests pin the
windows added to the atomic-broadcast fast path and to ABA rounds.
"""

import pytest

from repro.broadcast import abc as abc_mod
from repro.broadcast.aba import MAX_ROUND_AHEAD, BinaryAgreement
from repro.broadcast.abc import MAX_SEQ_AHEAD, derive_request_id
from repro.broadcast.messages import (
    AbaAux,
    AbaEst,
    AbcCommit,
    AbcInitiate,
    AbcOrder,
    AbcPrepare,
)

from tests.broadcast.harness import auth_keys, coin_keys, make_lan
from tests.broadcast.test_abc import build


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


def make_abcs(keys):
    net = make_lan(4)
    abcs, delivered = build(4, 1, net, keys)
    return abcs


class TestSequenceWindow:
    def test_far_future_order_dropped(self, keys_4_1):
        abc = make_abcs(keys_4_1)[1]
        seq = MAX_SEQ_AHEAD + 3
        payload = b"far future"
        abc.on_message(
            abc.leader,
            AbcOrder(0, seq, derive_request_id(payload), payload),
        )
        assert abc.stats["out_of_window"] == 1
        assert (0, seq) not in abc._ordered

    def test_far_future_prepare_dropped(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        seq = MAX_SEQ_AHEAD + 1
        abc.on_message(2, AbcPrepare(0, seq, b"d" * 32, 2, b"sig"))
        assert abc.stats["out_of_window"] == 1
        assert all(key[1] != seq for key in abc._prepares)

    def test_far_future_commit_dropped(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        seq = MAX_SEQ_AHEAD + 1
        abc.on_message(2, AbcCommit(0, seq, b"d" * 32, 2, b"sig"))
        assert abc.stats["out_of_window"] == 1

    def test_in_window_order_processed(self, keys_4_1):
        abc = make_abcs(keys_4_1)[1]
        payload = b"normal request"
        abc.on_message(
            abc.leader, AbcOrder(0, 0, derive_request_id(payload), payload)
        )
        assert (0, 0) in abc._ordered
        assert abc.stats["out_of_window"] == 0

    def test_window_advances_with_delivery(self, keys_4_1):
        # The window is relative to next_deliver, not absolute: a replica
        # that has delivered far keeps accepting the sequences around it.
        abc = make_abcs(keys_4_1)[1]
        abc.next_deliver = abc._retired_below = 10_000  # delivered and retired
        payload = b"caught up"
        abc.on_message(
            abc.leader, AbcOrder(0, 10_001, derive_request_id(payload), payload)
        )
        assert (0, 10_001) in abc._ordered
        assert abc.stats["out_of_window"] == 0


class TestInitiateCap:
    def test_pending_flood_capped(self, keys_4_1, monkeypatch):
        monkeypatch.setattr(abc_mod, "MAX_PENDING_REQUESTS", 4)
        abc = make_abcs(keys_4_1)[1]  # non-leader: pending is not drained
        for k in range(6):
            payload = f"req-{k}".encode()
            abc.on_message(3, AbcInitiate(derive_request_id(payload), payload))
        assert len(abc.pending) == 4
        assert abc.stats["initiates_dropped"] == 2

    def test_known_request_not_counted_against_cap(self, keys_4_1, monkeypatch):
        monkeypatch.setattr(abc_mod, "MAX_PENDING_REQUESTS", 1)
        abc = make_abcs(keys_4_1)[1]
        payload = b"the one request"
        msg = AbcInitiate(derive_request_id(payload), payload)
        abc.on_message(3, msg)
        abc.on_message(2, msg)  # a re-send of a pending request is fine
        assert len(abc.pending) == 1
        assert abc.stats["initiates_dropped"] == 0


class TestAbaRoundWindow:
    def _aba(self):
        shares = coin_keys(4, 1)
        return BinaryAgreement(4, 1, 0, shares[0], on_decide=lambda sid, v: None)

    def test_far_future_est_dropped(self):
        aba = self._aba()
        aba.on_message(1, AbaEst("s", MAX_ROUND_AHEAD + 2, 1))
        instance = aba._instances["s"]
        assert (MAX_ROUND_AHEAD + 2, 1) not in instance._est_senders

    def test_far_future_aux_dropped(self):
        aba = self._aba()
        aba.on_message(1, AbaAux("s", MAX_ROUND_AHEAD + 2, 1))
        instance = aba._instances["s"]
        assert MAX_ROUND_AHEAD + 2 not in instance._aux_senders

    def test_near_future_est_accepted(self):
        aba = self._aba()
        aba.on_message(1, AbaEst("s", 3, 1))
        instance = aba._instances["s"]
        assert 1 in instance._est_senders[(3, 1)]
