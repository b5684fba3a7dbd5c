"""KeyTrap-style resource bounds on the agreement message handlers.

A Byzantine peer must not be able to grow per-sequence, per-round,
per-epoch or per-agreement state without limit by naming far-future
slots, rounds, epochs or made-up agreement ids; these tests pin the
windows on the atomic-broadcast fast path, its future-epoch buffer, the
epoch-switch agreement and the coin, and the counter each cap feeds.
"""

import pytest

from repro.broadcast import abc as abc_mod
from repro.broadcast.aba import MAX_ROUND_AHEAD, BinaryAgreement
from repro.broadcast.abc import MAX_EPOCH_AHEAD, MAX_SEQ_AHEAD, derive_request_id
from repro.broadcast.messages import (
    AbaAux,
    AbaDecided,
    AbaEst,
    AbcCommit,
    AbcInitiate,
    AbcOrder,
    AbcPrepare,
    CoinShare,
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
        abc.on_message(2, AbcPrepare(0, seq, b"d" * 32, 2))
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


def _coin_share(keys, signer, sid, round_):
    """A valid coin share of replica ``signer``: a Byzantine replica can
    make these for its own index, for any round."""
    coins = keys[2]
    return CoinShare(
        sid, round_,
        coins[signer].generate_share_with_proof(f"coin/{sid}/{round_}".encode()),
    )


class TestAgreementWindow:
    """ABA and coin traffic opens state only for epoch-switch agreements
    in the epoch window, and coin pools only for rounds near the
    instance's own."""

    FLOOD = 200

    def test_made_up_sids_open_no_instance(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        for k in range(self.FLOOD):
            abc.on_message(3, AbaEst(f"junk/{k}", 0, 1))
            abc.on_message(3, AbaDecided(f"switch/{10**9 + k}", 1))
        for sid in ("switch/007", "switch/+1", "switch/1/x", "switch/", 7):
            abc.on_message(3, AbaAux(sid, 0, 1))
        assert abc.aba._instances == {}
        assert abc.stats["aba_out_of_window"] == 2 * self.FLOOD + 5

    def test_window_edges_and_past_epochs_pass(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        abc.epoch = 5
        for epoch in (0, 5, 5 + MAX_EPOCH_AHEAD, 6 + MAX_EPOCH_AHEAD):
            abc.on_message(3, AbaEst(f"switch/{epoch}", 0, 1))
        # Past epochs still pass, so lagging peers can finish them.
        assert sorted(abc.aba._instances) == sorted(
            ["switch/0", "switch/5", f"switch/{5 + MAX_EPOCH_AHEAD}"]
        )
        assert abc.stats["aba_out_of_window"] == 1

    def test_far_round_coin_share_dropped(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        far = _coin_share(keys_4_1, 3, "switch/0", MAX_ROUND_AHEAD + 1)
        abc.on_message(3, far)
        assert abc.aba.coin._shares == {}
        assert abc.stats["coin_out_of_window"] == 1

    def test_early_coin_share_kept_without_instance(self, keys_4_1):
        # No instance yet counts as round 0: an honest replica's share
        # for a round inside the window is pooled, not lost.
        abc = make_abcs(keys_4_1)[0]
        abc.on_message(3, _coin_share(keys_4_1, 3, "switch/0", MAX_ROUND_AHEAD))
        assert ("switch/0", MAX_ROUND_AHEAD) in abc.aba.coin._shares
        assert abc.stats["coin_out_of_window"] == 0

    def test_coin_window_follows_instance_round(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        abc.on_message(3, AbaEst("switch/0", 0, 1))
        abc.aba._instances["switch/0"].round = 10
        abc.on_message(3, _coin_share(keys_4_1, 3, "switch/0", 10 + MAX_ROUND_AHEAD))
        abc.on_message(3, _coin_share(keys_4_1, 3, "switch/0", 11 + MAX_ROUND_AHEAD))
        assert list(abc.aba.coin._shares) == [("switch/0", 10 + MAX_ROUND_AHEAD)]
        assert abc.stats["coin_out_of_window"] == 1


def _commit(epoch, seq, signer):
    return AbcCommit(epoch, seq, bytes([signer]) * 32, signer, b"")


def _enter_epoch(abc, epoch):
    """What a NEW_EPOCH install ends with: the epoch, then the replay."""
    abc.epoch = epoch
    abc._replay_buffered()


class TestFutureEpochBuffer:
    def test_epochs_past_the_window_are_not_buffered(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        for k in range(50):
            abc.on_message(3, _commit(10**9 + k, 0, 3))
        abc.on_message(1, _commit(MAX_EPOCH_AHEAD + 1, 0, 1))
        abc.on_message(2, _commit(1, 0, 2))  # honest next-epoch traffic
        assert abc._future_buffer == [(2, _commit(1, 0, 2))]
        assert abc.stats["future_dropped"] == 51
        _enter_epoch(abc, 1)
        assert abc._commits[(1, 0, bytes([2]) * 32)] == {2}

    def test_one_sender_cannot_crowd_out_the_others(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        quota = abc_mod.MAX_FUTURE_BUFFER // abc.n
        for k in range(abc_mod.MAX_FUTURE_BUFFER):
            abc.on_message(3, _commit(1, k % 64, 3))
        abc.on_message(99, _commit(1, 0, 99))  # not a replica: no quota
        abc.on_message(1, _commit(1, 0, 1))
        assert len(abc._future_buffer) == quota + 1
        assert abc.stats["future_dropped"] == abc_mod.MAX_FUTURE_BUFFER - quota + 1
        _enter_epoch(abc, 1)
        assert abc._commits[(1, 0, bytes([1]) * 32)] == {1}
        assert abc._future_buffer == []

    def test_quota_frees_on_replay(self, keys_4_1):
        abc = make_abcs(keys_4_1)[0]
        quota = abc_mod.MAX_FUTURE_BUFFER // abc.n
        for k in range(quota):
            abc.on_message(3, _commit(2, k % 64, 3))
        _enter_epoch(abc, 1)  # epoch-2 traffic is re-buffered, recounted
        assert len(abc._future_buffer) == quota
        abc.on_message(3, _commit(2, 0, 3))
        assert abc.stats["future_dropped"] == 1


class TestAwaitedOrderCap:
    def test_awaited_orders_capped_and_counted(self, keys_4_1):
        abc = make_abcs(keys_4_1)[1]
        for k in range(MAX_SEQ_AHEAD + 5):
            rid = derive_request_id(f"never-sent-{k}".encode())
            abc.on_message(abc.leader, AbcOrder(0, 0, rid, b""))
        assert len(abc._awaiting_order) == MAX_SEQ_AHEAD
        assert abc.stats["await_dropped"] == 5
