"""Byzantine resource-exhaustion hardening pinned by the taint analysis.

These regressions cover the true positives the interprocedural taint run
surfaced: digest stuffing in the ABC prepare/commit pools, far-future
epoch spam in complaints and epoch finals, and ORDER/PREPARE floods
against one slot.  Admission is bounded *per sender* — a global
first-come cap would itself be an attack surface: one Byzantine replica
could fill a slot with invented digests before the honest leader's
prepare arrives and censor the slot forever.
"""

import pytest

from repro.broadcast.abc import MAX_EPOCH_AHEAD, derive_request_id, request_digest
from repro.broadcast.messages import AbcCommit, AbcComplain, AbcOrder, AbcPrepare

from tests.broadcast.harness import auth_keys, coin_keys, make_lan
from tests.broadcast.test_abc import build, build_solo, inject, prepare_from, sent_messages


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


def make_abc(keys, index=0):
    net = make_lan(4)
    abcs, _delivered = build(4, 1, net, keys)
    return abcs[index]


class TestSlotDigestAdmission:
    def test_one_introduced_digest_per_sender_per_slot(self, keys_4_1):
        abc = make_abc(keys_4_1)
        assert abc._admit_slot_digest(2, 0, 0, b"\x01" * 32)
        # the same sender cannot introduce a second distinct digest
        assert not abc._admit_slot_digest(2, 0, 0, b"\x02" * 32)
        # but revoting its own digest stays admitted
        assert abc._admit_slot_digest(2, 0, 0, b"\x01" * 32)

    def test_voting_an_admitted_digest_is_free(self, keys_4_1):
        abc = make_abc(keys_4_1)
        assert abc._admit_slot_digest(2, 0, 0, b"\x01" * 32)
        # other senders may vote for sender 2's digest without burning
        # their own introduction budget ...
        assert abc._admit_slot_digest(3, 0, 0, b"\x01" * 32)
        # ... and can still introduce their own digest afterwards
        assert abc._admit_slot_digest(3, 0, 0, b"\x03" * 32)

    def test_flooder_cannot_censor_honest_digest(self, keys_4_1):
        """The REVIEW scenario: one Byzantine replica stuffs a slot with
        invented digests before the honest leader's prepare arrives; the
        honest digest must still be admitted."""
        abc = make_abc(keys_4_1)
        for i in range(abc.n + 4):
            abc._admit_slot_digest(2, 0, 0, bytes([i + 10]) * 32)
        honest = b"\x07" * 32
        assert abc._admit_slot_digest(0, 0, 0, honest)
        assert abc._admit_slot_digest(1, 0, 0, honest)

    def test_at_most_n_distinct_digests_per_slot(self, keys_4_1):
        abc = make_abc(keys_4_1)
        for sender in range(abc.n):
            for i in range(3):  # each sender tries to introduce 3 digests
                abc._admit_slot_digest(sender, 0, 0, bytes([10 * sender + i]) * 32)
        assert len(abc._slot_digests[(0, 0)]) <= abc.n

    def test_budget_is_per_slot(self, keys_4_1):
        abc = make_abc(keys_4_1)
        abc._admit_slot_digest(2, 0, 0, b"\x01" * 32)
        # a different (epoch, seq) slot has its own budget
        assert abc._admit_slot_digest(2, 0, 1, b"\x63" * 32)

    def test_commit_digest_stuffing_bounded(self, keys_4_1):
        abc = make_abc(keys_4_1)
        for i in range(abc.n + 4):
            abc.on_message(2, AbcCommit(0, 0, bytes([i]) * 32, 2, b"sig"))
        slot_keys = [k for k in abc._commits if k[0] == 0 and k[1] == 0]
        assert len(slot_keys) <= 1  # one introduced digest per sender


class TestEpochWindows:
    def test_far_future_complain_dropped(self, keys_4_1):
        abc = make_abc(keys_4_1)
        far = abc.epoch + MAX_EPOCH_AHEAD + 1
        abc.on_message(2, AbcComplain(far, 2))
        assert far not in abc._complaints

    def test_near_future_complain_tracked(self, keys_4_1):
        abc = make_abc(keys_4_1)
        near = abc.epoch + 1
        abc.on_message(2, AbcComplain(near, 2))
        assert 2 in abc._complaints[near]

    def test_complain_flood_cannot_grow_state_unboundedly(self, keys_4_1):
        abc = make_abc(keys_4_1)
        for k in range(200):
            abc.on_message(2, AbcComplain(abc.epoch + MAX_EPOCH_AHEAD + 1 + k, 2))
        assert len(abc._complaints) == 0

    def test_out_of_window_final_skips_signature_verification(self, keys_4_1, monkeypatch):
        """Cheap epoch check runs before crypto.verify, so stale/far-future
        finals cannot be used to burn verification CPU."""
        abc = make_abc(keys_4_1)
        calls = []
        monkeypatch.setattr(
            abc.crypto, "verify", lambda *a, **k: calls.append(a) or False
        )
        from repro.broadcast.messages import AbcEpochFinal

        far = AbcEpochFinal(
            epoch=abc.epoch + MAX_EPOCH_AHEAD + 1,
            sender=2,
            locks=(),
            accepted=(),
            pending=(),
        )
        abc._on_epoch_final(2, (far, b"junk"))
        assert calls == []

    def test_far_future_complaints_are_counted_stale_ones_not(self, keys_4_1):
        abc = make_abc(keys_4_1)
        abc.epoch = 3
        abc.on_message(2, AbcComplain(2, 2))  # stale: a lagging peer
        abc.on_message(2, AbcComplain(3 + MAX_EPOCH_AHEAD, 2))  # window edge
        abc.on_message(2, AbcComplain(4 + MAX_EPOCH_AHEAD, 2))
        assert abc.stats["complaints_out_of_window"] == 1
        assert list(abc._complaints) == [3 + MAX_EPOCH_AHEAD]

    def test_far_future_finals_are_counted_stale_ones_not(self, keys_4_1):
        from repro.broadcast.messages import AbcEpochFinal

        abc = make_abc(keys_4_1)
        abc.epoch = 3
        for epoch in (2, 4 + MAX_EPOCH_AHEAD, 5 + MAX_EPOCH_AHEAD):
            final = AbcEpochFinal(epoch=epoch, sender=2, locks=(), accepted=(), pending=())
            abc._on_epoch_final(2, (final, b"junk"))
        assert abc.stats["finals_out_of_window"] == 2
        assert abc._finals == {}


class TestAbcOrderPrepareFlood:
    """Replica 1 of (4, 1) under ORDER and PREPARE floods for slot (0, 0).

    The vote-amplification attack on the fast path: a Byzantine leader
    re-ORDERs the slot with ever new payloads, and a Byzantine signer
    PREPAREs and COMMITs ever new digests with valid signatures.  The
    state stays bounded by n per slot and the honest request delivers.
    """

    def test_order_equivocation_ignored(self, keys_4_1):
        abc, solo = build_solo(keys_4_1)
        for i in range(50):
            payload = b"payload-%d" % i
            solo.on_message(0, AbcOrder(0, 0, derive_request_id(payload), payload))
        assert len(abc._ordered) == 1
        assert abc._prepared_digest[(0, 0)] == request_digest(0, 0, b"payload-0")
        # One PREPARE, sent to each of the three peers.
        assert sum(isinstance(m, AbcPrepare) for m in sent_messages(solo)) == 3

    def test_prepare_equivocation_ignored(self, keys_4_1):
        abc, solo = build_solo(keys_4_1)
        for i in range(50):
            solo.on_message(2, prepare_from(2, 0, 0, bytes([i]) * 32))
        solo.on_message(2, prepare_from(2, 0, 0, bytes([0]) * 32))  # a repeat
        assert abc._slot_digests[(0, 0)] == {bytes([0]) * 32}
        assert [key for key in abc._prepares if key[:2] == (0, 0)] == [(0, 0, bytes([0]) * 32)]
        assert list(abc._prepares[(0, 0, bytes([0]) * 32)]) == [2]

    def test_tracked_state_bounded_by_n(self, keys_4_1):
        abc, solo = build_solo(keys_4_1)
        for sender in (0, 2, 3):
            for i in range(3):
                digest = bytes([10 * sender + i]) * 32
                solo.on_message(sender, prepare_from(sender, 0, 0, digest))
                solo.on_message(sender, AbcCommit(0, 0, digest, sender, b""))
        assert len(abc._slot_digests[(0, 0)]) <= abc.n
        assert len([k for k in abc._prepares if k[:2] == (0, 0)]) <= abc.n
        assert len([k for k in abc._commits if k[:2] == (0, 0)]) <= abc.n
        assert (0, 0) not in abc._prepared_digest  # no ORDER, no own vote

    def test_delivery_survives_byzantine_digest_flood(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        # Replica 3 fills slot (0, 0) with invented digests first.
        for i in range(20):
            digest = bytes([i]) * 32
            for peer in range(3):
                net.node(3).send(peer, prepare_from(3, 0, 0, digest))
                net.node(3).send(peer, AbcCommit(0, 0, digest, 3, b""))
        net.run()
        assert all(abcs[i]._slot_digests[(0, 0)] == {bytes([0]) * 32} for i in range(3))
        payload = b"real request"
        inject(net, abcs, 1, [payload])
        net.run()
        assert all(delivered[i] == [payload] for i in range(4))
