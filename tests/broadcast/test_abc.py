"""Optimistic atomic broadcast: total order, fall-back, Byzantine leaders."""

import pytest

from repro.broadcast import abc as abc_mod
from repro.broadcast.abc import (
    AtomicBroadcast,
    AuthPlane,
    _prepare_signing_input,
    derive_request_id,
    request_digest,
)
from repro.broadcast.messages import AbcCommit, AbcOrder, AbcPrepare

from tests.broadcast.harness import auth_keys, coin_keys, make_lan, unwrap


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


@pytest.fixture(scope="module")
def keys_4_1_1024():
    """Deployment-size authenticator keys: 1024 bits, three primes."""
    pairs, pubs = auth_keys(4, bits=1024)
    assert all(len(pair.private.primes) == 3 for pair in pairs)
    return pairs, pubs, coin_keys(4, 1)


def build(n, t, net, keys, timeout=1.0):
    """``delivered[i]`` lists the requests replica i a-delivered, in order.

    A leader batch frame counts as its members, in frame order — what the
    replicated state machine executes (``tests/broadcast/test_rebatch.py``
    looks at the frames themselves).
    """
    pairs, pubs, coins = keys
    delivered = {i: [] for i in range(n)}
    abcs = []
    for i in range(n):
        node = net.node(i)
        abc = AtomicBroadcast(
            n, t, i,
            auth_key=pairs[i].private,
            auth_public=pubs,
            coin_key=coins[i],
            deliver=lambda rid, payload, i=i: delivered[i].extend(unwrap([payload])),
            send=node.send,
            schedule=node.schedule_timer,
            timeout=timeout,
        )
        abcs.append(abc)
        node.set_handler(lambda s, m, abc=abc: abc.on_message(s, m))
    return abcs, delivered


def inject(net, abcs, replica, payloads, spacing=0.001):
    for k, payload in enumerate(payloads):
        net.node(replica).run_local(
            spacing * k, lambda p=payload: abcs[replica].a_broadcast(p)
        )


class TestFastPath:
    def test_total_order_single_gateway(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        inject(net, abcs, 2, [f"r{k}".encode() for k in range(6)])
        net.run()
        assert all(len(delivered[i]) == 6 for i in range(4))
        orders = {tuple(delivered[i]) for i in range(4)}
        assert len(orders) == 1

    def test_total_order_multiple_gateways(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        inject(net, abcs, 1, [b"a1", b"a2"])
        inject(net, abcs, 3, [b"b1", b"b2"])
        net.run()
        orders = {tuple(delivered[i]) for i in range(4)}
        assert len(orders) == 1
        assert set(delivered[0]) == {b"a1", b"a2", b"b1", b"b2"}

    def test_duplicate_payload_delivered_once(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        inject(net, abcs, 1, [b"same"])
        inject(net, abcs, 2, [b"same"])
        net.run()
        assert all(delivered[i] == [b"same"] for i in range(4))

    def test_no_recovery_when_leader_honest(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        inject(net, abcs, 0, [b"x"])
        net.run()
        assert all(abc.stats["epoch_changes"] == 0 for abc in abcs)
        assert all(abc.stats["fast_deliveries"] == 1 for abc in abcs)


class TestFallback:
    def test_crashed_leader_epoch_change(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        net.node(0).dropped = True
        inject(net, abcs, 2, [b"r0", b"r1", b"r2"])
        net.run(until=300)
        for i in (1, 2, 3):
            assert sorted(delivered[i]) == [b"r0", b"r1", b"r2"], f"replica {i}"
            assert abcs[i].epoch >= 1
        orders = {tuple(delivered[i]) for i in (1, 2, 3)}
        assert len(orders) == 1

    def test_liveness_after_recovery(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        net.node(0).dropped = True
        inject(net, abcs, 2, [b"before"])
        net.run(until=300)
        assert all(b"before" in delivered[i] for i in (1, 2, 3))
        # New epoch should now deliver quickly on the fast path.
        inject(net, abcs, 1, [b"after"])
        net.run(until=600)
        for i in (1, 2, 3):
            assert delivered[i][-1] == b"after"
            assert tuple(delivered[i]) == tuple(delivered[1])

    def test_two_successive_leader_crashes(self):
        pairs, pubs = auth_keys(7)
        coins = coin_keys(7, 2)
        net = make_lan(7)
        abcs, delivered = build(7, 2, net, (pairs, pubs, coins), timeout=1.0)
        net.node(0).dropped = True
        net.node(1).dropped = True
        inject(net, abcs, 3, [b"x", b"y"])
        net.run(until=900)
        for i in range(2, 7):
            assert sorted(delivered[i]) == [b"x", b"y"], f"replica {i}"
        orders = {tuple(delivered[i]) for i in range(2, 7)}
        assert len(orders) == 1


class TestByzantineLeader:
    def test_equivocating_leader_cannot_split_order(self, keys_4_1):
        """Leader 0 sends conflicting ORDERs for the same slot."""
        pairs, pubs, coins = keys_4_1
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=1.0)
        payload_a, payload_b = b"AAAA", b"BBBB"
        order_a = AbcOrder(0, 0, derive_request_id(payload_a), payload_a)
        order_b = AbcOrder(0, 0, derive_request_id(payload_b), payload_b)
        # Replicas 1,2 get A; replica 3 gets B.
        net.node(0).send(1, order_a)
        net.node(0).send(2, order_a)
        net.node(0).send(3, order_b)
        net.run(until=300)
        values_at_slot = set()
        for i in (1, 2, 3):
            if delivered[i]:
                values_at_slot.add(delivered[i][0])
        assert len(values_at_slot) <= 1  # agreement even under equivocation

    def test_forged_order_from_non_leader_ignored(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=5.0)
        payload = b"forged"
        order = AbcOrder(0, 0, derive_request_id(payload), payload)
        net.node(2).send(1, order)  # replica 2 is not epoch-0 leader
        net.run(until=2)
        assert delivered[1] == []

    def test_bad_request_id_ignored(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1, timeout=5.0)
        order = AbcOrder(0, 0, "wrong-id", b"payload")
        net.node(0).send(1, order)
        net.run(until=2)
        assert delivered[1] == []


#: Every per-slot structure that retirement reclaims (``_certificates``
#: is the one that stays, until signed checkpoints exist).
SLOT_STATE = (
    "_ordered", "_payload_by_digest", "_prepared_digest", "_prepares",
    "_slot_digests", "_slot_introducer", "_commit_sent", "_commits",
    "_committed", "_retired",
)


def slot_state_sizes(abc):
    return {name: len(getattr(abc, name)) for name in SLOT_STATE}


class _NoTimer:
    def cancel(self):
        pass


def build_solo(keys, me=1, n=4, t=1):
    """One replica with its outgoing messages captured instead of sent."""
    pairs, pubs, coins = keys
    sent, delivered = [], []
    abc = AtomicBroadcast(
        n, t, me,
        auth_key=pairs[me].private,
        auth_public=pubs,
        coin_key=coins[me],
        deliver=lambda rid, payload: delivered.append(payload),
        send=lambda dest, msg: sent.append(msg),
        schedule=lambda delay, fn: _NoTimer(),
    )
    return abc, sent, delivered


def signed_prepare(keys, signer, epoch, seq, digest):
    pairs, pubs, _ = keys
    signature = AuthPlane(pairs[signer].private, pubs).sign(
        _prepare_signing_input(epoch, seq, digest)
    )
    return AbcPrepare(epoch, seq, digest, signer, signature)


class TestSlotRetirement:
    """Per-slot state lives from ORDER to (delivery and own COMMIT)."""

    def test_retired_slot_is_never_prepared_again(self, keys_4_1):
        abc, sent, delivered = build_solo(keys_4_1)
        payload = b"first"
        digest = request_digest(0, 0, payload)
        abc.on_message(0, AbcOrder(0, 0, derive_request_id(payload), payload))
        for peer in (0, 2):
            abc.on_message(peer, signed_prepare(keys_4_1, peer, 0, 0, digest))
            abc.on_message(peer, AbcCommit(0, 0, digest, peer, b""))
        assert delivered == [payload]
        assert not any(slot_state_sizes(abc).values()) and abc._retired_below == 1
        assert abc._certificates[0].payload == payload
        # The leader equivocates after the fact: a second ORDER for the
        # retired slot, and a PREPARE for it, cost no signature work.
        crypto_calls = []
        abc.crypto.sign = lambda data: crypto_calls.append("sign") or b""
        abc.crypto.verify = lambda *a: crypto_calls.append("verify") or True
        del sent[:]
        other = b"second"
        abc.on_message(0, AbcOrder(0, 0, derive_request_id(other), other))
        abc.on_message(
            3, signed_prepare(keys_4_1, 3, 0, 0, request_digest(0, 0, other))
        )
        assert sent == [] and crypto_calls == []
        assert abc.stats["retired_slot_msgs"] == 2
        assert not any(slot_state_sizes(abc).values())
        assert delivered == [payload]

    def test_own_prepare_is_not_verified(self, keys_4_1):
        abc, sent, _ = build_solo(keys_4_1)
        verified = []
        real_verify = abc.crypto.verify
        abc.crypto.verify = lambda signer, *a: verified.append(signer) or real_verify(signer, *a)
        payload = b"p"
        abc.on_message(0, AbcOrder(0, 0, derive_request_id(payload), payload))
        abc.on_message(2, signed_prepare(keys_4_1, 2, 0, 0, request_digest(0, 0, payload)))
        assert verified == [2]
        assert set(abc._prepares[(0, 0, request_digest(0, 0, payload))]) == {1, 2}

    def test_prepare_after_own_commit_is_not_verified(self, keys_4_1):
        abc, sent, delivered = build_solo(keys_4_1)
        payload = b"certified"
        digest = request_digest(0, 0, payload)
        abc.on_message(0, AbcOrder(0, 0, derive_request_id(payload), payload))
        for peer in (0, 2):
            abc.on_message(peer, signed_prepare(keys_4_1, peer, 0, 0, digest))
        assert (0, 0) in abc._commit_sent and delivered == []
        # The certificate is formed and COMMIT is out; the fourth PREPARE
        # is shed before its RSA check and the slot completes as before.
        verified = []
        abc.crypto.verify = lambda signer, *a: verified.append(signer) or True
        abc.on_message(3, signed_prepare(keys_4_1, 3, 0, 0, digest))
        assert verified == [] and abc.stats["surplus_prepares"] == 1
        assert set(abc._prepares[(0, 0, digest)]) == {0, 1, 2}
        for peer in (0, 2):
            abc.on_message(peer, AbcCommit(0, 0, digest, peer, b""))
        assert delivered == [payload] and abc._retired_below == 1

    def test_delivered_without_own_commit_keeps_votes_until_certificate(self, keys_4_1):
        abc, sent, delivered = build_solo(keys_4_1)
        payload = b"slow prepares"
        digest = request_digest(0, 0, payload)
        abc.on_message(0, AbcOrder(0, 0, derive_request_id(payload), payload))
        for peer in (0, 2, 3):  # 2t+1 foreign COMMITs, only our own PREPARE
            abc.on_message(peer, AbcCommit(0, 0, digest, peer, b""))
        assert delivered == [payload]
        assert not any(isinstance(m, AbcCommit) for m in sent)
        assert (0, 0) in abc._ordered and abc._retired_below == 0
        assert 0 not in abc._certificates
        # The late PREPAREs complete the certificate: COMMIT goes out (the
        # others may be waiting for it) and only then does the slot retire.
        for peer in (0, 2):
            abc.on_message(peer, signed_prepare(keys_4_1, peer, 0, 0, digest))
        commits = [m for m in sent if isinstance(m, AbcCommit)]
        assert len(commits) == abc.n - 1 and commits[0].digest == digest
        assert len(abc._certificates[0].signatures) == abc.n - abc.t
        assert not any(slot_state_sizes(abc).values()) and abc._retired_below == 1
        assert delivered == [payload]

    def test_out_of_order_retirement_compacts_into_watermark(self, keys_4_1):
        abc, sent, delivered = build_solo(keys_4_1)
        payloads = [b"zero", b"one"]
        digests = [request_digest(0, seq, p) for seq, p in enumerate(payloads)]
        for seq, p in enumerate(payloads):
            abc.on_message(0, AbcOrder(0, seq, derive_request_id(p), p))
        for peer in (0, 2, 3):
            abc.on_message(peer, AbcCommit(0, 0, digests[0], peer, b""))
        for peer in (0, 2):
            abc.on_message(peer, signed_prepare(keys_4_1, peer, 0, 1, digests[1]))
            abc.on_message(peer, AbcCommit(0, 1, digests[1], peer, b""))
        assert delivered == payloads
        assert abc._retired == {1} and abc._retired_below == 0  # slot 0 owes its COMMIT
        for peer in (0, 2):
            abc.on_message(peer, signed_prepare(keys_4_1, peer, 0, 0, digests[0]))
        assert abc._retired == set() and abc._retired_below == 2

    def test_stuck_slot_cannot_pin_the_watermark(self, keys_4_1, monkeypatch):
        monkeypatch.setattr(abc_mod, "MAX_SEQ_AHEAD", 2)
        abc, sent, delivered = build_solo(keys_4_1)
        for seq in range(4):
            payload = f"r{seq}".encode()
            digest = request_digest(0, seq, payload)
            abc.on_message(0, AbcOrder(0, seq, derive_request_id(payload), payload))
            for peer in (0, 2, 3):  # a certificate never forms here
                abc.on_message(peer, AbcCommit(0, seq, digest, peer, b""))
        assert len(delivered) == 4
        assert abc.next_deliver - abc._retired_below == 2
        assert len(abc._ordered) == 2 and abc.stats["out_of_window"] == 2

    def test_leader_ordering_state_is_bounded_by_inflight_slots(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        inject(net, abcs, 2, [f"r{k}".encode() for k in range(40)])
        leader = abcs[0]
        peak = 0

        def watch():
            nonlocal peak
            inflight = leader._next_order_seq - leader._retired_below
            assert len(leader._ordered) <= inflight
            peak = max(peak, len(leader._ordered))
            return False

        net.run(condition=watch)
        assert all(len(delivered[i]) == 40 for i in range(4))
        assert peak > 0
        for abc in abcs:
            assert not any(slot_state_sizes(abc).values()), slot_state_sizes(abc)
            assert abc._retired_below == abc.next_deliver == 40
            assert sorted(abc._certificates) == list(range(40))


class TestRetirementAcrossEpochs:
    def test_lagging_replica_catches_up_from_retired_peers(self, keys_4_1_1024):
        # Three-prime keys: the PREPARE certificates inside the EPOCH_FINALs
        # and the EPOCH_FINALs themselves are checked by peers.
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1_1024)
        net.node(3).dropped = True  # misses the whole first epoch
        early = [f"early{k}".encode() for k in range(5)]
        inject(net, abcs, 2, early)
        net.run(until=50)
        for i in (0, 1, 2):
            assert delivered[i] == delivered[0] and sorted(delivered[i]) == sorted(early)
            assert not any(slot_state_sizes(abcs[i]).values())
            # what EPOCH_FINAL will carry: one certificate per delivered slot
            assert sorted(abcs[i]._certificates) == list(range(5))
        assert delivered[3] == []
        net.node(3).dropped = False
        net.node(0).dropped = True  # the leader crashes
        inject(net, abcs, 2, [b"late"])
        net.run(until=400)
        for i in (1, 2, 3):
            assert abcs[i].epoch >= 1
            assert delivered[i] == delivered[0] + [b"late"], f"replica {i}"
            assert abcs[i].stats["epoch_changes"] >= 1
            sizes = slot_state_sizes(abcs[i])
            assert not any(sizes.values()), sizes
            assert abcs[i]._retired_below == abcs[i].next_deliver
            # vote pools of the finished epoch are gone as well
            assert all(e >= abcs[i].epoch for e in abcs[i]._complaints)
            assert all(e >= abcs[i].epoch for e in abcs[i]._finals)
        assert abcs[3].stats["recovery_deliveries"] == 5

    def test_epoch_change_still_works_past_the_window(self, keys_4_1, monkeypatch):
        # A NEW_EPOCH re-certifies every slot ever delivered; only the
        # slots a replica is actually missing count against its window.
        monkeypatch.setattr(abc_mod, "MAX_SEQ_AHEAD", 4)
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)
        inject(net, abcs, 2, [f"r{k}".encode() for k in range(6)], spacing=1.0)
        net.run(until=50)
        assert all(len(delivered[i]) == 6 for i in range(4))
        net.node(0).dropped = True
        inject(net, abcs, 2, [b"after"])
        net.run(until=400)
        for i in (1, 2, 3):
            assert abcs[i].epoch >= 1 and delivered[i][-1] == b"after", f"replica {i}"


class TestHelpers:
    def test_derive_request_id_deterministic(self):
        assert derive_request_id(b"x") == derive_request_id(b"x")
        assert derive_request_id(b"x") != derive_request_id(b"y")

    def test_request_digest_binds_slot(self):
        assert request_digest(0, 1, b"p") != request_digest(0, 2, b"p")
        assert request_digest(0, 1, b"p") != request_digest(1, 1, b"p")
