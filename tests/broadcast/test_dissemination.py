"""The big-n broadcast plane: digest votes, pulls, and erasure dispersal.

RBC-level attacks run at the (10, 3) target cluster — duplicate and
equivocating echo votes, a Byzantine sender that withholds the payload
after the digest quorum formed (the pull fallback must deliver), and
inconsistently erasure-coded batches (no honest replica may deliver).
ABC-level tests drive the same machinery end to end through the atomic
broadcast: digest ORDERs resolved by pull, the empty-payload edge, and
erasure dispersal with reconstruction.
"""

import pytest

from repro.broadcast.abc import AtomicBroadcast
from repro.broadcast.messages import (
    AbcInitiate,
    PayloadPull,
    PayloadReply,
    RbcEchoDigest,
    RbcFrag,
    RbcSend,
    RbcVal,
)
from repro.broadcast.rbc import RbcInstance, ReliableBroadcast
from repro.broadcast.recovery import MAX_PULL_SERVES
from repro.crypto.merkle import merkle_proof, merkle_root
from repro.errors import ConfigError
from repro.util.erasure import rs_encode

from tests.broadcast.harness import ManualTimers, auth_keys, coin_keys, make_lan

N, T = 10, 3
K = N - 2 * T


def build_rbc(n, t, net, mode):
    """RBC multiplexers with the pull-retry timer plumbing wired in."""
    delivered = {i: {} for i in range(n)}
    rbcs = []
    for i in range(n):
        node = net.node(i)

        def emit(outs, i=i):
            for dest, msg in outs:
                if dest == -1:
                    for peer in range(n):
                        if peer != i:
                            net.node(i).send(peer, msg)
                elif dest != i:
                    net.node(i).send(dest, msg)

        rbc = ReliableBroadcast(
            n, t, i,
            deliver=lambda sid, p, i=i: delivered[i].__setitem__(sid, p),
            mode=mode,
            schedule=node.schedule_timer,
            emit=emit,
        )
        rbcs.append(rbc)
        node.set_handler(
            lambda s, m, rbc=rbc, emit=emit: emit(rbc.on_message(s, m))
        )

    def send_all(sender, outs):
        for dest, msg in outs:
            if dest == -1:
                for peer in range(n):
                    if peer != sender:
                        net.node(sender).send(peer, msg)
            elif dest != sender:
                net.node(sender).send(dest, msg)

    return rbcs, delivered, send_all


class TestRbcDigestMode:
    def test_delivers_without_payload_echoes(self):
        net = make_lan(N)
        rbcs, delivered, send_all = build_rbc(N, T, net, "digest")
        payload = b"\xab" * 4096
        send_all(0, rbcs[0].broadcast("s", payload))
        net.run()
        assert all(delivered[i].get("s") == payload for i in range(N))
        # The whole point: no full-payload echo ever hits the wire.
        assert "RbcEcho" not in net.bytes_by_type
        assert net.bytes_by_type["RbcEchoDigest"] > 0

    def test_duplicate_echo_votes_counted_once(self):
        inst = RbcInstance(N, T, me=0, sid="s", mode="digest")
        digest = b"\x42" * 32
        for _ in range(5):
            inst.on_message(4, RbcEchoDigest("s", digest))
        assert len(inst._echoes[digest]) == 1
        assert not inst._sent_ready  # one voter is far below n - t

    def test_equivocating_echo_votes_dropped(self):
        inst = RbcInstance(N, T, me=0, sid="s", mode="digest")
        first, second = b"\x01" * 32, b"\x02" * 32
        inst.on_message(4, RbcEchoDigest("s", first))
        inst.on_message(4, RbcEchoDigest("s", second))
        assert len(inst._echoes[first]) == 1
        assert second not in inst._echoes  # equivocation: vote ignored

    def test_equivocating_echoes_cannot_split_cluster(self):
        net = make_lan(N)
        rbcs, delivered, send_all = build_rbc(N, T, net, "digest")
        payload = b"good payload" * 100
        # Replica 5 seeds half the cluster with a forged digest before the
        # honest broadcast; its genuine echo then conflicts and is dropped
        # at those receivers, but 9 other honest voters still clear n - t.
        for peer in (1, 2, 3, 4):
            net.node(5).send(peer, RbcEchoDigest("s", b"\x11" * 32))
        send_all(0, rbcs[0].broadcast("s", payload))
        net.run()
        values = {delivered[i].get("s") for i in range(N)}
        assert values == {payload}

    def test_withholding_sender_pull_delivers(self):
        """Byzantine sender SENDs to exactly n - t replicas: the digest
        quorum forms everywhere, and the starved replicas must obtain the
        payload through the pull fallback."""
        net = make_lan(N)
        rbcs, delivered, send_all = build_rbc(N, T, net, "digest")
        payload = b"withheld from 8 and 9" * 50
        for dest in range(1, 1 + (N - T)):  # replicas 1..7 only
            net.node(0).send(dest, RbcSend("s", payload))
        net.run(until=60)
        for i in range(1, N):
            assert delivered[i].get("s") == payload, f"replica {i}"
        assert net.bytes_by_type.get("PayloadPull", 0) > 0
        assert net.bytes_by_type.get("PayloadReply", 0) > 0

    def test_pull_serve_budget_per_requester(self):
        rbc = ReliableBroadcast(N, T, 0, deliver=lambda sid, p: None)
        payload = b"served"
        rbc.on_message(0, RbcSend("s", payload))
        digest = next(iter(rbc._instances["s"]._payload_by_digest))
        responses = [
            rbc.on_message(4, PayloadPull("s", digest))
            for _ in range(MAX_PULL_SERVES + 3)
        ]
        assert sum(1 for r in responses if r) == MAX_PULL_SERVES
        assert rbc.stats["pulls_refused"] == 3


class TestRbcErasureMode:
    def test_delivers_without_send(self):
        net = make_lan(N)
        rbcs, delivered, send_all = build_rbc(N, T, net, "erasure")
        payload = b"\xcd" * 4096
        send_all(0, rbcs[0].broadcast("s", payload))
        net.run()
        assert all(delivered[i].get("s") == payload for i in range(N))
        assert "RbcSend" not in net.bytes_by_type
        assert net.bytes_by_type["RbcVal"] > 0
        assert net.bytes_by_type["RbcFrag"] > 0

    def test_tampered_fragment_rejected(self):
        net = make_lan(N)
        rbcs, delivered, send_all = build_rbc(N, T, net, "erasure")
        payload = b"\x5a" * 1024
        frags = rs_encode(payload, K, N)
        root = merkle_root(frags)
        # Replica 5 floods proof-less garbage for the genuine root; every
        # receiver drops it at Merkle verification and delivery proceeds.
        for peer in range(N):
            if peer != 5:
                net.node(5).send(
                    peer,
                    RbcFrag("s", root, 3, b"\x00" * len(frags[3]),
                            merkle_proof(frags, 3)),
                )
        send_all(0, rbcs[0].broadcast("s", payload))
        net.run()
        assert all(delivered[i].get("s") == payload for i in range(N))

    def test_inconsistent_encoding_delivers_nowhere(self):
        """AVID-M consistency: a sender that Merkle-commits to fragments
        of two different payloads is rejected identically everywhere —
        every reconstruction fails the re-encode check."""
        net = make_lan(N)
        rbcs, delivered, send_all = build_rbc(N, T, net, "erasure")
        frags_a = rs_encode(b"A" * 640, K, N)
        frags_b = rs_encode(b"B" * 640, K, N)
        mixed = frags_a[:5] + frags_b[5:]
        root = merkle_root(mixed)
        for i in range(1, N):
            net.node(0).send(
                i, RbcVal("s", root, i, mixed[i], merkle_proof(mixed, i))
            )
        net.run(until=60)
        assert all(delivered[i] == {} for i in range(N))


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


def build_abc(n, t, net, keys, dissemination, erasure_min_bytes=1,
              drop_initiate_at=()):
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
            deliver=lambda rid, payload, i=i: delivered[i].append(payload),
            send=node.send,
            schedule=node.schedule_timer,
            timeout=1.0,
            dissemination=dissemination,
            erasure_min_bytes=erasure_min_bytes,
        )
        abcs.append(abc)

        def handler(s, m, abc=abc, i=i):
            if i in drop_initiate_at and isinstance(m, AbcInitiate):
                return  # simulate a gateway withholding the payload
            abc.on_message(s, m)

        node.set_handler(handler)
    return abcs, delivered


def inject(net, abcs, replica, payloads, spacing=0.001):
    for k, payload in enumerate(payloads):
        net.node(replica).run_local(
            spacing * k, lambda p=payload: abcs[replica].a_broadcast(p)
        )


class TestAbcDigestMode:
    def test_starved_replica_pulls_and_stays_ordered(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build_abc(
            4, 1, net, keys_4_1, "digest", drop_initiate_at=(3,)
        )
        inject(net, abcs, 2, [f"req-{k}".encode() * 40 for k in range(3)])
        net.run(until=120)
        orders = {tuple(delivered[i]) for i in range(4)}
        assert len(orders) == 1 and len(delivered[3]) == 3
        assert abcs[3].stats["pulls_sent"] > 0
        assert sum(abc.stats["pulls_served"] for abc in abcs) > 0

    def test_serve_budget_is_per_key_not_per_process(self, keys_4_1):
        """An honest peer pulling many distinct payloads is served every
        time; only repeats of one key hit the budget."""
        pairs, pubs, coins = keys_4_1
        sent = []
        abc = AtomicBroadcast(
            4, 1, 2,
            auth_key=pairs[2].private,
            auth_public=pubs,
            coin_key=coins[2],
            deliver=lambda rid, payload: None,
            send=lambda dest, msg: sent.append((dest, msg)),
            schedule=ManualTimers(),
        )
        rids = [abc.a_broadcast(f"held-{k}".encode()) for k in range(70)]
        sent.clear()
        for rid in rids:
            abc.on_message(3, PayloadPull(rid, b""))
        replies = [m for dest, m in sent if dest == 3 and isinstance(m, PayloadReply)]
        assert len(replies) == 70
        for _ in range(MAX_PULL_SERVES - 1):
            abc.on_message(3, PayloadPull(rids[0], b""))
        sent.clear()
        abc.on_message(3, PayloadPull(rids[0], b""))  # the 4th for one key
        assert sent == []
        assert abc.stats["pulls_refused"] == 1
        assert abc.stats["pulls_served"] == 70 + MAX_PULL_SERVES - 1

    def test_empty_payload_travels_full(self, keys_4_1):
        # b"" hashes to the sentinel rid, so its ORDER must not be
        # mistaken for digest framing.
        net = make_lan(4)
        abcs, delivered = build_abc(4, 1, net, keys_4_1, "digest")
        inject(net, abcs, 1, [b""])
        net.run()
        assert all(delivered[i] == [b""] for i in range(4))
        assert all(abc.stats["pulls_sent"] == 0 for abc in abcs)

    def test_unknown_mode_rejected(self, keys_4_1):
        net = make_lan(4)
        with pytest.raises(ConfigError):
            build_abc(4, 1, net, keys_4_1, "telepathy")


class TestAbcErasureMode:
    def test_dispersal_reconstruction_total_order(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build_abc(4, 1, net, keys_4_1, "erasure")
        payloads = [f"batch-{k}".encode() * 64 for k in range(4)]
        inject(net, abcs, 2, payloads)
        net.run(until=120)
        orders = {tuple(delivered[i]) for i in range(4)}
        assert len(orders) == 1
        assert set(delivered[0]) == set(payloads)
        assert sum(abc.stats["erasure_disperses"] for abc in abcs) >= 4
        assert sum(abc.stats["erasure_reconstructions"] for abc in abcs) > 0

    def test_small_payloads_skip_dispersal(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build_abc(
            4, 1, net, keys_4_1, "erasure", erasure_min_bytes=10_000
        )
        inject(net, abcs, 1, [b"tiny"])
        net.run()
        assert all(delivered[i] == [b"tiny"] for i in range(4))
        assert all(abc.stats["erasure_disperses"] == 0 for abc in abcs)
