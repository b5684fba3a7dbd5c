"""The atomic broadcast's dissemination lanes: digest ORDERs and pulls.

Digest mode: ORDERs carry the payload-derived request id instead of the
payload, a replica the gateway starved pulls it, the serve budget is per
(requester, key), and the empty payload travels full.  ``full`` is the
baseline digest is measured against; nothing else is accepted.
"""

import pytest

from repro.broadcast.abc import AtomicBroadcast
from repro.broadcast.abc import derive_request_id
from repro.broadcast.messages import AbcInitiate, PayloadPull, PayloadReply
from repro.broadcast.recovery import MAX_PULL_SERVES
from repro.errors import ConfigError

from tests.broadcast.harness import ManualTimers, auth_keys, coin_keys, make_lan

N, T = 4, 1


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


def build_abc(n, t, net, keys, dissemination, drop_initiate_at=()):
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
    def test_orders_travel_without_payload(self, keys_4_1):
        payload = b"\xab" * 4096
        order_bytes = {}
        for mode in ("full", "digest"):
            net = make_lan(N)
            abcs, delivered = build_abc(N, T, net, keys_4_1, mode)
            inject(net, abcs, 2, [payload])
            net.run()
            assert all(delivered[i] == [payload] for i in range(N))
            order_bytes[mode] = net.bytes_by_type["AbcOrder"]
        # Leader 0 sends one ORDER to each of the other three replicas.
        assert order_bytes["full"] > 3 * len(payload)
        assert order_bytes["digest"] < 3 * 256

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
        # Another requester has a budget of its own; a stranger and the
        # holder itself have none, and are not counted as refused.
        for requester in (1, 99, 2):
            abc.on_message(requester, PayloadPull(rids[0], b""))
        assert [dest for dest, _m in sent] == [1]
        assert abc.stats["pulls_served"] == 70 + MAX_PULL_SERVES
        assert abc.stats["pulls_refused"] == 1

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
