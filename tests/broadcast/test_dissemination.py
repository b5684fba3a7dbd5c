"""The atomic broadcast's dissemination: digest ORDERs and pulls.

ORDERs carry the payload-derived request id instead of the payload, a
replica the gateway starved pulls it, the serve budget is per
(requester, key), and the empty payload travels full.  There is no
other mode to select.
"""

import pytest

from repro.broadcast.abc import AtomicBroadcast
from repro.broadcast.abc import derive_request_id
from repro.broadcast.messages import AbcInitiate, PayloadPull, PayloadReply
from repro.broadcast.recovery import MAX_PULL_SERVES

from tests.broadcast.harness import auth_keys, coin_keys, drive, make_lan

N, T = 4, 1


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


def build_abc(n, t, net, keys, drop_initiate_at=()):
    """One driver (``drive``) per replica."""
    pairs, pubs, coins = keys
    drivers = []
    for i in range(n):
        abc = AtomicBroadcast(
            n, t, i,
            auth_key=pairs[i].private,
            auth_public=pubs,
            coin_key=coins[i],
            timeout=1.0,
        )
        driven = drive(net.node(i), abc)
        drivers.append(driven)

        def handler(s, m, driven=driven, i=i):
            if i in drop_initiate_at and isinstance(m, AbcInitiate):
                return  # simulate a gateway withholding the payload
            driven.on_message(s, m)

        net.node(i).set_handler(handler)
    return drivers


def inject(net, drivers, replica, payloads, spacing=0.001):
    for k, payload in enumerate(payloads):
        net.node(replica).run_local(
            spacing * k, lambda p=payload: drivers[replica].submit(p)
        )


class TestAbcDigestMode:
    def test_orders_travel_without_payload(self, keys_4_1):
        payload = b"\xab" * 4096
        net = make_lan(N)
        drivers = build_abc(N, T, net, keys_4_1)
        inject(net, drivers, 2, [payload])
        net.run()
        assert all(d.delivered == [payload] for d in drivers)
        # Leader 0 sends one ORDER to each of the other three replicas;
        # the payload reaches them once each, in the gateway's INITIATE.
        assert net.bytes_by_type["AbcOrder"] < 3 * 256
        assert net.bytes_by_type["AbcInitiate"] > 3 * len(payload)

    def test_starved_replica_pulls_and_stays_ordered(self, keys_4_1):
        net = make_lan(4)
        drivers = build_abc(4, 1, net, keys_4_1, drop_initiate_at=(3,))
        inject(net, drivers, 2, [f"req-{k}".encode() * 40 for k in range(3)])
        net.run(until=120)
        orders = {tuple(d.delivered) for d in drivers}
        assert len(orders) == 1 and len(drivers[3].delivered) == 3
        assert drivers[3].core.stats["pulls_sent"] > 0
        assert sum(d.core.stats["pulls_served"] for d in drivers) > 0

    def test_serve_budget_is_per_key_not_per_process(self, keys_4_1):
        """An honest peer pulling many distinct payloads is served every
        time; only repeats of one key hit the budget."""
        pairs, pubs, coins = keys_4_1
        abc = AtomicBroadcast(
            4, 1, 2,
            auth_key=pairs[2].private,
            auth_public=pubs,
            coin_key=coins[2],
        )
        solo = drive(None, abc)
        held = [f"held-{k}".encode() for k in range(70)]
        for payload in held:
            solo.submit(payload)
        rids = [derive_request_id(payload) for payload in held]
        sent = solo.sent
        sent.clear()
        for rid in rids:
            solo.on_message(3, PayloadPull(rid, b""))
        replies = [m for dest, m in sent if dest == 3 and isinstance(m, PayloadReply)]
        assert len(replies) == 70
        for _ in range(MAX_PULL_SERVES - 1):
            solo.on_message(3, PayloadPull(rids[0], b""))
        sent.clear()
        solo.on_message(3, PayloadPull(rids[0], b""))  # the 4th for one key
        assert sent == []
        assert abc.stats["pulls_refused"] == 1
        assert abc.stats["pulls_served"] == 70 + MAX_PULL_SERVES - 1
        # Another requester has a budget of its own; a stranger and the
        # holder itself have none, and are not counted as refused.
        for requester in (1, 99, 2):
            solo.on_message(requester, PayloadPull(rids[0], b""))
        assert [dest for dest, _m in sent] == [1]
        assert abc.stats["pulls_served"] == 70 + MAX_PULL_SERVES
        assert abc.stats["pulls_refused"] == 1

    def test_empty_payload_travels_full(self, keys_4_1):
        # b"" hashes to the sentinel rid, so its ORDER must not be
        # mistaken for digest framing.
        net = make_lan(4)
        drivers = build_abc(4, 1, net, keys_4_1)
        inject(net, drivers, 1, [b""])
        net.run()
        assert all(d.delivered == [b""] for d in drivers)
        assert all(d.core.stats["pulls_sent"] == 0 for d in drivers)

    def test_unknown_mode_rejected(self, keys_4_1):
        # Digest ORDERs are the only mode: there is no argument to pick one.
        pairs, pubs, coins = keys_4_1
        with pytest.raises(TypeError):
            AtomicBroadcast(
                4, 1, 0,
                auth_key=pairs[0].private,
                auth_public=pubs,
                coin_key=coins[0],
                dissemination="full",
            )
