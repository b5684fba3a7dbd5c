"""One contract for payload recovery, held at two cluster sizes.

``broadcast/recovery.py`` is the atomic broadcast's one pull mechanism:
a replica holding a digest ORDER without the payload pulls it, because
the gateway's INITIATE went missing.  The same four cases run at (4, 1)
and at the (10, 3) target cluster:

* a withheld payload is delivered by a pull;
* a forged reply is rejected and the chain goes on to an honest holder;
* no pull is sent after delivery;
* the happy path sends zero pulls.

The caps tests drive each bound of the component — reply verification,
chain length, the serve budget's key — at both sizes and check the
counter that shows it.
"""

import pytest

from repro.broadcast import abc as abc_mod
from repro.broadcast.abc import AtomicBroadcast, derive_request_id
from repro.broadcast.messages import (
    AbcInitiate,
    AbcOrder,
    AbcPrepare,
    PayloadPull,
    PayloadReply,
)
from repro.broadcast.recovery import MAX_PULL_ROUNDS, MAX_PULL_SERVES

from tests.broadcast.harness import auth_keys, coin_keys, drive, make_lan

#: Cluster size per test id, for the contract and for the caps cases.
CONFIGS = {"abc-digest": (4, 1), "10-3": (10, 3)}
LANES = {"abc": (4, 1), "10-3": (10, 3)}
PAYLOAD = b"\xab" * 2048


def _keys(n, t):
    pairs, pubs = auth_keys(n)
    return pairs, pubs, coin_keys(n, t)


@pytest.fixture(scope="module")
def keys_4_1():
    return _keys(4, 1)


@pytest.fixture(scope="module")
def keys_10_3():
    return _keys(10, 3)


@pytest.fixture
def cluster_keys(config, keys_4_1, keys_10_3):
    return keys_10_3 if CONFIGS[config] == (10, 3) else keys_4_1


@pytest.fixture
def lane_keys(lane, keys_4_1, keys_10_3):
    return keys_10_3 if LANES[lane] == (10, 3) else keys_4_1


class Cluster:
    """A LAN cluster for one config that logs every send.

    ``starve`` makes the last replica miss the payload: it drops the
    INITIATE, so only the leader's digest ORDER reaches it.  Replica 0 — the leader, and so the first
    pull candidate — answers pulls with a forged payload when ``forge``
    is set.  Replica 2 is the gateway.
    """

    def __init__(self, config, keys, starve=False, forge=False):
        self.n, t = CONFIGS[config]
        self.net = make_lan(self.n)
        self.starved = self.n - 1
        self.sends = []  # (time, src, dest, msg)
        self.delivered = {}  # replica -> (time, payload)
        self.starve = starve
        self.forge = forge
        self.drivers = [self._build(t, i, keys) for i in range(self.n)]
        self.net.node(2).run_local(0.0, lambda: self.drivers[2].submit(PAYLOAD))
        self.net.run(until=60)

    def _send(self, src, dest, msg):
        self.sends.append((self.net.node(src).now, src, dest, msg))
        self.net.node(src).send(dest, msg)

    def _deliver(self, i, payload):
        self.delivered.setdefault(i, (self.net.node(i).now, payload))

    def _build(self, t, i, keys):
        pairs, pubs, coins = keys
        replica = AtomicBroadcast(
            self.n, t, i,
            auth_key=pairs[i].private,
            auth_public=pubs,
            coin_key=coins[i],
            timeout=1.0,
        )
        driven = drive(self.net.node(i), replica)
        driven.send = lambda dest, msg: self._send(i, dest, msg)
        driven.deliver = lambda payload: self._deliver(i, payload)

        def handler(sender, msg):
            if i == self.starved and self.starve and isinstance(msg, AbcInitiate):
                return
            if i == 0 and self.forge and isinstance(msg, PayloadPull):
                self._send(0, sender, PayloadReply(msg.sid, msg.digest, b"forged"))
                return
            driven.on_message(sender, msg)

        self.net.node(i).set_handler(handler)
        return driven

    def pulls(self, src=None, after=-1.0):
        return [
            msg for (when, s, _dest, msg) in self.sends
            if isinstance(msg, PayloadPull) and src in (None, s) and when > after
        ]

    def stats(self, i):
        return self.drivers[i].core.stats


@pytest.mark.parametrize("config", CONFIGS)
class TestRecoveryContract:
    def test_withheld_payload_delivered_by_pull(self, config, cluster_keys):
        cluster = Cluster(config, cluster_keys, starve=True)
        assert all(
            cluster.delivered.get(i, (0, None))[1] == PAYLOAD
            for i in range(cluster.n)
        ), sorted(cluster.delivered)
        assert cluster.stats(cluster.starved)["pulls_sent"] > 0
        assert sum(cluster.stats(i)["pulls_served"] for i in range(cluster.n)) > 0
        assert cluster.stats(cluster.starved)["pull_replies_rejected"] == 0

    def test_forged_reply_rejected_chain_moves_on(self, config, cluster_keys):
        cluster = Cluster(config, cluster_keys, starve=True, forge=True)
        starved = cluster.stats(cluster.starved)
        assert cluster.delivered[cluster.starved][1] == PAYLOAD
        assert starved["pull_replies_rejected"] >= 1
        assert starved["pulls_sent"] >= 2  # the forger first, then an honest holder
        targets = [dest for (_w, s, dest, m) in cluster.sends
                   if s == cluster.starved and isinstance(m, PayloadPull)]
        assert targets[0] == 0 and any(dest != 0 for dest in targets)

    def test_no_pull_after_delivery(self, config, cluster_keys):
        cluster = Cluster(config, cluster_keys, starve=True)
        assert cluster.pulls(src=cluster.starved)
        for i in range(cluster.n):
            when, _payload = cluster.delivered[i]
            assert cluster.pulls(src=i, after=when) == [], f"replica {i}"

    def test_happy_path_sends_no_pulls(self, config, cluster_keys):
        cluster = Cluster(config, cluster_keys)
        assert len(cluster.delivered) == cluster.n
        assert cluster.pulls() == []
        assert all(cluster.stats(i)["pulls_sent"] == 0 for i in range(cluster.n))


# -- caps and counters --------------------------------------------------------


def _abc_awaiting(keys, size=(4, 1)):
    """The node-less driver of the last replica of ``size``, holding a
    digest ORDER from leader 0 for a request it never saw; every other
    replica is a pull candidate."""
    n, t = size
    pairs, pubs, coins = keys
    solo = drive(None, AtomicBroadcast(
        n, t, n - 1,
        auth_key=pairs[n - 1].private, auth_public=pubs, coin_key=coins[n - 1],
    ))
    rid = derive_request_id(PAYLOAD)
    solo.on_message(0, AbcOrder(0, 0, rid, b""))
    return solo, (rid, b""), n - 1


def _holder(keys, size):
    """Gateway replica 0 holding PAYLOAD, and the key a pull for it names."""
    n, t = size
    pairs, pubs, coins = keys
    abc = AtomicBroadcast(
        n, t, 0, auth_key=pairs[0].private, auth_public=pubs, coin_key=coins[0]
    )
    drive(None, abc).submit(PAYLOAD)
    return abc, (derive_request_id(PAYLOAD), b"")


@pytest.mark.parametrize("lane", sorted(LANES))
class TestRecoveryCaps:
    def test_serve_budget_counts_refusals(self, lane, lane_keys):
        holder, key = _holder(lane_keys, LANES[lane])
        for _ in range(MAX_PULL_SERVES + 1):
            holder.on_message(2, PayloadPull(*key))
        assert holder.stats["pulls_served"] == MAX_PULL_SERVES
        assert holder.stats["pulls_refused"] == 1
        # Another requester has a budget of its own; a stranger has none.
        holder.on_message(3, PayloadPull(*key))
        holder.on_message(99, PayloadPull(*key))
        assert holder.stats["pulls_served"] == MAX_PULL_SERVES + 1
        assert holder.stats["pulls_refused"] == 1

    def test_fresh_keys_buy_no_budget(self, lane, lane_keys):
        """A pull naming a key the holder does not hold (a fresh digest
        each time) is served nothing and takes no budget entry."""
        holder, key = _holder(lane_keys, LANES[lane])
        for k in range(MAX_PULL_SERVES + 5):
            holder.on_message(2, PayloadPull(key[0], bytes([k]) * 32))
        assert holder.stats["pulls_served"] == 0
        for _ in range(MAX_PULL_SERVES + 1):
            holder.on_message(2, PayloadPull(*key))
        assert holder.stats["pulls_served"] == MAX_PULL_SERVES
        assert len(holder._recovery._served) == 1

    def test_unsolicited_and_forged_replies_counted(self, lane, lane_keys):
        solo, key, _ = _abc_awaiting(lane_keys, LANES[lane])
        solo.on_message(1, PayloadReply(key[0], key[1], b"forged"))
        solo.on_message(1, PayloadReply("elsewhere", key[1], PAYLOAD))
        assert solo.core.stats["pull_replies_rejected"] == 2

    def test_chain_ends_in_one_burst(self, lane, lane_keys):
        solo, key, candidates = _abc_awaiting(lane_keys, LANES[lane])
        assert solo.sent == [] and len(solo.timers) == 1  # first pull waits
        solo.fire_timers()
        pulls = [dest for dest, msg in solo.sent if isinstance(msg, PayloadPull)]
        singles = MAX_PULL_ROUNDS * candidates
        assert len(pulls) == singles + candidates
        assert sorted(pulls[singles:]) == sorted(set(pulls))  # the burst
        assert solo.core.stats["pulls_sent"] == singles + candidates
        assert solo.core.stats["pull_chains_exhausted"] == 1


def test_pulled_order_replays_with_pending_full(keys_4_1, monkeypatch):
    """A pulled payload replays its buffered ORDER even when ``pending``
    is at its cap (unauthenticated INITIATEs can fill it)."""
    monkeypatch.setattr(abc_mod, "MAX_PENDING_REQUESTS", 1)
    solo, key, _ = _abc_awaiting(keys_4_1)
    abc = solo.core
    solo.on_message(1, AbcInitiate(derive_request_id(b"flood"), b"flood"))
    assert len(abc.pending) == 1
    solo.on_message(0, PayloadReply(key[0], key[1], PAYLOAD))
    assert abc.stats["initiates_dropped"] == 1
    assert key[0] not in abc._awaiting_order
    assert [m.seq for _dest, m in solo.sent if isinstance(m, AbcPrepare)] == [0] * 3
    solo.fire_timers()
    assert abc.stats["pulls_sent"] == 0  # the reply closed the chain
