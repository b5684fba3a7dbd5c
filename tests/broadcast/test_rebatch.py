"""Leader-side batching: a backlog is ordered as one slot.

The leader orders at once while none of its slots is undelivered;
requests that arrive meanwhile — or that piled up during an epoch
switch — are framed into batch frames of up to ``rebatch_max`` payloads
per sequence slot, instead of running one agreement instance per
request.  The first half crashes the epoch-0 leader with a backlog
outstanding and checks the frames, the dedupe bookkeeping, and the
delivered contents; ``TestSelfClockedOrdering`` covers the steady state.
"""

import pytest

from repro.broadcast.abc import AtomicBroadcast, derive_request_id
from repro.broadcast.messages import AbcOrder, encode_batch, is_batch_payload
from repro.errors import ConfigError

from tests.broadcast.harness import auth_keys, coin_keys, make_lan, unwrap


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    coins = coin_keys(4, 1)
    return pairs, pubs, coins


def build(n, t, net, keys, timeout=1.0, rebatch_max=1):
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
            timeout=timeout,
            rebatch_max=rebatch_max,
        )
        abcs.append(abc)
        node.set_handler(lambda s, m, abc=abc: abc.on_message(s, m))
    return abcs, delivered


def inject(net, abcs, replica, payloads, spacing=0.001):
    for k, payload in enumerate(payloads):
        net.node(replica).run_local(
            spacing * k, lambda p=payload: abcs[replica].a_broadcast(p)
        )


def test_rebatch_max_is_validated(keys_4_1):
    net = make_lan(4)
    pairs, pubs, coins = keys_4_1
    node = net.node(0)
    with pytest.raises(ConfigError):
        AtomicBroadcast(
            4, 1, 0,
            auth_key=pairs[0].private,
            auth_public=pubs,
            coin_key=coins[0],
            deliver=lambda rid, payload: None,
            send=node.send,
            schedule=node.schedule_timer,
            rebatch_max=0,
        )


def test_new_leader_rebatches_backlog(keys_4_1):
    net = make_lan(4)
    abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=4)
    payloads = [f"backlog{k}".encode() for k in range(6)]
    net.node(0).dropped = True
    inject(net, abcs, 2, payloads)
    net.run(until=300)
    # The new leader re-framed 6 pending requests into ceil(6/4) = 2 slots.
    leader = abcs[1]
    assert leader.stats["rebatches"] == 2
    assert leader.stats["rebatched_requests"] == 6
    for i in (1, 2, 3):
        assert sorted(unwrap(delivered[i])) == sorted(payloads), f"replica {i}"
    # Everyone delivered the same frames in the same total order.
    orders = {tuple(delivered[i]) for i in (1, 2, 3)}
    assert len(orders) == 1
    # At least one delivered payload really is a batch frame.
    assert any(is_batch_payload(p) for p in delivered[1])


def test_rebatch_disabled_by_default(keys_4_1):
    net = make_lan(4)
    abcs, delivered = build(4, 1, net, keys_4_1)  # rebatch_max=1
    payloads = [f"solo{k}".encode() for k in range(3)]
    net.node(0).dropped = True
    inject(net, abcs, 2, payloads)
    net.run(until=300)
    for abc in abcs[1:]:
        assert abc.stats["rebatches"] == 0
    for i in (1, 2, 3):
        assert sorted(delivered[i]) == sorted(payloads), f"replica {i}"
        assert not any(is_batch_payload(p) for p in delivered[i])


def test_single_request_backlog_is_not_framed(keys_4_1):
    net = make_lan(4)
    abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=8)
    net.node(0).dropped = True
    inject(net, abcs, 2, [b"only-one"])
    net.run(until=300)
    assert abcs[1].stats["rebatches"] == 0
    for i in (1, 2, 3):
        assert delivered[i] == [b"only-one"], f"replica {i}"


def test_rebatched_requests_stay_deduplicated(keys_4_1):
    net = make_lan(4)
    abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=4)
    payloads = [f"dedupe{k}".encode() for k in range(4)]
    net.node(0).dropped = True
    inject(net, abcs, 2, payloads)
    net.run(until=300)
    assert sorted(unwrap(delivered[1])) == sorted(payloads)
    # Re-broadcasting a payload that was delivered inside a re-batched
    # frame must be deduplicated (its request id was marked delivered),
    # while genuinely new traffic still goes through.
    inject(net, abcs, 3, [payloads[0], b"fresh"])
    net.run(until=600)
    for i in (1, 2, 3):
        flat = unwrap(delivered[i])
        assert flat.count(payloads[0]) == 1, f"replica {i}"
        assert flat.count(b"fresh") == 1, f"replica {i}"


class TestSelfClockedOrdering:
    """One slot of the leader's in flight; the rest rides in the next."""

    def test_backlog_behind_a_slot_in_flight_is_one_frame(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=8)
        backlog = [f"held{k}".encode() for k in range(5)]
        # The leader orders the first request at once; no message has
        # moved yet, so its slot is still in flight when the rest arrive.
        abcs[0].a_broadcast(b"first")
        for k, payload in enumerate(backlog):
            abcs[k % 4].a_broadcast(payload)
        net.run()
        frame = encode_batch(sorted(backlog, key=derive_request_id))
        for i in range(4):
            assert delivered[i] == [b"first", frame], f"replica {i}"
            assert abcs[i].next_deliver == 2
            assert abcs[i].stats["epoch_changes"] == 0
            assert not abcs[i].pending
        assert abcs[0].stats["rebatches"] == 1
        assert abcs[0].stats["rebatched_requests"] == 5
        # Members were delivered under their own ids: a re-INITIATE is
        # deduplicated, not ordered again; new traffic still flows.
        inject(net, abcs, 3, [backlog[0], b"fresh"])
        net.run()
        for i in range(4):
            assert delivered[i] == [b"first", frame, b"fresh"], f"replica {i}"

    def test_lone_requests_are_ordered_at_once_and_unframed(self, keys_4_1):
        payloads = [f"lone{k}".encode() for k in range(3)]

        def run(rebatch_max):
            net = make_lan(4)
            abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=rebatch_max)
            times = []
            abcs[0]._deliver = lambda rid, payload: times.append(net.sim.now)
            # Spaced far wider than a slot takes: never two in flight.
            inject(net, abcs, 2, payloads, spacing=1.0)
            net.run()
            assert abcs[0].stats["rebatches"] == 0
            assert delivered[1] == payloads
            return times

        # No hold, no frame — and not a microsecond of added latency.
        assert run(rebatch_max=8) == run(rebatch_max=1)

    def test_rebatch_max_one_never_holds(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1)  # rebatch_max=1
        payloads = [f"solo{k}".encode() for k in range(4)]
        for payload in payloads:
            abcs[0].a_broadcast(payload)
        assert abcs[0]._next_order_seq == 4  # all four ordered immediately
        net.run()
        for i in range(4):
            assert sorted(delivered[i]) == sorted(payloads)
            assert abcs[i].next_deliver == 4

    def test_stale_order_counter_does_not_block_a_new_leader(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=4)
        # As if replica 1 had led before and ordered three slots nobody
        # certified: the counter must not read as "slots in flight", nor
        # order past a gap that is never filled.
        abcs[1]._next_order_seq = 3
        net.node(0).dropped = True
        payloads = [b"after-a", b"after-b"]
        inject(net, abcs, 2, payloads)
        net.run(until=300)
        for i in (1, 2, 3):
            assert sorted(unwrap(delivered[i])) == sorted(payloads), f"replica {i}"
            assert abcs[i].epoch == 1  # one switch, no second stall
            assert abcs[i].next_deliver == 1

    def test_stuck_slot_ends_in_epoch_change_and_backlog_is_ordered(self, keys_4_1):
        net = make_lan(4)
        abcs, delivered = build(4, 1, net, keys_4_1, rebatch_max=8)
        # A leader whose ORDERs never leave: its slot stays in flight, so
        # everything after it is held — in ``pending``, under the timer.
        send = abcs[0]._send
        abcs[0]._send = lambda dest, msg: (
            None if isinstance(msg, AbcOrder) else send(dest, msg)
        )
        payloads = [b"stuck"] + [f"behind{k}".encode() for k in range(3)]
        abcs[0].a_broadcast(payloads[0])
        inject(net, abcs, 2, payloads[1:])
        net.run(until=300)
        for i in range(4):
            assert abcs[i].epoch == 1, f"replica {i}"
            assert sorted(unwrap(delivered[i])) == sorted(payloads), f"replica {i}"
            assert not abcs[i].pending
        assert len({tuple(delivered[i]) for i in range(4)}) == 1
        # The new leader ordered the whole held backlog as one slot.
        assert abcs[1].stats["rebatches"] == 1
        assert abcs[1].stats["rebatched_requests"] == 4
