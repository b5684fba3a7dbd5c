"""The broadcast plane's effect lists keep the order they were produced in.

A replica applies its atomic broadcast's effects strictly in order, so a
delivery executes before the sends that follow it leave (on the
simulator they depart later, after the execution's CPU time), and each
delivered slot's requests are named by the ids that slot's delivery
derived.  Here the leader's one handler delivers two slots and then
orders the backlog that queued behind them.
"""

import pytest

from repro.broadcast.abc import AtomicBroadcast, derive_request_id, request_digest
from repro.broadcast.effects import CancelTimer, Deliver, Send, SetTimer
from repro.broadcast.messages import AbcCommit, AbcOrder, decode_batch

from tests.broadcast.harness import auth_keys, coin_keys, drive
from tests.broadcast.test_abc import prepare_from


@pytest.fixture(scope="module")
def keys_4_1():
    pairs, pubs = auth_keys(4)
    return pairs, pubs, coin_keys(4, 1)


def certify(solo, keys, seq, payload, commit=True):
    """Peers 1 and 2 PREPARE (and COMMIT) the leader's slot ``seq``."""
    digest = request_digest(0, seq, payload)
    for peer in (1, 2):
        solo.on_message(peer, prepare_from(peer, 0, seq, digest))
    if commit:
        for peer in (1, 2):
            solo.on_message(peer, AbcCommit(0, seq, digest, peer, b""))
    return digest


def test_two_deliveries_precede_the_next_order(keys_4_1):
    pairs, pubs, coins = keys_4_1
    leader = AtomicBroadcast(
        4, 1, 0,
        auth_key=pairs[0].private, auth_public=pubs, coin_key=coins[0],
        rebatch_max=2,
    )
    solo = drive(None, leader)
    solo.submit(b"first")  # slot 0, ordered at once
    held = [f"held-{k}".encode() for k in range(4)]
    for payload in held:  # queue behind slot 0
        solo.submit(payload)
    certify(solo, keys_4_1, 0, b"first")
    # Slot 0 delivered: the backlog went out as two frames, slots 1 and 2.
    frames = {
        msg.seq: leader._ordered[(0, msg.seq)][1]
        for _dest, msg in solo.sent
        if isinstance(msg, AbcOrder) and msg.seq > 0
    }
    assert sorted(frames) == [1, 2]
    late = [b"late-a", b"late-b"]
    for payload in late:  # queue behind slots 1 and 2
        solo.submit(payload)
    certify(solo, keys_4_1, 2, frames[2])  # slot 2 commits first, waits
    digest = certify(solo, keys_4_1, 1, frames[1], commit=False)
    solo.on_message(1, AbcCommit(0, 1, digest, 1, b""))

    effects = leader.on_message(2, AbcCommit(0, 1, digest, 2, b""))

    delivered = [(i, e) for i, e in enumerate(effects) if isinstance(e, Deliver)]
    orders = [
        i for i, e in enumerate(effects)
        if isinstance(e, Send) and isinstance(e.msg, AbcOrder)
    ]
    assert [e.payload for _i, e in delivered] == [frames[1], frames[2]]
    assert len(orders) == 3 and all(e.msg.seq == 3 for e in (effects[i] for i in orders))
    # In the order produced: both slots deliver, then the timer moves,
    # then the ORDER that carries the late backlog goes out.
    kinds = [type(e) for e in effects]
    assert kinds.index(CancelTimer) > delivered[-1][0]
    assert kinds.index(SetTimer) < orders[0]
    assert delivered[-1][0] < orders[0]
    # Each delivery names its own entries, not the other slot's.
    for _i, item in delivered:
        entries = decode_batch(item.payload)
        assert {entry: item.entry_ids[entry] for entry in entries} == {
            entry: derive_request_id(entry) for entry in entries
        }
        assert item.entry_ids[item.payload] == item.request_id
        assert len(item.entry_ids) == len(entries) + 1
    assert set(delivered[0][1].entry_ids).isdisjoint(delivered[1][1].entry_ids)
    # The ORDER's frame is the late backlog.
    assert sorted(decode_batch(leader._ordered[(0, 3)][1])) == sorted(late)


class _Timer:
    """A node timer that logs its arming and its cancelling."""

    def __init__(self, log, delay):
        self.log, self.delay = log, delay
        log.append(("set", delay))

    def cancel(self):
        self.log.append(("cancel", self.delay))


def test_replica_applies_effects_in_the_order_produced():
    """``ReplicaServer._apply`` keeps the list's order across kinds."""
    from repro.config import ServiceConfig
    from repro.core.service import ReplicatedNameService
    from repro.sim.machines import lan_setup

    replica = ReplicatedNameService(
        ServiceConfig(n=4, t=1), topology=lan_setup(4)
    ).replicas[1]
    log = []
    replica.node.send = lambda dest, msg: log.append(("send", dest, msg))
    replica.node.schedule_timer = lambda delay, thunk: _Timer(log, delay)
    suspect, stalled = ("abc", "suspect", 0), ("abc", "stalled", 0)
    replica._apply(
        [
            Send(2, "first"),
            SetTimer(suspect, 1.0),
            Deliver("rid", b"payload"),
            CancelTimer(suspect),
            SetTimer(stalled, 2.0),
            Send(3, "last"),
        ],
        lambda item: log.append(("deliver", item.payload)),
    )
    assert log == [
        ("send", 2, "first"),
        ("set", 1.0),
        ("deliver", b"payload"),
        ("cancel", 1.0),
        ("set", 2.0),
        ("send", 3, "last"),
    ]
    assert set(replica._timers) == {stalled}
