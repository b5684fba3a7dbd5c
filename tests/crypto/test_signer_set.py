"""Designated signer sets: who signs first, who signs on evidence.

Three groups of tests:

* ``signers == n`` *is* the all-n protocol of the paper: a fixed
  transcript per protocol at (4,1) pins every outgoing message and every
  replica's op log, as produced by the all-n implementation;
* with the default ``signers = t+1`` only the designated set ``D`` signs
  at session start, and each trigger (failed assembly, proof request,
  timer) releases the other replicas;
* suspicion lapses after a while, doubles on a repeat offence, is
  bounded by ``n`` and never affects safety.
"""

from __future__ import annotations

import hashlib
from typing import Dict, FrozenSet, List, Tuple

import pytest

from repro.crypto.protocols import (
    BROADCAST,
    OP_GENERATE_SHARE,
    PROTOCOL_BASIC,
    PROTOCOL_OPTPROOF,
    PROTOCOL_OPTTE,
    SUSPICION_SESSIONS,
    SigningCoordinator,
    SigningMessage,
    designated_signers,
)
from repro.errors import ConfigError
from tests.crypto.test_protocols import _invert

SESSIONS = (
    ("pin-a", b"sig-target: a.example.com. A 192.0.2.1"),
    ("pin-b", b"sig-target: b.example.com. A 192.0.2.2"),
)


def _describe(sender: int, dest: int, msg: SigningMessage, public, data: bytes) -> str:
    head = f"{sender}->{dest} {msg.sign_id}"
    if msg.is_share:
        assert msg.share is not None
        return f"{head} share idx={msg.share.index} proof={msg.share.proof is not None}"
    if msg.is_final:
        return f"{head} final ok={public.signature_is_valid(data, msg.signature)}"
    if msg.is_signature_request:
        return f"{head} signature-request"
    return f"{head} proof-request"


def run_transcript(
    key,
    protocol: str,
    corrupted: FrozenSet[int] = frozenset(),
    bad_first: bool = False,
    **coordinator_kwargs,
) -> Tuple[List[str], List[List[Tuple[str, int]]], List[SigningCoordinator]]:
    """Two sessions over ``n`` coordinators with synchronous FIFO delivery.

    Session ``pin-a`` starts everywhere at once.  In ``pin-b`` replica 0
    starts first, so its peers buffer its messages before their own
    ``sign``.  ``corrupted`` replicas bit-invert their outgoing shares and
    finals; ``bad_first`` delivers their messages before anyone else's.
    Returns the normalized transcript (proof nonces are random, so only
    their presence is recorded), each replica's op log and the
    coordinators.
    """
    public, shares = key
    n = public.n
    data_of = dict(SESSIONS)
    coordinators = [
        SigningCoordinator(protocol, shares[i], **coordinator_kwargs) for i in range(n)
    ]
    queue: List[Tuple[int, int, SigningMessage]] = []
    lines: List[str] = []

    def push(sender: int, outs) -> None:
        for dest, msg in outs:
            if sender in corrupted and msg.is_share and msg.share is not None:
                msg = SigningMessage.share_message(
                    msg.sign_id, _invert(msg.share, public.modulus)
                )
            if sender in corrupted and msg.is_final:
                msg = SigningMessage.final(
                    msg.sign_id, bytes(b ^ 0xFF for b in msg.signature)
                )
            lines.append(_describe(sender, dest, msg, public, data_of[msg.sign_id]))
            for target in range(n) if dest == -1 else [dest]:
                if target != sender:
                    queue.append((sender, target, msg))

    def drain() -> None:
        steps = 0
        while queue:
            steps += 1
            assert steps < 10_000, "signing livelock"
            if bad_first:
                queue.sort(key=lambda item: 0 if item[0] in corrupted else 1)
            sender, dest, msg = queue.pop(0)
            push(dest, coordinators[dest].on_message(sender, msg))

    (sid_a, data_a), (sid_b, data_b) = SESSIONS
    for i in range(n):
        push(i, coordinators[i].sign(sid_a, data_a))
    drain()
    push(0, coordinators[0].sign(sid_b, data_b))
    drain()
    for i in range(1, n):
        push(i, coordinators[i].sign(sid_b, data_b))
        drain()
    ops = [c.drain_ops() for c in coordinators]
    return lines, ops, coordinators


def transcript_digest(lines: List[str], ops: List[List[Tuple[str, int]]]) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    for i, log in enumerate(ops):
        h.update(f"ops {i}: {log!r}\n".encode())
    return h.hexdigest()


# Captured from the all-n implementation (every replica signs at session
# start, no own share in the optimistic pools): (protocol, scenario) ->
# (messages sent, digest of transcript + op logs).
PARENT_PINS: Dict[Tuple[str, str], Tuple[int, str]] = {
    ("basic", "honest"): (8, "4d42de4a73a5117dd1838f5a99cf60f0820d943d51f20baa13c646403209f7b7"),
    ("basic", "bad-first"): (8, "282701a1d16d8d6c8a7c701132c3114416bd7234efe8efd7e667ca73136c843f"),
    ("optproof", "honest"): (16, "9ddcf5591b59269295fd4ae6ab30acba8a7d410b6f9778172539af0e9b5d973c"),
    ("optproof", "bad-first"): (28, "05b830373113495dc2caf60c35a51118dbf3430e2434e43bd577476dfae7b932"),
    ("optte", "honest"): (16, "9ddcf5591b59269295fd4ae6ab30acba8a7d410b6f9778172539af0e9b5d973c"),
    ("optte", "bad-first"): (16, "99987b71c059a8134673ba142e0d1deccc704dff30e573270a8d7629e3fa66ac"),
}

SCENARIOS = {
    "honest": dict(corrupted=frozenset(), bad_first=False),
    "bad-first": dict(corrupted=frozenset({1}), bad_first=True),
}


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
@pytest.mark.parametrize("protocol", [PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE])
def test_all_n_signers_reproduce_the_parent_transcript(threshold_4_1, protocol, scenario):
    public, _ = threshold_4_1
    lines, ops, coordinators = run_transcript(
        threshold_4_1, protocol, signers=public.n, **SCENARIOS[scenario]
    )
    assert (len(lines), transcript_digest(lines, ops)) == PARENT_PINS[(protocol, scenario)]
    for i, coordinator in enumerate(coordinators):
        if i not in SCENARIOS[scenario]["corrupted"]:
            for sid, data in SESSIONS:
                public.verify_signature(data, coordinator.result(sid))


# ---------------------------------------------------------------------------
# t+1 designated signers
# ---------------------------------------------------------------------------

BAD, WITHHOLD, CRASH = "bad", "withhold", "crash"


def withhold_from(victim: int) -> Tuple[str, int]:
    """Fault mode: behave honestly except toward ``victim``, which gets
    none of our shares or finals."""
    return (WITHHOLD, victim)


def run_sessions(
    key, protocol: str, sessions, faults=None, coordinators=None, **kwargs
):
    """Run ``sessions`` one after another over ``n`` coordinators.

    Delivery is synchronous FIFO.  When the network is quiet and an honest
    replica's session is still unsigned, its timer fires (once per session
    and replica), as the replica's ``schedule_timer`` would.  ``faults``
    maps replica ids to BAD (bit-inverted shares and finals), WITHHOLD (no
    shares or finals), :func:`withhold_from` (WITHHOLD toward one replica
    only) or CRASH (sends and receives nothing).  Pass the
    returned ``coordinators`` back in to continue with their state.
    Returns the coordinators and the number of timer firings per session.
    """
    faults = faults or {}
    public, shares = key
    n = public.n
    if coordinators is None:
        coordinators = [
            SigningCoordinator(protocol, shares[i], **kwargs) for i in range(n)
        ]
    honest = [i for i in range(n) if i not in faults]
    queue: List[Tuple[int, int, SigningMessage]] = []

    def push(sender: int, outs) -> None:
        mode = faults.get(sender)
        victims = range(n)
        if isinstance(mode, tuple):
            mode, victim = mode
            victims = [victim]
        for dest, msg in outs:
            if mode == CRASH:
                continue
            silenced = mode == WITHHOLD and (msg.is_share or msg.is_final)
            if mode == BAD and msg.is_share and msg.share is not None:
                msg = SigningMessage.share_message(
                    msg.sign_id, _invert(msg.share, public.modulus)
                )
            if mode == BAD and msg.is_final:
                msg = SigningMessage.final(
                    msg.sign_id, bytes(b ^ 0xFF for b in msg.signature)
                )
            for target in range(n) if dest == -1 else [dest]:
                if silenced and target in victims:
                    continue
                if target != sender and faults.get(target) != CRASH:
                    queue.append((sender, target, msg))

    timeouts = []
    for sid, data in sessions:
        for i in range(n):
            if faults.get(i) != CRASH:
                push(i, coordinators[i].sign(sid, data))
        fired = set()
        while True:
            while queue:
                sender, dest, msg = queue.pop(0)
                push(dest, coordinators[dest].on_message(sender, msg))
            late = [
                i for i in honest if coordinators[i].result(sid) is None and i not in fired
            ]
            if not late:
                break
            for i in late:
                fired.add(i)
                push(i, coordinators[i].on_timeout(sid))
        timeouts.append(len(fired))
        for i in honest:
            public.verify_signature(data, coordinators[i].result(sid))
    return coordinators, timeouts


def _share_generations(coordinators, indices) -> int:
    return sum(
        count
        for i in indices
        for op, count in coordinators[i].drain_ops()
        if op == OP_GENERATE_SHARE
    )


MANY = [(f"session-{k}", f"payload {k}".encode()) for k in range(6)]
PROTOCOLS = [PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE]


class TestDesignatedSet:
    def test_rotates_deterministically(self):
        assert designated_signers("x", 4, 2) == designated_signers("x", 4, 2)
        starts = {designated_signers(f"s{k}", 7, 3)[0] for k in range(200)}
        assert starts == set(range(7))
        for k in range(50):
            members = designated_signers(f"s{k}", 7, 3)
            assert len(set(members)) == 3
            assert members[1] == (members[0] + 1) % 7

    @pytest.mark.parametrize("signers", [1, 5])
    def test_size_must_be_t_plus_1_or_n(self, threshold_4_1, signers):
        _, shares = threshold_4_1
        with pytest.raises(ConfigError):
            SigningCoordinator(PROTOCOL_OPTTE, shares[0], signers=signers)

    @pytest.mark.parametrize("signers", [4, 5, 6])
    def test_no_size_between_t_plus_1_and_n(self, threshold_7_2, signers):
        _, shares = threshold_7_2
        with pytest.raises(ConfigError):
            SigningCoordinator(PROTOCOL_OPTTE, shares[0], signers=signers)

    def test_only_members_prefetch(self, threshold_4_1):
        _, shares = threshold_4_1
        for k in range(8):
            sid = f"prefetch-{k}"
            coordinator = SigningCoordinator(PROTOCOL_OPTTE, shares[0], lookahead=2)
            member = 0 in designated_signers(sid, 4, 2)
            assert coordinator.prefetch(sid, b"m") is member
            assert coordinator.pipeline_stats["prefetched"] == int(member)


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("key_fixture", ["threshold_4_1", "threshold_7_2"])
def test_honest_run_generates_t_plus_1_shares(protocol, key_fixture, request):
    key = request.getfixturevalue(key_fixture)
    public, _ = key
    coordinators, timeouts = run_sessions(key, protocol, MANY)
    assert timeouts == [0] * len(MANY)
    generated = _share_generations(coordinators, range(public.n))
    assert generated == (public.t + 1) * len(MANY)
    assert all(not c.suspects for c in coordinators)


@pytest.mark.parametrize("mode", [BAD, WITHHOLD, CRASH])
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("key_fixture", ["threshold_4_1", "threshold_7_2"])
def test_faulty_designated_members_cannot_block(protocol, key_fixture, mode, request):
    """Up to t faulty replicas, placed in D of the first session."""
    key = request.getfixturevalue(key_fixture)
    public, _ = key
    sid = MANY[0][0]
    faulty = designated_signers(sid, public.n, public.t + 1)[: public.t]
    coordinators, timeouts = run_sessions(
        key, protocol, MANY, faults={i: mode for i in faulty}
    )
    honest = [c for i, c in enumerate(coordinators) if i not in faulty]
    if mode == BAD:
        # A bad share is evidence: the failed check or assembly releases
        # the other replicas, so no session waits for its timer.
        assert timeouts == [0] * len(MANY)
    else:
        # Silence is only caught by the timer; the silent members are
        # suspects afterwards, so a later session never waits again.
        assert timeouts[0] > 0
        assert all(set(faulty) <= c.suspects for c in honest)
        assert timeouts[1:] == [0] * (len(MANY) - 1)


def test_suspected_bad_signer_stops_optproof_fallbacks(threshold_4_1):
    sessions = [(f"fault-{k}", f"data {k}".encode()) for k in range(12)]
    coordinators, timeouts = run_sessions(
        threshold_4_1, PROTOCOL_OPTPROOF, sessions, faults={3: BAD}
    )
    assert timeouts == [0] * len(sessions)
    honest = coordinators[:3]
    assert all(c.suspects == {3} for c in honest)
    first = [c.fallback_rounds() for c in honest]
    # Once every honest replica suspects 3, a session whose D holds 3
    # starts with everyone signing and skips 3's share: no more fallbacks.
    more = [(f"later-{k}", f"more {k}".encode()) for k in range(8)]
    for sid, _ in more:
        members = designated_signers(sid, 4, 2)
        for i, c in enumerate(honest):
            assert c.signs_at_start(sid) == (i in members or 3 in members)
    _, timeouts = run_sessions(
        threshold_4_1, PROTOCOL_OPTPROOF, more, faults={3: BAD}, coordinators=coordinators
    )
    assert timeouts == [0] * len(more)
    assert [c.fallback_rounds() for c in honest] == first


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("key_fixture", ["threshold_4_1", "threshold_7_2"])
def test_member_withholding_from_one_replica_cannot_stall_it(
    protocol, key_fixture, request
):
    """``t`` members of ``D`` send their shares to everyone but the last
    member, so the non-members finish without ever signing.  OptProof and
    OptTE broadcast the FINAL when optimistic assembly succeeds; under
    BASIC the starved member's timer asks for help, and the finished
    replicas answer with the signature."""
    key = request.getfixturevalue(key_fixture)
    public, _ = key
    sid = MANY[0][0]
    members = designated_signers(sid, public.n, public.t + 1)
    starved = members[-1]
    faults = {i: withhold_from(starved) for i in members[:-1]}
    coordinators, timeouts = run_sessions(key, protocol, MANY[:1], faults=faults)
    expected = 1 if protocol == PROTOCOL_BASIC else 0
    assert timeouts == [expected]
    assert coordinators[starved].stats["share_timeouts"] == expected


def test_signature_request_is_answered_now_or_on_completion(threshold_4_1):
    _, shares = threshold_4_1
    sid, data = MANY[0]
    request = SigningMessage.signature_request(sid)
    assert SigningMessage.from_bytes(request.to_bytes()) == request
    coordinators, _ = run_sessions(threshold_4_1, PROTOCOL_BASIC, [(sid, data)])
    final = SigningMessage.final(sid, coordinators[0].result(sid))
    assert coordinators[0].on_message(1, request) == [(1, final)]
    # A session still running remembers the requester, once.
    coordinator = SigningCoordinator(PROTOCOL_BASIC, shares[0], signers=4)
    out = coordinator.sign(sid, data)
    assert coordinator.on_message(2, request) == []
    assert coordinator.on_message(2, request) == []
    [(_, share)] = SigningCoordinator(PROTOCOL_BASIC, shares[1], signers=4).sign(sid, data)
    assert coordinator.on_message(1, share) == [(2, final)]


def test_timeout_broadcasts_one_signature_request(threshold_4_1):
    _, shares = threshold_4_1
    sid, data = MANY[0]
    coordinator = SigningCoordinator(PROTOCOL_OPTTE, shares[0])
    coordinator.sign(sid, data)
    out = coordinator.on_timeout(sid)
    assert [(dest, m) for dest, m in out if not m.is_share] == [
        (BROADCAST, SigningMessage.signature_request(sid))
    ]


def test_suspicion_lapses_and_doubles_on_a_repeat_offence(threshold_4_1):
    _, shares = threshold_4_1
    coordinator = SigningCoordinator(PROTOCOL_OPTPROOF, shares[0])
    coordinator._suspect(1)
    coordinator.rounds_started += SUSPICION_SESSIONS - 1
    coordinator._suspect(1)  # already suspected: no extension
    assert coordinator.suspects == {1}
    coordinator.rounds_started += 1
    assert coordinator.suspects == set()
    coordinator._suspect(1)
    coordinator.rounds_started += 2 * SUSPICION_SESSIONS - 1
    assert coordinator.suspects == {1}
    coordinator.rounds_started += 1
    assert coordinator.suspects == set()


def test_lapsed_suspicion_of_a_bad_signer_is_renewed(threshold_4_1):
    """After the suspicion lapses, the bad signer is tried again, fails
    again and is suspected for twice as long."""
    sessions = [(f"lapse-{k}", f"data {k}".encode()) for k in range(SUSPICION_SESSIONS + 12)]
    coordinators, timeouts = run_sessions(
        threshold_4_1, PROTOCOL_OPTPROOF, sessions, faults={3: BAD}
    )
    assert timeouts == [0] * len(sessions)
    # Only a replica that proof-checked the other share of the failed
    # set can pin the failure on 3; here replica 2, a member of D.
    suspecting = [c for c in coordinators[:3] if 3 in c._suspicion]
    assert [c.me for c in suspecting] == [2]
    for coordinator in suspecting:
        _, length = coordinator._suspicion[3]
        assert length == 2 * SUSPICION_SESSIONS
        assert coordinator.suspects == {3}
        assert coordinator.fallback_rounds() == 2


def test_suspicion_is_bounded_by_n(threshold_4_1):
    _, shares = threshold_4_1
    coordinator = SigningCoordinator(PROTOCOL_OPTPROOF, shares[0])
    for replica in (-1, 0, 1, 4, 99, 1):
        coordinator._suspect(replica)
    assert coordinator.suspects == {1}
