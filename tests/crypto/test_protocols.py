"""BASIC / OptProof / OptTE signing protocols, driven message-by-message.

The harness below routes protocol messages synchronously among n replica
endpoints, with optional Byzantine replicas that invert their share bits
(the paper's corruption mode) — no simulator involved, so these tests
isolate protocol logic from timing.
"""

from typing import List, Set

import pytest

from repro.crypto.protocols import (
    OP_ASSEMBLE,
    OP_GENERATE_PROOF,
    OP_GENERATE_SHARE,
    OP_VERIFY_SHARE,
    OP_VERIFY_SIGNATURE,
    PROTOCOL_BASIC,
    PROTOCOL_OPTPROOF,
    PROTOCOL_OPTTE,
    SigningCoordinator,
    SigningMessage,
    make_signing_protocol,
)
from repro.crypto.shoup import SignatureShare
from repro.errors import ConfigError

MESSAGE = b"sig-target: new.example.com. A 192.0.2.99"
SID = "session-1"


def _invert(share: SignatureShare, modulus: int) -> SignatureShare:
    width = modulus.bit_length()
    return SignatureShare(
        index=share.index,
        value=(share.value ^ ((1 << width) - 1)) % modulus,
        proof=share.proof,
    )


def run_protocol(key, name: str, corrupted: Set[int] = frozenset(), order=None):
    """Run one signing session to completion; returns the protocol objects.

    ``corrupted`` holds 0-based replica ids whose outgoing shares get
    bit-inverted.  ``order`` optionally permutes message delivery.
    """
    public, shares = key
    n = public.n
    protocols = [
        make_signing_protocol(name, shares[i], SID, MESSAGE) for i in range(n)
    ]
    queue: List[tuple] = []  # (sender, dest, msg)

    def push(sender: int, outs) -> None:
        for dest, msg in outs:
            if msg.is_share and sender in corrupted and msg.share is not None:
                msg = SigningMessage.share_message(
                    SID, _invert(msg.share, public.modulus)
                )
            if msg.is_final and sender in corrupted:
                msg = SigningMessage.final(SID, bytes(b ^ 0xFF for b in msg.signature))
            targets = range(n) if dest == -1 else [dest]
            for target in targets:
                if target != sender:
                    queue.append((sender, target, msg))

    for i in range(n):
        push(i, protocols[i].start())
    steps = 0
    while queue:
        steps += 1
        assert steps < 10_000, "protocol livelock"
        if order is not None:
            queue.sort(key=order)
        sender, dest, msg = queue.pop(0)
        push(dest, protocols[dest].on_message(sender, msg))
    return protocols


HONEST_KEYS = ["threshold_4_1", "threshold_7_2"]


@pytest.mark.parametrize("proto", [PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE])
@pytest.mark.parametrize("key_fixture", HONEST_KEYS)
def test_all_honest_terminate_with_valid_signature(proto, key_fixture, request):
    key = request.getfixturevalue(key_fixture)
    public, _ = key
    protocols = run_protocol(key, proto)
    for protocol in protocols:
        assert protocol.done
        public.verify_signature(MESSAGE, protocol.signature)
    # Unique RSA signatures: all replicas end with identical bytes.
    assert len({p.signature for p in protocols}) == 1


@pytest.mark.parametrize("proto", [PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE])
def test_one_corruption_n4(proto, threshold_4_1, request):
    public, _ = threshold_4_1
    protocols = run_protocol(threshold_4_1, proto, corrupted={1})
    for i, protocol in enumerate(protocols):
        if i == 1:
            continue  # the corrupted replica owes us nothing
        assert protocol.done
        public.verify_signature(MESSAGE, protocol.signature)


@pytest.mark.parametrize("proto", [PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE])
def test_two_corruptions_n7(proto, threshold_7_2, request):
    public, _ = threshold_7_2
    protocols = run_protocol(threshold_7_2, proto, corrupted={0, 4})
    for i, protocol in enumerate(protocols):
        if i in (0, 4):
            continue
        assert protocol.done, f"replica {i} did not finish"
        public.verify_signature(MESSAGE, protocol.signature)


def test_corrupted_shares_delivered_first_still_terminates(threshold_7_2):
    """Adversarial scheduling: bad shares always arrive before good ones."""
    public, _ = threshold_7_2
    corrupted = {0, 1}

    def adversarial_order(item):
        sender, _, msg = item
        return (0 if sender in corrupted else 1, sender)

    for proto in (PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE):
        protocols = run_protocol(
            threshold_7_2, proto, corrupted=corrupted, order=adversarial_order
        )
        for i, protocol in enumerate(protocols):
            if i in corrupted:
                continue
            assert protocol.done, f"{proto}: replica {i} stuck"
            public.verify_signature(MESSAGE, protocol.signature)


class TestOpsAccounting:
    def test_basic_ops(self, threshold_4_1):
        protocols = run_protocol(threshold_4_1, PROTOCOL_BASIC)
        ops = dict()
        for op, count in protocols[0].drain_ops():
            ops[op] = ops.get(op, 0) + count
        assert ops.get(OP_GENERATE_SHARE) == 1
        assert ops.get(OP_GENERATE_PROOF) == 1
        assert ops.get(OP_VERIFY_SHARE, 0) >= 1
        assert ops.get(OP_ASSEMBLE) == 1

    def test_optimistic_skips_proofs_when_honest(self, threshold_4_1):
        protocols = run_protocol(threshold_4_1, PROTOCOL_OPTTE)
        ops = dict()
        for op, count in protocols[0].drain_ops():
            ops[op] = ops.get(op, 0) + count
        assert OP_GENERATE_PROOF not in ops
        assert OP_VERIFY_SHARE not in ops

    def test_drain_clears(self, threshold_4_1):
        protocols = run_protocol(threshold_4_1, PROTOCOL_OPTTE)
        protocols[0].drain_ops()
        assert protocols[0].drain_ops() == []


class TestOptTE:
    def test_attempt_count_bounded(self, threshold_7_2):
        public, _ = threshold_7_2
        protocols = run_protocol(threshold_7_2, PROTOCOL_OPTTE, corrupted={0, 1})
        import math

        bound = math.comb(2 * public.t + 1, public.t + 1)
        for i, protocol in enumerate(protocols):
            if i in (0, 1):
                continue
            assert 1 <= protocol.attempts <= bound


class TestOptProof:
    def test_fallback_requests_proofs(self, threshold_4_1):
        """With a corrupted replica adversarially scheduled first, honest
        replicas must fall back to the proof phase and still finish."""
        public, _ = threshold_4_1

        def bad_first(item):
            sender, _, _ = item
            return 0 if sender == 1 else 1

        protocols = run_protocol(
            threshold_4_1, PROTOCOL_OPTPROOF, corrupted={1}, order=bad_first
        )
        honest = [p for i, p in enumerate(protocols) if i != 1]
        assert all(p.done for p in honest)
        # At least one honest replica went through the fall-back.
        assert any(p._fallback for p in honest)


class TestSigningMessageSerialization:
    def test_share_message_roundtrip(self, threshold_4_1):
        _, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        msg = SigningMessage.share_message("abc", share)
        restored = SigningMessage.from_bytes(msg.to_bytes())
        assert restored.sign_id == "abc"
        assert restored.share == share

    def test_final_roundtrip(self):
        msg = SigningMessage.final("xyz", b"\x01\x02\x03")
        restored = SigningMessage.from_bytes(msg.to_bytes())
        assert restored.is_final and restored.signature == b"\x01\x02\x03"

    def test_proof_request_roundtrip(self):
        msg = SigningMessage.proof_request("qrs")
        restored = SigningMessage.from_bytes(msg.to_bytes())
        assert restored.is_proof_request and restored.sign_id == "qrs"


class TestCoordinator:
    def test_buffers_early_messages(self, threshold_4_1):
        """Shares arriving before the local sign() call are not lost."""
        public, shares = threshold_4_1
        early = SigningCoordinator(PROTOCOL_OPTTE, shares[0])
        # Two peers' shares arrive before we start the session.
        for peer in (1, 2):
            share = shares[peer].generate_share(MESSAGE)
            early.on_message(peer, SigningMessage.share_message(SID, share))
        assert early.result(SID) is None
        early.sign(SID, MESSAGE)
        assert early.result(SID) is not None
        public.verify_signature(MESSAGE, early.result(SID))

    def test_unknown_protocol_rejected(self, threshold_4_1):
        _, shares = threshold_4_1
        with pytest.raises(ConfigError):
            SigningCoordinator("bogus", shares[0])

    def test_concurrent_sessions(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinators = [
            SigningCoordinator(PROTOCOL_OPTTE, s) for s in shares
        ]
        messages = {f"s{i}": f"payload {i}".encode() for i in range(3)}
        queue = []

        def push(sender, outs):
            for dest, msg in outs:
                targets = range(4) if dest == -1 else [dest]
                for target in targets:
                    if target != sender:
                        queue.append((sender, target, msg))

        for sid, payload in messages.items():
            for i, coordinator in enumerate(coordinators):
                push(i, coordinator.sign(sid, payload))
        while queue:
            sender, dest, msg = queue.pop(0)
            push(dest, coordinators[dest].on_message(sender, msg))
        for sid, payload in messages.items():
            for coordinator in coordinators:
                signature = coordinator.result(sid)
                assert signature is not None
                public.verify_signature(payload, signature)


class TestSessionRetirement:
    """A finished session leaves only its signature behind."""

    def _finish_one(self, shares, protocol=PROTOCOL_OPTTE):
        coordinator = SigningCoordinator(protocol, shares[0])
        coordinator.sign(SID, MESSAGE)
        for peer in (1, 2):
            share = shares[peer].generate_share(MESSAGE)
            coordinator.on_message(peer, SigningMessage.share_message(SID, share))
        return coordinator

    def test_finished_session_is_dropped_and_late_share_ignored(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinator = self._finish_one(shares)
        signature = coordinator.result(SID)
        assert signature is not None
        assert coordinator.sessions == {}
        late = shares[3].generate_share(MESSAGE)
        out = coordinator.on_message(3, SigningMessage.share_message(SID, late))
        assert out == []
        # neither re-opened as a session nor parked in the pre-session buffer
        assert coordinator.sessions == {} and coordinator._pending == {}
        assert coordinator.result(SID) == signature
        public.verify_signature(MESSAGE, signature)
        assert coordinator.sign(SID, MESSAGE) == []  # no second round either
        assert coordinator.rounds_started == 1

    def test_ops_of_a_finished_session_are_still_drained_once(self, threshold_4_1):
        _, shares = threshold_4_1
        coordinator = self._finish_one(shares)
        ops = dict()
        for op, count in coordinator.drain_ops():
            ops[op] = ops.get(op, 0) + count
        assert ops[OP_GENERATE_SHARE] == 1 and ops[OP_ASSEMBLE] >= 1
        assert coordinator.drain_ops() == []

    def test_fallback_count_survives_retirement(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_OPTPROOF, shares[0])
        coordinator.sign(SID, MESSAGE)
        bad = _invert(shares[1].generate_share(MESSAGE), public.modulus)
        coordinator.on_message(1, SigningMessage.share_message(SID, bad))
        coordinator.on_message(
            2, SigningMessage.share_message(SID, shares[2].generate_share(MESSAGE))
        )
        assert coordinator.fallback_rounds() == 1  # counted while still live
        for peer in (2, 3):
            share = shares[peer].generate_share_with_proof(MESSAGE)
            coordinator.on_message(peer, SigningMessage.share_message(SID, share))
        assert coordinator.result(SID) is not None
        assert coordinator.sessions == {}
        assert coordinator.fallback_rounds() == 1


class TestShareIndexValidation:
    """A share's claimed index must match its authenticated sender."""

    def test_forged_index_rejected(self, threshold_4_1):
        public, shares = threshold_4_1
        protocol = make_signing_protocol(PROTOCOL_BASIC, shares[0], SID, MESSAGE)
        protocol.start()
        # Sender 1 replays replica 2's (perfectly valid) share: without
        # the index==sender+1 pin this would poison the pool.
        forged = shares[2].generate_share_with_proof(MESSAGE)
        protocol.on_message(1, SigningMessage.share_message(SID, forged))
        assert forged.index not in protocol._shares

    def test_out_of_range_index_rejected(self, threshold_4_1):
        public, shares = threshold_4_1
        protocol = make_signing_protocol(PROTOCOL_BASIC, shares[0], SID, MESSAGE)
        protocol.start()
        legit = shares[1].generate_share_with_proof(MESSAGE)
        bogus = SignatureShare(index=public.n + 5, value=legit.value, proof=legit.proof)
        protocol.on_message(public.n + 4, SigningMessage.share_message(SID, bogus))
        assert bogus.index not in protocol._shares

    def test_matching_index_accepted(self, threshold_4_1):
        public, shares = threshold_4_1
        protocol = make_signing_protocol(PROTOCOL_BASIC, shares[0], SID, MESSAGE)
        protocol.start()
        share = shares[1].generate_share_with_proof(MESSAGE)
        protocol.on_message(1, SigningMessage.share_message(SID, share))
        assert share.index in protocol._shares


class TestCoordinatorBounds:
    """KeyTrap-style caps on the pre-session message buffer."""

    def test_pending_session_flood_capped(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_BASIC, shares[0])
        coordinator.max_pending_sessions = 2
        share = shares[1].generate_share_with_proof(MESSAGE)
        for k in range(5):
            coordinator.on_message(1, SigningMessage.share_message(f"flood-{k}", share))
        assert len(coordinator._pending) == 2
        assert coordinator.dropped_messages == 3

    def test_per_session_flood_capped(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_BASIC, shares[0])
        share = shares[1].generate_share_with_proof(MESSAGE)
        for k in range(7):
            junk = SignatureShare(index=share.index, value=share.value + k, proof=share.proof)
            coordinator.on_message(1, SigningMessage.share_message("one-sid", junk))
        # One sender holds at most MAX_BUFFERED_PER_SENDER slots per session.
        assert len(coordinator._pending["one-sid"]) == 3
        assert coordinator.dropped_messages == 4

    def test_bounded_buffer_still_replays_on_sign(self, threshold_4_1):
        # The caps must not break the legitimate early-arrival path.
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_BASIC, shares[0])
        for peer in (1, 2):
            share = shares[peer].generate_share_with_proof(MESSAGE)
            coordinator.on_message(peer, SigningMessage.share_message(SID, share))
        assert coordinator.dropped_messages == 0
        coordinator.sign(SID, MESSAGE)
        signature = coordinator.result(SID)
        assert signature is not None
        public.verify_signature(MESSAGE, signature)

    def test_one_sender_cannot_crowd_out_early_shares(self, threshold_4_1):
        # Replica 3 floods junk shares for a session replica 0 has not
        # started; the valid early shares of replicas 1 and 2 must still be
        # buffered, or nothing would ever resend them.
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_BASIC, shares[0])
        real = shares[3].generate_share_with_proof(MESSAGE)
        for k in range(20):
            junk = SignatureShare(index=real.index, value=real.value + k, proof=real.proof)
            coordinator.on_message(3, SigningMessage.share_message("real", junk))
        for peer in (1, 2):
            share = shares[peer].generate_share_with_proof(MESSAGE)
            coordinator.on_message(peer, SigningMessage.share_message("real", share))
        assert coordinator.dropped_messages == 17
        coordinator.sign("real", MESSAGE)
        public.verify_signature(MESSAGE, coordinator.result("real"))

    def test_one_sender_cannot_fill_the_session_table(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_OPTTE, shares[0])
        junk = shares[3].generate_share(MESSAGE)
        for k in range(5000):
            coordinator.on_message(3, SigningMessage.share_message(f"junk-{k}", junk))
        early = shares[1].generate_share(MESSAGE)
        coordinator.on_message(1, SigningMessage.share_message(SID, early))
        assert coordinator._pending.get(SID) == [
            (1, SigningMessage.share_message(SID, early))
        ]
        quota = coordinator.max_pending_sessions_per_sender
        assert quota == 4096 // public.n
        assert len(coordinator._pending) == quota + 1
        assert coordinator.stats["session_refusals"] == 5000 - quota
        # Starting the session releases replica 1's quota slot again.
        coordinator.sign(SID, MESSAGE)
        assert SID not in coordinator._pending and 1 not in coordinator._opened

    def test_final_flood_checks_one_final_per_sender(self, threshold_4_1):
        public, shares = threshold_4_1
        coordinator = SigningCoordinator(PROTOCOL_OPTPROOF, shares[0])
        coordinator.sign(SID, MESSAGE)
        coordinator.drain_ops()
        bogus = SigningMessage.final(SID, b"\x01" * (public.modulus.bit_length() // 8))
        for _ in range(200):
            coordinator.on_message(3, bogus)
        verified = sum(c for op, c in coordinator.drain_ops() if op == OP_VERIFY_SIGNATURE)
        assert verified == 1
        assert coordinator.stats["final_refusals"] == 199
        assert coordinator.result(SID) is None
        # Another sender's valid FINAL is still checked and adopted.
        signature = public.assemble(
            MESSAGE, [s.generate_share(MESSAGE) for s in shares[: public.t + 1]]
        )
        coordinator.on_message(2, SigningMessage.final(SID, signature))
        assert coordinator.result(SID) == signature

