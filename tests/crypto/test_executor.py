"""The inline crypto executor of the signing protocols.

Covers the executor against the Shoup primitives it wraps (same values,
same verdicts), coordinator session pipelining (prefetch, backpressure),
and the OptTE subset-assembly property: every share multiset of size at
most ``2t+1`` containing ``t+1`` distinct honest shares yields the unique
valid signature.
"""

import itertools

from repro.crypto.executor import CryptoExecutor
from repro.crypto.protocols import PROTOCOL_BASIC, SigningCoordinator
from repro.crypto.shoup import SignatureShare

MESSAGE = b"sig-target: pipelined.example.com. A 192.0.2.77"


def _invert(share, modulus):
    """A plausibly-shaped but invalid share (same corruption as the
    signing-protocol tests)."""
    width = modulus.bit_length()
    return SignatureShare(
        index=share.index,
        value=(share.value ^ ((1 << width) - 1)) % modulus,
        proof=share.proof,
    )


class TestPrimitiveEquivalence:
    """The executor computes exactly what the Shoup primitives compute."""

    def test_share_values_match(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        assert executor.generate_share(MESSAGE) == shares[0].generate_share(MESSAGE)

    def test_share_with_proof_verifies_under_both(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[1])
        share = executor.generate_share(MESSAGE, with_proof=True)
        # Fiat-Shamir nonces differ, the share values cannot.
        assert share.value == shares[1].generate_share(MESSAGE).value
        assert share.proof is not None
        assert executor.verify_shares(MESSAGE, [share]) == [True]
        assert public.share_is_valid(MESSAGE, share)
        # A proof generated for a bare share completes it.
        bare = executor.generate_share(MESSAGE)
        proved = bare.with_proof(executor.generate_proof(MESSAGE, bare))
        assert executor.verify_shares(MESSAGE, [proved]) == [True]

    def test_verify_shares_verdicts_match(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        good = [s.generate_share_with_proof(MESSAGE) for s in shares[:2]]
        bad = _invert(shares[2].generate_share_with_proof(MESSAGE), public.modulus)
        batch = [good[0], bad, good[1]]
        expected = [True, False, True]
        assert executor.verify_shares(MESSAGE, batch) == expected
        assert [public.share_is_valid(MESSAGE, s) for s in batch] == expected

    def test_assembled_signatures_identical(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        batch = [s.generate_share(MESSAGE) for s in shares[:2]]
        signature = executor.assemble(MESSAGE, batch)
        assert signature is not None
        assert signature == public.assemble(MESSAGE, batch)
        assert executor.verify_signature(MESSAGE, signature)
        flipped = signature[:-1] + bytes([signature[-1] ^ 0xFF])
        assert not executor.verify_signature(MESSAGE, flipped)

    def test_assemble_candidates_same_winner(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        good = [s.generate_share(MESSAGE) for s in shares[:3]]
        bad = _invert(shares[3].generate_share(MESSAGE), public.modulus)
        subsets = [
            [good[0], bad],       # assembles but fails the signature check
            [bad, good[1]],       # same
            [good[0], good[1]],   # first valid candidate: the winner
            [good[1], good[2]],   # also valid, but later in order
        ]
        result = executor.assemble_candidates(MESSAGE, subsets)
        assert result.winner == 2
        assert result.signature == public.assemble(MESSAGE, subsets[2])
        # Early exit: the candidate after the winner is never tried.
        assert result.assembled == 3

    def test_assemble_candidates_empty_and_single(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        empty = executor.assemble_candidates(MESSAGE, [])
        assert empty.winner is None and empty.assembled == 0
        single = executor.assemble_candidates(
            MESSAGE, [[s.generate_share(MESSAGE) for s in shares[:2]]]
        )
        assert single.winner == 0
        assert single.signature is not None


class TestCoordinatorPipelining:
    def test_prefetch_backpressure_and_consumption(self, threshold_4_1):
        public, shares = threshold_4_1
        # signers=n: replica 0 signs every session at start, so every
        # session is prefetchable.
        coord = SigningCoordinator(PROTOCOL_BASIC, shares[0], lookahead=2, signers=4)
        assert coord.max_inflight_prefetch == 2
        assert coord.prefetch("s1", MESSAGE)
        assert coord.prefetch("s2", MESSAGE)
        assert not coord.prefetch("s3", MESSAGE)  # queue full: backpressure
        assert coord.pipeline_stats["prefetched"] == 2
        assert coord.pipeline_stats["dropped"] == 1
        assert not coord.prefetch("s1", MESSAGE)  # duplicate: refused, not counted
        assert coord.pipeline_stats["dropped"] == 1

        coord.sign("s1", MESSAGE)
        assert coord.pipeline_stats["used"] == 1
        # The running session refuses further prefetches.
        assert not coord.prefetch("s1", MESSAGE)

        # A prefetch for a message that changed before the session started
        # is discarded, and the session regenerates on demand.
        coord.sign("s2", b"something else entirely")
        assert coord.pipeline_stats["discarded"] == 1
        assert coord.pipeline_stats["used"] == 1

    def test_prefetched_share_matches_on_demand(self, threshold_4_1):
        public, shares = threshold_4_1
        plain = SigningCoordinator(PROTOCOL_BASIC, shares[0], signers=4)
        piped = SigningCoordinator(PROTOCOL_BASIC, shares[0], lookahead=2, signers=4)
        piped.prefetch("s", MESSAGE)
        out_plain = plain.sign("s", MESSAGE)
        out_piped = piped.sign("s", MESSAGE)
        # BASIC broadcasts the proof-carrying share; values must agree
        # (proof nonces are random, so compare the share value itself).
        (dest_a, msg_a), = [o for o in out_plain if o[1].is_share]
        (dest_b, msg_b), = [o for o in out_piped if o[1].is_share]
        assert msg_a.share.value == msg_b.share.value
        assert msg_a.share.index == msg_b.share.index


class TestOptTESubsetProperty:
    """Trial-and-error assembly succeeds for every qualifying multiset."""

    def _qualifying_multisets(self, honest, bad, t):
        # All multisets of size <= 2t+1 drawn from honest + corrupted
        # shares that contain at least t+1 honest shares with distinct
        # signer indices.
        pool = honest + bad
        for size in range(1, 2 * t + 2):
            for combo in itertools.combinations_with_replacement(pool, size):
                distinct_honest = {s.index for s in combo if s in honest}
                if len(distinct_honest) >= t + 1:
                    yield list(combo)

    def test_every_qualifying_multiset_assembles(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        t = public.t
        honest = [s.generate_share(MESSAGE) for s in shares[:3]]
        bad = [
            _invert(shares[3].generate_share(MESSAGE), public.modulus),
            _invert(honest[1], public.modulus),
        ]
        reference = public.assemble(MESSAGE, honest[: t + 1])
        cases = list(self._qualifying_multisets(honest, bad, t))
        assert len(cases) > 10  # the enumeration is not degenerate
        for multiset in cases:
            subsets = [
                list(combo)
                for combo in itertools.combinations(multiset, t + 1)
            ]
            result = executor.assemble_candidates(MESSAGE, subsets)
            assert result.winner is not None, multiset
            # The e-th root is unique: every winning subset produces THE
            # signature.
            assert result.signature == reference

    def test_insufficient_honest_shares_never_assemble(self, threshold_4_1):
        public, shares = threshold_4_1
        executor = CryptoExecutor(shares[0])
        t = public.t
        honest = shares[0].generate_share(MESSAGE)
        bad = [
            _invert(s.generate_share(MESSAGE), public.modulus)
            for s in shares[1:3]
        ]
        multiset = [honest] + bad  # only one honest share: below t+1
        subsets = [list(c) for c in itertools.combinations(multiset, t + 1)]
        assert executor.assemble_candidates(MESSAGE, subsets).winner is None
