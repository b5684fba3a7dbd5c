"""Shoup threshold RSA: the cryptographic core of the paper."""

import itertools

import pytest

from repro.crypto.rsa import RsaPublicKey
from repro.crypto.shoup import (
    SignatureShare,
    ThresholdDealer,
    ThresholdKeyShare,
    ThresholdPublicKey,
    deal_threshold_key,
    reshare,
)
from repro.crypto.params import safe_prime_pair
from repro.errors import AssemblyError, ConfigError, InvalidShare

from tests.conftest import SeededSource

MESSAGE = b"www.example.com. 3600 IN A 192.0.2.80"


class TestDealer:
    def test_share_count(self, threshold_4_1):
        public, shares = threshold_4_1
        assert public.n == 4 and public.t == 1
        assert len(shares) == 4
        assert [s.index for s in shares] == [1, 2, 3, 4]

    def test_invalid_parameters(self):
        with pytest.raises(ConfigError):
            ThresholdDealer(bits=384, n=4, t=2)  # n < 2t+1
        with pytest.raises(ConfigError):
            ThresholdDealer(bits=384, n=0, t=0)
        with pytest.raises(ConfigError):
            ThresholdDealer(bits=384, n=4, t=4)
        with pytest.raises(ConfigError):
            ThresholdDealer(bits=384, n=70000, t=1)  # e must exceed n

    def test_seeded_source_replays_the_dealing(self):
        p, q = safe_prime_pair(192)

        def deal(seed):
            return deal_threshold_key(
                4, 1, bits=384, prime_p=p, prime_q=q, rng=SeededSource(seed)
            )

        assert deal("a") == deal("a")
        assert deal("a") != deal("b")

    def test_verification_keys_consistent(self, threshold_4_1):
        public, shares = threshold_4_1
        for share in shares:
            expected = pow(public.verifier, share.secret, public.modulus)
            assert public.share_verifier(share.index) == expected


class TestSigningAndAssembly:
    def test_any_t_plus_1_subset_signs(self, threshold_4_1):
        public, shares = threshold_4_1
        sig_shares = {s.index: s.generate_share(MESSAGE) for s in shares}
        signatures = set()
        for subset in itertools.combinations(range(1, 5), 2):
            sig = public.assemble(MESSAGE, [sig_shares[i] for i in subset])
            public.verify_signature(MESSAGE, sig)
            signatures.add(sig)
        # RSA signatures are unique: every subset produces the same bytes.
        assert len(signatures) == 1

    def test_t_shares_insufficient(self, threshold_4_1):
        public, shares = threshold_4_1
        only_one = [shares[0].generate_share(MESSAGE)]
        with pytest.raises(AssemblyError):
            public.assemble(MESSAGE, only_one)

    def test_verifies_as_plain_rsa(self, threshold_4_1):
        """The DNSSEC interop property: standard RSA verification works."""
        public, shares = threshold_4_1
        sig = public.assemble(
            MESSAGE, [s.generate_share(MESSAGE) for s in shares[:2]]
        )
        plain = RsaPublicKey(modulus=public.modulus, exponent=public.exponent)
        plain.verify(MESSAGE, sig)

    def test_duplicate_indices_rejected(self, threshold_4_1):
        public, shares = threshold_4_1
        share = shares[0].generate_share(MESSAGE)
        with pytest.raises(AssemblyError):
            public.assemble(MESSAGE, [share, share])

    def test_out_of_range_index_rejected(self, threshold_4_1):
        public, shares = threshold_4_1
        good = shares[0].generate_share(MESSAGE)
        bogus = SignatureShare(index=9, value=good.value)
        with pytest.raises(AssemblyError):
            public.assemble(MESSAGE, [good, bogus])

    def test_bad_share_breaks_assembly_detectably(self, threshold_4_1):
        public, shares = threshold_4_1
        good = shares[0].generate_share(MESSAGE)
        bad = SignatureShare(index=2, value=good.value ^ 0xDEADBEEF)
        sig = public.assemble(MESSAGE, [good, bad])
        assert not public.signature_is_valid(MESSAGE, sig)

    def test_seven_server_key(self, threshold_7_2):
        public, shares = threshold_7_2
        sig_shares = [s.generate_share(MESSAGE) for s in shares[2:5]]
        sig = public.assemble(MESSAGE, sig_shares)
        public.verify_signature(MESSAGE, sig)

    def test_message_binding(self, threshold_4_1):
        public, shares = threshold_4_1
        sig = public.assemble(
            MESSAGE, [s.generate_share(MESSAGE) for s in shares[:2]]
        )
        assert not public.signature_is_valid(b"different message", sig)


class TestProofs:
    def test_valid_proof_accepted(self, threshold_4_1):
        public, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        public.verify_share(MESSAGE, share)

    def test_share_without_proof_rejected(self, threshold_4_1):
        public, shares = threshold_4_1
        share = shares[0].generate_share(MESSAGE)
        with pytest.raises(InvalidShare):
            public.verify_share(MESSAGE, share)

    def test_tampered_value_rejected(self, threshold_4_1):
        public, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        tampered = SignatureShare(
            index=share.index, value=share.value ^ (1 << 50), proof=share.proof
        )
        assert not public.share_is_valid(MESSAGE, tampered)

    def test_bit_inverted_share_rejected(self, threshold_4_1):
        """The corruption the paper's experiments inject (§4.4)."""
        public, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        width = public.modulus.bit_length()
        inverted = SignatureShare(
            index=share.index,
            value=(share.value ^ ((1 << width) - 1)) % public.modulus,
            proof=share.proof,
        )
        assert not public.share_is_valid(MESSAGE, inverted)

    def test_proof_bound_to_message(self, threshold_4_1):
        public, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        assert not public.share_is_valid(b"other message", share)

    def test_proof_bound_to_index(self, threshold_4_1):
        public, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        moved = SignatureShare(index=2, value=share.value, proof=share.proof)
        assert not public.share_is_valid(MESSAGE, moved)

    def test_proof_repeats_for_same_inputs(self, threshold_4_1):
        """The nonce comes from the share secret and the statement, so a
        proof is a function of its inputs, and it still verifies."""
        public, shares = threshold_4_1
        share = shares[0].generate_share(MESSAGE)
        proof = shares[0].prove(MESSAGE, share)
        assert shares[0].prove(MESSAGE, share) == proof
        public.verify_share(MESSAGE, share.with_proof(proof))
        assert shares[0].generate_share_with_proof(MESSAGE).proof == proof
        other = shares[0].generate_share_with_proof(b"other message")
        public.verify_share(b"other message", other)
        assert other.proof.z != proof.z

    def test_wrong_secret_cannot_prove(self, threshold_4_1):
        public, shares = threshold_4_1
        wrong = ThresholdKeyShare(
            index=shares[0].index,
            secret=shares[0].secret ^ 0xFFFF,
            public=public,
        )
        share = wrong.generate_share(MESSAGE).with_proof(
            wrong.prove(MESSAGE, wrong.generate_share(MESSAGE))
        )
        assert not public.share_is_valid(MESSAGE, share)


class TestSerialization:
    def test_signature_share_roundtrip(self, threshold_4_1):
        _, shares = threshold_4_1
        share = shares[0].generate_share_with_proof(MESSAGE)
        restored, offset = SignatureShare.from_bytes(share.to_bytes())
        assert restored == share

    def test_bare_share_roundtrip(self, threshold_4_1):
        _, shares = threshold_4_1
        share = shares[0].generate_share(MESSAGE)
        restored, _ = SignatureShare.from_bytes(share.to_bytes())
        assert restored == share and restored.proof is None

    def test_public_key_roundtrip(self, threshold_4_1):
        public, _ = threshold_4_1
        restored = ThresholdPublicKey.from_bytes(public.to_bytes())
        assert restored == public

    def test_key_share_roundtrip(self, threshold_4_1):
        public, shares = threshold_4_1
        restored = ThresholdKeyShare.from_bytes(shares[2].to_bytes())
        assert restored.index == shares[2].index
        assert restored.secret == shares[2].secret
        assert restored.public == public


class TestReshare:
    def test_refreshed_shares_still_sign(self):
        p, q = safe_prime_pair(192)
        dealer = ThresholdDealer(bits=384, n=4, t=1, prime_p=p, prime_q=q)
        public, shares = dealer.deal()
        old_sig = public.assemble(
            MESSAGE, [s.generate_share(MESSAGE) for s in shares[:2]]
        )
        new_shares = reshare(public, shares, dealer)
        new_public = new_shares[0].public
        new_sig = new_public.assemble(
            MESSAGE, [s.generate_share(MESSAGE) for s in new_shares[1:3]]
        )
        # Same RSA key, so the unique signature is identical.
        assert new_sig == old_sig
        # But the shares themselves are fresh.
        assert {s.secret for s in new_shares} != {s.secret for s in shares}

    def test_mixing_old_and_new_shares_fails(self):
        p, q = safe_prime_pair(192)
        dealer = ThresholdDealer(bits=384, n=4, t=1, prime_p=p, prime_q=q)
        public, shares = dealer.deal()
        new_shares = reshare(public, shares, dealer)
        mixed = [
            shares[0].generate_share(MESSAGE),
            new_shares[1].generate_share(MESSAGE),
        ]
        sig = public.assemble(MESSAGE, mixed)
        assert not public.signature_is_valid(MESSAGE, sig)


class TestHotPathMemoization:
    """The cached helpers must be bit-identical to direct computation."""

    def test_verification_base_matches_direct_pow(self, threshold_4_1):
        from repro.crypto import pkcs1
        from repro.crypto.shoup import _verification_base

        public, _ = threshold_4_1
        N = public.modulus
        x = pkcs1.encode_to_int(MESSAGE, N)
        expected = pow(x, 4 * public.delta, N)
        assert _verification_base(x, public.delta, N) == expected
        # Second call (cache hit) returns the same value.
        assert _verification_base(x, public.delta, N) == expected

    def test_repeated_sign_verify_cycles_stay_consistent(self, threshold_4_1):
        public, shares = threshold_4_1
        signatures = set()
        for _ in range(3):
            proved = [s.generate_share_with_proof(MESSAGE) for s in shares[:2]]
            for share in proved:
                public.verify_share(MESSAGE, share)
            sig = public.assemble(MESSAGE, proved)
            public.verify_signature(MESSAGE, sig)
            signatures.add(sig)
        # RSA signatures are deterministic: every round must agree.
        assert len(signatures) == 1

    def test_cached_encoding_distinguishes_messages(self, threshold_4_1):
        from repro.crypto import pkcs1

        public, _ = threshold_4_1
        N = public.modulus
        a = pkcs1.encode_to_int(b"message-a", N)
        b = pkcs1.encode_to_int(b"message-b", N)
        assert a != b
        assert pkcs1.encode_to_int(b"message-a", N) == a
