"""RSA + PKCS#1 tests."""

import pytest

from repro.crypto import pkcs1
from repro.crypto.rsa import (
    RsaPrivateKey,
    RsaPublicKey,
    generate_rsa_keypair,
    prime_count,
)
from repro.errors import CryptoError, InvalidSignature, KeyGenerationError

from tests.conftest import SeededSource


@pytest.fixture(scope="module")
def keypair():
    return generate_rsa_keypair(512)


@pytest.fixture(scope="module")
def keypair_1024():
    return generate_rsa_keypair(1024)


class TestPkcs1:
    def test_encoding_structure(self):
        em = pkcs1.emsa_pkcs1_v15_encode(b"msg", 64)
        assert em[0] == 0x00 and em[1] == 0x01
        assert b"\x00" in em[2:]
        assert len(em) == 64
        # Padding is all 0xFF up to the separator.
        sep = em.index(b"\x00", 2)
        assert set(em[2:sep]) == {0xFF}

    def test_digest_info_tail(self):
        em = pkcs1.emsa_pkcs1_v15_encode(b"msg", 64)
        assert em.endswith(pkcs1.sha1(b"msg"))

    def test_verify_roundtrip(self):
        em = pkcs1.emsa_pkcs1_v15_encode(b"hello", 128)
        assert pkcs1.emsa_pkcs1_v15_verify(b"hello", em)
        assert not pkcs1.emsa_pkcs1_v15_verify(b"other", em)

    def test_modulus_too_small(self):
        with pytest.raises(CryptoError):
            pkcs1.emsa_pkcs1_v15_encode(b"msg", 20)

    def test_encode_to_int_in_range(self):
        modulus = (1 << 512) - 1
        x = pkcs1.encode_to_int(b"msg", modulus)
        assert 0 < x < modulus


class TestRsa:
    def test_sign_verify(self, keypair):
        sig = keypair.private.sign(b"the quick brown fox")
        keypair.public.verify(b"the quick brown fox", sig)

    def test_wrong_message_rejected(self, keypair):
        sig = keypair.private.sign(b"message one")
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"message two", sig)

    def test_tampered_signature_rejected(self, keypair):
        sig = bytearray(keypair.private.sign(b"msg"))
        sig[5] ^= 0x40
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"msg", bytes(sig))

    def test_wrong_length_rejected(self, keypair):
        sig = keypair.private.sign(b"msg")
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"msg", sig[:-1])

    def test_oversized_value_rejected(self, keypair):
        size = keypair.public.byte_size
        huge = (keypair.public.modulus + 1).to_bytes(size + 1, "big")[-size:]
        with pytest.raises(InvalidSignature):
            keypair.public.verify(b"msg", b"\xff" * size)
        del huge

    def test_is_valid_boolean(self, keypair):
        sig = keypair.private.sign(b"msg")
        assert keypair.public.is_valid(b"msg", sig)
        assert not keypair.public.is_valid(b"other", sig)

    def test_crt_matches_plain_exponentiation(self, keypair):
        import repro.crypto.pkcs1 as p

        x = p.encode_to_int(b"crt check", keypair.private.modulus)
        plain = pow(x, keypair.private.private_exponent, keypair.private.modulus)
        via_crt = keypair.private._sign_crt(x)
        assert plain == via_crt

    def test_cached_crt_signs_like_the_plain_path(self, keypair):
        """The CRT constants are computed once per key; signatures stay
        byte-identical to a key without primes (the non-CRT path), and the
        cache is invisible to equality, hash and pickling."""
        import pickle
        from dataclasses import replace

        private = keypair.private
        plain = replace(private, prime_p=0, prime_q=0)
        fresh = replace(private)  # equal key, nothing cached yet
        for message in (b"", b"first", b"second", b"x" * 300):
            assert private.sign(message) == plain.sign(message)
        assert private._crt is private._crt  # computed once
        assert "_crt" not in fresh.__dict__
        assert private == fresh and hash(private) == hash(fresh)
        restored = pickle.loads(pickle.dumps(private))
        assert restored == private
        assert restored.sign(b"after pickling") == plain.sign(b"after pickling")

    def test_public_key_serialization(self, keypair):
        data = keypair.public.to_bytes()
        restored = RsaPublicKey.from_bytes(data)
        assert restored == keypair.public

    def test_distinct_keys(self):
        a = generate_rsa_keypair(256)
        b = generate_rsa_keypair(256)
        assert a.public.modulus != b.public.modulus

    def test_seeded_source_replays_the_keypair(self):
        assert generate_rsa_keypair(512, rng=SeededSource(1)) == generate_rsa_keypair(
            512, rng=SeededSource(1)
        )
        assert generate_rsa_keypair(256, rng=SeededSource(1)) != generate_rsa_keypair(
            256, rng=SeededSource(2)
        )

    def test_too_small_modulus_rejected(self):
        with pytest.raises(KeyGenerationError):
            generate_rsa_keypair(64)

    def test_deterministic_signature(self, keypair):
        assert keypair.private.sign(b"x") == keypair.private.sign(b"x")


class TestMultiPrime:
    """RFC 8017 multi-prime keys: three primes from 1024 bits up."""

    def test_prime_count_follows_the_modulus_size(self):
        assert [prime_count(bits) for bits in (128, 512, 1023)] == [2, 2, 2]
        assert [prime_count(bits) for bits in (1024, 2048, 4096)] == [3, 3, 3]
        assert max(prime_count(bits) for bits in range(128, 8193, 8)) == 3

    @pytest.mark.parametrize("bits, count", [(512, 2), (1024, 3)])
    def test_generated_keys_have_that_many_primes(self, bits, count, keypair, keypair_1024):
        private = {512: keypair, 1024: keypair_1024}[bits].private
        assert len(private.primes) == count
        assert len(private.other_primes) == count - 2
        assert private.modulus.bit_length() == bits
        assert len(set(private.primes)) == count
        for r in private.primes:
            assert bits // count <= r.bit_length() <= bits // count + 1

    def test_three_prime_crt_signature_equals_plain_exponentiation(self, keypair_1024):
        """A three-prime CRT signature is ``x^d mod N`` byte for byte (the
        two-prime key is covered by ``TestRsa``); the cached constants are
        invisible to equality, hash and pickling (what pool workers get)."""
        import pickle
        from dataclasses import replace

        private = keypair_1024.private
        plain = replace(private, prime_p=0, prime_q=0, other_primes=())
        fresh = replace(private)
        for message in (b"", b"prepare", b"x" * 300):
            x = pkcs1.encode_to_int(message, private.modulus)
            assert private._sign_crt(x) == pow(x, private.private_exponent, private.modulus)
            assert private.sign(message) == plain.sign(message)
        assert len(private._crt) == len(private.primes)
        assert "_crt" not in fresh.__dict__
        assert private == fresh and hash(private) == hash(fresh)
        assert private != plain
        restored = pickle.loads(pickle.dumps(private))
        assert restored == private and hash(restored) == hash(private)
        assert restored.sign(b"after pickling") == plain.sign(b"after pickling")

    def test_primes_must_multiply_to_the_modulus(self, keypair_1024):
        from dataclasses import replace

        private = keypair_1024.private
        with pytest.raises(CryptoError):
            replace(private, other_primes=())  # a truncated key file
        with pytest.raises(CryptoError):
            replace(private, prime_q=0)
        with pytest.raises(CryptoError):
            RsaPrivateKey(
                modulus=private.modulus,
                exponent=private.exponent,
                private_exponent=private.private_exponent,
                other_primes=private.other_primes,
            )
