"""Plain (non-threshold) RSA signatures with SHA-1 / PKCS#1 v1.5.

Used for: the single-server base case of Table 2, transaction-signature
keys, and the per-replica authentication keys of the broadcast layer.
The threshold scheme in :mod:`repro.crypto.shoup` produces signatures that
verify against :class:`RsaPublicKey` unchanged — that interoperability is
the point of using Shoup's scheme (§2 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.crypto import pkcs1
from repro.errors import InvalidSignature, KeyGenerationError
from repro.util.numth import invmod, random_prime
from repro.util.serialization import (
    bytes_to_int,
    int_to_bytes,
    pack_int,
    unpack_int,
)

DEFAULT_PUBLIC_EXPONENT = 65537


@dataclass(frozen=True)
class RsaPublicKey:
    """RSA public key ``(N, e)``."""

    modulus: int
    exponent: int = DEFAULT_PUBLIC_EXPONENT

    @property
    def byte_size(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def verify(self, message: bytes, signature: bytes) -> None:
        """Verify a PKCS#1 v1.5 / SHA-1 signature; raise on failure."""
        if len(signature) != self.byte_size:
            raise InvalidSignature("signature length does not match modulus size")
        s = bytes_to_int(signature)
        if s >= self.modulus:
            raise InvalidSignature("signature value out of range")
        em = pow(s, self.exponent, self.modulus).to_bytes(self.byte_size, "big")
        if not pkcs1.emsa_pkcs1_v15_verify(message, em):
            raise InvalidSignature("PKCS#1 encoding mismatch")

    def is_valid(self, message: bytes, signature: bytes) -> bool:
        """Boolean convenience wrapper around :meth:`verify`."""
        try:
            self.verify(message, signature)
        except InvalidSignature:
            return False
        return True

    def to_bytes(self) -> bytes:
        return pack_int(self.modulus) + pack_int(self.exponent)

    @classmethod
    def from_bytes(cls, data: bytes) -> "RsaPublicKey":
        modulus, offset = unpack_int(data, 0)
        exponent, _ = unpack_int(data, offset)
        return cls(modulus=modulus, exponent=exponent)


@dataclass(frozen=True)
class RsaPrivateKey:
    """RSA private key; keeps the primes for optional CRT acceleration."""

    modulus: int
    exponent: int          # public exponent e
    private_exponent: int  # d = e^-1 mod lambda or phi
    prime_p: int = 0
    prime_q: int = 0

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(modulus=self.modulus, exponent=self.exponent)

    @property
    def byte_size(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """Produce a PKCS#1 v1.5 / SHA-1 signature."""
        x = pkcs1.encode_to_int(message, self.modulus)
        if self.prime_p and self.prime_q:
            s = self._sign_crt(x)
        else:
            s = pow(x, self.private_exponent, self.modulus)
        return s.to_bytes(self.byte_size, "big")

    @cached_property
    def _crt(self) -> Tuple[int, int, int]:
        """``(d mod p-1, d mod q-1, q^-1 mod p)``, computed once per key.

        ``cached_property`` stores into the instance ``__dict__``, which a
        frozen dataclass allows; equality and hash still read the fields.
        """
        p, q = self.prime_p, self.prime_q
        return (
            self.private_exponent % (p - 1),
            self.private_exponent % (q - 1),
            invmod(q, p),
        )

    def _sign_crt(self, x: int) -> int:
        p, q = self.prime_p, self.prime_q
        d_p, d_q, q_inv = self._crt
        s_p = pow(x % p, d_p, p)
        s_q = pow(x % q, d_q, q)
        h = (q_inv * (s_p - s_q)) % p
        return s_q + h * q


@dataclass(frozen=True)
class RsaKeyPair:
    private: RsaPrivateKey

    @property
    def public(self) -> RsaPublicKey:
        return self.private.public_key


def generate_rsa_keypair(
    bits: int = 1024, exponent: int = DEFAULT_PUBLIC_EXPONENT
) -> RsaKeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Plain (non-safe) primes suffice here; only the threshold dealer needs
    safe primes.
    """
    if bits < 128:
        raise KeyGenerationError("modulus must be at least 128 bits")
    half = bits // 2
    for _ in range(200):
        p = random_prime(half)
        q = random_prime(bits - half)
        if p == q:
            continue
        n = p * q
        if n.bit_length() != bits:
            continue
        phi = (p - 1) * (q - 1)
        try:
            d = invmod(exponent, phi)
        except ValueError:
            continue
        private = RsaPrivateKey(
            modulus=n,
            exponent=exponent,
            private_exponent=d,
            prime_p=p,
            prime_q=q,
        )
        return RsaKeyPair(private=private)
    raise KeyGenerationError("could not generate RSA key pair")


def signature_to_int(signature: bytes) -> int:
    return bytes_to_int(signature)


def int_to_signature(value: int, modulus: int) -> bytes:
    size = (modulus.bit_length() + 7) // 8
    return int_to_bytes(value).rjust(size, b"\x00")
