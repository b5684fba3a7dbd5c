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
from math import prod
from typing import Tuple

from repro.crypto import pkcs1
from repro.errors import CryptoError, InvalidSignature, KeyGenerationError
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
    """RSA private key; keeps the primes for CRT acceleration.

    ``other_primes`` is RFC 8017's multi-prime extension (§3.2): the
    primes beyond ``p`` and ``q`` of an ``N = p·q·r…`` key.  When primes
    are given they must multiply to the modulus, so a truncated key file
    fails here rather than signing garbage every peer rejects.
    """

    modulus: int
    exponent: int          # public exponent e
    private_exponent: int  # d = e^-1 mod lambda or phi
    prime_p: int = 0
    prime_q: int = 0
    other_primes: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.primes and prod(self.primes) != self.modulus:
            raise CryptoError("RSA primes do not multiply to the modulus")

    @property
    def primes(self) -> Tuple[int, ...]:
        """All primes of the modulus, or ``()`` for a key without them."""
        if not (self.prime_p or self.prime_q or self.other_primes):
            return ()
        return (self.prime_p, self.prime_q, *self.other_primes)

    @property
    def public_key(self) -> RsaPublicKey:
        return RsaPublicKey(modulus=self.modulus, exponent=self.exponent)

    @property
    def byte_size(self) -> int:
        return (self.modulus.bit_length() + 7) // 8

    def sign(self, message: bytes) -> bytes:
        """Produce a PKCS#1 v1.5 / SHA-1 signature."""
        x = pkcs1.encode_to_int(message, self.modulus)
        if self._crt:
            s = self._sign_crt(x)
        else:
            s = pow(x, self.private_exponent, self.modulus)
        return s.to_bytes(self.byte_size, "big")

    @cached_property
    def _crt(self) -> Tuple[Tuple[int, int, int, int], ...]:
        """Per prime ``r_i``: ``(r_i, d mod r_i-1, R_i^-1 mod r_i, R_i)``
        with ``R_i = r_1···r_{i-1}`` — computed once per key.

        ``cached_property`` stores into the instance ``__dict__``, which a
        frozen dataclass allows; equality and hash still read the fields.
        """
        constants = []
        product = 1
        for r in self.primes:
            constants.append(
                (r, self.private_exponent % (r - 1), invmod(product, r), product)
            )
            product *= r
        return tuple(constants)

    def _sign_crt(self, x: int) -> int:
        """``x^d mod N`` from one ``pow`` per prime, recombined by Garner's
        algorithm (RFC 8017 §5.1.2): after prime ``i`` the partial result
        is ``x^d mod R_{i+1}``."""
        s = 0
        for r, d_r, coefficient, product in self._crt:
            s += product * ((pow(x % r, d_r, r) - s) * coefficient % r)
        return s


@dataclass(frozen=True)
class RsaKeyPair:
    private: RsaPrivateKey

    @property
    def public(self) -> RsaPublicKey:
        return self.private.public_key


def prime_count(bits: int) -> int:
    """Primes in a ``bits``-bit key: three from 1024 bits up, two below.

    Three primes make a sign three ``pow``s at a third of the modulus
    size instead of two at half; a fourth ~256-bit prime at 1024 bits
    would come within reach of ECM, which is why OpenSSL caps 1024-bit
    keys at three (DESIGN.md §5l).
    """
    return 3 if bits >= 1024 else 2


def generate_rsa_keypair(
    bits: int = 1024, exponent: int = DEFAULT_PUBLIC_EXPONENT
) -> RsaKeyPair:
    """Generate an RSA key pair with a ``bits``-bit modulus.

    Plain (non-safe) primes suffice here; only the threshold dealer needs
    safe primes.
    """
    if bits < 128:
        raise KeyGenerationError("modulus must be at least 128 bits")
    count = prime_count(bits)
    sizes = [bits // count + (i < bits % count) for i in range(count)]
    for _ in range(200):
        primes = [random_prime(size) for size in sizes]
        if len(set(primes)) != count:
            continue
        n = prod(primes)
        if n.bit_length() != bits:
            continue
        try:
            d = invmod(exponent, prod(r - 1 for r in primes))
        except ValueError:
            continue
        private = RsaPrivateKey(
            modulus=n,
            exponent=exponent,
            private_exponent=d,
            prime_p=primes[0],
            prime_q=primes[1],
            other_primes=tuple(primes[2:]),
        )
        return RsaKeyPair(private=private)
    raise KeyGenerationError("could not generate RSA key pair")


def signature_to_int(signature: bytes) -> int:
    return bytes_to_int(signature)


def int_to_signature(value: int, modulus: int) -> bytes:
    size = (modulus.bit_length() + 7) // 8
    return int_to_bytes(value).rjust(size, b"\x00")
