"""Shoup's practical threshold RSA signature scheme (Eurocrypt 2000).

This is the scheme the paper uses to share the DNSSEC zone key among the
``n`` authoritative servers (§2, §3.3): any ``t+1`` servers can jointly
produce a standard RSA/SHA-1/PKCS#1 signature, while ``t`` or fewer learn
nothing about the private key.  The scheme is non-interactive — each server
computes a *signature share* locally and (optionally) a non-interactive
zero-knowledge *correctness proof*; any party can then assemble ``t+1``
valid shares into the final signature.

Notation follows Shoup's paper:

* ``N = p*q`` with safe primes ``p = 2p' + 1``, ``q = 2q' + 1``;
  ``m = p'q'`` is the order of the subgroup of squares ``Q_N``.
* The private exponent ``d = e^{-1} mod m`` is shared with a random
  degree-``t`` polynomial ``f`` over ``Z_m`` with ``f(0) = d``;
  server ``i`` holds ``s_i = f(i) mod m``.
* ``delta = n!``.  A share on a PKCS#1-encoded message ``x`` is
  ``x_i = x^{2*delta*s_i} mod N``.
* Verification values: ``v`` generates ``Q_N``; ``v_i = v^{s_i}``.
* Assembly over a subset ``S`` of ``t+1`` shares uses integer-scaled
  Lagrange coefficients ``lambda_i = delta * prod_{j}(0-j)/(i-j)``:
  ``w = prod x_i^{2*lambda_i}`` satisfies ``w^e = x^{4*delta^2}``, and with
  ``a, b`` such that ``4*delta^2*a + e*b = 1`` the final signature is
  ``y = w^a * x^b`` with ``y^e = x``.

The correctness proof is the Fiat–Shamir discrete-log-equality proof of
Shoup §4: knowledge of ``s_i`` with ``x_i^2 = (x^{4*delta})^{s_i}`` and
``v_i = v^{s_i}``.

Whoever holds ``t+1`` shares holds the whole key: the same Lagrange
combination taken on the share *values* gives an exponent ``F`` with
``e*F = 1 (mod lambda(N))``, and a known multiple of ``lambda(N)`` factors
``N``.  :func:`recover_private_key` does that for the trusted setup, which
deals all ``n`` shares anyway (DESIGN.md §5n).
"""

from __future__ import annotations

import hashlib
import math
import secrets
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

from repro.crypto import pkcs1
from repro.crypto.rsa import RsaPrivateKey, RsaPublicKey
from repro.errors import (
    AssemblyError,
    ConfigError,
    InvalidShare,
    InvalidSignature,
    KeyGenerationError,
)
from repro.util.numth import (
    RandomSource,
    egcd,
    factorial,
    invmod,
    random_safe_prime,
    scaled_lagrange_coefficient,
)
from repro.util.serialization import (
    int_to_bytes,
    pack_int,
    pack_u16,
    unpack_int,
    unpack_u16,
)

# Bit length of the Fiat-Shamir challenge (SHA-256 output).
_CHALLENGE_BITS = 256

# Bases tried, in order, when splitting N from a multiple of lambda(N).
# For a safe-prime N a base splits it with probability about 1/2, so 64
# fixed bases leave a chance near 2^-64 that a valid key fails to split.
_SPLIT_BASES: Tuple[int, ...] = tuple(
    p for p in range(2, 312) if all(p % q for q in range(2, math.isqrt(p) + 1))
)


@lru_cache(maxsize=256)
def _verification_base(x: int, delta: int, modulus: int) -> int:
    """``x~ = x^{4*delta} mod N`` — the base of the share-correctness proofs.

    Every prover computes it once per message and every verifier once per
    share; all inputs are public, so memoizing leaks nothing and turns
    ``t`` extra wide modexps per signing round into dictionary hits.
    Secret-dependent powers (share values, nonce commitments) are never
    cached.
    """
    return pow(x, 4 * delta, modulus)


def verification_base_cache_stats() -> Dict[str, int]:
    """Bound/usage stats of the ``x^{4 delta}`` memo (KeyTrap hygiene audit).

    The cache is keyed by attacker-influenceable inputs (the message hash
    ``x``), so its explicit bound matters; see
    :mod:`repro.util.cachestats` for the repo-wide audit.
    """
    info = _verification_base.cache_info()
    return {
        "maxsize": int(info.maxsize or 0),
        "currsize": info.currsize,
        "hits": info.hits,
        "misses": info.misses,
        "evictions": info.misses - info.currsize,
    }


def _proof_challenge(
    modulus: int,
    v: int,
    x_tilde: int,
    v_i: int,
    x_i_sq: int,
    commit_v: int,
    commit_x: int,
) -> int:
    """Fiat–Shamir challenge ``c = H'(v, x~, v_i, x_i^2, v^r, x~^r)``."""
    h = hashlib.sha256()
    for value in (modulus, v, x_tilde, v_i, x_i_sq, commit_v, commit_x):
        data = int_to_bytes(value)
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    return int.from_bytes(h.digest(), "big")


def _proof_nonce(secret: int, statement: Tuple[int, ...], bits: int) -> int:
    """``bits`` bits of SHAKE-256 over the share secret and the statement."""
    h = hashlib.shake_256(b"repro-shoup-proof-nonce")
    for value in (secret, *statement):
        data = int_to_bytes(value)
        h.update(len(data).to_bytes(4, "big"))
        h.update(data)
    size = (bits + 7) // 8
    return int.from_bytes(h.digest(size), "big") >> (8 * size - bits)


@dataclass(frozen=True)
class ShareProof:
    """Non-interactive proof of correctness ``(z, c)`` for a signature share."""

    z: int
    c: int

    def to_bytes(self) -> bytes:
        return pack_int(self.z) + pack_int(self.c)

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> Tuple["ShareProof", int]:
        z, offset = unpack_int(data, offset)
        c, offset = unpack_int(data, offset)
        return cls(z=z, c=c), offset


@dataclass(frozen=True)
class SignatureShare:
    """One server's contribution ``x_i = x^{2*delta*s_i}`` to a signature.

    ``proof`` is present for the BASIC protocol and for the on-demand phase
    of OptProof; the optimistic protocols ship bare share values.
    """

    index: int
    value: int
    proof: Optional[ShareProof] = None

    def with_proof(self, proof: ShareProof) -> "SignatureShare":
        return SignatureShare(index=self.index, value=self.value, proof=proof)

    def without_proof(self) -> "SignatureShare":
        return SignatureShare(index=self.index, value=self.value, proof=None)

    def to_bytes(self) -> bytes:
        has_proof = b"\x01" if self.proof else b"\x00"
        out = pack_u16(self.index) + pack_int(self.value) + has_proof
        if self.proof:
            out += self.proof.to_bytes()
        return out

    @classmethod
    def from_bytes(cls, data: bytes, offset: int = 0) -> Tuple["SignatureShare", int]:
        index, offset = unpack_u16(data, offset)
        value, offset = unpack_int(data, offset)
        flag = data[offset]
        offset += 1
        proof: Optional[ShareProof] = None
        if flag:
            proof, offset = ShareProof.from_bytes(data, offset)
        return cls(index=index, value=value, proof=proof), offset


@dataclass(frozen=True)
class ThresholdPublicKey:
    """Public parameters of an ``(n, t)``-threshold RSA key.

    ``rsa`` is the ordinary RSA public key — DNSSEC clients verify against
    it without knowing the key is threshold-shared.
    """

    rsa: RsaPublicKey
    n: int
    t: int
    verifier: int                       # v, generator of Q_N
    share_verifiers: Tuple[int, ...]    # v_i = v^{s_i}, indexed from 1

    def __post_init__(self) -> None:
        if self.t >= self.n:
            raise ConfigError("threshold t must be smaller than n")
        if len(self.share_verifiers) != self.n:
            raise ConfigError("need one verification value per server")

    @property
    def modulus(self) -> int:
        return self.rsa.modulus

    @property
    def exponent(self) -> int:
        return self.rsa.exponent

    @property
    def delta(self) -> int:
        return factorial(self.n)

    def share_verifier(self, index: int) -> int:
        if not 1 <= index <= self.n:
            raise ValueError(f"share index {index} out of range 1..{self.n}")
        return self.share_verifiers[index - 1]

    # -- share verification -------------------------------------------------

    def verify_share(self, message: bytes, share: SignatureShare) -> None:
        """Check a share's correctness proof; raise :class:`InvalidShare`.

        This is the "share verification" step whose cost dominates the
        BASIC protocol (Table 3: 47.2 % of signing time).
        """
        if share.proof is None:
            raise InvalidShare(f"share {share.index} carries no proof")
        if not 1 <= share.index <= self.n:
            raise InvalidShare(f"share index {share.index} out of range")
        N = self.modulus
        x = pkcs1.encode_to_int(message, N)
        x_tilde = _verification_base(x, self.delta, N)
        v = self.verifier
        v_i = self.share_verifier(share.index)
        x_i = share.value % N
        if x_i in (0, 1) or x_i == N - 1:
            raise InvalidShare(f"degenerate share value from {share.index}")
        x_i_sq = pow(x_i, 2, N)
        z, c = share.proof.z, share.proof.c
        # Recompute the commitments: v^z * v_i^{-c} and x~^z * x_i^{-2c}.
        try:
            commit_v = (pow(v, z, N) * pow(v_i, -c, N)) % N
            commit_x = (pow(x_tilde, z, N) * pow(x_i_sq, -c, N)) % N
        except ValueError as exc:  # non-invertible => bogus share
            raise InvalidShare(f"share {share.index}: {exc}") from exc
        expected = _proof_challenge(N, v, x_tilde, v_i, x_i_sq, commit_v, commit_x)
        if expected != c:
            raise InvalidShare(f"share {share.index}: proof challenge mismatch")

    def share_is_valid(self, message: bytes, share: SignatureShare) -> bool:
        try:
            self.verify_share(message, share)
        except InvalidShare:
            return False
        return True

    # -- signature assembly ---------------------------------------------------

    def assemble(self, message: bytes, shares: Sequence[SignatureShare]) -> bytes:
        """Combine ``t+1`` shares into a standard RSA signature.

        Does *not* verify share proofs; the caller chooses the policy
        (BASIC verifies each share first, the optimistic protocols verify
        the assembled signature instead).  Raises :class:`AssemblyError`
        if the inputs are structurally unusable.
        """
        if len(shares) < self.t + 1:
            raise AssemblyError(
                f"need {self.t + 1} shares, got {len(shares)}"
            )
        chosen = list(shares[: self.t + 1])
        indices = tuple(s.index for s in chosen)
        if len(set(indices)) != len(indices):
            raise AssemblyError("duplicate share indices")
        if not all(1 <= i <= self.n for i in indices):
            raise AssemblyError("share index out of range")
        N = self.modulus
        e = self.exponent
        delta = self.delta
        x = pkcs1.encode_to_int(message, N)
        w = 1
        for share in chosen:
            lam = scaled_lagrange_coefficient(delta, indices, share.index, 0)
            try:
                w = (w * pow(share.value, 2 * lam, N)) % N
            except ValueError as exc:
                raise AssemblyError(f"share {share.index} not invertible") from exc
        # w^e == x^{e'} with e' = 4*delta^2;  find a,b with e'*a + e*b = 1.
        e_prime = 4 * delta * delta
        g, a, b = egcd(e_prime, e)
        if g != 1:
            raise AssemblyError(
                f"gcd(4*delta^2, e) = {g} != 1; choose a prime e > n"
            )
        try:
            y = (pow(w, a, N) * pow(x, b, N)) % N
        except ValueError as exc:
            raise AssemblyError("assembled value not invertible") from exc
        size = (N.bit_length() + 7) // 8
        return y.to_bytes(size, "big")

    def verify_signature(self, message: bytes, signature: bytes) -> None:
        """Verify the assembled signature as a plain RSA/SHA-1 signature.

        Cheap (Table 3: 0.2 % of signing time with e = 65537).
        """
        self.rsa.verify(message, signature)

    def signature_is_valid(self, message: bytes, signature: bytes) -> bool:
        try:
            self.verify_signature(message, signature)
        except InvalidSignature:
            return False
        return True

    # -- serialization --------------------------------------------------------

    def to_bytes(self) -> bytes:
        out = self.rsa.to_bytes()
        out += pack_u16(self.n) + pack_u16(self.t)
        out += pack_int(self.verifier)
        for v_i in self.share_verifiers:
            out += pack_int(v_i)
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "ThresholdPublicKey":
        modulus, offset = unpack_int(data, 0)
        exponent, offset = unpack_int(data, offset)
        n, offset = unpack_u16(data, offset)
        t, offset = unpack_u16(data, offset)
        verifier, offset = unpack_int(data, offset)
        share_verifiers: list[int] = []
        for _ in range(n):
            v_i, offset = unpack_int(data, offset)
            share_verifiers.append(v_i)
        return cls(
            rsa=RsaPublicKey(modulus=modulus, exponent=exponent),
            n=n,
            t=t,
            verifier=verifier,
            share_verifiers=tuple(share_verifiers),
        )


@dataclass(frozen=True)
class ThresholdKeyShare:
    """Server ``index``'s private share ``s_i`` plus the public parameters.

    This is the file the SINTRA-style key utility distributes to each
    server over a secure channel (§4.3).
    """

    index: int
    secret: int
    public: ThresholdPublicKey

    def generate_share(self, message: bytes) -> SignatureShare:
        """Compute the bare signature share ``x_i = x^{2*delta*s_i}``.

        "generate share" in Table 3 (49.6 % of BASIC signing time) is this
        plus :meth:`prove`; the optimistic protocols call only this.
        """
        N = self.public.modulus
        x = pkcs1.encode_to_int(message, N)
        value = pow(x, 2 * self.public.delta * self.secret, N)
        return SignatureShare(index=self.index, value=value)

    def prove(self, message: bytes, share: SignatureShare) -> ShareProof:
        """Produce the non-interactive correctness proof for ``share``."""
        if share.index != self.index:
            raise ValueError("cannot prove another server's share")
        N = self.public.modulus
        x = pkcs1.encode_to_int(message, N)
        x_tilde = _verification_base(x, self.public.delta, N)
        v = self.public.verifier
        v_i = self.public.share_verifier(self.index)
        x_i_sq = pow(share.value, 2, N)
        # Nonce wide enough to statistically hide s_i * c, derived from the
        # secret and the statement (the idea of RFC 6979): the same proof
        # for the same inputs, an unpredictable nonce for anyone without s_i.
        r_bits = N.bit_length() + 2 * _CHALLENGE_BITS
        r = _proof_nonce(self.secret, (N, v, x_tilde, v_i, x_i_sq), r_bits)
        commit_v = pow(v, r, N)
        commit_x = pow(x_tilde, r, N)
        c = _proof_challenge(N, v, x_tilde, v_i, x_i_sq, commit_v, commit_x)
        z = self.secret * c + r
        return ShareProof(z=z, c=c)

    def generate_share_with_proof(self, message: bytes) -> SignatureShare:
        """Share plus proof — what the BASIC protocol sends (§3.3)."""
        share = self.generate_share(message)
        return share.with_proof(self.prove(message, share))

    def to_bytes(self) -> bytes:
        return pack_u16(self.index) + pack_int(self.secret) + self.public.to_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "ThresholdKeyShare":
        index, offset = unpack_u16(data, 0)
        secret, offset = unpack_int(data, offset)
        public = ThresholdPublicKey.from_bytes(data[offset:])
        return cls(index=index, secret=secret, public=public)


@dataclass
class ThresholdDealer:
    """Trusted dealer: generates the shared key and all server shares.

    Mirrors SINTRA's key generation utility (§4.3): run once by a trusted
    entity, output files shipped to each server over a secure channel.
    ``rng`` supplies the primes, the sharing polynomial and ``v``.
    """

    bits: int
    n: int
    t: int
    exponent: int = 65537
    # Pre-generated safe primes may be supplied to skip the (slow) search.
    prime_p: int = 0
    prime_q: int = 0
    rng: RandomSource = field(default=secrets, repr=False, compare=False)
    _m: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ConfigError("need at least one server")
        if not 0 <= self.t < self.n:
            raise ConfigError("require 0 <= t < n")
        if 2 * self.t + 1 > self.n:
            raise ConfigError("threshold scheme requires n >= 2t + 1")
        if self.exponent <= self.n:
            raise ConfigError("public exponent must be a prime larger than n")

    def deal(self) -> Tuple[ThresholdPublicKey, Tuple[ThresholdKeyShare, ...]]:
        """Generate the key and return ``(public_key, shares)``."""
        p, q = self._primes()
        N = p * q
        m = ((p - 1) // 2) * ((q - 1) // 2)
        self._m = m
        try:
            d = invmod(self.exponent, m)
        except ValueError as exc:
            raise KeyGenerationError(
                "public exponent shares a factor with p'q'"
            ) from exc
        # Random degree-t polynomial over Z_m with f(0) = d.
        coeffs = [d] + [self.rng.randbelow(m) for _ in range(self.t)]
        secrets_by_index: Dict[int, int] = {}
        for i in range(1, self.n + 1):
            acc = 0
            for coeff in reversed(coeffs):
                acc = (acc * i + coeff) % m
            secrets_by_index[i] = acc
        # v: random generator of Q_N (a random square generates Q_N w.h.p.).
        while True:
            r = self.rng.randbelow(N - 2) + 2
            if egcd(r, N)[0] == 1:
                break
        v = pow(r, 2, N)
        share_verifiers = tuple(
            pow(v, secrets_by_index[i], N) for i in range(1, self.n + 1)
        )
        public = ThresholdPublicKey(
            rsa=RsaPublicKey(modulus=N, exponent=self.exponent),
            n=self.n,
            t=self.t,
            verifier=v,
            share_verifiers=share_verifiers,
        )
        shares = tuple(
            ThresholdKeyShare(index=i, secret=secrets_by_index[i], public=public)
            for i in range(1, self.n + 1)
        )
        return public, shares

    def _primes(self) -> Tuple[int, int]:
        if self.prime_p and self.prime_q:
            return self.prime_p, self.prime_q
        half = self.bits // 2
        p = random_safe_prime(half, rng=self.rng)
        while True:
            q = random_safe_prime(self.bits - half, rng=self.rng)
            if q != p:
                return p, q


def deal_threshold_key(
    n: int,
    t: int,
    bits: int = 1024,
    exponent: int = 65537,
    prime_p: int = 0,
    prime_q: int = 0,
    rng: RandomSource = secrets,
) -> Tuple[ThresholdPublicKey, Tuple[ThresholdKeyShare, ...]]:
    """Convenience wrapper around :class:`ThresholdDealer`."""
    dealer = ThresholdDealer(
        bits=bits,
        n=n,
        t=t,
        exponent=exponent,
        prime_p=prime_p,
        prime_q=prime_q,
        rng=rng,
    )
    return dealer.deal()


def reshare(
    public: ThresholdPublicKey,
    shares: Sequence[ThresholdKeyShare],
    dealer: ThresholdDealer,
) -> Tuple[ThresholdKeyShare, ...]:
    """Dealer-assisted share refresh (proactive-security extension).

    Produces a fresh, independent sharing of the *same* private exponent:
    old and new shares are unlinkable, so an adversary must corrupt ``t+1``
    servers within one refresh epoch.  The paper lists proactivization as a
    natural extension; this utility implements the dealer-based variant.
    """
    if dealer._m == 0:
        raise KeyGenerationError("dealer has not dealt the original key")
    m = dealer._m
    d_check = invmod(public.exponent, m)
    coeffs = [d_check] + [dealer.rng.randbelow(m) for _ in range(public.t)]
    new_shares: list[int] = []
    N = public.modulus
    new_verifiers: list[int] = []
    for i in range(1, public.n + 1):
        acc = 0
        for coeff in reversed(coeffs):
            acc = (acc * i + coeff) % m
        new_shares.append(acc)
        new_verifiers.append(pow(public.verifier, acc, N))
    new_public = ThresholdPublicKey(
        rsa=public.rsa,
        n=public.n,
        t=public.t,
        verifier=public.verifier,
        share_verifiers=tuple(new_verifiers),
    )
    return tuple(
        ThresholdKeyShare(index=i + 1, secret=s, public=new_public)
        for i, s in enumerate(new_shares)
    )


def recover_private_key(
    public: ThresholdPublicKey, shares: Sequence[ThresholdKeyShare]
) -> RsaPrivateKey:
    """The plain RSA key that ``t+1`` distinct shares of ``public`` determine.

    ``D = sum lambda_i * s_i`` over the first ``t+1`` shares (the scaled
    Lagrange coefficients of :meth:`ThresholdPublicKey.assemble`) is
    ``delta * d`` modulo ``p'q'``, so ``F = 4*delta*a*D + b`` with
    ``4*delta^2*a + e*b = 1`` is the exponent an assembled signature
    raises ``x`` to, and ``e*F - 1`` is a multiple of ``lambda(N)``.
    Miller's square-root-of-one walk over fixed bases turns that multiple
    into the factors of ``N`` (Boneh, "Twenty Years of Attacks on the RSA
    Cryptosystem", Fact 1).  The key signs byte-identically to
    :meth:`ThresholdPublicKey.assemble`, at the cost of a CRT signature.

    Only the trusted setup calls this: it already holds all ``n`` shares.
    Raises :class:`KeyGenerationError` for fewer than ``t+1`` shares,
    repeated or out-of-range indices, or shares that do not determine the
    key (a tampered share); any factor it does find is a true factor of
    ``N``, so it never returns a wrong key.
    """
    chosen = list(shares[: public.t + 1])
    if len(chosen) < public.t + 1:
        raise KeyGenerationError(f"need {public.t + 1} shares, got {len(shares)}")
    indices = tuple(share.index for share in shares)
    if len(set(indices)) != len(indices):
        raise KeyGenerationError("duplicate share indices")
    if not all(1 <= i <= public.n for i in indices):
        raise KeyGenerationError("share index out of range")
    subset = indices[: public.t + 1]
    N = public.modulus
    e = public.exponent
    delta = public.delta
    D = sum(
        scaled_lagrange_coefficient(delta, subset, share.index, 0) * share.secret
        for share in chosen
    )
    g, a, b = egcd(4 * delta * delta, e)
    if g != 1:
        raise KeyGenerationError(f"gcd(4*delta^2, e) = {g} != 1")
    # e*F - 1 = 4*delta*a*k*p'q' for an integer k != 0: a multiple of
    # lambda(N) = 2p'q' that is not zero.
    p = _split_modulus(N, abs(e * (4 * delta * a * D + b) - 1))
    q = N // p
    d = invmod(e, math.lcm(p - 1, q - 1))
    return RsaPrivateKey(
        modulus=N, exponent=e, private_exponent=d, prime_p=p, prime_q=q
    )


def _split_modulus(N: int, multiple: int) -> int:
    """A prime factor of ``N = pq`` from a nonzero multiple of ``lambda(N)``.

    Miller's walk: with ``multiple = 2^s * r``, ``r`` odd, square
    ``base^r`` until it reaches 1; the value before that is a square root
    of 1, and one other than ``+-1`` shares a factor with ``N``.  When the
    walk never reaches 1, ``multiple`` is not a multiple of the base's
    order, so it is not one of ``lambda(N)`` either.
    """
    s = (multiple & -multiple).bit_length() - 1
    r = multiple >> s
    for base in _SPLIT_BASES:
        y = pow(base, r, N)
        if y in (1, N - 1):
            continue
        for _ in range(s):
            z = y * y % N
            if z == 1:
                return math.gcd(y - 1, N)
            if z == N - 1:
                break
            y = z
        else:
            raise KeyGenerationError("shares do not determine the key")
    raise KeyGenerationError("no base split the modulus")
