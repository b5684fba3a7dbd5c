"""Number-theoretic primitives used by the RSA and threshold-RSA schemes.

The paper's prototype relied on Java's ``BigInteger``; this module is the
Python equivalent layer: modular inverses, Miller--Rabin primality testing,
(safe) prime generation, and the integer Lagrange coefficients used by
Shoup's threshold RSA scheme (where interpolation happens over the integers
after scaling by ``delta = n!``).
"""

from __future__ import annotations

import math
import secrets
from functools import lru_cache
from typing import Protocol, Tuple

from repro.errors import KeyGenerationError

# Small primes used for fast trial division before Miller-Rabin.
_SMALL_PRIMES: Tuple[int, ...] = tuple(
    p
    for p in range(3, 1000)
    if all(p % q for q in range(2, int(p**0.5) + 1))
)


class RandomSource(Protocol):
    """Where key generation draws its randomness: the :mod:`secrets`
    module by default, or a seeded source where a run must replay."""

    def randbits(self, k: int, /) -> int: ...

    def randbelow(self, exclusive_upper_bound: int, /) -> int: ...


def egcd(a: int, b: int) -> Tuple[int, int, int]:
    """Extended Euclid: return ``(g, x, y)`` with ``a*x + b*y == g == gcd(a, b)``."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    return old_r, old_x, old_y


def invmod(a: int, m: int) -> int:
    """Return the inverse of ``a`` modulo ``m``.

    Raises :class:`ValueError` if the inverse does not exist.
    """
    # pow(a, -1, m) is available since Python 3.8 and is implemented in C.
    try:
        return pow(a, -1, m)
    except ValueError as exc:
        raise ValueError(f"{a} is not invertible modulo {m}") from exc


def is_probable_prime(n: int, rounds: int = 40) -> bool:
    """Miller--Rabin probabilistic primality test.

    With 40 random bases the error probability is below ``4**-40``, which is
    negligible for key generation purposes.
    """
    if n < 2:
        return False
    for p in (2,) + _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    # Write n - 1 = d * 2^s with d odd.
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for _ in range(rounds):
        a = secrets.randbelow(n - 3) + 2
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True


def random_prime(
    bits: int, max_attempts: int = 100_000, rng: RandomSource = secrets
) -> int:
    """Return a random prime with exactly ``bits`` bits.

    The top two bits are set (the prime is at least ``1.5 * 2**(bits-1)``),
    so a product of k such primes almost always has the full sum of their
    bit lengths and RSA key generation rarely has to start over.
    Candidates come from ``rng``; the Miller--Rabin bases do not, since
    the verdict does not depend on them (except with negligible odds).
    """
    if bits < 2:
        raise ValueError("primes need at least 2 bits")
    high = 0b11 << (bits - 2)
    for _ in range(max_attempts):
        candidate = rng.randbits(bits) | high | 1
        if is_probable_prime(candidate):
            return candidate
    raise KeyGenerationError(f"no {bits}-bit prime found in {max_attempts} attempts")


def random_safe_prime(
    bits: int, max_attempts: int = 1_000_000, rng: RandomSource = secrets
) -> int:
    """Return a random safe prime ``p = 2q + 1`` with ``p`` of ``bits`` bits.

    Safe primes are required by Shoup's threshold RSA scheme so that the
    subgroup of squares modulo ``N = pq`` is cyclic of order ``p'q'``.
    Generation is slow for large sizes in pure Python; key material for
    benchmarks is pre-generated (see :mod:`repro.crypto.params`).
    """
    if bits < 3:
        raise ValueError("safe primes need at least 3 bits")
    for _ in range(max_attempts):
        q = rng.randbits(bits - 1) | (1 << (bits - 2)) | 1
        # Cheap pre-filters: p = 2q+1 mod small primes.
        p = 2 * q + 1
        if any(p % sp == 0 or q % sp == 0 for sp in _SMALL_PRIMES[:50]):
            continue
        if is_probable_prime(q, rounds=8) and is_probable_prime(p, rounds=40):
            if is_probable_prime(q, rounds=40):
                return p
    raise KeyGenerationError(
        f"no {bits}-bit safe prime found in {max_attempts} attempts"
    )


@lru_cache(maxsize=64)
def factorial(n: int) -> int:
    """``n!`` — Shoup's ``delta``. Thin wrapper for symmetry with the paper.

    Memoized: ``delta`` is recomputed on every share generation,
    verification, and assembly, always for the same handful of ``n``.
    Bounded (KeyTrap hygiene): a deployment uses a single group size, so
    64 distinct ``n`` values is already adversarial territory.
    """
    return math.factorial(n)


def lagrange_coefficient_num_den(
    subset: Tuple[int, ...], i: int, x: int = 0
) -> Tuple[int, int]:
    """Return numerator and denominator of the Lagrange coefficient.

    For interpolation points ``subset`` (distinct non-zero share indices),
    the coefficient of share ``i`` when evaluating at ``x`` is
    ``prod_{j != i} (x - j) / (i - j)``.  The caller multiplies the
    numerator by ``delta = n!`` so that the scaled coefficient
    ``delta * num / den`` is an integer (Shoup, Eurocrypt 2000, §3).
    """
    if i not in subset:
        raise ValueError(f"index {i} not in subset {subset}")
    num = 1
    den = 1
    for j in subset:
        if j == i:
            continue
        num *= x - j
        den *= i - j
    return num, den


@lru_cache(maxsize=4096)
def scaled_lagrange_coefficient(
    delta: int, subset: Tuple[int, ...], i: int, x: int = 0
) -> int:
    """Return the integer ``delta * lambda_{x,i}^subset`` used by Shoup.

    ``delta`` must be ``n!`` for a group of ``n`` servers; divisibility is
    guaranteed because the denominator of the Lagrange coefficient divides
    ``n!`` for any subset of ``{1..n}``.

    Memoized: the coefficients depend only on ``(delta, subset, i, x)``,
    and a deployment reuses the same few subsets for every signature, so
    every signing round after the first assembles with cached values.
    """
    num, den = lagrange_coefficient_num_den(subset, i, x)
    value, remainder = divmod(delta * num, den)
    if remainder:
        raise ValueError(
            f"delta={delta} does not clear denominator {den} for subset {subset}"
        )
    return value


def crt_pair(r_p: int, p: int, r_q: int, q: int) -> int:
    """Chinese remainder: the unique ``x mod p*q`` with given residues."""
    g, p_inv_q, _ = egcd(p, q)
    if g != 1:
        raise ValueError("moduli must be coprime")
    diff = (r_q - r_p) % q
    return (r_p + p * ((diff * p_inv_q) % q)) % (p * q)


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol ``(a/n)`` for odd ``n > 0``."""
    if n <= 0 or n % 2 == 0:
        raise ValueError("n must be a positive odd integer")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0
