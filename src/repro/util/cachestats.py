"""Registry of the repo's memoization caches, with bound + eviction stats.

KeyTrap-class abuse turns unbounded memoization into a memory-exhaustion
vector, so every cache in the hot crypto/render paths must carry an
explicit bound (rule C304's spirit applied to module-level caches, which
the AST rule cannot see).  This module enumerates them in one place so a
test — and an operator — can audit the whole set:

* ``repro.util.numth.factorial`` — Shoup's ``delta = n!``
* ``repro.util.numth.scaled_lagrange_coefficient`` — integer Lagrange
  coefficients per ``(delta, subset, i, x)``
* ``repro.crypto.shoup._verification_base`` — ``x^{4 delta} mod N``
* ``repro.crypto.pkcs1._encode_to_int_cached`` — PKCS#1 digest encoding

Every *instance* cache (one per zone, replica or resolver, so not
reachable by dotted path) stores its entries in a
:class:`repro.util.lru.BoundedLRU`: the zone render cache, the
resolver's positive and NXT-proof caches, the replica's response and
answer caches, and the broadcast plane's payload archive and fragment
store.  The bound, the LRU order and the hits/misses/evictions counters
are therefore audited once, on that class, and a structural test checks
that each of those caches really is built on it.

For ``functools.lru_cache`` functions the eviction count is derived:
``evictions = misses - currsize`` (every miss inserts; every insert past
capacity evicts exactly one).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List

#: Dotted paths of every audited ``lru_cache``-decorated function.
AUDITED_LRU_CACHES: List[str] = [
    "repro.util.numth.factorial",
    "repro.util.numth.scaled_lagrange_coefficient",
    "repro.crypto.shoup._verification_base",
    "repro.crypto.pkcs1._encode_to_int_cached",
]


def _resolve(dotted: str) -> Callable[..., Any]:
    import importlib

    module_name, _, attr = dotted.rpartition(".")
    return getattr(importlib.import_module(module_name), attr)


def lru_cache_stats() -> Dict[str, Dict[str, int]]:
    """Per-cache ``{maxsize, currsize, hits, misses, evictions}``.

    Raises :class:`TypeError` (via the ``maxsize`` arithmetic) if any
    audited cache has been left unbounded — the audit's whole point.
    """
    out: Dict[str, Dict[str, int]] = {}
    for dotted in AUDITED_LRU_CACHES:
        info = _resolve(dotted).cache_info()
        if info.maxsize is None:
            raise TypeError(f"{dotted} is an unbounded lru_cache")
        out[dotted] = {
            "maxsize": info.maxsize,
            "currsize": info.currsize,
            "hits": info.hits,
            "misses": info.misses,
            "evictions": info.misses - info.currsize,
        }
    return out
