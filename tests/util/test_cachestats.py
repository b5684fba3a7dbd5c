"""Repo-wide cache audit: every memo is bounded and reports stats."""

import pytest

from repro.crypto import shoup
from repro.util.cachestats import AUDITED_LRU_CACHES, _resolve, lru_cache_stats
from repro.util.lru import BoundedLRU

STAT_KEYS = {"maxsize", "currsize", "hits", "misses", "evictions"}


def test_every_audited_cache_is_bounded():
    # The audit's core claim: no lru_cache in the registry may be
    # unbounded (KeyTrap hygiene).  cache_info() existing also proves the
    # dotted path still resolves to an lru_cache-decorated function.
    for dotted in AUDITED_LRU_CACHES:
        info = _resolve(dotted).cache_info()
        assert info.maxsize is not None, f"{dotted} is unbounded"
        assert info.maxsize > 0, dotted


def test_stats_shape_and_consistency():
    stats = lru_cache_stats()
    assert set(stats) == set(AUDITED_LRU_CACHES)
    for dotted, entry in stats.items():
        assert set(entry) == STAT_KEYS, dotted
        assert entry["currsize"] <= entry["maxsize"], dotted
        # Every miss inserts exactly one entry, so the derived eviction
        # count can never go negative.
        assert entry["evictions"] >= 0, dotted


def test_factorial_cache_counts_activity():
    from repro.util.numth import factorial

    factorial.cache_clear()
    factorial(6)
    factorial(6)
    stats = lru_cache_stats()["repro.util.numth.factorial"]
    assert stats["misses"] >= 1
    assert stats["hits"] >= 1


def test_unbounded_cache_is_rejected(monkeypatch):
    import repro.util.cachestats as cachestats

    class _Info:
        maxsize = None
        currsize = hits = misses = 0

    class _Fake:
        @staticmethod
        def cache_info():
            return _Info()

    monkeypatch.setattr(cachestats, "_resolve", lambda dotted: _Fake())
    with pytest.raises(TypeError, match="unbounded"):
        lru_cache_stats()


def test_shoup_verification_base_stats_exposed():
    stats = shoup.verification_base_cache_stats()
    assert set(stats) == STAT_KEYS
    assert stats["maxsize"] > 0
    assert stats["evictions"] >= 0


#: The bounded instance caches whose constructor takes the bound.
BOUNDED_CACHE_CLASSES = [
    "repro.dns.negcache.NxtProofCache",
    "repro.dns.negcache.PositiveAnswerCache",
    "repro.dns.rendercache.CanonicalRenderCache",
]


def _flood_instance(cache, count: int) -> None:
    """Insert ``count`` distinct entries via the class's own API."""
    from repro.dns import constants as c
    from repro.dns.name import Name
    from repro.dns.negcache import (
        CachedAnswer,
        NxtProof,
        NxtProofCache,
        PositiveAnswerCache,
    )
    from repro.dns.rdata import NXT
    from repro.dns.rendercache import CanonicalRenderCache

    origin = Name.from_text("audit.example.")
    for i in range(count):
        name = Name((f"n{i:05d}".encode(),) + origin.labels)
        if isinstance(cache, CanonicalRenderCache):
            cache.store(name, c.TYPE_A, 1, b"wire")
        elif isinstance(cache, PositiveAnswerCache):
            cache.store(
                name,
                c.TYPE_A,
                CachedAnswer(origin, 1, c.RCODE_NOERROR, (), True, 10.0),
            )
        elif isinstance(cache, NxtProofCache):
            cache.store(
                NxtProof(
                    origin, 1, name, NXT(origin, (c.TYPE_A,)), (), True, 10.0
                )
            )
        else:  # pragma: no cover - new class needs a flood arm here
            raise AssertionError(f"no flood driver for {type(cache).__name__}")


@pytest.fixture(scope="module")
def instance_caches():
    """Every instance cache of a real (4,1) replica and a resolver, with
    the ``BoundedLRU`` it keeps its entries in."""
    from repro.config import ServiceConfig
    from repro.core.service import ReplicatedNameService
    from repro.dns.resolver import CachingResolver, build_in_memory_tree
    from repro.sim.machines import lan_setup

    replica = ReplicatedNameService(
        ServiceConfig(n=4, t=1), topology=lan_setup(4)
    ).replicas[0]
    resolver = CachingResolver(build_in_memory_tree([]))
    assert replica.abc is not None
    return {
        "render": (replica.zone.render, replica.zone.render._entries),
        "response": (replica._response_cache, replica._response_cache),
        "answer": (replica._answer_cache, replica._answer_cache),
        "payloads": (replica.abc._payload_archive, replica.abc._payload_archive),
        "positive": (resolver.positive_cache, resolver.positive_cache._entries),
        "negative": (resolver.negative_cache, resolver.negative_cache._entries),
    }


class TestInstanceCacheAudit:
    """Every instance cache is a BoundedLRU underneath (audited in
    tests/util/test_lru.py), and each bounded class holds its bound when
    flooded through its own API."""

    @pytest.mark.parametrize(
        "name",
        ["render", "response", "answer", "payloads", "positive", "negative"],
    )
    def test_stores_entries_in_bounded_lru(self, instance_caches, name):
        cache, lru = instance_caches[name]
        assert isinstance(lru, BoundedLRU)
        assert cache.stats is lru.stats

    @pytest.mark.parametrize("dotted", BOUNDED_CACHE_CLASSES)
    def test_stats_discipline(self, dotted):
        cache = _resolve(dotted)(max_entries=8)
        assert {"hits", "misses", "evictions"} <= set(cache.stats)
        assert all(isinstance(v, int) for v in cache.stats.values())

    @pytest.mark.parametrize("dotted", BOUNDED_CACHE_CLASSES)
    def test_rejects_nonpositive_bound(self, dotted):
        with pytest.raises(ValueError):
            _resolve(dotted)(max_entries=0)

    @pytest.mark.parametrize("dotted", BOUNDED_CACHE_CLASSES)
    def test_flood_never_exceeds_bound(self, dotted):
        cache = _resolve(dotted)(max_entries=8)
        _flood_instance(cache, 8 * 4)
        assert len(cache) <= 8
        assert cache.stats["evictions"] > 0
