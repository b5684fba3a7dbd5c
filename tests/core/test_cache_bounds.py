"""Response/answer cache bounds on a real replica: remote queries must not
grow replica caches without bound (each distinct query is an
attacker-chosen key), and every eviction is counted."""

import pytest

from repro.broadcast.messages import ClientRequest
from repro.config import ServiceConfig
from repro.core import replica as replica_mod
from repro.core.service import ReplicatedNameService
from repro.dns import constants as c
from repro.dns.message import make_query
from repro.dns.name import Name
from repro.sim.machines import lan_setup

CAP = 2


@pytest.fixture
def svc(monkeypatch):
    monkeypatch.setattr(replica_mod, "MAX_RESPONSE_CACHE_ENTRIES", CAP)
    monkeypatch.setattr(replica_mod, "MAX_ANSWER_CACHE_ENTRIES", CAP)
    return ReplicatedNameService(ServiceConfig(n=4, t=1), topology=lan_setup(4))


def _request(name: str, msg_id: int) -> ClientRequest:
    wire = make_query(Name.from_text(name), c.TYPE_A, msg_id=msg_id).to_wire()
    return ClientRequest(request_id=f"req-{msg_id}", wire=wire)


def _send(svc, request: ClientRequest) -> None:
    """Hand one client request to gateway replica 0 and run to quiescence."""
    svc.replicas[0].on_message(svc.client.node.node_id, request)
    svc.settle()


def _flood(svc, count: int) -> None:
    for i in range(count):
        _send(svc, _request(f"flood{i}.example.com.", 1000 + i))


class TestResponseCache:
    def test_evicts_oldest_at_cap(self, svc):
        _flood(svc, 2 * CAP + 1)
        for replica in svc.honest_replicas():
            cache = replica._response_cache
            assert len(cache) == CAP
            assert cache.stats["evictions"] == CAP + 1

    def test_rewrite_of_existing_key_does_not_evict(self, svc):
        retried = _request("www.example.com.", 7)
        _send(svc, retried)
        _send(svc, retried)  # a client retry: replayed from the cache
        gateway = svc.replicas[0]._response_cache
        assert len(gateway) == 1
        assert gateway.stats["hits"] == 1
        assert gateway.stats["evictions"] == 0

    def test_reinsert_refreshes_lru_position(self, svc):
        """An actively-retried entry must survive a flood of one-shot
        queries: each retry hit moves it to the back of the eviction order."""
        retried = _request("www.example.com.", 7)
        _send(svc, retried)
        for i in range(4):
            _send(svc, _request(f"flood{i}.example.com.", 1000 + i))
            _send(svc, retried)
        gateway = svc.replicas[0]._response_cache
        assert gateway.stats["hits"] == 4
        assert gateway.stats["evictions"] > 0


class TestAnswerCache:
    def test_evicts_oldest_at_cap(self, svc):
        _flood(svc, 2 * CAP + 1)
        for replica in svc.honest_replicas():
            cache = replica._answer_cache
            assert len(cache) == CAP
            assert cache.stats["evictions"] == CAP + 1

    def test_hit_keeps_entry_alive_across_flood(self, svc):
        # LRU, not insertion order: a hot answer that keeps hitting is
        # never the eviction victim, however many one-shot queries pass.
        hot = "www.example.com."
        _send(svc, _request(hot, 1))
        for i in range(6):
            _send(svc, _request(f"flood{i}.example.com.", 1000 + i))
            _send(svc, _request(hot, 2 + i))
        for replica in svc.honest_replicas():
            assert replica.stats["answer_cache_hits"] == 6
            assert replica._answer_cache.stats["evictions"] > 0

    def test_default_caps_are_sane(self):
        assert replica_mod.MAX_RESPONSE_CACHE_ENTRIES >= 1024
        assert replica_mod.MAX_ANSWER_CACHE_ENTRIES >= 1024


def test_cache_stats_sums_every_replica_cache(svc):
    _flood(svc, 2 * CAP + 1)
    stats = svc.cache_stats()
    assert set(stats) == {"render", "response", "answer", "payloads"}
    honest = len(svc.honest_replicas())
    assert stats["response"]["evictions"] == honest * (CAP + 1)
    assert stats["answer"]["evictions"] == honest * (CAP + 1)
    assert {"invalidated", "rekeyed"} <= set(stats["render"])
