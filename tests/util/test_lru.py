"""BoundedLRU: the one bound, eviction order and stats every cache uses."""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.lru import BoundedLRU


class TestBoundedLRU:
    def test_bound_is_mandatory(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)

    def test_get_counts_and_refreshes(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # "b" is now the oldest
        assert lru.get("zz") is None
        lru.put("c", 3)
        assert "b" not in lru and "a" in lru
        assert lru.stats == {"hits": 1, "misses": 1, "evictions": 1}

    def test_peek_touches_neither_recency_nor_stats(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.peek("a") == 1
        assert lru.peek("zz") is None
        lru.put("c", 3)
        assert "a" not in lru
        assert lru.stats == {"hits": 0, "misses": 0, "evictions": 1}

    def test_put_of_existing_key_replaces_without_evicting(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.put("a", 10)
        assert [k for k, _ in lru.items()] == ["b", "a"]
        assert lru.peek("a") == 10
        assert lru.stats["evictions"] == 0

    def test_on_evict_sees_only_evictions(self):
        seen = []
        lru = BoundedLRU(1, on_evict=lambda k, v: seen.append((k, v)))
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.pop("b") == 2
        lru.put("c", 3)
        lru.clear()
        assert seen == [("a", 1)]
        assert len(lru) == 0 and lru.stats["evictions"] == 1

    def test_pop_of_absent_key_raises(self):
        with pytest.raises(KeyError):
            BoundedLRU(1).pop("a")

    def test_flood_never_exceeds_bound(self):
        # KeyTrap hygiene: every key is attacker-chosen, the bound is not.
        lru = BoundedLRU(8)
        for i in range(1_000):
            lru.put(f"flood-{i}", b"x")
            assert len(lru) <= 8
        assert len(lru) == 8
        assert lru.stats["evictions"] == 1_000 - 8


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["get", "put", "pop", "clear"]),
        st.integers(min_value=0, max_value=11),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(max_entries=st.integers(min_value=1, max_value=8), ops=_OPS)
def test_matches_ordered_dict_reference(max_entries, ops):
    lru = BoundedLRU(max_entries)
    ref: "OrderedDict[int, int]" = OrderedDict()
    ref_evictions = gets = 0
    for step, (op, key) in enumerate(ops):
        if op == "get":
            gets += 1
            expected = ref.get(key)
            if expected is not None:
                ref.move_to_end(key)
            assert lru.get(key) == expected
        elif op == "put":
            if key in ref:
                ref.move_to_end(key)
            elif len(ref) >= max_entries:
                ref.popitem(last=False)
                ref_evictions += 1
            ref[key] = step
            lru.put(key, step)
        elif op == "pop":
            if key in ref:
                assert lru.pop(key) == ref.pop(key)
            else:
                with pytest.raises(KeyError):
                    lru.pop(key)
        else:
            ref.clear()
            lru.clear()
        assert list(lru.items()) == list(ref.items())
        assert len(lru) == len(ref) <= max_entries
    assert lru.stats["evictions"] == ref_evictions
    assert lru.stats["hits"] + lru.stats["misses"] == gets
