"""The one bounded LRU map every cache in the repo is built on.

Each cache here is keyed by attacker-influenced input (request hashes,
query bytes, owner names, request ids), so KeyTrap-class flooding must
cost a bounded amount of memory and show up in a counter.  The bound,
the eviction order and the ``stats`` counters therefore live in this one
class instead of in every cache:

* ``max_entries >= 1`` is enforced at construction;
* :meth:`put` of a new key at the bound evicts the least-recently-used
  entry, counts it in ``stats["evictions"]`` and hands it to the
  optional ``on_evict(key, value)`` callback (for caches that keep a
  secondary index over their keys);
* :meth:`get` refreshes recency and counts a hit or a miss;
  :meth:`peek` does neither;
* :meth:`pop` and :meth:`clear` remove entries without counting an
  eviction and without the callback — the caller drops them on purpose.

Values are never ``None``: ``None`` is what a lookup of an absent key
returns.  A plain ``dict`` keeps insertion order, so deleting and
re-inserting a key moves it to the most-recent end; the oldest entry is
the first key.
"""

from __future__ import annotations

from typing import Callable, Dict, Generic, ItemsView, Optional, TypeVar

K = TypeVar("K")
V = TypeVar("V")


class BoundedLRU(Generic[K, V]):
    """Recency-ordered map holding at most ``max_entries`` entries."""

    __slots__ = ("max_entries", "stats", "_entries", "_on_evict")

    def __init__(
        self,
        max_entries: int,
        on_evict: Optional[Callable[[K, V], None]] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.max_entries = max_entries
        self.stats: Dict[str, int] = {"hits": 0, "misses": 0, "evictions": 0}
        self._entries: Dict[K, V] = {}
        self._on_evict = on_evict

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: object) -> bool:
        return key in self._entries

    def get(self, key: K) -> Optional[V]:
        """The value for ``key``, now the most recent; counts hit/miss."""
        value = self._entries.pop(key, None)
        if value is None:
            self.stats["misses"] += 1
            return None
        self._entries[key] = value
        self.stats["hits"] += 1
        return value

    def peek(self, key: K) -> Optional[V]:
        """The value for ``key`` without touching recency or stats."""
        return self._entries.get(key)

    def put(self, key: K, value: V) -> None:
        """Insert or replace ``key`` as the most recent entry."""
        entries = self._entries
        if entries.pop(key, None) is None:
            if len(entries) >= self.max_entries:
                old_key = next(iter(entries))
                old_value = entries.pop(old_key)
                self.stats["evictions"] += 1
                if self._on_evict is not None:
                    self._on_evict(old_key, old_value)
        entries[key] = value

    def pop(self, key: K) -> V:
        """Remove ``key`` (not counted as an eviction); KeyError if absent."""
        return self._entries.pop(key)

    def items(self) -> ItemsView[K, V]:
        """Live view, oldest first."""
        return self._entries.items()

    def clear(self) -> None:
        self._entries.clear()
