"""Bounded LRU cache for canonical RRset wire rendering.

Canonical rendering (RFC 2535 / RFC 4034 §6: sort rdatas by their wire
form, pack owner + header per record) is re-done for the same RRset many
times on the write path: once per signing task, once per zone digest,
once per verification pass.  This cache memoizes the rendered bytes keyed
by ``(owner name, rtype, zone serial)`` — the same keying discipline as
the replica's signed-answer cache — so a zone state between two updates
renders each RRset at most once.

Invalidation mirrors the answer cache's per-name semantics:

* every zone mutation primitive drops the mutated ``(name, rtype)``
  entries immediately (same-serial mutations happen: NXT maintenance
  runs *after* the serial bump);
* after an RFC 2136 update commits, :meth:`rekey_for_update` drops the
  touched names and re-keys untouched survivors to the new serial, so an
  update to one name does not cold-start rendering for the whole zone.

The entries live in a :class:`~repro.util.lru.BoundedLRU` (KeyTrap
hygiene: bound, LRU eviction and the hits/misses/evictions counters);
this class adds the per-name index and the two invalidation paths.
"""

from __future__ import annotations

from typing import Dict, Optional, Set, Tuple

from repro.dns.name import Name
from repro.util.lru import BoundedLRU

#: Default bound: comfortably covers the benchmark zones (a few hundred
#: RRsets) while capping adversarial name churn at a few MB of wire.
DEFAULT_MAX_ENTRIES = 8192

_Key = Tuple[Name, int, int]  # (owner, rtype, serial)


class CanonicalRenderCache:
    """LRU map ``(name, rtype, serial) -> canonical wire bytes``."""

    __slots__ = ("_entries", "_by_name", "stats")

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        self._entries: BoundedLRU[_Key, bytes] = BoundedLRU(
            max_entries, on_evict=self._unindex
        )
        self._by_name: Dict[Name, Set[_Key]] = {}
        self.stats = self._entries.stats
        self.stats.update(invalidated=0, rekeyed=0)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, name: Name, rtype: int, serial: int) -> Optional[bytes]:
        return self._entries.get((name, rtype, serial))

    def store(self, name: Name, rtype: int, serial: int, wire: bytes) -> None:
        key = (name, rtype, serial)
        self._entries.put(key, wire)
        # Bounded: _by_name only indexes live entry keys (evictions are
        # unindexed through on_evict).
        # repro-lint: disable=T404
        self._by_name.setdefault(name, set()).add(key)

    def _unindex(self, key: _Key, _wire: bytes) -> None:
        keys = self._by_name.get(key[0])
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_name[key[0]]

    def invalidate(self, name: Name, rtype: Optional[int] = None) -> None:
        """Drop entries at ``name`` (all serials); ``rtype=None`` = all types."""
        keys = self._by_name.get(name)
        if not keys:
            return
        doomed = [k for k in keys if rtype is None or k[1] == rtype]
        for key in doomed:
            self._unindex(key, self._entries.pop(key))
            self.stats["invalidated"] += 1

    def rekey_for_update(
        self,
        affected: Set[Name],
        new_serial: int,
        soa_name: Optional[Name] = None,
        soa_type: Optional[int] = None,
    ) -> None:
        """After an update commits: drop touched names, re-key survivors.

        ``affected`` is the update's changed|added|deleted name set.  The
        apex SOA changed too (serial bump), so its ``(soa_name, soa_type)``
        entries are dropped even when the apex is otherwise untouched.
        Survivors' rendered bytes are still exact — only the serial in
        their key is stale — so they migrate to ``new_serial`` instead of
        being re-rendered.
        """
        survivors = []
        for (name, rtype, _serial), wire in self._entries.items():
            if name in affected or (name == soa_name and rtype == soa_type):
                self.stats["invalidated"] += 1
                continue
            survivors.append((name, rtype, wire))
            self.stats["rekeyed"] += 1
        self.clear()
        for name, rtype, wire in survivors:
            self.store(name, rtype, new_serial, wire)

    def clear(self) -> None:
        self._entries.clear()
        self._by_name.clear()
