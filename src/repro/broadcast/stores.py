"""Bounded fragment store for the digest-vote broadcast plane.

When votes carry digests instead of payloads (DESIGN.md §5i), replicas
must buffer erasure fragments keyed by attacker-visible ids (request
ids, Merkle roots).  Left unbounded that is a textbook KeyTrap-class
memory vector, so the groups live in a
:class:`~repro.util.lru.BoundedLRU` (bound, LRU eviction and
hits/misses/evictions counters); this module adds only the per-group
slot cap and per-request discard.  The delivered-payload archive is a
``BoundedLRU`` of its own (``AtomicBroadcast._payload_archive``).

Eviction can, in principle, drop an in-flight entry under deliberate
flooding — the protocols treat that exactly like a lost pull response
and re-request, so bounded memory costs retries, never safety.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.util.lru import BoundedLRU

PAYLOAD_STORE_ENTRIES = 4096
FRAGMENT_STORE_ENTRIES = 4096

#: Hard per-group fragment-slot ceiling; callers additionally bound the
#: index to ``0..n-1`` before insertion (identity check on the wire).
MAX_FRAGMENTS_PER_GROUP = 256

_Group = Dict[int, Tuple[bytes, object]]


class FragmentStore:
    """LRU map ``(key, root) -> {index: (fragment, proof)}``.

    One *group* holds the fragments seen for one (request id, Merkle
    root) pair; the LRU bound counts groups, and each group is further
    capped at :data:`MAX_FRAGMENTS_PER_GROUP` slots.
    """

    def __init__(self, max_entries: int = FRAGMENT_STORE_ENTRIES) -> None:
        self._groups: BoundedLRU[Tuple[str, bytes], _Group] = BoundedLRU(
            max_entries
        )
        self.stats = self._groups.stats

    def __len__(self) -> int:
        return len(self._groups)

    def put(
        self, key: str, root: bytes, index: int, fragment: bytes, proof: object
    ) -> bool:
        """Store one fragment; returns True when the slot was new."""
        group = self._groups.peek((key, root))
        if group is None:
            group = {}
        self._groups.put((key, root), group)
        if index in group or len(group) >= MAX_FRAGMENTS_PER_GROUP:
            return False
        group[index] = (fragment, proof)
        return True

    def group(self, key: str, root: bytes) -> _Group:
        """The fragments held for (key, root); ``{}`` when unknown."""
        return self._groups.get((key, root)) or {}

    def discard(self, key: str) -> None:
        """Drop every root's group for ``key`` (e.g. after delivery)."""
        for group_key in [gk for gk, _ in self._groups.items() if gk[0] == key]:
            self._groups.pop(group_key)
