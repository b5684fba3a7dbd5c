"""Resolver-tier caches: positive answers and NXT denial proofs.

The validating resolver tier (DESIGN.md §5g) keeps two bounded caches in
front of the replicated authoritative service:

* :class:`PositiveAnswerCache` — completed, verified answer sections
  keyed ``(qname, qtype, zone serial)``, the same keying discipline as
  the replica's signed-answer cache, with RFC 2181 TTL expiry.
* :class:`NxtProofCache` — RFC 2535 NXT denial proofs with
  *covering-interval* lookup (RFC 8198 aggressive use): one cached
  ``a.example ↦ d.example`` NXT synthesizes NXDOMAIN for ``b.example``
  and NODATA for covered owner names, without touching the replicas.

Both keep their entries in a :class:`~repro.util.lru.BoundedLRU`
(KeyTrap hygiene — every key is attacker-influenceable, so growth must
be capped and evictions counted); the classes here add only TTL expiry,
the secondary indexes and the domain lookups.

Serial keying gives cheap whole-zone invalidation: a serial bump makes
every old-serial key unreachable, and :meth:`invalidate_origin` reclaims
the stale entries eagerly so the bound stays available for live data.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.dns import constants as c
from repro.dns.message import RR
from repro.dns.name import Name
from repro.dns.rdata import NXT
from repro.util.lru import BoundedLRU

#: Default bounds: sized like the replica's answer cache (positive) and
#: the zone's NXT chain plus adversarial churn headroom (negative).
DEFAULT_POSITIVE_ENTRIES = 4096
DEFAULT_NEGATIVE_ENTRIES = 2048

_PosKey = Tuple[Name, int, int]  # (qname, qtype, serial)
_NegKey = Tuple[Name, int, Name]  # (origin, serial, NXT owner)


@dataclass(frozen=True)
class CachedAnswer:
    """One positive cache entry: a completed answer section."""

    origin: Name
    serial: int
    rcode: int
    answer_rrs: Tuple[RR, ...]
    verified: bool
    expires: float


@dataclass(frozen=True)
class NxtProof:
    """One cached denial proof: a covering NXT plus its authority bytes.

    ``authority_rrs`` is the *exact* authority section of the observed
    authoritative denial (SOA, SIG(SOA), NXT, SIG(NXT) in emission
    order), so a synthesized negative response replays the very bytes
    the authoritative service would have returned.
    """

    origin: Name
    serial: int
    owner: Name
    nxt: NXT
    authority_rrs: Tuple[RR, ...]
    verified: bool
    expires: float

    def covers(self, qname: Name) -> bool:
        """True if ``qname`` falls strictly inside this NXT's interval."""
        nxt_next = self.nxt.next_name
        if self.owner < nxt_next:
            return self.owner < qname < nxt_next
        # Wrap-around NXT (last owner points back to the apex): the
        # interval covers everything after the owner plus everything
        # before the apex successor.
        return qname > self.owner or qname < nxt_next

    def denies_type(self, qtype: int) -> bool:
        """True if the type bitmap proves ``qtype`` absent at the owner."""
        return qtype not in self.nxt.types

    @property
    def is_delegation_cut(self) -> bool:
        """NXT at a zone cut: names below it get referrals, not NXDOMAIN."""
        return c.TYPE_NS in self.nxt.types and self.owner != self.origin


class PositiveAnswerCache:
    """Bounded LRU map ``(qname, qtype, serial) -> CachedAnswer``."""

    __slots__ = ("max_entries", "_entries", "_by_origin", "stats")

    def __init__(self, max_entries: int = DEFAULT_POSITIVE_ENTRIES) -> None:
        self._entries: BoundedLRU[_PosKey, CachedAnswer] = BoundedLRU(
            max_entries, on_evict=self._unindex
        )
        self.max_entries = max_entries
        self._by_origin: Dict[Name, Set[_PosKey]] = {}
        self.stats = self._entries.stats
        self.stats.update(expired=0, invalidated=0)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(
        self, qname: Name, qtype: int, serial: int, now: float
    ) -> Optional[CachedAnswer]:
        key = (qname, qtype, serial)
        entry = self._entries.peek(key)
        if entry is not None and now >= entry.expires:
            self._unindex(key, self._entries.pop(key))
            self.stats["expired"] += 1
            self.stats["misses"] += 1
            return None
        return self._entries.get(key)

    def store(self, qname: Name, qtype: int, entry: CachedAnswer) -> None:
        key = (qname, qtype, entry.serial)
        self._entries.put(key, entry)
        # Bounded: _by_origin only indexes live entry keys (evictions are
        # unindexed through on_evict).
        self._by_origin.setdefault(entry.origin, set()).add(key)

    def invalidate_origin(
        self, origin: Name, keep_serial: Optional[int] = None
    ) -> int:
        """Drop an origin's entries; ``keep_serial`` spares that serial."""
        keys = self._by_origin.get(origin)
        if not keys:
            return 0
        doomed = [k for k in keys if keep_serial is None or k[2] != keep_serial]
        for key in doomed:
            self._unindex(key, self._entries.pop(key))
            self.stats["invalidated"] += 1
        return len(doomed)

    def _unindex(self, key: _PosKey, entry: CachedAnswer) -> None:
        keys = self._by_origin.get(entry.origin)
        if keys is not None:
            keys.discard(key)
            if not keys:
                del self._by_origin[entry.origin]

    def clear(self) -> None:
        self._entries.clear()
        self._by_origin.clear()


class NxtProofCache:
    """Bounded LRU map of NXT denial proofs with covering-interval lookup.

    Entries are keyed ``(origin, serial, NXT owner)``; lookups bisect a
    per-``(origin, serial)`` sorted owner list to find the proof whose
    interval covers the query name (or sits exactly at it, for NODATA).
    """

    __slots__ = ("max_entries", "_entries", "_owners", "stats")

    def __init__(self, max_entries: int = DEFAULT_NEGATIVE_ENTRIES) -> None:
        self._entries: BoundedLRU[_NegKey, NxtProof] = BoundedLRU(
            max_entries, on_evict=self._unindex
        )
        self.max_entries = max_entries
        self._owners: Dict[Tuple[Name, int], List[Name]] = {}
        self.stats = self._entries.stats
        self.stats.update(expired=0, invalidated=0)

    def __len__(self) -> int:
        return len(self._entries)

    def store(self, proof: NxtProof) -> None:
        key = (proof.origin, proof.serial, proof.owner)
        self._entries.put(key, proof)
        # Bounded: _owners only indexes live entry keys (evictions are
        # unindexed through on_evict).
        owners = self._owners.setdefault((proof.origin, proof.serial), [])
        idx = bisect.bisect_left(owners, proof.owner)
        if idx >= len(owners) or owners[idx] != proof.owner:
            owners.insert(idx, proof.owner)

    def lookup(
        self, origin: Name, serial: int, qname: Name, qtype: int, now: float
    ) -> Optional[Tuple[str, NxtProof]]:
        """The proof denying ``(qname, qtype)``, as ``(kind, proof)``.

        ``kind`` is ``"nxdomain"`` (qname strictly inside a covering
        interval) or ``"nodata"`` (qname is the NXT owner and ``qtype``
        is absent from its bitmap).  Returns None on any miss.
        """
        owners = self._owners.get((origin, serial))
        if not owners:
            self.stats["misses"] += 1
            return None
        # Candidate owners: the canonical predecessor (covers interior
        # names and exact-owner NODATA) and the last owner (whose
        # wrap-around NXT covers names past the end of the chain).
        idx = bisect.bisect_right(owners, qname) - 1
        candidates = []
        if idx >= 0:
            candidates.append(owners[idx])
        if owners[-1] not in candidates:
            candidates.append(owners[-1])
        for owner in candidates:
            key = (origin, serial, owner)
            proof = self._entries.peek(key)
            if proof is None:
                continue
            if now >= proof.expires:
                self._unindex(key, self._entries.pop(key))
                self.stats["expired"] += 1
                continue
            if owner == qname:
                if proof.denies_type(qtype):
                    self._entries.get(key)  # refresh recency, count the hit
                    return ("nodata", proof)
                break  # the name exists with that type; nothing to deny
            if proof.covers(qname):
                if proof.is_delegation_cut and qname.is_subdomain_of(owner):
                    # Below a zone cut the authoritative answer is a
                    # referral; an NXT at the cut proves nothing here.
                    break
                self._entries.get(key)  # refresh recency, count the hit
                return ("nxdomain", proof)
        self.stats["misses"] += 1
        return None

    def invalidate_origin(
        self, origin: Name, keep_serial: Optional[int] = None
    ) -> int:
        """Drop an origin's proofs; ``keep_serial`` spares that serial."""
        doomed = [
            key
            for key, _proof in self._entries.items()
            if key[0] == origin
            and (keep_serial is None or key[1] != keep_serial)
        ]
        for key in doomed:
            self._unindex(key, self._entries.pop(key))
            self.stats["invalidated"] += 1
        return len(doomed)

    def _unindex(self, key: _NegKey, _proof: NxtProof) -> None:
        owners = self._owners.get((key[0], key[1]))
        if owners is not None:
            idx = bisect.bisect_left(owners, key[2])
            if idx < len(owners) and owners[idx] == key[2]:
                owners.pop(idx)
            if not owners:
                del self._owners[(key[0], key[1])]

    def clear(self) -> None:
        self._entries.clear()
        self._owners.clear()
