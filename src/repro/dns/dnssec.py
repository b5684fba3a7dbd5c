"""DNSSEC zone signing (RFC 2535-era): SIG records, NXT chain, validation.

Signing is split into two phases so it works both locally and on top of
the threshold protocol:

1. :func:`signing_tasks_for_update` / :func:`signing_tasks_for_zone`
   produce a *deterministic, ordered* list of :class:`SigningTask` items —
   the exact byte strings to sign.  Every honest replica derives the same
   list with the same ``sign_id``s, which is what lets the distributed
   threshold signing sessions match up across replicas.
2. :func:`attach_signature` installs a completed signature into the zone
   as a SIG record.

The task list reproduces BIND's behaviour the paper measured (§5.2): a
dynamic add of a new name signs **four** RRsets (the new data RRset, the
new name's NXT, the predecessor's NXT, and the SOA), a delete signs
**two** (the predecessor's NXT and the SOA).  That 4:2 ratio is why adds
take roughly twice as long as deletes in Table 2.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Set

from repro.dns import constants as c
from repro.dns.name import Name
from repro.dns.rdata import KEY, NXT, SIG
from repro.dns.rrset import RRset
from repro.dns.update import UpdateResult
from repro.dns.zone import Zone
from repro.errors import DnssecError, InvalidSignature

# One day of signature validity by default; inception/expiration are
# *logical* times derived from the zone serial so replicas agree exactly.
DEFAULT_VALIDITY = 86_400 * 30


@dataclass(frozen=True)
class SigningPolicy:
    """Deterministic signature timing policy shared by all replicas."""

    inception_base: int = 1_000_000_000
    validity: int = DEFAULT_VALIDITY

    def inception(self, serial: int) -> int:
        return (self.inception_base + serial) & 0xFFFFFFFF

    def expiration(self, serial: int) -> int:
        return (self.inception(serial) + self.validity) & 0xFFFFFFFF


@dataclass(frozen=True)
class SigningTask:
    """One RRset to sign: the input bytes plus the SIG rdata template."""

    sign_id: str
    name: Name
    rtype: int
    data: bytes          # exact bytes the RSA signature covers
    template: SIG        # SIG rdata with empty signature field
    ttl: int             # TTL for the resulting SIG RRset


def _sig_template(
    rrset: RRset, key: KEY, signer_name: Name, policy: SigningPolicy, serial: int
) -> SIG:
    return SIG(
        type_covered=rrset.rtype,
        algorithm=key.algorithm,
        labels=len(rrset.name),
        original_ttl=rrset.ttl,
        expiration=policy.expiration(serial),
        inception=policy.inception(serial),
        key_tag=key.key_tag(),
        signer=signer_name,
        signature=b"",
    )


def sig_data(rrset: RRset, template: SIG, zone: Optional[Zone] = None) -> bytes:
    """The byte string a SIG covers: rdata-minus-signature || canonical RRset.

    With ``zone`` given the RRset rendering goes through the zone's
    canonical render cache (byte-identical output, memoized per serial).
    """
    return template.header_wire(canonical=True) + _rendered(rrset, zone)


def _rendered(rrset: RRset, zone: Optional[Zone]) -> bytes:
    return zone.canonical_rrset_wire(rrset) if zone is not None else rrset.canonical_wire()


def make_signing_task(
    rrset: RRset,
    key: KEY,
    signer_name: Name,
    policy: SigningPolicy,
    serial: int,
    zone: Optional[Zone] = None,
) -> SigningTask:
    """Build the signing task for one RRset.

    The ``sign_id`` names the session from the zone data alone — not the
    SIG header, which holds the key tag — so the session's designated
    signer set does not depend on which key a deployment was dealt.
    """
    template = _sig_template(rrset, key, signer_name, policy, serial)
    rendered = _rendered(rrset, zone)
    data = template.header_wire(canonical=True) + rendered
    digest = hashlib.sha256()
    digest.update(signer_name.canonical_wire())
    digest.update(struct.pack(">IH", serial, rrset.rtype))
    digest.update(rrset.name.canonical_wire())
    digest.update(rendered)
    return SigningTask(
        sign_id=digest.hexdigest()[:32],
        name=rrset.name,
        rtype=rrset.rtype,
        data=data,
        template=template,
        ttl=rrset.ttl,
    )


def attach_signature(zone: Zone, task: SigningTask, signature: bytes) -> None:
    """Install a completed signature as a SIG record in the zone.

    Replaces any existing SIG covering the same type at the same name.
    """
    sig_rdata = SIG(
        type_covered=task.template.type_covered,
        algorithm=task.template.algorithm,
        labels=task.template.labels,
        original_ttl=task.template.original_ttl,
        expiration=task.template.expiration,
        inception=task.template.inception,
        key_tag=task.template.key_tag,
        signer=task.template.signer,
        signature=signature,
    )
    existing = zone.find_rrset(task.name, c.TYPE_SIG)
    if existing is None:
        zone.put_rrset(RRset(task.name, c.TYPE_SIG, task.ttl, [sig_rdata]))
        return
    keep = [s for s in existing if s.type_covered != task.rtype]  # type: ignore[attr-defined]
    zone.put_rrset(
        RRset(task.name, c.TYPE_SIG, task.ttl, keep + [sig_rdata])
    )


# --------------------------------------------------------------------------
# NXT chain maintenance
# --------------------------------------------------------------------------


def rebuild_nxt_chain(zone: Zone, nxt_ttl: Optional[int] = None) -> Set[Name]:
    """(Re)build the zone's NXT chain; return names whose NXT changed.

    The chain links every authoritative owner name to the next one in
    canonical order, wrapping to the apex.  Bitmaps list the types present
    at the owner plus SIG and NXT themselves (present in any signed zone).
    """
    if nxt_ttl is None:
        nxt_ttl = zone.soa.minimum
    names = [n for n in zone.names() if _has_authoritative_data(zone, n)]
    changed: Set[Name] = set()
    wanted: Dict[Name, NXT] = {}
    for i, name in enumerate(names):
        wanted[name] = _wanted_nxt(zone, name, names[(i + 1) % len(names)])
    # Remove NXT records at names that no longer carry data.
    for name in zone.names():
        existing = zone.find_rrset(name, c.TYPE_NXT)
        if existing is not None and name not in wanted:
            # NXT maintenance only walks names the zone already contains;
            # the update that made them stale was TSIG/policy-verified
            # before it was applied.
            # repro-lint: disable=T405
            zone.delete_rrset(name, c.TYPE_NXT)
            changed.add(name)
    for name, nxt in wanted.items():
        existing = zone.find_rrset(name, c.TYPE_NXT)
        if existing is not None and len(existing) == 1 and existing.rdatas[0] == nxt:
            continue
        zone.put_rrset(RRset(name, c.TYPE_NXT, nxt_ttl, [nxt]))
        changed.add(name)
    return changed


def _has_authoritative_data(zone: Zone, name: Name) -> bool:
    """A name deserves an NXT entry if it has data besides NXT/SIG."""
    types = {rrset.rtype for rrset in zone.rrsets_at(name)}
    return bool(types - {c.TYPE_NXT, c.TYPE_SIG})


def _wanted_nxt(zone: Zone, name: Name, next_name: Name) -> NXT:
    types = {rrset.rtype for rrset in zone.rrsets_at(name)}
    types -= {c.TYPE_NXT}
    types |= {c.TYPE_SIG, c.TYPE_NXT}
    return NXT(next_name, sorted(types))


def update_nxt_chain_incremental(
    zone: Zone, result: UpdateResult, nxt_ttl: Optional[int] = None
) -> Set[Name]:
    """Repair the NXT chain after one update; return names whose NXT changed.

    Equivalent to :func:`rebuild_nxt_chain` when the chain was complete
    before the update (the steady state between committed updates), but
    only recomputes the NXT records the update could have moved: the
    touched names themselves (type bitmaps) and the canonical
    predecessors of names that entered or left the chain (next pointers).
    Falls back to the full rebuild when the apex data changed (the NXT
    TTL derives from SOA.minimum, which re-TTLs the whole chain) or when
    the chain turns out to be incomplete.
    """
    affected = result.changed_names | result.added_names | result.deleted_names
    if zone.origin in result.changed_names:
        return rebuild_nxt_chain(zone, nxt_ttl)
    if nxt_ttl is None:
        nxt_ttl = zone.soa.minimum
    names = [n for n in zone.names() if _has_authoritative_data(zone, n)]
    if not names:
        return rebuild_nxt_chain(zone, nxt_ttl)
    chain = set(names)
    targets: Set[Name] = set()
    for name in affected:
        if name in chain:
            targets.add(name)
        # the predecessor's next pointer moves when a chain entry appears
        # or disappears at this position
        idx = bisect.bisect_left(names, name)
        targets.add(names[(idx - 1) % len(names)])
    # precondition check: every untouched chain name must already carry
    # an NXT, otherwise the incremental repair cannot be equivalent
    if any(
        zone.find_rrset(name, c.TYPE_NXT) is None
        for name in names
        if name not in targets
    ):
        return rebuild_nxt_chain(zone, nxt_ttl)
    changed: Set[Name] = set()
    # names that dropped out of the chain lose their NXT
    for name in sorted(affected - chain):
        if zone.find_rrset(name, c.TYPE_NXT) is not None:
            # the update that emptied this name was TSIG/policy-verified
            # before it was applied (same justification as the rebuild).
            # repro-lint: disable=T405
            zone.delete_rrset(name, c.TYPE_NXT)
            changed.add(name)
    for name in sorted(targets):
        idx = bisect.bisect_left(names, name)
        nxt = _wanted_nxt(zone, name, names[(idx + 1) % len(names)])
        existing = zone.find_rrset(name, c.TYPE_NXT)
        if existing is not None and len(existing) == 1 and existing.rdatas[0] == nxt:
            continue
        zone.put_rrset(RRset(name, c.TYPE_NXT, nxt_ttl, [nxt]))
        changed.add(name)
    return changed


# --------------------------------------------------------------------------
# Task list construction
# --------------------------------------------------------------------------


def signing_tasks_for_zone(
    zone: Zone,
    key: KEY,
    policy: SigningPolicy = SigningPolicy(),
) -> List[SigningTask]:
    """Tasks for signing an entire zone (initial `signzone`, §4.3).

    Rebuilds the NXT chain, then signs every RRset except the SIGs
    themselves, apex first (SOA last overall so its signature covers the
    final serial... the serial does not change during signing, so order
    here is just canonical).
    """
    rebuild_nxt_chain(zone)
    serial = zone.serial
    signer_name = zone.origin
    tasks: List[SigningTask] = []
    for rrset in zone:
        if rrset.rtype == c.TYPE_SIG:
            continue
        tasks.append(
            make_signing_task(rrset, key, signer_name, policy, serial, zone)
        )
    return tasks


def signing_tasks_for_update(
    zone: Zone,
    result: UpdateResult,
    key: KEY,
    policy: SigningPolicy = SigningPolicy(),
    incremental: bool = True,
) -> List[SigningTask]:
    """Tasks for re-signing after a dynamic update (deterministic order).

    Order: changed/added data RRsets (canonical name order, type order),
    then changed NXT records, then the SOA.  For the paper's benchmark
    update shapes this yields exactly 4 tasks for an add-new-name and 2
    for a delete-name.

    ``incremental`` selects the NXT repair strategy: the default
    incremental repair touches only the affected chain region; the full
    rebuild walks the whole zone (kept as the test oracle — both produce
    identical task lists on a well-formed chain).
    """
    if not result.ok or not result.data_changed:
        return []
    if incremental:
        nxt_changed = update_nxt_chain_incremental(zone, result)
    else:
        nxt_changed = rebuild_nxt_chain(zone)
    serial = zone.serial
    signer_name = zone.origin
    tasks: List[SigningTask] = []

    data_names = sorted(result.changed_names | result.added_names)
    for name in data_names:
        for rrset in zone.rrsets_at(name):
            if rrset.rtype in (c.TYPE_SIG, c.TYPE_NXT, c.TYPE_SOA):
                continue
            tasks.append(
                make_signing_task(rrset, key, signer_name, policy, serial, zone)
            )

    for name in sorted(nxt_changed):
        nxt_rrset = zone.find_rrset(name, c.TYPE_NXT)
        if nxt_rrset is None:
            continue  # the name was deleted
        tasks.append(
            make_signing_task(nxt_rrset, key, signer_name, policy, serial, zone)
        )

    tasks.append(
        make_signing_task(zone.soa_rrset, key, signer_name, policy, serial, zone)
    )
    return tasks


# --------------------------------------------------------------------------
# Local (single-signer) convenience and verification
# --------------------------------------------------------------------------


def sign_zone_locally(
    zone: Zone,
    key: KEY,
    signer: Callable[[bytes], bytes],
    policy: SigningPolicy = SigningPolicy(),
) -> int:
    """Sign a whole zone with a local signing callable; returns #signatures.

    This is the single-server base case (the ``(1, 0)`` row of Table 2)
    and the test oracle for the distributed path.
    """
    tasks = signing_tasks_for_zone(zone, key, policy)
    for task in tasks:
        attach_signature(zone, task, signer(task.data))
    return len(tasks)


def resign_after_update_locally(
    zone: Zone,
    result: UpdateResult,
    key: KEY,
    signer: Callable[[bytes], bytes],
    policy: SigningPolicy = SigningPolicy(),
) -> int:
    """Re-sign after an update with a local signer; returns #signatures."""
    tasks = signing_tasks_for_update(zone, result, key, policy)
    for task in tasks:
        attach_signature(zone, task, signer(task.data))
    return len(tasks)


def verify_rrset(
    rrset: RRset,
    sig: SIG,
    key: KEY,
    now: Optional[int] = None,
    zone: Optional[Zone] = None,
) -> None:
    """Verify a SIG over an RRset against the zone KEY; raise on failure."""
    from repro.crypto.rsa import RsaPublicKey

    if sig.type_covered != rrset.rtype:
        raise DnssecError("SIG does not cover this RRset's type")
    if sig.algorithm != key.algorithm:
        raise DnssecError("algorithm mismatch between SIG and KEY")
    if sig.key_tag != key.key_tag():
        raise DnssecError("key tag mismatch")
    if now is not None:
        if not (sig.inception <= now <= sig.expiration):
            raise DnssecError("signature outside its validity window")
    modulus, exponent = key.rsa_parameters()
    public = RsaPublicKey(modulus=modulus, exponent=exponent)
    data = sig_data(rrset, sig, zone)
    try:
        public.verify(data, sig.signature)
    except InvalidSignature as exc:
        raise DnssecError(f"RSA verification failed: {exc}") from exc


def verify_zone(zone: Zone, key: KEY, now: Optional[int] = None) -> int:
    """Verify every SIG in the zone; returns the number verified."""
    count = 0
    for name in zone.names():
        sigs = zone.find_rrset(name, c.TYPE_SIG)
        if sigs is None:
            continue
        for sig in sigs:
            covered = zone.find_rrset(name, sig.type_covered)  # type: ignore[attr-defined]
            if covered is None:
                raise DnssecError(
                    f"SIG at {name.to_text()} covers missing type "
                    f"{c.type_to_text(sig.type_covered)}"  # type: ignore[attr-defined]
                )
            verify_rrset(covered, sig, key, now, zone)  # type: ignore[arg-type]
            count += 1
    return count


def zone_key_rrset(zone: Zone) -> Optional[RRset]:
    """The apex KEY RRset, if the zone is signed."""
    return zone.find_rrset(zone.origin, c.TYPE_KEY)
