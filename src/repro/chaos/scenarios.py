"""Chaos scenarios: seeded Byzantine schedules over the simulated service.

A :class:`Scenario` bundles a service configuration, a corruption
placement, an adversarial network schedule, and a workload shape.
:func:`run_scenario` instantiates it on a given ``(n, t)`` cluster with a
given seed, drives a randomized client workload to completion, checks the
paper's G1/G2/G3 goals, and returns a :class:`ChaosResult` whose
*transcript* — plan, adversary decisions, outcomes, state digests, and
the raw simulator event stream — hashes identically on every replay of
the same seed.  That hash is the replay contract: CI prints the failing
seed and the exact ``repro chaos`` command that reproduces it.
"""

from __future__ import annotations

import hashlib
import random
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.broadcast.recovery import PULL_COUNTERS
from repro.chaos.invariants import InvariantReport, check_invariants
from repro.config import ServiceConfig
from repro.core.client import CompletedOp
from repro.core.faults import CorruptionMode
from repro.core.keytool import Deployment, ReplicaKeys
from repro.core.service import ReplicatedNameService
from repro.crypto.params import safe_prime_pair_at
from repro.crypto.rsa import RsaKeyPair, generate_rsa_keypair
from repro.crypto.shoup import deal_threshold_key
from repro.dns import constants as c
from repro.dns.name import Name
from repro.dns.rdata import rdata_from_text
from repro.dns.tsig import TsigKey
from repro.errors import ConfigError
from repro.sim.network import AdversarialScheduler, PartitionWindow

# ---------------------------------------------------------------------------
# Scenario definition
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Scenario:
    """One named chaos experiment, parameterized over cluster size."""

    name: str
    description: str
    # Service shape.
    protocol: str = "optte"
    client_model: str = "pragmatic"
    gateway: int = 0
    batch_size: int = 1
    batch_delay: float = 0.05
    sign_every_response: bool = False
    abc_timeout: float = 3.0
    client_timeout: float = 6.0
    # Corruption placement: ``corruptions[i]`` is applied to replica
    # ``placement[i]``; only the first ``t`` pairs are used, so the same
    # scenario scales from (4,1) to (7,2).
    corruptions: Tuple[CorruptionMode, ...] = ()
    placement: Tuple[int, ...] = ()
    # Network adversary.
    drop_rate: float = 0.0
    dup_rate: float = 0.0
    delay_rate: float = 0.0
    max_delay: float = 0.25
    slow_senders: Tuple[int, ...] = ()
    slow_delay: float = 0.0
    partition_window: Optional[Tuple[float, float]] = None
    active_until: float = 25.0
    # Workload shape.
    ops: int = 14
    gap: Tuple[float, float] = (0.2, 1.2)
    workload: str = "random"  # or "alternating" (read/update one hot name)
    read_weight: float = 0.6
    # Coverage assertions checked by the invariant sweep.
    expects: Tuple[str, ...] = ()


SCENARIOS: Dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            name="mixed",
            description=(
                "drops (client links), duplicates, and random delays on all "
                "links — the baseline asynchrony the protocol must shrug off"
            ),
            drop_rate=0.12,
            dup_rate=0.15,
            delay_rate=0.35,
            max_delay=0.3,
            client_timeout=5.0,
            ops=16,
            gap=(0.15, 0.9),
        ),
        Scenario(
            name="partition",
            description=(
                "partition the replica set down the middle mid-run, heal, "
                "and require every request to complete after the heal"
            ),
            delay_rate=0.15,
            max_delay=0.2,
            partition_window=(2.0, 9.0),
            active_until=20.0,
            client_timeout=4.0,
            ops=10,
            expects=("partition_heal",),
        ),
        Scenario(
            name="slowpath",
            description=(
                "corrupted replicas send garbage signature shares while the "
                "adversary slows an honest one, forcing OptProof off its "
                "optimistic path into proof-backed share verification"
            ),
            protocol="optproof",
            corruptions=(CorruptionMode.BAD_SHARES, CorruptionMode.BAD_SHARES),
            placement=(1, 4),
            slow_senders=(2,),
            slow_delay=0.5,
            read_weight=0.3,
            ops=10,
            expects=("optproof_fallback",),
        ),
        Scenario(
            name="signer-silent",
            description=(
                "replicas keep ordering but never send signing shares; a "
                "session that designates one of them as a first signer "
                "completes only after its timer makes every replica sign, "
                "and for a while later sessions start with everyone signing"
            ),
            corruptions=(
                CorruptionMode.WITHHOLD_SHARES,
                CorruptionMode.WITHHOLD_SHARES,
            ),
            placement=(1, 4),
            abc_timeout=1.5,
            read_weight=0.3,
            ops=10,
            expects=("share_timeout",),
        ),
        Scenario(
            name="equivocate",
            description=(
                "the epoch leader equivocates its ORDER messages (different "
                "payloads to different replicas), forcing complaints and an "
                "epoch change to an honest leader"
            ),
            corruptions=(
                CorruptionMode.EQUIVOCATE,
                CorruptionMode.WITHHOLD_SHARES,
            ),
            placement=(0, 4),
            abc_timeout=2.5,
            delay_rate=0.1,
            max_delay=0.1,
            ops=8,
            expects=("epoch_change",),
        ),
        Scenario(
            name="batch",
            description=(
                "a Byzantine non-leader gateway garbles the batch frames it "
                "forwards; honest replicas reject the malformed batches "
                "identically and clients recover via retry to honest servers"
            ),
            gateway=1,
            batch_size=4,
            batch_delay=0.05,
            corruptions=(
                CorruptionMode.MALFORMED_BATCHES,
                CorruptionMode.BAD_SHARES,
            ),
            placement=(1, 4),
            client_timeout=3.0,
            ops=12,
            gap=(0.002, 0.02),
            read_weight=0.85,
            expects=("malformed_batch", "batched"),
        ),
        Scenario(
            name="poison",
            description=(
                "a corrupted replica replays stale signed answers with fresh "
                "message ids (the §3.4 replay attack); full clients outvote "
                "it with a t+1 majority"
            ),
            client_model="full",
            corruptions=(
                CorruptionMode.POISON_STALE,
                CorruptionMode.STALE_READS,
            ),
            placement=(1, 5),
            dup_rate=0.1,
            delay_rate=0.2,
            max_delay=0.2,
            ops=12,
            workload="alternating",
            expects=("poisoned",),
        ),
    )
}


# ---------------------------------------------------------------------------
# Pinned key material
# ---------------------------------------------------------------------------

# Key material is dealt once per cluster size and is a pure function of
# ``(n, t)``: the threshold keys use *indexed* safe-prime pool entries
# (never the process-global cursor), and the sharing polynomials, the
# verifiers and the auth keypairs draw from a source seeded by ``(n, t)``.
# Share proofs derive their nonces from the share and the statement.  So
# every byte a run sends, not just every assembled signature, repeats in
# every process that replays a seed.
class _SeededSource:
    """A :class:`repro.util.numth.RandomSource` that replays from a seed."""

    def __init__(self, seed: str) -> None:
        self._rng = random.Random(seed)

    def randbits(self, k: int) -> int:
        return self._rng.getrandbits(k)

    def randbelow(self, exclusive_upper_bound: int) -> int:
        return self._rng.randrange(exclusive_upper_bound)


@dataclass(frozen=True)
class _KeyMaterial:
    zone_public: object
    zone_shares: tuple
    coin_public: object
    coin_shares: tuple
    auth_keys: Tuple[RsaKeyPair, ...]
    tsig_key: TsigKey


_KEY_CACHE: Dict[Tuple[int, int], _KeyMaterial] = {}


def _key_material(n: int, t: int) -> _KeyMaterial:
    cached = _KEY_CACHE.get((n, t))
    if cached is not None:
        return cached
    rng = _SeededSource(f"chaos-keys-{n}-{t}")
    zone_p, zone_q = safe_prime_pair_at(256, 0)
    coin_p, coin_q = safe_prime_pair_at(256, 1)
    zone_public, zone_shares = deal_threshold_key(
        n=n, t=t, bits=512, prime_p=zone_p, prime_q=zone_q, rng=rng
    )
    coin_public, coin_shares = deal_threshold_key(
        n=n, t=t, bits=512, prime_p=coin_p, prime_q=coin_q, rng=rng
    )
    material = _KeyMaterial(
        zone_public=zone_public,
        zone_shares=zone_shares,
        coin_public=coin_public,
        coin_shares=coin_shares,
        auth_keys=tuple(generate_rsa_keypair(512, rng=rng) for _ in range(n)),
        tsig_key=TsigKey(
            name=Name.from_text("update-key.repro."),
            secret=b"repro-update-key-secret",
        ),
    )
    _KEY_CACHE[(n, t)] = material
    return material


def _deployment_for(config: ServiceConfig) -> Deployment:
    material = _key_material(config.n, config.t)
    replicas = tuple(
        ReplicaKeys(
            index=i,
            zone_share=material.zone_shares[i],
            coin_share=material.coin_shares[i],
            auth_key=material.auth_keys[i],
        )
        for i in range(config.n)
    )
    return Deployment(
        config=config,
        zone_public=material.zone_public,
        coin_public=material.coin_public,
        auth_public=tuple(k.public for k in material.auth_keys),
        replicas=replicas,
        tsig_key=material.tsig_key,
    )


# ---------------------------------------------------------------------------
# Workload plan
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanOp:
    """One pre-planned client operation (built before the run starts)."""

    index: int
    time: float
    kind: str  # "read" / "add" / "delete"
    name: str
    rtype: int = c.TYPE_A
    rdata: str = ""


def _build_plan(scenario: Scenario, seed: int) -> List[PlanOp]:
    rng = random.Random(seed ^ 0xC0FFEE)
    plan: List[PlanOp] = []
    now = 0.5
    if scenario.workload == "alternating":
        # Hammer one hot name: read it, update it, read it again — the
        # shape that makes stale-answer replay actually stale.
        for i in range(scenario.ops):
            if i % 2 == 0:
                plan.append(PlanOp(i, now, "read", "www.example.com."))
            else:
                plan.append(
                    PlanOp(
                        i,
                        now,
                        "add",
                        "www.example.com.",
                        c.TYPE_A,
                        f"192.0.2.{100 + i}",
                    )
                )
            now += rng.uniform(*scenario.gap)
        return plan
    base_names = ["www.example.com.", "ns1.example.com.", "ns2.example.com."]
    added: List[str] = []
    fresh = 0
    for i in range(scenario.ops):
        roll = rng.random()
        if roll < scenario.read_weight:
            pool = base_names + added
            name = pool[rng.randrange(len(pool))]
            if rng.random() < 0.1:
                plan.append(PlanOp(i, now, "read", "example.com.", c.TYPE_SOA))
            else:
                plan.append(PlanOp(i, now, "read", name))
        elif added and rng.random() < 0.25:
            victim = added.pop(rng.randrange(len(added)))
            plan.append(PlanOp(i, now, "delete", victim))
        else:
            fresh += 1
            name = f"host{fresh}.example.com."
            added.append(name)
            plan.append(
                PlanOp(i, now, "add", name, c.TYPE_A, f"192.0.2.{10 + fresh}")
            )
        now += rng.uniform(*scenario.gap)
    return plan


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


@dataclass
class ChaosResult:
    """Outcome of one scenario run on one cluster with one seed."""

    scenario: str
    cluster: Tuple[int, int]
    seed: int
    report: InvariantReport
    transcript: str
    transcript_hash: str
    results: List[Optional[CompletedOp]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def violations(self) -> List[str]:
        return self.report.violations


def _issue_op(
    service: ReplicatedNameService,
    op: PlanOp,
    results: List[Optional[CompletedOp]],
) -> None:
    def done(completed: CompletedOp) -> None:
        results[op.index] = completed

    name = Name.from_text(op.name)
    if op.kind == "read":
        service.client.query(name, op.rtype, done)
    elif op.kind == "add":
        rdata = rdata_from_text(op.rtype, op.rdata.split(), service.zone_origin)
        service.client.add_record(name, op.rtype, 300, rdata, done)
    elif op.kind == "delete":
        service.client.delete_name(name, done)
    else:  # pragma: no cover - plans only contain the kinds above
        raise ConfigError(f"unknown op kind {op.kind!r}")


def run_scenario(
    scenario: str | Scenario,
    cluster: Tuple[int, int] = (4, 1),
    seed: int = 0,
    deadline: float = 240.0,
) -> ChaosResult:
    """Run one scenario on an ``(n, t)`` cluster; fully seed-determined."""
    if isinstance(scenario, str):
        try:
            scenario = SCENARIOS[scenario]
        except KeyError:
            raise ConfigError(
                f"unknown scenario {scenario!r}; "
                f"choose from {sorted(SCENARIOS)}"
            ) from None
    n, t = cluster
    config = ServiceConfig(
        n=n,
        t=t,
        signing_protocol=scenario.protocol,
        batch_size=scenario.batch_size,
        batch_delay=scenario.batch_delay,
        sign_every_response=scenario.sign_every_response,
        abc_timeout=scenario.abc_timeout,
        client_timeout=scenario.client_timeout,
    )
    service = ReplicatedNameService(
        config,
        deployment=_deployment_for(config),
        client_model=scenario.client_model,
        gateway=scenario.gateway % n,
        seed=seed,
    )

    partitions: Tuple[PartitionWindow, ...] = ()
    if scenario.partition_window is not None:
        start, heal = scenario.partition_window
        left = tuple(range((n + 1) // 2))
        right = tuple(range((n + 1) // 2, n))
        partitions = (PartitionWindow(start=start, heal=heal, groups=(left, right)),)
    adversary = AdversarialScheduler(
        seed=seed * 1_000_003 + zlib.crc32(scenario.name.encode()),
        n_replicas=n,
        drop_rate=scenario.drop_rate,
        dup_rate=scenario.dup_rate,
        delay_rate=scenario.delay_rate,
        max_delay=scenario.max_delay,
        slow_senders=tuple(s for s in scenario.slow_senders if s < n),
        slow_delay=scenario.slow_delay,
        partitions=partitions,
        active_until=scenario.active_until,
    )
    service.net.set_adversary(adversary)

    corrupted: List[Tuple[int, CorruptionMode]] = []
    for replica, mode in list(zip(scenario.placement, scenario.corruptions, strict=False))[:t]:
        if replica >= n:
            continue
        service.corrupt(replica, mode)
        corrupted.append((replica, mode))

    # Fold the raw event stream into the transcript: two runs of the same
    # seed must execute the exact same events at the exact same times.
    stream = hashlib.sha256()
    service.net.sim.trace = lambda time, seq: stream.update(
        f"{time:.9f}:{seq};".encode()
    )

    plan = _build_plan(scenario, seed)
    results: List[Optional[CompletedOp]] = [None] * len(plan)
    for op in plan:
        service.net.sim.schedule_at(
            op.time, (lambda o: lambda: _issue_op(service, o, results))(op)
        )
    service.net.sim.run(
        until=deadline,
        condition=lambda: all(r is not None for r in results),
    )
    service.settle(30.0)

    report = check_invariants(service, plan, results, scenario, adversary)

    lines: List[str] = [
        f"chaos scenario={scenario.name} cluster={n},{t} seed={seed}",
        f"corrupt " + " ".join(f"{r}:{m.name}" for r, m in corrupted)
        if corrupted
        else "corrupt none",
    ]
    for op in plan:
        detail = f" {op.rdata}" if op.rdata else ""
        lines.append(
            f"plan {op.index} t={op.time:.6f} {op.kind} {op.name} "
            f"type={op.rtype}{detail}"
        )
    lines.extend(f"adv {entry}" for entry in adversary.log)
    for op, outcome in zip(plan, results, strict=True):
        if outcome is None:
            lines.append(f"op {op.index} {op.kind} {op.name} -> UNANSWERED")
        else:
            rcode = outcome.response.rcode if outcome.response else -1
            lines.append(
                f"op {op.index} {op.kind} {op.name} -> rcode={rcode} "
                f"from={outcome.accepted_from} verified={int(outcome.verified)} "
                f"retries={outcome.retries} latency={outcome.latency:.6f}"
            )
    honest = service.honest_replicas()
    zone_digests = sorted({r.zone.digest().hex()[:16] for r in honest})
    abc_digests = sorted(
        {r.abc.delivery_digest()[:16] for r in honest if r.abc is not None}
    )
    delivered = sorted({len(r.delivered_requests) for r in honest})
    lines.append(
        f"digest zone={','.join(zone_digests)} abc={','.join(abc_digests)} "
        f"delivered={','.join(str(d) for d in delivered)}"
    )
    abc_stats = [r.abc.stats for r in honest if r.abc is not None]
    lines.append(
        "stats fast={} recovery={} epochs={} signing_rounds={} "
        "fallbacks={} share_timeouts={} batches={}".format(
            sum(s["fast_deliveries"] for s in abc_stats),
            sum(s["recovery_deliveries"] for s in abc_stats),
            sum(s["epoch_changes"] for s in abc_stats),
            sum(r.signing_rounds for r in honest),
            sum(r.coordinator.fallback_rounds() for r in honest),
            sum(r.coordinator.stats["share_timeouts"] for r in honest),
            sum(r.stats["batches_delivered"] for r in honest),
        )
    )
    lines.append(
        "bcast stats "
        + " ".join(f"{k}={sum(s[k] for s in abc_stats)}" for k in PULL_COUNTERS)
    )
    # Per-replica bandwidth ledger (replica node ids are 0..n-1; higher
    # ids are client endpoints).  Deterministic: byte counters are part
    # of the seed-determined event stream.
    lines.append(
        "bandwidth total={} per_replica_out={} per_replica_in={}".format(
            service.net.bytes_sent,
            ",".join(str(service.net.bytes_out.get(i, 0)) for i in range(n)),
            ",".join(str(service.net.bytes_in.get(i, 0)) for i in range(n)),
        )
    )
    top_types = sorted(
        service.net.bytes_by_type.items(), key=lambda kv: (-kv[1], kv[0])
    )[:8]
    lines.append(
        "bandwidth types " + " ".join(f"{name}={size}" for name, size in top_types)
    )
    lines.append(
        "adv stats dropped={dropped} duplicated={duplicated} "
        "delayed={delayed} held={held}".format(**adversary.stats)
    )
    lines.append(f"invariants {report.summary()}")
    for violation in report.violations:
        lines.append(f"violation {violation}")
    lines.append(
        f"events={service.net.sim.events_processed} "
        f"eventstream={stream.hexdigest()} t_end={service.net.sim.now:.6f}"
    )
    transcript = "\n".join(lines) + "\n"
    return ChaosResult(
        scenario=scenario.name,
        cluster=cluster,
        seed=seed,
        report=report,
        transcript=transcript,
        transcript_hash=hashlib.sha256(transcript.encode()).hexdigest(),
        results=results,
    )
