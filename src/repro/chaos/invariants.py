"""The paper's goals G1/G2/G3 as machine-checked invariants.

§2 of the paper states the service's goals:

* **G1 (correctness/safety)** — all honest replicas maintain the same
  zone state and, because request execution is deterministic, produce the
  same response wire for the same request.
* **G2 (availability/liveness)** — every request of an honest client is
  eventually answered.
* **G3 (authenticity/integrity)** — every signature the service emits
  verifies under the zone key; the adversary never learns the key.

The checks below run after a chaos scenario settles, on any
:class:`~repro.core.service.NameService` (simulated or asyncio).  They
inspect only honest replicas — a corrupted replica's state is allowed to
be arbitrary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.client import CompletedOp
from repro.dns import constants as c
from repro.dns import dnssec
from repro.errors import DnssecError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.chaos.scenarios import PlanOp, Scenario
    from repro.core.service import NameService
    from repro.sim.network import AdversarialScheduler


@dataclass
class InvariantReport:
    """Outcome of one invariant sweep; empty lists mean all checks passed."""

    g1: List[str] = field(default_factory=list)
    g2: List[str] = field(default_factory=list)
    g3: List[str] = field(default_factory=list)
    expectations: List[str] = field(default_factory=list)

    @property
    def violations(self) -> List[str]:
        return self.g1 + self.g2 + self.g3 + self.expectations

    @property
    def ok(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        def flag(items: List[str]) -> str:
            return "ok" if not items else f"FAIL({len(items)})"

        return (
            f"G1={flag(self.g1)} G2={flag(self.g2)} "
            f"G3={flag(self.g3)} expects={flag(self.expectations)}"
        )


def check_g1(service: "NameService", report: InvariantReport) -> None:
    """Honest replicas agree on zone state, delivery order, and responses."""
    honest = service.honest_replicas()
    digests = {replica.zone.digest().hex() for replica in honest}
    if len(digests) > 1:
        report.g1.append(
            f"G1: honest zone digests diverge: {sorted(d[:16] for d in digests)}"
        )
    exec_logs = {tuple(replica.delivered_requests) for replica in honest}
    if len(exec_logs) > 1:
        lengths = sorted(len(log) for log in exec_logs)
        report.g1.append(
            f"G1: executed request sequences diverge (lengths {lengths})"
        )
    abc_digests = {
        replica.abc.delivery_digest()
        for replica in honest
        if replica.abc is not None
    }
    if len(abc_digests) > 1:
        report.g1.append("G1: atomic-broadcast delivery orders diverge")
    # Deterministic execution: for every request all honest replicas
    # executed, the produced response wire must be byte-identical.
    wire_maps = [
        {
            key.hex(): hashlib.sha256(wire).hexdigest()
            for key, wire in replica._response_cache.items()
        }
        for replica in honest
    ]
    if wire_maps:
        merged: dict = {}
        for wires in wire_maps:
            for request_hash, response_hash in wires.items():
                seen = merged.setdefault(request_hash, response_hash)
                if seen != response_hash:
                    report.g1.append(
                        f"G1: honest replicas disagree on the response for "
                        f"request {request_hash[:16]}"
                    )
                    return


def check_g2(
    plan: Sequence["PlanOp"],
    results: Sequence[Optional[CompletedOp]],
    report: InvariantReport,
) -> None:
    """Every issued client operation completed before the deadline."""
    for op, result in zip(plan, results, strict=True):
        if result is None:
            report.g2.append(
                f"G2: op {op.index} ({op.kind} {op.name}) never answered"
            )


def check_g3(
    service: "NameService",
    results: Sequence[Optional[CompletedOp]],
    report: InvariantReport,
) -> None:
    """Every emitted SIG verifies; positive read answers carry valid SIGs."""
    if not service.config.signed_zone:
        return
    for replica in service.honest_replicas():
        try:
            dnssec.verify_zone(replica.zone, service.deployment.zone_key_record)
        except DnssecError as exc:
            report.g3.append(
                f"G3: replica {replica.index} zone has an invalid SIG: {exc}"
            )
    for result in results:
        if result is None or result.kind != "read" or result.response is None:
            continue
        response = result.response
        if response.rcode != c.RCODE_NOERROR or not response.answers:
            continue  # negative answers carry no data RRsets to verify
        if not result.verified:
            report.g3.append(
                f"G3: accepted positive answer for op msg_id={result.msg_id} "
                f"failed signature verification (from replica "
                f"{result.accepted_from})"
            )


def check_expectations(
    scenario: "Scenario",
    service: "NameService",
    adversary: "AdversarialScheduler",
    report: InvariantReport,
) -> None:
    """Scenario-specific assertions that the attack actually happened.

    A chaos scenario that silently stops attacking would pass G1–G3
    vacuously; these checks keep the harness honest about its coverage
    (e.g. ``slowpath`` must demonstrably force OptProof's fall-back).
    """
    honest = service.honest_replicas()
    for expectation in scenario.expects:
        if expectation == "optproof_fallback":
            fallbacks = sum(r.coordinator.fallback_rounds() for r in honest)
            if fallbacks == 0:
                report.expectations.append(
                    "expect: no honest replica entered the OptProof slow path"
                )
        elif expectation == "share_timeout":
            timeouts = sum(
                r.coordinator.stats["share_timeouts"] for r in honest
            )
            if timeouts == 0:
                report.expectations.append(
                    "expect: no signing session waited for its timer"
                )
        elif expectation == "epoch_change":
            changes = sum(
                r.abc.stats["epoch_changes"] for r in honest if r.abc is not None
            )
            if changes == 0:
                report.expectations.append(
                    "expect: no epoch change happened under the Byzantine leader"
                )
        elif expectation == "partition_heal":
            if adversary.stats["held"] == 0:
                report.expectations.append(
                    "expect: the partition never held any message"
                )
        elif expectation == "malformed_batch":
            garbled = sum(
                r.fault.stats["garbled_batches"] for r in service.replicas
            )
            if garbled == 0:
                report.expectations.append(
                    "expect: the Byzantine gateway garbled no batch frame"
                )
        elif expectation == "poisoned":
            poisoned = sum(
                r.fault.stats["poisoned_responses"] for r in service.replicas
            )
            if poisoned == 0:
                report.expectations.append(
                    "expect: the poisoning replica replayed no stale answer"
                )
        elif expectation == "lying_final":
            lies = sum(r.fault.stats["lying_finals"] for r in service.replicas)
            if lies == 0:
                report.expectations.append(
                    "expect: the equivocating leader signed no lying EPOCH_FINAL"
                )
        elif expectation == "batched":
            batches = sum(r.stats["batches_delivered"] for r in honest)
            if batches == 0:
                report.expectations.append("expect: no batch was delivered")
        else:
            report.expectations.append(f"expect: unknown expectation {expectation!r}")


def check_invariants(
    service: "NameService",
    plan: Sequence["PlanOp"],
    results: Sequence[Optional[CompletedOp]],
    scenario: "Scenario",
    adversary: "AdversarialScheduler",
) -> InvariantReport:
    """Run the full G1/G2/G3 + expectation sweep after a settled run."""
    report = InvariantReport()
    check_g1(service, report)
    check_g2(plan, results, report)
    check_g3(service, results, report)
    check_expectations(scenario, service, adversary, report)
    return report


# --------------------------------------------------------------------------
# Protocol-level invariants over plain data (used by ``repro explore``)
# --------------------------------------------------------------------------
#
# The systematic explorer (DESIGN.md §5j) checks the same goals as the
# chaos harness but at the protocol layer, against whatever each honest
# replica has delivered/decided so far.  These helpers are pure functions
# over plain data so that the explorer's models — which hold raw protocol
# objects, not a NameService — can call them at every quiescent
# state without any service plumbing.


def check_agreement_decisions(
    decisions: "Dict[int, Optional[int]]",
    proposed: "Optional[Sequence[int]]" = None,
) -> List[str]:
    """Binary-agreement safety: honest decisions agree, and (when every
    honest proposal is known and unanimous) match the proposals."""
    out = []
    values = {i: v for i, v in decisions.items() if v is not None}
    if len(set(values.values())) > 1:
        detail = ", ".join(f"replica {i}: {v}" for i, v in sorted(values.items()))
        out.append(f"agreement violated: {detail}")
    if proposed and len(set(proposed)) == 1 and values:
        want = next(iter(set(proposed)))
        for i, got in sorted(values.items()):
            if got != want:
                out.append(
                    f"agreement validity violated: replica {i} decided"
                    f" {got} from unanimous honest proposals {want}"
                )
    return out


def check_agreement_termination(
    decisions: "Dict[int, Optional[int]]",
) -> List[str]:
    """At quiescence: every honest replica must have decided."""
    missing = sorted(i for i, v in decisions.items() if v is None)
    if missing:
        return [f"agreement termination violated: replicas {missing} undecided"]
    return []


def check_total_order(logs: "Dict[int, Sequence[Tuple[int, str]]]") -> List[str]:
    """Atomic-broadcast total order (G1): every honest replica's
    ``delivered_log`` must be a prefix of every longer honest log."""
    out = []
    items = sorted(logs.items())
    for ai in range(len(items)):
        for bi in range(ai + 1, len(items)):
            a, la = items[ai]
            b, lb = items[bi]
            short, long_ = (la, lb) if len(la) <= len(lb) else (lb, la)
            if list(short) != list(long_[: len(short)]):
                out.append(
                    f"total order violated: replica {a} log"
                    f" {list(la)[:6]}... diverges from replica {b} log"
                    f" {list(lb)[:6]}..."
                )
    return out
