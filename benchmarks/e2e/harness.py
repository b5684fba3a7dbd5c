"""Set-up, closed-loop drivers, correctness oracle and end-to-end metrics."""

from __future__ import annotations

import asyncio
import gc
import os
import platform
import random
import resource
import statistics
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.config import ServiceConfig
from repro.core.client import CompletedOp, PragmaticClient
from repro.core.faults import CorruptionMode
from repro.core.keytool import generate_deployment
from repro.dns import constants as c
from repro.dns import dnssec
from repro.dns.message import Message, rrs_to_rrsets
from repro.dns.name import Name
from repro.dns.rdata import A, NXT, SIG
from repro.errors import DnssecError
from repro.net.local import AsyncNameService

from .trace import PER_LAYER, LayerProbe
from .workloads import ZONE_NAMES, Op, Plan, Workload, make_plan

#: name, unit, better, bound — the ``end_to_end`` list of BENCHMARK.json.
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.20),
    ("lat_p50_ms", "ms", "lower", 0.15),
    ("lat_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
)

KEY_BITS = 1024          # the paper's §5.1 modulus size
SETUP_BUILDS = 3         # setup_s is the median of this many builds
NXT_SAMPLE_EVERY = 50
SAMPLE_PERCENTILES = (50, 75, 90, 95, 99)   # printed per op kind beside the counts
#: A phase whose last operation has not returned this long after its
#: deadline is abandoned and the operations in flight count as failed.
PHASE_GRACE_SECONDS = 45.0
SETTLE_SECONDS = 0.1

_PlannedOp = Tuple[Op, Name, Optional[A]]


@dataclass
class Phase:
    """What one measured stretch of the plan produced."""

    attempted: int = 0
    wall: float = 0.0
    latencies: Dict[str, List[float]] = field(
        default_factory=lambda: {"read": [], "add": [], "delete": []}
    )
    failures: List[str] = field(default_factory=list)

    @property
    def accepted(self) -> int:
        return sum(len(values) for values in self.latencies.values())

    @property
    def failed(self) -> int:
        return self.attempted - self.accepted

    @property
    def updates(self) -> int:
        return len(self.latencies["add"]) + len(self.latencies["delete"])


def percentile(values: List[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


class Driver:
    """Closed-loop clients walking their plans against one live service."""

    def __init__(self, service: AsyncNameService, plan: Plan, workload: Workload, seed: int):
        self.service = service
        self.zone_key = service.deployment.zone_key_record
        self.clients = [
            PragmaticClient(
                node=service.net.add_node(),
                config=service.config,
                replica_ids=list(range(service.config.n)),
                zone_origin=service.zone_origin,
                zone_key=self.zone_key,
                id_rng=random.Random(seed + k),
                gateway=gateway,
            )
            for k, gateway in enumerate(workload.gateways)
        ]
        self.gateway_of = {
            client.node.node_id: gateway
            for client, gateway in zip(self.clients, workload.gateways, strict=True)
        }
        self._plans = [[self._prepare(op) for op in ops] for ops in plan.clients]
        self._next = [0] * len(self._plans)
        self._warmup = [self._prepare(op) for op in plan.warmup]
        #: Names added and not yet deleted -> their address (the zone model).
        self.added: Dict[str, str] = {}
        self._nxdomain_seen = 0
        self.nxdomain_sample: List[Tuple[Name, Message]] = []

    @staticmethod
    def _prepare(op: Op) -> _PlannedOp:
        return op, Name.from_text(op.name), A(op.address) if op.kind == "add" else None

    # -- one operation ---------------------------------------------------------

    async def _run_op(self, client: PragmaticClient, planned: _PlannedOp) -> Tuple[float, str]:
        """Issue one op and await its callback; returns (latency, failure or "")."""
        op, name, rdata = planned
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        finished: List[float] = []

        def on_done(done: CompletedOp) -> None:
            finished.append(time.perf_counter())
            if not future.done():
                future.set_result(done)

        start = time.perf_counter()
        if op.kind == "read":
            client.query(name, c.TYPE_A, on_done)
        elif op.kind == "add":
            client.add_record(name, c.TYPE_A, 300, rdata, on_done)
        else:
            client.delete_name(name, on_done)
        done = await future
        return finished[0] - start, self._check(op, name, done)

    def _check(self, op: Op, name: Name, done: CompletedOp) -> str:
        response = done.response
        if done.retries:
            return f"{op.line()}: {done.retries} retries"
        if response is None or response.rcode != op.rcode:
            got = None if response is None else response.rcode
            return f"{op.line()}: rcode {got}"
        if op.kind == "add":
            self.added[op.name] = op.address or ""
        elif op.kind == "delete":
            self.added.pop(op.name, None)
        elif op.address is None:
            if self._nxdomain_seen % NXT_SAMPLE_EVERY == 0:
                self.nxdomain_sample.append((name, response))
            self._nxdomain_seen += 1
        else:
            addresses = [
                rr.rdata.address for rr in response.answers
                if rr.rtype == c.TYPE_A and rr.name == name and isinstance(rr.rdata, A)
            ]
            if addresses != [op.address]:
                return f"{op.line()}: answered {addresses}"
            if not done.verified:
                return f"{op.line()}: answer arrived unverified"
        return ""

    # -- phases ------------------------------------------------------------------

    async def warm_up(self) -> None:
        for planned in self._warmup:
            _latency, failure = await self._run_op(self.clients[0], planned)
            if failure:
                raise RuntimeError(f"warm-up failed: {failure}")
        await asyncio.sleep(SETTLE_SECONDS)

    async def run_phase(self, seconds: float, plan_share: float = 1.0) -> Phase:
        """Each client issues its next planned op until ``seconds`` have passed.

        A client also stops once it is ``plan_share`` of the way through its
        plan (the run ends early on a machine fast enough to exhaust it).
        """
        phase = Phase()
        deadline = time.perf_counter() + seconds

        async def loop_client(k: int) -> None:
            plan = self._plans[k]
            stop = int(len(plan) * plan_share)
            while self._next[k] < stop and time.perf_counter() < deadline:
                planned = plan[self._next[k]]
                self._next[k] += 1
                phase.attempted += 1
                latency, failure = await self._run_op(self.clients[k], planned)
                if failure:
                    phase.failures.append(failure)
                else:
                    phase.latencies[planned[0].kind].append(latency)

        start = time.perf_counter()
        tasks = [asyncio.ensure_future(loop_client(k)) for k in range(len(self.clients))]
        _done, pending = await asyncio.wait(tasks, timeout=seconds + PHASE_GRACE_SECONDS)
        phase.wall = time.perf_counter() - start
        for task in pending:
            task.cancel()
        if pending:
            phase.failures.append(f"{len(pending)} clients still waiting at the phase timeout")
            await asyncio.wait(pending)
        for task in tasks:
            if not task.cancelled() and task.exception() is not None:
                raise task.exception()
        await asyncio.sleep(SETTLE_SECONDS)
        return phase

    # -- end-state checks (after the clock stops) ---------------------------------

    async def end_state(self) -> Dict[str, Any]:
        problems: List[str] = []
        for qname, response in self.nxdomain_sample:
            problem = self._verify_denial(qname, response)
            if problem:
                problems.append(f"{qname.to_text()}: {problem}")
        if not self.service.states_consistent():
            problems.append("honest replicas disagree on the zone digest")
        verified = []
        for replica in self.service.replicas:
            if replica.fault.is_corrupted:
                continue
            try:
                verified.append(dnssec.verify_zone(replica.zone, self.zone_key))
            except DnssecError as exc:
                verified.append(0)
                problems.append(f"replica {replica.index}: {exc}")
        if not all(verified):
            problems.append(f"a replica's zone holds no verifiable SIG: {verified}")
        for text, address in sorted(self.added.items()):
            name = Name.from_text(text)
            read = Op("read", text, address, c.RCODE_NOERROR)
            _latency, failure = await self._run_op(self.clients[0], (read, name, None))
            if failure:
                problems.append(f"surviving add does not resolve: {failure}")
        return {
            "ok": not problems,
            "problems": problems[:10],
            "nxt_proofs_verified": len(self.nxdomain_sample),
            "zone_sigs_verified": verified,
            "surviving_adds_resolved": len(self.added),
        }

    def _verify_denial(self, qname: Name, response: Message) -> str:
        """The NXT covering ``qname`` and its SIG, as a validating client checks them."""
        rrsets = rrs_to_rrsets(response.authority)
        nxt_sets = [r for r in rrsets if r.rtype == c.TYPE_NXT]
        if len(nxt_sets) != 1:
            return f"{len(nxt_sets)} NXT RRsets in the authority section"
        nxt_set = nxt_sets[0]
        nxt = next(iter(nxt_set))
        if not isinstance(nxt, NXT):
            return "NXT rdata missing"
        wraps = nxt.next_name == self.service.zone_origin
        if not (nxt_set.name < qname and (wraps or qname < nxt.next_name)):
            return "NXT interval does not cover the name"
        for rrset in rrsets:
            if rrset.rtype != c.TYPE_SIG or rrset.name != nxt_set.name:
                continue
            for sig in rrset:
                if isinstance(sig, SIG) and sig.type_covered == c.TYPE_NXT:
                    try:
                        dnssec.verify_rrset(nxt_set, sig, self.zone_key)
                    except DnssecError as exc:
                        return f"SIG(NXT) does not verify: {exc}"
                    return ""
        return "no SIG covers the NXT"


# ---------------------------------------------------------------------------
# one run
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> Optional[str]:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=Path(__file__).parent,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(key_bits: int, plan_sha256: str, load_before: float) -> Dict[str, Any]:
    load_after = os.getloadavg()[0]
    nproc = os.cpu_count() or 1
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "loadavg_1m_before": load_before,
        "loadavg_1m_after": load_after,
        "noisy": max(load_before, load_after) > nproc,
        "git_commit": _git_commit(),
        "key_bits": key_bits,
        "plan_sha256": plan_sha256,
    }


async def _build(workload: Workload, plan: Plan, key_bits: int) -> AsyncNameService:
    config = ServiceConfig(
        n=4, t=1, signing_protocol=workload.protocol, batch_size=workload.batch_size
    )
    deployment = generate_deployment(config, zone_bits=key_bits, auth_bits=key_bits)
    return AsyncNameService(config, zone_text=plan.zone_text, deployment=deployment)


async def run_workload(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    out_dir: Optional[Path] = None,
    key_bits: int = KEY_BITS,
    zone_names: int = ZONE_NAMES,
    builds: int = SETUP_BUILDS,
) -> Dict[str, Any]:
    """Set up, warm up, measure, check; returns the full result record."""
    load_before = os.getloadavg()[0]
    plan = make_plan(workload, seed, zone_names)
    plan_sha256 = plan.digest()

    build_seconds = []
    # The traced run reports no setup_s, so it builds once.
    for _ in range(1 if trace else builds):
        started = time.perf_counter()
        service = await _build(workload, plan, key_bits)
        build_seconds.append(time.perf_counter() - started)
    started = time.perf_counter()
    driver = Driver(service, plan, workload, seed)
    if workload.bad_shares_replica is not None:
        service.replicas[workload.bad_shares_replica].corrupt(CorruptionMode.BAD_SHARES)
    await driver.warm_up()
    setup_s = statistics.median(build_seconds) + (time.perf_counter() - started)

    # Objects that live for the whole run leave the collector's working set,
    # so a full collection in the measured phase does not walk four zones.
    gc.collect()
    gc.freeze()
    metrics: Dict[str, float]
    trace_path = None
    try:
        if trace:
            # Untraced reference on the first third, then the traced phase.
            reference = await driver.run_phase(seconds / 3, plan_share=1 / 3)
            probe = LayerProbe(service, driver.clients, driver.gateway_of)
            probe.install()
            try:
                origin = time.perf_counter()
                measured = await driver.run_phase(seconds - seconds / 3)
            finally:
                probe.tracer.uninstall()
            phases = [reference, measured]
            metrics = probe.metrics(
                ops=measured.accepted, updates=measured.updates, wall=measured.wall,
                traced_rate=measured.accepted / measured.wall,
                untraced_rate=reference.accepted / reference.wall,
            )
            if out_dir is not None:
                out_dir.mkdir(parents=True, exist_ok=True)
                trace_path = out_dir / f"{workload.name}-seed{seed}-spans.jsonl"
                probe.tracer.write_jsonl(str(trace_path), origin)
        else:
            measured = await driver.run_phase(seconds)
            phases = [measured]
            primary = measured.latencies[workload.primary]
            metrics = {
                "setup_s": setup_s,
                "ops_per_s": measured.accepted / measured.wall,
                "lat_p50_ms": 1000.0 * percentile(primary, 50),
                "lat_tail_ms": 1000.0 * percentile(primary, workload.tail_percentile),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
        end_state = await driver.end_state()
    finally:
        gc.unfreeze()
        service.close()

    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    units = {name: unit for name, unit, *_ in (*END_TO_END, *PER_LAYER)}
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "correct": end_state["ok"] and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted if attempted else 1.0,
        "failures": [f for p in phases for f in p.failures][:10],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "samples": {
            kind: {
                "count": len(values),
                **{f"p{pct}_ms": 1000.0 * percentile(values, pct) for pct in SAMPLE_PERCENTILES},
            }
            for kind, values in measured.latencies.items() if values
        },
        "primary": {"kind": workload.primary, "tail_percentile": workload.tail_percentile},
        "measured_wall_s": measured.wall,
        "setup": {"build_s": build_seconds, "setup_s": setup_s},
        "plan": {"sha256": plan_sha256, "counts": plan.counts()},
        "end_state": end_state,
        "trace_file": str(trace_path) if trace_path else None,
        "environment": environment(key_bits, plan_sha256, load_before),
    }
