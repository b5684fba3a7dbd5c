"""Write-path benchmark: incremental re-signing vs whole-zone re-sign.

Drives the full replicated service (n=4, t=1, A3 fully-signed mode)
through the same mixed add/delete update workload twice in one run:

* **baseline** — ``resign_whole_zone=True``: after every RFC 2136 update
  the replicas re-derive and re-sign every RRset of the zone (the
  pre-incremental write path);
* **incremental** — the default write path: only the RRsets the update
  touched (plus their NXT denial neighbors) are re-signed, with every
  signing session of the update opened up front
  (``parallel_update_signing=True``).

The headline metric is **modelled write latency** in Table 3 reference
seconds (the simulator charges each crypto op from the cost model), so
the speedup measures what incremental task derivation does to the write
critical path — the dominant cost is one distributed signing round per
SIG, and incremental updates need ~4 instead of one per zone RRset.

Acceptance target: >= 3x modelled A3-mode write throughput for the
incremental path vs the whole-zone baseline, measured in the same run.

Results are written to ``BENCH_writes.json`` at the repo root.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_writes.py -v
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

import dataclasses

from repro.config import ServiceConfig
from repro.core.keytool import generate_deployment
from repro.core.service import ReplicatedNameService
from repro.crypto.protocols import PROTOCOL_OPTPROOF
from repro.dns import constants as c
from repro.sim.machines import lan_setup

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_writes.json"

SEED = 11
HOSTS = 18  # ~24 RRsets with the base records: a small but real zone

_results: dict = {}
_deployment = None


def _zone_text() -> str:
    lines = [
        "$ORIGIN example.com.",
        "$TTL 3600",
        "@    IN SOA ns1.example.com. admin.example.com. "
        "( 100 7200 900 604800 300 )",
        "     IN NS ns1",
        "     IN NS ns2",
        "ns1  IN A 192.0.2.1",
        "ns2  IN A 192.0.2.2",
        "www  IN A 192.0.2.80",
        "mail IN MX 10 www",
    ]
    for i in range(HOSTS):
        lines.append(f"h{i:02d} IN A 192.0.2.{100 + i}")
    return "\n".join(lines) + "\n"


def _get_deployment():
    global _deployment
    if _deployment is None:
        _deployment = generate_deployment(ServiceConfig(n=4, t=1))
    return _deployment


#: The measured workload: a mix of adds, deletes, and an RRset extension,
#: touching different names so render-cache survivors matter.
def _run_updates(service: ReplicatedNameService):
    ops = [
        service.add_record("w0.example.com.", c.TYPE_A, 300, "192.0.2.200"),
        service.add_record("w1.example.com.", c.TYPE_A, 300, "192.0.2.201"),
        service.delete_name("h03.example.com."),
        service.add_record("w0.example.com.", c.TYPE_A, 300, "192.0.2.202"),
        service.delete_name("w1.example.com."),
        service.add_record("w2.example.com.", c.TYPE_A, 300, "192.0.2.203"),
    ]
    service.settle()
    return ops


def run_leg(label: str, **config_kwargs):
    config = ServiceConfig(n=4, t=1, sign_every_response=True, **config_kwargs)
    deployment = dataclasses.replace(_get_deployment(), config=config)
    started = time.perf_counter()
    with ReplicatedNameService(
        config,
        topology=lan_setup(4),
        zone_text=_zone_text(),
        seed=SEED,
        deployment=deployment,
    ) as service:
        ops = _run_updates(service)
        wall = time.perf_counter() - started
        assert all(op.response.rcode == c.RCODE_NOERROR for op in ops), label
        latencies = [op.latency for op in ops]
        zone_digests = {r.zone.digest() for r in service.replicas}
        assert len(zone_digests) == 1, f"{label}: replicas disagree"
        record = {
            "label": label,
            "updates": len(ops),
            "mean_write_latency_ref_s": sum(latencies) / len(latencies),
            "write_latencies_ref_s": latencies,
            "writes_per_ref_s": len(latencies) / sum(latencies),
            "signing_rounds": service.total_signing_rounds(),
            "render_cache": service.cache_stats()["render"],
            "wall_clock_s": wall,
        }
    return record, zone_digests.pop()


def test_incremental_write_path_speedup():
    baseline, baseline_digest = run_leg(
        "whole-zone-resign",
        signing_protocol=PROTOCOL_OPTPROOF,
        resign_whole_zone=True,
    )
    incremental, incremental_digest = run_leg(
        "incremental",
        signing_protocol=PROTOCOL_OPTPROOF,
        parallel_update_signing=True,
    )
    # (The two legs' zone digests differ by design: SIG inception times
    # derive from the serial at signing time, and the baseline re-stamps
    # every SIG on every update.  tests/dns/test_incremental_signing.py
    # checks byte-equivalence of the incremental vs full *update* paths.)
    # The structural evidence: whole-zone re-signing runs a distributed
    # signing round per zone RRset per update, incremental ~4.
    assert baseline["signing_rounds"] > 3 * incremental["signing_rounds"]
    # The render cache earns its keep on the incremental write path too.
    assert incremental["render_cache"]["hits"] > 0
    speedup = (
        baseline["mean_write_latency_ref_s"]
        / incremental["mean_write_latency_ref_s"]
    )
    _results["baseline"] = baseline
    _results["incremental"] = incremental
    _results["write_speedup"] = speedup
    assert speedup >= 3.0, (
        f"incremental write path modelled speedup {speedup:.2f}x "
        "below the 3x target"
    )


def teardown_module(module):
    if _results:
        _results["environment"] = {
            "cpu_count": os.cpu_count(),
            "hosts_in_zone": HOSTS,
            "note": (
                "latencies are simulated seconds on the Table 3 reference "
                "machines; write_speedup compares mean update latency of "
                "the whole-zone-re-sign baseline vs the incremental write "
                "path in the same run (A3 fully-signed mode, n=4 t=1)."
            ),
        }
        RESULTS_PATH.write_text(json.dumps(_results, indent=2) + "\n")
