"""Smoke tests of the benchmark harness itself (512-bit keys, ~40 ops).

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e``; not part of the
tier-1 ``testpaths``.
"""

from __future__ import annotations

import asyncio
import json
from pathlib import Path

import pytest

from repro.dns import dnssec
from repro.dns.message import Message

from . import harness
from .compare import BENCHMARK_JSON, compare
from .harness import END_TO_END, Driver, run_workload
from .trace import PER_LAYER, LayerProbe
from .workloads import BY_NAME, NX_SHARE, WORKLOADS, make_plan

SPEC = json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))
SMOKE = dict(key_bits=512, zone_names=20, builds=1)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS
    ]
    assert [
        (m["name"], m["unit"], m["better"], m["bound"]) for m in SPEC["end_to_end"]
    ] == list(END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_plan_depends_on_the_seed_only_in_order_and_draws(workload):
    first, again, other = (make_plan(workload, seed) for seed in (7, 7, 8))
    assert first.digest() == again.digest()
    assert first.digest() != other.digest()
    assert first.counts() == other.counts() == {
        "read": workload.reads, "add": workload.pairs, "delete": workload.pairs
    }
    for ops in first.clients:
        reads = [op for op in ops if op.kind == "read"]
        assert sum(op.address is None for op in reads) == round(NX_SHARE * len(reads))
        # A delete only ever follows the add of the same name.
        live = set()
        for op in ops:
            if op.kind == "add":
                live.add(op.name)
            elif op.kind == "delete":
                live.remove(op.name)


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.name)
def test_smoke_emits_every_named_metric(workload, trace, tmp_path):
    result = asyncio.run(run_workload(
        workload.scaled(40), seed=3, seconds=60.0, trace=trace, out_dir=tmp_path, **SMOKE
    ))
    assert result["correct"] and result["failed"] == 0, result["failures"]
    assert 30 <= result["attempted"] <= 40
    assert result["end_state"]["ok"]
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {
        name: metric["unit"] for name, metric in result["metrics"].items()
    } == {m["name"]: m["unit"] for m in declared}
    environment = result["environment"]
    assert environment["key_bits"] == 512
    assert environment["plan_sha256"] == result["plan"]["sha256"]
    assert {"python", "implementation", "cpu_model", "nproc", "loadavg_1m_before",
            "loadavg_1m_after", "noisy", "git_commit"} <= set(environment)
    if trace:
        metrics = {name: m["value"] for name, m in result["metrics"].items()}
        assert metrics["abc.epoch_changes"] == 0 and metrics["client.retries"] == 0
        signs = workload.pairs > 0
        assert (metrics["sign.share_gen_ms_per_update"] > 0) == signs
        faulty = workload.bad_shares_replica is not None
        assert (metrics["sign.proof_gen_ms_per_update"] > 0) == faulty
        spans = Path(result["trace_file"]).read_text(encoding="utf-8").splitlines()
        assert {"id", "name", "start", "end", "parent", "rid"} == set(json.loads(spans[0]))
    else:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_wrappers_exist_only_while_tracing():
    workload = BY_NAME["mixed_rw"].scaled(16)

    def shared_surfaces():
        return (
            Message.__dict__["from_wire"], Message.__dict__["to_wire"],
            dnssec.signing_tasks_for_update, dnssec.attach_signature,
        )

    originals = shared_surfaces()

    async def scenario():
        plan = make_plan(workload, 5, 20)
        service = await harness._build(workload, plan, 512)
        driver = Driver(service, plan, workload, 5)
        replica = service.replicas[0]
        shadowable = [
            (service.net, "transmit"), (replica.abc, "on_message"),
            (replica.abc.crypto, "sign"), (replica.coordinator, "sign"),
            (replica.coordinator.executor, "generate_share"),
            (replica.server, "handle_query"), (replica.processor, "respond"),
            (driver.clients[0], "build_query_wire"),
        ]
        handlers = [node.handler for node in service.net.nodes]

        def untouched():
            return (
                shared_surfaces() == originals
                and not any(attr in vars(obj) for obj, attr in shadowable)
                and [node.handler for node in service.net.nodes] == handlers
            )

        await driver.warm_up()
        await driver.run_phase(60.0, plan_share=0.5)
        assert untouched()            # an untraced phase runs the bound methods
        probe = LayerProbe(service, driver.clients, driver.gateway_of)
        probe.install()
        assert all(attr in vars(obj) for obj, attr in shadowable)
        assert all(new is not old for new, old in zip(shared_surfaces(), originals, strict=True))
        phase = await driver.run_phase(60.0)
        probe.tracer.uninstall()
        assert untouched()
        assert phase.failed == 0 and probe.tracer.totals["net.transmit"].calls > 0

    asyncio.run(scenario())


def _synthetic_runs(lat_p50_ms, failed=0):
    return [
        {
            "workload": "read_c1", "trace": False, "attempted": 1000, "failed": failed,
            "metrics": {
                name: {"value": (lat_p50_ms if name == "lat_p50_ms" else 10.0) * jitter,
                       "unit": unit}
                for name, unit, _better, _bound in END_TO_END
            },
        }
        for jitter in (0.99, 1.0, 1.01)
    ]


def test_compare_flags_a_regression_and_passes_a_file_against_itself(tmp_path, capsys):
    base, slower, failing = (tmp_path / f"{n}.json" for n in ("base", "slower", "failing"))
    base.write_text(json.dumps(_synthetic_runs(10.0)))
    slower.write_text(json.dumps(_synthetic_runs(12.0)))          # 20 % worse
    failing.write_text(json.dumps(_synthetic_runs(10.0, failed=1)))
    assert compare(base, base) == 0
    assert "  worse  " not in capsys.readouterr().out
    assert compare(base, slower) == 1
    rows = [line for line in capsys.readouterr().out.splitlines() if "  worse  " in line]
    assert len(rows) == 1 and "lat_p50_ms" in rows[0]
    assert compare(slower, base) == 0
    assert compare(base, failing) == 1
