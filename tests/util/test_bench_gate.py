"""The CI bench-regression gate fails on degraded baselines."""

import importlib.util
import json
from pathlib import Path

import pytest

_GATE_PATH = (
    Path(__file__).resolve().parents[2] / "benchmarks" / "check_regression.py"
)


@pytest.fixture(scope="module")
def gate():
    spec = importlib.util.spec_from_file_location("check_regression", _GATE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, **files) -> None:
    directory.mkdir(exist_ok=True)
    for filename, payload in files.items():
        (directory / filename.replace("__", ".")).write_text(json.dumps(payload))


_HEALTHY = {
    "BENCH_batching__json": {
        "read_heavy": {"unbatched_tput": 30.0, "batched_tput": 120.0},
        "mixed": {"unbatched_tput": 30.0, "batched_tput": 80.0},
    },
    "BENCH_parallel__json": {
        "groups": [{"protocol": "sign", "n": 4, "t": 1, "model_speedup": 1.9}]
    },
    "BENCH_writes__json": {"write_speedup": 16.0},
    "BENCH_resolver__json": {"offload_ratio": 0.98},
    "BENCH_broadcast__json": {
        "digest_echo_reduction": 95.0,
        "erasure_echo_reduction": 3.4,
        "erasure_flatness_headroom": 1.7,
    },
}


def test_identical_results_pass(gate, tmp_path):
    _write(tmp_path / "base", **_HEALTHY)
    _write(tmp_path / "fresh", **_HEALTHY)
    assert gate.check(tmp_path / "base", tmp_path / "fresh", 0.20) == []
    argv = ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    assert gate.main(argv) == 0


def test_degraded_metric_fails(gate, tmp_path):
    _write(tmp_path / "base", **_HEALTHY)
    degraded = dict(_HEALTHY)
    degraded["BENCH_writes__json"] = {"write_speedup": 16.0 * 0.79}
    _write(tmp_path / "fresh", **degraded)
    problems = gate.check(tmp_path / "base", tmp_path / "fresh", 0.20)
    assert len(problems) == 1 and "write_speedup" in problems[0]
    argv = ["--baseline", str(tmp_path / "base"), "--fresh", str(tmp_path / "fresh")]
    assert gate.main(argv) == 1


def test_batching_is_gated_on_throughput_not_on_the_ratio(gate, tmp_path):
    _write(tmp_path / "base", **_HEALTHY)
    # A faster unbatched path lowers batched/unbatched; that is no regression.
    faster = dict(_HEALTHY)
    faster["BENCH_batching__json"] = {
        "read_heavy": {"unbatched_tput": 60.0, "batched_tput": 120.0},
        "mixed": {"unbatched_tput": 60.0, "batched_tput": 80.0},
    }
    _write(tmp_path / "fresh", **faster)
    assert gate.check(tmp_path / "base", tmp_path / "fresh", 0.20) == []
    # Either column falling is one.
    slower = dict(_HEALTHY)
    slower["BENCH_batching__json"] = {
        "read_heavy": {"unbatched_tput": 30.0, "batched_tput": 120.0},
        "mixed": {"unbatched_tput": 30.0 * 0.79, "batched_tput": 80.0},
    }
    _write(tmp_path / "fresh", **slower)
    problems = gate.check(tmp_path / "base", tmp_path / "fresh", 0.20)
    assert len(problems) == 1 and "mixed.unbatched_tput" in problems[0]


def test_drop_within_tolerance_passes(gate, tmp_path):
    _write(tmp_path / "base", **_HEALTHY)
    wobbling = dict(_HEALTHY)
    wobbling["BENCH_resolver__json"] = {"offload_ratio": 0.98 * 0.85}
    _write(tmp_path / "fresh", **wobbling)
    assert gate.check(tmp_path / "base", tmp_path / "fresh", 0.20) == []


def test_improvement_never_fails(gate, tmp_path):
    _write(tmp_path / "base", **_HEALTHY)
    improved = dict(_HEALTHY)
    improved["BENCH_writes__json"] = {"write_speedup": 40.0}
    _write(tmp_path / "fresh", **improved)
    assert gate.check(tmp_path / "base", tmp_path / "fresh", 0.20) == []


def test_missing_fresh_results_fail(gate, tmp_path):
    # A benchmark that silently stops writing its JSON must not pass.
    _write(tmp_path / "base", **_HEALTHY)
    fresh = dict(_HEALTHY)
    del fresh["BENCH_resolver__json"]
    _write(tmp_path / "fresh", **fresh)
    problems = gate.check(tmp_path / "base", tmp_path / "fresh", 0.20)
    assert len(problems) == 1 and "BENCH_resolver.json" in problems[0]


def test_missing_baseline_is_skipped(gate, tmp_path):
    # A brand-new benchmark has nothing to regress against.
    base = dict(_HEALTHY)
    del base["BENCH_resolver__json"]
    _write(tmp_path / "base", **base)
    _write(tmp_path / "fresh", **_HEALTHY)
    assert gate.check(tmp_path / "base", tmp_path / "fresh", 0.20) == []


def test_vanished_metric_fails(gate, tmp_path):
    _write(tmp_path / "base", **_HEALTHY)
    fresh = dict(_HEALTHY)
    fresh["BENCH_parallel__json"] = {"groups": []}
    _write(tmp_path / "fresh", **fresh)
    problems = gate.check(tmp_path / "base", tmp_path / "fresh", 0.20)
    assert len(problems) == 1 and "vanished" in problems[0]


def test_committed_baselines_are_gate_readable(gate):
    # The real BENCH_*.json files at the repo root must stay parseable
    # by the gate's extractors, or CI would skip them silently.
    repo_root = _GATE_PATH.parents[1]
    for filename, extract in gate.EXTRACTORS.items():
        path = repo_root / filename
        assert path.exists(), f"{filename} baseline missing from repo root"
        metrics = extract(json.loads(path.read_text()))
        assert metrics, filename
        assert all(value > 0 for value in metrics.values()), filename
