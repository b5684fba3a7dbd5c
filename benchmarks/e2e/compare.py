"""``compare A B``: do two sets of runs agree within the benchmark's bounds?

Each argument is a result file written by a run (one JSON object), a file
holding a JSON list of such objects, or a directory of result files.  Runs
are grouped by workload and each end-to-end metric is compared by its
median, with the direction and bound ``BENCHMARK.json`` fixes.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path
from typing import Any, Dict, List, Tuple

BENCHMARK_JSON = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

WORSE, SAME, BETTER, UNRESOLVED = "worse", "same", "better", "unresolved"


def load_runs(path: Path) -> List[Dict[str, Any]]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs: List[Dict[str, Any]] = []
    for file in files:
        data = json.loads(file.read_text(encoding="utf-8"))
        runs.extend(data if isinstance(data, list) else [data])
    # Traced runs carry per-layer metrics only; they have no bounds to check.
    return [run for run in runs if not run.get("trace")]


def _by_workload(runs: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    grouped: Dict[str, List[Dict[str, Any]]] = defaultdict(list)
    for run in runs:
        grouped[run["workload"]].append(run)
    return grouped


def _spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for fewer than 3 runs)."""
    if len(values) < 3:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(
    base: List[float], new: List[float], better: str, bound: float
) -> Tuple[str, float, float]:
    """``(verdict, worsening, spread)`` of one (metric, workload) row.

    ``worsening`` is the share of the base median by which the new median
    is worse (negative: it improved).  A row whose run-to-run spread
    exceeds the bound is ``unresolved`` unless the two sets do not overlap.
    """
    sign = 1.0 if better == "lower" else -1.0
    base_median, new_median = statistics.median(base), statistics.median(new)
    worsening = sign * (new_median - base_median) / base_median
    spread = max(_spread(base), _spread(new))
    if spread > bound:
        if all(sign * n < sign * b for n in new for b in base):
            return BETTER, worsening, spread
        if worsening > bound and all(sign * n > sign * b for n in new for b in base):
            return WORSE, worsening, spread
        return UNRESOLVED, worsening, spread
    if worsening > bound:
        return WORSE, worsening, spread
    if worsening < -bound:
        return BETTER, worsening, spread
    return SAME, worsening, spread


def compare(base_path: Path, new_path: Path, benchmark_json: Path = BENCHMARK_JSON) -> int:
    """Print one row per (metric, workload); returns the process exit code."""
    spec = json.loads(benchmark_json.read_text(encoding="utf-8"))
    base_sets, new_sets = _by_workload(load_runs(base_path)), _by_workload(load_runs(new_path))
    bad = 0
    print(f"{'workload':<24}{'metric':<14}{'base':>12}{'new':>12}{'change':>10}"
          f"{'spread':>9}{'bound':>7}  verdict")
    for workload in sorted(set(base_sets) & set(new_sets)):
        base_runs, new_runs = base_sets[workload], new_sets[workload]
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [run["metrics"][name]["value"] for run in base_runs]
            new = [run["metrics"][name]["value"] for run in new_runs]
            outcome, worsening, spread = verdict(base, new, metric["better"], metric["bound"])
            bad += outcome == WORSE
            print(
                f"{workload:<24}{name:<14}{statistics.median(base):>12.4f}"
                f"{statistics.median(new):>12.4f}{worsening:>+10.1%}{spread:>9.1%}"
                f"{metric['bound']:>7.2f}  {outcome}  ({metric['unit']}, "
                f"{len(base)} vs {len(new)} runs)"
            )
        base_failed = sum(r["failed"] for r in base_runs) / sum(r["attempted"] for r in base_runs)
        new_failed = sum(r["failed"] for r in new_runs) / sum(r["attempted"] for r in new_runs)
        rose = new_failed > base_failed
        bad += rose
        print(f"{workload:<24}{'failed_frac':<14}{base_failed:>12.4f}{new_failed:>12.4f}"
              f"{'':>26}  {WORSE if rose else SAME}  (ratio, may not rise)")
    for workload in sorted(set(base_sets) ^ set(new_sets)):
        print(f"{workload}: present in only one set, not compared")
    return 1 if bad else 0
