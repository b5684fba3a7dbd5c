"""CI bench-regression gate: fresh BENCH_*.json vs committed baselines.

The bench-smoke job reruns every benchmark on each push; this script
compares the freshly produced headline metrics against the baselines
committed at the repo root and fails the job when any modelled speedup
(or modelled throughput, or the resolver offload ratio) drops more than
``--tolerance`` (default 20%) below its committed value.  Metrics
landing *above* baseline never fail — committing an improved baseline is
the ratchet.

Usage (what CI runs, after the bench steps regenerated the files)::

    python benchmarks/check_regression.py \
        --baseline bench-baselines --fresh .

A baseline file that does not exist is skipped with a note (a brand-new
benchmark has nothing to regress against); a *fresh* file that is
missing while its baseline exists is a hard failure (the benchmark
silently stopped producing output).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List

DEFAULT_TOLERANCE = 0.20


def _batching_metrics(data: dict) -> Dict[str, float]:
    # Both columns, not their quotient: the leader's own batching speeds
    # the "unbatched" (batch_size=1) configuration up as well, and a gate
    # on batched/unbatched would read that improvement as a regression.
    return {
        f"{workload}.{column}": float(data[workload][column])
        for workload in ("read_heavy", "mixed")
        for column in ("unbatched_tput", "batched_tput")
    }


def _writes_metrics(data: dict) -> Dict[str, float]:
    return {"write_speedup": float(data["write_speedup"])}


def _resolver_metrics(data: dict) -> Dict[str, float]:
    return {"offload_ratio": float(data["offload_ratio"])}


def _broadcast_metrics(data: dict) -> Dict[str, float]:
    return {
        f"{shape}.digest_order_reduction": float(data[shape]["digest_order_reduction"])
        for shape in ("sequential", "burst")
    }


#: filename -> extractor of {metric name: higher-is-better value}.
EXTRACTORS = {
    "BENCH_batching.json": _batching_metrics,
    "BENCH_writes.json": _writes_metrics,
    "BENCH_resolver.json": _resolver_metrics,
    "BENCH_broadcast.json": _broadcast_metrics,
}


def _load(path: Path) -> dict:
    with path.open(encoding="utf-8") as handle:
        return json.load(handle)


def check(
    baseline_dir: Path, fresh_dir: Path, tolerance: float
) -> List[str]:
    """All regression messages (empty = gate passes)."""
    problems: List[str] = []
    for filename, extract in sorted(EXTRACTORS.items()):
        baseline_path = baseline_dir / filename
        fresh_path = fresh_dir / filename
        if not baseline_path.exists():
            print(f"{filename}: no committed baseline, skipping (new bench?)")
            continue
        if not fresh_path.exists():
            problems.append(
                f"{filename}: baseline exists but no fresh results were "
                "produced — did the benchmark stop writing its JSON?"
            )
            continue
        try:
            baseline = extract(_load(baseline_path))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{filename}: unreadable baseline ({exc!r})")
            continue
        try:
            fresh = extract(_load(fresh_path))
        except (KeyError, TypeError, ValueError) as exc:
            problems.append(f"{filename}: unreadable fresh results ({exc!r})")
            continue
        for metric, committed in sorted(baseline.items()):
            if metric not in fresh:
                problems.append(
                    f"{filename}: metric {metric} vanished from fresh results"
                )
                continue
            floor = committed * (1.0 - tolerance)
            current = fresh[metric]
            verdict = "ok" if current >= floor else "REGRESSION"
            print(
                f"{filename}: {metric} baseline={committed:.3f} "
                f"fresh={current:.3f} floor={floor:.3f} {verdict}"
            )
            if current < floor:
                problems.append(
                    f"{filename}: {metric} regressed to {current:.3f}, "
                    f"more than {tolerance:.0%} below the committed "
                    f"{committed:.3f}"
                )
    return problems


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baseline",
        type=Path,
        required=True,
        help="directory holding the committed BENCH_*.json baselines",
    )
    parser.add_argument(
        "--fresh",
        type=Path,
        required=True,
        help="directory holding the freshly produced BENCH_*.json files",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=DEFAULT_TOLERANCE,
        help="allowed fractional drop below baseline (default 0.20)",
    )
    args = parser.parse_args(argv)
    if not 0 <= args.tolerance < 1:
        parser.error("--tolerance must be in [0, 1)")
    problems = check(args.baseline, args.fresh, args.tolerance)
    if problems:
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    print("bench-regression gate: all metrics within tolerance")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
