"""Command line: one measured or traced run of a workload, or ``compare``."""

from __future__ import annotations

import argparse
import asyncio
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from .compare import compare
from .harness import run_workload
from .workloads import BY_NAME

DEFAULT_OUT = Path(__file__).resolve().parent / "out"


def _run_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks.e2e",
        description="Measure one workload on the real-time path "
        "(or: benchmarks.e2e compare A B).",
    )
    parser.add_argument("--workload", required=True, choices=sorted(BY_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="length of the measured phase")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for the result record and the span JSONL")
    return parser


def _print_report(result: Dict[str, Any]) -> None:
    plan, primary = result["plan"], result["primary"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"plan sha256 {plan['sha256']}  planned {plan['counts']}")
    notes = {
        "setup_s": f"median of {len(result['setup']['build_s'])} builds + warm-up",
        "ops_per_s": f"n={result['attempted'] - result['failed']} ops "
                     f"in {result['measured_wall_s']:.2f} s",
        "lat_p50_ms": f"{primary['kind']} p50",
        "lat_tail_ms": f"{primary['kind']} p{primary['tail_percentile']}",
    }
    primary_count = result["samples"].get(primary["kind"], {}).get("count", 0)
    for name, metric in result["metrics"].items():
        note = notes.get(name, "")
        if name.startswith("lat_"):
            note += f", n={primary_count}"
        print(f"  {name:<46}{metric['value']:>14.4f} {metric['unit']:<6} {note}")
    for kind, sample in result["samples"].items():
        ladder = "  ".join(f"{k[:-3]} {v:.3f} ms" for k, v in sample.items() if k != "count")
        print(f"  {kind:<7} n={sample['count']:<6} {ladder}")
    print(f"  failed {result['failed']}/{result['attempted']} "
          f"(failed_frac {result['failed_frac']:.4f})  end state {result['end_state']}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    env = result["environment"]
    print(f"  environment {env}")
    if env["noisy"]:
        print("  NOISY: the 1-minute load average exceeded the core count")


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv and argv[0] == "compare":
        parser = argparse.ArgumentParser(prog="benchmarks.e2e compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.base, args.new)

    args = _run_parser().parse_args(argv)
    result = asyncio.run(run_workload(
        BY_NAME[args.workload], args.seed, args.seconds, bool(args.trace), out_dir=args.out,
    ))
    args.out.mkdir(parents=True, exist_ok=True)
    record = args.out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    _print_report(result)
    print(f"  result record {record}")
    # The last line is the driver's contract: exactly these four keys.
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0 if result["end_state"]["ok"] else 1
