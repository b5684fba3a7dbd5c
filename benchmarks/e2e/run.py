"""Entry point named by BENCHMARK.json: ``python3 benchmarks/e2e/run.py ...``.

Run as a script from the root of a checkout, so it puts the checkout and
its ``src/`` on ``sys.path`` itself; everything else lives in ``cli.py``.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]

if __name__ == "__main__":
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    try:
        from benchmarks.e2e.cli import main
    except ImportError as exc:
        sys.exit(f"benchmarks/e2e needs the repository's src/ tree: {exc}")
    sys.exit(main())
