"""``PYTHONPATH=src python -m benchmarks.e2e ...`` — see README.md."""

from .cli import main

raise SystemExit(main())
