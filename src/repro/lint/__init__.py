"""``repro lint``: one static-analysis framework for determinism, crypto
hygiene, asyncio safety, Byzantine taint and quorum arithmetic.

See DESIGN.md §5c for the rule catalog and the ratchet workflow.
"""

from repro.lint.framework import (
    Finding,
    LintConfig,
    Program,
    load_rules,
    run_program,
    run_source,
)

__all__ = [
    "Finding",
    "LintConfig",
    "Program",
    "load_rules",
    "run_program",
    "run_source",
]
