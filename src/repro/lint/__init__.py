"""``repro lint``: one static-analysis framework for determinism, crypto
hygiene, Byzantine taint, quorum arithmetic and yield-point races.

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
