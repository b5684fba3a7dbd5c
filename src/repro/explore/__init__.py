"""Systematic concurrency exploration (DESIGN.md §5j).

A stateless model checker for the replicated protocols: instead of the
chaos harness's 50 random seeds, ``repro explore`` *enumerates* message
delivery interleavings at small ``(n, t)`` and proves the paper's safety
goals over every schedule.  Dynamic partial-order reduction (sleep sets +
backtrack sets over a commutativity oracle) keeps the enumeration a small
fraction of the naive schedule count; violating schedules are minimized
and written as replayable files.
"""

from repro.explore.dpor import (
    DporEngine,
    ExploreResult,
    StepMeta,
    Violation,
)
from repro.explore.frontier import (
    BROADCAST,
    ChannelFrontier,
    ModelTimer,
    SchedulePoint,
)
from repro.explore.runner import (
    EXPLORE_RULES,
    ExploreReport,
    explore_protocol,
    replay_file,
    strategy_specs,
)
from repro.explore.schedule import (
    ScheduleFile,
    load_schedule,
    minimize_violation,
    save_schedule,
)

__all__ = [
    "BROADCAST",
    "ChannelFrontier",
    "DporEngine",
    "EXPLORE_RULES",
    "ExploreReport",
    "ExploreResult",
    "ModelTimer",
    "SchedulePoint",
    "ScheduleFile",
    "StepMeta",
    "Violation",
    "explore_protocol",
    "load_schedule",
    "minimize_violation",
    "replay_file",
    "save_schedule",
    "strategy_specs",
]
