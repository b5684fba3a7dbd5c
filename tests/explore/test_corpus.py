"""Recall pinning for the planted-interleaving-bug corpus.

Every ``vuln_*`` module in ``tests/explore/corpus/`` plants exactly one
concurrency bug — four protocol-level defects found by exploring the
real broadcast stack under a Byzantine palette, and four task-level
Y601-Y604 yield-point races confirmed through their published
``EXPLORE_HARNESSES``.  The explorer must witness each one, and must
stay silent on the two ``clean_*`` controls (a correct-threshold RBC
subclass and correctly-guarded task code).  The per-bug pins are exact:
a regression in any single detection path fails loudly, and the whole
corpus must finish well inside the issue's 60 s budget.
"""

import sys
import time
from pathlib import Path

import pytest

from repro.explore import confirm_races
from repro.explore.confirm import _explore_harness, _load_harnesses
from repro.explore.dpor import DporEngine
from repro.explore.models import (
    AbaModel,
    AbcModel,
    ByzStrategy,
    RbcModel,
    rbc_strategies,
)
from repro.lint.framework import LintConfig
from repro.taint.indexer import module_files

CORPUS = Path(__file__).parent / "corpus"

#: Static scope for corpus files: fixtures live outside ``src/`` and so
#: carry an empty module name, which the default ``repro.*`` scope skips.
CORPUS_CONFIG = LintConfig(races_modules=("*",))

#: Protocol vulns: file -> expected violation hunt (built lazily below).
PROTOCOL_VULNS = [
    "vuln_aba_coin_reentry.py",
    "vuln_abc_future_epoch_drop.py",
    "vuln_rbc_weak_echo_quorum.py",
    "vuln_rbc_unverified_pull.py",
]

#: Task vulns: file -> the Y rule that must be dynamically confirmed.
TASK_VULNS = {
    "vuln_task_toctou.py": "Y601",
    "vuln_task_lost_update.py": "Y602",
    "vuln_task_busy_flag.py": "Y603",
    "vuln_task_fire_forget.py": "Y604",
}

CLEAN = ["clean_rbc.py", "clean_task.py"]


@pytest.fixture(scope="module", autouse=True)
def _corpus_on_path():
    sys.path.insert(0, str(CORPUS))
    try:
        yield
    finally:
        sys.path.remove(str(CORPUS))


def _forged_pull_strategy():
    from repro.broadcast.messages import RbcPayload

    base = next(
        s
        for s in rbc_strategies(4, 1, "s", "digest", 0, [1, 2, 3])
        if s.name == "withhold-partial"
    )
    return ByzStrategy(
        "withhold-forge-pull",
        tuple(base.messages) + ((3, RbcPayload("s", b"forged")),),
    )


def _equivocate_at_5_1():
    return next(
        s
        for s in rbc_strategies(5, 1, "s", "full", 0, [1, 2, 3, 4])
        if s.name == "equivocate-split"
    )


class _FutureDropModel(AbcModel):
    """AbcModel whose invariant also pins *reachability* of the planted
    drop: the wedge it causes is liveness-shaped (recovery re-arms timers
    until the cap), so a safety check alone would never see it."""

    def check_now(self):
        problems = super().check_now()
        for i, abc in self.state.replicas.items():
            dropped = getattr(abc, "dropped_future", 0)
            if dropped:
                problems.append(
                    f"replica {i} dropped {dropped} future-epoch message(s)"
                )
        return problems


def _protocol_model(filename):
    """The (model, schedule-budget) pair that witnesses each planted bug."""
    if filename == "vuln_aba_coin_reentry.py":
        from vuln_aba_coin_reentry import VulnAbaCoinReentry

        # Unanimous 1-proposals take the estimate-and-advance path (the
        # stub coin's round-0 toss is 0), opening the re-entrancy window.
        return (
            AbaModel(
                4,
                1,
                byz=0,
                strategy=ByzStrategy("silent"),
                proposals={1: 1, 2: 1, 3: 1},
                aba_cls=VulnAbaCoinReentry,
            ),
            20_000,
        )
    if filename == "vuln_abc_future_epoch_drop.py":
        from vuln_abc_future_epoch_drop import VulnAbcFutureEpochDrop

        # A silent epoch-0 leader forces the complaint path; the drop
        # needs an epoch-1 message to overtake a replica's epoch change.
        return (
            _FutureDropModel(
                4,
                1,
                dissemination="digest",
                byz=0,
                strategy=ByzStrategy("silent"),
                payloads=(b"req-a",),
                abc_cls=VulnAbcFutureEpochDrop,
            ),
            40_000,
        )
    if filename == "vuln_rbc_weak_echo_quorum.py":
        from vuln_rbc_weak_echo_quorum import VulnRbcWeakEchoQuorum

        # 2t+1 == n-t at (4,1); the weakening is only exploitable at (5,1).
        return (
            RbcModel(
                5,
                1,
                mode="full",
                byz=0,
                strategy=_equivocate_at_5_1(),
                rbc_cls=VulnRbcWeakEchoQuorum,
            ),
            50_000,
        )
    if filename == "vuln_rbc_unverified_pull.py":
        from vuln_rbc_unverified_pull import VulnRbcUnverifiedPull

        # Withhold SEND from one camp, then race a forged pull response
        # into the starved replica's pull window.
        return (
            RbcModel(
                4,
                1,
                mode="digest",
                byz=0,
                strategy=_forged_pull_strategy(),
                rbc_cls=VulnRbcUnverifiedPull,
            ),
            50_000,
        )
    raise AssertionError(filename)


def test_corpus_is_complete():
    names = sorted(p.name for p in CORPUS.glob("*.py"))
    assert names == sorted(PROTOCOL_VULNS + list(TASK_VULNS) + CLEAN)


@pytest.mark.parametrize(
    "filename",
    [
        # ~10 s of schedules before the dropped-message witness shows up
        pytest.param(name, marks=pytest.mark.slow)
        if name == "vuln_abc_future_epoch_drop.py" else name
        for name in PROTOCOL_VULNS
    ],
)
def test_protocol_bug_witnessed(filename):
    model, budget = _protocol_model(filename)
    result = DporEngine(
        model, stop_on_first=True, max_schedules=budget
    ).run()
    assert result.violations, f"{filename}: no violating schedule found"
    violation = result.violations[0]
    assert violation.schedule, f"{filename}: empty witness schedule"


@pytest.mark.parametrize(
    "filename,rule", sorted(TASK_VULNS.items())
)
def test_task_race_confirmed(filename, rule):
    files = module_files([CORPUS / filename], CORPUS)
    outcomes = confirm_races(files, config=CORPUS_CONFIG)
    assert outcomes, f"{filename}: no {rule} finding to confirm"
    confirmed = [o for o in outcomes if o.original.rule == rule]
    assert confirmed, f"{filename}: static finding is not {rule}"
    for outcome in confirmed:
        assert outcome.status == "confirmed", (
            f"{filename}: {rule} not dynamically confirmed "
            f"({outcome.schedules_explored} schedules, "
            f"complete={outcome.complete})"
        )
        assert outcome.rule == "X702"
        # The minimized schedule may legitimately be empty (the default
        # completion order alone reproduces, e.g. the Y604 crash) — but
        # a confirmed finding must always carry witness messages.
        assert outcome.messages


def test_task_corpus_exact_rules():
    # One Y finding per task file, no cross-contamination.
    files = module_files([CORPUS], CORPUS)
    outcomes = confirm_races(files, config=CORPUS_CONFIG)
    by_file = {}
    for o in outcomes:
        by_file.setdefault(Path(o.original.path).name, []).append(o)
    got = {
        name: sorted(o.original.rule for o in outs)
        for name, outs in by_file.items()
    }
    assert got == {name: [rule] for name, rule in TASK_VULNS.items()}
    assert all(
        o.status == "confirmed" for outs in by_file.values() for o in outs
    )


def test_clean_rbc_control_stays_silent():
    from clean_rbc import CleanRbcEchoQuorum

    model = RbcModel(
        5,
        1,
        mode="full",
        byz=0,
        strategy=_equivocate_at_5_1(),
        rbc_cls=CleanRbcEchoQuorum,
    )
    # Budget-capped: the point is that the *bug* is what the explorer
    # flags (found at well under this budget), not the subclassing.
    result = DporEngine(model, max_schedules=1_500).run()
    assert not result.violations


def test_clean_task_control_stays_silent():
    path = CORPUS / "clean_task.py"
    # Statically clean: nothing to confirm.
    files = module_files([path], CORPUS)
    assert confirm_races(files, config=CORPUS_CONFIG) == []
    # Dynamically clean: every published harness explores exhaustively
    # with zero violations.
    harnesses = _load_harnesses(path, path.read_text())
    assert len(harnesses) == 3
    for harness in harnesses:
        evidence = _explore_harness(
            harness, max_schedules=5_000, deadline_s=None
        )
        assert evidence.complete, f"{harness.name}: budget hit"
        assert not evidence.violations, f"{harness.name}: false positive"


@pytest.mark.slow  # its own budget is 60 s
def test_whole_corpus_under_budget():
    # Issue acceptance: the full corpus (all witnesses + both controls)
    # completes in < 60 s.  The heavyweight pieces re-run here; the
    # per-file tests above stay independently debuggable.
    start = time.monotonic()
    for filename in PROTOCOL_VULNS:
        model, budget = _protocol_model(filename)
        result = DporEngine(
            model, stop_on_first=True, max_schedules=budget
        ).run()
        assert result.violations, filename
    files = module_files([CORPUS], CORPUS)
    outcomes = confirm_races(files, config=CORPUS_CONFIG)
    assert len(outcomes) == len(TASK_VULNS)
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
