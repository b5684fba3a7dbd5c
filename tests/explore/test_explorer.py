"""Engine-level tests for the DPOR interleaving explorer.

Covers the frontier's FIFO/happens-before bookkeeping, schedule-file
round-trips, DPOR soundness against naive enumeration on toy models
(leaf-fingerprint set equality — the property the sleep-set seeding
regression below once broke), counterexample minimization, replay
determinism, and small end-to-end explorations of the real protocol
models.
"""

import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.explore.dpor import (
    DporEngine,
    StepMeta,
    count_linear_extensions,
    replay_schedule,
)
from repro.explore.frontier import ChannelFrontier
from repro.explore.models import AbcModel
from repro.explore.runner import (
    build_model,
    explore_protocol,
    replay_file,
    strategy_specs,
)
from repro.explore.schedule import (
    SCHEDULE_VERSION,
    ScheduleFile,
    load_schedule,
    minimize_violation,
    save_schedule,
    transcript_hash,
)

CORPUS = Path(__file__).parent / "corpus"


# -- frontier ---------------------------------------------------------------


def test_frontier_is_fifo_per_channel():
    f = ChannelFrontier()
    f.push(0, 1, "a")
    f.push(0, 1, "b")
    f.push(2, 1, "c")
    assert f.enabled() == [(0, 1), (2, 1)]
    assert f.pop((0, 1), 0).payload == "a"
    assert f.pop((0, 1), 1).payload == "b"
    assert f.enabled() == [(2, 1)]
    assert f.pop((2, 1), 2).payload == "c"
    assert f.enabled() == []
    assert not f


def test_frontier_records_fifo_predecessor_edges():
    f = ChannelFrontier()
    f.push(0, 1, "a", sent_by=-1)
    f.push(0, 1, "b", sent_by=3)
    assert f.fifo_predecessor((0, 1)) == -1
    f.pop((0, 1), 7)
    assert f.fifo_predecessor((0, 1)) == 7
    assert f.peek((0, 1)).sent_by == 3


# -- schedule files ---------------------------------------------------------


def test_schedule_file_round_trip(tmp_path):
    sf = ScheduleFile(
        protocol="abc",
        cluster=(4, 1),
        strategy="leader-equivocate-seq",
        schedule=[(0, 1), (2, 3), "timer"],
        kind="invariant",
        messages=["total order violated"],
        fingerprint="abc123",
        transcript_hash="def456",
    )
    path = tmp_path / "witness.schedule.json"
    save_schedule(sf, path)
    loaded = load_schedule(path)
    assert loaded == sf
    assert loaded.schedule == [(0, 1), (2, 3), "timer"]


def test_schedule_file_rejects_unknown_version(tmp_path):
    sf = ScheduleFile(
        protocol="abc", cluster=(4, 1), strategy="", schedule=[]
    )
    path = tmp_path / "bad.schedule.json"
    save_schedule(sf, path)
    path.write_text(
        path.read_text().replace(
            f'"version": {SCHEDULE_VERSION}', '"version": 999'
        )
    )
    with pytest.raises(ValueError, match="version"):
        load_schedule(path)


def test_transcript_hash_is_order_sensitive():
    assert transcript_hash(["a", "b"]) != transcript_hash(["b", "a"])
    assert transcript_hash(["ab"]) != transcript_hash(["a", "b"])


# -- linear-extension counting ---------------------------------------------


def test_count_linear_extensions_chain_and_antichain():
    # Total order: exactly one extension.
    assert count_linear_extensions([0b000, 0b001, 0b011]) == 1
    # Antichain of 3: 3! extensions.
    assert count_linear_extensions([0, 0, 0]) == 6
    # Budget exhaustion returns None rather than a wrong number.
    assert count_linear_extensions([0] * 20, budget=4) is None


# -- toy-model soundness ----------------------------------------------------


class _ToyModel:
    """Deterministic handlers over per-dest logs; no timers.

    ``spec`` maps channel -> list of messages.  Every delivery appends
    ``(src, msg)`` to the destination's log, so the fingerprint captures
    the per-dest delivery order exactly: two schedules are
    Mazurkiewicz-equivalent iff their fingerprints agree.
    """

    sids_isolated = False

    def __init__(self, spec):
        self.spec = {k: list(v) for k, v in spec.items()}
        self.reset()

    def reset(self):
        self.pending = {k: list(v) for k, v in self.spec.items()}
        self.logs = {}

    def enabled(self):
        return sorted(k for k, v in self.pending.items() if v)

    def execute(self, choice, index):
        src, dest = choice
        msg = self.pending[choice].pop(0)
        self.logs.setdefault(dest, []).append((src, msg))
        return StepMeta(choice=choice, dest=dest, label=f"{src}->{dest}:{msg}")

    def peek(self, choice):
        return StepMeta(choice=choice, dest=choice[1])

    def fire_next_timer(self, index):
        return None

    def check_now(self):
        return []

    def check_leaf(self):
        return []

    def snapshot(self):
        return (
            {k: list(v) for k, v in self.pending.items()},
            {k: list(v) for k, v in self.logs.items()},
        )

    def restore(self, snap):
        pending, logs = snap
        self.pending = {k: list(v) for k, v in pending.items()}
        self.logs = {k: list(v) for k, v in logs.items()}

    def fingerprint(self):
        return repr(sorted(self.logs.items()))


def _leaf_fingerprints(spec, **engine_kwargs):
    """Explore and collect the fingerprint of every drained leaf."""
    model = _ToyModel(spec)
    fingerprints = set()
    original_check_leaf = model.check_leaf

    def capture():
        fingerprints.add(model.fingerprint())
        return original_check_leaf()

    model.check_leaf = capture
    result = DporEngine(model, **engine_kwargs).run()
    assert result.complete
    return fingerprints, result


TOY_SPECS = [
    # Three independent dests: pure cross-dest reduction.
    {(0, 1): ["a"], (2, 3): ["b"], (4, 5): ["c"]},
    # All to one dest: no reduction possible, orders all distinct.
    {(0, 1): ["a", "b"], (2, 1): ["c"], (3, 1): ["d"]},
    # The mixed shape that exercised sleep inheritance: two dests with
    # multiple same-dest channels each.
    {(0, 1): ["a"], (2, 1): ["b"], (0, 3): ["c"], (2, 3): ["d"]},
    {(0, 1): ["a", "b"], (2, 1): ["c"], (0, 3): ["d"], (2, 3): ["e"]},
]


@pytest.mark.parametrize("spec", TOY_SPECS)
def test_dpor_covers_every_mazurkiewicz_class(spec):
    naive_fps, naive_res = _leaf_fingerprints(spec, use_dpor=False)
    dpor_fps, dpor_res = _leaf_fingerprints(spec, use_dpor=True)
    # Soundness: every reachable per-dest delivery order is still
    # reached (this is exactly what unsound sleep pruning loses).
    assert dpor_fps == naive_fps
    assert dpor_res.schedules <= naive_res.schedules
    # Naive accounting: with no reduction the lower bound is exact and
    # equals the number of explored schedules.
    assert naive_res.naive_exact
    assert naive_res.naive_lower_bound == naive_res.schedules
    # On these toys dest-disjointness exactly characterizes commutation,
    # so the DPOR run's summed class sizes recover the naive count.
    assert dpor_res.naive_lower_bound == naive_res.schedules


def test_naive_count_matches_dependence_classes():
    # 4 all-dependent steps (one dest) -> 4! = 24 interleavings; DPOR
    # must count the same naive space from its reduced exploration.
    spec = {(0, 1): ["a"], (2, 1): ["b"], (3, 1): ["c"], (4, 1): ["d"]}
    _fps, res = _leaf_fingerprints(spec, use_dpor=True)
    assert res.naive_lower_bound == 24


# -- minimization and replay determinism ------------------------------------


def _weak_quorum_violation():
    from test_corpus import _equivocate_at_5_1  # a sibling module

    sys.path.insert(0, str(CORPUS))
    try:
        from vuln_abc_weak_prepare_quorum import VulnAbcWeakPrepareQuorum
    finally:
        sys.path.remove(str(CORPUS))
    strategy = _equivocate_at_5_1()

    def make():
        return AbcModel(
            5,
            1,
            byz=0,
            strategy=strategy,
            payloads=(b"req-a",),
            abc_cls=VulnAbcWeakPrepareQuorum,
        )

    result = DporEngine(
        make(), stop_on_first=True, max_schedules=50_000
    ).run()
    assert result.violations
    return make, result.violations[0]


def test_minimized_counterexample_replays_deterministically():
    make, violation = _weak_quorum_violation()
    schedule, messages, fingerprint, digest = minimize_violation(
        make(), violation
    )
    assert len(schedule) <= len(violation.schedule)
    assert messages and digest
    # Replay the minimized schedule twice on fresh models: identical
    # violation, state fingerprint, and transcript hash both times.
    replays = []
    for _ in range(2):
        problems, fp, labels = replay_schedule(
            make(), list(schedule), complete=True
        )
        replays.append((problems, fp, transcript_hash(labels)))
    assert replays[0] == replays[1]
    problems, fp, t_hash = replays[0]
    assert problems == messages
    assert fp == fingerprint
    assert t_hash == digest


def test_replay_file_round_trip_detects_clean_witness(tmp_path):
    # A clean witness file (kind="") replays the canonical default
    # schedule of a production configuration; reproduced means "still
    # clean", and the transcript hash pins the whole step sequence.
    sf = ScheduleFile(
        protocol="abc",
        cluster=(4, 1),
        strategy="honest",
        schedule=[],
    )
    path = tmp_path / "clean.schedule.json"
    save_schedule(sf, path)
    first = replay_file(path)
    second = replay_file(path)
    assert first.reproduced and second.reproduced
    assert not first.problems
    assert first.fingerprint == second.fingerprint
    assert first.transcript_hash == second.transcript_hash


# -- real-model explorations ------------------------------------------------


def test_aba_split_est_budget_bounded_and_clean():
    # ABA's coin rounds make even (4, 1) exhaustion intractable (the
    # naive bound passes 10^14 inside 90 s); tier-1 pins a bounded
    # prefix of the space, nightly pushes the frontier under a deadline.
    report = explore_protocol(
        "aba", n=4, t=1, strategies=["split-est"], max_schedules=2_000
    )
    assert report.ok, [v.kind for v in report.violations]
    assert report.schedules >= 2_000, "budget should bind, not the space"


def test_e2e_delay_bounded_smoke():
    report = explore_protocol("e2e", n=4, t=1, strategies=["honest"], bound=1)
    assert report.complete
    assert not report.violations
    assert report.schedules >= 1


def test_e2e_requires_a_bound():
    with pytest.raises(ValueError, match="bound"):
        explore_protocol("e2e", n=4, t=1)


def test_cli_lists_only_the_exploration_rule(capsys):
    assert main(["explore", "--list-rules"]) == 0
    listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert listed == ["X701"]


def test_strategy_specs_cover_documented_palettes():
    aba = [s.name for s in strategy_specs("aba", 4, 1)]
    assert "honest-mixed" in aba
    abc = [s.name for s in strategy_specs("abc", 4, 1)]
    assert abc == [
        "honest",
        "honest-backlog",
        "leader-silent",
        "leader-equivocate-seq",
        "leader-equivocate-lie",
        "leader-withhold-payload",
    ]
    e2e = [s.name for s in strategy_specs("e2e", 4, 1)]
    assert e2e == ["honest", "crash-follower"]


def test_build_model_rejects_unknown_strategy():
    with pytest.raises(ValueError):
        build_model("abc", 4, 1, "no-such-strategy")


@pytest.mark.parametrize(
    "protocol,strategy",
    [
        pytest.param(
            "abc", "leader-withhold-payload", id="abc-digest-leader-withhold-payload"
        ),
    ],
)
def test_footprint_extras_name_live_state(protocol, strategy):
    """Every name a model adds to each step's footprint is an attribute
    the wrapped protocol objects really hold — a stale name (say, of a
    pull field that moved into ``PayloadRecovery``) would let DPOR treat
    dependent steps as independent."""
    model = build_model(protocol, 4, 1, strategy)
    model.reset()
    names = set()
    for replica in model.state.replicas.values():
        names |= set(vars(replica)) | set(vars(replica._recovery))
    assert model._footprint_extra <= names, model._footprint_extra - names


def _run_to_quiescence(model, index):
    """Deliver the first enabled message, or fire the next timer when
    none is; the step labels in order."""
    labels = []
    while True:
        enabled = model.enabled()
        if enabled:
            meta = model.execute(enabled[0], index)
        else:
            meta = model.fire_next_timer(index)
            if meta is None:
                return labels
        labels.append(meta.label)
        index += 1


def test_abc_snapshot_is_an_independent_copy():
    """A snapshot taken with timers armed restores to a state whose run
    repeats the original one exactly and leaves the original untouched."""
    model = build_model("abc", 4, 1, "leader-silent")
    model.reset()
    prefix = []
    while model.enabled():  # the gateway's INITIATEs; the leader is silent
        prefix.append(model.execute(model.enabled()[0], len(prefix)).label)
    armed = dict(model.state.rail.timers)
    assert len(armed) == 3, "every honest replica suspects the leader"
    snap = model.snapshot()
    assert snap is not None

    first_labels = _run_to_quiescence(model, len(prefix))
    first = model.state
    first_fingerprint = model.fingerprint()
    first_seen = (first.frontier.pending(), dict(first.rail.timers), first.timer_fires)
    assert any(label.startswith("timer#") for label in first_labels)
    assert any(abc.epoch > 0 for abc in first.replicas.values())

    model.restore(snap)
    assert model.state is not first
    assert model.state.rail.timers == armed
    second_labels = _run_to_quiescence(model, len(prefix))
    assert second_labels == first_labels  # same deliveries and timer firings
    assert model.fingerprint() == first_fingerprint
    # The second run worked on its own copy.
    assert (first.frontier.pending(), dict(first.rail.timers), first.timer_fires) == first_seen
