"""Pin production cleanliness under systematic exploration.

The corpus tests prove the explorer *finds* planted interleaving bugs;
this file proves the shipped protocols *pass* the same scrutiny.  Two
layers:

* exhaustive sweeps where the space is small enough to finish in tier-1
  time (the RBC full-payload sender palette at (4, 1) minus the
  equivocating sender, whose space is astronomically larger and is
  budget-bounded in the nightly workflow instead), and
* ``--confirm-races`` over ``src/repro``, which must produce *zero*
  findings: the static race baseline is clean, so there is nothing to
  confirm or leave unwitnessed.

If a future PR introduces a real interleaving bug in RBC/ABA/ABC, or a
Y601-Y604 window in production code, this file is the tier-1 tripwire;
the wide exploration legs live in nightly CI.
"""

from repro.explore.confirm import confirm_races
from repro.explore.dpor import DporEngine
from repro.explore.runner import build_model, explore_protocol

# Byzantine-sender strategies whose (4, 1) full-mode space the engine
# finishes in well under a second each (measured: 1-27 DPOR schedules
# against naive counts up to 1.8M).  The honest and equivocate-split
# senders explode past 10^10 naive interleavings and are budget-bounded
# below and in the nightly workflow instead.
FAST_RBC_SENDERS = [
    "sender-silent",
    "sender-withhold-partial",
    "sender-phantom-votes",
]


class TestProductionProtocolsClean:
    def test_rbc_full_byzantine_senders_exhaustive(self):
        report = explore_protocol(
            "rbc", mode="full", n=4, t=1, strategies=FAST_RBC_SENDERS
        )
        assert report.complete, "budget must not bind on the fast palette"
        assert report.ok, [v.kind for v in report.violations]
        # DPOR is doing real work, not just walking a tiny space.
        assert report.naive_lower_bound >= 10 * report.schedules

    def test_rbc_full_honest_budget_bounded(self):
        # Honest full dissemination is the *largest* space (every replica
        # votes on a real payload: naive >= 5x10^17); pin a bounded
        # prefix so a regression on the common path still trips tier-1.
        report = explore_protocol(
            "rbc", mode="full", n=4, t=1, strategies=["honest"],
            max_schedules=1_500,
        )
        assert report.ok, [v.kind for v in report.violations]
        assert report.schedules >= 1_500, "budget should bind, not the space"

    def test_rbc_digest_pull_path_exhaustive(self):
        """The digest pull fallback: the path the sleep-set fix reopened."""
        report = explore_protocol(
            "rbc",
            mode="digest",
            n=4,
            t=1,
            strategies=["sender-withhold-partial"],
        )
        assert report.complete
        assert report.ok, [v.kind for v in report.violations]

    def test_aba_silent_budget_bounded(self):
        # ABA's coin rounds push even (4, 1) past 10^15 naive
        # interleavings; tier-1 pins a bounded prefix (nightly sweeps
        # wider under a deadline).
        report = explore_protocol(
            "aba", n=4, t=1, strategies=["silent"], max_schedules=1_500
        )
        assert report.ok, [v.kind for v in report.violations]

    def test_abc_leader_backlog_budget_bounded(self):
        # Three requests at an honest (4, 1): two of them reach the
        # leader behind its slot in flight, so every schedule goes
        # through the held backlog and the leader's batch frame.  The
        # space is far past exhaustive; tier-1 pins a bounded prefix.
        model = build_model("abc", "digest", 4, 1, "honest-backlog")
        result = DporEngine(model, max_schedules=400).run()
        assert not result.violations, [v.messages for v in result.violations]
        assert result.schedules >= 400, "budget should bind, not the space"
        leader = model.state.replicas[0]
        assert leader.stats["rebatches"] >= 1
        assert leader.next_deliver < len(model.payloads)  # slots < requests

    def test_abc_leader_withhold_payload_budget_bounded(self):
        # The Byzantine leader digest-ORDERs a request only one honest
        # replica holds and never answers pulls: the other two must pull
        # it from that replica through the timer rail.
        model = build_model("abc", "digest", 4, 1, "leader-withhold-payload")
        result = DporEngine(model, max_schedules=400).run()
        assert not result.violations, [v.messages for v in result.violations]
        assert result.schedules >= 400, "budget should bind, not the space"
        replicas = model.state.replicas.values()
        assert any(abc.stats["pulls_sent"] > 0 for abc in replicas)

    def test_e2e_delay_bounded_clean(self):
        report = explore_protocol(
            "e2e", mode="digest", n=4, t=1, strategies=["honest"], bound=1
        )
        assert report.ok, [v.kind for v in report.violations]


class TestProductionSourceRaceClean:
    def test_confirm_races_has_nothing_to_confirm(self, tree_lint):
        outcomes = confirm_races(tree_lint.program)
        assert outcomes == [], [o.finding.rule for o in outcomes]
