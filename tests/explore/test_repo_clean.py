"""Pin production cleanliness under systematic exploration.

The corpus tests prove the explorer *finds* planted interleaving bugs;
this file proves the shipped protocols *pass* the same scrutiny.  Two
layers:

* budget-bounded sweeps of every Byzantine-leader palette of the atomic
  broadcast at (4, 1), of ABA, and a delay-bounded end-to-end run (none
  of these spaces is small enough to finish; the nightly workflow pushes
  them wider under a deadline), and
* ``--confirm-races`` over ``src/repro``, which must produce *zero*
  findings: the static race baseline is clean, so there is nothing to
  confirm or leave unwitnessed.

If a future PR introduces a real interleaving bug in ABA/ABC, or a
Y601-Y604 window in production code, this file is the tier-1 tripwire;
the wide exploration legs live in nightly CI.
"""

from repro.explore.confirm import confirm_races
from repro.explore.dpor import DporEngine
from repro.explore.runner import build_model, explore_protocol


class TestProductionProtocolsClean:
    def test_abc_leader_silent_budget_bounded(self):
        # A silent leader: the schedules run through complaints, the
        # switch agreement and a NEW_EPOCH.  Far past exhaustive; tier-1
        # pins a bounded prefix.
        model = build_model("abc", 4, 1, "leader-silent")
        result = DporEngine(model, max_schedules=400).run()
        assert not result.violations, [v.messages for v in result.violations]
        assert result.schedules >= 400, "budget should bind, not the space"
        assert any(abc.epoch > 0 for abc in model.state.replicas.values())

    def test_abc_leader_equivocate_seq_budget_bounded(self):
        # The leader ORDERs a different request into slot 0 for each
        # honest camp: neither camp reaches n-t PREPAREs, so no slot 0
        # certificate forms and the epoch changes.
        model = build_model("abc", 4, 1, "leader-equivocate-seq")
        result = DporEngine(model, max_schedules=400).run()
        assert not result.violations, [v.messages for v in result.violations]
        assert result.schedules >= 400, "budget should bind, not the space"

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
        model = build_model("abc", 4, 1, "honest-backlog")
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
        model = build_model("abc", 4, 1, "leader-withhold-payload")
        result = DporEngine(model, max_schedules=400).run()
        assert not result.violations, [v.messages for v in result.violations]
        assert result.schedules >= 400, "budget should bind, not the space"
        replicas = model.state.replicas.values()
        assert any(abc.stats["pulls_sent"] > 0 for abc in replicas)

    def test_e2e_delay_bounded_clean(self):
        report = explore_protocol("e2e", n=4, t=1, strategies=["honest"], bound=1)
        assert report.ok, [v.kind for v in report.violations]


class TestProductionSourceRaceClean:
    def test_confirm_races_has_nothing_to_confirm(self, tree_lint):
        outcomes = confirm_races(tree_lint.program)
        assert outcomes == [], [o.finding.rule for o in outcomes]
