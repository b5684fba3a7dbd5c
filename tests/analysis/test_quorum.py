"""Unit tests for the quorum-arithmetic checker (Q501-Q505)."""

import textwrap

from repro.lint.framework import load_rules, run_source

QUORUM_RULES = [rule.rule_id for rule in load_rules() if rule.check == "quorum"]


def check(source: str, path: str = "tests/fixture_quorum.py"):
    return run_source(textwrap.dedent(source), "", path, rules=QUORUM_RULES)


BOILER = """
class P:
    def __init__(self, n, t):
        if n <= 3 * t:  # repro-quorum: config
            raise ValueError
        self.n = n
        self.t = t
        self.pool = {}
"""


class TestObligations:
    def test_declared_intersect_quorum_passes(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        self.pool[sender] = sig
        if len(self.pool) >= self.n - self.t:  # repro-quorum: intersect
            return True
"""
        )
        assert findings == []

    def test_two_t_plus_one_intersect_fails_with_counterexample(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        self.pool[sender] = sig
        if len(self.pool) >= 2 * self.t + 1:  # repro-quorum: intersect
            return True
"""
        )
        assert [f.rule for f in findings] == ["Q501"]
        assert "(n=5, t=1)" in findings[0].message

    def test_early_return_spelling_is_equivalent(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        self.pool[sender] = sig
        if len(self.pool) < self.n - self.t:  # repro-quorum: intersect
            return False
        return True
"""
        )
        assert findings == []

    def test_overlarge_quorum_breaks_liveness(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        self.pool[sender] = sig
        if len(self.pool) >= self.n:  # repro-quorum: intersect
            return True
"""
        )
        assert [f.rule for f in findings] == ["Q501"]
        assert "liveness" in findings[0].message

    def test_undeclared_comparison_is_q505(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        if len(self.pool) >= self.t + 1:
            return True
"""
        )
        assert [f.rule for f in findings] == ["Q505"]

    def test_unnormalizable_mention_needs_declaration(self):
        body = """
    def leader(self, epoch):
        return epoch % self.n == 0
"""
        undeclared = check(BOILER + body)
        assert [f.rule for f in undeclared] == ["Q505"]
        declared = check(
            BOILER
            + """
    def leader(self, epoch):
        return epoch % self.n == 0  # repro-quorum: declared
"""
        )
        assert declared == []

    def test_identity_bound_must_be_exactly_n(self):
        findings = check(
            BOILER
            + """
    def admit(self, sender):
        return 0 <= sender < self.n + 1  # repro-quorum: identity-bound
"""
        )
        assert [f.rule for f in findings] == ["Q504"]

    def test_suppression_comment_shields(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        # repro-lint: disable=Q505 reviewed: sim-only shortcut
        if len(self.pool) >= self.t + 1:
            return True
"""
        )
        assert findings == []

    def test_constant_threshold_without_params_ignored(self):
        findings = check(
            BOILER
            + """
    def on_vote(self, sender, sig):
        if len(self.pool) >= 3:
            return True
"""
        )
        assert findings == []


class TestSpecTableCoversRepo:
    def test_whole_src_tree_is_quorum_clean(self, tree_lint):
        assert [f for f in tree_lint.findings if f.rule in QUORUM_RULES] == []
