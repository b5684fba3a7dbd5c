"""Quorum-family view of the shared corpus run
(``tests/lint/test_corpus.py``).

The fixtures live in ``tests/lint/corpus/`` and are analyzed once, by
the shared runner; these checks restate its Q-rule pins under the names
the protocol-invariant suite has always used.
"""

import pytest

from tests.lint import test_corpus as corpus

EXPECTED = {
    name: rules
    for name, rules in corpus.EXPECTED.items()
    if name.startswith("vuln_q")
}

CLEAN = ["clean_quorum.py"]


def test_corpus_is_complete():
    assert len(EXPECTED) == 5
    assert set(CLEAN) <= set(corpus.EXPECTED)


@pytest.mark.parametrize("filename", sorted(EXPECTED))
def test_planted_violation_found(filename):
    assert corpus.rules_for(filename) == EXPECTED[filename]


@pytest.mark.parametrize("filename", CLEAN)
def test_clean_control_silent(filename):
    assert corpus.rules_for(filename) == []


def test_full_recall_and_precision():
    found = sorted(r for name in list(EXPECTED) + CLEAN for r in corpus.rules_for(name))
    assert found == sorted(r for rules in EXPECTED.values() for r in rules)


def test_counterexamples_name_concrete_deployments():
    q501 = corpus.findings_for("vuln_q501_two_t_quorum.py")
    assert q501 and all("(n=" in f.message for f in q501)


def test_full_repo_analysis_under_budget(tree_lint):
    assert not [f for f in tree_lint.findings if f.rule[0] == "Q"]
    assert tree_lint.elapsed_s < 30.0, f"whole-tree run took {tree_lint.elapsed_s:.1f}s"
