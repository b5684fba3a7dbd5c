"""Taint-family view of the shared corpus run (``tests/lint/test_corpus.py``).

The fixtures live in ``tests/lint/corpus/`` and are analyzed once, by
the shared runner; these checks restate its T-rule pins under the
names the taint suite has always used.
"""

import pytest

from tests.lint import test_corpus as corpus

#: vuln fixture -> rule that must fire on it (the seeded bug's rule).
EXPECTED = {
    "vuln_t401_share_assembly.py": "T401",
    "vuln_t402_epoch_change.py": "T402",
    "vuln_t403_alloc.py": "T403",
    "vuln_t404_growth.py": "T404",
    "vuln_t405_zone_write.py": "T405",
    "vuln_t406_identity_slot.py": "T406",
    "vuln_t407_launder.py": "T407",
    "vuln_t408_late_verify.py": "T408",
    "vuln_t408_cross_function.py": "T408",
    "vuln_interprocedural.py": "T401",
    "vuln_attr_flow.py": "T401",
}

CLEAN = [
    "clean_verified.py",
    "clean_local_material.py",
    "clean_verdict_flow.py",
    "clean_dict_keys.py",
]


def test_corpus_is_complete():
    assert set(EXPECTED) | set(CLEAN) <= set(corpus.EXPECTED)


@pytest.mark.parametrize("filename,rule", sorted(EXPECTED.items()))
def test_seeded_vulnerability_detected(filename, rule):
    assert rule in corpus.rules_for(filename), f"{filename} must trigger {rule}"


@pytest.mark.parametrize("filename", CLEAN)
def test_clean_controls_stay_silent(filename):
    assert corpus.rules_for(filename) == []


def test_recall_at_least_eight_of_ten():
    detected = sum(
        1 for filename, rule in EXPECTED.items() if rule in corpus.rules_for(filename)
    )
    assert detected >= 8, f"only {detected}/{len(EXPECTED)} seeded vulnerabilities detected"


def test_exact_finding_rules_per_file():
    for filename in EXPECTED:
        assert corpus.rules_for(filename) == corpus.EXPECTED[filename], filename


def test_full_repo_analysis_under_budget(tree_lint):
    assert tree_lint.elapsed_s < 30.0, f"whole-tree run took {tree_lint.elapsed_s:.1f}s"
