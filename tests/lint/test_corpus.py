"""The seeded corpus: one runner for every analyzer pass.

Every ``vuln_*`` fixture in ``corpus/`` plants one class of bug (taint
or quorum arithmetic); every ``clean_*`` fixture is a control.  Each
fixture is analyzed alone by a full ``repro lint`` run
(all passes), and the exact sorted rule multiset is pinned per file, so
a missed bug, a new false positive, or cross-talk between passes fails
here.  The expectation table must name every fixture in the directory.
"""

from functools import lru_cache
from pathlib import Path
from typing import List

import pytest

from repro.lint.framework import Program, run_program

CORPUS = Path(__file__).parent / "corpus"
REPO_ROOT = Path(__file__).resolve().parents[2]

#: fixture -> exact sorted rule multiset of a full run on it alone.
EXPECTED = {
    "clean_dict_keys.py": [],
    "clean_local_material.py": [],
    "clean_quorum.py": [],
    "clean_verdict_flow.py": [],
    "clean_verified.py": [],
    "vuln_attr_flow.py": ["T401", "T404"],
    "vuln_interprocedural.py": ["T401"],
    "vuln_q501_two_t_quorum.py": ["Q501"],
    "vuln_q502_trunc_t_plus_1.py": ["Q502"],
    "vuln_q503_amplify_t.py": ["Q503"],
    "vuln_q504_cap.py": ["Q504"],
    "vuln_q505_undeclared.py": ["Q505"],
    "vuln_t401_share_assembly.py": ["T401"],
    "vuln_t402_epoch_change.py": ["T402"],
    "vuln_t403_alloc.py": ["T403", "T403"],
    "vuln_t404_growth.py": ["T404"],
    "vuln_t405_zone_write.py": ["T405"],
    "vuln_t406_identity_slot.py": ["T406"],
    "vuln_t407_launder.py": ["T407"],
    # The late-verify snippet both hits the sink unverified (T401) and
    # shows the sanitizer-after-sink ordering bug (T408); the
    # cross-function variant needs the summary's sanitize replay.
    "vuln_t408_cross_function.py": ["T401", "T408"],
    "vuln_t408_late_verify.py": ["T401", "T408"],
}


@lru_cache(maxsize=None)
def findings_for(filename: str):
    """The full-run findings on one fixture (cached per process)."""
    return run_program(Program.from_paths([CORPUS / filename], REPO_ROOT))


def rules_for(filename: str) -> List[str]:
    return sorted(f.rule for f in findings_for(filename))


def test_corpus_is_complete():
    assert sorted(p.name for p in CORPUS.glob("*.py")) == sorted(EXPECTED)


@pytest.mark.parametrize("filename", sorted(EXPECTED))
def test_fixture_rules(filename):
    assert rules_for(filename) == EXPECTED[filename]

