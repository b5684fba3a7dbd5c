"""Recall pinning for the planted-interleaving-bug corpus.

Every ``vuln_*`` module in ``tests/explore/corpus/`` plants exactly one
protocol-level concurrency bug, found by exploring the real broadcast
stack under a Byzantine palette.  The explorer must witness each one,
and must stay silent on the ``clean_abc`` control (a correct-threshold
ABC subclass).  The per-bug pins are exact: a regression in any single
detection path fails loudly, and the whole corpus must finish well
inside a 60 s budget.
"""

import sys
import time
from pathlib import Path

import pytest

from repro.broadcast.abc import (
    _prepare_signing_input,
    derive_request_id,
    request_digest,
)
from repro.broadcast.messages import AbcCommit, AbcPrepare, PayloadReply
from repro.explore.dpor import DporEngine
from repro.explore.models import (
    AbaModel,
    AbcModel,
    ByzStrategy,
    StubKey,
    abc_strategies,
)

CORPUS = Path(__file__).parent / "corpus"

#: Protocol vulns: file -> expected violation hunt (built lazily below).
PROTOCOL_VULNS = [
    "vuln_aba_coin_reentry.py",
    "vuln_abc_future_epoch_drop.py",
    "vuln_abc_weak_prepare_quorum.py",
    "vuln_abc_unverified_pull.py",
]

CLEAN = ["clean_abc.py"]

#: The exact invariant messages of the re-planted ABC bugs' witnesses.
WITNESS_MESSAGES = {
    "vuln_abc_weak_prepare_quorum.py": [
        f"total order violated: replica {a} log [(0, {derive_request_id(b'req-a')!r})]..."
        f" diverges from replica {b} log [(0, {derive_request_id(b'req-b')!r})]..."
        for a, b in ((1, 4), (2, 4))
    ],
    "vuln_abc_unverified_pull.py": [
        "replica 3 adopted a forged payload for request "
        + derive_request_id(b"req-withheld")
    ],
}


@pytest.fixture(scope="module", autouse=True)
def _corpus_on_path():
    sys.path.insert(0, str(CORPUS))
    try:
        yield
    finally:
        sys.path.remove(str(CORPUS))


def _leader_strategy(n, name):
    honest = list(range(1, n))
    return next(
        s
        for s in abc_strategies(n, 1, 0, honest, [b"req-a", b"req-b"])
        if s.name == name
    )


def _forged_pull_strategy():
    """The payload-withholding leader, plus a forged reply to the pull of
    replica 3.  It shares replica 3's channel with the digest ORDER, so it
    lands while the pull chain that ORDER opened is waiting."""
    base = _leader_strategy(4, "withhold-payload")
    forged = PayloadReply(derive_request_id(b"req-withheld"), b"", b"forged")
    return ByzStrategy(
        "withhold-forge-pull", tuple(base.messages) + ((3, forged),)
    )


def _equivocate_at_5_1():
    """The sequence-equivocating leader at (5, 1), which also PREPAREs and
    COMMITs each camp's digest: its own vote lifts each camp's two
    PREPAREs to 2t+1, never to n-t."""
    base = _leader_strategy(5, "equivocate-seq")
    key = StubKey(0)
    votes = []
    for dest, order in base.messages:
        digest = request_digest(0, 0, order.payload)
        signature = key.sign(_prepare_signing_input(0, 0, digest))
        votes.append((dest, AbcPrepare(0, 0, digest, 0, signature)))
        votes.append((dest, AbcCommit(0, 0, digest, 0, b"")))
    return ByzStrategy(
        "equivocate-seq-voting", tuple(base.messages) + tuple(votes)
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


class _ForgedPullModel(AbcModel):
    """AbcModel whose invariant also pins *adoption* of a forged pull
    reply.  The ORDER replay re-derives the request id, so the forged
    payload is never prepared; what the missing check breaks is the
    replica's own copy of the request (and the pull chain it closed)."""

    def check_now(self):
        problems = super().check_now()
        for i, abc in self.state.replicas.items():
            for rid, payload in abc.pending.items():
                if derive_request_id(payload) != rid:
                    problems.append(
                        f"replica {i} adopted a forged payload for request {rid}"
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
                byz=0,
                strategy=ByzStrategy("silent"),
                payloads=(b"req-a",),
                abc_cls=VulnAbcFutureEpochDrop,
            ),
            40_000,
        )
    if filename == "vuln_abc_weak_prepare_quorum.py":
        from vuln_abc_weak_prepare_quorum import VulnAbcWeakPrepareQuorum

        # 2t+1 == n-t at (4,1); the weakening is only exploitable at (5,1).
        return (
            AbcModel(
                5,
                1,
                byz=0,
                strategy=_equivocate_at_5_1(),
                payloads=(b"req-a",),
                abc_cls=VulnAbcWeakPrepareQuorum,
            ),
            50_000,
        )
    if filename == "vuln_abc_unverified_pull.py":
        from vuln_abc_unverified_pull import VulnAbcUnverifiedPull

        # Withhold the payload from two replicas, then answer replica 3's
        # pull with a forged payload.
        return (
            _ForgedPullModel(
                4,
                1,
                byz=0,
                strategy=_forged_pull_strategy(),
                payloads=(b"req-a",),
                abc_cls=VulnAbcUnverifiedPull,
            ),
            50_000,
        )
    raise AssertionError(filename)


def test_corpus_is_complete():
    names = sorted(p.name for p in CORPUS.glob("*.py"))
    assert names == sorted(PROTOCOL_VULNS + CLEAN)


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
    expected = WITNESS_MESSAGES.get(filename)
    if expected is not None:
        assert violation.messages == expected, violation.messages


def test_clean_abc_control_stays_silent():
    from clean_abc import CleanAbcPrepareQuorum

    model = AbcModel(
        5,
        1,
        byz=0,
        strategy=_equivocate_at_5_1(),
        payloads=(b"req-a",),
        abc_cls=CleanAbcPrepareQuorum,
    )
    # Budget-capped: the point is that the *bug* is what the explorer
    # flags (found at well under this budget), not the subclassing.
    result = DporEngine(model, max_schedules=1_000).run()
    assert not result.violations
    assert result.schedules == 1_000, "budget should bind, not the space"


def test_production_pull_rejects_the_forged_reply():
    # The same adversary against the real request-id check.
    model = _ForgedPullModel(
        4, 1, byz=0,
        strategy=_forged_pull_strategy(), payloads=(b"req-a",),
    )
    result = DporEngine(model, max_schedules=1_000).run()
    assert not result.violations
    assert result.schedules == 1_000, "budget should bind, not the space"


@pytest.mark.slow  # its own budget is 60 s
def test_whole_corpus_under_budget():
    # The full corpus (every witness) completes in < 60 s.  The
    # heavyweight pieces re-run here; the per-file tests above stay
    # independently debuggable.
    start = time.monotonic()
    for filename in PROTOCOL_VULNS:
        model, budget = _protocol_model(filename)
        result = DporEngine(
            model, stop_on_first=True, max_schedules=budget
        ).run()
        assert result.violations, filename
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
