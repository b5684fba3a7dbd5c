"""Regression tests for the general-n quorum fixes (Q501).

Found by the first whole-repo ``repro lint --quorum`` run: the prepare
quorum in ``broadcast.abc`` used ``2t+1``, which only guarantees
pairwise quorum intersection when ``n == 3t+1`` exactly.  At (n=5, t=1)
two 3-member quorums can share a single — possibly Byzantine — replica,
so an equivocating voter could complete *two* conflicting locks on the
same slot.  The safe general-n quorum is ``n - t``.  (The explorer
corpus plants the old threshold back as ``vuln_abc_weak_prepare_quorum``
and witnesses the split delivery.)

Locks are not transferable, so a Byzantine replica can *claim* any lock
in its signed EPOCH_FINAL.  ``TestCertificateQuorumAtN5T1`` pins that
such a forged claim is never chosen by the epoch-change decision.
"""

from itertools import combinations

from repro.broadcast.abc import (
    AtomicBroadcast,
    decide,
    derive_request_id,
    final_claims,
    request_digest,
)
from repro.broadcast.messages import AbcEpochFinal, AbcPrepare

from tests.broadcast.harness import auth_keys, coin_keys, drive, make_lan

ALPHA, BRAVO = b"alpha", b"bravo"


def build_one(n, t, me=0):
    """A single AtomicBroadcast replica on a quiet simulated network."""
    pairs, pubs = auth_keys(n)
    coins = coin_keys(n, t)
    net = make_lan(n)
    abc = AtomicBroadcast(
        n, t, me,
        auth_key=pairs[me].private,
        auth_public=pubs,
        coin_key=coins[me],
        timeout=1.0,
    )
    drive(net.node(me), abc)
    return abc


def lock_claim(seq, epoch, payload):
    return (seq, epoch, derive_request_id(payload), payload)


def claims_of(sender, locks=(), accepted=()):
    final = AbcEpochFinal(
        epoch=0, sender=sender, locks=tuple(locks), accepted=tuple(accepted), pending=()
    )
    return final_claims(final)


def pools(finals, n, t, must_include):
    """Every pool of n-t or more finals that contains ``must_include``."""
    for size in range(n - t, n + 1):
        for pool in combinations(range(n), size):
            if must_include in pool:
                yield [finals[i] for i in pool]


class TestCertificateQuorumAtN5T1:
    """n=5, t=1: alpha is locked by the four honest replicas (n-t PREPAREs
    each); replica 4 is Byzantine and signs whatever it likes."""

    def test_conflicting_sub_quorum_certificates_rejected(self):
        # Replica 4 forges a lock on bravo — at alpha's epoch and at a
        # higher one — that no honest replica accepted.  No decisive pool
        # chooses it, whichever finals the new leader collected.
        honest = {i: claims_of(i, [lock_claim(0, 0, ALPHA)]) for i in range(4)}
        for forged_epoch in (0, 3):
            finals = dict(honest)
            finals[4] = claims_of(4, [lock_claim(0, forged_epoch, BRAVO)])
            for pool in pools(finals, 5, 1, must_include=4):
                decision = decide(pool, 5, 1)
                if decision is not None:
                    assert decision[1][0][0] == derive_request_id(ALPHA)

    def test_full_intersection_quorum_accepted(self):
        # The n-t honest lockers alone decide alpha.
        finals = [claims_of(i, [lock_claim(0, 0, ALPHA)]) for i in range(4)]
        assert decide(finals, 5, 1) == (1, {0: (derive_request_id(ALPHA), ALPHA)})


def prepare_votes(abc, payload, signers):
    """Replica ``abc`` (replica 0, the leader) orders ``payload`` into
    slot (0, 0), then receives PREPAREs from ``signers``."""
    digest = request_digest(0, 0, payload)
    abc._order_one(derive_request_id(payload), payload)
    for signer in signers:
        abc.on_message(signer, AbcPrepare(0, 0, digest, signer))
    return (0, 0) in abc._commit_sent


class TestPrepareQuorumAtN5T1:
    """The live prepare quorum: the leader's own PREPARE plus the listed
    voters' must reach n - t before the slot locks."""

    def test_three_prepares_do_not_certify(self):
        abc = build_one(5, 1)
        assert not prepare_votes(abc, b"payload", (1, 2))
        assert 0 not in abc._locks

    def test_n_minus_t_prepares_certify(self):
        abc = build_one(5, 1)
        assert prepare_votes(abc, b"payload", (1, 2, 3))
        assert abc._locks[0] == (0, derive_request_id(b"payload"), b"payload")

    def test_quorum_unchanged_at_minimal_cluster(self):
        # At n == 3t+1 the fix is behavior-preserving: n-t == 2t+1.
        abc = build_one(4, 1)
        assert not prepare_votes(abc, b"payload", (1,))
        abc2 = build_one(4, 1)
        assert prepare_votes(abc2, b"payload", (1, 2))
