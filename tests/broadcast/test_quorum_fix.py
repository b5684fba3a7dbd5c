"""Regression tests for the general-n quorum fixes (Q501/Q502).

Found by the first whole-repo ``repro lint --quorum`` run: the prepare
certificate chain in ``broadcast.abc`` used ``2t+1``, which only
guarantees pairwise quorum intersection when ``n == 3t+1`` exactly.  At
(n=5, t=1) two 3-member quorums can share a single — possibly Byzantine
— replica, so an equivocating signer could complete *two* conflicting
prepare certificates for the same slot.  The safe general-n quorum is
``n - t``.  (The explorer corpus plants the old threshold back as
``vuln_abc_weak_prepare_quorum`` and witnesses the split delivery.)
"""

from repro.broadcast.abc import (
    AtomicBroadcast,
    AuthPlane,
    _prepare_signing_input,
    derive_request_id,
    request_digest,
)
from repro.broadcast.messages import AbcPrepare, PrepareCertificate

from tests.broadcast.harness import auth_keys, coin_keys, drive, make_lan


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
    return abc, pairs, pubs


def forge_certificate(pairs, pubs, epoch, seq, payload, signers):
    digest = request_digest(epoch, seq, payload)
    data = _prepare_signing_input(epoch, seq, digest)
    signatures = tuple(
        (i, AuthPlane(pairs[i].private, pubs).sign(data)) for i in signers
    )
    return PrepareCertificate(
        epoch=epoch, seq=seq, digest=digest, payload=payload,
        signatures=signatures,
    )


class TestCertificateQuorumAtN5T1:
    """n=5, t=1: n-t = 4 > 2t+1 = 3.  Three signatures must not certify."""

    def test_conflicting_sub_quorum_certificates_rejected(self):
        abc, pairs, pubs = build_one(5, 1)
        # Replica 4 equivocates: it signs both payloads.  {0,1,4} and
        # {2,3,4} are disjoint apart from the equivocator, so under the
        # old 2t+1 threshold *both* conflicting certificates validated.
        cert_a = forge_certificate(pairs, pubs, 0, 0, b"alpha", (0, 1, 4))
        cert_b = forge_certificate(pairs, pubs, 0, 0, b"bravo", (2, 3, 4))
        assert not abc._validate_certificate(cert_a)
        assert not abc._validate_certificate(cert_b)

    def test_full_intersection_quorum_accepted(self):
        abc, pairs, pubs = build_one(5, 1)
        cert = forge_certificate(pairs, pubs, 0, 0, b"alpha", (0, 1, 2, 3))
        assert abc._validate_certificate(cert)

    def test_certificate_truncation_keeps_full_quorum(self):
        # Q502 regression: a certificate formed from a full 5-signer pool
        # must keep n-t = 4 signatures, not truncate to 2t+1 = 3 (which
        # downstream n-t validation would reject).
        abc, pairs, pubs = build_one(5, 1)
        payload = b"alpha"
        digest = request_digest(0, 0, payload)
        data = _prepare_signing_input(0, 0, digest)
        pool = {
            i: AuthPlane(pairs[i].private, pubs).sign(data) for i in range(5)
        }
        abc._payload_by_digest[digest] = (b"r" * 16, payload)
        abc._form_certificate(0, 0, digest, pool)
        cert = abc._certificates[0]
        assert len(cert.signatures) == abc.n - abc.t
        assert abc._validate_certificate(cert)


def prepare_votes(abc, pairs, pubs, payload, signers):
    """Replica ``abc`` (replica 0, the leader) orders ``payload`` into
    slot (0, 0), then receives signed PREPAREs from ``signers``."""
    digest = request_digest(0, 0, payload)
    abc._order_one(derive_request_id(payload), payload)
    data = _prepare_signing_input(0, 0, digest)
    for signer in signers:
        signature = AuthPlane(pairs[signer].private, pubs).sign(data)
        abc.on_message(signer, AbcPrepare(0, 0, digest, signer, signature))
    return (0, 0) in abc._commit_sent


class TestPrepareQuorumAtN5T1:
    """The live prepare quorum, not just certificate validation: the
    leader's own PREPARE plus the listed signers' must reach n - t."""

    def test_three_prepares_do_not_certify(self):
        abc, pairs, pubs = build_one(5, 1)
        assert not prepare_votes(abc, pairs, pubs, b"payload", (1, 2))
        assert 0 not in abc._certificates

    def test_n_minus_t_prepares_certify(self):
        abc, pairs, pubs = build_one(5, 1)
        assert prepare_votes(abc, pairs, pubs, b"payload", (1, 2, 3))
        assert len(abc._certificates[0].signatures) == 4

    def test_quorum_unchanged_at_minimal_cluster(self):
        # At n == 3t+1 the fix is behavior-preserving: n-t == 2t+1.
        abc, pairs, pubs = build_one(4, 1)
        assert not prepare_votes(abc, pairs, pubs, b"payload", (1,))
        abc2, pairs, pubs = build_one(4, 1)
        assert prepare_votes(abc2, pairs, pubs, b"payload", (1, 2))
