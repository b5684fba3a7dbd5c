"""Key recovery from t+1 Shoup shares: the trusted setup's signer.

``t+1`` shares determine the RSA key, so the setup step, which holds all
``n``, signs the initial zone by CRT instead of assembling signature
shares.  The signatures must be the very bytes assembly would produce,
and a bad share set must fail loudly rather than yield a wrong key.
"""

import pytest

from repro.core.faults import tampered_zone_share
from repro.crypto.params import safe_prime_pair_at
from repro.crypto.shoup import (
    ThresholdKeyShare,
    deal_threshold_key,
    recover_private_key,
)
from repro.errors import KeyGenerationError

MESSAGES = (b"www.example.com. 3600 IN A 192.0.2.80", b"", b"\x00" * 300)


@pytest.mark.parametrize(
    "bits,n,t", [(512, 4, 1), (512, 7, 2), (512, 10, 3), (1024, 4, 1)]
)
def test_recovered_key_signs_like_assembly(bits, n, t):
    p, q = safe_prime_pair_at(bits // 2, 0)
    public, shares = deal_threshold_key(n, t, bits=bits, prime_p=p, prime_q=q)
    for chosen in (shares[: t + 1], shares[-(t + 1):]):
        key = recover_private_key(public, chosen)
        assert {key.prime_p, key.prime_q} == {p, q}
        assert key.public_key == public.rsa
        for message in MESSAGES:
            assembled = public.assemble(
                message, [share.generate_share(message) for share in chosen]
            )
            assert key.sign(message) == assembled


def test_fewer_than_t_plus_1_shares_rejected(threshold_7_2):
    public, shares = threshold_7_2
    with pytest.raises(KeyGenerationError, match="need 3 shares"):
        recover_private_key(public, shares[:2])
    with pytest.raises(KeyGenerationError):
        recover_private_key(public, [])


def test_duplicate_indices_rejected(threshold_4_1):
    public, shares = threshold_4_1
    with pytest.raises(KeyGenerationError, match="duplicate"):
        recover_private_key(public, [shares[0], shares[0]])
    # A repeat beyond the first t+1 is still a malformed set.
    with pytest.raises(KeyGenerationError, match="duplicate"):
        recover_private_key(public, [shares[0], shares[1], shares[1]])


def test_out_of_range_index_rejected(threshold_4_1):
    public, shares = threshold_4_1
    stray = ThresholdKeyShare(index=5, secret=shares[1].secret, public=public)
    with pytest.raises(KeyGenerationError, match="out of range"):
        recover_private_key(public, [shares[0], stray])


@pytest.mark.parametrize("position", [0, 1])
def test_tampered_share_rejected(threshold_4_1, position):
    public, shares = threshold_4_1
    chosen = list(shares[:2])
    chosen[position] = tampered_zone_share(chosen[position])
    with pytest.raises(KeyGenerationError, match="do not determine the key"):
        recover_private_key(public, chosen)


def test_tampered_share_rejected_at_paper_cluster(threshold_7_2):
    public, shares = threshold_7_2
    chosen = [shares[4], tampered_zone_share(shares[5]), shares[6]]
    with pytest.raises(KeyGenerationError):
        recover_private_key(public, chosen)


def test_key_of_another_sharing_is_not_returned(threshold_4_1, threshold_4_1_512):
    """Shares of one key read against another key's public parameters
    give no factor of that modulus, so recovery fails."""
    public, _ = threshold_4_1
    _, other_shares = threshold_4_1_512
    with pytest.raises(KeyGenerationError):
        recover_private_key(public, other_shares[:2])
