"""Key generation and distribution utility."""

import json

import pytest

from repro.config import ServiceConfig
from repro.core.keytool import generate_deployment, load_replica_keys, save_replica_keys
from repro.errors import ConfigError, CryptoError


@pytest.fixture(scope="module")
def deployment():
    return generate_deployment(ServiceConfig(n=4, t=1), zone_bits=384)


@pytest.fixture(scope="module")
def deployment_1024():
    """1024-bit authenticator keys, i.e. three primes each."""
    return generate_deployment(ServiceConfig(n=4, t=1), zone_bits=384, auth_bits=1024)


class TestGeneration:
    def test_share_indices_one_based(self, deployment):
        for i, keys in enumerate(deployment.replicas):
            assert keys.index == i
            assert keys.zone_share.index == i + 1
            assert keys.coin_share.index == i + 1

    def test_zone_and_coin_keys_independent(self, deployment):
        assert deployment.zone_public.modulus != deployment.coin_public.modulus

    def test_auth_keys_distinct(self, deployment):
        moduli = {k.modulus for k in deployment.auth_public}
        assert len(moduli) == 4

    def test_zone_key_record_matches_public(self, deployment):
        record = deployment.zone_key_record
        modulus, exponent = record.rsa_parameters()
        assert modulus == deployment.zone_public.modulus
        assert exponent == deployment.zone_public.exponent

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            ServiceConfig(n=3, t=1)  # violates n > 3t
        with pytest.raises(ConfigError):
            ServiceConfig(n=4, t=-1)
        with pytest.raises(ConfigError):
            ServiceConfig(n=4, t=1, signing_protocol="nope")

    def test_threshold_shares_sign_together(self, deployment):
        public = deployment.zone_public
        shares = [r.zone_share for r in deployment.replicas[:2]]
        message = b"check"
        sig = public.assemble(message, [s.generate_share(message) for s in shares])
        public.verify_signature(message, sig)


class TestFileForm:
    def test_save_load_roundtrip(self, deployment, tmp_path):
        path = tmp_path / "replica2.keys"
        save_replica_keys(deployment.replicas[2], str(path))
        loaded = load_replica_keys(str(path))
        assert loaded.index == 2
        assert loaded.zone_share.secret == deployment.replicas[2].zone_share.secret
        assert loaded.coin_share.public == deployment.coin_public
        assert (
            loaded.auth_key.private.private_exponent
            == deployment.replicas[2].auth_key.private.private_exponent
        )

    def test_loaded_keys_functional(self, deployment, tmp_path):
        path = tmp_path / "replica0.keys"
        save_replica_keys(deployment.replicas[0], str(path))
        loaded = load_replica_keys(str(path))
        sig = loaded.auth_key.private.sign(b"hello")
        loaded.auth_key.public.verify(b"hello", sig)
        share = loaded.zone_share.generate_share_with_proof(b"msg")
        deployment.zone_public.verify_share(b"msg", share)

    def test_three_prime_auth_key_survives_the_file(self, deployment_1024, tmp_path):
        keys = deployment_1024.replicas[1]
        assert len(keys.auth_key.private.primes) == 3
        path = tmp_path / "replica1.keys"
        save_replica_keys(keys, str(path))
        loaded = load_replica_keys(str(path))
        assert loaded.auth_key.private == keys.auth_key.private
        for message in (b"prepare", b"epoch final"):
            assert loaded.auth_key.private.sign(message) == keys.auth_key.private.sign(message)

    def test_file_without_other_primes_is_a_two_prime_key(self, deployment, tmp_path):
        path = tmp_path / "replica3.keys"
        save_replica_keys(deployment.replicas[3], str(path))
        payload = json.loads(path.read_text())
        del payload["auth_other_primes"]
        path.write_text(json.dumps(payload))
        loaded = load_replica_keys(str(path))
        assert loaded.auth_key.private == deployment.replicas[3].auth_key.private
        assert loaded.auth_key.private.other_primes == ()

    def test_truncated_prime_list_is_refused_at_load(self, deployment_1024, tmp_path):
        path = tmp_path / "replica0.keys"
        save_replica_keys(deployment_1024.replicas[0], str(path))
        payload = json.loads(path.read_text())
        payload["auth_other_primes"] = []
        path.write_text(json.dumps(payload))
        with pytest.raises(CryptoError):
            load_replica_keys(str(path))
