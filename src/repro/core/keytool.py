"""Key generation and distribution — SINTRA's trusted initialization (§4.3).

A trusted entity runs this once per deployment.  It produces, for each
replica: a share of the zone's threshold signature key, a share of the
coin key used by the agreement protocol, an authentication key pair for
the broadcast layer, and the zone's apex ``KEY`` record.  The private
file of each server is then shipped over a secure channel (the paper used
SSH; here the deployment object is handed to the service builder, and
:func:`save_replica_keys` / :func:`load_replica_keys` provide the file
form, one file per replica).
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Tuple

from repro.config import ServiceConfig
from repro.crypto.params import demo_threshold_key
from repro.crypto.rsa import RsaKeyPair, RsaPublicKey, generate_rsa_keypair
from repro.crypto.shoup import ThresholdKeyShare, ThresholdPublicKey, deal_threshold_key
from repro.dns.name import Name
from repro.dns.rdata import KEY
from repro.dns.tsig import TsigKey


@dataclass(frozen=True)
class ReplicaKeys:
    """The private material shipped to one replica."""

    index: int                      # replica id, 0-based
    zone_share: ThresholdKeyShare   # share of sk_zone (1-based share index)
    coin_share: ThresholdKeyShare   # share of the agreement coin key
    auth_key: RsaKeyPair            # broadcast-layer authentication key


@dataclass(frozen=True)
class Deployment:
    """Everything the service needs, public and private."""

    config: ServiceConfig
    zone_public: ThresholdPublicKey
    coin_public: ThresholdPublicKey
    auth_public: Tuple[RsaPublicKey, ...]
    replicas: Tuple[ReplicaKeys, ...]
    tsig_key: TsigKey

    @property
    def zone_key_record(self) -> KEY:
        """The apex KEY record carrying the zone's public key."""
        return KEY.for_rsa(
            self.zone_public.modulus, self.zone_public.exponent
        )


def generate_deployment(
    config: ServiceConfig,
    zone_bits: int = 512,
    auth_bits: int = 512,
    use_demo_primes: bool = True,
    tsig_secret: bytes = b"repro-update-key-secret",
) -> Deployment:
    """Generate all key material for an ``(n, t)`` deployment.

    ``use_demo_primes`` selects the pre-generated safe primes (fast,
    demo-grade); pass ``False`` to generate fresh safe primes (slow in
    pure Python but fully independent).
    """
    n, t = config.n, config.t
    if use_demo_primes:
        zone_public, zone_shares = demo_threshold_key(n, t, zone_bits)
        coin_public, coin_shares = demo_threshold_key(n, t, zone_bits)
    else:
        zone_public, zone_shares = deal_threshold_key(n, t, bits=zone_bits)
        coin_public, coin_shares = deal_threshold_key(n, t, bits=zone_bits)
    auth_keys = [generate_rsa_keypair(auth_bits) for _ in range(n)]
    replicas = tuple(
        ReplicaKeys(
            index=i,
            zone_share=zone_shares[i],
            coin_share=coin_shares[i],
            auth_key=auth_keys[i],
        )
        for i in range(n)
    )
    tsig_key = TsigKey(
        name=Name.from_text("update-key.repro."), secret=tsig_secret
    )
    return Deployment(
        config=config,
        zone_public=zone_public,
        coin_public=coin_public,
        auth_public=tuple(k.public for k in auth_keys),
        replicas=replicas,
        tsig_key=tsig_key,
    )


# --------------------------------------------------------------------------
# File form (the "private key file transported over a secure channel")
# --------------------------------------------------------------------------


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode()


def _unb64(text: str) -> bytes:
    return base64.b64decode(text)


def save_replica_keys(keys: ReplicaKeys, path: str) -> None:
    """Write one replica's private key file (as the init utility would)."""
    payload = {
        "index": keys.index,
        "zone_share": _b64(keys.zone_share.to_bytes()),
        "coin_share": _b64(keys.coin_share.to_bytes()),
        "auth_modulus": str(keys.auth_key.private.modulus),
        "auth_exponent": str(keys.auth_key.private.exponent),
        "auth_private_exponent": str(keys.auth_key.private.private_exponent),
        "auth_prime_p": str(keys.auth_key.private.prime_p),
        "auth_prime_q": str(keys.auth_key.private.prime_q),
        "auth_other_primes": [str(r) for r in keys.auth_key.private.other_primes],
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)


def load_replica_keys(path: str) -> ReplicaKeys:
    """Read a replica private key file written by :func:`save_replica_keys`.

    A file without ``auth_other_primes`` holds a two-prime key.
    """
    from repro.crypto.rsa import RsaPrivateKey

    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    private = RsaPrivateKey(
        modulus=int(payload["auth_modulus"]),
        exponent=int(payload["auth_exponent"]),
        private_exponent=int(payload["auth_private_exponent"]),
        prime_p=int(payload["auth_prime_p"]),
        prime_q=int(payload["auth_prime_q"]),
        other_primes=tuple(int(r) for r in payload.get("auth_other_primes", ())),
    )
    return ReplicaKeys(
        index=payload["index"],
        zone_share=ThresholdKeyShare.from_bytes(_unb64(payload["zone_share"])),
        coin_share=ThresholdKeyShare.from_bytes(_unb64(payload["coin_share"])),
        auth_key=RsaKeyPair(private=private),
    )
