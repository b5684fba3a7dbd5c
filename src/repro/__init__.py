"""Secure Distributed DNS — reproduction of Cachin & Samar (DSN 2004).

A Byzantine-fault-tolerant, intrusion-tolerant name service for a DNS
zone: ``n`` authoritative servers replicated as state machines over an
asynchronous optimistic atomic broadcast, with the DNSSEC zone key
``(n, t)``-shared via Shoup threshold RSA so dynamic updates are signed
online without the key ever existing at a single server.

Public entry points:

* :class:`repro.config.ServiceConfig` — deployment parameters.
* :class:`repro.core.service.NameService` — one complete deployment
  (keys, signed zone, replicas, clients, inspection), over a transport:
  :class:`~repro.core.service.ReplicatedNameService` on the simulator
  (synchronous experiment API) and
  :class:`repro.net.local.AsyncNameService` live on asyncio (awaitable).
* :mod:`repro.crypto` — threshold RSA (dealer, shares, proofs) and the
  BASIC/OptProof/OptTE signing protocols.
* :mod:`repro.dns` — the full DNS substrate (wire format, zones,
  authoritative serving, RFC 2136 updates, DNSSEC, TSIG, resolver).
* :mod:`repro.broadcast` — the optimistic atomic broadcast, with the
  threshold-coin Byzantine agreement its fall-back runs.
* ``python -m repro.cli`` — keygen / signzone / verifyzone / dig /
  nsupdate / bench.
"""

from repro.config import ServiceConfig
from repro.errors import ReproError

__version__ = "1.0.0"
__paper__ = (
    "Christian Cachin and Asad Samar, 'Secure Distributed DNS', "
    "Proc. International Conference on Dependable Systems and Networks "
    "(DSN 2004)"
)

__all__ = ["ServiceConfig", "ReproError", "__version__", "__paper__"]
