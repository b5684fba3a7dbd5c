"""The paper's contribution: the secure replicated name service.

* :mod:`repro.core.keytool` — trusted key generation/distribution (§4.3)
* :mod:`repro.core.replica` — Wrapper + named as one replica (§4.1, §4.2)
* :mod:`repro.core.client` — dig/nsupdate equivalents, pragmatic (§3.4)
  and full (§3.3) client models
* :mod:`repro.core.faults` — corrupted-server behaviours (§4.4)
* :mod:`repro.core.service` — ``NameService``, the whole deployment over
  any transport, and ``ReplicatedNameService``, its simulator transport
* :mod:`repro.core.oracle` — trusted / weak-trusted server specifications
  used to check goals G1/G1' in tests
"""

from repro.core.keytool import Deployment, generate_deployment
from repro.core.replica import ReplicaServer
from repro.core.client import PragmaticClient, FullClient
from repro.core.service import NameService, ReplicatedNameService
from repro.core.faults import CorruptionMode

__all__ = [
    "Deployment",
    "generate_deployment",
    "ReplicaServer",
    "PragmaticClient",
    "FullClient",
    "NameService",
    "ReplicatedNameService",
    "CorruptionMode",
]
