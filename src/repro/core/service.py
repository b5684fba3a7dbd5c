"""One replicated-name-service deployment, whatever carries its messages.

:class:`NameService` owns everything about the paper's Wrapper + ``named``
deployment (§4.1–4.2) that does not depend on the transport: keys, the
signed initial zone, the crypto plane, replicas, clients, fault injection,
the ``query`` / ``add_record`` / ``delete_name`` experiment API and the
inspection the G1/G2/G3 checkers read.  A transport subclass supplies two
things: a client endpoint on its network, and how an issued request
becomes a completed operation.

:class:`ReplicatedNameService` is the simulator transport: each call
drives the simulator until the client accepts a response and returns the
completed operation with its simulated latency.  The benchmark harness,
examples, and integration tests sit on top of it;
:class:`repro.net.local.AsyncNameService` is the wall-clock transport.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Generic, List, Optional, Sequence, Tuple, TypeVar

from repro.config import ServiceConfig
from repro.core.client import CompletedOp, FullClient, PragmaticClient
from repro.core.faults import CorruptionMode
from repro.core.keytool import Deployment, generate_deployment
from repro.core.replica import ReplicaServer
from repro.crypto.costmodel import CostModel
from repro.crypto.executor import (
    EXECUTOR_POOL,
    CryptoExecutor,
    CryptoWorkerPool,
    PoolExecutor,
)
from repro.crypto.shoup import ThresholdKeyShare, ThresholdPublicKey
from repro.dns import constants as c
from repro.dns import dnssec
from repro.dns.name import Name
from repro.dns.rdata import rdata_from_text
from repro.dns.zonefile import parse_zone_text
from repro.errors import ConfigError, TimeoutError_
from repro.sim.machines import (
    MachineSpec,
    Topology,
    lan_setup,
    paper_setup,
)
from repro.sim.network import SimNetwork

# What a transport turns an issued request into: the completed operation
# itself (simulator) or an awaitable for it (asyncio).
R = TypeVar("R")
Issue = Callable[[Callable[[CompletedOp], None]], Any]

# The paper's client machine: a host on the Zurich LAN.
CLIENT_MACHINE = MachineSpec(
    "client", "Zurich", "Linux 2.2.x", "P II", 266, "IBM 1.4.1"
)

DEFAULT_ZONE = """
$ORIGIN example.com.
$TTL 3600
@   IN SOA ns1.example.com. admin.example.com. ( 100 7200 900 604800 300 )
    IN NS ns1
    IN NS ns2
ns1 IN A 192.0.2.1
ns2 IN A 192.0.2.2
www IN A 192.0.2.80
"""


def local_threshold_signer(
    public: ThresholdPublicKey, shares: Sequence[ThresholdKeyShare]
) -> Callable[[bytes], bytes]:
    """A signing callable combining ``t+1`` shares in one process.

    Used by the trusted setup step (§4.3's "special command ... to sign
    the zone data using the distributed key") and by tests as the oracle
    for what the distributed protocol must produce.
    """

    chosen = list(shares[: public.t + 1])
    if len(chosen) < public.t + 1:
        raise ConfigError("need t+1 shares to sign")

    def signer(data: bytes) -> bytes:
        sig_shares = [share.generate_share(data) for share in chosen]
        signature = public.assemble(data, sig_shares)
        public.verify_signature(data, signature)
        return signature

    return signer


def build_crypto_plane(
    config: ServiceConfig,
    deployment: Deployment,
    costs: Optional[CostModel] = None,
) -> Tuple[
    Optional[CryptoWorkerPool],
    List[Optional[CryptoExecutor]],
    Optional[CryptoExecutor],
]:
    """Construct the deployment's crypto execution plane, if pooled.

    Returns ``(pool, replica_executors, client_executor)``.  With the
    (default) serial plane everything is ``None`` and each component falls
    back to its own inline :class:`~repro.crypto.executor.SerialExecutor`.
    With the pool plane, one shared :class:`CryptoWorkerPool` serves a
    per-owner :class:`PoolExecutor` for every replica plus one for the
    client side; all key material registers here, *before* the first job,
    so pool workers deserialize it exactly once at warmup.
    """
    if config.crypto_executor != EXECUTOR_POOL:
        return None, [None] * config.n, None
    pool = CryptoWorkerPool(config.crypto_workers)
    executors: List[Optional[CryptoExecutor]] = []
    for i in range(config.n):
        keys = deployment.replicas[i]
        owner = f"replica{i}"
        pool.register(
            owner, key_share=keys.zone_share, auth_key=keys.auth_key.private
        )
        executors.append(
            PoolExecutor(
                pool,
                owner,
                key_share=keys.zone_share,
                auth_key=keys.auth_key.private,
                costs=costs,
            )
        )
    pool.register("client")
    client_executor = PoolExecutor(pool, "client", costs=costs)
    return pool, executors, client_executor


class NameService(Generic[R]):
    """A complete deployment of the secure replicated zone over ``net``.

    ``net`` is the transport's network object, already holding one node
    per replica.  Subclasses implement :meth:`_add_client_node` and
    :meth:`_await_op`; everything else is shared.
    """

    def __init__(
        self,
        config: ServiceConfig,
        net: Any,
        zone_text: str = DEFAULT_ZONE,
        client_model: str = "pragmatic",
        deployment: Optional[Deployment] = None,
        gateway: int = 0,
        costs: Optional[CostModel] = None,
        seed: int = 0,
        verify_signatures: bool = True,
        id_rng: Optional[random.Random] = None,
    ) -> None:
        self.config = config
        self.net = net
        self.costs = costs if costs is not None else CostModel()
        self.deployment = (
            deployment if deployment is not None else generate_deployment(config)
        )

        # Build and (if configured) sign the initial zone — the trusted
        # setup step: all replicas start from the same signed zone file.
        base_zone = parse_zone_text(zone_text)
        self.zone_origin = base_zone.origin
        if config.signed_zone:
            key_record = self.deployment.zone_key_record
            base_zone.add_rdata(base_zone.origin, c.TYPE_KEY, 3600, key_record)
            signer = local_threshold_signer(
                self.deployment.zone_public,
                [r.zone_share for r in self.deployment.replicas],
            )
            dnssec.sign_zone_locally(base_zone, key_record, signer)

        # Real-time runs are where the pool plane actually pays off: the
        # worker processes do the modexps while the event loop keeps
        # pumping messages.
        self._pool, replica_executors, self._client_executor = build_crypto_plane(
            config, self.deployment, costs=self.costs
        )
        self.replicas: List[ReplicaServer] = [
            ReplicaServer(
                index=i,
                deployment=self.deployment,
                zone=base_zone.copy(),
                node=net.node(i),
                costs=self.costs,
                seed=seed,
                executor=replica_executors[i],
            )
            for i in range(config.n)
        ]

        self._verify_signatures = verify_signatures
        self._id_rng = id_rng
        self.client = self._make_client(client_model, gateway)

    # ------------------------------------------------------------------
    # what a transport supplies
    # ------------------------------------------------------------------

    def _add_client_node(self, gateway: int) -> Any:
        """A fresh network endpoint for a client talking to ``gateway``."""
        raise NotImplementedError

    def _await_op(self, issue: Issue) -> R:
        """Call ``issue(callback)`` and produce the operation the client
        hands to ``callback`` — by whatever drives this transport."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # clients and lifecycle
    # ------------------------------------------------------------------

    def _make_client(self, model: str, gateway: int) -> Any:
        if model not in ("pragmatic", "full"):
            raise ConfigError(f"unknown client model {model!r}")
        client_args = dict(
            node=self._add_client_node(gateway),
            config=self.config,
            replica_ids=list(range(self.config.n)),
            zone_origin=self.zone_origin,
            zone_key=self.deployment.zone_key_record if self.config.signed_zone else None,
            tsig_key=self.deployment.tsig_key if self.config.require_tsig else None,
            costs=self.costs,
            verify_signatures=self._verify_signatures,
            id_rng=self._id_rng,
            executor=self._client_executor,
        )
        if model == "pragmatic":
            return PragmaticClient(gateway=gateway, **client_args)
        return FullClient(**client_args)

    def add_client(self, gateway: int = 0) -> PragmaticClient:
        """Add another pragmatic client on its own endpoint.

        Throughput experiments need several concurrent request sources so
        a single client's per-request overhead does not serialize the
        whole workload (each simulated client node charges its own CPU
        time), and concurrent clients are what fill a gateway's
        :class:`BatchQueue` before its flush timer fires — a single
        request/response client never has two payloads in flight at once.
        """
        return self._make_client("pragmatic", gateway)

    def close(self) -> None:
        """Shut down the shared crypto worker pool, if one was started."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def corrupt(self, replica: int, mode: CorruptionMode) -> None:
        self.replicas[replica].corrupt(mode)

    # ------------------------------------------------------------------
    # experiment API
    # ------------------------------------------------------------------

    def query(
        self,
        name: str | Name,
        rtype: int = c.TYPE_A,
        client: Optional[PragmaticClient] = None,
    ) -> R:
        """dig-style read, completed when the client accepts a response."""
        qname = Name.from_text(name) if isinstance(name, str) else name
        issuer = client if client is not None else self.client
        return self._await_op(lambda cb: issuer.query(qname, rtype, cb))

    def add_record(
        self, name: str | Name, rtype: int, ttl: int, rdata_text: str
    ) -> R:
        """Raw update: add one record (no preceding read)."""
        owner = Name.from_text(name) if isinstance(name, str) else name
        rdata = rdata_from_text(rtype, rdata_text.split(), self.zone_origin)
        return self._await_op(
            lambda cb: self.client.add_record(owner, rtype, ttl, rdata, cb)
        )

    def delete_name(self, name: str | Name) -> R:
        owner = Name.from_text(name) if isinstance(name, str) else name
        return self._await_op(lambda cb: self.client.delete_name(owner, cb))

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def honest_replicas(self) -> List[ReplicaServer]:
        return [r for r in self.replicas if not r.fault.is_corrupted]

    def zone_digests(self) -> List[bytes]:
        """State fingerprints of all honest replicas (must agree)."""
        return [r.zone.digest() for r in self.honest_replicas()]

    def states_consistent(self) -> bool:
        return len(set(self.zone_digests())) == 1

    def verify_all_zones(self) -> int:
        """DNSSEC-verify every honest replica's zone; returns #signatures."""
        return sum(
            dnssec.verify_zone(replica.zone, self.deployment.zone_key_record)
            for replica in self.honest_replicas()
        )

    def total_signing_rounds(self) -> int:
        """Distributed signing rounds started across honest replicas.

        With the signed-answer cache, repeated identical queries must not
        start new rounds — benchmarks and tests assert on this counter.
        """
        return sum(r.signing_rounds for r in self.honest_replicas())

    def render_cache_stats(self) -> Dict[str, int]:
        """Summed canonical-render-cache stats across honest replicas."""
        totals: Dict[str, int] = {}
        for replica in self.honest_replicas():
            for key, value in replica.zone.render.stats.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def cancelled_trials(self) -> int:
        """OptTE subset trials cancelled by the lane-cancel protocol."""
        total = 0
        for replica in self.honest_replicas():
            if replica.coordinator.executor is not None:
                total += replica.coordinator.executor.stats["cancelled_trials"]
        return total


class ReplicatedNameService(NameService[CompletedOp]):
    """The deployment on the discrete-event simulator (simulated time)."""

    def __init__(
        self,
        config: ServiceConfig,
        topology: Optional[Topology] = None,
        zone_text: str = DEFAULT_ZONE,
        client_model: str = "pragmatic",
        costs: Optional[CostModel] = None,
        deployment: Optional[Deployment] = None,
        gateway: int = 0,
        verify_signatures: bool = True,
        seed: int = 0,
    ) -> None:
        if topology is None:
            topology = lan_setup(config.n) if config.n <= 4 else paper_setup(config.n)
        if len(topology) != config.n:
            raise ConfigError(
                f"topology has {len(topology)} machines but config.n={config.n}"
            )
        self.topology = topology
        net = SimNetwork(topology, costs=costs, seed=seed)
        super().__init__(
            config,
            net,
            zone_text=zone_text,
            client_model=client_model,
            deployment=deployment,
            gateway=gateway,
            costs=net.costs,
            seed=seed,
            verify_signatures=verify_signatures,
            # Shared by all clients of this service: deterministic DNS message
            # ids make every request wire — and everything derived from it —
            # a pure function of the seed, so chaos runs replay exactly.
            id_rng=random.Random((seed << 16) ^ 0x1D5),
        )

    def _add_client_node(self, gateway: int) -> Any:
        return self.net.add_node(CLIENT_MACHINE, colocated_with=gateway)

    def _await_op(self, issue: Issue, limit: float = 600.0) -> CompletedOp:
        """Drive the simulation until the client's callback fires."""
        box: List[CompletedOp] = []
        issue(box.append)
        deadline = self.net.sim.now + limit
        self.net.sim.run(until=deadline, condition=lambda: bool(box))
        if not box:
            raise TimeoutError_(
                f"operation did not complete within {limit} simulated seconds"
            )
        return box[0]

    def corrupt_paper_style(self, k: int) -> None:
        """The paper's corruption placement (§5.1): with one corruption, a
        Zurich server; with two, the Zurich server and the Austin one."""
        if k >= 1:
            zurich = self._first_at("Zurich", exclude=(0,))
            self.replicas[zurich].corrupt(CorruptionMode.BAD_SHARES)
        if k >= 2:
            austin = self._first_at("Austin")
            self.replicas[austin].corrupt(CorruptionMode.BAD_SHARES)
        if k >= 3:
            raise ConfigError("the paper corrupts at most two servers")

    def _first_at(self, location: str, exclude: Tuple[int, ...] = ()) -> int:
        for i in range(self.config.n):
            if i in exclude:
                continue
            if self.topology.machine(i).location == location:
                return i
        raise ConfigError(f"no replica at {location}")

    def nsupdate_add(
        self, name: str | Name, rtype: int, ttl: int, rdata_text: str
    ) -> Tuple[CompletedOp, CompletedOp, float]:
        """nsupdate semantics: a read precedes the add (§5.2).

        Returns ``(read_op, add_op, total_latency)`` — Table 2's "Add"
        numbers correspond to ``total_latency``.
        """
        read_op = self.query(self.zone_origin, c.TYPE_SOA)
        add_op = self.add_record(name, rtype, ttl, rdata_text)
        return read_op, add_op, read_op.latency + add_op.latency

    def nsupdate_delete(self, name: str | Name) -> Tuple[CompletedOp, CompletedOp, float]:
        """nsupdate semantics: a read precedes the delete."""
        read_op = self.query(self.zone_origin, c.TYPE_SOA)
        delete_op = self.delete_name(name)
        return read_op, delete_op, read_op.latency + delete_op.latency

    def settle(self, limit: float = 600.0) -> None:
        """Drain in-flight work: run the simulation until quiescent.

        The experiment API returns as soon as the *client* accepts a
        response; replicas that lag (slower machines finishing their last
        signature) settle here before state comparisons.
        """
        self.net.sim.run(until=self.net.sim.now + limit)

    def zone_digests(self) -> List[bytes]:
        self.settle()
        return super().zone_digests()

    def verify_all_zones(self) -> int:
        self.settle()
        return super().verify_all_zones()
