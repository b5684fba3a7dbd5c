"""In-process asyncio transport: the replicated service in real time.

:class:`AsyncNode` implements the same node interface as
:class:`repro.sim.network.SimNode` (``send``, ``set_handler``,
``schedule_timer``, ``charge``, ``now``, ``dropped``), but messages flow
through asyncio queues and timers are real.  ``charge`` is a no-op —
wall-clock CPU time is genuinely spent by the Python crypto.

Delivery is immediate (``call_soon``); WAN latency is the simulator's job.

This module deliberately contains no protocol or deployment logic:
:class:`AsyncNameService` is :class:`repro.core.service.NameService` — the
same replicas, clients and inspection API the simulator uses — plus the two
things a transport supplies: a bus endpoint per client and a future awaited
on the loop per request.
"""

from __future__ import annotations

import asyncio
import copy
from typing import Any, Awaitable, Callable, List, Optional

from repro.config import ServiceConfig
from repro.core.client import CompletedOp
from repro.core.keytool import Deployment
from repro.core.service import DEFAULT_ZONE, Issue, NameService
from repro.crypto.costmodel import CostModel
from repro.errors import ConfigError

Handler = Callable[[int, Any], None]


class _TimerHandle:
    """Cancellable wrapper matching the simulator's event handle API."""

    def __init__(self, handle: asyncio.TimerHandle) -> None:
        self._handle = handle

    def cancel(self) -> None:
        self._handle.cancel()


class AsyncNode:
    """One endpoint on the asyncio bus (same interface as ``SimNode``)."""

    def __init__(self, node_id: int, network: "AsyncNetwork") -> None:
        self.node_id = node_id
        self.network = network
        self.handler: Optional[Handler] = None
        self.dropped = False

    # -- node interface used by replicas/clients -----------------------------

    def set_handler(self, handler: Handler) -> None:
        self.handler = handler

    @property
    def now(self) -> float:
        return self.network.loop.time()

    def charge(self, reference_seconds: float) -> None:
        """No-op: real CPU time is spent by the actual computation."""

    def charge_ops(self, ops, costs: CostModel) -> None:
        """No-op (see :meth:`charge`)."""

    def send(self, dest: int, payload: Any) -> None:
        self.network.transmit(self.node_id, dest, payload)

    def schedule_timer(self, delay: float, thunk: Callable[[], None]) -> _TimerHandle:
        return _TimerHandle(self.network.loop.call_later(delay, thunk))

    def run_local(self, delay: float, thunk: Callable[[], None]) -> None:
        self.network.loop.call_later(delay, thunk)

    # -- delivery --------------------------------------------------------------

    def _deliver(self, sender: int, payload: Any) -> None:
        if self.dropped or self.handler is None:
            return
        self.handler(sender, payload)


class AsyncNetwork:
    """An in-process message bus."""

    def __init__(self, node_count: int) -> None:
        try:
            self.loop = asyncio.get_running_loop()
        except RuntimeError as exc:
            raise ConfigError(
                "AsyncNetwork must be created inside a running event loop"
            ) from exc
        self.nodes: List[AsyncNode] = [AsyncNode(i, self) for i in range(node_count)]
        self.messages_sent = 0

    def node(self, node_id: int) -> AsyncNode:
        return self.nodes[node_id]

    def add_node(self) -> AsyncNode:
        node = AsyncNode(len(self.nodes), self)
        self.nodes.append(node)
        return node

    def transmit(self, src: int, dest: int, payload: Any) -> None:
        if not 0 <= dest < len(self.nodes):
            raise ConfigError(f"no node {dest}")
        self.messages_sent += 1
        # Deep-copy so peers cannot share mutable state through "the wire".
        payload = copy.deepcopy(payload)
        self.loop.call_soon(self.nodes[dest]._deliver, src, payload)


class AsyncNameService(NameService[Awaitable[CompletedOp]]):
    """A live, wall-clock deployment of the replicated name service.

    Usage (inside a coroutine)::

        service = AsyncNameService(ServiceConfig(n=4, t=1))
        op = await service.query("www.example.com.", c.TYPE_A)
        op = await service.add_record("x.example.com.", c.TYPE_A, 300, "192.0.2.9")
    """

    def __init__(
        self,
        config: ServiceConfig,
        zone_text: Optional[str] = None,
        client_model: str = "pragmatic",
        deployment: Optional[Deployment] = None,
        gateway: int = 0,
    ) -> None:
        super().__init__(
            config,
            AsyncNetwork(config.n),
            zone_text=zone_text or DEFAULT_ZONE,
            client_model=client_model,
            deployment=deployment,
            gateway=gateway,
        )

    def _add_client_node(self, gateway: int) -> AsyncNode:
        return self.net.add_node()

    async def _await_op(self, issue: Issue, timeout: float = 60.0) -> CompletedOp:
        """Await the client's callback on the running loop."""
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        issue(lambda op: future.done() or future.set_result(op))
        return await asyncio.wait_for(future, timeout=timeout)

    async def settle(self, duration: float = 0.2) -> None:
        """Give in-flight replica work time to finish."""
        await asyncio.sleep(duration)
