"""Real-time (asyncio) transport.

The protocol stack is sans-IO and the replica/client code talks to its
node through a small interface (``send`` / ``set_handler`` /
``schedule_timer`` / ``charge``).  :mod:`repro.net.local` implements that
interface over asyncio, so the *same* replicas and clients that run on
the deterministic simulator also run concurrently in real wall-clock
time — the in-process equivalent of the paper's TCP deployment.
``AsyncNameService`` is :class:`repro.core.service.NameService` on that
transport: it adds only the client endpoint and the awaitable completion.
"""

from repro.net.local import AsyncNameService, AsyncNetwork, AsyncNode

__all__ = ["AsyncNameService", "AsyncNetwork", "AsyncNode"]
