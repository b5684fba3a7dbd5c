"""Shared harness: run sans-IO broadcast protocols on the simulator."""

from typing import Callable, List, Optional

from repro.broadcast.messages import decode_batch, is_batch_payload
from repro.crypto.params import demo_threshold_key
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.machines import lan_setup
from repro.sim.network import SimNetwork


def make_lan(n: int, seed: int = 0) -> SimNetwork:
    return SimNetwork(lan_setup(n), seed=seed, cpu_jitter=0.0)


class OutgoingRouter:
    """Adapts list-of-(dest, msg) protocol outputs to SimNode sends."""

    def __init__(self, net: SimNetwork, me: int, n: int) -> None:
        self.net = net
        self.me = me
        self.n = n
        self.loopback: Optional[Callable] = None

    def send_all(self, outs) -> None:
        for dest, msg in outs:
            if dest == -1:
                for peer in range(self.n):
                    if peer != self.me:
                        self.net.node(self.me).send(peer, msg)
                # Sans-IO components self-process broadcast internally.
            elif dest == self.me:
                if self.loopback is not None:
                    self.loopback(self.me, msg)
            else:
                self.net.node(self.me).send(dest, msg)


class ManualTimers:
    """A ``schedule(delay, thunk)`` whose timers fire only when the test
    calls :meth:`fire_all` (so never, if it does not)."""

    class _Handle:
        def cancel(self) -> None:
            pass

    def __init__(self) -> None:
        self.armed: List[Callable[[], None]] = []

    def __call__(self, delay: float, thunk: Callable[[], None]) -> "_Handle":
        self.armed.append(thunk)
        return self._Handle()

    def fire_all(self) -> None:
        while self.armed:
            self.armed.pop(0)()


def coin_keys(n: int, t: int):
    _, shares = demo_threshold_key(n, t, 384)
    return shares


def auth_keys(n: int, bits: int = 512):
    """``bits`` >= 1024 gives three-prime keys, as deployments use."""
    pairs = [generate_rsa_keypair(bits) for _ in range(n)]
    return pairs, [p.public for p in pairs]


def unwrap(payloads):
    """Flatten delivered ABC payloads, decoding (nested) batch frames."""
    flat = []
    for payload in payloads:
        if is_batch_payload(payload):
            flat.extend(unwrap(decode_batch(payload)))
        else:
            flat.append(payload)
    return flat
