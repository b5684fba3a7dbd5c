"""Shared harness: run sans-IO broadcast protocols on the simulator."""

from typing import Dict, List, Optional, Tuple

from repro.broadcast.effects import CancelTimer, Deliver, SetTimer, TimerId
from repro.broadcast.messages import decode_batch, is_batch_payload
from repro.crypto.params import demo_threshold_key
from repro.crypto.rsa import generate_rsa_keypair
from repro.sim.machines import lan_setup
from repro.sim.network import SimNetwork, SimNode


def make_lan(n: int, seed: int = 0) -> SimNetwork:
    return SimNetwork(lan_setup(n), seed=seed, cpu_jitter=0.0)


class Driven:
    """One protocol core on one :class:`SimNode`, as the replica drives it.

    :meth:`apply` carries out an effect list strictly in order
    (``repro.broadcast.effects``).  A plain ``(dest, msg)`` pair — what
    ``BinaryAgreement`` returns — is a send too: ``dest == -1`` goes to
    every other replica, a self-addressed one loops back.

    ``send`` and ``deliver`` are where a test hooks in: replace either
    on the instance to drop, forge or log.  Without a node nothing is
    transmitted and no timer fires by itself: sends collect in ``sent``,
    and :meth:`fire_timers` fires the armed ones in arming order.
    """

    def __init__(self, node: Optional[SimNode], core: object) -> None:
        self.node = node
        self.core = core
        self.delivered: List[bytes] = []
        self.sent: List[Tuple[int, object]] = []
        self.timers: Dict[TimerId, object] = {}

    def apply(self, effects) -> None:
        for effect in effects:
            if isinstance(effect, SetTimer):
                self._set_timer(effect.timer_id, effect.delay)
            elif isinstance(effect, CancelTimer):
                self._cancel_timer(effect.timer_id)
            elif isinstance(effect, Deliver):
                self.deliver(effect.payload)
            else:
                dest, msg = effect
                self.send(dest, msg)

    def on_message(self, sender: int, msg: object) -> None:
        self.apply(self.core.on_message(sender, msg))

    __call__ = on_message  # the node's handler

    def submit(self, payload: bytes) -> None:
        self.apply(self.core.a_broadcast(payload))

    def send(self, dest: int, msg: object) -> None:
        if self.node is None:
            self.sent.append((dest, msg))
        elif dest == -1:
            self.node.broadcast(msg)
        elif dest == self.core.me:
            self.on_message(dest, msg)
        else:
            self.node.send(dest, msg)

    def deliver(self, payload: bytes) -> None:
        self.delivered.append(payload)

    def fire_timers(self) -> None:
        while self.timers:
            timer_id = next(iter(self.timers))
            del self.timers[timer_id]
            self.apply(self.core.on_timer(timer_id))

    def _cancel_timer(self, timer_id: TimerId) -> None:
        handle = self.timers.pop(timer_id, None)
        if handle is not None and self.node is not None:
            handle.cancel()

    def _set_timer(self, timer_id: TimerId, delay: float) -> None:
        self._cancel_timer(timer_id)
        if self.node is None:
            self.timers[timer_id] = delay
            return

        def fire() -> None:
            del self.timers[timer_id]
            self.apply(self.core.on_timer(timer_id))

        self.timers[timer_id] = self.node.schedule_timer(delay, fire)


def drive(node: Optional[SimNode], core: object) -> Driven:
    """Put ``core`` on ``node``: the returned driver becomes the node's
    handler, so received messages go to the core's ``on_message`` and
    its effects are applied in order."""
    driven = Driven(node, core)
    if node is not None:
        node.set_handler(driven)
    return driven


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
