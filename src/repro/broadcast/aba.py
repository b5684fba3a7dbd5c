"""Randomized asynchronous binary Byzantine agreement.

The fall-back path of the optimistic atomic broadcast uses binary
agreement to decide on epoch changes (§3.3: the protocol "invokes a
Byzantine agreement protocol to establish a new leader").  SINTRA used
the Cachin–Kursawe–Shoup protocol; we implement the same family —
round-based, coin-terminating agreement with ``n > 3t`` in a fully
asynchronous network (the structure below follows Mostéfaoui–Moumen–
Raynal's presentation, with the threshold-signature coin of CKS).

Round structure (for round ``r`` with estimate ``est``):

1. *Binary-value broadcast*: send ``EST(r, est)``; relay any value seen
   from ``t+1`` distinct replicas; accept into ``bin_values`` any value
   seen from ``2t+1``.
2. Once ``bin_values`` is non-empty, send ``AUX(r, w)`` for one accepted
   value; wait for ``n - t`` AUX messages whose values are all accepted.
3. If those carry a single value ``b``: if ``b`` equals the common coin
   for ``r``, decide ``b``; else set ``est = b``.  If both values
   appear, set ``est`` to the coin.  Proceed to round ``r + 1``.

A decided replica broadcasts ``DECIDED(b)``; ``t+1`` matching DECIDED
messages are also grounds to decide, which lets lagging replicas finish
without running extra rounds.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.broadcast.coin import CommonCoin
from repro.broadcast.messages import AbaAux, AbaDecided, AbaEst, CoinShare
from repro.errors import ConfigError

Outgoing = Tuple[int, object]
BROADCAST = -1

#: EST/AUX messages and coin shares for rounds this far beyond the local
#: round are ignored: honest replicas stay within one round of each
#: other, so per-round state keyed by an attacker-chosen round number
#: must not grow unboundedly.
MAX_ROUND_AHEAD = 64


class AbaInstance:
    """One agreement instance (one ``sid``) at one replica."""

    def __init__(self, n: int, t: int, me: int, sid: str, coin: CommonCoin) -> None:
        self.n = n
        self.t = t
        self.me = me
        self.sid = sid
        self.coin = coin
        self.round = 0
        self.estimate: Optional[int] = None
        self.decision: Optional[int] = None
        # Per round: EST senders by value, relayed flags, accepted values.
        self._est_senders: Dict[Tuple[int, int], Set[int]] = {}
        self._est_sent: Set[Tuple[int, int]] = set()
        self._bin_values: Dict[int, Set[int]] = {}
        self._aux_senders: Dict[int, Dict[int, int]] = {}  # round -> sender -> value
        self._aux_sent: Set[int] = set()
        self._coin_requested: Set[int] = set()
        self._decided_senders: Dict[int, Set[int]] = {0: set(), 1: set()}
        self._sent_decided = False
        self._round_done: Set[int] = set()

    # -- API -----------------------------------------------------------------

    def propose(self, value: int) -> List[Outgoing]:
        if value not in (0, 1):
            raise ConfigError("binary agreement takes 0 or 1")
        if self.estimate is not None:
            return []
        self.estimate = value
        return self._send_est(self.round, value)

    def on_message(self, sender: int, msg: object) -> List[Outgoing]:
        if self.decision is not None and not isinstance(msg, AbaDecided):
            # Keep helping with EST relays so others can finish.
            if isinstance(msg, AbaEst):
                return self._on_est(sender, msg)
            return []
        if isinstance(msg, AbaEst):
            return self._on_est(sender, msg)
        if isinstance(msg, AbaAux):
            return self._on_aux(sender, msg)
        if isinstance(msg, AbaDecided):
            return self._on_decided(sender, msg)
        return []

    def on_coin(self, round_: int, value: int) -> List[Outgoing]:
        """Called by the runtime when the coin for ``round_`` is revealed."""
        return self._try_finish_round(round_)

    # -- EST / binary-value broadcast ---------------------------------------------

    def _send_est(self, round_: int, value: int) -> List[Outgoing]:
        key = (round_, value)
        if key in self._est_sent:
            return []
        self._est_sent.add(key)
        msg = AbaEst(self.sid, round_, value)
        out: List[Outgoing] = [(BROADCAST, msg)]
        out.extend(self._on_est(self.me, msg))
        return out

    def _on_est(self, sender: int, msg: AbaEst) -> List[Outgoing]:
        if msg.value not in (0, 1):
            return []
        if msg.round > self.round + MAX_ROUND_AHEAD:
            return []
        key = (msg.round, msg.value)
        senders = self._est_senders.setdefault(key, set())
        if sender in senders:
            return []
        senders.add(sender)
        out: List[Outgoing] = []
        if len(senders) >= self.t + 1 and key not in self._est_sent:
            out.extend(self._send_est(msg.round, msg.value))
        if len(senders) >= 2 * self.t + 1:
            accepted = self._bin_values.setdefault(msg.round, set())
            if msg.value not in accepted:
                accepted.add(msg.value)
                out.extend(self._maybe_send_aux(msg.round))
                out.extend(self._try_finish_round(msg.round))
        return out

    # -- AUX ------------------------------------------------------------------------

    def _maybe_send_aux(self, round_: int) -> List[Outgoing]:
        if round_ in self._aux_sent or round_ != self.round:
            return []
        accepted = self._bin_values.get(round_, set())
        if not accepted:
            return []
        self._aux_sent.add(round_)
        value = min(accepted)  # deterministic pick among accepted values
        msg = AbaAux(self.sid, round_, value)
        out: List[Outgoing] = [(BROADCAST, msg)]
        out.extend(self._on_aux(self.me, msg))
        return out

    def _on_aux(self, sender: int, msg: AbaAux) -> List[Outgoing]:
        if msg.value not in (0, 1):
            return []
        if msg.round > self.round + MAX_ROUND_AHEAD:
            return []
        per_round = self._aux_senders.setdefault(msg.round, {})
        if sender in per_round:
            return []
        per_round[sender] = msg.value
        return self._try_finish_round(msg.round)

    # -- round completion ---------------------------------------------------------------

    def _try_finish_round(self, round_: int) -> List[Outgoing]:
        if round_ != self.round or self.decision is not None:
            return []
        if round_ in self._round_done:
            return []
        accepted = self._bin_values.get(round_, set())
        per_round = self._aux_senders.get(round_, {})
        valid_aux = {
            sender: value
            for sender, value in per_round.items()
            if value in accepted
        }
        if len(valid_aux) < self.n - self.t:
            return []
        out: List[Outgoing] = []
        if round_ not in self._coin_requested:
            self._coin_requested.add(round_)
            out.extend(self.coin.request(self.sid, round_))
            # Releasing our own share may complete the coin synchronously,
            # re-entering this method through the coin-ready callback.  If
            # that nested call finished the round (and advanced
            # ``self.round``), finishing it again here would advance the
            # round a second time and strand this replica in a round no
            # quorum ever joins.
            if round_ in self._round_done or round_ != self.round:
                return out
        coin = self.coin.value(self.sid, round_)
        if coin is None:
            return out
        self._round_done.add(round_)
        values = set(valid_aux.values())
        if len(values) == 1:
            (b,) = values
            if b == coin:
                out.extend(self._decide(b))
                return out
            self.estimate = b
        else:
            self.estimate = coin
        self.round += 1
        out.extend(self._send_est(self.round, self.estimate))
        out.extend(self._maybe_send_aux(self.round))
        out.extend(self._try_finish_round(self.round))
        return out

    # -- decision -------------------------------------------------------------------------

    def _decide(self, value: int) -> List[Outgoing]:
        if self.decision is not None:
            return []
        self.decision = value
        out: List[Outgoing] = []
        if not self._sent_decided:
            self._sent_decided = True
            out.append((BROADCAST, AbaDecided(self.sid, value)))
        return out

    def _on_decided(self, sender: int, msg: AbaDecided) -> List[Outgoing]:
        if msg.value not in (0, 1):
            return []
        senders = self._decided_senders[msg.value]
        if sender in senders:
            return []
        senders.add(sender)
        if len(senders) >= self.t + 1 and self.decision is None:
            # t+1 DECIDEDs include an honest replica, so the value is safe.
            return self._decide(msg.value)
        return []


class BinaryAgreement:
    """Multiplexes agreement instances over one coin endpoint."""

    def __init__(
        self,
        n: int,
        t: int,
        me: int,
        coin_key,
        on_decide: Callable[[str, int], None],
    ) -> None:
        if n <= 3 * t:
            raise ConfigError("binary agreement requires n > 3t")
        self.n = n
        self.t = t
        self.me = me
        self._on_decide = on_decide
        self._pending_coin_out: List[Outgoing] = []
        self.coin = CommonCoin(coin_key, me, self._coin_ready)
        self._instances: Dict[str, AbaInstance] = {}
        self._decided: Dict[str, int] = {}
        self.stats: Dict[str, int] = {"coin_out_of_window": 0}

    def _instance(self, sid: str) -> AbaInstance:
        if sid not in self._instances:
            self._instances[sid] = AbaInstance(self.n, self.t, self.me, sid, self.coin)
        return self._instances[sid]

    def propose(self, sid: str, value: int) -> List[Outgoing]:
        instance = self._instance(sid)
        out = instance.propose(value)
        out.extend(self._collect(sid, instance))
        return out

    def on_message(self, sender: int, msg: object) -> List[Outgoing]:
        sid = getattr(msg, "sid", None)
        if sid is None:
            return []
        out: List[Outgoing] = []
        if isinstance(msg, CoinShare):
            # Each (sid, round) opens a coin share pool.  An instance not
            # created yet is at round 0, so early honest shares are kept.
            instance = self._instances.get(sid)
            current = instance.round if instance is not None else 0
            if msg.round > current + MAX_ROUND_AHEAD:
                self.stats["coin_out_of_window"] += 1
                return []
            out.extend(self.coin.on_message(sender, msg))
            out.extend(self._pending_coin_out)
            self._pending_coin_out = []
            # The coin callback may have unblocked the instance.
            if instance is not None:
                out.extend(self._collect(sid, instance))
            return out
        instance = self._instance(sid)
        out.extend(instance.on_message(sender, msg))
        out.extend(self._collect(sid, instance))
        return out

    def _coin_ready(self, sid: str, round_: int, value: int) -> None:
        instance = self._instances.get(sid)
        if instance is None:
            return
        self._pending_coin_out.extend(instance.on_coin(round_, value))

    def _collect(self, sid: str, instance: AbaInstance) -> List[Outgoing]:
        out = list(self._pending_coin_out)
        self._pending_coin_out = []
        if instance.decision is not None and sid not in self._decided:
            self._decided[sid] = instance.decision
            self._on_decide(sid, instance.decision)
        return out

    def decision(self, sid: str) -> Optional[int]:
        return self._decided.get(sid)
