"""Explorer models: the real protocol objects under scheduler control.

Each model wraps unmodified protocol instances (``ReliableBroadcast``,
``BinaryAgreement``, ``AtomicBroadcast``) behind the engine's duck-typed
interface: ``enabled()`` exposes the deliverable-event frontier,
``execute((src, dest), i)`` delivers one head-of-channel message into the
real handler and routes whatever it emits back into the frontier, and the
``check_*`` hooks evaluate the protocol-level G1/G2/G3 invariants from
:mod:`repro.chaos.invariants` over plain delivered/decided data.

Cryptography is replaced by structure-preserving stubs (``StubCoin``,
``StubAuthPlane``): signatures become keyed hashes and the common coin a
deterministic hash of ``(sid, round)``, so the *message flow* — quorum
counting, re-entrancy through the coin callback, signed epoch finals —
is exactly the production code path while a single delivery costs
microseconds instead of RSA milliseconds.  The coin stays deterministic
per (sid, round), which exploration requires: the schedule must be the
only source of nondeterminism.

Byzantine replicas are *absorbing message palettes*: each enumerated
strategy fixes the corrupt replica's entire outbound behaviour as a set
of pre-enqueued messages (equivocating sends, split votes, silence), and
inbound messages to it are dropped.  That is sound for safety checking —
a Byzantine node's outputs never depend on its inputs in any way the
honest replicas can distinguish beyond the messages themselves — and it
keeps the choice space finite.

State restore: ``RbcModel`` and ``AbaModel`` hold all mutable state in
one container that deep-copies correctly (callbacks are callable objects
or bound methods — ``copy.deepcopy`` rebinds bound methods through its
memo, but treats plain closures as atomic, which would leave them
pointing at the *original* state).  ``AtomicBroadcast`` arms timers over
``lambda: self._on_timeout(...)`` closures, so ``AbcModel`` opts out of
snapshots (``snapshot() -> None``) and the engine replays the choice
prefix from ``reset()`` instead.
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.broadcast.aba import BinaryAgreement
from repro.broadcast.abc import AtomicBroadcast, derive_request_id
from repro.broadcast.messages import (
    AbaAux,
    AbaDecided,
    AbaEst,
    AbcCommit,
    AbcComplain,
    AbcOrder,
    CoinShare,
    RbcEcho,
    RbcEchoDigest,
    RbcReady,
    RbcSend,
)
from repro.broadcast.rbc import ReliableBroadcast, RbcInstance
from repro.chaos.invariants import (
    check_agreement_decisions,
    check_agreement_termination,
    check_broadcast_agreement,
    check_broadcast_totality,
    check_broadcast_validity,
    check_total_order,
)
from repro.explore.dpor import StepMeta
from repro.explore.footprints import FootprintOracle, oracle_for
from repro.explore.frontier import (
    BROADCAST,
    ChannelFrontier,
    ChannelKey,
    TimerRail,
)

Outgoing = Tuple[int, object]


def _sha(data: bytes) -> bytes:
    return hashlib.sha256(data).digest()


# --------------------------------------------------------------------------
# Deepcopy-safe callback objects
# --------------------------------------------------------------------------


class DeliveryLog:
    """Per-replica RBC delivery recorder; a callable object (not a
    closure) so snapshots deep-copy it consistently with the protocol."""

    def __init__(self) -> None:
        self.delivered: Dict[str, bytes] = {}
        self.duplicates: List[str] = []

    def __call__(self, sid: str, payload: bytes) -> None:
        if sid in self.delivered:
            self.duplicates.append(sid)
            return
        self.delivered[sid] = payload

    def get(self, sid: str) -> Optional[bytes]:
        return self.delivered.get(sid)


class DecisionLog:
    """Per-replica ABA decision recorder (``on_decide`` callback)."""

    def __init__(self) -> None:
        self.decisions: Dict[str, int] = {}
        self.conflicts: List[str] = []

    def __call__(self, sid: str, value: int) -> None:
        if sid in self.decisions and self.decisions[sid] != value:
            self.conflicts.append(sid)
            return
        self.decisions[sid] = value

    def get(self, sid: str) -> Optional[int]:
        return self.decisions.get(sid)


class AbcDeliveryLog:
    """Per-replica atomic-broadcast delivery recorder.

    Keeps payloads so integrity (rid == hash of payload) is checkable;
    order checking uses the replica's own ``delivered_log``.
    """

    def __init__(self) -> None:
        self.order: List[Tuple[str, bytes]] = []

    def __call__(self, rid: str, payload: bytes) -> None:
        self.order.append((rid, payload))


# --------------------------------------------------------------------------
# Crypto stubs (structure-preserving, deterministic, fast)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class StubShare:
    """Stands in for a threshold-signature share inside ``CoinShare``.

    Carries the 1-based signer index exactly as the real
    ``SignatureShare`` does, so the stub coin can enforce the same
    "a replica may only contribute its own share" rule."""

    index: int


class StubCoin:
    """Drop-in for ``CommonCoin``: same wire messages and callback
    re-entrancy, but the value is a deterministic hash of (sid, round).

    The synchronous completion path is preserved: releasing our own
    share may reach the t+1 threshold immediately, re-entering the ABA
    round logic through ``on_value`` — the exact re-entrancy window the
    PR-2 coin bug lived in.
    """

    def __init__(self, t: int, me: int, on_value: object) -> None:
        self.t = t
        self.me = me
        self._on_value = on_value
        self._shares: Dict[Tuple[str, int], set] = {}
        self._values: Dict[Tuple[str, int], int] = {}
        self._requested: set = set()

    @staticmethod
    def toss(sid: str, round_: int) -> int:
        return _sha(f"coin/{sid}/{round_}".encode())[0] & 1

    def value(self, sid: str, round_: int) -> Optional[int]:
        return self._values.get((sid, round_))

    def request(self, sid: str, round_: int) -> List[Outgoing]:
        key = (sid, round_)
        if key in self._requested:
            return []
        self._requested.add(key)
        share = StubShare(self.me + 1)
        out: List[Outgoing] = [(BROADCAST, CoinShare(sid, round_, share))]
        self._accept(sid, round_, self.me, share)
        return out

    def on_message(self, sender: int, msg: object) -> List[Outgoing]:
        if isinstance(msg, CoinShare):
            self._accept(msg.sid, msg.round, sender, msg.share)
        return []

    def _accept(self, sid: str, round_: int, sender: int, share: object) -> None:
        key = (sid, round_)
        if key in self._values:
            return
        index = getattr(share, "index", None)
        if index != sender + 1:
            return  # a replica may only contribute its own share
        pool = self._shares.setdefault(key, set())
        pool.add(index)
        if len(pool) < self.t + 1:
            return
        self._values[key] = self.toss(sid, round_)
        self._on_value(sid, round_, self._values[key])


class StubCoinPublic:
    def __init__(self, t: int) -> None:
        self.t = t


class StubCoinKey:
    """Satisfies ``CommonCoin.__init__`` (which only reads ``.public``);
    the constructed real coin is immediately replaced by a StubCoin."""

    def __init__(self, t: int) -> None:
        self.public = StubCoinPublic(t)


def _stub_sig(signer: int, data: bytes) -> bytes:
    return _sha(b"stub-sig|%d|" % signer + data)


class StubKey:
    """Keyed-hash stand-in for an RSA key pair (both halves)."""

    def __init__(self, index: int) -> None:
        self.index = index

    def sign(self, data: bytes) -> bytes:
        return _stub_sig(self.index, data)

    def is_valid(self, data: bytes, signature: bytes) -> bool:
        return signature == _stub_sig(self.index, data)


class StubAuthPlane:
    """``AuthPlane``-shaped authenticator plane over keyed hashes."""

    def __init__(self, me: int, publics: Sequence[StubKey]) -> None:
        self.me = me
        self.auth_public = list(publics)
        self.executor = None

    def sign(self, data: bytes) -> bytes:
        return _stub_sig(self.me, data)

    def verify(self, signer: int, data: bytes, signature: bytes) -> bool:
        return signature == _stub_sig(signer, data)

    def verify_many(self, items: List[Tuple[object, bytes, bytes]]) -> List[bool]:
        return [key.is_valid(data, sig) for key, data, sig in items]


def install_stub_coin(ba: BinaryAgreement, t: int, me: int) -> StubCoin:
    """Replace a ``BinaryAgreement``'s real coin with the stub.

    Must run before any ABA instance is created: instances capture
    ``ba.coin`` at construction time.
    """
    stub = StubCoin(t, me, ba._coin_ready)
    ba.coin = stub  # type: ignore[assignment]
    return stub


# --------------------------------------------------------------------------
# Byzantine strategy palettes
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ByzStrategy:
    """One fixed outbound behaviour of the corrupt replica.

    ``messages`` are pre-enqueued into the frontier at ``reset()``:
    ``(dest, msg)`` with ``dest == BROADCAST`` expanding to every honest
    replica.  The adversary still controls *when* each lands — that is
    the schedule, which the explorer enumerates.
    """

    name: str
    messages: Tuple[Tuple[int, object], ...] = ()


def _split(honest: Sequence[int]) -> Tuple[List[int], List[int]]:
    mid = (len(honest) + 1) // 2
    return list(honest[:mid]), list(honest[mid:])


def rbc_strategies(
    n: int,
    t: int,
    sid: str,
    mode: str,
    byz: int,
    honest: Sequence[int],
    payload_a: bytes = b"alpha",
    payload_b: bytes = b"bravo",
) -> List[ByzStrategy]:
    """Byzantine-*sender* palettes for one RBC instance.

    Equivocation splits the honest replicas into two camps and feeds each
    camp a consistent (SEND, ECHO, READY) story for a different payload —
    the strongest single-instance attack available to a corrupt sender,
    and exactly the one the n-t echo quorum must defeat.
    """
    group_a, group_b = _split(honest)
    digest_a, digest_b = _sha(payload_a), _sha(payload_b)

    def echo(payload: bytes, digest: bytes) -> object:
        if mode == "full":
            return RbcEcho(sid, payload)
        return RbcEchoDigest(sid, digest)

    def camp(dests: Sequence[int], payload: bytes, digest: bytes) -> List[Outgoing]:
        out: List[Outgoing] = []
        for dest in dests:
            out.append((dest, RbcSend(sid, payload)))
            out.append((dest, echo(payload, digest)))
            out.append((dest, RbcReady(sid, digest)))
        return out

    strategies = [ByzStrategy("silent")]
    strategies.append(
        ByzStrategy(
            "equivocate-split",
            tuple(
                camp(group_a, payload_a, digest_a)
                + camp(group_b, payload_b, digest_b)
            ),
        )
    )
    strategies.append(
        ByzStrategy(
            "withhold-partial",
            tuple(
                [(dest, RbcSend(sid, payload_a)) for dest in group_a]
                + [(dest, echo(payload_a, digest_a)) for dest in group_a]
            ),
        )
    )
    # Vote-only lies without any SEND: tries to drive the ready
    # amplification path to deliver something nobody can fetch.
    strategies.append(
        ByzStrategy(
            "phantom-votes",
            tuple(
                [(dest, echo(payload_b, digest_b)) for dest in honest]
                + [(dest, RbcReady(sid, digest_b)) for dest in honest]
            ),
        )
    )
    return strategies


def rbc_voter_strategies(
    n: int,
    t: int,
    sid: str,
    mode: str,
    byz: int,
    honest: Sequence[int],
    payload: bytes,
    wrong: bytes = b"forged",
) -> List[ByzStrategy]:
    """Byzantine-*voter* palettes (the sender is honest): double votes and
    forged readies against the honest payload."""
    digest, wrong_digest = _sha(payload), _sha(wrong)

    def echo(p: bytes, d: bytes) -> object:
        if mode == "full":
            return RbcEcho(sid, p)
        return RbcEchoDigest(sid, d)

    return [
        ByzStrategy("silent"),
        ByzStrategy(
            "double-vote",
            tuple(
                [(dest, echo(wrong, wrong_digest)) for dest in honest]
                + [(dest, RbcReady(sid, wrong_digest)) for dest in honest]
            ),
        ),
        ByzStrategy(
            "early-ready",
            tuple((dest, RbcReady(sid, digest)) for dest in honest),
        ),
    ]


def aba_strategies(
    n: int, t: int, sid: str, byz: int, honest: Sequence[int]
) -> List[ByzStrategy]:
    """Byzantine palettes for one ABA instance: split estimates, split
    AUX votes, and an own coin share (valid under the stub's index rule)."""
    group_a, group_b = _split(honest)
    share = StubShare(byz + 1)
    coin_r0 = [(dest, CoinShare(sid, 0, share)) for dest in honest]
    return [
        ByzStrategy("silent"),
        ByzStrategy(
            "split-est",
            tuple(
                [(dest, AbaEst(sid, 0, 0)) for dest in group_a]
                + [(dest, AbaEst(sid, 0, 1)) for dest in group_b]
                + coin_r0
            ),
        ),
        ByzStrategy(
            "split-aux",
            tuple(
                [(dest, AbaAux(sid, 0, 0)) for dest in group_a]
                + [(dest, AbaAux(sid, 0, 1)) for dest in group_b]
                + coin_r0
            ),
        ),
    ]


def abc_strategies(
    n: int, t: int, byz: int, honest: Sequence[int], payloads: Sequence[bytes]
) -> List[ByzStrategy]:
    """Byzantine-*leader* palettes for atomic broadcast (leader of epoch 0
    is replica 0): silence forces the complaint/recovery path; sequence
    equivocation assigns the same slot to different requests per camp."""
    strategies = [ByzStrategy("silent")]
    if len(payloads) >= 2 and len(honest) >= 2:
        group_a, group_b = _split(honest)
        pa, pb = payloads[0], payloads[1]
        ra, rb = derive_request_id(pa), derive_request_id(pb)
        strategies.append(
            ByzStrategy(
                "equivocate-seq",
                tuple(
                    [(dest, AbcOrder(0, 0, ra, pa)) for dest in group_a]
                    + [(dest, AbcOrder(0, 0, rb, pb)) for dest in group_b]
                ),
            )
        )
    return strategies


# --------------------------------------------------------------------------
# Shared model machinery
# --------------------------------------------------------------------------


class _ModelState:
    """Every mutable piece of a model run, deep-copied as one unit."""

    def __init__(self) -> None:
        self.frontier = ChannelFrontier()
        self.step_count = 0


class BaseMessageModel:
    """Frontier bookkeeping shared by the three protocol models.

    Subclasses implement ``_build_state`` (fresh protocol objects),
    ``_handle`` (feed one delivery into the real handler and route its
    output) and the ``check_*`` invariant hooks.
    """

    sids_isolated = False
    #: hard per-run step bound; ``enabled()`` goes empty past it and
    #: ``check_leaf`` turns vacuous (bound hit != proven quiescent).
    step_cap = 4_000

    def __init__(self) -> None:
        self.state: _ModelState = None  # type: ignore[assignment]
        self._oracle: Optional[FootprintOracle] = None
        self._footprint_extra: FrozenSet[str] = frozenset()

    # -- engine interface --------------------------------------------------

    def reset(self) -> None:
        self.state = self._build_state()

    def enabled(self) -> List[ChannelKey]:
        if self.state.step_count >= self.step_cap:
            return []
        return self.state.frontier.enabled()

    def execute(self, choice: ChannelKey, index: int) -> StepMeta:
        src, dest = choice
        fifo = self.state.frontier.fifo_predecessor(choice)
        queued = self.state.frontier.pop(choice, index)
        self.state.step_count += 1
        self._handle(src, dest, queued.payload, index)
        return self._meta(
            choice, dest, queued.payload, sent_by=queued.sent_by, fifo=fifo
        )

    def peek(self, choice: ChannelKey) -> StepMeta:
        src, dest = choice
        queued = self.state.frontier.peek(choice)
        return self._meta(choice, dest, queued.payload)

    def fire_next_timer(self, index: int) -> Optional[StepMeta]:
        return None  # timer-free protocols override

    def snapshot(self) -> Optional[object]:
        return copy.deepcopy(self.state)

    def restore(self, snap: object) -> None:
        # Copy again: one snapshot may be restored many times and the
        # restored run mutates the state in place.
        self.state = copy.deepcopy(snap)

    def check_now(self) -> List[str]:
        return []

    def check_leaf(self) -> List[str]:
        return []

    def fingerprint(self) -> str:
        raise NotImplementedError

    @property
    def bound_hit(self) -> bool:
        return self.state.step_count >= self.step_cap

    # -- helpers -----------------------------------------------------------

    def _build_state(self) -> _ModelState:
        raise NotImplementedError

    def _handle(self, src: int, dest: int, payload: object, index: int) -> None:
        raise NotImplementedError

    def _meta(
        self,
        choice: ChannelKey,
        dest: int,
        payload: object,
        sent_by: int = -1,
        fifo: int = -1,
    ) -> StepMeta:
        kind = type(payload).__name__
        touched = self._footprint(kind)
        return StepMeta(
            choice=choice,
            dest=dest,
            instance=getattr(payload, "sid", None),
            reads=touched,
            writes=touched,
            sent_by=sent_by,
            fifo_pred=fifo,
            token=self._vote_token(payload),
            label=f"{choice[0]}->{dest}:{kind}",
        )

    def _vote_token(self, payload: object) -> Optional[object]:
        """Commuting-vote token (see ``StepMeta.token``): non-None only
        for handlers that are pure set-inserts with deterministic
        thresholds, where equal votes from different replicas provably
        commute.  Default: none (conservative)."""
        return None

    def _footprint(self, message_type: str) -> Optional[FrozenSet[str]]:
        if self._oracle is None:
            return None
        touched = self._oracle.footprint(message_type)
        if touched is None:
            return None
        return touched | self._footprint_extra

    def _route(
        self, src: int, outs: List[Outgoing], index: int, depth: int = 0
    ) -> None:
        """Enqueue an Outgoing list, mirroring the test-harness router:
        broadcast fans out to every *other* honest replica (sans-IO
        components self-process their own broadcasts internally) and a
        self-addressed message loops back synchronously."""
        for dest, msg in outs:
            if dest == BROADCAST:
                for peer in self._honest:
                    if peer != src:
                        self.state.frontier.push(src, peer, msg, sent_by=index)
            elif dest == src:
                if depth < 16:  # defensive: protocols never chain this deep
                    more = self._loopback(src, msg)
                    self._route(src, more, index, depth + 1)
            elif dest in self._honest:
                self.state.frontier.push(src, dest, msg, sent_by=index)
            # else: addressed to the Byzantine replica — absorbed.

    def _loopback(self, me: int, msg: object) -> List[Outgoing]:
        raise NotImplementedError

    def _enqueue_strategy(self, strategy: ByzStrategy, byz: int) -> None:
        for dest, msg in strategy.messages:
            if dest == BROADCAST:
                for peer in self._honest:
                    self.state.frontier.push(byz, peer, msg, sent_by=-1)
            elif dest in self._honest:
                self.state.frontier.push(byz, dest, msg, sent_by=-1)

    @property
    def _honest(self) -> List[int]:
        raise NotImplementedError


# --------------------------------------------------------------------------
# Reliable broadcast
# --------------------------------------------------------------------------


class _RbcState(_ModelState):
    def __init__(
        self,
        n: int,
        t: int,
        honest: List[int],
        mode: str,
        rbc_cls: type,
    ) -> None:
        super().__init__()
        self.logs: Dict[int, DeliveryLog] = {i: DeliveryLog() for i in honest}
        self.replicas: Dict[int, ReliableBroadcast] = {}
        for i in honest:
            rb = ReliableBroadcast(n, t, i, deliver=self.logs[i], mode=mode)
            # Corpus fixtures swap in a (deliberately broken) RbcInstance
            # subclass; production runs keep the real one.
            if rbc_cls is not RbcInstance:
                rb._instance = _InstanceFactory(rb, rbc_cls)  # type: ignore[method-assign]
            self.replicas[i] = rb


class _InstanceFactory:
    """Replaces ``ReliableBroadcast._instance`` to construct a fixture's
    RbcInstance subclass; a callable object so snapshots deep-copy it."""

    def __init__(self, rb: ReliableBroadcast, rbc_cls: type) -> None:
        self.rb = rb
        self.rbc_cls = rbc_cls

    def __call__(self, sid: str) -> RbcInstance:
        if sid not in self.rb._instances:
            self.rb._instances[sid] = self.rbc_cls(
                self.rb.n, self.rb.t, self.rb.me, sid, self.rb.mode
            )
        return self.rb._instances[sid]


class RbcModel(BaseMessageModel):
    """One reliable-broadcast instance at (n, t) with one corrupt replica.

    * Corrupt **sender** (``sender == byz``): agreement is checked after
      every step and totality at every drained leaf.  Validity is
      vacuous (a corrupt sender has no "right" payload).
    * Honest sender with a corrupt **voter**: validity and agreement
      must both hold, and totality at the leaf.
    """

    sids_isolated = True

    def __init__(
        self,
        n: int,
        t: int,
        *,
        mode: str = "full",
        byz: Optional[int] = None,
        strategy: Optional[ByzStrategy] = None,
        sender: int = 0,
        payload: bytes = b"alpha",
        sid: str = "s",
        rbc_cls: type = RbcInstance,
    ) -> None:
        super().__init__()
        self.n = n
        self.t = t
        self.mode = mode
        self.byz = byz
        self.strategy = strategy or ByzStrategy("silent")
        self.sender = sender
        self.payload = payload
        self.sid = sid
        self.rbc_cls = rbc_cls
        self.honest = [i for i in range(n) if i != byz]
        if rbc_cls is RbcInstance:
            self._oracle = oracle_for("repro.broadcast.rbc:RbcInstance")
        # Wrapper-level effects invisible to the RbcInstance-scoped
        # static footprints (pull kick-off, delivery hand-off).
        self._footprint_extra = frozenset(
            {"pull_active", "want_pull", "delivered", "pull_attempt"}
        )

    @property
    def _honest(self) -> List[int]:
        return self.honest

    def _build_state(self) -> _RbcState:
        state = _RbcState(self.n, self.t, self.honest, self.mode, self.rbc_cls)
        self.state = state
        if self.sender in self.honest:
            out = state.replicas[self.sender].broadcast(self.sid, self.payload)
            self._route(self.sender, out, -1)
        if self.byz is not None:
            self._enqueue_strategy(self.strategy, self.byz)
        return state

    def _handle(self, src: int, dest: int, payload: object, index: int) -> None:
        out = self.state.replicas[dest].on_message(src, payload)
        self._route(dest, out, index)

    def _loopback(self, me: int, msg: object) -> List[Outgoing]:
        return self.state.replicas[me].on_message(me, msg)

    def _vote_token(self, payload: object) -> Optional[object]:
        # SEND/ECHO handlers key all state on the payload (or its
        # digest), never on the transport-layer sender; READY votes are
        # per-sender set-inserts counted per digest.  Equal votes from
        # different replicas therefore commute.  Pull traffic
        # (RbcPull/RbcPayload/RbcVal/RbcFrag) stays order-sensitive:
        # responses depend on who asked and what arrived first.
        if self.rbc_cls is not RbcInstance:
            return None  # corpus fixtures may break the commutation proof
        if isinstance(payload, RbcSend):
            return ("send", payload.sid, payload.payload)
        if isinstance(payload, RbcEcho):
            return ("echo", payload.sid, payload.payload)
        if isinstance(payload, RbcEchoDigest):
            return ("echod", payload.sid, payload.digest)
        if isinstance(payload, RbcReady):
            return ("ready", payload.sid, payload.digest)
        return None

    def _delivered(self) -> Dict[int, Optional[bytes]]:
        state: _RbcState = self.state  # type: ignore[assignment]
        return {i: state.logs[i].get(self.sid) for i in self.honest}

    def check_now(self) -> List[str]:
        state: _RbcState = self.state  # type: ignore[assignment]
        delivered = self._delivered()
        problems = check_broadcast_agreement(delivered)
        if self.sender in self.honest:
            problems += check_broadcast_validity(delivered, self.payload)
        for i in self.honest:
            if state.logs[i].duplicates:
                problems.append(f"replica {i} delivered {self.sid!r} twice")
        return problems

    def check_leaf(self) -> List[str]:
        if self.bound_hit:
            return []
        problems = list(self.check_now())
        delivered = self._delivered()
        if self.sender in self.honest:
            # Honest sender + drained network: everyone must deliver.
            missing = sorted(i for i, v in delivered.items() if v is None)
            if missing:
                problems.append(
                    f"broadcast termination violated: replicas {missing}"
                    " never delivered an honest sender's payload"
                )
        else:
            problems += check_broadcast_totality(delivered)
        return problems

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for i, value in sorted(self._delivered().items()):
            h.update(f"{i}:".encode())
            h.update(b"-" if value is None else _sha(value))
        return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Binary agreement
# --------------------------------------------------------------------------


class _AbaState(_ModelState):
    def __init__(
        self,
        n: int,
        t: int,
        honest: List[int],
        aba_cls: Optional[type],
    ) -> None:
        super().__init__()
        self.logs: Dict[int, DecisionLog] = {i: DecisionLog() for i in honest}
        self.replicas: Dict[int, BinaryAgreement] = {}
        for i in honest:
            ba = BinaryAgreement(n, t, i, StubCoinKey(t), on_decide=self.logs[i])
            install_stub_coin(ba, t, i)
            if aba_cls is not None:
                ba._instance = _AbaInstanceFactory(ba, aba_cls)  # type: ignore[method-assign]
            self.replicas[i] = ba


class _AbaInstanceFactory:
    """Counterpart of ``_InstanceFactory`` for ABA corpus fixtures."""

    def __init__(self, ba: BinaryAgreement, aba_cls: type) -> None:
        self.ba = ba
        self.aba_cls = aba_cls

    def __call__(self, sid: str):
        if sid not in self.ba._instances:
            self.ba._instances[sid] = self.aba_cls(
                self.ba.n, self.ba.t, self.ba.me, sid, self.ba.coin
            )
        return self.ba._instances[sid]


class AbaModel(BaseMessageModel):
    """One binary-agreement instance under the deterministic stub coin."""

    sids_isolated = True

    def __init__(
        self,
        n: int,
        t: int,
        *,
        byz: Optional[int] = None,
        strategy: Optional[ByzStrategy] = None,
        proposals: Optional[Dict[int, int]] = None,
        sid: str = "s",
        aba_cls: Optional[type] = None,
    ) -> None:
        super().__init__()
        self.n = n
        self.t = t
        self.byz = byz
        self.strategy = strategy or ByzStrategy("silent")
        self.sid = sid
        self.aba_cls = aba_cls
        self.honest = [i for i in range(n) if i != byz]
        self.proposals = (
            dict(proposals)
            if proposals is not None
            else {i: i % 2 for i in self.honest}
        )
        if aba_cls is None:
            self._oracle = oracle_for("repro.broadcast.aba:AbaInstance")
        # Everything ABA does can reach the shared coin endpoint and the
        # multiplexer's pending-output buffer; see module docstring.
        self._footprint_extra = frozenset(
            {"coin", "_pending_coin_out", "_decided"}
        )

    @property
    def _honest(self) -> List[int]:
        return self.honest

    def _build_state(self) -> _AbaState:
        state = _AbaState(self.n, self.t, self.honest, self.aba_cls)
        self.state = state
        for i in self.honest:
            value = self.proposals.get(i)
            if value is not None:
                out = state.replicas[i].propose(self.sid, value)
                self._route(i, out, -1)
        if self.byz is not None:
            self._enqueue_strategy(self.strategy, self.byz)
        return state

    def _handle(self, src: int, dest: int, payload: object, index: int) -> None:
        out = self.state.replicas[dest].on_message(src, payload)
        self._route(dest, out, index)

    def _loopback(self, me: int, msg: object) -> List[Outgoing]:
        return self.state.replicas[me].on_message(me, msg)

    def _vote_token(self, payload: object) -> Optional[object]:
        # EST/AUX/DECIDED are per-sender set-inserts keyed on
        # (round, value) with count thresholds only — equal votes
        # commute.  Coin shares commute *under the stub coin only*: the
        # real coin assembles the first t+1 shares into a signature whose
        # bytes (hence the coin value) depend on arrival order, but the
        # stub's value is a pure function of (sid, round).
        if self.aba_cls is not None:
            return None  # corpus fixtures may break the commutation proof
        if isinstance(payload, AbaEst):
            return ("est", payload.sid, payload.round, payload.value)
        if isinstance(payload, AbaAux):
            return ("aux", payload.sid, payload.round, payload.value)
        if isinstance(payload, AbaDecided):
            return ("decided", payload.sid, payload.value)
        if isinstance(payload, CoinShare):
            return ("coin", payload.sid, payload.round)
        return None

    def _decisions(self) -> Dict[int, Optional[int]]:
        state: _AbaState = self.state  # type: ignore[assignment]
        return {i: state.logs[i].get(self.sid) for i in self.honest}

    def check_now(self) -> List[str]:
        state: _AbaState = self.state  # type: ignore[assignment]
        proposed = [self.proposals[i] for i in self.honest if i in self.proposals]
        problems = check_agreement_decisions(self._decisions(), proposed)
        for i in self.honest:
            if state.logs[i].conflicts:
                problems.append(f"replica {i} decided {self.sid!r} twice")
        return problems

    def check_leaf(self) -> List[str]:
        if self.bound_hit:
            return []
        problems = list(self.check_now())
        if len(self.proposals) == len(self.honest):
            problems += check_agreement_termination(self._decisions())
        return problems

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        for i, value in sorted(self._decisions().items()):
            h.update(f"{i}:{value};".encode())
        return h.hexdigest()[:16]


# --------------------------------------------------------------------------
# Atomic broadcast
# --------------------------------------------------------------------------


class _SendHook:
    """Per-replica ``send`` effect: enqueue into the model frontier with
    the step index currently being executed."""

    def __init__(self, model: "AbcModel", me: int) -> None:
        self.model = model
        self.me = me

    def __call__(self, dest: int, msg: object) -> None:
        if dest in self.model.honest:
            self.model.state.frontier.push(
                self.me, dest, msg, sent_by=self.model._current_index
            )


class _AbcState(_ModelState):
    def __init__(self) -> None:
        super().__init__()
        self.rail = TimerRail()
        self.logs: Dict[int, AbcDeliveryLog] = {}
        self.replicas: Dict[int, AtomicBroadcast] = {}
        self.timer_fires = 0


class AbcModel(BaseMessageModel):
    """The full optimistic atomic broadcast under exploration.

    ``AtomicBroadcast`` arms timers over closures, which deep-copy
    incorrectly (the copy's timers would still poke the original
    replica), so this model opts out of snapshots: ``snapshot()``
    returns None and the engine replays the schedule prefix instead.
    Timer callbacks fire only at quiescent states, earliest-armed first,
    capped so a complaint loop cannot run away.
    """

    sids_isolated = False
    step_cap = 6_000

    def __init__(
        self,
        n: int,
        t: int,
        *,
        dissemination: str = "digest",
        byz: Optional[int] = None,
        strategy: Optional[ByzStrategy] = None,
        payloads: Sequence[bytes] = (b"req-a", b"req-b"),
        gateway: Optional[int] = None,
        timeout: float = 1.0,
        timer_cap: Optional[int] = None,
        abc_cls: type = AtomicBroadcast,
    ) -> None:
        super().__init__()
        self.n = n
        self.t = t
        self.dissemination = dissemination
        self.byz = byz
        self.strategy = strategy or ByzStrategy("silent")
        self.payloads = list(payloads)
        self.honest = [i for i in range(n) if i != byz]
        self.gateway = gateway if gateway is not None else self.honest[-1]
        self.timeout = timeout
        self.timer_cap = timer_cap if timer_cap is not None else 6 * n
        self.abc_cls = abc_cls
        self.rids = [derive_request_id(p) for p in self.payloads]
        self._current_index = -1
        if abc_cls is AtomicBroadcast:
            self._oracle = oracle_for("repro.broadcast.abc:AtomicBroadcast")
        self._footprint_extra = frozenset({"aba", "delivered_log"})

    @property
    def _honest(self) -> List[int]:
        return self.honest

    def _build_state(self) -> _AbcState:
        state = _AbcState()
        self.state = state
        self._current_index = -1
        publics = [StubKey(i) for i in range(self.n)]
        for i in self.honest:
            state.logs[i] = AbcDeliveryLog()
            abc = self.abc_cls(
                self.n,
                self.t,
                i,
                auth_key=publics[i],
                auth_public=publics,
                coin_key=StubCoinKey(self.t),
                deliver=state.logs[i],
                send=_SendHook(self, i),
                schedule=state.rail.arm,
                timeout=self.timeout,
                crypto=StubAuthPlane(i, publics),
                dissemination=self.dissemination,
                erasure_min_bytes=1,
            )
            install_stub_coin(abc.aba, self.t, i)
            state.replicas[i] = abc
        for payload in self.payloads:
            state.replicas[self.gateway].a_broadcast(payload)
        if self.byz is not None:
            self._enqueue_strategy(self.strategy, self.byz)
        return state

    def snapshot(self) -> Optional[object]:
        return None  # replay-based restore; see class docstring

    def restore(self, snap: object) -> None:  # pragma: no cover - unused
        raise RuntimeError("AbcModel restores by replay, not snapshot")

    def _handle(self, src: int, dest: int, payload: object, index: int) -> None:
        self._current_index = index
        try:
            self.state.replicas[dest].on_message(src, payload)
        finally:
            self._current_index = -1

    def _loopback(self, me: int, msg: object) -> List[Outgoing]:
        # AtomicBroadcast self-routes internally; nothing reaches here.
        self.state.replicas[me].on_message(me, msg)
        return []

    def fire_next_timer(self, index: int) -> Optional[StepMeta]:
        state: _AbcState = self.state  # type: ignore[assignment]
        if state.timer_fires >= self.timer_cap:
            return None
        timer = state.rail.pop_next()
        if timer is None:
            return None
        state.timer_fires += 1
        self._current_index = index
        try:
            timer.callback()  # type: ignore[operator]
        finally:
            self._current_index = -1
        return StepMeta(
            choice=("timer", timer.seq),
            dest=-1,
            barrier=True,
            label=f"timer#{timer.seq}",
        )

    def _vote_token(self, payload: object) -> Optional[object]:
        # COMMIT and COMPLAIN are per-sender set-inserts with count
        # thresholds; the embedded ABA votes commute as in AbaModel
        # (stub coin).  PREPARE does *not* commute: the certificate
        # formed at quorum snapshots whichever n-t signatures arrived
        # first, so arrival order is observable in the certificate.
        # EPOCH_FINAL likewise feeds an arrival-dependent pool into
        # NEW_EPOCH construction.
        if self.abc_cls is not AtomicBroadcast:
            return None  # corpus fixtures may break the commutation proof
        if isinstance(payload, AbcCommit):
            return ("commit", payload.epoch, payload.seq, payload.digest)
        if isinstance(payload, AbcComplain):
            return ("complain", payload.epoch)
        if isinstance(payload, AbaEst):
            return ("est", payload.sid, payload.round, payload.value)
        if isinstance(payload, AbaAux):
            return ("aux", payload.sid, payload.round, payload.value)
        if isinstance(payload, AbaDecided):
            return ("decided", payload.sid, payload.value)
        if isinstance(payload, CoinShare):
            return ("coin", payload.sid, payload.round)
        return None

    def _logs(self) -> Dict[int, List[Tuple[int, str]]]:
        state: _AbcState = self.state  # type: ignore[assignment]
        return {i: list(state.replicas[i].delivered_log) for i in self.honest}

    def check_now(self) -> List[str]:
        state: _AbcState = self.state  # type: ignore[assignment]
        problems = check_total_order(self._logs())
        for i in self.honest:
            for rid, payload in state.logs[i].order:
                if derive_request_id(payload) != rid:
                    problems.append(
                        f"integrity violated: replica {i} delivered payload"
                        f" not matching request id {rid}"
                    )
        return problems

    def check_leaf(self) -> List[str]:
        state: _AbcState = self.state  # type: ignore[assignment]
        problems = list(self.check_now())
        if self.bound_hit or state.timer_fires >= self.timer_cap:
            return problems  # inconclusive drain: safety only
        if state.rail.pending():
            return problems  # timers still armed: not a settled state
        logs = self._logs()
        lengths = {i: len(log) for i, log in logs.items()}
        if len(set(lengths.values())) > 1:
            problems.append(
                f"totality violated at quiescence: delivered counts {lengths}"
            )
        for i in self.honest:
            # delivered_ids, not the log: the log names a leader batch
            # frame by the frame's id, the set also holds its members'.
            rids = state.replicas[i].delivered_ids
            missing = [r for r in self.rids if r not in rids]
            if missing and self.byz is None:
                problems.append(
                    f"liveness violated: replica {i} missing requests {missing}"
                )
        return problems

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        state: _AbcState = self.state  # type: ignore[assignment]
        for i in self.honest:
            h.update(state.replicas[i].delivery_digest().encode())
        return h.hexdigest()[:16]
