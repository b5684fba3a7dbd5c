"""Explorer models: the real protocol objects under scheduler control.

Each model wraps unmodified protocol instances (``BinaryAgreement``,
``AtomicBroadcast``) behind the engine's duck-typed interface:
``enabled()`` exposes the deliverable-event frontier,
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

State restore: each model holds all mutable state in one container,
and a snapshot is a pickle of it.  Callbacks in that state are callable
objects, bound methods or module-level functions: pickle stores a bound
method by its object and name and refuses a closure, which a deep copy
would have left pointing at the *original* state.  ``AtomicBroadcast``
returns its sends, timers and deliveries as data
(:mod:`repro.broadcast.effects`) and ``AbcModel`` keeps its armed timers
as ``(replica, timer id)`` keys, so both models snapshot.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.broadcast.aba import BinaryAgreement
from repro.broadcast.abc import (
    AtomicBroadcast,
    _final_signing_input,
    derive_request_id,
    request_digest,
)
from repro.broadcast.effects import CancelTimer, Effect, Send, SetTimer
from repro.broadcast.messages import (
    AbaAux,
    AbaDecided,
    AbaEst,
    AbcCommit,
    AbcComplain,
    AbcEpochFinal,
    AbcInitiate,
    AbcOrder,
    AbcPrepare,
    CoinShare,
)
from repro.chaos.invariants import (
    check_agreement_decisions,
    check_agreement_termination,
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
    equivocation assigns the same slot to different requests per camp;
    withholding INITIATEs a fresh request at one honest replica only and
    digest-ORDERs it everywhere, so the rest must pull it from there.

    ``equivocate-lie`` ORDERs the first payload r to all honest replicas
    but the last, and r' to the last; it PREPAREs and COMMITs r, so r
    delivers at the first camp once it locks.  Then it complains and
    signs an EPOCH_FINAL claiming a lock on r' — the lie the epoch-change
    decision must not believe (DESIGN.md §5o)."""
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
    if len(payloads) >= 2 and len(honest) >= 2:
        strategies.append(_equivocate_lie(byz, honest, payloads[0], payloads[1]))
    if honest:
        rid = derive_request_id(b"req-withheld")
        initiate = (honest[0], AbcInitiate(rid, b"req-withheld"))
        orders = tuple((dest, AbcOrder(0, 0, rid, b"")) for dest in honest)
        strategies.append(ByzStrategy("withhold-payload", (initiate,) + orders))
    return strategies


def _equivocate_lie(
    byz: int, honest: Sequence[int], pa: bytes, pb: bytes
) -> ByzStrategy:
    ra, rb = derive_request_id(pa), derive_request_id(pb)
    digest = request_digest(0, 0, pa)
    lie = AbcEpochFinal(
        epoch=0, sender=byz, locks=((0, 0, rb, pb),), accepted=(), pending=()
    )
    signed = (lie, StubKey(byz).sign(_final_signing_input(lie)))
    return ByzStrategy(
        "equivocate-lie",
        tuple(
            [(dest, AbcOrder(0, 0, ra, pa)) for dest in honest[:-1]]
            + [(honest[-1], AbcOrder(0, 0, rb, pb))]
            + [(dest, AbcPrepare(0, 0, digest, byz)) for dest in honest]
            + [(dest, AbcCommit(0, 0, digest, byz, b"")) for dest in honest]
            + [(dest, AbcComplain(0, byz)) for dest in honest]
            + [(dest, signed) for dest in honest]
        ),
    )


# --------------------------------------------------------------------------
# Shared model machinery
# --------------------------------------------------------------------------


class _ModelState:
    """Every mutable piece of a model run, deep-copied as one unit."""

    def __init__(self) -> None:
        self.frontier = ChannelFrontier()
        self.step_count = 0


class BaseMessageModel:
    """Frontier bookkeeping shared by the protocol models.

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
        # A pickle is a deep copy that is cheaper to take than
        # copy.deepcopy and, being bytes, restores any number of times.
        return pickle.dumps(self.state, pickle.HIGHEST_PROTOCOL)

    def restore(self, snap: object) -> None:
        self.state = pickle.loads(snap)  # type: ignore[arg-type]

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


class _AbcState(_ModelState):
    def __init__(self) -> None:
        super().__init__()
        self.rail = TimerRail()  # keyed by (replica, timer id)
        # Per replica: (rid, payload) as delivered, so integrity (rid ==
        # hash of payload) is checkable; order checking uses the
        # replica's own ``delivered_log``.
        self.delivered: Dict[int, List[Tuple[str, bytes]]] = {}
        self.replicas: Dict[int, AtomicBroadcast] = {}
        self.timer_fires = 0


class AbcModel(BaseMessageModel):
    """The full optimistic atomic broadcast under exploration.

    Each replica's effects are applied in order: sends enter the
    frontier stamped with the step that produced them, timers go on the
    rail, deliveries into ``delivered``.  Timers fire only at quiescent
    states, earliest-armed first, capped so a complaint loop cannot run
    away.
    """

    sids_isolated = False
    step_cap = 6_000

    def __init__(
        self,
        n: int,
        t: int,
        *,
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
        self.byz = byz
        self.strategy = strategy or ByzStrategy("silent")
        self.payloads = list(payloads)
        self.honest = [i for i in range(n) if i != byz]
        self.gateway = gateway if gateway is not None else self.honest[-1]
        self.timeout = timeout
        self.timer_cap = timer_cap if timer_cap is not None else 6 * n
        self.abc_cls = abc_cls
        self.rids = [derive_request_id(p) for p in self.payloads]
        if abc_cls is AtomicBroadcast:
            self._oracle = oracle_for("repro.broadcast.abc:AtomicBroadcast", "_dispatch")
        # ABA and PayloadRecovery state: reached through attributes.
        self._footprint_extra = frozenset({"aba", "delivered_log", "_chains", "_served"})

    @property
    def _honest(self) -> List[int]:
        return self.honest

    def _build_state(self) -> _AbcState:
        state = _AbcState()
        self.state = state
        publics = [StubKey(i) for i in range(self.n)]
        for i in self.honest:
            state.delivered[i] = []
            abc = self.abc_cls(
                self.n,
                self.t,
                i,
                auth_key=publics[i],
                auth_public=publics,
                coin_key=StubCoinKey(self.t),
                timeout=self.timeout,
                crypto=StubAuthPlane(i, publics),
            )
            install_stub_coin(abc.aba, self.t, i)
            state.replicas[i] = abc
        for payload in self.payloads:
            self._apply(self.gateway, state.replicas[self.gateway].a_broadcast(payload), -1)
        if self.byz is not None:
            self._enqueue_strategy(self.strategy, self.byz)
        return state

    def _apply(self, me: int, effects: List[Effect], index: int) -> None:
        """Replica ``me``'s effects, in order; sends to the Byzantine
        replica are absorbed."""
        state: _AbcState = self.state  # type: ignore[assignment]
        for effect in effects:
            if isinstance(effect, Send):
                if effect.dest in self.honest:
                    state.frontier.push(me, effect.dest, effect.msg, sent_by=index)
            elif isinstance(effect, SetTimer):
                state.rail.arm((me, effect.timer_id), effect.delay)
            elif isinstance(effect, CancelTimer):
                state.rail.cancel((me, effect.timer_id))
            else:
                state.delivered[me].append((effect.request_id, effect.payload))

    def _handle(self, src: int, dest: int, payload: object, index: int) -> None:
        self._apply(dest, self.state.replicas[dest].on_message(src, payload), index)  # type: ignore[attr-defined]

    def fire_next_timer(self, index: int) -> Optional[StepMeta]:
        state: _AbcState = self.state  # type: ignore[assignment]
        if state.timer_fires >= self.timer_cap:
            return None
        timer = state.rail.pop_next()
        if timer is None:
            return None
        state.timer_fires += 1
        me, timer_id = timer.key  # type: ignore[misc]
        self._apply(me, state.replicas[me].on_timer(timer_id), index)
        return StepMeta(
            choice=("timer", timer.seq),
            dest=-1,
            barrier=True,
            label=f"timer#{timer.seq}",
        )

    def _vote_token(self, payload: object) -> Optional[object]:
        # COMMIT and COMPLAIN are per-sender set-inserts with count
        # thresholds; the embedded ABA votes commute as in AbaModel
        # (stub coin).  PREPARE is kept dependent, though a lock records
        # no voter set and so no arrival order: the reduction would be
        # sound, but it would also change every explored space.
        # EPOCH_FINAL feeds an arrival-dependent pool into NEW_EPOCH
        # construction.
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
            # A decision that contradicts a delivered log is a safety
            # failure of the decision rule even when the install it
            # opened never commits (DESIGN.md §5o).
            if state.replicas[i].stats["conflicting_new_epochs"]:
                problems.append(
                    f"G1 tripwire: replica {i} refused a NEW_EPOCH that"
                    " contradicts its delivered log"
                )
        for i in self.honest:
            for rid, payload in state.delivered[i]:
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
