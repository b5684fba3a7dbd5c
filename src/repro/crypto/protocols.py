"""The three threshold-signing protocols of the paper (§3.3, §3.5).

* **BASIC** — every server broadcasts its share *with* a correctness proof;
  receivers verify each share and assemble ``t+1`` valid ones.
* **OptProof** — shares are broadcast *without* proofs; the first ``t+1``
  are optimistically assembled and only the final signature is verified.
  If that fails, the server asks everyone to resend shares with proofs and
  proceeds as in BASIC, while in parallel accepting a valid final
  signature from any peer.
* **OptTE** — shares are broadcast without proofs and assembly proceeds by
  trial and error over all ``t+1``-subsets of up to ``2t+1`` collected
  shares; since at most ``t`` shares are invalid, some subset succeeds.

The protocol classes are *sans-IO*: they consume ``(sender, message)``
events and return lists of outgoing messages, so the same implementation
runs on the discrete-event simulator (benchmarks) and on the asyncio
transport (examples).  Every cryptographic operation performed is recorded
in an operation log so the simulator can charge calibrated CPU time per
operation (this is how Table 2 and Table 3 shapes are reproduced).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from repro.crypto.executor import (
    OP_ASSEMBLE,
    OP_GENERATE_PROOF,
    OP_GENERATE_SHARE,
    OP_VERIFY_SHARE,
    OP_VERIFY_SIGNATURE,
    CryptoExecutor,
    CryptoFuture,
    SerialExecutor,
)
from repro.crypto.shoup import (
    SignatureShare,
    ThresholdKeyShare,
    ThresholdPublicKey,
)
from repro.errors import ConfigError
from repro.util.serialization import (
    pack_bytes,
    pack_str,
    pack_u8,
    unpack_bytes,
    unpack_str,
    unpack_u8,
)

PROTOCOL_BASIC = "basic"
PROTOCOL_OPTPROOF = "optproof"
PROTOCOL_OPTTE = "optte"

ALL_PROTOCOLS = (PROTOCOL_BASIC, PROTOCOL_OPTPROOF, PROTOCOL_OPTTE)

# The OP_* operation names used in the op log (matching Table 3's row
# labels) are defined in repro.crypto.executor and re-exported here; the
# cost model keys its per-operation prices on them.

BROADCAST = -1  # destination meaning "all other replicas"

#: Cap on buffered not-yet-started signing sessions per coordinator.
MAX_PENDING_SESSIONS = 4096

_MSG_SHARE = 1
_MSG_PROOF_REQUEST = 2
_MSG_FINAL = 3


@dataclass(frozen=True)
class SigningMessage:
    """Wire message of the signing protocols.

    ``kind`` is one of share / proof-request / final; ``sign_id`` names the
    signing session (derived from the record being signed, identical on
    every replica).
    """

    kind: int
    sign_id: str
    share: Optional[SignatureShare] = None
    signature: bytes = b""

    def to_bytes(self) -> bytes:
        out = pack_u8(self.kind) + pack_str(self.sign_id)
        if self.kind == _MSG_SHARE:
            assert self.share is not None
            out += self.share.to_bytes()
        elif self.kind == _MSG_FINAL:
            out += pack_bytes(self.signature)
        return out

    @classmethod
    def from_bytes(cls, data: bytes) -> "SigningMessage":
        kind, offset = unpack_u8(data, 0)
        sign_id, offset = unpack_str(data, offset)
        share = None
        signature = b""
        if kind == _MSG_SHARE:
            share, offset = SignatureShare.from_bytes(data, offset)
        elif kind == _MSG_FINAL:
            signature, offset = unpack_bytes(data, offset)
        return cls(kind=kind, sign_id=sign_id, share=share, signature=signature)

    @classmethod
    def share_message(cls, sign_id: str, share: SignatureShare) -> "SigningMessage":
        return cls(kind=_MSG_SHARE, sign_id=sign_id, share=share)

    @classmethod
    def proof_request(cls, sign_id: str) -> "SigningMessage":
        return cls(kind=_MSG_PROOF_REQUEST, sign_id=sign_id)

    @classmethod
    def final(cls, sign_id: str, signature: bytes) -> "SigningMessage":
        return cls(kind=_MSG_FINAL, sign_id=sign_id, signature=signature)

    @property
    def is_share(self) -> bool:
        return self.kind == _MSG_SHARE

    @property
    def is_proof_request(self) -> bool:
        return self.kind == _MSG_PROOF_REQUEST

    @property
    def is_final(self) -> bool:
        return self.kind == _MSG_FINAL


Outgoing = Tuple[int, SigningMessage]  # (destination replica id or BROADCAST, msg)


class SigningProtocol:
    """Base class: one instance per replica per signing session."""

    name = "abstract"

    def __init__(
        self,
        key_share: ThresholdKeyShare,
        sign_id: str,
        message: bytes,
        executor: Optional[CryptoExecutor] = None,
        own_share: Optional[CryptoFuture] = None,
    ) -> None:
        self.key_share = key_share
        self.public: ThresholdPublicKey = key_share.public
        self.sign_id = sign_id
        self.message = message
        self.executor: CryptoExecutor = (
            executor if executor is not None else SerialExecutor(key_share)
        )
        self.signature: Optional[bytes] = None
        self._ops: List[Tuple[str, int]] = []
        self._shares: Dict[int, SignatureShare] = {}
        self._arrival_order: List[int] = []
        # Speculatively generated own share (coordinator pipelining).
        self._own_future = own_share
        # Memoized proof-check verdicts, keyed by the (frozen) share.
        # Populated lazily by _share_valid and in batches by prevalidate /
        # preload_verdicts; bounded by _store_share's one-share-per-replica
        # rule plus the coordinator's pre-session buffer caps.
        self._preverified: Dict[SignatureShare, bool] = {}
        self._started = False

    # -- lifecycle ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.signature is not None

    def start(self) -> List[Outgoing]:
        """Generate and broadcast this replica's own share."""
        raise NotImplementedError

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        """Feed a received protocol message; returns messages to send."""
        raise NotImplementedError

    # -- op accounting --------------------------------------------------------

    def record_op(self, op: str, count: int = 1) -> None:
        self._ops.append((op, count))

    def drain_ops(self) -> List[Tuple[str, int]]:
        """Return and clear the log of crypto ops performed since last call."""
        ops, self._ops = self._ops, []
        return ops

    # -- shared helpers -------------------------------------------------------

    def _accept_final(self, msg: SigningMessage) -> bool:
        """Validate and adopt a final signature received from a peer."""
        self.record_op(OP_VERIFY_SIGNATURE)
        if self.executor.verify_signature(self.message, msg.signature):
            self.signature = msg.signature
            return True
        return False

    def _materialize_own_share(self, with_proof: bool) -> SignatureShare:
        """Our own share: take the pipelined prefetch or generate now."""
        if self._own_future is not None:
            share = self._own_future.result()
            self._own_future = None
            if isinstance(share, SignatureShare):
                if with_proof and share.proof is None:
                    # Prefetched bare but the protocol wants a proof —
                    # finish the job rather than redo it.
                    proof = self.executor.generate_proof(self.message, share)
                    share = share.with_proof(proof)
                return share
        return self.executor.generate_share(self.message, with_proof=with_proof)

    def _share_valid(self, share: SignatureShare) -> bool:
        """Proof-check one share through the executor, memoizing the verdict."""
        cached = self._preverified.get(share)
        if cached is None:
            self.record_op(OP_VERIFY_SHARE)
            cached = self.executor.verify_shares(self.message, [share])[0]
            self._preverified[share] = cached
        return cached

    def _prevalidate_limit(self) -> int:
        # Our own share is trusted without verification, so t valid peer
        # shares complete a t+1 assembly set; checking more up front would
        # charge verification the serial protocol never performs.
        return self.public.t

    def prevalidate(self, shares: Sequence[SignatureShare]) -> None:
        """Amortized verification: one executor task checks a share batch.

        No-op for executors that don't batch (serial execution keeps the
        exact lazy verification order of the unpooled protocol).
        """
        if not self.executor.prefers_batching:
            return
        fresh = [
            share
            for share in shares
            if share.proof is not None and share not in self._preverified
        ]
        fresh = fresh[: self._prevalidate_limit()]
        if not fresh:
            return
        self.record_op(OP_VERIFY_SHARE, len(fresh))
        for share, ok in zip(
            fresh, self.executor.verify_shares(self.message, fresh), strict=True
        ):
            self._preverified[share] = ok

    def preload_verdicts(
        self, shares: Sequence[SignatureShare], verdicts: Sequence[bool]
    ) -> None:
        """Adopt verdicts from a pipelined background verification job."""
        for share, ok in zip(shares, verdicts, strict=True):
            if share not in self._preverified:
                self.record_op(OP_VERIFY_SHARE)
                self._preverified[share] = ok

    def _store_share(self, sender: int, share: SignatureShare) -> bool:
        """Store a share by sender index; returns False on duplicates.

        The claimed share index must match the authenticated sender
        (replica ids are 0-based, share indices 1-based): without this
        check a single Byzantine peer could stuff the pool with shares
        for arbitrary indices, growing state and poisoning interpolation
        sets with shares it never proved it holds.

        A proof-carrying share may replace a previously stored bare share
        (needed by OptProof's fall-back phase).
        """
        if share.index != sender + 1 or not 1 <= share.index <= self.public.n:
            return False
        existing = self._shares.get(share.index)
        if existing is not None and (existing.proof or not share.proof):
            return False
        if existing is None:
            self._arrival_order.append(share.index)
        self._shares[share.index] = share
        return True


class BasicSigningProtocol(SigningProtocol):
    """Unoptimized protocol: every share carries and gets a verified proof."""

    name = PROTOCOL_BASIC

    def __init__(self, key_share, sign_id, message, executor=None, own_share=None) -> None:
        super().__init__(
            key_share, sign_id, message, executor=executor, own_share=own_share
        )
        self._valid: Dict[int, SignatureShare] = {}

    def start(self) -> List[Outgoing]:
        if self._started:
            return []
        self._started = True
        share = self._materialize_own_share(with_proof=True)
        self.record_op(OP_GENERATE_SHARE)
        self.record_op(OP_GENERATE_PROOF)
        out: List[Outgoing] = [(BROADCAST, SigningMessage.share_message(self.sign_id, share))]
        # Our own share is trusted without verification (we computed it);
        # _try_finish revalidates it defensively if assembly ever fails.
        self._own_index = share.index
        self._valid[share.index] = share
        out.extend(self._try_finish())
        return out

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        if self.done:
            return []
        if msg.is_final:
            self._accept_final(msg)
            return []
        if not msg.is_share or msg.share is None:
            return []
        if not self._store_share(sender, msg.share):
            return []
        if msg.share.index in self._valid:
            return []
        if self._share_valid(msg.share):
            # Bounded: _store_share pins index == sender + 1 <= n, so at
            # most one entry per replica.
            # repro-lint: disable=C304
            self._valid[msg.share.index] = msg.share
        return self._try_finish()

    def _try_finish(self) -> List[Outgoing]:
        if self.done or len(self._valid) < self.public.t + 1:
            return []
        shares = list(self._valid.values())[: self.public.t + 1]
        self.record_op(OP_ASSEMBLE)
        signature = self.executor.assemble(self.message, shares)
        self.record_op(OP_VERIFY_SIGNATURE)
        if signature is not None and self.executor.verify_signature(
            self.message, signature
        ):
            self.signature = signature
            return []
        # Assembly from verified shares cannot fail — unless our own,
        # never-verified share is bad (we might BE the corrupted server).
        # Re-validate it; if bogus, drop it and wait for more shares.
        own = self._valid.get(getattr(self, "_own_index", -1))
        if own is not None:
            self.record_op(OP_VERIFY_SHARE)
            if not self.executor.verify_shares(self.message, [own])[0]:
                del self._valid[own.index]
        return []


class OptProofSigningProtocol(SigningProtocol):
    """Optimistic protocol with proofs generated/verified only on demand."""

    name = PROTOCOL_OPTPROOF

    def __init__(self, key_share, sign_id, message, executor=None, own_share=None) -> None:
        super().__init__(
            key_share, sign_id, message, executor=executor, own_share=own_share
        )
        self._own_share: Optional[SignatureShare] = None
        self._fallback = False
        self._valid: Dict[int, SignatureShare] = {}
        self._optimistic_tried = False

    @property
    def fallback_entered(self) -> bool:
        """True once optimistic assembly failed and the proof phase started.

        The chaos harness asserts on this: a share-withholding or
        bad-share schedule must demonstrably force the slow path.
        """
        return self._fallback

    def start(self) -> List[Outgoing]:
        if self._started:
            return []
        self._started = True
        self._own_share = self._materialize_own_share(with_proof=False)
        self.record_op(OP_GENERATE_SHARE)
        # Per §3.5 the server assembles the first t+1 shares it *receives*;
        # its own share is sent to the others but not put in the pool.
        return [
            (BROADCAST, SigningMessage.share_message(self.sign_id, self._own_share))
        ]

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        if self.done:
            return []
        if msg.is_final:
            if self._accept_final(msg):
                return []
            return []
        if msg.is_proof_request:
            return self._answer_proof_request()
        if not msg.is_share or msg.share is None:
            return []
        if not self._store_share(sender, msg.share):
            return []
        out: List[Outgoing] = []
        if not self._fallback:
            out.extend(self._try_optimistic())
        if self._fallback and not self.done:
            out.extend(self._try_fallback(msg.share))
        return out

    def _try_optimistic(self) -> List[Outgoing]:
        """Assemble the first ``t+1`` bare shares and verify the result."""
        needed = self.public.t + 1
        if self._optimistic_tried or len(self._shares) < needed:
            return []
        self._optimistic_tried = True
        shares = list(self._shares.values())[:needed]
        self.record_op(OP_ASSEMBLE)
        signature = self.executor.assemble(self.message, shares)
        self.record_op(OP_VERIFY_SIGNATURE)
        if signature is not None and self.executor.verify_signature(
            self.message, signature
        ):
            self.signature = signature
            return [(BROADCAST, SigningMessage.final(self.sign_id, signature))]
        # Some collected share was bogus: request proofs from everyone and
        # fall back to verified assembly; keep accepting a final in parallel.
        self._fallback = True
        out: List[Outgoing] = [
            (BROADCAST, SigningMessage.proof_request(self.sign_id))
        ]
        out.extend(self._answer_proof_request())
        # Re-examine shares that already carry proofs (none yet, typically);
        # amortize their proof checks into one executor batch first.
        self.prevalidate(list(self._shares.values()))
        for share in list(self._shares.values()):
            out.extend(self._try_fallback(share))
        return out

    def _answer_proof_request(self) -> List[Outgoing]:
        """Resend our share, now with a correctness proof attached."""
        if self._own_share is None:
            return []
        if self._own_share.proof is None:
            proof = self.executor.generate_proof(self.message, self._own_share)
            self.record_op(OP_GENERATE_PROOF)
            self._own_share = self._own_share.with_proof(proof)
            self._store_share(self.key_share.index - 1, self._own_share)
            self._valid[self._own_share.index] = self._own_share
        return [
            (BROADCAST, SigningMessage.share_message(self.sign_id, self._own_share))
        ]

    def _try_fallback(self, share: SignatureShare) -> List[Outgoing]:
        """BASIC-style verified processing of proof-carrying shares."""
        if share.proof is None or share.index in self._valid:
            return []
        if not self._share_valid(share):
            return []
        self._valid[share.index] = share
        if len(self._valid) < self.public.t + 1:
            return []
        chosen = list(self._valid.values())[: self.public.t + 1]
        self.record_op(OP_ASSEMBLE)
        signature = self.executor.assemble(self.message, chosen)
        self.record_op(OP_VERIFY_SIGNATURE)
        if signature is None or not self.executor.verify_signature(
            self.message, signature
        ):
            # Our own never-verified share may be the bad one (we might BE
            # the corrupted server); re-validate and drop it if so.
            own = self._own_share
            if own is not None and own.index in self._valid and own.proof:
                self.record_op(OP_VERIFY_SHARE)
                if not self.executor.verify_shares(self.message, [own])[0]:
                    del self._valid[own.index]
            return []
        self.signature = signature
        # Unlike the optimistic success case, fall-back completion does not
        # broadcast the final signature — it proceeds "in the same way as
        # the unoptimized algorithm" (§3.5), which sends nothing extra.
        return []


class OptTESigningProtocol(SigningProtocol):
    """Optimistic protocol with trial-and-error subset assembly.

    Collects up to ``2t+1`` bare shares and tries every ``t+1``-subset; at
    most ``t`` shares are invalid, so a valid subset must exist among any
    ``2t+1``.  Exponential in the worst case but fastest for practical
    ``n`` (§3.5, Table 2).
    """

    name = PROTOCOL_OPTTE

    def __init__(self, key_share, sign_id, message, executor=None, own_share=None) -> None:
        super().__init__(
            key_share, sign_id, message, executor=executor, own_share=own_share
        )
        self._tried: Set[Tuple[int, ...]] = set()
        # Subset-assembly attempts actually evaluated (exposed for the A4
        # ablation bench).  A pooled trial evaluates whole candidate
        # batches in parallel, so this may exceed the serial early-exit
        # count; the signature found is identical either way.
        self.attempts = 0

    def start(self) -> List[Outgoing]:
        if self._started:
            return []
        self._started = True
        share = self._materialize_own_share(with_proof=False)
        self.record_op(OP_GENERATE_SHARE)
        # As in OptProof, assembly draws on the shares *received* (§3.5);
        # the local share is only sent to the other servers.
        return [
            (BROADCAST, SigningMessage.share_message(self.sign_id, share))
        ]

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        if self.done:
            return []
        if msg.is_final:
            self._accept_final(msg)
            return []
        if not msg.is_share or msg.share is None:
            return []
        if not self._store_share(sender, msg.share):
            return []
        return self._try_subsets()

    def _candidate_subsets(self) -> Iterator[Tuple[int, ...]]:
        # The paper caps collection at 2t+1 shares (§3.5): among any 2t+1
        # there are at most t invalid ones, so some (t+1)-subset works.
        # Shares are considered in arrival order, earliest first.
        limit = 2 * self.public.t + 1
        indices = self._arrival_order[:limit]
        size = self.public.t + 1
        if len(indices) < size:
            return iter(())
        return (
            tuple(sorted(combo))
            for combo in itertools.combinations(indices, size)
        )

    def _try_subsets(self) -> List[Outgoing]:
        subsets = [s for s in self._candidate_subsets() if s not in self._tried]
        if not subsets:
            return []
        # Trial-and-error assembly as one executor job: the serial
        # executor evaluates candidates lazily with early exit (the
        # pre-pool behavior, op for op); the pool fans the whole candidate
        # batch across workers and keeps the first winner in subset order.
        share_lists = [[self._shares[i] for i in subset] for subset in subsets]
        result = self.executor.assemble_candidates(self.message, share_lists)
        self.attempts += result.assembled
        if result.assembled:
            self.record_op(OP_ASSEMBLE, result.assembled)
        if result.verified:
            self.record_op(OP_VERIFY_SIGNATURE, result.verified)
        if result.winner is not None:
            self._tried.update(subsets[: result.winner + 1])
            assert result.signature is not None
            self.signature = result.signature
            return [
                (BROADCAST, SigningMessage.final(self.sign_id, result.signature))
            ]
        self._tried.update(subsets)
        return []


_PROTOCOL_CLASSES = {
    PROTOCOL_BASIC: BasicSigningProtocol,
    PROTOCOL_OPTPROOF: OptProofSigningProtocol,
    PROTOCOL_OPTTE: OptTESigningProtocol,
}


def make_signing_protocol(
    name: str,
    key_share: ThresholdKeyShare,
    sign_id: str,
    message: bytes,
    executor: Optional[CryptoExecutor] = None,
    own_share: Optional[CryptoFuture] = None,
) -> SigningProtocol:
    """Instantiate a signing protocol by configuration name."""
    try:
        cls = _PROTOCOL_CLASSES[name]
    except KeyError:
        raise ConfigError(
            f"unknown signing protocol {name!r}; choose from {ALL_PROTOCOLS}"
        ) from None
    return cls(key_share, sign_id, message, executor=executor, own_share=own_share)


@dataclass
class _Prefetch:
    """In-flight speculative work for a not-yet-started signing session."""

    message: bytes
    share: CryptoFuture
    verify_shares: List[SignatureShare]
    verify: Optional[CryptoFuture]


class SigningCoordinator:
    """Multiplexes concurrent signing sessions for one replica.

    The Wrapper's signing dispatcher (§4.1) hands each SIG-record signing
    request to the coordinator; messages for sessions that have not started
    locally yet are buffered until the local state machine reaches the same
    update and calls :meth:`sign`.
    """

    def __init__(
        self,
        protocol_name: str,
        key_share: ThresholdKeyShare,
        executor: Optional[CryptoExecutor] = None,
        lookahead: int = 0,
    ) -> None:
        if protocol_name not in _PROTOCOL_CLASSES:
            raise ConfigError(f"unknown signing protocol {protocol_name!r}")
        self.protocol_name = protocol_name
        self.key_share = key_share
        self.executor: CryptoExecutor = (
            executor if executor is not None else SerialExecutor(key_share)
        )
        # Session pipelining: how many upcoming sessions the replica may
        # prefetch (session k's assembly overlaps k+1's share generation).
        self.lookahead = max(0, lookahead)
        self.max_inflight_prefetch = max(2, 2 * self.executor.clock.workers)
        self._prefetched: Dict[str, _Prefetch] = {}
        self.pipeline_stats: Dict[str, int] = {
            "prefetched": 0,  # speculative share generations submitted
            "used": 0,        # prefetches consumed by a started session
            "dropped": 0,     # refused: in-flight queue full (backpressure)
            "discarded": 0,   # stale: message changed before the session started
        }
        # Live sessions only: _finish folds a finished session's op log
        # and fallback flag into the two fields below and drops the
        # protocol object, so per-message work and memory follow the
        # sessions in flight, not the sessions ever run.
        self.sessions: Dict[str, SigningProtocol] = {}
        self._finished_ops: List[Tuple[str, int]] = []
        self._finished_fallbacks = 0
        self._pending: Dict[str, List[Tuple[int, SigningMessage]]] = {}
        self._completed: Dict[str, bytes] = {}
        # KeyTrap-style bounds on the not-yet-started buffer: a Byzantine
        # peer could otherwise stuff unbounded sign_ids (or unbounded
        # messages for one sign_id) into memory before the local state
        # machine ever starts the session.
        self.max_pending_sessions = MAX_PENDING_SESSIONS
        self.max_pending_per_session = 3 * key_share.public.n
        self.dropped_messages = 0
        # Distributed signing rounds actually started (a completed or
        # already-running sign_id does not start a new round).  Benchmarks
        # use this to show the signed-answer cache eliminating rounds.
        self.rounds_started = 0

    def prefetch(self, sign_id: str, message: bytes) -> bool:
        """Speculatively start share generation for an upcoming session.

        Returns True if a prefetch was submitted.  The in-flight queue is
        bounded; refusals bump the backpressure counter and the session
        simply generates its share on demand when it starts.
        """
        if (
            sign_id in self._completed
            or sign_id in self.sessions
            or sign_id in self._prefetched
        ):
            return False
        if len(self._prefetched) >= self.max_inflight_prefetch:
            self.pipeline_stats["dropped"] += 1
            return False
        with_proof = self.protocol_name == PROTOCOL_BASIC
        entry = _Prefetch(
            message=message,
            share=self.executor.submit_generate_share(message, with_proof=with_proof),
            verify_shares=[],
            verify=None,
        )
        if self.executor.prefers_batching:
            # Amortized verification ahead of the session: batch-check the
            # proof-carrying shares already buffered for this sign_id.
            buffered = [
                m.share
                for _, m in self._pending.get(sign_id, [])
                if m.is_share and m.share is not None and m.share.proof is not None
            ]
            buffered = buffered[: self.key_share.public.t]
            if buffered:
                entry.verify_shares = buffered
                entry.verify = self.executor.submit_verify_shares(message, buffered)
        self._prefetched[sign_id] = entry
        self.pipeline_stats["prefetched"] += 1
        return True

    def _take_prefetch(self, sign_id: str, message: bytes) -> Optional[_Prefetch]:
        entry = self._prefetched.pop(sign_id, None)
        if entry is None:
            return None
        if entry.message != message:
            self.pipeline_stats["discarded"] += 1
            return None
        self.pipeline_stats["used"] += 1
        return entry

    def sign(self, sign_id: str, message: bytes) -> List[Outgoing]:
        """Start (or resume) a signing session for ``message``."""
        if sign_id in self._completed:
            return []
        if sign_id in self.sessions:
            return []
        self.rounds_started += 1
        entry = self._take_prefetch(sign_id, message)
        protocol = make_signing_protocol(
            self.protocol_name,
            self.key_share,
            sign_id,
            message,
            executor=self.executor,
            own_share=entry.share if entry is not None else None,
        )
        self.sessions[sign_id] = protocol
        out = protocol.start()
        if entry is not None and entry.verify is not None:
            verdicts = entry.verify.result()
            if isinstance(verdicts, list):
                protocol.preload_verdicts(entry.verify_shares, verdicts)
        if self.executor.prefers_batching:
            protocol.prevalidate(
                [
                    m.share
                    for _, m in self._pending.get(sign_id, [])
                    if m.is_share and m.share is not None
                ]
            )
        for sender, msg in self._pending.pop(sign_id, []):
            if protocol.done:
                break
            out.extend(protocol.on_message(sender, msg))
        if protocol.done:
            self._finish(sign_id, protocol)
        return out

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        """Route an incoming signing message to its session."""
        if msg.sign_id in self._completed:
            return []
        protocol = self.sessions.get(msg.sign_id)
        if protocol is None:
            pending = self._pending.get(msg.sign_id)
            if pending is None:
                if len(self._pending) >= self.max_pending_sessions:
                    self.dropped_messages += 1
                    return []
                pending = self._pending[msg.sign_id] = []
            if len(pending) >= self.max_pending_per_session:
                self.dropped_messages += 1
                return []
            pending.append((sender, msg))
            return []
        out = protocol.on_message(sender, msg)
        if protocol.done:
            self._finish(msg.sign_id, protocol)
        return out

    def _finish(self, sign_id: str, protocol: SigningProtocol) -> None:
        assert protocol.signature is not None
        self._completed[sign_id] = protocol.signature
        self._prefetched.pop(sign_id, None)
        self._finished_ops.extend(protocol.drain_ops())
        if getattr(protocol, "fallback_entered", False):
            self._finished_fallbacks += 1
        del self.sessions[sign_id]

    def result(self, sign_id: str) -> Optional[bytes]:
        """The assembled signature for a completed session, if any."""
        return self._completed.get(sign_id)

    def fallback_rounds(self) -> int:
        """How many OptProof sessions were forced onto the slow path."""
        return self._finished_fallbacks + sum(
            1
            for protocol in self.sessions.values()
            if getattr(protocol, "fallback_entered", False)
        )

    def drain_ops(self) -> List[Tuple[str, int]]:
        """Collect op logs from all sessions (for simulator cost charging)."""
        ops, self._finished_ops = self._finished_ops, []
        for protocol in self.sessions.values():
            ops.extend(protocol.drain_ops())
        return ops
