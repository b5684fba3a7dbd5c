"""The three threshold-signing protocols of the paper (§3.3, §3.5).

* **BASIC** — shares are broadcast *with* a correctness proof;
  receivers verify each share and assemble ``t+1`` valid ones.
* **OptProof** — shares are broadcast *without* proofs; the first ``t+1``
  are optimistically assembled and only the final signature is verified.
  If that fails, the server asks everyone to resend shares with proofs and
  proceeds as in BASIC, while in parallel accepting a valid final
  signature from any peer.
* **OptTE** — shares are broadcast without proofs and assembly proceeds by
  trial and error over all ``t+1``-subsets of up to ``2t+1`` collected
  shares; since at most ``t`` shares are invalid, some subset succeeds.

**Who signs.**  Assembly needs ``t+1`` shares, so by default only the
*designated set* ``D(sign_id)`` — ``t+1`` replicas rotating with the
session id (:func:`designated_signers`) — signs at session start, and its
members count their own share.  Every other replica signs only on
evidence: its own assembly failed, a peer asked for proofs, or the
session timer (:meth:`SigningCoordinator.on_timeout`) expired.  A replica
whose timer expired also asks its peers for the signature, and a peer
that holds it answers.  Replicas caught with a bad proof or
missing at a timeout become *suspects* for a while: a session whose ``D``
holds one starts with every replica signing, and optimistic assembly
tries suspects' shares last.  ``signers=n`` is the paper's rule: everyone
signs at start and assembles from the first ``t+1`` shares it *receives*.
Every assembled signature is verified under the zone key before use,
whoever signed.

The protocol classes are *sans-IO*: they consume ``(sender, message)``
events and return lists of outgoing messages, so the same implementation
runs on the discrete-event simulator (benchmarks) and on the asyncio
transport (examples).  Every cryptographic operation performed is recorded
in an operation log so the simulator can charge calibrated CPU time per
operation (this is how Table 2 and Table 3 shapes are reproduced).
"""

from __future__ import annotations

import hashlib
import itertools
from dataclasses import dataclass
from typing import AbstractSet, Dict, Iterator, List, Optional, Set, Tuple

from repro.crypto.executor import (
    OP_ASSEMBLE,
    OP_GENERATE_PROOF,
    OP_GENERATE_SHARE,
    OP_VERIFY_SHARE,
    OP_VERIFY_SIGNATURE,
    CryptoExecutor,
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

#: Cap on buffered not-yet-started signing sessions per coordinator; one
#: sender may open at most ``MAX_PENDING_SESSIONS // n`` of them.
MAX_PENDING_SESSIONS = 4096
#: Buffered messages per (not-yet-started session, sender): an honest
#: replica sends at most a bare share, a proof-carrying share and either a
#: proof request or a FINAL (DESIGN.md §5m names the one exception).
MAX_BUFFERED_PER_SENDER = 3
#: Sessions whose own share a coordinator may generate ahead of time.
MAX_INFLIGHT_PREFETCH = 2
#: Sessions a first suspicion lasts; each repeat offence doubles it.  A
#: transient fault so costs a bounded number of all-sign sessions, and a
#: replica that stays faulty is re-tested ever more rarely.
SUSPICION_SESSIONS = 32

_MSG_SHARE = 1
_MSG_PROOF_REQUEST = 2
_MSG_FINAL = 3
_MSG_SIGNATURE_REQUEST = 4


@dataclass(frozen=True)
class SigningMessage:
    """Wire message of the signing protocols.

    ``kind`` is one of share / proof-request / final / signature-request
    (a replica whose session timer expired asks for the FINAL);
    ``sign_id`` names the signing session (derived from the record being
    signed, identical on every replica).
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

    @classmethod
    def signature_request(cls, sign_id: str) -> "SigningMessage":
        return cls(kind=_MSG_SIGNATURE_REQUEST, sign_id=sign_id)

    @property
    def is_share(self) -> bool:
        return self.kind == _MSG_SHARE

    @property
    def is_proof_request(self) -> bool:
        return self.kind == _MSG_PROOF_REQUEST

    @property
    def is_final(self) -> bool:
        return self.kind == _MSG_FINAL

    @property
    def is_signature_request(self) -> bool:
        return self.kind == _MSG_SIGNATURE_REQUEST


Outgoing = Tuple[int, SigningMessage]  # (destination replica id or BROADCAST, msg)


def designated_signers(sign_id: str, n: int, size: int) -> Tuple[int, ...]:
    """``D(sign_id)``: the ``size`` replicas (0-based ids) that sign first.

    The set starts at ``sha256(sign_id) mod n`` and wraps around the ring,
    so every replica computes the same set from the session id alone and
    successive sessions spread the signing load.
    """
    start = int.from_bytes(hashlib.sha256(sign_id.encode()).digest(), "big") % n
    return tuple((start + k) % n for k in range(size))


class SigningProtocol:
    """Base class: one instance per replica per signing session.

    The coordinator sets the designated-set policy; the defaults are the
    paper's rule.  ``eager``: send our share at :meth:`start`, otherwise
    only on evidence (:meth:`_release`).  ``own_counts``: our share joins
    the assembly pool.  ``suspects``: replicas whose shares optimistic
    assembly leaves out until the session timer has expired.
    """

    name = "abstract"
    #: Whether this protocol's own share carries a proof from the start.
    own_proof = False

    def __init__(
        self,
        key_share: ThresholdKeyShare,
        sign_id: str,
        message: bytes,
        executor: Optional[CryptoExecutor] = None,
        own_share: Optional[SignatureShare] = None,
        eager: bool = True,
        own_counts: bool = False,
        suspects: AbstractSet[int] = frozenset(),
    ) -> None:
        self.key_share = key_share
        self.public: ThresholdPublicKey = key_share.public
        self.sign_id = sign_id
        self.message = message
        self.executor: CryptoExecutor = (
            executor if executor is not None else CryptoExecutor(key_share)
        )
        self.signature: Optional[bytes] = None
        self._ops: List[Tuple[str, int]] = []
        self._shares: Dict[int, SignatureShare] = {}
        self._arrival_order: List[int] = []
        # Speculatively generated own share (coordinator pipelining).
        self._own_prefetched = own_share
        # Memoized proof-check verdicts, keyed by the (frozen) share.
        # Populated by _share_valid; bounded by _store_share's
        # one-share-per-replica rule plus the coordinator's pre-session
        # buffer caps.
        self._preverified: Dict[SignatureShare, bool] = {}
        self._started = False
        self._eager = eager
        self._own_counts = own_counts
        self._suspects = suspects
        self._expired = False
        self._own: Optional[SignatureShare] = None
        #: Senders whose proof-carrying share failed verification; the
        #: coordinator folds them into its suspicion set.
        self.bad_senders: Set[int] = set()
        #: Senders whose FINAL this session has already checked.
        self.final_senders: Set[int] = set()
        #: Peers that asked for the signature before we finished; they
        #: get our FINAL when we do.
        self.waiting: Set[int] = set()

    # -- lifecycle ----------------------------------------------------------

    @property
    def done(self) -> bool:
        return self.signature is not None

    @property
    def me(self) -> int:
        """This replica's 0-based id."""
        return self.key_share.index - 1

    def start(self) -> List[Outgoing]:
        """Start the session: an eager replica sends its share now."""
        if self._started:
            return []
        self._started = True
        if not self._eager:
            return []
        out = self._release()
        out.extend(self._progress())
        return out

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        """Feed a received protocol message; returns messages to send."""
        raise NotImplementedError

    def on_timeout(self) -> List[Outgoing]:
        """The session timer expired unsigned: sign, and trust suspects again."""
        if self.done:
            return []
        self._expired = True
        out = self._release()
        out.extend(self._progress())
        return out

    def has_share_from(self, replica: int) -> bool:
        return replica + 1 in self._shares

    def _progress(self) -> List[Outgoing]:
        """Try to finish with the shares at hand."""
        raise NotImplementedError

    # -- op accounting --------------------------------------------------------

    def record_op(self, op: str, count: int = 1) -> None:
        self._ops.append((op, count))

    def drain_ops(self) -> List[Tuple[str, int]]:
        """Return and clear the log of crypto ops performed since last call."""
        ops, self._ops = self._ops, []
        return ops

    # -- shared helpers -------------------------------------------------------

    def _release(self) -> List[Outgoing]:
        """Generate and broadcast our own share, once per session."""
        if self._own is not None:
            return []
        share = self._materialize_own_share(with_proof=self.own_proof)
        self.record_op(OP_GENERATE_SHARE)
        if self.own_proof:
            self.record_op(OP_GENERATE_PROOF)
        self._own = share
        self._keep_own(share)
        return [(BROADCAST, SigningMessage.share_message(self.sign_id, share))]

    def _keep_own(self, share: SignatureShare) -> None:
        """Pool our own share if it counts toward ``t+1``."""
        if self._own_counts:
            self._store_share(self.me, share)

    def _trusted_first(self, indices: List[int]) -> List[int]:
        """``indices`` without suspects' shares, or with them moved last
        once the session timer has expired."""
        if not self._suspects:
            return indices
        trusted = [i for i in indices if i - 1 not in self._suspects]
        if self._expired:
            trusted.extend(i for i in indices if i - 1 in self._suspects)
        return trusted

    def _accept_final(self, msg: SigningMessage) -> bool:
        """Validate and adopt a final signature received from a peer."""
        self.record_op(OP_VERIFY_SIGNATURE)
        if self.executor.verify_signature(self.message, msg.signature):
            self.signature = msg.signature
            return True
        return False

    def _materialize_own_share(self, with_proof: bool) -> SignatureShare:
        """Our own share: take the pipelined prefetch or generate now."""
        share = self._own_prefetched
        if share is not None:
            self._own_prefetched = None
            if with_proof and share.proof is None:
                # Prefetched bare but the protocol wants a proof —
                # finish the job rather than redo it.
                proof = self.executor.generate_proof(self.message, share)
                share = share.with_proof(proof)
            return share
        return self.executor.generate_share(self.message, with_proof=with_proof)

    def _note_verdict(self, share: SignatureShare, ok: bool) -> None:
        self._preverified[share] = ok
        if not ok:
            self.bad_senders.add(share.index - 1)

    def _share_valid(self, share: SignatureShare) -> bool:
        """Proof-check one share through the executor, memoizing the verdict."""
        cached = self._preverified.get(share)
        if cached is None:
            self.record_op(OP_VERIFY_SHARE)
            cached = self.executor.verify_shares(self.message, [share])[0]
            self._note_verdict(share, cached)
        return cached

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
    own_proof = True

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._valid: Dict[int, SignatureShare] = {}

    def _keep_own(self, share: SignatureShare) -> None:
        # Our own share is trusted without verification (we computed it);
        # _try_finish revalidates it defensively if assembly ever fails.
        self._valid[share.index] = share

    def _progress(self) -> List[Outgoing]:
        return self._try_finish()

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
        out: List[Outgoing] = []
        if self._share_valid(msg.share):
            # Bounded: _store_share pins index == sender + 1 <= n, so at
            # most one entry per replica.
            # repro-lint: disable=C304
            self._valid[msg.share.index] = msg.share
        else:
            # Evidence that a signer is bad: sign too, if we have not yet.
            out = self._release()
        out.extend(self._try_finish())
        return out

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
        own = self._valid.get(self._own.index) if self._own is not None else None
        if own is not None:
            self.record_op(OP_VERIFY_SHARE)
            if not self.executor.verify_shares(self.message, [own])[0]:
                del self._valid[own.index]
        return []


class OptProofSigningProtocol(SigningProtocol):
    """Optimistic protocol with proofs generated/verified only on demand."""

    name = PROTOCOL_OPTPROOF

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._fallback = False
        self._valid: Dict[int, SignatureShare] = {}
        self._optimistic_tried = False
        # The shares a failed optimistic assembly used, until _blame
        # pins the failure on one of them.
        self._failed_set: List[SignatureShare] = []

    @property
    def fallback_entered(self) -> bool:
        """True once optimistic assembly failed and the proof phase started.

        The chaos harness asserts on this: a share-withholding or
        bad-share schedule must demonstrably force the slow path.
        """
        return self._fallback

    def _progress(self) -> List[Outgoing]:
        return [] if self._fallback else self._try_optimistic()

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        if self.done:
            return []
        if msg.is_final:
            self._accept_final(msg)
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
        """Assemble the first ``t+1`` bare shares and verify the result.

        With the paper's rule the pool holds the shares *received* (§3.5);
        with a designated set it also holds our own, and suspects' shares
        wait until the session timer has expired.
        """
        needed = self.public.t + 1
        if self._optimistic_tried:
            return []
        pool = self._trusted_first(list(self._shares))
        if len(pool) < needed:
            return []
        self._optimistic_tried = True
        shares = [self._shares[i] for i in pool[:needed]]
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
        self._failed_set = shares
        out: List[Outgoing] = [
            (BROADCAST, SigningMessage.proof_request(self.sign_id))
        ]
        out.extend(self._answer_proof_request())
        self._blame()
        # Re-examine shares that already carry proofs (none yet, typically).
        for share in list(self._shares.values()):
            out.extend(self._try_fallback(share))
        return out

    def _answer_proof_request(self) -> List[Outgoing]:
        """Send our share with a correctness proof attached.

        A replica that has not signed yet signs now: a proof request is
        evidence that optimistic assembly failed somewhere.
        """
        if self._own is None:
            self._own = self._materialize_own_share(with_proof=False)
            self.record_op(OP_GENERATE_SHARE)
        if self._own.proof is None:
            proof = self.executor.generate_proof(self.message, self._own)
            self.record_op(OP_GENERATE_PROOF)
            self._own = self._own.with_proof(proof)
            self._store_share(self.me, self._own)
            self._valid[self._own.index] = self._own
        return [
            (BROADCAST, SigningMessage.share_message(self.sign_id, self._own))
        ]

    def _blame(self) -> None:
        """Pin the failed optimistic assembly on its one unproven share.

        ``t+1`` valid shares always assemble the valid signature, so once
        every other share of the failed set is known valid (our own, or
        proof-checked with the same value) the last one must be bad.
        """
        unproven = [
            s
            for s in self._failed_set
            if s.index not in self._valid or self._valid[s.index].value != s.value
        ]
        if len(unproven) == 1:
            self.bad_senders.add(unproven[0].index - 1)
            self._failed_set = []

    def _try_fallback(self, share: SignatureShare) -> List[Outgoing]:
        """BASIC-style verified processing of proof-carrying shares."""
        if share.proof is None or share.index in self._valid:
            return []
        if not self._share_valid(share):
            return []
        self._valid[share.index] = share
        self._blame()
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
            own = self._own
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

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._tried: Set[Tuple[int, ...]] = set()
        # Subset-assembly attempts actually evaluated (exposed for the A4
        # ablation bench).
        self.attempts = 0

    def _progress(self) -> List[Outgoing]:
        return self._try_subsets()

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
        indices = self._trusted_first(self._arrival_order)[:limit]
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
        # Trial-and-error assembly, in subset order with early exit.
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
        # Every subset failed, so some share is bad: sign too, and retry
        # with our share in the pool.
        out = self._release()
        if out:
            out.extend(self._try_subsets())
        return out


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
    own_share: Optional[SignatureShare] = None,
    eager: bool = True,
    own_counts: bool = False,
    suspects: AbstractSet[int] = frozenset(),
) -> SigningProtocol:
    """Instantiate a signing protocol by configuration name."""
    try:
        cls = _PROTOCOL_CLASSES[name]
    except KeyError:
        raise ConfigError(
            f"unknown signing protocol {name!r}; choose from {ALL_PROTOCOLS}"
        ) from None
    return cls(
        key_share, sign_id, message, executor=executor, own_share=own_share,
        eager=eager, own_counts=own_counts, suspects=suspects,
    )


@dataclass(frozen=True)
class _Prefetch:
    """A share generated ahead of its not-yet-started signing session."""

    message: bytes
    share: SignatureShare


class SigningCoordinator:
    """Multiplexes concurrent signing sessions for one replica.

    The Wrapper's signing dispatcher (§4.1) hands each SIG-record signing
    request to the coordinator; messages for sessions that have not started
    locally yet are buffered until the local state machine reaches the same
    update and calls :meth:`sign`.

    ``signers`` is the size of the designated set: ``t+1`` (the default)
    or ``n``, the paper's everyone-signs rule.  With ``t+1`` the host arms
    a timer per live session and calls :meth:`on_timeout` when it fires;
    with ``n`` no timer is needed.
    """

    def __init__(
        self,
        protocol_name: str,
        key_share: ThresholdKeyShare,
        lookahead: int = 0,
        signers: Optional[int] = None,
    ) -> None:
        if protocol_name not in _PROTOCOL_CLASSES:
            raise ConfigError(f"unknown signing protocol {protocol_name!r}")
        self.protocol_name = protocol_name
        self.key_share = key_share
        self.n = key_share.public.n
        self.t = key_share.public.t
        self.me = key_share.index - 1
        self.signers = signers if signers is not None else self.t + 1
        if self.signers != self.t + 1 and self.signers != self.n:
            raise ConfigError(
                f"signers={self.signers}: must be t+1 = {self.t + 1} or n = {self.n}"
            )
        #: The paper's rule: everyone signs at start, no suspicion, no timer.
        self.all_sign = self.signers == self.n
        self.executor = CryptoExecutor(key_share)
        # Session pipelining: how many upcoming sessions the replica may
        # prefetch (their shares are generated while session k waits for
        # its peers' shares).
        self.lookahead = max(0, lookahead)
        self.max_inflight_prefetch = MAX_INFLIGHT_PREFETCH
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
        # Buffered sessions each sender opened (its first message there).
        self._opened: Dict[int, int] = {}
        self._completed: Dict[str, bytes] = {}
        # Suspicion (DESIGN.md §5m): replica -> (the session count at
        # which it lapses, its current length).  Replicas caught with a
        # bad share or missing from their designated set at a timeout;
        # ids other than ours, so fewer than n entries.
        self._suspicion: Dict[int, Tuple[int, int]] = {}
        # KeyTrap-style bounds on the not-yet-started buffer: a Byzantine
        # peer could otherwise stuff unbounded sign_ids (or unbounded
        # messages for one sign_id) into memory before the local state
        # machine ever starts the session, or crowd out honest peers.
        self.max_pending_sessions = MAX_PENDING_SESSIONS
        self.max_pending_sessions_per_sender = MAX_PENDING_SESSIONS // self.n
        self.dropped_messages = 0
        self.stats: Dict[str, int] = {
            "share_timeouts": 0,     # sessions whose timer expired unsigned
            "session_refusals": 0,   # buffered session refused: sender over quota
            "final_refusals": 0,     # repeated FINAL from one sender, unchecked
        }
        # Distributed signing rounds actually started (a completed or
        # already-running sign_id does not start a new round).  Benchmarks
        # use this to show the signed-answer cache eliminating rounds.
        self.rounds_started = 0

    # -- the designated set ---------------------------------------------------

    def designated(self, sign_id: str) -> Tuple[int, ...]:
        return designated_signers(sign_id, self.n, self.signers)

    @property
    def suspects(self) -> Set[int]:
        """Replicas suspected now: their suspicion has not lapsed yet."""
        return {
            replica
            for replica, (until, _) in self._suspicion.items()
            if until > self.rounds_started
        }

    def signs_at_start(self, sign_id: str) -> bool:
        """Whether this replica sends its share when the session starts.

        Members of ``D`` do, and so does everyone when ``D`` holds a
        suspect.
        """
        if self.all_sign:
            return True
        members = self.designated(sign_id)
        suspects = self.suspects
        return self.me in members or any(m in suspects for m in members)

    def _suspect(self, replica: int) -> None:
        """Suspect ``replica`` for the next sessions; a replica suspected
        again after its suspicion lapsed is suspected twice as long."""
        if replica == self.me or not 0 <= replica < self.n:
            return
        until, length = self._suspicion.get(replica, (0, 0))
        if until > self.rounds_started:
            return
        length = 2 * length if length else SUSPICION_SESSIONS
        self._suspicion[replica] = (self.rounds_started + length, length)

    # -- sessions -------------------------------------------------------------

    def prefetch(self, sign_id: str, message: bytes) -> bool:
        """Speculatively start share generation for an upcoming session.

        Returns True if a prefetch was submitted.  Only sessions this
        replica signs at start are prefetched.  The in-flight queue is
        bounded; refusals bump the backpressure counter and the session
        simply generates its share on demand when it starts.
        """
        if (
            sign_id in self._completed
            or sign_id in self.sessions
            or sign_id in self._prefetched
            or not self.signs_at_start(sign_id)
        ):
            return False
        if len(self._prefetched) >= self.max_inflight_prefetch:
            self.pipeline_stats["dropped"] += 1
            return False
        with_proof = self.protocol_name == PROTOCOL_BASIC
        self._prefetched[sign_id] = _Prefetch(
            message=message,
            share=self.executor.generate_share(message, with_proof=with_proof),
        )
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
            eager=self.signs_at_start(sign_id),
            own_counts=not self.all_sign,
            suspects=frozenset() if self.all_sign else frozenset(self.suspects),
        )
        self.sessions[sign_id] = protocol
        out = protocol.start()
        buffered = self._pending.pop(sign_id, [])
        if buffered:
            # The first buffered message's sender opened the session.
            opener = buffered[0][0]
            self._opened[opener] -= 1
            if not self._opened[opener]:
                del self._opened[opener]
        for sender, msg in buffered:
            if protocol.done:
                break
            out.extend(self._deliver(protocol, sender, msg))
        self._settle(sign_id, protocol, out)
        return out

    def on_message(self, sender: int, msg: SigningMessage) -> List[Outgoing]:
        """Route an incoming signing message to its session."""
        if not 0 <= sender < self.n:
            self.dropped_messages += 1
            return []
        if msg.sign_id in self._completed:
            if msg.is_signature_request:
                signature = self._completed[msg.sign_id]
                return [(sender, SigningMessage.final(msg.sign_id, signature))]
            return []
        protocol = self.sessions.get(msg.sign_id)
        if protocol is None:
            self._buffer(sender, msg)
            return []
        out = self._deliver(protocol, sender, msg)
        self._settle(msg.sign_id, protocol, out)
        return out

    def on_timeout(self, sign_id: str) -> List[Outgoing]:
        """The host's session timer fired: sign, and ask for the signature.

        Members of ``D`` whose share has not arrived become suspects.  A
        peer that finished without our share answers the signature request
        with its FINAL, and one still signing answers when it finishes, so
        a replica that some signers withheld from alone still finishes.
        """
        if sign_id not in self.sessions:
            return []
        protocol = self.sessions[sign_id]
        self.stats["share_timeouts"] += 1
        if not self.all_sign:
            for member in self.designated(sign_id):
                if not protocol.has_share_from(member):
                    self._suspect(member)
        out = protocol.on_timeout()
        if not self.all_sign and not protocol.done:
            out.append((BROADCAST, SigningMessage.signature_request(sign_id)))
        self._settle(sign_id, protocol, out)
        return out

    def _buffer(self, sender: int, msg: SigningMessage) -> None:
        """Hold a message for a session that has not started here yet.

        Each sender gets its own quota of sessions and of messages per
        session, so one Byzantine peer cannot crowd out honest early
        shares (which, with ``t+1`` signers, would cost a whole timer).
        """
        pending = self._pending.get(msg.sign_id)
        if pending is None:
            if len(self._pending) >= self.max_pending_sessions:
                self.dropped_messages += 1
                return
            opened = self._opened.get(sender, 0)
            if opened >= self.max_pending_sessions_per_sender:
                self.stats["session_refusals"] += 1
                self.dropped_messages += 1
                return
            self._opened[sender] = opened + 1
            pending = self._pending[msg.sign_id] = []
        mine = [m for s, m in pending if s == sender]
        if len(mine) >= MAX_BUFFERED_PER_SENDER or msg in mine:
            self.dropped_messages += 1
            return
        pending.append((sender, msg))

    def _deliver(
        self, protocol: SigningProtocol, sender: int, msg: SigningMessage
    ) -> List[Outgoing]:
        if msg.is_final:
            # Each FINAL costs an RSA verification: check one per sender.
            if sender in protocol.final_senders:
                self.stats["final_refusals"] += 1
                return []
            protocol.final_senders.add(sender)
        elif msg.is_signature_request:
            protocol.waiting.add(sender)
            return []
        return protocol.on_message(sender, msg)

    def _settle(
        self, sign_id: str, protocol: SigningProtocol, out: List[Outgoing]
    ) -> None:
        """Fold the session's evidence into suspicion and retire it if
        done; peers waiting on it get the FINAL unless ``out``, the
        session's last output, already broadcasts it."""
        for replica in protocol.bad_senders:
            self._suspect(replica)
        protocol.bad_senders.clear()
        if not protocol.done:
            return
        self._finish(sign_id, protocol)
        if protocol.waiting and not any(
            dest == BROADCAST and msg.is_final for dest, msg in out
        ):
            assert protocol.signature is not None
            final = SigningMessage.final(sign_id, protocol.signature)
            out.extend((peer, final) for peer in sorted(protocol.waiting))

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
