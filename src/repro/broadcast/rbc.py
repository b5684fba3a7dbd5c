"""Bracha reliable broadcast with digest votes and erasure dissemination.

Guarantees that if any honest replica delivers a payload for a session,
every honest replica eventually delivers the *same* payload — even if the
broadcaster is Byzantine.  Used by the fall-back path of the atomic
broadcast and available as a building block in its own right (SINTRA
exposed the same primitive).

Three dissemination modes (DESIGN.md §5i), selected per multiplexer:

``full``
    The classic textbook shape: ``SEND(m)`` to all, ``ECHO(m)`` carries
    the whole payload all-to-all — O(n²·|m|) network traffic.  Kept as
    the measured baseline.
``digest`` (default)
    ``SEND(m)`` ships the payload once; ``ECHO``/``READY`` are 32-byte
    digest votes.  A replica that reaches the ready quorum without the
    payload (Byzantine sender withheld its SEND) *pulls* it from an echo
    voter, with a retry/timeout fallback cycling through candidates —
    per-replica vote traffic drops from O(n·|m|) to O(n) hashes.
``erasure``
    AVID-M dispersal: the sender Reed-Solomon-encodes the payload into
    ``n`` fragments (any ``k = n - 2t`` reconstruct), Merkle-proves each
    against a fragment-tree root, and ships fragment ``i`` to replica
    ``i`` only.  Each replica forwards its own proof-valid fragment once
    (the erasure echo, |m|/k per link), votes on the *root*, and
    reconstructs from any ``k`` stored fragments.  A reconstruction is
    re-encoded and checked against the root, so an inconsistently
    encoded batch is rejected identically everywhere.  No link ever
    carries the whole payload.

Vote quorums are shared across modes (n > 3t):

1. on the first valid payload introduction: echo (vote) once;
2. on ``n - t`` matching echo votes (or ``t + 1`` ``READY``\\ s):
   broadcast ``READY(digest)``;
3. on ``2t + 1`` matching ``READY``\\ s: deliver once the payload is
   present (pulling or reconstructing it if not).
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.broadcast.messages import (
    MerkleProof,
    PayloadPull,
    PayloadReply,
    RbcEcho,
    RbcEchoDigest,
    RbcFrag,
    RbcReady,
    RbcSend,
    RbcVal,
)
from repro.broadcast.recovery import PayloadRecovery, PullKey
from repro.crypto.merkle import merkle_proof, merkle_root, merkle_verify
from repro.errors import ConfigError
from repro.util.erasure import ErasureError, rs_encode, rs_decode

Outgoing = Tuple[int, object]
BROADCAST = -1

#: Dissemination modes accepted by :class:`ReliableBroadcast`.
RBC_MODES = ("full", "digest", "erasure")


def _digest(payload: bytes) -> bytes:
    return hashlib.sha256(payload).digest()


class RbcInstance:
    """State of one reliable-broadcast session at one replica.

    Resource bound (KeyTrap class): an honest replica votes for exactly
    one digest per vote type per session, so each sender may introduce at
    most one echo digest and one ready digest — a second distinct digest
    from the same sender is equivocation and is ignored outright.  That
    caps tracked digests at ``n`` per vote type per instance, and (in
    erasure mode) tracked fragment groups at ``n`` roots of at most ``n``
    index slots each, without any first-come global limit a flooder could
    exhaust before honest votes arrive.
    """

    def __init__(self, n: int, t: int, me: int, sid: str, mode: str = "digest") -> None:
        self.n = n
        self.t = t
        self.me = me
        self.sid = sid
        self.mode = mode
        self.k = n - 2 * t  # erasure reconstruction threshold
        self.delivered: Optional[bytes] = None
        #: Digest (or fragment root) this replica wants to pull, set when
        #: the ready quorum formed before the payload arrived.  The
        #: multiplexer owns the retry schedule.
        self.want_pull: Optional[bytes] = None
        self._echoes: Dict[bytes, Set[int]] = {}
        self._readies: Dict[bytes, Set[int]] = {}
        self._payload_by_digest: Dict[bytes, bytes] = {}
        self._echo_digest: Dict[int, bytes] = {}   # sender -> echoed digest
        self._ready_digest: Dict[int, bytes] = {}  # sender -> readied digest
        #: root -> {fragment index -> (fragment, proof)}; bounded to the
        #: <= n roots admitted by the per-sender echo guard.
        self._frags: Dict[bytes, Dict[int, Tuple[bytes, MerkleProof]]] = {}
        #: Roots whose reconstruction failed the re-encode check: the
        #: sender encoded inconsistently, so no honest replica delivers.
        self._bad_roots: Set[bytes] = set()
        self._sent_echo = False
        self._sent_ready = False

    # -- sender side ----------------------------------------------------------

    def start(self, payload: bytes) -> List[Outgoing]:
        """Full/digest modes: ship the payload once via SEND."""
        return [(BROADCAST, RbcSend(self.sid, payload))]

    def disperse(self, payload: bytes) -> List[Outgoing]:
        """Erasure mode: one proof-carrying fragment per replica."""
        frags = rs_encode(payload, self.k, self.n)
        root = merkle_root(frags)
        self._payload_by_digest[root] = payload  # sender serves pulls
        return [
            (i, RbcVal(self.sid, root, i, frags[i], merkle_proof(frags, i)))
            for i in range(self.n)
        ]

    # -- dispatch -------------------------------------------------------------

    def on_message(self, sender: int, msg: object) -> List[Outgoing]:
        out: List[Outgoing] = []
        if isinstance(msg, RbcSend):
            out.extend(self._on_send(sender, msg))
        elif isinstance(msg, RbcEcho):
            out.extend(self._on_echo(sender, msg))
        elif isinstance(msg, RbcEchoDigest):
            out.extend(self._on_echo_digest(sender, msg))
        elif isinstance(msg, RbcVal):
            out.extend(self._on_val(sender, msg))
        elif isinstance(msg, RbcFrag):
            out.extend(self._on_frag(sender, msg))
        elif isinstance(msg, RbcReady):
            out.extend(self._on_ready(sender, msg))
        return out

    # -- payload introduction -------------------------------------------------

    def _on_send(self, sender: int, msg: RbcSend) -> List[Outgoing]:
        if self._sent_echo:
            return []
        self._sent_echo = True
        digest = _digest(msg.payload)
        # Bounded: guarded by _sent_echo — at most one store per instance.
        # repro-lint: disable=C304
        self._payload_by_digest[digest] = msg.payload
        if self.mode == "full":
            echo = RbcEcho(self.sid, msg.payload)
            return [(BROADCAST, echo)] + self._on_echo(self.me, echo)
        vote = RbcEchoDigest(self.sid, digest)
        return [(BROADCAST, vote)] + self._count_echo(self.me, digest)

    def _on_echo(self, sender: int, msg: RbcEcho) -> List[Outgoing]:
        digest = _digest(msg.payload)
        prev = self._echo_digest.get(sender)
        if prev is not None and prev != digest:
            return []  # equivocating echo: vote and payload dropped
        # Bounded: the per-sender guard above admits one digest per
        # sender, so at most n payloads are retained per instance.
        # repro-lint: disable=C304
        self._payload_by_digest[digest] = msg.payload
        return self._count_echo(sender, digest)

    def _on_echo_digest(self, sender: int, msg: RbcEchoDigest) -> List[Outgoing]:
        return self._count_echo(sender, msg.digest)

    def _on_val(self, sender: int, msg: RbcVal) -> List[Outgoing]:
        if self._sent_echo:
            return []
        if not 0 <= msg.index < self.n:  # repro-quorum: identity-bound
            return []
        if msg.index != self.me:
            return []  # dispersal addresses fragment i to replica i
        if not merkle_verify(msg.root, msg.fragment, msg.proof):
            return []
        self._sent_echo = True
        frag = RbcFrag(self.sid, msg.root, msg.index, msg.fragment, msg.proof)
        return [(BROADCAST, frag)] + self._on_frag(self.me, frag)

    def _on_frag(self, sender: int, msg: RbcFrag) -> List[Outgoing]:
        if not 0 <= msg.index < self.n:  # repro-quorum: identity-bound
            return []
        if msg.root in self._bad_roots:
            return []
        if not merkle_verify(msg.root, msg.fragment, msg.proof):
            return []
        out = self._count_echo(sender, msg.root)
        if self._echo_digest.get(sender) != msg.root:
            return out  # equivocating sender: fragment dropped with vote
        # Bounded: one root per sender (guard above) caps _frags at n
        # groups; the index identity bound caps each group at n slots.
        group = self._frags.setdefault(msg.root, {})
        if msg.index not in group:
            group[msg.index] = (msg.fragment, msg.proof)
        # A replica the sender skipped (withheld VAL) adopts the root once
        # t+1 distinct replicas vouch proof-valid fragments for it — at
        # least one honest — and pulls the missing fragments early.
        if (
            len(self._echoes.get(msg.root, ())) >= self.t + 1  # repro-quorum: amplify
            and not self._sent_echo
            and self.want_pull is None
            and self.delivered is None
        ):
            self.want_pull = msg.root
        self._maybe_complete(msg.root)
        return out

    # -- vote counting --------------------------------------------------------

    def _count_echo(self, sender: int, digest: bytes) -> List[Outgoing]:
        prev = self._echo_digest.get(sender)
        if prev is not None and prev != digest:
            return []  # one echo digest per sender (equivocation guard)
        self._echo_digest[sender] = digest
        # Bounded: the per-sender equivocation guard above admits at most
        # one digest per sender, so _echoes holds <= n keys per instance.
        # repro-lint: disable=T404
        voters = self._echoes.setdefault(digest, set())
        if sender in voters:
            return []
        voters.add(sender)
        # Bracha's echo quorum must pairwise-intersect in an honest
        # replica for *every* n >= 3t+1: that is n-t (2*(n-t) - n =
        # n - 2t >= t+1), not 2t+1, which only intersects at n == 3t+1.
        if len(voters) >= self.n - self.t and not self._sent_ready:  # repro-quorum: intersect
            return self._send_ready(digest)
        return []

    def _on_ready(self, sender: int, msg: RbcReady) -> List[Outgoing]:
        # One ready digest per sender (honest replicas ready exactly one);
        # equivocating readies are dropped, bounding tracked digests at n.
        prev = self._ready_digest.get(sender)
        if prev is not None and prev != msg.digest:
            return []
        self._ready_digest[sender] = msg.digest
        # Bounded: the per-sender equivocation guard above admits at most
        # one digest per sender, so _readies holds <= n keys.
        # repro-lint: disable=T404
        voters = self._readies.setdefault(msg.digest, set())
        if sender in voters:
            return []
        voters.add(sender)
        out: List[Outgoing] = []
        if len(voters) >= self.t + 1 and not self._sent_ready:
            out.extend(self._send_ready(msg.digest))
        self._maybe_complete(msg.digest)
        return out

    def _send_ready(self, digest: bytes) -> List[Outgoing]:
        self._sent_ready = True
        ready = RbcReady(self.sid, digest)
        out: List[Outgoing] = [(BROADCAST, ready)]
        out.extend(self._on_ready(self.me, ready))
        return out

    def _ready_quorum(self, digest: bytes) -> bool:
        # 2t+1 readies guarantee t+1 honest ones, and t+1 honest readies
        # block any conflicting digest from ever reaching its own quorum.
        return len(self._readies.get(digest, ())) >= 2 * self.t + 1  # repro-quorum: honest-majority

    # -- delivery / reconstruction / pull -------------------------------------

    def _maybe_complete(self, digest: bytes) -> None:
        """Deliver once the ready quorum holds and the payload is known."""
        if self.delivered is not None or digest in self._bad_roots:
            return
        if not self._ready_quorum(digest):
            return
        payload = self._payload_by_digest.get(digest)
        if payload is None and digest in self._frags:
            payload = self._reconstruct(digest)
        if payload is not None:
            self.delivered = payload
            return
        if self.want_pull is None:
            self.want_pull = digest

    def _reconstruct(self, root: bytes) -> Optional[bytes]:
        """Erasure decode + AVID-M consistency check for one root."""
        group = self._frags.get(root, {})
        if len(group) < self.n - 2 * self.t:  # repro-quorum: reconstruct
            return None
        try:
            payload = rs_decode(
                {i: frag for i, (frag, _proof) in group.items()}, self.k, self.n
            )
        except ErasureError:
            self._bad_roots.add(root)
            return None
        # Re-encode and compare roots: either every fragment equals the
        # re-encoding (all honest subsets decode this same payload) or
        # the sender encoded inconsistently and *no* honest replica
        # delivers — the same verdict from any k-subset.
        if merkle_root(rs_encode(payload, self.k, self.n)) != root:  # repro-quorum: declared
            self._bad_roots.add(root)
            return None
        self._payload_by_digest[root] = payload
        return payload

    def pull_candidates(self) -> List[int]:
        """Echo voters for the wanted digest — they held the payload (or
        a fragment of it) when they voted; deterministic order."""
        if self.want_pull is None:
            return []
        return sorted(self._echoes.get(self.want_pull, set()) - {self.me})

    def pull_reply(self, digest: bytes) -> List[object]:
        """A puller gets the payload, else the stored fragments, else []."""
        payload = self._payload_by_digest.get(digest)
        if payload is not None:
            return [PayloadReply(self.sid, digest, payload)]
        return [
            RbcFrag(self.sid, digest, idx, frag, proof)
            for idx, (frag, proof) in sorted(self._frags.get(digest, {}).items())
        ]

    def _payload_matches(self, key: PullKey, payload: bytes) -> bool:
        digest = key[1]  # the awaited digest or fragment root
        if _digest(payload) == digest:
            return True
        if self.mode == "erasure" or digest in self._frags:
            # The awaited digest may be a fragment-tree root.
            return merkle_root(rs_encode(payload, self.k, self.n)) == digest  # repro-quorum: declared
        return False


class ReliableBroadcast:
    """Session multiplexer: one per replica, any number of concurrent sids.

    ``schedule(delay, thunk)`` / ``emit(outgoing)`` drive the pull chains
    of :mod:`repro.broadcast.recovery`.  Without them, a needed pull is one
    burst to every echo voter: correct (>= t+1 are honest), less frugal.
    """

    def __init__(
        self,
        n: int,
        t: int,
        me: int,
        deliver: Callable[[str, bytes], None],
        mode: str = "digest",
        schedule: Optional[Callable[[float, Callable[[], None]], object]] = None,
        emit: Optional[Callable[[List[Outgoing]], None]] = None,
    ) -> None:
        if n <= 3 * t:
            raise ConfigError("reliable broadcast requires n > 3t")
        if mode not in RBC_MODES:
            raise ConfigError(f"unknown rbc mode {mode!r} (want {RBC_MODES})")
        self.n = n
        self.t = t
        self.me = me
        self.mode = mode
        self._deliver = deliver
        self._instances: Dict[str, RbcInstance] = {}
        self.stats: Dict[str, int] = {}
        self._recovery = PayloadRecovery(
            n, me, self.stats, self._serve_pull, schedule, emit
        )

    def _instance(self, sid: str) -> RbcInstance:
        if sid not in self._instances:
            self._instances[sid] = RbcInstance(
                self.n, self.t, self.me, sid, self.mode
            )
        return self._instances[sid]

    def broadcast(self, sid: str, payload: bytes) -> List[Outgoing]:
        instance = self._instance(sid)
        if self.mode == "erasure":
            out: List[Outgoing] = []
            for dest, msg in instance.disperse(payload):
                if dest == self.me:
                    out.extend(self.on_message(self.me, msg))
                else:
                    out.append((dest, msg))
            return out
        out = instance.start(payload)
        # The broadcaster also processes its own SEND.
        out.extend(self.on_message(self.me, RbcSend(sid, payload)))
        return out

    def on_message(self, sender: int, msg: object) -> List[Outgoing]:
        if isinstance(msg, PayloadPull):
            return self._recovery.on_pull(sender, msg)
        sid = getattr(msg, "sid", None)
        if not isinstance(sid, str):
            return []
        instance = self._instance(sid)
        already = instance.delivered is not None
        out: List[Outgoing] = []
        if not isinstance(msg, PayloadReply):
            out = instance.on_message(sender, msg)
        elif self._recovery.on_reply(sender, msg):  # key (sid, want_pull), verified
            instance._payload_by_digest[msg.digest] = msg.payload
            instance._maybe_complete(msg.digest)
        wanted = instance.want_pull
        if wanted is not None and instance.delivered is None:
            out += self._recovery.want(
                (sid, wanted), instance.pull_candidates, instance._payload_matches
            )
        if instance.delivered is not None and not already:
            if wanted is not None:
                self._recovery.cancel((sid, wanted))
            self._deliver(sid, instance.delivered)
        return out

    def delivered(self, sid: str) -> Optional[bytes]:
        instance = self._instances.get(sid)
        return instance.delivered if instance else None

    def _serve_pull(self, key: PullKey) -> List[object]:
        instance = self._instances.get(key[0])
        return [] if instance is None else instance.pull_reply(key[1])
