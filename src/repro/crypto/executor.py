"""The threshold-RSA operations of one replica's signing sessions.

The paper's evaluation (§4, Tables 2–3) shows threshold-signature share
generation and verification dominate end-to-end latency.  The signing
protocols (:mod:`repro.crypto.protocols`) are sans-IO and record every
operation in an op log, from which the simulator charges calibrated CPU
time; the bigint work itself goes through one :class:`CryptoExecutor`
per coordinator, which runs it inline.  Keeping the six operations behind
one object gives measurement a single place to attach: the e2e tracer
wraps these methods on ``coordinator.executor``.

Every operation is a pure function of its inputs except the Fiat–Shamir
proof nonce, which never enters the broadcast transcript (proofs are
verified and discarded), so runs replay bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.crypto.shoup import ShareProof, SignatureShare, ThresholdKeyShare
from repro.errors import AssemblyError

# Operation names used in the protocol op logs (match Table 3's row
# labels).  Defined here — the root of the crypto package's import graph —
# and re-exported by :mod:`repro.crypto.protocols` for the cost model.
OP_GENERATE_SHARE = "generate_share"
OP_GENERATE_PROOF = "generate_proof"
OP_VERIFY_SHARE = "verify_share"
OP_ASSEMBLE = "assemble"
OP_VERIFY_SIGNATURE = "verify_signature"


@dataclass(frozen=True)
class SubsetTrialResult:
    """Outcome of trial-and-error assembly over candidate share subsets.

    ``winner`` is the index (into the submitted subset list) of the first
    subset that assembled into a valid signature, or ``None``.
    ``assembled``/``verified`` count the attempts actually evaluated, for
    op-log accounting.
    """

    winner: Optional[int]
    signature: Optional[bytes]
    assembled: int
    verified: int


class CryptoExecutor:
    """Run one replica's threshold-RSA operations inline."""

    def __init__(self, key_share: ThresholdKeyShare) -> None:
        self.key_share = key_share
        self.public = key_share.public

    def generate_share(
        self, message: bytes, with_proof: bool = False
    ) -> SignatureShare:
        if with_proof:
            return self.key_share.generate_share_with_proof(message)
        return self.key_share.generate_share(message)

    def generate_proof(self, message: bytes, share: SignatureShare) -> ShareProof:
        return self.key_share.prove(message, share)

    def verify_shares(
        self, message: bytes, shares: Sequence[SignatureShare]
    ) -> List[bool]:
        return [self.public.share_is_valid(message, share) for share in shares]

    def assemble(
        self, message: bytes, shares: Sequence[SignatureShare]
    ) -> Optional[bytes]:
        try:
            return self.public.assemble(message, shares)
        except AssemblyError:
            return None

    def verify_signature(self, message: bytes, signature: bytes) -> bool:
        return self.public.signature_is_valid(message, signature)

    def assemble_candidates(
        self, message: bytes, subsets: Sequence[Sequence[SignatureShare]]
    ) -> SubsetTrialResult:
        """Try ``subsets`` in order; stop at the first valid signature."""
        assembled = verified = 0
        for i, shares in enumerate(subsets):
            assembled += 1
            try:
                signature = self.public.assemble(message, shares)
            except AssemblyError:
                continue
            verified += 1
            if self.public.signature_is_valid(message, signature):
                return SubsetTrialResult(i, signature, assembled, verified)
        return SubsetTrialResult(None, None, assembled, verified)
