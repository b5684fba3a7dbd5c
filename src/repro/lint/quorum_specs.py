"""Quorum rule catalog and the per-site obligation spec table (DESIGN.md §5h).

Every threshold comparison or certificate truncation over the protocol
parameters must be *declared*: either inline ::

    if len(pool) >= self.n - self.t:   # repro-quorum: intersect

or centrally in :data:`QUORUM_SPEC` below, keyed by (module glob,
function glob, canonical expression text).  The checker then proves the
declared obligation over every admissible ``(n, t)`` — an undeclared or
unprovable site is a finding.

Obligation kinds
----------------

``intersect``
    The guarded quorum Q must pairwise-intersect any same-kind quorum in
    at least ``t+1`` replicas: ``2Q - n >= t+1``.  This is the paper's
    G1 safety core — it makes conflicting certificates impossible.
``final-overlap``
    Q must overlap the honest part of any ``n-t`` collection:
    ``Q >= 2t+1`` (so Q contains >= t+1 honest members, and any
    ``n-t``-sized recovery pool hears from at least one of them).
``honest-majority``
    Q must contain more honest than Byzantine members: ``Q >= 2t+1``.
``amplify``
    Q must contain at least one honest sender: ``Q >= t+1``.
``threshold-sig``
    Q shares suffice to assemble the threshold signature: ``Q >= t+1``
    (the dealer uses degree-``t`` polynomials).
``reconstruct``
    Erasure-coded reconstruction threshold (DESIGN.md §5i): decoding
    needs ``n-2t`` fragments, which is ``>= t+1`` for every admissible
    ``n >= 3t+1`` and ``<= n-t`` so honest fragments alone suffice.
``truncate:<expr>``
    A slice bound must keep at least ``<expr>`` elements — never
    truncate a certificate below the quorum it certifies.
``cap:<expr>``
    A per-sender/per-pool admission cap must admit at least ``<expr>``
    entries (rejecting legitimate volume re-opens the PR-5 censorship
    vector the caps were added to close).
``identity-bound``
    A replica-identity range check; the bound must be exactly ``n``.
``config``
    A deployment-validation guard (constructor/``__post_init__``); no
    arithmetic obligation.
``window``
    A performance/lookahead cap that certifies nothing; declared so the
    triage rule stays quiet.
``declared``
    Reviewed, deliberately exempt (e.g. leader-rotation ``% n``
    arithmetic the linear model cannot express).

Every quorum-sized kind additionally checks liveness ``Q <= n - t``:
a quorum that needs Byzantine cooperation never forms.
"""

from __future__ import annotations

from typing import Dict, Tuple

# -- rule catalog -------------------------------------------------------------

QUORUM_RULES: Dict[str, Tuple[str, str]] = {
    "Q501": (
        "quorum intersection violated",
        "Two quorums of this kind may fail to intersect in t+1 replicas "
        "for some admissible (n, t) with n >= 3t+1, so conflicting "
        "certificates can form.  A 2t+1 quorum is only safe when "
        "n == 3t+1 exactly; the general-n intersection quorum is n-t.",
    ),
    "Q502": (
        "certificate truncated below its quorum",
        "A slice like [: k] keeps fewer signatures than the quorum the "
        "certificate claims to certify for some admissible (n, t); "
        "downstream validators will reject it or, worse, accept a "
        "sub-quorum certificate.",
    ),
    "Q503": (
        "honest-sender amplification bound violated",
        "A guard that amplifies a message (join/echo/adopt) fires on a "
        "sender set that may be entirely Byzantine for some admissible "
        "(n, t); amplification guards need >= t+1 senders, "
        "honest-majority decisions >= 2t+1.",
    ),
    "Q504": (
        "admission cap inconsistent with pool bounds",
        "A per-sender or per-pool admission cap rejects entries that a "
        "correct run can legitimately produce for some admissible "
        "(n, t), stalling liveness (or a range check admits replica "
        "identities outside 0..n-1).",
    ),
    "Q505": (
        "undeclared threshold comparison",
        "A comparison mentioning the protocol parameters n/t matches no "
        "declared obligation (spec table or inline '# repro-quorum:' "
        "comment).  Declare its kind so the checker can prove it, or "
        "mark it 'declared' with a justification.",
    ),
}

#: Comment marker declaring a site's obligation inline.
INLINE_MARKER = "repro-quorum"

# -- the spec table -----------------------------------------------------------

#: (module glob, function glob, canonical expr text, obligation kind).
#:
#: ``expr`` is the canonical :meth:`LinExpr.render` form ("n-t",
#: "2t+1", ...) for linear sites, or the exact ``ast.unparse`` text for
#: sites the linear model cannot normalize ("msg.epoch % self.n").  A
#: comparison site is declared when *any* of its n/t-linear operands
#: matches an entry; slice sites only match truncate/window/declared
#: kinds and comparison sites only the rest.
QUORUM_SPEC: Tuple[Tuple[str, str, str, str], ...] = (
    # -- repro.broadcast.abc: atomic broadcast (paper §2.3/§3.4) ----------
    ("repro.broadcast.abc", "__init__", "3t", "config"),
    ("repro.broadcast.abc", "__init__", "n", "config"),
    # Prepare-phase certificate quorum: two prepare certificates for the
    # same slot must share an honest signer, else G1 breaks.
    ("repro.broadcast.abc", "_on_order", "n-t", "intersect"),
    ("repro.broadcast.abc", "_on_prepare", "n-t", "intersect"),
    ("repro.broadcast.abc", "_form_certificate", "n-t", "truncate:n-t"),
    ("repro.broadcast.abc", "_validate_certificate", "n-t", "intersect"),
    ("repro.broadcast.abc", "_validate_certificate", "n", "identity-bound"),
    ("repro.broadcast.abc", "_verify_prepare", "n", "identity-bound"),
    # Commit quorum: 2t+1 commits guarantee >= t+1 honest certificate
    # holders, which overlaps every n-t epoch-final recovery pool.
    ("repro.broadcast.abc", "_on_commit", "2t+1", "final-overlap"),
    ("repro.broadcast.abc", "_on_complain", "t+1", "amplify"),
    ("repro.broadcast.abc", "_on_complain", "2t+1", "honest-majority"),
    ("repro.broadcast.abc", "_on_epoch_final", "n-t", "intersect"),
    ("repro.broadcast.abc", "_on_epoch_final", "n-t", "truncate:n-t"),
    # Leader rotation is modular arithmetic; outside the linear model.
    ("repro.broadcast.abc", "_on_epoch_final", "next_epoch % self.n", "declared"),
    ("repro.broadcast.abc", "_on_new_epoch", "msg.epoch % self.n", "declared"),
    ("repro.broadcast.abc", "_validate_new_epoch", "n", "identity-bound"),
    ("repro.broadcast.abc", "_validate_new_epoch", "n-t", "intersect"),
    # Digest-mode pull serving: requester identity bounds the per-peer
    # serve budget table.
    ("repro.broadcast.abc", "_on_pull", "n", "identity-bound"),
    # Erasure dissemination: fragment indices are replica identities, and
    # any n-2t verified fragments reconstruct the request payload.
    ("repro.broadcast.abc", "_on_frag", "n", "identity-bound"),
    ("repro.broadcast.abc", "_on_frag", "n-2t", "reconstruct"),
    # -- repro.broadcast.rbc: Bracha reliable broadcast -------------------
    ("repro.broadcast.rbc", "__init__", "3t", "config"),
    # Echo votes (payload-carrying or digest-only) funnel into one
    # counter; the quorum must pairwise-intersect in an honest replica.
    ("repro.broadcast.rbc", "_count_echo", "n-t", "intersect"),
    ("repro.broadcast.rbc", "_on_ready", "t+1", "amplify"),
    ("repro.broadcast.rbc", "_ready_quorum", "2t+1", "honest-majority"),
    # Erasure mode: fragment indices are replica identities; t+1 echoes
    # prove an honest echoer vouches for the root; n-2t fragments decode.
    ("repro.broadcast.rbc", "_on_val", "n", "identity-bound"),
    ("repro.broadcast.rbc", "_on_frag", "n", "identity-bound"),
    ("repro.broadcast.rbc", "_on_frag", "t+1", "amplify"),
    ("repro.broadcast.rbc", "_reconstruct", "n-2t", "reconstruct"),
    # -- repro.broadcast.aba: binary agreement -----------------------------
    ("repro.broadcast.aba", "__init__", "3t", "config"),
    ("repro.broadcast.aba", "_on_est", "t+1", "amplify"),
    ("repro.broadcast.aba", "_on_est", "2t+1", "honest-majority"),
    ("repro.broadcast.aba", "_try_finish_round", "n-t", "intersect"),
    ("repro.broadcast.aba", "_on_decided", "t+1", "amplify"),
    # -- repro.broadcast.coin: threshold common coin -----------------------
    ("repro.broadcast.coin", "_accept_share", "t+1", "threshold-sig"),
    ("repro.broadcast.coin", "_accept_share", "t+1", "truncate:t+1"),
    # -- repro.crypto.protocols: Shoup signing sessions (paper §3.5) ------
    ("repro.crypto.protocols", "_try_finish", "t+1", "threshold-sig"),
    ("repro.crypto.protocols", "_try_finish", "t+1", "truncate:t+1"),
    ("repro.crypto.protocols", "_try_fallback", "t+1", "threshold-sig"),
    ("repro.crypto.protocols", "_try_fallback", "t+1", "truncate:t+1"),
    # Pipelining lookahead: batches at most t buffered proofs ahead of
    # the session; certifies nothing.
    ("repro.crypto.protocols", "prefetch", "t", "window"),
    ("repro.crypto.protocols", "_store_share", "n", "identity-bound"),
    # -- repro.crypto.shoup: threshold-RSA primitive ----------------------
    ("repro.crypto.shoup", "__post_init__", "n", "config"),
    ("repro.crypto.shoup", "__post_init__", "t", "config"),
    ("repro.crypto.shoup", "share_verifier", "n", "identity-bound"),
    ("repro.crypto.shoup", "verify_share", "n", "identity-bound"),
    ("repro.crypto.shoup", "assemble", "t+1", "threshold-sig"),
    ("repro.crypto.shoup", "assemble", "t+1", "truncate:t+1"),
    ("repro.crypto.shoup", "assemble", "n", "identity-bound"),
)
