"""Declarative source / sink / sanitizer specifications for the taint pass.

The taint engine (DESIGN.md §5e) is driven entirely by the tables in this
module so the protocol-security contract stays reviewable in one place:

* **Sources** mark values as attacker-controlled: parameters of message
  handlers (anything delivered by the transport in ``net/local.py`` /
  ``sim/network.py`` except the authenticated ``sender`` id), and the
  outputs of wire decoders (``from_wire`` / ``from_bytes`` / ``decode_*``).
* **Sinks** are the protocol operations that must never consume a tainted
  value directly: signature assembly, epoch/sequence control flow, memory
  allocation sized by remote input, unbounded collection growth, zone
  mutation.
* **Sanitizers** clear specific rules from a value: share/proof
  verification, RSA signature verification, certificate validation,
  bounds checks, strict decoders.

Each sink is owned by one T4xx rule; each sanitizer names the rules it
clears.  The engine consults these tables both intraprocedurally and when
applying interprocedural function summaries.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

# -- rule catalog -------------------------------------------------------------

#: rule id -> (summary, long description used in SARIF / --list-rules)
TAINT_RULES: Dict[str, Tuple[str, str]] = {
    "T401": (
        "unsanitized share reaches signature assembly",
        "A signature share that crossed the transport boundary flows into "
        "assemble()/Lagrange interpolation without verify_shares/"
        "share-validity checking on that path (Cachin-Samar §3.5: shares "
        "are verified on demand, but a path that never verifies lets a "
        "Byzantine replica corrupt the threshold signature).",
    ),
    "T402": (
        "unverified certificate or message drives epoch/sequence change",
        "A remote value is assigned to epoch/next_deliver control state "
        "without passing certificate/new-epoch validation; a forged "
        "NEW_EPOCH or EPOCH_FINAL could desynchronize honest replicas "
        "(G1 violation).",
    ),
    "T403": (
        "tainted length drives allocation",
        "A remote integer sizes an allocation (range/bytearray/sequence "
        "repetition) without a bounds check; classic amplification / "
        "memory-exhaustion vector (KeyTrap-class).",
    ),
    "T404": (
        "tainted key grows an unbounded handler collection",
        "A remote value is used as a dict/set key on replica state inside "
        "a handler without a membership/bounds guard, letting an attacker "
        "grow state without limit (KeyTrap-class).",
    ),
    "T405": (
        "unverified wire bytes reach zone mutation",
        "Raw transport bytes flow to zone mutation (add_rdata/delete/"
        "attach_signature) without passing a strict decoder or TSIG "
        "verification; zone state is the paper's G2 safety target.",
    ),
    "T406": (
        "sender-unchecked dispatch on a message-claimed identity",
        "A replica id claimed inside a message body (signer/index/sender "
        "field) indexes replica state without being checked against the "
        "transport-authenticated sender or bounds; enables share-slot "
        "spoofing and equivocation laundering.",
    ),
    "T407": (
        "taint laundered through a serialization round-trip",
        "Tainted data is re-encoded and re-decoded (to_bytes->from_bytes) "
        "and then treated as trusted at a sink; re-parsing does not "
        "authenticate remote input.",
    ),
    "T408": (
        "sanitizer runs after the sink it guards",
        "A value is verified only after it already reached a protocol "
        "sink in the same function; the check cannot protect the earlier "
        "use.",
    ),
}

#: Rules whose sinks a laundered (re-serialized) value still triggers, but
#: reported as T407 to name the root cause.
LAUNDERABLE_RULES: FrozenSet[str] = frozenset({"T401", "T402", "T405"})

# -- sources ------------------------------------------------------------------

#: Function-name patterns whose parameters are transport ingress.  The
#: authenticated peer id parameter (``sender``/``src``/``peer``) is NOT
#: tainted: the point-to-point links authenticate it (paper §2.2).
HANDLER_NAME_PREFIXES: Tuple[str, ...] = ("_on_", "on_", "handle_")
HANDLER_EXACT_NAMES: FrozenSet[str] = frozenset(
    {"on_message", "deliver", "receive"}
)
UNTAINTED_HANDLER_PARAMS: FrozenSet[str] = frozenset(
    {"self", "cls", "sender", "src", "peer", "replica_id", "rid"}
)

#: Call targets (matched on the trailing attribute name) whose *return
#: value* is attacker-controlled: wire decoders applied to raw bytes.
#: Strict, total decoders also appear in SANITIZERS below (they clear
#: T405: the decode itself is the validation for structure, not for
#: authenticity), so decode output stays tainted for T401/T402/T404.
SOURCE_CALLS: FrozenSet[str] = frozenset(
    {
        "from_wire",
        "from_bytes",
        "decode_batch",
        "decode_request",
        "parse_message",
    }
)

# -- sinks --------------------------------------------------------------------

#: Trailing call-name -> rule: tainted argument triggers the rule.
SINK_CALLS: Dict[str, str] = {
    # T401: threshold-signature assembly / interpolation
    "assemble": "T401",
    "assemble_signature": "T401",
    "combine_shares": "T401",
    "lagrange_interpolate": "T401",
    "interpolate": "T401",
    # T405: zone mutation and SIG construction from raw input
    "add_rdata": "T405",
    "delete_rdata": "T405",
    "delete_name": "T405",
    "delete_rrset": "T405",
    "attach_signature": "T405",
    "apply_update": "T405",
    "make_sig": "T405",
}

#: Trailing call-name -> rule for allocation sized by a tainted argument.
#: ``bytes(x)`` is deliberately absent: it is overwhelmingly a *conversion*
#: of existing data (bytes(bytearray), bytes(generator)), not a sized
#: allocation; bytearray/range/sequence-repetition cover the real pattern.
ALLOC_CALLS: Dict[str, str] = {
    "range": "T403",
    "bytearray": "T403",
}

#: T401 sinks whose first argument is the *message* being signed, not the
#: share set: only arguments after it are untrusted-share positions.
SINK_MESSAGE_FIRST: FrozenSet[str] = frozenset(
    {"assemble", "assemble_signature", "combine_shares"}
)

#: Calls producing locally-generated trusted material (shares/signatures
#: from our own key), regardless of the message they cover: their return
#: value is untainted even when the signed message is remote.
TRUSTED_PRODUCERS: FrozenSet[str] = frozenset(
    {"generate_share", "generate_share_with_proof", "sign"}
)

#: Attribute names whose assignment from a tainted value is epoch/sequence
#: control flow (kept narrow to avoid flagging ordinary bookkeeping).
CONTROL_STATE_ATTRS: FrozenSet[str] = frozenset(
    {"epoch", "next_deliver", "next_seq", "round"}
)

#: Message attribute names that claim a replica identity; using them to
#: index state without a sender check is T406.
IDENTITY_ATTRS: FrozenSet[str] = frozenset(
    {"signer", "sender", "complainer", "index", "replica", "source"}
)

#: Collection-growth method names (T404 when called on ``self.<attr>`` with
#: a tainted key inside a handler without a guard).  ``append`` is absent
#: on purpose: list growth is bounded by message count, which C304 already
#: polices; the taint rule targets attacker-chosen *keys*.
GROWTH_CALLS: FrozenSet[str] = frozenset({"setdefault", "add"})

# -- sanitizers ---------------------------------------------------------------

#: Trailing call-name -> rules cleared from the arguments (and, for the
#: boolean-guard form ``if not check(x): return``, from ``x`` afterwards).
SANITIZERS: Dict[str, FrozenSet[str]] = {
    # share verification (Shoup proofs)
    "verify_shares": frozenset({"T401", "T407"}),
    "verify_share": frozenset({"T401", "T407"}),
    "share_is_valid": frozenset({"T401", "T407"}),
    "_share_valid": frozenset({"T401", "T407"}),
    "_store_share": frozenset({"T401", "T406"}),
    # RSA / threshold signature verification
    "verify_signature": frozenset({"T401", "T402", "T405", "T407"}),
    "signature_is_valid": frozenset({"T401", "T402", "T405", "T407"}),
    "rsa_verify_many": frozenset({"T401", "T402", "T405", "T407"}),
    "verify_many": frozenset({"T401", "T402", "T405", "T407"}),
    "verify": frozenset({"T401", "T402", "T405", "T407"}),
    "is_valid": frozenset({"T401", "T402", "T405", "T407"}),
    # PREPARE and COMMIT carry no signature: their guard is the
    # link-identity comparison ``msg.signer != sender`` (T406 treats a
    # comparison with the authenticated sender as the check).
    # epoch-change validation
    "_validate_new_epoch": frozenset({"T402", "T407"}),
    "validate_certificate": frozenset({"T402", "T407"}),
    # TSIG / DNS message authentication
    "verify_message": frozenset({"T402", "T405", "T407"}),
    "verify_tsig": frozenset({"T402", "T405", "T407"}),
    # verified-subset assembly (OptTE verifies candidates internally)
    "assemble_candidates": frozenset({"T401", "T407"}),
    # ABC delivery-window / future-epoch bounds checks
    "_seq_in_window": frozenset({"T403", "T404"}),
    # per-(epoch, seq) digest admission cap (abc.py digest stuffing)
    "_admit_slot_digest": frozenset({"T404"}),
    # strict, total wire decoders: structural validation only
    "from_wire": frozenset({"T405"}),
    "from_bytes": frozenset({"T405"}),
    "decode_batch": frozenset({"T405"}),
    "decode_request": frozenset({"T405"}),
}

#: Batch verifiers whose *return value* is a per-item verdict list.  The
#: idiom ``verdicts = rsa_verify_many(pairs)`` followed by
#: ``for item, ok in zip(items, verdicts): if ok: ...`` verifies each
#: item individually; the engine threads the verdict flow so the guarded
#: branch counts as sanitized for the paired item (clearing the same
#: rules the sanitizer clears) instead of coarsely tainting — and without
#: a spurious T408, since a verdict guard is a comparison, not a late
#: sanitizer call.
VERDICT_CALLS: FrozenSet[str] = frozenset(
    {"rsa_verify_many", "verify_many", "verify_shares"}
)

#: Substrings in a compared-against name that make an int comparison a
#: bounds check (clears T403/T404), mirroring the C304 heuristic.
BOUND_NAME_HINTS: Tuple[str, ...] = (
    "MAX",
    "LIMIT",
    "BOUND",
    "CAP",
    "WINDOW",
    "REMAINING",
)
