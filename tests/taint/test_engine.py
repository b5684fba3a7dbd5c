"""Unit tests for the interprocedural taint engine.

Exercises the call-graph edge cases the issue calls out (lambdas and
``functools.partial`` as registered handlers, protocol-attribute method
resolution via annotations, recursion in the summary fixpoint) plus the
marker/sanitizer mechanics the corpus relies on.
"""

import textwrap

from repro.lint.framework import LintConfig, Program, load_rules, run_program

MODULE = "repro.broadcast.snippet"

TAINT_RULES = [rule.rule_id for rule in load_rules() if rule.check == "taint"]


def run(*sources, module=MODULE, config=None):
    """Taint-analyze in-memory sources; returns the sorted rule list."""
    files = [
        (f"snippet{i}.py", module if i == 0 else f"{module}{i}", textwrap.dedent(src))
        for i, src in enumerate(sources)
    ]
    return sorted(f.rule for f in run_program(Program(files, config), TAINT_RULES))


class TestHandlerRegistration:
    def test_lambda_registered_as_handler(self):
        # A lambda passed to a registrar is transport ingress: its
        # parameters are tainted even though it has no handler-ish name.
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, node, public):
                    self.public = public
                    node.set_handler(lambda sender, msg: self.public.assemble(b"m", [msg.share]))
            """
        )

    def test_partial_registered_as_handler(self):
        # functools.partial(self._collect, ...) must unwrap to _collect.
        assert "T401" in run(
            """
            import functools

            class Endpoint:
                def __init__(self, node, public):
                    self.public = public
                    node.register_handler(functools.partial(self._collect, "tag"))

                def _collect(self, tag, sender, msg):
                    return self.public.assemble(b"m", [msg.share])
            """
        )

    def test_method_reference_registered_as_handler(self):
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, node, public):
                    self.public = public
                    node.subscribe(self._ingest)

                def _ingest(self, sender, msg):
                    return self.public.assemble(b"m", [msg.share])
            """
        )

    def test_unregistered_helper_is_not_ingress(self):
        # Same body, never registered and not handler-named: no taint.
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def _ingest(self, sender, msg):
                    return self.public.assemble(b"m", [msg.share])
            """
        ) == []


class TestProtocolAttributeResolution:
    def test_annotated_attr_call_resolves_to_class_method(self):
        # self.executor is annotated with a class defined elsewhere in the
        # program; calling through the attribute must reach that class's
        # method summary (sink inside the callee).
        assert "T401" in run(
            """
            class CryptoExecutor:
                def __init__(self, public):
                    self.public = public

                def finish(self, shares):
                    return self.public.assemble(b"m", shares)

            class Endpoint:
                def __init__(self, executor):
                    self.executor: CryptoExecutor = executor

                def on_message(self, sender, msg):
                    return self.executor.finish([msg.share])
            """
        )

    def test_annotated_attr_sanitizing_callee_clears(self):
        # The callee verifies before the sink; the caller's taint must be
        # cleared through the same attribute-resolved summary.
        assert run(
            """
            class CryptoExecutor:
                def __init__(self, public):
                    self.public = public

                def finish(self, shares):
                    if not self.public.verify_shares(b"m", shares):
                        return None
                    return self.public.assemble(b"m", shares)

            class Endpoint:
                def __init__(self, executor):
                    self.executor: CryptoExecutor = executor

                def on_message(self, sender, msg):
                    return self.executor.finish([msg.share])
            """
        ) == []


    def test_lone_user_method_does_not_capture_builtin_calls(self):
        # The only user-defined ``add`` in the program must not become the
        # target of every ``set.add`` on a receiver of unknown type.
        assert run(
            """
            class Keyring:
                def __init__(self):
                    self._keys = {}

                def add(self, key):
                    self._keys[key.name] = key

            class Endpoint:
                def __init__(self):
                    self.seen = set()

                def on_message(self, sender, msg):
                    if len(self.seen) < 8:
                        local = set()
                        local.add(msg.key)
            """
        ) == []


class TestInterprocedural:
    def test_taint_through_two_helpers(self):
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    return self._collect(msg.share)

                def _collect(self, share):
                    return self._finish([share])

                def _finish(self, shares):
                    return self.public.assemble(b"m", shares)
            """
        )

    def test_callee_sanitization_survives_attr_store(self):
        # _accept verifies then stores; the cleared set must ride along
        # with the summary's attribute store so assembly stays quiet.
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public
                    self._shares = []

                def on_message(self, sender, msg):
                    self._accept(msg.share)

                def _accept(self, share):
                    if not self.public.verify_share(b"m", share):
                        return
                    self._shares.append(share)

                def try_assemble(self):
                    return self.public.assemble(b"m", self._shares)
            """
        ) == []

    def test_recursive_summary_reaches_fixpoint(self):
        # Self-recursion must terminate (widening via bounded fixpoint
        # rounds) and still propagate taint to the sink.
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    return self._drain([msg.share], 0)

                def _drain(self, shares, depth):
                    if depth > 3:
                        return self.public.assemble(b"m", shares)
                    return self._drain(shares, depth + 1)
            """
        )

    def test_mutual_recursion_terminates(self):
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    return self._ping(msg.share, 0)

                def _ping(self, share, n):
                    if n > 2:
                        return self.public.assemble(b"m", [share])
                    return self._pong(share, n)

                def _pong(self, share, n):
                    return self._ping(share, n + 1)
            """
        )


class TestSanitizerMechanics:
    def test_sanitizer_clears_path_inside_list_literal(self):
        # verify_shares(m, [msg.share]) must clear msg.share itself, not
        # just the (unnamed) list expression.
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    if not self.public.verify_shares(b"m", [msg.share]):
                        return None
                    return self.public.assemble(b"m", [msg.share])
            """
        ) == []

    def test_trusted_producer_output_untainted(self):
        assert run(
            """
            class Endpoint:
                def __init__(self, key_share, public):
                    self.key_share = key_share
                    self.public = public

                def on_message(self, sender, msg):
                    share = self.key_share.generate_share(msg.data)
                    return self.public.assemble(msg.data, [share])
            """
        ) == []

    def test_serialization_roundtrip_reports_t407(self):
        rules = run(
            """
            class Endpoint:
                def __init__(self, public, codec):
                    self.public = public
                    self.codec = codec

                def on_message(self, sender, msg):
                    blob = msg.share.to_bytes()
                    share = self.codec.from_bytes(blob)
                    return self.public.assemble(b"m", [share])
            """
        )
        assert "T407" in rules
        assert "T401" not in rules  # reported as laundering, not raw T401

    def test_tuple_of_tuples_loop_keeps_per_column_clearing(self):
        # Position-wise binding: count is bounds-checked, section is not;
        # only count's column clearing applies to range(count).
        assert run(
            """
            MAX_COUNT = 64

            class Endpoint:
                def on_message(self, sender, msg):
                    if msg.ancount > MAX_COUNT or msg.nscount > MAX_COUNT:
                        return None
                    out = []
                    for section, count in ((msg.answers, msg.ancount), (msg.authority, msg.nscount)):
                        for _ in range(count):
                            out.append(section)
                    return out
            """
        ) == []


class TestScope:
    def test_exclusion_pattern_wins(self):
        config = LintConfig()
        config.scope_patterns["taint"] = ("repro.broadcast.*", "!" + MODULE)
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    return self.public.assemble(b"m", [msg.share])
            """,
            config=config,
        ) == []

    def test_out_of_scope_module_ignored(self):
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    return self.public.assemble(b"m", [msg.share])
            """,
            module="repro.cli",
        ) == []


class TestSuppressions:
    def test_inline_disable_filters_finding(self):
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    # justified for the test
                    # repro-lint: disable=T401
                    return self.public.assemble(b"m", [msg.share])
            """
        ) == []

    def test_disable_wrong_rule_keeps_finding(self):
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    # repro-lint: disable=T403
                    return self.public.assemble(b"m", [msg.share])
            """
        )


class TestVerdictFlow:
    """Per-item verdict lists from batch verifiers (VERDICT_CALLS)."""

    GATE = """
        class Gate:
            def __init__(self, executor, zone):
                self.executor = executor
                self.zone = zone

            def on_message(self, sender, batch):
                verdicts = self.executor.rsa_verify_many(self.pairs)
                for msg, ok in zip(batch, verdicts):
                    {body}
        """

    def gate(self, *body):
        # the {body} placeholder sits 20 columns deep pre-dedent
        return self.GATE.format(body=("\n" + " " * 20).join(body))

    def test_guarded_negative_continue_is_clean(self):
        # ``if not ok: continue`` — only verified items reach the sink.
        assert run(self.gate(
            "if not ok:",
            "    continue",
            "self.zone.add_rdata(msg.name, msg.rtype, msg.ttl, msg.rdata)",
        )) == []

    def test_guarded_positive_branch_is_clean(self):
        assert run(self.gate(
            "if ok:",
            "    self.zone.add_rdata(msg.name, msg.rtype, msg.ttl, msg.rdata)",
        )) == []

    def test_unguarded_sink_still_flagged(self):
        # Without consulting the verdict, the item stays unverified:
        # the zip pairing alone must not clear anything.
        assert "T405" in run(self.gate(
            "self.zone.add_rdata(msg.name, msg.rtype, msg.ttl, msg.rdata)",
        ))

    def test_sink_in_unverified_branch_still_flagged(self):
        # ``if not ok:`` then-branch is the *failed* side.
        assert "T405" in run(self.gate(
            "if not ok:",
            "    self.zone.add_rdata(msg.name, msg.rtype, msg.ttl, msg.rdata)",
        ))

    def test_verdict_guard_does_not_report_t408(self):
        # A verdict guard after an earlier (flagged) sink is a comparison,
        # not a misplaced sanitizer call: T405 yes, T408 no.
        rules = run(self.gate(
            "self.zone.add_rdata(msg.name, msg.rtype, msg.ttl, msg.rdata)",
            "if not ok:",
            "    continue",
            "self.zone.attach_signature(msg.name, msg.rtype, msg.sig)",
        ))
        assert "T405" in rules
        assert "T408" not in rules

    def test_reassigned_verdict_var_loses_tracking(self):
        # Overwriting the verdict list with unrelated data must drop the
        # registration, so the guard no longer sanitizes.
        assert "T405" in run(
            """
            class Gate:
                def __init__(self, executor, zone):
                    self.executor = executor
                    self.zone = zone

                def on_message(self, sender, batch):
                    verdicts = self.executor.rsa_verify_many(self.pairs)
                    verdicts = [True for _ in batch]
                    for msg, ok in zip(batch, verdicts):
                        if not ok:
                            continue
                        self.zone.add_rdata(msg.name, msg.rtype, msg.ttl, msg.rdata)
            """
        )


class TestPerKeyDictTaint:
    """Literal dict keys get their own taint slots (DESIGN.md §5e): a
    remote value stored under one key must not taint reads of the others,
    while dynamic-key stores and whole-dict reads stay conservative."""

    def test_sibling_literal_key_read_stays_clean(self):
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public
                    self.cache = {}
                    self.cache["trusted"] = public.sign(b"seed")

                def on_message(self, sender, msg):
                    self.cache["remote"] = msg.share
                    return self.public.assemble(b"m", [self.cache["trusted"]])
            """
        ) == []

    def test_same_literal_key_read_stays_tainted(self):
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public
                    self.cache = {}

                def on_message(self, sender, msg):
                    self.cache["remote"] = msg.share
                    return self.public.assemble(b"m", [self.cache["remote"]])
            """
        )

    def test_dynamic_key_store_still_taints_literal_reads(self):
        # A store under an attacker-chosen key may hit any slot: literal
        # reads must keep seeing the wildcard taint (soundness).
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public
                    self.cache = {}

                def on_message(self, sender, msg):
                    if msg.sid in self.cache:
                        self.cache[msg.sid] = msg.share
                    return self.public.assemble(b"m", [self.cache["trusted"]])
            """
        )

    def test_whole_dict_read_merges_key_slots(self):
        # Reading the full dict sees every slot, including literal ones.
        assert "T401" in run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public
                    self.cache = {}

                def on_message(self, sender, msg):
                    self.cache["remote"] = msg.share
                    return self.public.assemble(b"m", list(self.cache.values()))
            """
        )

    def test_local_dict_literal_keys_tracked(self):
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    batch = {}
                    batch["remote"] = msg.share
                    batch["local"] = self.public.sign(b"seed")
                    return self.public.assemble(b"m", [batch["local"]])
            """
        ) == []

    def test_whole_reassignment_drops_stale_key_slots(self):
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    batch = {}
                    batch["remote"] = msg.share
                    batch = {}
                    return self.public.assemble(b"m", [batch["remote"]])
            """
        ) == []

    def test_cross_function_store_keeps_its_key(self):
        # The helper stores under a literal key; the handler reads the
        # sibling slot.  The summary must carry the key through.
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public
                    self.cache = {}

                def on_message(self, sender, msg):
                    self._park(msg.share)
                    return self.public.assemble(b"m", [self.cache["trusted"]])

                def _park(self, share):
                    self.cache["remote"] = share
            """
        ) == []


class TestCrossFunctionT408:
    """The callee's sanitizer applications replay at the call site, so a
    verification buried one call-hop below still orders against sinks the
    caller already hit."""

    def test_sanitizer_one_hop_below_after_sink(self):
        rules = run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    signature = self.public.assemble(b"m", [msg.share])
                    self._audit(msg.share)
                    return signature

                def _audit(self, share):
                    return self.public.verify_shares(b"m", [share])
            """
        )
        assert "T408" in rules

    def test_sanitizer_one_hop_below_before_sink_is_clean(self):
        # Same helper called before the sink: the replayed clearing must
        # sanitize the caller's value, and no T408 may fire.
        assert run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    self._audit(msg.share)
                    return self.public.assemble(b"m", [msg.share])

                def _audit(self, share):
                    return self.public.verify_shares(b"m", [share])
            """
        ) == []

    def test_two_hops_propagate_transitively(self):
        rules = run(
            """
            class Endpoint:
                def __init__(self, public):
                    self.public = public

                def on_message(self, sender, msg):
                    signature = self.public.assemble(b"m", [msg.share])
                    self._outer(msg.share)
                    return signature

                def _outer(self, share):
                    return self._inner(share)

                def _inner(self, share):
                    return self.public.verify_shares(b"m", [share])
            """
        )
        assert "T408" in rules
