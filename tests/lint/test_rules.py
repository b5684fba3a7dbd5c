"""Fixture snippets for every analyzer rule: true positives must be
detected, known-good patterns must stay silent."""

import textwrap

from repro.lint.framework import LintConfig, load_rules, run_source

DET_MODULE = "repro.core.replica"  # in the deterministic scope
CRYPTO_MODULE = "repro.crypto.shoup"  # in the crypto scope
HANDLER_MODULE = "repro.broadcast.abc"  # in the handler scope
PLAIN_MODULE = "repro.util.events"  # none of the special scopes

AST_RULES = [rule.rule_id for rule in load_rules() if rule.check == "ast"]


def rules_for(source, module):
    findings = run_source(textwrap.dedent(source), module, rules=AST_RULES)
    return [f.rule for f in findings]


class TestD101WallClock:
    def test_time_time_flagged(self):
        assert "D101" in rules_for(
            """
            import time
            def execute(self):
                return time.time()
            """,
            DET_MODULE,
        )

    def test_datetime_now_flagged(self):
        assert "D101" in rules_for(
            """
            import datetime
            def stamp():
                return datetime.datetime.now()
            """,
            DET_MODULE,
        )

    def test_import_alias_resolved(self):
        assert "D101" in rules_for(
            """
            from time import monotonic as mono
            def tick():
                return mono()
            """,
            DET_MODULE,
        )

    def test_node_clock_silent(self):
        # The simulated node clock is the sanctioned time source.
        assert rules_for(
            """
            def tick(self):
                return self.node.now
            """,
            DET_MODULE,
        ) == []

    def test_out_of_scope_module_silent(self):
        assert rules_for(
            """
            import time
            def bench():
                return time.time()
            """,
            PLAIN_MODULE,
        ) == []


class TestD102Entropy:
    def test_urandom_flagged(self):
        assert "D102" in rules_for(
            """
            import os
            def salt():
                return os.urandom(8)
            """,
            DET_MODULE,
        )

    def test_uuid4_flagged(self):
        assert "D102" in rules_for(
            """
            import uuid
            def rid():
                return uuid.uuid4()
            """,
            DET_MODULE,
        )

    def test_module_random_flagged(self):
        assert "D102" in rules_for(
            """
            import random
            def jitter():
                return random.random()
            """,
            DET_MODULE,
        )

    def test_seeded_instance_silent(self):
        assert rules_for(
            """
            import random
            def make_rng(seed):
                return random.Random(seed)
            """,
            DET_MODULE,
        ) == []


class TestD103UnorderedIteration:
    def test_for_over_set_literal_flagged(self):
        assert "D103" in rules_for(
            """
            def emit(out):
                for name in {'a', 'b'}:
                    out.append(name)
            """,
            DET_MODULE,
        )

    def test_for_over_set_call_flagged(self):
        assert "D103" in rules_for(
            """
            def emit(names, out):
                for name in set(names):
                    out.append(name)
            """,
            DET_MODULE,
        )

    def test_set_typed_local_flagged(self):
        assert "D103" in rules_for(
            """
            def emit(a, b, out):
                changed = set(a) | set(b)
                for name in changed:
                    out.append(name)
            """,
            DET_MODULE,
        )

    def test_list_of_set_flagged(self):
        assert "D103" in rules_for(
            """
            def emit(names):
                return list(frozenset(names))
            """,
            DET_MODULE,
        )

    def test_sorted_silences(self):
        assert rules_for(
            """
            def emit(a, b, out):
                changed = set(a) | set(b)
                for name in sorted(changed):
                    out.append(name)
                return sorted(set(a))
            """,
            DET_MODULE,
        ) == []

    def test_dict_iteration_silent(self):
        # Dicts preserve insertion order; only sets are flagged.
        assert rules_for(
            """
            def emit(mapping, out):
                for key in mapping:
                    out.append(key)
            """,
            DET_MODULE,
        ) == []

    def test_membership_and_quorum_silent(self):
        assert rules_for(
            """
            def quorum(voters, threshold):
                return len(voters) >= threshold
            """,
            DET_MODULE,
        ) == []


class TestD104BuiltinHash:
    def test_hash_call_flagged(self):
        assert "D104" in rules_for(
            """
            def key(wire):
                return hash(wire)
            """,
            DET_MODULE,
        )

    def test_dunder_hash_silent(self):
        assert rules_for(
            """
            class Name:
                def __hash__(self):
                    return hash(self._folded)
            """,
            DET_MODULE,
        ) == []

    def test_hashlib_silent(self):
        assert rules_for(
            """
            import hashlib
            def key(wire):
                return hashlib.sha256(wire).digest()
            """,
            DET_MODULE,
        ) == []


class TestD105FloatSequence:
    def test_serial_division_flagged(self):
        assert "D105" in rules_for(
            """
            def bump(serial):
                return serial / 2
            """,
            DET_MODULE,
        )

    def test_float_of_seq_flagged(self):
        assert "D105" in rules_for(
            """
            def weight(self, msg):
                return float(msg.seq)
            """,
            DET_MODULE,
        )

    def test_floor_division_silent(self):
        assert rules_for(
            """
            def bump(serial):
                return serial // 2
            """,
            DET_MODULE,
        ) == []

    def test_unrelated_division_silent(self):
        assert rules_for(
            """
            def mean(total, count):
                return total / count
            """,
            DET_MODULE,
        ) == []


class TestD106SharedDefaultRng:
    def test_default_factory_lambda_flagged(self):
        # The FaultInjector bug class (repo-wide scope).
        assert "D106" in rules_for(
            """
            import random
            from dataclasses import dataclass, field

            @dataclass
            class Injector:
                rng: random.Random = field(default_factory=lambda: random.Random(7))
            """,
            PLAIN_MODULE,
        )

    def test_default_factory_reference_flagged(self):
        assert "D106" in rules_for(
            """
            import random
            from dataclasses import dataclass, field

            @dataclass
            class Injector:
                rng: random.Random = field(default_factory=random.Random)
            """,
            PLAIN_MODULE,
        )

    def test_argument_default_flagged(self):
        assert "D106" in rules_for(
            """
            import random
            def run(rng=random.Random(0)):
                return rng.random()
            """,
            PLAIN_MODULE,
        )

    def test_module_level_flagged(self):
        assert "D106" in rules_for(
            """
            import random
            RNG = random.Random(1234)
            """,
            PLAIN_MODULE,
        )

    def test_post_init_seeded_silent(self):
        # The fixed FaultInjector pattern: seed field + __post_init__.
        assert rules_for(
            """
            import random
            from dataclasses import dataclass, field

            @dataclass
            class Injector:
                seed: int = 0
                def __post_init__(self):
                    self.rng = random.Random(self.seed)
            """,
            PLAIN_MODULE,
        ) == []


class TestA201BlockingInAsync:
    def test_time_sleep_flagged(self):
        assert "A201" in rules_for(
            """
            import time
            async def settle():
                time.sleep(1)
            """,
            PLAIN_MODULE,
        )

    def test_subprocess_flagged(self):
        assert "A201" in rules_for(
            """
            import subprocess
            async def run():
                subprocess.check_output(["ls"])
            """,
            PLAIN_MODULE,
        )

    def test_asyncio_sleep_silent(self):
        assert rules_for(
            """
            import asyncio
            async def settle():
                await asyncio.sleep(1)
            """,
            PLAIN_MODULE,
        ) == []

    def test_sync_function_silent(self):
        assert rules_for(
            """
            import time
            def bench():
                time.sleep(1)
            """,
            PLAIN_MODULE,
        ) == []

    def test_nested_sync_def_silent(self):
        assert rules_for(
            """
            import time
            async def outer():
                def helper():
                    time.sleep(1)
                return helper
            """,
            PLAIN_MODULE,
        ) == []


class TestA202UnawaitedCoroutine:
    def test_bare_call_flagged(self):
        assert "A202" in rules_for(
            """
            async def work():
                pass

            async def main():
                work()
            """,
            PLAIN_MODULE,
        )

    def test_awaited_silent(self):
        assert rules_for(
            """
            async def work():
                pass

            async def main():
                await work()
            """,
            PLAIN_MODULE,
        ) == []

    def test_create_task_silent(self):
        assert rules_for(
            """
            import asyncio

            async def work():
                pass

            async def main():
                asyncio.create_task(work())
            """,
            PLAIN_MODULE,
        ) == []


class TestC301SecretEquality:
    def test_mac_equality_flagged(self):
        assert "C301" in rules_for(
            """
            def verify(expected_mac, received_mac):
                return expected_mac == received_mac
            """,
            CRYPTO_MODULE,
        )

    def test_compare_digest_silent(self):
        assert rules_for(
            """
            import hmac
            def verify(expected_mac, received_mac):
                return hmac.compare_digest(expected_mac, received_mac)
            """,
            CRYPTO_MODULE,
        ) == []

    def test_public_value_equality_silent(self):
        # pkcs1-style comparison of *public* encodings is fine.
        assert rules_for(
            """
            def verify(expected, em):
                return expected == em
            """,
            CRYPTO_MODULE,
        ) == []


class TestC302SecretInOutput:
    def test_fstring_flagged(self):
        assert "C302" in rules_for(
            """
            def debug(private_key):
                return f"key is {private_key}"
            """,
            CRYPTO_MODULE,
        )

    def test_print_flagged(self):
        assert "C302" in rules_for(
            """
            def debug(secret):
                print(secret)
            """,
            CRYPTO_MODULE,
        )

    def test_public_name_silent(self):
        assert rules_for(
            """
            def debug(modulus):
                return f"modulus is {modulus}"
            """,
            CRYPTO_MODULE,
        ) == []


class TestC303RandomForKeys:
    def test_random_in_crypto_flagged(self):
        assert "C303" in rules_for(
            """
            import random
            def keygen(bits):
                return random.getrandbits(bits)
            """,
            CRYPTO_MODULE,
        )

    def test_secrets_silent(self):
        assert rules_for(
            """
            import secrets
            def keygen(bits):
                return secrets.randbits(bits)
            """,
            CRYPTO_MODULE,
        ) == []


class TestC304UnboundedHandlerGrowth:
    def test_unbounded_setdefault_flagged(self):
        assert "C304" in rules_for(
            """
            class Coordinator:
                def on_message(self, sender, msg):
                    self._pending.setdefault(msg.sign_id, []).append((sender, msg))
            """,
            HANDLER_MODULE,
        )

    def test_unbounded_store_flagged(self):
        assert "C304" in rules_for(
            """
            class Broadcast:
                def _on_initiate(self, sender, msg):
                    self.pending[msg.request_id] = msg.payload
            """,
            HANDLER_MODULE,
        )

    def test_len_guard_silent(self):
        assert rules_for(
            """
            class Coordinator:
                def on_message(self, sender, msg):
                    if len(self._pending) >= 4096:
                        return
                    self._pending[msg.sign_id] = msg
            """,
            HANDLER_MODULE,
        ) == []

    def test_named_bound_guard_silent(self):
        assert rules_for(
            """
            MAX_ROUND_AHEAD = 64

            class Aba:
                def _on_aux(self, sender, msg):
                    if msg.round > self.round + MAX_ROUND_AHEAD:
                        return
                    self._aux_senders.setdefault(msg.round, {})[sender] = msg.value
            """,
            HANDLER_MODULE,
        ) == []

    def test_non_handler_silent(self):
        assert rules_for(
            """
            class Queue:
                def push(self, item):
                    self.items.append(item)
            """,
            HANDLER_MODULE,
        ) == []


class TestSuppressions:
    def test_inline_suppression(self):
        assert rules_for(
            """
            import time
            def execute(self):
                return time.time()  # repro-lint: disable=D101 -- test clock
            """,
            DET_MODULE,
        ) == []

    def test_line_above_suppression(self):
        assert rules_for(
            """
            import time
            def execute(self):
                # repro-lint: disable=D101
                return time.time()
            """,
            DET_MODULE,
        ) == []

    def test_file_suppression(self):
        assert rules_for(
            """
            # repro-lint: disable-file=D101
            import time
            def a():
                return time.time()
            def b():
                return time.time()
            """,
            DET_MODULE,
        ) == []

    def test_wrong_rule_does_not_suppress(self):
        assert "D101" in rules_for(
            """
            import time
            def execute(self):
                return time.time()  # repro-lint: disable=D102
            """,
            DET_MODULE,
        )


class TestFramework:
    def test_rule_catalog_complete(self):
        ids = {rule.rule_id for rule in load_rules()}
        assert {
            "D101", "D102", "D103", "D104", "D105", "D106",
            "A201", "A202",
            "C301", "C302", "C303", "C304",
        } <= ids

    def test_syntax_error_reported(self):
        findings = run_source("def broken(:\n", DET_MODULE)
        assert [f.rule for f in findings] == ["E000"]

    def test_scope_config_override(self):
        config = LintConfig()
        config.scope_patterns["deterministic"] = ("mypkg.custom",)
        src = "import time\ndef f():\n    return time.time()\n"
        assert any(
            f.rule == "D101"
            for f in run_source(src, "mypkg.custom", config=config)
        )
        assert run_source(src, "repro.core.replica", config=config) == []
