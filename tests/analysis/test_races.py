"""Unit tests for the yield-point atomicity checker (Y601-Y604)."""

import textwrap

from repro.lint.framework import load_rules, run_source

RACE_RULES = [rule.rule_id for rule in load_rules() if rule.check == "races"]


def check(source: str, path: str = "tests/fixture_races.py"):
    return run_source(textwrap.dedent(source), "", path, rules=RACE_RULES)


HANDLER = """
class H:
    def __init__(self, node):
        self._state = None
        node.set_handler(self.on_message)

    async def fetch(self):
        return b"x"
"""


class TestToctou:
    def test_await_between_guard_and_write(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        if self._state is None:
            data = await self.fetch()
            self._state = data
"""
        )
        assert [f.rule for f in findings] == ["Y601"]

    def test_revalidation_after_await_is_clean(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        if self._state is None:
            data = await self.fetch()
            if self._state is None:
                self._state = data
"""
        )
        assert findings == []

    def test_write_before_await_is_clean(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        if self._state is None:
            self._state = b"claimed"
            await self.fetch()
"""
        )
        assert findings == []

    def test_unreachable_async_function_not_analyzed(self):
        findings = check(
            """
class NotAHandler:
    def __init__(self):
        self._state = None

    async def fetch(self):
        return b"x"

    async def background_job(self):
        if self._state is None:
            data = await self.fetch()
            self._state = data
"""
        )
        assert findings == []


class TestSharedState:
    def test_cross_handler_mutation_across_await(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        current = self._state
        fresh = await self.fetch()
        self._state = fresh

    async def on_reset(self, sender, msg):
        self._state = None
"""
        )
        assert [f.rule for f in findings] == ["Y602"]
        assert "on_reset" in findings[0].message


class TestBusyFlags:
    def test_await_while_busy_without_finally(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        self._busy = True
        await self.fetch()
        self._busy = False
"""
        )
        assert [f.rule for f in findings] == ["Y603"]

    def test_try_finally_reset_is_clean(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        self._busy = True
        try:
            await self.fetch()
        finally:
            self._busy = False
"""
        )
        assert findings == []


class TestFireAndForget:
    def test_bare_create_task(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        import asyncio
        asyncio.create_task(self.fetch())
"""
        )
        assert [f.rule for f in findings] == ["Y604"]

    def test_kept_task_with_callback_is_clean(self):
        findings = check(
            HANDLER
            + """
    async def on_message(self, sender, msg):
        import asyncio
        task = asyncio.create_task(self.fetch())
        task.add_done_callback(lambda t: t.exception())
"""
        )
        assert findings == []

    def test_y604_applies_even_off_handler_path(self):
        findings = check(
            """
import asyncio

class NotAHandler:
    async def spin(self):
        asyncio.create_task(self.spin())
"""
        )
        assert [f.rule for f in findings] == ["Y604"]


class TestRepoClean:
    def test_whole_src_tree_is_race_clean(self, tree_lint):
        assert [f for f in tree_lint.findings if f.rule in RACE_RULES] == []
