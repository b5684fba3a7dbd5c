"""The shipped tree must be lint-clean against the shipped baseline.

This mirrors the CI ``lint-protocol`` job: one all-pass run over
``src/repro`` (the session's ``tree_lint`` fixture, shared by every
whole-tree assertion) must produce zero new and zero stale findings
against ``lint-baseline.json``.  If a test here fails you either
introduced a violation (fix it or suppress it with a justification) or
fixed a baselined one (run ``repro lint --update-baseline`` to ratchet
the ceiling down).
"""

import ast
from pathlib import Path

from repro.lint.baseline import check_against_baseline, load_baseline
from repro.lint.mypy_ratchet import check_strict_config

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_tree_matches_baseline(tree_lint):
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    problems = check_against_baseline(tree_lint.findings, baseline)
    assert problems == [], "\n".join(problems)


def test_baseline_is_empty():
    # All baselined debt has been paid off (the last C304 finding fell to
    # the explicit bound in AtomicBroadcast._on_new_epoch); the ratchet
    # now enforces that no new findings are ever baselined again.
    baseline = load_baseline(REPO_ROOT / "lint-baseline.json")
    assert baseline == {}, f"baseline grew again: {baseline}"


def test_whole_tree_run_under_budget(tree_lint):
    # Every pass over the whole tree, parsing and indexing included.
    assert tree_lint.elapsed_s < 30.0, f"repro lint took {tree_lint.elapsed_s:.1f}s"


def test_strict_modules_config_consistent():
    strict, problems = check_strict_config(REPO_ROOT / "pyproject.toml")
    assert problems == [], "\n".join(problems)
    # The mypy graduation ratchet: the protocol surface has graduated.
    assert "repro.crypto.protocols" in strict
    assert "repro.broadcast.abc" in strict
    assert len(strict) >= 3


def test_tree_taint_clean(tree_lint):
    # Every true positive the taint pass surfaced was fixed, every
    # intentional pattern carries a justified inline suppression
    # (DESIGN.md §5e).
    taint = [f.render() for f in tree_lint.findings if f.rule.startswith("T")]
    assert taint == [], "\n".join(taint)


def test_taint_modules_configured(tree_lint):
    patterns = tree_lint.config.scope_patterns["taint"]
    assert "repro.broadcast.*" in patterns
    # the fault injector is the modeled adversary, not the defended surface
    assert "!repro.core.faults" in patterns
    assert not tree_lint.config.module_in_scope("repro.core.faults", "taint")


def test_tree_protocol_invariants_clean(tree_lint):
    # The quorum-arithmetic pass (DESIGN.md §5h): every first-run true
    # positive (the 2t+1 quorums) was fixed to n-t, and every threshold
    # site carries a declared kind.
    found = [f.render() for f in tree_lint.findings if f.rule[0] == "Q"]
    assert found == [], "\n".join(found)


def test_protocol_invariant_modules_configured(tree_lint):
    assert "repro.broadcast.*" in tree_lint.config.scope_patterns["quorum"]


def test_async_def_only_in_transports(tree_lint):
    # DESIGN.md §5h: transports only move bytes and every call into a
    # core is synchronous, so no protocol state is held across an await.
    outside = [
        f"{ctx.path}:{node.lineno}: async def {node.name}"
        for ctx in tree_lint.program.contexts
        if not ctx.module.startswith("repro.net.")
        for node in ast.walk(ctx.tree)
        if isinstance(node, ast.AsyncFunctionDef)
    ]
    assert "repro.core.replica" in {ctx.module for ctx in tree_lint.program.contexts}
    assert outside == [], (
        "async def outside repro.net.*: an async protocol or service "
        "handler can lose updates across an await, and nothing here checks "
        "that.  The await-race pass (yield-point lint rules and the task "
        "explorer) was deleted while no handler was async; find the "
        "deleting commit with 'git log --diff-filter=D -- "
        "src/repro/lint/races.py' (the pass was added in 9b8323a) and "
        "restore it, or keep the handler synchronous:\n"
        + "\n".join(outside)
    )
