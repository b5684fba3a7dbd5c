"""Suppression-comment parsing, staleness reporting (S101), scope
exclusions, and the repo-root anchoring that makes suppressions/baselines
work from subdirs."""

import textwrap

from repro.cli import main
from repro.lint.framework import (
    STALE_SUPPRESSION_RULE,
    FileContext,
    LintConfig,
    find_repo_root,
    parse_suppression_comments,
    run_source,
    stale_suppression_findings,
)


def parse(source):
    return parse_suppression_comments(textwrap.dedent(source))


class TestParsing:
    def test_same_line_comment_covers_its_line(self):
        sups = parse(
            """
            x = 1
            y = compute()  # repro-lint: disable=C304
            """
        )
        assert len(sups) == 1
        assert sups[0].rules == ("C304",)
        assert 3 in sups[0].covered

    def test_comment_only_line_covers_next_line(self):
        sups = parse(
            """
            # repro-lint: disable=T401
            x = assemble()
            """
        )
        assert len(sups) == 1
        assert 3 in sups[0].covered

    def test_multiple_rules_parsed(self):
        sups = parse(
            """
            # repro-lint: disable=C304,T404
            x = 1
            """
        )
        assert sups[0].rules == ("C304", "T404")

    def test_disable_file_covers_everything(self):
        sups = parse(
            """
            # repro-lint: disable-file=D101
            import time
            """
        )
        assert sups[0].covered == ()
        assert sups[0].shields("D101", 999)

    def test_docstring_examples_are_not_suppressions(self):
        # The directive syntax quoted inside a string literal (e.g. this
        # framework's own docstring) must not create a suppression.
        sups = parse(
            '''
            def f():
                """Use ``# repro-lint: disable=C304`` to suppress."""
                return 1
            '''
        )
        assert sups == []

    def test_syntax_error_source_yields_nothing(self):
        assert parse_suppression_comments("def broken(:\n") == []


def make_ctx(source, path="src/repro/broadcast/x.py"):
    import ast

    src = textwrap.dedent(source)
    return FileContext(
        path=path,
        module="repro.broadcast.x",
        source=src,
        tree=ast.parse(src),
        config=LintConfig(),
    )


class TestStaleReporting:
    def test_unused_suppression_reported(self):
        ctx = make_ctx(
            """
            # repro-lint: disable=C304
            x = 1
            """
        )
        findings = stale_suppression_findings(ctx, active_rules=["C304"])
        assert [f.rule for f in findings] == [STALE_SUPPRESSION_RULE]
        assert "C304" in findings[0].message

    def test_used_suppression_not_reported(self):
        ctx = make_ctx(
            """
            # repro-lint: disable=C304
            x = 1
            """
        )
        ctx.suppressions[0].used.add("C304")
        assert stale_suppression_findings(ctx, active_rules=["C304"]) == []

    def test_inactive_rule_exempt_from_staleness(self):
        # A T4xx suppression cannot be judged stale when --taint is off.
        ctx = make_ctx(
            """
            # repro-lint: disable=T401
            x = 1
            """
        )
        assert stale_suppression_findings(ctx, active_rules=["C304"]) == []

    def test_partially_used_comment_reports_only_unused_rule(self):
        ctx = make_ctx(
            """
            # repro-lint: disable=C304,T404
            x = 1
            """
        )
        ctx.suppressions[0].used.add("C304")
        findings = stale_suppression_findings(ctx, active_rules=["C304", "T404"])
        assert len(findings) == 1
        assert "T404" in findings[0].message


class TestOneRun:
    def test_unregistered_rule_id_is_reported(self):
        findings = run_source("x = 1  # repro-lint: disable=ZZZ9\n", path="x.py")
        assert [f.rule for f in findings] == [STALE_SUPPRESSION_RULE]
        assert "names no registered rule 'ZZZ9'" in findings[0].message

    def test_typo_in_rule_id_is_reported(self):
        # "T4O4" (letter O) shields nothing, whatever the T404 pass finds.
        findings = run_source("x = 1  # repro-lint: disable=T4O4\n", path="x.py")
        assert [f.rule for f in findings] == [STALE_SUPPRESSION_RULE]
        assert "T4O4" in findings[0].message

    def test_pass_rule_suppression_judged_stale_by_default_run(self, tmp_path, capsys):
        # Every pass runs by default, so a T/Q/Y suppression that shields
        # nothing is stale without any opt-in flag.
        target = tmp_path / "only.py"
        target.write_text("x = 1  # repro-lint: disable=T404\n")
        assert main(["lint", "--root", str(tmp_path), str(target)]) == 1
        out = capsys.readouterr().out
        assert "S101" in out and "T404" in out


class TestScopeExclusion:
    SOURCE = "import time\ndef f():\n    return time.time()\n"

    def test_exclusion_applies_to_ast_scopes(self):
        config = LintConfig()
        config.scope_patterns["deterministic"] = ("repro.*", "!repro.core.faults")
        excluded = run_source(self.SOURCE, "repro.core.faults", config=config)
        included = run_source(self.SOURCE, "repro.core.replica", config=config)
        assert [f.rule for f in excluded] == []
        assert [f.rule for f in included] == ["D101"]

    def test_pyproject_scope_keys_read_in_one_loop(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.repro-lint]\n"
            'deterministic_modules = ["repro.*", "!repro.core.faults"]\n'
            'quorum_modules = ["repro.net.*"]\n'
        )
        config = LintConfig.from_pyproject(tmp_path / "pyproject.toml")
        assert not config.module_in_scope("repro.core.faults", "deterministic")
        assert config.module_in_scope("repro.core.replica", "deterministic")
        assert config.scope_patterns["quorum"] == ("repro.net.*",)
        # untouched scopes keep their defaults
        assert "repro.broadcast.*" in config.scope_patterns["taint"]

    def test_file_outside_package_only_in_all_and_pass_scopes(self):
        config = LintConfig()
        for scope in ("all", "taint", "quorum"):
            assert config.module_in_scope("", scope)
        for scope in ("deterministic", "crypto", "handlers"):
            assert not config.module_in_scope("", scope)


class TestRepoRootAnchoring:
    def test_walks_up_to_pyproject(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[tool.repro-lint]\n")
        sub = tmp_path / "a" / "b"
        sub.mkdir(parents=True)
        assert find_repo_root(sub) == tmp_path

    def test_baseline_marker_also_anchors(self, tmp_path):
        (tmp_path / "lint-baseline.json").write_text("{}")
        sub = tmp_path / "deep"
        sub.mkdir()
        assert find_repo_root(sub) == tmp_path

    def test_falls_back_to_package_root(self, tmp_path):
        # No markers anywhere above tmp_path: the src-layout fallback must
        # land on this repository's own root (it has pyproject.toml).
        root = find_repo_root(tmp_path)
        assert (root / "pyproject.toml").is_file()
