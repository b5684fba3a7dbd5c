"""``repro lint`` CLI integration: repo-root anchoring, the all-pass
default run, --sarif, and --list-rules wiring."""

import ast
import json
from collections import Counter
from pathlib import Path

from repro.cli import main
from repro.lint.framework import load_rules
from repro.lint.index import ProgramIndex

REPO_ROOT = Path(__file__).resolve().parents[2]
CORPUS = REPO_ROOT / "tests" / "lint" / "corpus"
#: A small package file whose inline C301 suppression is only used when
#: the file resolves to its crypto-scoped module.
SMALL_FILE = REPO_ROOT / "src" / "repro" / "dns" / "tsig.py"


class TestSubdirInvocation:
    def test_check_baseline_from_subdirectory(self, monkeypatch, capsys):
        # The analyzer must anchor to the repo root (pyproject.toml /
        # lint-baseline.json), not the CWD: same result from tests/.
        monkeypatch.chdir(REPO_ROOT / "tests")
        assert main(["lint", "--check-baseline", str(SMALL_FILE)]) == 0
        assert "lint clean" in capsys.readouterr().out

    def test_explicit_root_override(self, capsys):
        assert (
            main(["lint", "--root", str(REPO_ROOT), "--check-baseline", str(SMALL_FILE)])
            == 0
        )


class TestDefaultRun:
    def test_taint_flags_seeded_corpus_file(self, tmp_path, capsys):
        # No flag: the default run includes the taint pass.
        code = main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--format",
                "text",
                # point at a nonexistent baseline so findings print rather
                # than being diffed against the repo's ratchet file
                "--baseline",
                str(tmp_path / "none.json"),
                str(CORPUS / "vuln_t401_share_assembly.py"),
            ]
        )
        assert code == 1
        assert "T401" in capsys.readouterr().out

    def test_help_has_no_pass_flags(self, capsys):
        try:
            main(["lint", "--help"])
        except SystemExit:
            pass
        out = capsys.readouterr().out
        for flag in ("--taint", "--quorum"):
            assert flag not in out


class TestOneRun:
    def test_each_file_parsed_once_and_index_built_once(
        self, monkeypatch, tmp_path, capsys
    ):
        parses = Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parses[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        builds = []
        real_init = ProgramIndex.__init__

        def counting_init(self, files):
            builds.append(len(files))
            real_init(self, files)

        monkeypatch.setattr(ast, "parse", counting_parse)
        monkeypatch.setattr(ProgramIndex, "__init__", counting_init)
        main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--baseline",
                str(tmp_path / "none.json"),
                str(CORPUS),
            ]
        )
        files = [p.relative_to(REPO_ROOT).as_posix() for p in CORPUS.glob("*.py")]
        assert {path: parses[path] for path in files} == {path: 1 for path in files}
        assert builds == [len(files)]


class TestSarif:
    def test_sarif_written_with_rule_catalog(self, tmp_path, capsys):
        out_file = tmp_path / "out.sarif"
        main(
            [
                "lint",
                "--root",
                str(REPO_ROOT),
                "--sarif",
                str(out_file),
                str(CORPUS / "vuln_t403_alloc.py"),
            ]
        )
        doc = json.loads(out_file.read_text())
        assert doc["version"] == "2.1.0"
        run = doc["runs"][0]
        rules = {r["id"]: r for r in run["tool"]["driver"]["rules"]}
        assert set(rules) == {rule.rule_id for rule in load_rules()}
        assert rules["T403"]["defaultConfiguration"]["level"] == "error"
        assert rules["D101"]["defaultConfiguration"]["level"] == "warning"
        assert rules["S101"]["defaultConfiguration"]["level"] == "note"
        results = run["results"]
        assert any(r["ruleId"] == "T403" for r in results)

    def test_sarif_on_clean_input_has_no_results(self, tmp_path, capsys):
        out_file = tmp_path / "clean.sarif"
        assert (
            main(
                [
                    "lint",
                    "--root",
                    str(REPO_ROOT),
                    "--sarif",
                    str(out_file),
                    str(CORPUS / "clean_verified.py"),
                ]
            )
            == 0
        )
        doc = json.loads(out_file.read_text())
        assert doc["runs"][0]["results"] == []


class TestListRules:
    def test_catalog_includes_taint_and_framework_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        listed = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
        assert listed == sorted(rule.rule_id for rule in load_rules())
        assert len(listed) == 26
        for rule_id in ("T401", "T408", "Q501", "S101"):
            assert rule_id in listed

    def test_design_rule_table_matches_registry(self):
        # DESIGN.md §5c's one rule table (id · pass · scope · level ·
        # summary) documents exactly the registered rules.
        lines = (REPO_ROOT / "DESIGN.md").read_text(encoding="utf-8").splitlines()
        start = lines.index("| id | pass | scope | level | summary |") + 2
        rows = []
        for line in lines[start:]:
            if not line.startswith("|"):
                break
            rows.append([cell.strip() for cell in line.strip("|").split("|")])
        registry = {rule.rule_id: rule for rule in load_rules()}
        assert sorted(row[0] for row in rows) == sorted(registry)
        for rule_id, check, scope, level, _summary in rows:
            info = registry[rule_id]
            assert (check, scope, level) == (info.check, info.scope, info.level), rule_id
