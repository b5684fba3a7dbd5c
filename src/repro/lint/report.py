"""Rendering for ``repro lint`` and ``repro explore`` findings: text,
JSON, the rule catalog, and SARIF 2.1.0.

The SARIF log is the minimal static-analysis interchange subset consumed
by code hosts and SARIF viewers: one run, a rule catalog under
``tool.driver.rules``, and one result per finding with a physical
location.  Output is deterministic (sorted findings, sorted keys) so the
artifact diffs cleanly between CI runs.
"""

from __future__ import annotations

import json
from typing import Dict, Iterable, List, Sequence

from repro.lint.framework import Finding, RuleInfo

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: Sequence[Finding]) -> str:
    lines: List[str] = [f.render() for f in findings]
    if findings:
        lines.append(f"{len(findings)} finding(s)")
    return "\n".join(lines)


def render_json(findings: Sequence[Finding]) -> str:
    return json.dumps(
        [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "message": f.message,
            }
            for f in findings
        ],
        indent=2,
    )


def render_rule_catalog(rules: Iterable[RuleInfo]) -> str:
    return "\n".join(
        f"{rule.rule_id}  [{rule.scope:>13}]  {rule.summary}" for rule in rules
    )


def render_sarif(findings: Sequence[Finding], rules: Iterable[RuleInfo]) -> str:
    """The SARIF log for ``findings`` against the ``rules`` catalog.

    A finding whose rule is not in the catalog (a parse error) gets a
    stub descriptor at level ``error`` so the log is self-contained.
    """
    catalog: Dict[str, RuleInfo] = {rule.rule_id: rule for rule in rules}
    for f in findings:
        if f.rule not in catalog:
            catalog[f.rule] = RuleInfo(f.rule, f.rule, f.rule, "all", "error", "")
    rule_ids = sorted(catalog)
    rule_index = {rule_id: i for i, rule_id in enumerate(rule_ids)}
    descriptors = [
        {
            "id": rule_id,
            "shortDescription": {"text": catalog[rule_id].summary},
            "fullDescription": {"text": catalog[rule_id].description},
            "defaultConfiguration": {"level": catalog[rule_id].level},
        }
        for rule_id in rule_ids
    ]
    results = [
        {
            "ruleId": f.rule,
            "ruleIndex": rule_index[f.rule],
            "level": catalog[f.rule].level,
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": f.path, "uriBaseId": "SRCROOT"},
                        "region": {"startLine": f.line, "startColumn": f.col + 1},
                    }
                }
            ],
        }
        for f in sorted(findings, key=lambda f: (f.path, f.line, f.col, f.rule))
    ]
    log = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-lint",
                        "version": "1.0",
                        "informationUri": "https://example.invalid/repro-lint",
                        "rules": descriptors,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
