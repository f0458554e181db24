"""Tests for the interprocedural flow passes (rules R7-R9, W0).

Each rule is proven both ways against ``tests/lint_fixtures/flow/`` (the
live ``src/`` tree's cleanliness is pinned in ``tests/test_lint.py``),
and the outputs around the passes are pinned: byte-determinism of the
JSON and SARIF reports, the SARIF structure and the CLI's ``--sarif``.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import lint_paths
from repro.lint.flow.sarif import SARIF_VERSION, report_to_sarif, sarif_json

FLOW = Path(__file__).parent / "lint_fixtures" / "flow"


def _flow_report(*paths):
    return lint_paths([str(p) for p in paths])


# ---------------------------------------------------------------------------
# R7: integer width flow
# ---------------------------------------------------------------------------


def test_r7_bad_fixture_is_flagged():
    report = _flow_report(FLOW / "r7_bad.py")
    assert {f.rule for f in report.findings} == {"R7"}
    assert len(report.findings) == 2
    messages = "\n".join(f.message for f in report.findings)
    assert "narrowed with astype" in messages
    assert "subscript store" in messages
    assert messages.count("without a saturating clip") == 2
    assert all(f.severity == "error" for f in report.findings)


def test_r7_good_fixture_is_clean():
    report = _flow_report(FLOW / "r7_good.py")
    assert report.findings == [], report.format_text()


# ---------------------------------------------------------------------------
# R8: device-residency flow (transitive, multi-file)
# ---------------------------------------------------------------------------


def test_r8_bad_transitive_flow_is_flagged():
    report = _flow_report(FLOW / "r8_bad")
    assert {f.rule for f in report.findings} == {"R8"}
    assert len(report.findings) == 1
    finding = report.findings[0]
    # The sink is two call hops away from the xp allocation, in another file.
    assert finding.path.endswith("r8_bad/export_helper.py")
    assert "np.asarray" in finding.message
    assert "ops.to_host" in finding.message


def test_r8_good_crossing_is_clean():
    """``acc = ops.to_host(acc)`` must genuinely clear residency (strong
    update on an unconditional rebind), so the helper's asarray is fine."""
    report = _flow_report(FLOW / "r8_good")
    assert report.findings == [], report.format_text()


# ---------------------------------------------------------------------------
# R9: RNG-stream provenance
# ---------------------------------------------------------------------------


def test_r9_bad_fixture_triggers_every_check():
    report = _flow_report(FLOW / "r9_bad")
    assert {f.rule for f in report.findings} == {"R9"}
    messages = "\n".join(f.message for f in report.findings)
    assert "undeclared RNG stream 'tempo'" in messages
    assert "not a declared consumer of RNG stream 'learning'" in messages
    assert "'retired' is drawn but has no STREAM_CONSUMERS" in messages
    assert "declares 'engine/encoder.py' as a consumer of 'encoding'" in messages
    assert "'spare' has no consumers and no RESERVED_STREAMS" in messages
    assert len(report.findings) == 5
    # Site findings anchor at the draw; manifest findings at the manifest.
    site_paths = {
        f.path for f in report.findings if "undeclared RNG stream 'tempo'" in f.message
    }
    assert site_paths and all(p.endswith("engine/fused.py") for p in site_paths)
    manifest_paths = {f.path for f in report.findings if "no RESERVED_STREAMS" in f.message}
    assert manifest_paths and all(p.endswith("engine/rng.py") for p in manifest_paths)


def test_r9_good_fixture_is_clean():
    report = _flow_report(FLOW / "r9_good")
    assert report.findings == [], report.format_text()


# ---------------------------------------------------------------------------
# W0: stale suppressions
# ---------------------------------------------------------------------------


def test_w0_stale_pragma_is_flagged():
    report = _flow_report(FLOW / "w0_stale")
    assert [f.rule for f in report.findings] == ["W0"]
    assert report.findings[0].severity == "warning"
    assert "stale '# lint-ok' pragma" in report.findings[0].message
    assert report.exit_code == 1  # warnings block too


# ---------------------------------------------------------------------------
# determinism: two runs -> byte-identical JSON and SARIF
# ---------------------------------------------------------------------------


def test_report_and_sarif_are_byte_deterministic():
    first = _flow_report(FLOW)
    second = _flow_report(FLOW)
    assert first.to_json() == second.to_json()
    assert sarif_json(first) == sarif_json(second)
    assert first.findings  # the corpus genuinely produces findings


# ---------------------------------------------------------------------------
# SARIF 2.1.0 structure
# ---------------------------------------------------------------------------

#: The slice of the SARIF 2.1.0 schema that code scanning requires of us;
#: validated with jsonschema when available (CI installs it).
_SARIF_SUBSET_SCHEMA = {
    "type": "object",
    "required": ["$schema", "version", "runs"],
    "properties": {
        "version": {"const": "2.1.0"},
        "runs": {
            "type": "array",
            "minItems": 1,
            "items": {
                "type": "object",
                "required": ["tool", "results"],
                "properties": {
                    "tool": {
                        "type": "object",
                        "required": ["driver"],
                        "properties": {
                            "driver": {
                                "type": "object",
                                "required": ["name", "rules"],
                            }
                        },
                    },
                    "results": {
                        "type": "array",
                        "items": {
                            "type": "object",
                            "required": ["ruleId", "level", "message", "locations"],
                            "properties": {
                                "level": {"enum": ["error", "warning", "note"]},
                                "message": {
                                    "type": "object",
                                    "required": ["text"],
                                },
                                "locations": {
                                    "type": "array",
                                    "minItems": 1,
                                    "items": {
                                        "type": "object",
                                        "required": ["physicalLocation"],
                                    },
                                },
                            },
                        },
                    },
                },
            },
        },
    },
}


def test_sarif_document_structure():
    report = _flow_report(FLOW / "r9_bad")
    doc = report_to_sarif(report)
    assert doc["version"] == SARIF_VERSION == "2.1.0"
    assert "sarif-schema-2.1.0.json" in doc["$schema"]
    run = doc["runs"][0]
    rules = run["tool"]["driver"]["rules"]
    rule_ids = [r["id"] for r in rules]
    assert rule_ids == sorted(rule_ids)
    assert {"R7", "R8", "R9", "W0"} <= set(rule_ids)
    w0 = next(r for r in rules if r["id"] == "W0")
    assert w0["defaultConfiguration"]["level"] == "warning"
    assert len(run["results"]) == len(report.findings)
    for result in run["results"]:
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1
        assert result["ruleId"] == rules[result["ruleIndex"]]["id"]

    jsonschema = pytest.importorskip("jsonschema")
    jsonschema.validate(doc, _SARIF_SUBSET_SCHEMA)


# ---------------------------------------------------------------------------
# CLI: --sarif
# ---------------------------------------------------------------------------


def test_cli_flow_run_with_sarif_output(tmp_path, capsys):
    sarif_path = tmp_path / "lint.sarif"
    code = main(["lint", str(FLOW / "r9_bad"), "--sarif", str(sarif_path)])
    assert code == 1
    out = capsys.readouterr().out
    assert "R9" in out and "functions" in out
    doc = json.loads(sarif_path.read_text())
    assert doc["version"] == "2.1.0"
    assert len(doc["runs"][0]["results"]) == 5


def test_cli_flow_clean_fixture_exits_zero(capsys):
    code = main(["lint", str(FLOW / "r9_good")])
    assert code == 0
    assert "clean" in capsys.readouterr().out
