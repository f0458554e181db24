"""Tests for the interprocedural flow passes (rules R7-R9, W0).

Each rule is proven both ways against ``tests/lint_fixtures/flow/``, the
live ``src/`` tree is asserted flow-clean (the CI invariant), and the
operational machinery around the passes is pinned: baseline suppression,
the per-file summary cache (correctness, invalidation and the warm-run
speedup), byte-determinism of the JSON and SARIF outputs, and the CLI
flags (``--flow``, ``--sarif``, ``--baseline``, ``--cache``,
``--changed``).
"""

import json
import shutil
import time
from pathlib import Path

import pytest

import repro.cli
from repro.cli import main
from repro.errors import ConfigurationError
from repro.lint import lint_paths
from repro.lint.flow import SUMMARY_FORMAT_VERSION
from repro.lint.flow.baseline import load_baseline
from repro.lint.flow.cache import CACHE_FORMAT_VERSION, content_hash
from repro.lint.flow.sarif import SARIF_VERSION, report_to_sarif, sarif_json

FLOW = Path(__file__).parent / "lint_fixtures" / "flow"
REPO_ROOT = Path(__file__).parent.parent


def _flow_report(*paths, **kwargs):
    return lint_paths(
        paths=[str(p) for p in paths], include_contracts=False, flow=True, **kwargs
    )


def _display(path: Path) -> str:
    """The runner's display form of *path* (relative to cwd if possible)."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


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
    assert "conditional draws break draw-count parity" in messages
    assert "draw-count parity cannot hold" in messages
    # Site findings anchor at the draw; manifest findings at the manifest.
    site_paths = {
        f.path for f in report.findings if "undeclared RNG stream 'tempo'" in f.message
    }
    assert all(p.endswith("engine/fused.py") for p in site_paths)
    manifest_paths = {f.path for f in report.findings if "parity group" in f.message}
    assert all(p.endswith("engine/rng.py") for p in manifest_paths)


def test_r9_good_fixture_is_clean():
    report = _flow_report(FLOW / "r9_good")
    assert report.findings == [], report.format_text()


# ---------------------------------------------------------------------------
# W0: stale suppressions
# ---------------------------------------------------------------------------


def test_w0_stale_pragma_is_flagged_only_under_flow():
    report = _flow_report(FLOW / "w0_stale")
    assert [f.rule for f in report.findings] == ["W0"]
    assert report.findings[0].severity == "warning"
    assert "stale '# lint-ok' pragma" in report.findings[0].message
    assert report.exit_code == 1  # warnings block too
    # Without the full rule set, staleness is undecidable: no W0.
    plain = lint_paths(
        paths=(str(FLOW / "w0_stale"),), include_contracts=False, flow=False
    )
    assert plain.findings == []


# ---------------------------------------------------------------------------
# live-tree invariant (what CI enforces)
# ---------------------------------------------------------------------------


def test_live_src_tree_is_flow_clean():
    report = _flow_report(REPO_ROOT / "src")
    assert report.findings == [], report.format_text()
    assert report.flow["enabled"] is True
    # Every source file is analysed: a pass that skips one fails here.
    assert report.flow["modules"] == len(list((REPO_ROOT / "src").rglob("*.py")))
    assert report.flow["functions"] > 500


def test_repo_baseline_is_empty():
    """The shipped baseline should stay empty: live findings get fixed or
    pragma'd with justification, not parked."""
    baseline = load_baseline(str(REPO_ROOT / "lint-baseline.json"))
    assert baseline.size == 0


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
# summary cache: format pins, reuse, invalidation, speedup
# ---------------------------------------------------------------------------


def test_format_versions_are_pinned():
    assert SUMMARY_FORMAT_VERSION == 1
    assert CACHE_FORMAT_VERSION == 1


def test_cache_reuse_and_invalidation(tmp_path):
    corpus = tmp_path / "corpus"
    shutil.copytree(FLOW / "r8_bad", corpus)
    cache = tmp_path / "flow-cache.json"

    cold = _flow_report(corpus, cache_path=str(cache))
    assert cold.flow["cache_misses"] == 2 and cold.flow["cache_hits"] == 0
    assert len(cold.findings) == 1 and cold.findings[0].rule == "R8"

    warm = _flow_report(corpus, cache_path=str(cache))
    assert warm.flow["cache_hits"] == 2 and warm.flow["cache_misses"] == 0
    # Identical findings; only the hit/miss counters legitimately differ.
    assert [f.as_dict() for f in warm.findings] == [f.as_dict() for f in cold.findings]

    # Fix the sink: only the edited file re-extracts, and the finding —
    # previously memoised under the old corpus key — must disappear.
    helper = corpus / "export_helper.py"
    fixed = helper.read_text().replace(
        "np.asarray(values).ravel()", "list(values)"
    )
    helper.write_text(fixed)
    third = _flow_report(corpus, cache_path=str(cache))
    assert third.flow["cache_misses"] == 1 and third.flow["cache_hits"] == 1
    assert third.findings == [], third.format_text()

    # The stale entry was replaced: the stored hash matches the new text.
    payload = json.loads(cache.read_text())
    assert payload["cache_format"] == CACHE_FORMAT_VERSION
    entry = payload["entries"][_display(helper)]
    assert entry["hash"] == content_hash(fixed)


def test_corrupt_cache_starts_cold(tmp_path):
    cache = tmp_path / "flow-cache.json"
    cache.write_text("{not json")
    report = _flow_report(FLOW / "r7_bad.py", cache_path=str(cache))
    assert report.flow["cache_misses"] == 1
    assert len(report.findings) == 2  # analysis unaffected


def test_warm_cache_run_is_at_least_twice_as_fast(tmp_path):
    """ISSUE acceptance: warm full run < half the cold wall-clock.

    The warm run skips both extraction (per-file hits) and propagation
    (whole-corpus result memo), leaving only hashing — far below 0.5x.
    """
    _flow_report(FLOW / "r7_good.py")  # import warm-up, off the clock
    cache = tmp_path / "flow-cache.json"

    start = time.perf_counter()
    cold = _flow_report(REPO_ROOT / "src", cache_path=str(cache))
    cold_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    warm = _flow_report(REPO_ROOT / "src", cache_path=str(cache))
    warm_elapsed = time.perf_counter() - start

    assert cold.flow["cache_hits"] == 0
    assert warm.flow["cache_misses"] == 0
    assert [f.as_dict() for f in warm.findings] == [f.as_dict() for f in cold.findings]
    assert warm_elapsed < 0.5 * cold_elapsed, (
        f"warm {warm_elapsed:.3f}s vs cold {cold_elapsed:.3f}s"
    )


# ---------------------------------------------------------------------------
# baseline suppression
# ---------------------------------------------------------------------------


def _baseline_for(report, justification="known issue, tracked"):
    return {
        "version": 1,
        "entries": [
            {
                "rule": f.rule,
                "path": f.path,
                "message": f.message,
                "justification": justification,
            }
            for f in report.findings
        ],
    }


def test_baseline_suppresses_matched_findings(tmp_path):
    unsuppressed = _flow_report(FLOW / "r7_bad.py")
    assert len(unsuppressed.findings) == 2
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps(_baseline_for(unsuppressed)))

    report = _flow_report(FLOW / "r7_bad.py", baseline_path=str(baseline))
    assert report.findings == []
    assert report.exit_code == 0
    assert report.baseline == {"path": str(baseline), "suppressed": 2, "stale": 0}


def test_stale_baseline_entry_is_w0(tmp_path):
    baseline = tmp_path / "baseline.json"
    baseline.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {
                        "rule": "R8",
                        "path": "src/repro/nowhere.py",
                        "message": "no such finding",
                        "justification": "long since fixed",
                    }
                ],
            }
        )
    )
    report = _flow_report(FLOW / "r7_good.py", baseline_path=str(baseline))
    assert [f.rule for f in report.findings] == ["W0"]
    assert report.findings[0].path == str(baseline)
    assert "stale baseline entry" in report.findings[0].message
    assert report.baseline["stale"] == 1
    assert report.exit_code == 1  # a rotting baseline blocks


def test_malformed_baselines_are_rejected(tmp_path):
    wrong_version = tmp_path / "v9.json"
    wrong_version.write_text(json.dumps({"version": 9, "entries": []}))
    with pytest.raises(ConfigurationError):
        _flow_report(FLOW / "r7_good.py", baseline_path=str(wrong_version))

    empty_just = tmp_path / "empty.json"
    empty_just.write_text(
        json.dumps(
            {
                "version": 1,
                "entries": [
                    {"rule": "R8", "path": "x.py", "message": "m", "justification": " "}
                ],
            }
        )
    )
    with pytest.raises(ConfigurationError):
        _flow_report(FLOW / "r7_good.py", baseline_path=str(empty_just))


# ---------------------------------------------------------------------------
# CLI: --flow / --sarif / --cache / --changed
# ---------------------------------------------------------------------------


def test_cli_flow_run_with_sarif_output(tmp_path, capsys):
    sarif_path = tmp_path / "lint.sarif"
    code = main(
        [
            "lint",
            str(FLOW / "r9_bad"),
            "--flow",
            "--no-contracts",
            "--sarif",
            str(sarif_path),
        ]
    )
    assert code == 1
    out = capsys.readouterr().out
    assert "R9" in out and "flow over" in out
    doc = json.loads(sarif_path.read_text())
    assert doc["version"] == "2.1.0"
    assert len(doc["runs"][0]["results"]) == 8


def test_cli_flow_clean_fixture_exits_zero(tmp_path, capsys):
    cache = tmp_path / "cache.json"
    code = main(
        [
            "lint",
            str(FLOW / "r9_good"),
            "--flow",
            "--no-contracts",
            "--cache",
            str(cache),
        ]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out
    assert cache.exists()


def test_cli_changed_restricts_reporting(monkeypatch, capsys):
    """--changed reports only findings in changed files, but the analysis
    still covers the whole corpus (the fixture tree here)."""
    changed = [_display(FLOW / "r7_bad.py")]
    monkeypatch.setattr(repro.cli, "_git_changed_files", lambda: changed)
    code = main(["lint", str(FLOW), "--flow", "--no-contracts", "--changed"])
    assert code == 1
    out = capsys.readouterr().out
    assert "R7" in out
    assert "R9" not in out  # r9_bad findings exist but are filtered


def test_cli_changed_with_no_changes_is_a_noop(monkeypatch, capsys):
    monkeypatch.setattr(repro.cli, "_git_changed_files", lambda: [])
    code = main(["lint", str(FLOW), "--flow", "--no-contracts", "--changed"])
    assert code == 0
    assert "no changed .py files" in capsys.readouterr().out
