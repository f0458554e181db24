"""Tests for the ``repro lint`` static-analysis package (rules R1-R6).

The flow-analysis rules R7-R9 and the W0 stale-pragma warning have their
own suite in ``tests/test_lint_flow.py``.

Each rule is proven both ways against the fixture corpus in
``tests/lint_fixtures/``: the bad fixture must produce findings, the good
fixture (or the same source outside the rule's scope) must not.  On top of
that the suite pins the JSON report schema, exercises the CLI subcommand
end to end, and asserts the live ``src/`` tree is clean — the same
invariant the CI lint job enforces.
"""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.engine.registry import (
    EngineSpec,
    Equivalence,
    register_engine,
    unregister_engine,
)
from repro.lint import (
    REPORT_SCHEMA_VERSION,
    RULE_DESCRIPTIONS,
    check_engine_contracts,
    lint_paths,
    lint_source,
)

FIXTURES = Path(__file__).parent / "lint_fixtures"
REPO_ROOT = Path(__file__).parent.parent


def _lint_fixture(relative: str):
    """Lint one fixture file, keeping its path (which scopes R1/R2)."""
    path = FIXTURES / relative
    return lint_source(path.read_text(), path.as_posix())


# ---------------------------------------------------------------------------
# R1: explicit, function-scoped randomness
# ---------------------------------------------------------------------------


def test_r1_bad_fixture_is_flagged():
    findings = _lint_fixture("bad/seedless_rng.py")
    assert findings, "the R1 fixture must produce findings"
    assert {f.rule for f in findings} == {"R1"}
    messages = "\n".join(f.message for f in findings)
    assert "module-level" in messages
    assert "without a seed" in messages
    assert "RandomState" in messages
    assert "np.random.seed" in messages
    assert "hidden global state" in messages
    assert len(findings) == 5


def test_r1_good_fixture_is_clean():
    assert _lint_fixture("good/clean_rng.py") == []


def test_r1_resolves_import_aliases():
    source = "from numpy.random import default_rng\n\n\ndef f():\n    return default_rng()\n"
    findings = lint_source(source, "pkg/mod.py")
    assert [f.rule for f in findings] == ["R1"]
    source = "import numpy.random as npr\n\n\ndef f():\n    return npr.rand(3)\n"
    findings = lint_source(source, "pkg/mod.py")
    assert [f.rule for f in findings] == ["R1"]


def test_r1_exempts_the_rng_module():
    source = FIXTURES.joinpath("bad/seedless_rng.py").read_text()
    findings = lint_source(source, "src/repro/engine/rng.py")
    assert [f for f in findings if f.rule == "R1"] == []


# ---------------------------------------------------------------------------
# R2: dtype discipline in hot paths
# ---------------------------------------------------------------------------


def test_r2_bad_fixture_is_flagged():
    findings = _lint_fixture("engine/bad_dtype.py")
    assert findings, "the R2 fixture must produce findings"
    assert {f.rule for f in findings} == {"R2"}
    messages = "\n".join(f.message for f in findings)
    assert "without an explicit" in messages
    assert "float32/float64 mixing" in messages
    assert len(findings) == 3


def test_r2_good_fixture_is_clean():
    assert _lint_fixture("engine/good_dtype.py") == []


def test_r2_scoped_to_hot_path_directories():
    source = FIXTURES.joinpath("engine/bad_dtype.py").read_text()
    findings = lint_source(source, "src/repro/datasets/loader.py")
    assert [f for f in findings if f.rule == "R2"] == []


def test_r2_int_native_flags_silent_upcasts():
    findings = _lint_fixture("quantization/bad_upcast.py")
    assert findings, "the int-native R2 fixture must produce findings"
    assert {f.rule for f in findings} == {"R2"}
    messages = "\n".join(f.message for f in findings)
    assert "integer-native" in messages
    assert "silently promotes" in messages
    assert "platform-default width" in messages
    assert len(findings) == 4


def test_r2_int_native_applies_to_the_qfused_kernel():
    source = "import numpy as np\n\n\ndef f(codes):\n    return np.asarray(codes)\n"
    # The qfused engine is the gather loop (engine/event_train.py) over the
    # code store (engine/qevent.py).
    for path in ("src/repro/engine/event_train.py", "src/repro/engine/qevent.py"):
        findings = lint_source(source, path)
        assert [f.rule for f in findings if f.rule == "R2"] == ["R2"], path
    # The same conversion outside the integer-native scope (the float-only
    # event-driven oracle) draws no R2 finding.
    scalar = lint_source(source, "src/repro/engine/event_driven.py")
    assert [f for f in scalar if f.rule == "R2"] == []


def test_r2_int_native_applies_to_the_qevent_and_qbatched_kernels():
    """The gather loop, its code store and the batched engine (whose
    qbatched path carries frozen codes) sit in the int-native R2 scope: the
    full bad-upcast fixture must fire at every one of those paths."""
    source = FIXTURES.joinpath("quantization/bad_upcast.py").read_text()
    for path in (
        "src/repro/engine/event_train.py",
        "src/repro/engine/qevent.py",
        "src/repro/engine/batched.py",
    ):
        findings = [f for f in lint_source(source, path) if f.rule == "R2"]
        assert {f.rule for f in findings} == {"R2"}, path
        assert len(findings) == 4, path
    # A float-only engine in the same directory sees plain R2 scoping, where
    # dtype-less asarray/astype(float) upcasts are not policed.
    scalar = lint_source(source, "src/repro/engine/event_driven.py")
    assert [f for f in scalar if f.rule == "R2"] == []


# ---------------------------------------------------------------------------
# R3: engine-registry contract conformance
# ---------------------------------------------------------------------------

_BAD_SPEC = EngineSpec(
    name="bad-fixture",
    factory="tests.lint_fixtures.contracts.bad_engine:BadEngine",
    supports_learning=True,
    supports_batch=True,
    equivalence=Equivalence.BIT_EXACT,
    backends=("numpy",),
    summary="deliberately mis-declared fixture engine",
)


def test_r3_bad_spec_is_flagged():
    findings = check_engine_contracts([_BAD_SPEC])
    assert findings, "the mis-declared spec must produce findings"
    assert {f.rule for f in findings} == {"R3"}
    messages = "\n".join(f.message for f in findings)
    assert "advertises name" in messages
    assert "does not implement run()" in messages
    assert "collect_responses" in messages


def test_r3_unresolvable_factory_is_flagged():
    spec = EngineSpec(
        name="ghost",
        factory="repro.engine.presentation:NoSuchClass",
        supports_learning=False,
        supports_batch=False,
        equivalence=Equivalence.STATISTICAL,
        backends=("numpy",),
        summary="factory points nowhere",
    )
    findings = check_engine_contracts([spec])
    assert len(findings) == 1
    assert "no attribute 'NoSuchClass'" in findings[0].message


def test_r3_registered_engines_flow_into_the_report():
    register_engine(_BAD_SPEC)
    try:
        report = lint_paths(paths=(str(FIXTURES / "good"),), include_contracts=True)
    finally:
        unregister_engine(_BAD_SPEC.name)
    assert report.exit_code == 1
    assert all(f.rule == "R3" for f in report.findings)
    assert report.contracts_checked == 6  # five built-ins + the bad fixture


# ---------------------------------------------------------------------------
# R4: default-argument hygiene
# ---------------------------------------------------------------------------


def test_r4_bad_fixture_is_flagged():
    findings = _lint_fixture("bad/bad_defaults.py")
    assert findings, "the R4 fixture must produce findings"
    assert {f.rule for f in findings} == {"R4"}
    messages = "\n".join(f.message for f in findings)
    assert "mutable default for parameter 'history'" in messages
    assert "mutable default for parameter 'cache'" in messages
    assert "annotate Optional" in messages
    assert len(findings) == 3


def test_r4_optional_annotations_are_accepted():
    source = (
        "from typing import Optional\n"
        "import numpy as np\n\n\n"
        "def f(rng: Optional[np.random.Generator] = None) -> None:\n"
        "    pass\n"
    )
    assert lint_source(source, "pkg/mod.py") == []


# ---------------------------------------------------------------------------
# R5: exception-handling hygiene
# ---------------------------------------------------------------------------


def test_r5_bad_fixture_is_flagged():
    findings = _lint_fixture("bad/broad_except.py")
    assert findings, "the R5 fixture must produce findings"
    assert {f.rule for f in findings} == {"R5"}
    messages = "\n".join(f.message for f in findings)
    assert "bare 'except:'" in messages
    assert "blanket 'except Exception'" in messages
    assert len(findings) == 4


def test_r5_good_fixture_is_clean():
    assert _lint_fixture("good/clean_except.py") == []


def test_r5_exempts_the_resilience_package():
    source = FIXTURES.joinpath("bad/broad_except.py").read_text()
    findings = lint_source(source, "src/repro/resilience/faults.py")
    assert [f for f in findings if f.rule == "R5"] == []


def test_r5_reraise_cleanup_is_not_flagged():
    source = (
        "def save(path):\n"
        "    try:\n"
        "        write(path)\n"
        "    except BaseException:\n"
        "        cleanup(path)\n"
        "        raise\n"
    )
    assert lint_source(source, "pkg/mod.py") == []


def test_r5_pragma_suppresses():
    source = (
        "def f():\n"
        "    try:\n"
        "        g()\n"
        "    except Exception:  # lint-ok: R5\n"
        "        return None\n"
    )
    assert lint_source(source, "pkg/mod.py") == []


# ---------------------------------------------------------------------------
# R6: backend discipline in backend-generic kernels
# ---------------------------------------------------------------------------


def test_r6_bad_fixture_is_flagged():
    source = FIXTURES.joinpath("engine/bad_backend.py").read_text()
    # A backend-generic module outside R2's int-native scope, so the
    # fixture's dtype-less asarray is R6's alone.
    findings = lint_source(source, "src/repro/engine/plasticity.py")
    assert findings, "the R6 fixture must produce findings"
    assert {f.rule for f in findings} == {"R6"}
    messages = "\n".join(f.message for f in findings)
    assert "backend-generic" in messages
    assert "xp module" in messages
    assert len(findings) == 4


def test_r6_good_fixture_is_clean():
    source = FIXTURES.joinpath("engine/good_backend.py").read_text()
    assert lint_source(source, "src/repro/engine/plasticity.py") == []


def test_r6_scoped_to_backend_generic_modules():
    """The same source outside the backend-generic kernels is not policed:
    host-only modules may create numpy arrays freely."""
    source = FIXTURES.joinpath("engine/bad_backend.py").read_text()
    assert lint_source(source, "src/repro/engine/presentation.py") == []
    assert lint_source(source, "src/repro/pipeline/trainer.py") == []


def test_r6_applies_across_all_kernel_layers():
    """One un-dispatched conversion must fire in every backend-generic
    module tier: gather kernels, plasticity, codec and encoders."""
    source = "import numpy as np\n\n\ndef f(x):\n    return np.asarray(x)\n"
    for path in (
        "src/repro/engine/event_train.py",
        "src/repro/engine/plasticity.py",
        "src/repro/quantization/codec.py",
        "src/repro/encoding/poisson.py",
    ):
        findings = lint_source(source, path)
        assert [f.rule for f in findings if f.rule == "R6"] == ["R6"], path


def test_r6_resolves_numpy_import_alias():
    source = "import numpy as xnp\n\n\ndef f(x):\n    return xnp.asarray(x)\n"
    findings = lint_source(source, "src/repro/engine/event_train.py")
    assert [f.rule for f in findings] == ["R6"]


def test_r6_pragma_suppresses():
    source = (
        "import numpy as np\n\n\n"
        "def f(n):\n"
        "    return np.empty(n, dtype=bool)  # lint-ok: R6\n"
    )
    assert lint_source(source, "src/repro/engine/event_train.py") == []


# ---------------------------------------------------------------------------
# pragma suppression
# ---------------------------------------------------------------------------


def test_pragma_suppresses_all_rules_on_the_line():
    source = "def f(history: list = []):  # lint-ok\n    return history\n"
    assert lint_source(source, "pkg/mod.py") == []


def test_pragma_with_rule_list_only_suppresses_those_rules():
    source = "def f(history: list = []):  # lint-ok: R1\n    return history\n"
    findings = lint_source(source, "pkg/mod.py")
    assert [f.rule for f in findings] == ["R4"]


# ---------------------------------------------------------------------------
# report schema and live-tree invariants
# ---------------------------------------------------------------------------


def test_live_src_tree_is_clean():
    report = lint_paths(paths=(str(REPO_ROOT / "src"),), include_contracts=True)
    assert report.findings == [], report.format_text()
    assert report.exit_code == 0
    assert report.files_checked > 50
    assert report.contracts_checked >= 4


def test_json_schema_is_stable():
    report = lint_paths(paths=(str(FIXTURES / "bad"),), include_contracts=False)
    payload = json.loads(report.to_json())
    assert payload["schema_version"] == REPORT_SCHEMA_VERSION == 2
    assert payload["tool"] == "repro-lint"
    assert set(payload) == {
        "schema_version",
        "tool",
        "rules",
        "files_checked",
        "contracts_checked",
        "flow",
        "baseline",
        "summary",
        "findings",
    }
    assert set(payload["rules"]) == set(RULE_DESCRIPTIONS) == {
        "R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "W0",
    }
    assert set(payload["flow"]) == {
        "enabled", "modules", "functions", "cache_hits", "cache_misses",
    }
    assert payload["flow"]["enabled"] is False  # flow not requested here
    assert set(payload["baseline"]) == {"path", "suppressed", "stale"}
    assert payload["summary"]["total"] == len(payload["findings"]) > 0
    by_rule = payload["summary"]["by_rule"]
    assert set(by_rule) >= {"R1", "R2", "R3", "R4", "R5", "R6", "R7", "R8", "R9", "W0"}
    assert by_rule["R3"] == 0
    by_severity = payload["summary"]["by_severity"]
    assert set(by_severity) == {"error", "warning"}
    assert by_severity["error"] + by_severity["warning"] == payload["summary"]["total"]
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message", "severity"}
        assert finding["severity"] in ("error", "warning")
    # deterministic ordering: (path, line, col, rule)
    keys = [(f["path"], f["line"], f["col"], f["rule"]) for f in payload["findings"]]
    assert keys == sorted(keys)


def test_nonexistent_path_raises():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        lint_paths(paths=("no/such/dir",))


# ---------------------------------------------------------------------------
# CLI subcommand
# ---------------------------------------------------------------------------


def test_cli_lint_clean_tree_exits_zero(capsys):
    assert main(["lint", str(FIXTURES / "good")]) == 0
    out = capsys.readouterr().out
    assert "clean" in out


def test_cli_lint_findings_exit_nonzero(capsys):
    assert main(["lint", str(FIXTURES / "bad"), "--no-contracts"]) == 1
    out = capsys.readouterr().out
    assert "R1" in out and "R4" in out
    assert "findings" in out


def test_cli_lint_json_output_and_report_file(tmp_path, capsys):
    out_file = tmp_path / "lint-report.json"
    code = main(
        [
            "lint",
            str(FIXTURES / "bad"),
            "--no-contracts",
            "--format",
            "json",
            "--out",
            str(out_file),
        ]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(out_file.read_text())
    assert stdout_payload == file_payload
    assert file_payload["schema_version"] == REPORT_SCHEMA_VERSION


# ---------------------------------------------------------------------------
# strict-typing configuration
# ---------------------------------------------------------------------------


def test_mypy_strict_config_is_declared():
    text = (REPO_ROOT / "pyproject.toml").read_text()
    assert "[tool.mypy]" in text
    assert '"repro.engine.*"' in text
    assert '"repro.quantization.*"' in text
    assert '"repro.config.*"' in text
    assert "disallow_untyped_defs = true" in text


def test_mypy_passes_on_strict_packages():
    """Run mypy when available (CI installs it; the base image may not)."""
    pytest.importorskip("mypy")
    import subprocess
    import sys

    result = subprocess.run(
        [sys.executable, "-m", "mypy", "--config-file", "pyproject.toml"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
