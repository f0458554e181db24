"""Resilience analysis: the built-in fault scenarios end to end, their
tabulation, and the ``python -m repro resilience`` command.

The ensemble tests run every built-in scenario (about a second on the tiny
workload) and pin each one's recovery — the space ``python -m repro
resilience --check`` gates in CI's fault-injection job.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.config.parameters import RoundingMode
from repro.config.presets import get_preset
from repro.resilience.degrade import next_tier
from repro.resilience.explore import (
    DAMAGE_CORRUPT,
    DAMAGE_NONE,
    ENGINES,
    FAULT_KINDS,
    KIND_CRASH,
    KIND_ENGINE_FAULT,
    OUTCOME_DEGRADED,
    OUTCOME_LOST_WORK,
    OUTCOME_RESUMED,
    OUTCOME_UNRECOVERED,
    SCENARIOS,
    FaultScenario,
    ScenarioOutcome,
    ScenarioRunner,
    scenario_config,
    scenario_images,
)
from repro.resilience.tabulate import REPORT_KIND, REPORT_VERSION, ResilienceReport

_RESUMED, _DEGRADED, _LOST = OUTCOME_RESUMED, OUTCOME_DEGRADED, OUTCOME_LOST_WORK

#: Every built-in scenario's recovery: (outcome class, bit_identical,
#: work_lost, hops).  Autosaves land on multiples of the cadence, and a
#: crash after presentation p resumes from the last one (work_lost is p
#: minus its index); a corrupted checkpoint, or none yet, costs a restart
#: (work_lost p); an engine fault costs one degradation hop.  A crash before
#: the first autosave leaves nothing to damage, so it runs undamaged only.
EXPECTED = {
    "crash:fused:p3:a2:none": (_RESUMED, True, 1, 0),
    "crash:fused:p3:a2:corrupt": (_LOST, True, 3, 0),
    "crash:fused:p3:a4:none": (_LOST, True, 3, 0),
    "crash:fused:p6:a2:none": (_RESUMED, True, 0, 0),
    "crash:fused:p6:a2:corrupt": (_LOST, True, 6, 0),
    "crash:fused:p6:a4:none": (_RESUMED, True, 2, 0),
    "crash:fused:p6:a4:corrupt": (_LOST, True, 6, 0),
    "crash:qfused:p3:a2:none": (_RESUMED, True, 1, 0),
    "crash:qfused:p3:a2:corrupt": (_LOST, True, 3, 0),
    "crash:qfused:p3:a4:none": (_LOST, True, 3, 0),
    "crash:qfused:p6:a2:none": (_RESUMED, True, 0, 0),
    "crash:qfused:p6:a2:corrupt": (_LOST, True, 6, 0),
    "crash:qfused:p6:a4:none": (_RESUMED, True, 2, 0),
    "crash:qfused:p6:a4:corrupt": (_LOST, True, 6, 0),
    "engine_fault:fused:p3:a0:none": (_DEGRADED, True, 0, 1),
    "engine_fault:fused:p6:a0:none": (_DEGRADED, True, 0, 1),
    "engine_fault:qfused:p3:a0:none": (_DEGRADED, True, 0, 1),
    "engine_fault:qfused:p6:a0:none": (_DEGRADED, True, 0, 1),
}


@pytest.fixture(scope="module")
def builtin_outcomes(tmp_path_factory):
    runner = ScenarioRunner(tmp_path_factory.mktemp("ensemble"))
    return {o.scenario.scenario_id: o for o in runner.run_all()}


# ----------------------------------------------------------------------
# the built-in fault space and its workload
# ----------------------------------------------------------------------


class TestBuiltinSpace:
    def test_every_scenario_has_a_pinned_recovery(self):
        assert [sc.scenario_id for sc in SCENARIOS] == list(EXPECTED)

    def test_space_spans_every_kind_engine_cadence_and_damage(self):
        crashes = [sc for sc in SCENARIOS if sc.kind == KIND_CRASH]
        assert {sc.kind for sc in SCENARIOS} == set(FAULT_KINDS)
        assert {sc.engine for sc in SCENARIOS} == set(ENGINES)
        assert {sc.autosave_every for sc in crashes} == {2, 4}
        assert {sc.damage for sc in crashes} == {DAMAGE_NONE, DAMAGE_CORRUPT}
        # Damage needs a checkpoint: the crash comes after the first autosave.
        assert all(
            sc.at_presentation >= sc.autosave_every
            for sc in crashes if sc.damage == DAMAGE_CORRUPT
        )

    def test_every_engine_has_a_fallback_tier(self):
        assert all(next_tier(engine) is not None for engine in ENGINES)

    def test_scenario_id_is_stable(self):
        sc = FaultScenario(KIND_CRASH, "fused", 3, 2, DAMAGE_CORRUPT)
        assert sc.scenario_id == "crash:fused:p3:a2:corrupt"


class TestWorkload:
    def test_quantized_engines_get_a_q_format(self):
        assert scenario_config("qfused").quantization.fmt == "Q1.7"
        assert scenario_config("fused").quantization.fmt is None

    def test_quantized_engines_train_at_the_presets_default_rounding(self):
        """Scenarios exercise stochastic rounding, the fixed-point presets'
        default, not a rounding chosen to keep the tiers in step."""
        rounding = scenario_config("qfused").quantization.rounding
        assert rounding is RoundingMode.STOCHASTIC
        assert get_preset("8bit").quantization.rounding is RoundingMode.STOCHASTIC

    def test_images_are_seeded(self):
        a = scenario_images()
        assert np.array_equal(a, scenario_images())
        assert a.shape == (8, 8, 8)


# ----------------------------------------------------------------------
# the built-in scenarios, end to end
# ----------------------------------------------------------------------


class TestBuiltinEnsemble:
    @pytest.mark.parametrize("scenario_id", list(EXPECTED))
    def test_recovery_is_pinned(self, builtin_outcomes, scenario_id):
        o = builtin_outcomes[scenario_id]
        assert (o.outcome, o.bit_identical, o.work_lost, o.hops) == (
            EXPECTED[scenario_id]
        ), o.detail

    def test_crash_checkpoints_are_sized_and_damage_is_rejected(
        self, builtin_outcomes
    ):
        for o in builtin_outcomes.values():
            sc = o.scenario
            if sc.kind != KIND_CRASH:
                continue
            if (sc.at_presentation, sc.autosave_every) == (3, 4):
                assert o.checkpoint_bytes == 0
                assert o.detail.startswith("no checkpoint on disk")
            else:
                assert o.checkpoint_bytes > 0
                if sc.damage == DAMAGE_CORRUPT:
                    assert o.detail.startswith("damaged checkpoint rejected")

    def test_engine_faults_land_one_tier_down(self, builtin_outcomes):
        faults = [
            o for o in builtin_outcomes.values()
            if o.scenario.kind == KIND_ENGINE_FAULT
        ]
        assert len(faults) == 4
        for o in faults:
            assert o.degraded_to == next_tier(o.scenario.engine)

    def test_impossible_scenario_is_unrecovered_not_fatal(self, tmp_path):
        """A scenario whose injected crash never fires is reported, not
        raised."""
        sc = FaultScenario(KIND_CRASH, "fused", 99, 2)
        outcome = ScenarioRunner(tmp_path).run(sc)
        assert outcome.outcome == OUTCOME_UNRECOVERED
        assert outcome.detail == "harness error: ConfigurationError"


# ----------------------------------------------------------------------
# tabulation
# ----------------------------------------------------------------------


def _outcome(kind, engine, outcome, at=1, cadence=0, **kwargs):
    scenario = FaultScenario(kind, engine, at, cadence)
    kwargs.setdefault("bit_identical", outcome != OUTCOME_UNRECOVERED)
    return ScenarioOutcome(scenario=scenario, outcome=outcome, **kwargs)


@pytest.fixture()
def synthetic_report():
    return ResilienceReport([
        _outcome(KIND_CRASH, "fused", OUTCOME_RESUMED, cadence=2,
                 work_lost=1, checkpoint_bytes=4096),
        _outcome(KIND_CRASH, "fused", OUTCOME_LOST_WORK, at=3, cadence=4,
                 work_lost=3),
        _outcome(KIND_ENGINE_FAULT, "fused", OUTCOME_DEGRADED, hops=1,
                 degraded_to="reference"),
        _outcome(KIND_CRASH, "qfused", OUTCOME_UNRECOVERED, cadence=2,
                 detail="diverged"),
    ])


class TestResilienceReport:
    def test_outcome_counts(self, synthetic_report):
        assert synthetic_report.outcome_counts() == {
            OUTCOME_RESUMED: 1, OUTCOME_DEGRADED: 1,
            OUTCOME_LOST_WORK: 1, OUTCOME_UNRECOVERED: 1,
        }

    def test_by_engine_and_kind(self, synthetic_report):
        table = synthetic_report.by_engine_and_kind()
        assert table["fused"][KIND_CRASH][OUTCOME_RESUMED] == 1
        assert table["fused"][KIND_CRASH][OUTCOME_LOST_WORK] == 1
        assert table["fused"][KIND_ENGINE_FAULT][OUTCOME_DEGRADED] == 1
        assert table["qfused"][KIND_CRASH][OUTCOME_UNRECOVERED] == 1

    def test_availability_ratios(self, synthetic_report):
        ratios = synthetic_report.availability()
        assert ratios["fused"]["no_lost_work"] == pytest.approx(2 / 3)
        assert ratios["fused"]["recovered"] == 1.0
        assert ratios["qfused"]["recovered"] == 0.0

    def test_worst_case(self, synthetic_report):
        assert synthetic_report.worst_case() == {
            "work_lost": 3,
            "work_lost_scenario": "crash:fused:p3:a4:none",
            "checkpoint_bytes": 4096,
            "hops": 1,
        }

    def test_check_reports_unrecovered(self, synthetic_report):
        assert synthetic_report.check() == [
            "crash:qfused:p1:a2:none: UNRECOVERED (diverged)"
        ]

    def test_json_is_versioned(self, synthetic_report):
        payload = json.loads(synthetic_report.to_json())
        assert payload["kind"] == REPORT_KIND
        assert payload["schema_version"] == REPORT_VERSION
        assert payload["n_scenarios"] == 4

    def test_markdown_summary(self, synthetic_report):
        text = synthetic_report.markdown()
        assert "Outcomes" in text
        assert "Availability" in text
        assert "Worst case: 3 presentations" in text
        assert "crash:fused:p3:a4:none" in text


# ----------------------------------------------------------------------
# the CLI entry point
# ----------------------------------------------------------------------

#: Switches the command no longer has, each with an argument where it took
#: one.
REMOVED_FLAGS = [
    ["--space", "space.json"],
    ["--smoke"],
    ["--sample", "3"],
    ["--seed", "1"],
    ["--md", "summary.md"],
    ["--timings"],
    ["--workdir", "work"],
    ["--retries", "1"],
]


class TestResilienceCLI:
    def test_check_passes_and_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["resilience", "--check", "--quiet", "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == REPORT_VERSION
        assert report["n_scenarios"] == len(SCENARIOS)
        assert report["outcome_counts"][OUTCOME_UNRECOVERED] == 0
        assert [o["scenario_id"] for o in report["outcomes"]] == list(EXPECTED)
        printed = capsys.readouterr().out
        assert "Availability" in printed
        assert "check passed: all 18 scenarios" in printed

    def test_two_runs_write_byte_identical_reports(self, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["resilience", "--quiet", "--out", str(first)]) == 0
        assert main(["resilience", "--quiet", "--out", str(second)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_check_fails_on_an_unrecovered_scenario(
        self, tmp_path, capsys, monkeypatch
    ):
        def broken(self, scenario):
            raise RuntimeError("degradation is broken")

        monkeypatch.setattr(ScenarioRunner, "_run_engine_fault", broken)
        out = tmp_path / "report.json"
        assert main(["resilience", "--check", "--quiet", "--out", str(out)]) == 1
        failures = [
            line for line in capsys.readouterr().err.splitlines()
            if line.startswith("check failure: engine_fault:")
        ]
        assert len(failures) == 4
        assert json.loads(out.read_text())["outcome_counts"][OUTCOME_UNRECOVERED] == 4

    def test_help_lists_only_check_out_and_quiet(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["resilience", "--help"])
        assert exit_info.value.code == 0
        options = {
            word.strip("[],")
            for word in capsys.readouterr().out.split()
            if word.strip("[],").startswith("-")
        }
        assert options == {"-h", "--help", "--check", "--out", "--quiet"}

    @pytest.mark.parametrize("flag", REMOVED_FLAGS, ids=lambda f: f[0])
    def test_removed_flags_are_usage_errors(self, flag, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["resilience", *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
