"""Resilience-analysis harness: fault-space sampling, scenario ensembles,
recovery tabulation, and the shared retry policy.

The ensemble tests run the real smoke space end to end (sub-second on the
tiny workload) and pin the per-scenario recovery classification — the same
contract ``python -m repro resilience --smoke --check`` gates in CI.
"""

import json

import numpy as np
import pytest

from repro.cli import main
from repro.config.parameters import RoundingMode
from repro.config.presets import get_preset
from repro.errors import CheckpointError, ConfigurationError
from repro.resilience.explore import (
    DAMAGE_MODES,
    DAMAGE_NONE,
    DAMAGE_TRUNCATE,
    FAULT_KINDS,
    KIND_CACHE_CORRUPTION,
    KIND_CRASH,
    KIND_ENGINE_FAULT,
    OUTCOME_DEGRADED,
    OUTCOME_LOST_WORK,
    OUTCOME_RESUMED,
    OUTCOME_UNRECOVERED,
    OUTCOMES,
    FaultScenario,
    FaultSpace,
    ScenarioOutcome,
    ScenarioRunner,
    ScenarioWorkload,
    default_space,
    smoke_space,
)
from repro.resilience.retry import RetryPolicy, run_with_retry
from repro.resilience.tabulate import REPORT_VERSION, ResilienceReport


# ----------------------------------------------------------------------
# layer 1: the declarative fault space
# ----------------------------------------------------------------------


class TestFaultScenario:
    def test_scenario_id_is_stable(self):
        sc = FaultScenario(KIND_CRASH, "fused", 3, 2, DAMAGE_TRUNCATE)
        assert sc.scenario_id == "crash:fused:p3:a2:truncate"

    def test_round_trip(self):
        sc = FaultScenario(KIND_ENGINE_FAULT, "qfused", at_presentation=6)
        assert FaultScenario.from_dict(sc.to_dict()) == sc

    def test_from_dict_ignores_unknown_keys(self):
        payload = FaultScenario(KIND_CRASH, "fused").to_dict()
        payload["future_axis"] = "whatever"
        assert FaultScenario.from_dict(payload).engine == "fused"

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(kind="meteor", engine="fused"), "fault kind"),
            (dict(kind=KIND_CRASH, engine=""), "engine"),
            (dict(kind=KIND_CRASH, engine="fused", at_presentation=0),
             "at_presentation"),
            (dict(kind=KIND_CRASH, engine="fused", autosave_every=-1),
             "autosave_every"),
            (dict(kind=KIND_CRASH, engine="fused", damage="melt"), "damage"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultScenario(**kwargs)


class TestFaultSpace:
    def test_default_space_meets_the_analysis_floor(self):
        """>= 24 scenarios over >= 3 kinds x >= 2 engines x >= 2 cadences."""
        scenarios = default_space().scenarios()
        assert len(scenarios) >= 24
        assert len({sc.kind for sc in scenarios}) >= 3
        assert len({sc.engine for sc in scenarios if sc.kind == KIND_CRASH}) >= 2
        assert (
            len({sc.autosave_every for sc in scenarios if sc.kind == KIND_CRASH})
            >= 2
        )

    def test_factorial_counts_per_kind(self):
        scenarios = default_space().scenarios()
        by_kind = {kind: 0 for kind in FAULT_KINDS}
        for sc in scenarios:
            by_kind[sc.kind] += 1
        # crash: 2 engines x 2 ats x 2 cadences x 3 damages; engine_fault:
        # 2 x 2; cache: the 2 non-none damage modes.
        assert by_kind == {
            KIND_CRASH: 24, KIND_ENGINE_FAULT: 4, KIND_CACHE_CORRUPTION: 2,
        }
        assert default_space().engines == ("fused", "qfused")
        ids = [sc.scenario_id for sc in scenarios]
        assert len(set(ids)) == len(ids)

    def test_smoke_space_is_small_and_covers_every_kind(self):
        scenarios = smoke_space().scenarios()
        assert len(scenarios) == 6
        assert {sc.kind for sc in scenarios} == set(FAULT_KINDS)

    def test_expansion_is_deterministic(self):
        assert default_space().scenarios() == default_space().scenarios()

    def test_sample_is_seeded_and_order_preserving(self):
        space = default_space()
        full = space.scenarios()
        a = space.sample(24, seed=7)
        b = space.sample(24, seed=7)
        assert a == b
        assert len(a) == 24
        positions = [full.index(sc) for sc in a]
        assert positions == sorted(positions)
        assert space.sample(24, seed=8) != a

    def test_sample_larger_than_space_returns_everything(self):
        space = smoke_space()
        assert space.sample(10_000) == space.scenarios()

    def test_sample_rejects_nonpositive_n(self):
        with pytest.raises(ConfigurationError, match="sample size"):
            smoke_space().sample(0)

    def test_round_trip(self):
        space = smoke_space()
        assert FaultSpace.from_dict(space.to_dict()) == space

    def test_from_dict_tolerates_unknown_keys_and_fills_defaults(self):
        space = FaultSpace.from_dict({"engines": ["fused"], "future": 1})
        assert space.engines == ("fused",)
        assert space.kinds == FAULT_KINDS
        assert space.damage_modes == DAMAGE_MODES

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(kinds=("meteor",)), "fault kind"),
            (dict(kinds=()), "at least one kind"),
            (dict(engines=()), "at least one engine"),
            (dict(at_presentations=(0,)), "at_presentations"),
            (dict(autosave_cadences=(0,)), "autosave_cadences"),
            (dict(damage_modes=("melt",)), "damage mode"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            FaultSpace(**kwargs)

    @pytest.mark.parametrize("engine", ["nope", "event", "qevent", "batched"])
    def test_unregistered_or_eval_only_engine_rejected(self, engine):
        """A typo, a retired engine name or an evaluation-only engine is a
        configuration error naming the registered learning engines, not a
        scenario the harness later scores UNRECOVERED."""
        message = "registered learning engines: fused, qfused, reference"
        with pytest.raises(ConfigurationError, match=message):
            FaultSpace(engines=("fused", engine))
        with pytest.raises(ConfigurationError, match=message):
            FaultSpace.from_dict({"engines": [engine]})


class TestScenarioWorkload:
    def test_quantized_engines_get_a_deterministic_q_format(self):
        wl = ScenarioWorkload()
        q_config = wl.config_for("qfused")
        assert q_config.quantization is not None
        assert q_config.quantization.fmt == "Q1.7"
        assert wl.config_for("fused").quantization.fmt is None

    def test_quantized_engines_train_at_the_presets_default_rounding(self):
        """Scenarios exercise stochastic rounding, the fixed-point presets'
        default, not a rounding chosen to keep the tiers in step."""
        wl = ScenarioWorkload()
        assert wl.config_for("qfused").quantization.rounding is RoundingMode.STOCHASTIC
        assert get_preset("8bit").quantization.rounding is RoundingMode.STOCHASTIC

    def test_images_are_seeded(self):
        a = ScenarioWorkload().load_images()
        b = ScenarioWorkload().load_images()
        assert np.array_equal(a, b)
        assert a.shape == (8, 8, 8)


# ----------------------------------------------------------------------
# the shared retry policy (satellite: sweep + scenario runner agree)
# ----------------------------------------------------------------------


class TestRetryPolicy:
    def test_default_is_a_single_attempt(self):
        policy = RetryPolicy()
        assert policy.attempts() == 1
        assert policy.schedule() == ()

    def test_exponential_ladder(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.5)
        assert policy.schedule() == (0.5, 1.0, 2.0)

    def test_cap(self):
        policy = RetryPolicy(max_retries=4, backoff_s=1.0, max_backoff_s=3.0)
        assert policy.schedule() == (1.0, 2.0, 3.0, 3.0)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(max_retries=-1), "max_retries"),
            (dict(backoff_s=-0.1), "backoff_s"),
            (dict(multiplier=0.5), "multiplier"),
            (dict(max_backoff_s=-1.0), "max_backoff_s"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            RetryPolicy(**kwargs)

    def test_backoff_for_is_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            RetryPolicy(max_retries=1, backoff_s=1.0).backoff_for(0)


class TestRunWithRetry:
    def test_success_reports_the_attempt_number(self):
        calls = []

        def flaky():
            calls.append(len(calls))
            if len(calls) < 3:
                raise ValueError("transient")
            return "ok"

        naps = []
        value, attempt = run_with_retry(
            flaky, RetryPolicy(max_retries=3, backoff_s=0.5), sleep=naps.append
        )
        assert (value, attempt) == ("ok", 3)
        assert naps == [0.5, 1.0]

    def test_exhausted_retries_reraise_the_last_exception(self):
        def always_fail():
            raise ValueError("permanent")

        naps = []
        with pytest.raises(ValueError, match="permanent"):
            run_with_retry(
                always_fail, RetryPolicy(max_retries=2, backoff_s=1.0),
                sleep=naps.append,
            )
        assert naps == [1.0, 2.0]

    def test_zero_backoff_never_sleeps(self):
        attempts = []

        def fail_once():
            attempts.append(0)
            if len(attempts) == 1:
                raise ValueError("once")
            return 42

        def no_sleep(_s):
            raise AssertionError("zero-length sleeps must be skipped")

        value, attempt = run_with_retry(
            fail_once, RetryPolicy(max_retries=1), sleep=no_sleep
        )
        assert (value, attempt) == (42, 2)

    def test_sweep_shares_the_policy(self, tmp_path):
        """ParameterSweep builds its retry schedule from the same class."""
        from repro.pipeline.sweep import ParameterSweep

        sweep = ParameterSweep(
            {"v": lambda: None}, seeds=[0], max_retries=2, retry_backoff_s=0.5,
            manifest_path=tmp_path / "m.json",
        )
        assert isinstance(sweep.retry, RetryPolicy)
        assert sweep.retry.schedule() == (0.5, 1.0)


# ----------------------------------------------------------------------
# layer 2: the scenario ensemble (real smoke space, end to end)
# ----------------------------------------------------------------------


@pytest.fixture(scope="class")
def smoke_ensemble(tmp_path_factory):
    runner = ScenarioRunner(tmp_path_factory.mktemp("ensemble"))
    scenarios = smoke_space().scenarios()
    outcomes = runner.run_all(scenarios)
    return scenarios, outcomes


class TestSmokeEnsemble:
    def test_every_scenario_is_classified(self, smoke_ensemble):
        scenarios, outcomes = smoke_ensemble
        assert len(outcomes) == len(scenarios)
        assert all(o.outcome in OUTCOMES for o in outcomes)

    def test_nothing_is_unrecovered(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        assert [o for o in outcomes if o.outcome == OUTCOME_UNRECOVERED] == []

    def test_crash_with_checkpoint_resumes_bit_identically(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        # at=3, cadence 2: the autosave at presentation 2 survives, so only
        # the single post-checkpoint presentation is redone.
        for o in outcomes:
            sc = o.scenario
            if (sc.kind, sc.autosave_every, sc.damage) != (KIND_CRASH, 2, DAMAGE_NONE):
                continue
            assert o.outcome == OUTCOME_RESUMED
            assert o.bit_identical and o.expected_exact
            assert o.work_lost == 1
            assert o.checkpoint_bytes > 0

    def test_crash_before_first_autosave_costs_a_full_restart(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        # at=3, cadence 4: no checkpoint exists yet; recovery restarts and
        # loses all three completed presentations.
        for o in outcomes:
            sc = o.scenario
            if sc.kind != KIND_CRASH or sc.autosave_every != 4:
                continue
            assert o.outcome == OUTCOME_LOST_WORK
            assert o.work_lost == 3
            assert o.checkpoint_bytes == 0
            assert "no checkpoint" in o.detail

    def test_damaged_checkpoint_is_rejected_not_trusted(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        damaged = [
            o
            for o in outcomes
            if o.scenario.kind == KIND_CRASH
            and o.scenario.damage == DAMAGE_TRUNCATE
            and o.scenario.autosave_every == 2
        ]
        assert damaged
        for o in damaged:
            assert o.outcome == OUTCOME_LOST_WORK
            assert "rejected by the loader" in o.detail

    def test_engine_fault_degrades_within_contract(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        faults = [o for o in outcomes if o.scenario.kind == KIND_ENGINE_FAULT]
        assert {o.scenario.engine for o in faults} == {"fused"}
        for o in faults:
            assert o.outcome == OUTCOME_DEGRADED
            assert o.hops >= 1
            assert o.degraded_to is not None
        by_engine = {o.scenario.engine: o for o in faults}
        assert by_engine["fused"].bit_identical  # fused -> reference is exact
        assert by_engine["fused"].degraded_to == "reference"

    def test_cache_corruption_regenerates(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        cache = [o for o in outcomes if o.scenario.kind == KIND_CACHE_CORRUPTION]
        assert len(cache) == 1
        assert cache[0].outcome == OUTCOME_RESUMED
        assert cache[0].bit_identical

    def test_check_gate_passes(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        report = ResilienceReport(
            space=smoke_space().to_dict(),
            workload=ScenarioWorkload().to_dict(),
            outcomes=outcomes,
        )
        assert report.check() == []

    def test_report_is_byte_identical_across_runs(
        self, smoke_ensemble, tmp_path
    ):
        """Same space + workload => the canonical JSON matches byte for
        byte even from a fresh runner in a different workdir."""
        scenarios, outcomes = smoke_ensemble
        rerun = ScenarioRunner(tmp_path / "other").run_all(scenarios)
        first = ResilienceReport(
            space=smoke_space().to_dict(),
            workload=ScenarioWorkload().to_dict(),
            outcomes=outcomes,
        ).to_json()
        second = ResilienceReport(
            space=smoke_space().to_dict(),
            workload=ScenarioWorkload().to_dict(),
            outcomes=rerun,
        ).to_json()
        assert first == second

    def test_timings_are_excluded_from_the_canonical_form(self, smoke_ensemble):
        _, outcomes = smoke_ensemble
        canonical = outcomes[0].to_dict()
        assert "recovery_seconds" not in canonical
        assert "recovery_seconds" in outcomes[0].to_dict(timings=True)


class TestRunnerEdges:
    def test_impossible_scenario_is_unrecovered_not_fatal(self, tmp_path):
        """A scenario the workload cannot host is reported, not raised."""
        runner = ScenarioRunner(tmp_path)
        sc = FaultScenario(KIND_CRASH, "fused", at_presentation=99,
                           autosave_every=2)
        outcome = runner.run(sc)
        assert outcome.outcome == OUTCOME_UNRECOVERED
        assert "harness error" in outcome.detail

    def test_transient_harness_failures_retry(self, tmp_path):
        naps = []
        runner = ScenarioRunner(
            tmp_path, retry=RetryPolicy(max_retries=1, backoff_s=0.25),
            sleep=naps.append,
        )
        calls = []
        original = runner._run_once

        def flaky(scenario):
            calls.append(scenario)
            if len(calls) == 1:
                raise OSError("transient I/O")
            return original(scenario)

        runner._run_once = flaky
        sc = FaultScenario(KIND_CACHE_CORRUPTION, "dataset", damage="corrupt")
        outcome = runner.run(sc)
        assert outcome.outcome == OUTCOME_RESUMED
        assert len(calls) == 2
        assert naps == [0.25]


# ----------------------------------------------------------------------
# layer 3: tabulation
# ----------------------------------------------------------------------


def _outcome(kind, engine, outcome, **kwargs):
    scenario = FaultScenario(kind, engine, kwargs.pop("at", 1),
                             kwargs.pop("cadence", 0),
                             kwargs.pop("damage", DAMAGE_NONE))
    defaults = dict(bit_identical=True, expected_exact=True)
    defaults.update(kwargs)
    return ScenarioOutcome(scenario=scenario, outcome=outcome, **defaults)


@pytest.fixture()
def synthetic_report():
    outcomes = [
        _outcome(KIND_CRASH, "fused", OUTCOME_RESUMED, cadence=2,
                 work_lost=1, checkpoint_bytes=4096),
        _outcome(KIND_CRASH, "fused", OUTCOME_LOST_WORK, cadence=4, at=3,
                 work_lost=3),
        _outcome(KIND_ENGINE_FAULT, "fused", OUTCOME_DEGRADED, hops=1,
                 degraded_to="reference"),
        _outcome(KIND_CRASH, "qfused", OUTCOME_UNRECOVERED, cadence=2,
                 bit_identical=False, detail="diverged"),
    ]
    return ResilienceReport(
        space=smoke_space().to_dict(),
        workload=ScenarioWorkload().to_dict(),
        outcomes=outcomes,
    )


class TestResilienceReport:
    def test_outcome_counts(self, synthetic_report):
        counts = synthetic_report.outcome_counts()
        assert counts == {
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
        worst = synthetic_report.worst_case()
        assert worst["work_lost"] == 3
        assert worst["work_lost_scenario"] == "crash:fused:p3:a4:none"
        assert worst["checkpoint_bytes"] == 4096
        assert worst["hops"] == 1

    def test_check_reports_unrecovered(self, synthetic_report):
        problems = synthetic_report.check()
        assert len(problems) == 1
        assert "UNRECOVERED" in problems[0]

    def test_check_reports_broken_bit_identity_contract(self):
        report = ResilienceReport(
            space={}, workload={},
            outcomes=[_outcome(KIND_CRASH, "fused", OUTCOME_RESUMED,
                               bit_identical=False, expected_exact=True)],
        )
        problems = report.check()
        assert len(problems) == 1
        assert "bit-identical" in problems[0]

    def test_empty_report_worst_case(self):
        report = ResilienceReport(space={}, workload={}, outcomes=[])
        assert report.worst_case()["work_lost"] == 0
        assert report.check() == []

    def test_save_load_round_trip(self, synthetic_report, tmp_path):
        path = tmp_path / "report.json"
        synthetic_report.save(path)
        loaded = ResilienceReport.load(path)
        assert loaded.outcomes == synthetic_report.outcomes
        assert loaded.space == synthetic_report.space
        assert loaded.to_json() == synthetic_report.to_json()

    def test_load_preserves_unknown_keys(self, synthetic_report, tmp_path):
        path = tmp_path / "report.json"
        payload = synthetic_report.to_dict()
        payload["future_section"] = {"added": "later"}
        path.write_text(json.dumps(payload))
        loaded = ResilienceReport.load(path)
        assert loaded.extra == {"future_section": {"added": "later"}}
        assert loaded.to_dict()["future_section"] == {"added": "later"}

    def test_load_rejects_versionless_payloads(self, synthetic_report):
        payload = synthetic_report.to_dict()
        del payload["schema_version"]
        with pytest.raises(CheckpointError, match="schema version"):
            ResilienceReport.from_dict(payload)

    def test_load_rejects_payloads_without_outcomes(self):
        with pytest.raises(CheckpointError, match="outcomes"):
            ResilienceReport.from_dict({"schema_version": REPORT_VERSION})

    def test_load_accepts_future_versions(self, synthetic_report):
        payload = synthetic_report.to_dict()
        payload["schema_version"] = REPORT_VERSION + 5
        loaded = ResilienceReport.from_dict(payload)
        assert len(loaded.outcomes) == len(synthetic_report.outcomes)

    def test_markdown_summary(self, synthetic_report):
        text = synthetic_report.markdown()
        assert "Outcomes" in text
        assert "Availability" in text
        assert "Worst case: 3 presentations" in text
        assert "crash:fused:p3:a4:none" in text


# ----------------------------------------------------------------------
# the CLI entry point
# ----------------------------------------------------------------------


class TestResilienceCLI:
    def test_smoke_check_passes_and_writes_the_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main([
            "resilience", "--smoke", "--check", "--quiet",
            "--out", str(out), "--workdir", str(tmp_path / "work"),
        ])
        assert code == 0
        report = ResilienceReport.load(out)
        assert len(report.outcomes) == 6
        assert report.check() == []
        assert "check passed" in capsys.readouterr().out

    def test_space_file_and_sample(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({
            "kinds": ["cache_corruption"],
            "damage_modes": ["corrupt", "truncate"],
        }))
        out = tmp_path / "report.json"
        md = tmp_path / "summary.md"
        code = main([
            "resilience", "--space", str(space_path), "--sample", "1",
            "--seed", "3", "--quiet", "--out", str(out), "--md", str(md),
            "--workdir", str(tmp_path / "work"),
        ])
        assert code == 0
        report = ResilienceReport.load(out)
        assert len(report.outcomes) == 1
        assert report.sample == {"n": 1, "seed": 3}
        assert "Availability" in md.read_text()

    def test_space_and_smoke_are_mutually_exclusive(self, capsys):
        assert main(["resilience", "--space", "x.json", "--smoke"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_unregistered_engine_fails_before_running(self, tmp_path, capsys):
        space_path = tmp_path / "space.json"
        space_path.write_text(json.dumps({"engines": ["nope"]}))
        out = tmp_path / "report.json"
        code = main([
            "resilience", "--space", str(space_path), "--check",
            "--out", str(out), "--workdir", str(tmp_path / "work"),
        ])
        assert code != 0
        captured = capsys.readouterr()
        assert "'nope' is not a registered learning engine" in captured.err
        assert "running" not in captured.out
        assert not out.exists()
        assert not (tmp_path / "work").exists()

    def test_unreadable_space_file_fails_cleanly(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["resilience", "--space", str(missing)]) == 2
        assert "cannot read" in capsys.readouterr().err
