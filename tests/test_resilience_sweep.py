"""Fault-tolerant parameter sweeps: retry, record, resume, rebuild.

The lightweight injections (exception-based worker faults) run in the
regular tier-1 suite; the heavyweight ones (actually killing or hanging
spawned pool workers) are gated behind ``REPRO_FAULTS=1`` and exercised
by the dedicated CI fault-injection job.
"""

import json
from dataclasses import replace

import pytest

from repro.analysis.statistics import SeedStudy
from repro.config.parameters import SimulationParameters
from repro.config.presets import get_preset
from repro.errors import CheckpointError, ConfigurationError, ReproError
from repro.pipeline.sweep import ParameterSweep, SweepCellTimeout
from repro.resilience.faults import (
    HangFault,
    InjectedFault,
    WorkerDeathFault,
    faults_enabled,
)
from repro.resilience.manifest import MANIFEST_VERSION, SweepManifest
from repro.resilience.retry import RetryPolicy, run_with_retry


def tiny_factory():
    def factory(seed):
        cfg = get_preset("float32", n_neurons=6, seed=seed)
        return replace(
            cfg,
            simulation=SimulationParameters(t_learn_ms=30.0, t_rest_ms=5.0, seed=seed),
        )

    return factory


class _AlwaysFail:
    """A fault that fails a cell on every attempt (sequential path only —
    deliberately not picklable so misuse in a worker payload is loud)."""

    def __init__(self, seeds):
        self.seeds = set(seeds)
        self.triggers = 0

    def maybe_trigger(self, variant, seed):
        if seed in self.seeds:
            self.triggers += 1
            raise InjectedFault(f"permanent failure for seed {seed}")


class TestConstruction:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"n_workers": 0},
            {"max_retries": -1},
            {"retry_backoff_s": -0.1},
            {"worker_timeout_s": 0.0},
        ],
    )
    def test_invalid_options_rejected(self, tiny_dataset, kwargs):
        with pytest.raises(ReproError):
            ParameterSweep(tiny_dataset, **kwargs)


class TestRetry:
    def test_transient_fault_retries_to_full_coverage(self, tiny_dataset, tmp_path):
        """One injected failure + one retry = the exact no-fault table."""
        plain = ParameterSweep(tiny_dataset, seeds=(0, 1), n_labeling=6)
        plain.add("v", tiny_factory())

        fault = WorkerDeathFault.for_seeds([1], tmp_path / "markers")
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6,
            max_retries=1, fault=fault,
            manifest_path=tmp_path / "manifest.json",
        )
        summary = sweep.add("v", tiny_factory())
        assert summary.n == 2
        assert sweep.failures() == []
        assert sweep.scores("v") == plain.scores("v")
        assert sweep.manifest.get("v", 1)["attempts"] == 2
        assert sweep.manifest.get("v", 0)["attempts"] == 1

    def test_exponential_backoff_schedule(self, tiny_dataset):
        naps = []
        fault = _AlwaysFail([0])
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0,), n_labeling=6,
            max_retries=2, retry_backoff_s=0.5, fault=fault,
            sleep=naps.append,
        )
        with pytest.warns(UserWarning, match="permanently failed"):
            with pytest.raises(ReproError, match="failed permanently"):
                sweep.add("v", tiny_factory())
        assert fault.triggers == 3  # 1 attempt + 2 retries
        assert naps == [0.5, 1.0]  # backoff doubles per failed attempt


class TestRetryPolicy:
    def test_default_is_a_single_attempt(self):
        assert RetryPolicy().attempts() == 1

    def test_backoff_doubles_per_failed_attempt(self):
        policy = RetryPolicy(max_retries=3, backoff_s=0.5)
        assert [policy.backoff_for(k) for k in (1, 2, 3)] == [0.5, 1.0, 2.0]

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(max_retries=-1), "max_retries"),
            (dict(backoff_s=-0.1), "backoff_s"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ConfigurationError, match=match):
            RetryPolicy(**kwargs)

    def test_backoff_for_is_one_based(self):
        with pytest.raises(ConfigurationError, match="1-based"):
            RetryPolicy(max_retries=1, backoff_s=1.0).backoff_for(0)

    def test_sweep_builds_its_policy_from_its_options(self, tiny_dataset):
        sweep = ParameterSweep(tiny_dataset, max_retries=2, retry_backoff_s=0.5)
        assert sweep.retry == RetryPolicy(max_retries=2, backoff_s=0.5)


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


class TestPermanentFailure:
    def test_partial_coverage_and_failure_record(self, tiny_dataset, tmp_path):
        fault = _AlwaysFail([1])
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6,
            fault=fault, manifest_path=tmp_path / "manifest.json",
        )
        with pytest.warns(UserWarning, match="permanently failed"):
            summary = sweep.add("v", tiny_factory())
        assert summary.n == 1  # aggregates over the surviving seed
        [record] = sweep.failures("v")
        assert record["variant"] == "v"
        assert record["seed"] == 1
        assert record["attempts"] == 1
        assert "InjectedFault" in record["error"]
        [mrecord] = sweep.manifest.failures()
        assert mrecord["status"] == "failed"

    def test_all_cells_failing_raises(self, tiny_dataset):
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6, fault=_AlwaysFail([0, 1])
        )
        with pytest.warns(UserWarning):
            with pytest.raises(ReproError, match="every cell"):
                sweep.add("v", tiny_factory())


class TestManifestResume:
    def test_resumed_sweep_recomputes_only_failed_cells(
        self, tiny_dataset, tmp_path
    ):
        manifest_path = tmp_path / "manifest.json"
        first = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6,
            fault=_AlwaysFail([1]), manifest_path=manifest_path,
        )
        with pytest.warns(UserWarning):
            first.add("v", tiny_factory())
        assert first.manifest.done_count() == 1

        computed = []

        def counting_factory(seed):
            computed.append(seed)
            return tiny_factory()(seed)

        second = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6, manifest_path=manifest_path
        )
        summary = second.add("v", counting_factory)
        assert summary.n == 2
        assert computed == [1]  # the done cell was loaded, not recomputed
        assert second.manifest.is_done("v", 0)
        assert second.manifest.is_done("v", 1)

    def test_fully_done_manifest_runs_nothing(self, tiny_dataset, tmp_path):
        manifest_path = tmp_path / "manifest.json"
        first = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6, manifest_path=manifest_path
        )
        first.add("v", tiny_factory())

        def exploding_factory(seed):
            raise AssertionError("no cell should be recomputed")

        second = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6, manifest_path=manifest_path
        )
        summary = second.add("v", exploding_factory)
        assert summary.n == 2
        assert second.scores("v") == first.scores("v")


class TestManifestSchema:
    def test_fresh_manifest_writes_both_version_fields(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = SweepManifest(path)
        manifest.record_done("v", 0, 0.5)
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == MANIFEST_VERSION
        assert payload["version"] == MANIFEST_VERSION

    def test_v1_manifest_round_trips(self, tmp_path):
        """A ledger written before the schema_version field existed loads,
        keeps its cells, and re-saves in the current schema."""
        path = tmp_path / "manifest.json"
        cell = {"status": "done", "variant": "v", "seed": 0,
                "score": 0.5, "attempts": 1}
        path.write_text(json.dumps({"version": 1, "cells": {"v::0": cell}}))
        manifest = SweepManifest(path)
        assert manifest.loaded_version == 1
        assert manifest.is_done("v", 0)
        assert manifest.score("v", 0) == 0.5
        manifest.save()
        payload = json.loads(path.read_text())
        assert payload["schema_version"] == MANIFEST_VERSION
        assert payload["cells"]["v::0"] == cell

    def test_future_manifest_loads_and_preserves_unknown_keys(self, tmp_path):
        """A newer build's ledger (higher version, extra sections) survives
        a round trip through this build untouched."""
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({
            "schema_version": MANIFEST_VERSION + 3,
            "cells": {},
            "host_fingerprint": {"os": "future"},
        }))
        manifest = SweepManifest(path)
        assert manifest.loaded_version == MANIFEST_VERSION + 3
        assert manifest.extra == {"host_fingerprint": {"os": "future"}}
        manifest.record_done("v", 0, 1.0)
        payload = json.loads(path.read_text())
        assert payload["host_fingerprint"] == {"os": "future"}
        assert payload["cells"]["v::0"]["score"] == 1.0

    @pytest.mark.parametrize(
        "payload",
        [
            {"cells": {}},
            {"schema_version": "two", "cells": {}},
            {"schema_version": 0, "cells": {}},
            {"schema_version": 2},
            {"schema_version": 2, "cells": []},
        ],
    )
    def test_unusable_manifests_are_rejected(self, tmp_path, payload):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(CheckpointError):
            SweepManifest(path)


class TestRecordPartial:
    def test_unknown_seed_rejected(self):
        study = SeedStudy([0, 1])
        with pytest.raises(ReproError, match="unknown seeds"):
            study.record_partial("v", {7: 0.5})

    def test_empty_scores_rejected(self):
        study = SeedStudy([0, 1])
        with pytest.raises(ReproError, match="no scores"):
            study.record_partial("v", {})


needs_fault_gate = pytest.mark.skipif(
    not faults_enabled(),
    reason="heavyweight worker-kill faults need REPRO_FAULTS=1",
)


@needs_fault_gate
class TestParallelRecovery:
    def test_worker_death_rebuilds_the_pool(self, tiny_dataset, tmp_path):
        """A genuinely killed worker (os._exit) breaks the executor; the
        sweep must rebuild it and still deliver the full score table."""
        plain = ParameterSweep(tiny_dataset, seeds=(0, 1), n_labeling=6)
        plain.add("v", tiny_factory())

        fault = WorkerDeathFault.for_seeds([1], tmp_path / "markers", mode="exit")
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6,
            n_workers=2, max_retries=2, fault=fault,
        )
        summary = sweep.add("v", tiny_factory())
        assert summary.n == 2
        assert sweep.failures() == []
        assert sweep.scores("v") == plain.scores("v")

    def test_hung_worker_times_out_and_retries(self, tiny_dataset, tmp_path):
        fault = HangFault.for_seeds([1], tmp_path / "markers", seconds=60.0)
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0, 1), n_labeling=6,
            n_workers=2, max_retries=1, worker_timeout_s=5.0, fault=fault,
        )
        summary = sweep.add("v", tiny_factory())
        assert summary.n == 2
        assert sweep.failures() == []

    def test_hung_worker_without_retries_is_recorded(self, tiny_dataset, tmp_path):
        fault = HangFault.for_seeds([0], tmp_path / "markers", seconds=60.0)
        sweep = ParameterSweep(
            tiny_dataset, seeds=(0,), n_labeling=6,
            n_workers=2, max_retries=0, worker_timeout_s=5.0, fault=fault,
        )
        with pytest.warns(UserWarning, match="permanently failed"):
            with pytest.raises(ReproError, match="every cell"):
                sweep.add("v", tiny_factory())
        [record] = sweep.failures("v")
        assert SweepCellTimeout.__name__ in record["error"]
