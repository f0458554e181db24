"""The fault-injection harness itself: deterministic, gated, cleanable."""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig
from repro.engine.registry import get_engine_spec
from repro.errors import ConfigurationError, ReproError
from repro.network.wta import WTANetwork
from repro.resilience.faults import (
    FAULTS_ENV,
    CrashFault,
    FaultyEngine,
    HangFault,
    InjectedFault,
    SimulatedCrash,
    WorkerDeathFault,
    corrupt_file,
    faults_enabled,
    install_faulty_chain,
    install_faulty_engine,
    truncate_file,
    uninstall_faulty_chain,
    uninstall_faulty_engine,
)


class TestGate:
    @pytest.mark.parametrize(
        "value,expected",
        [
            ("", False),
            ("0", False),
            ("false", False),
            ("no", False),
            ("off", False),
            ("OFF", False),
            (" false ", False),
            ("1", True),
            ("yes", True),
            ("true", True),
            ("on", True),
            ("TRUE", True),
        ],
    )
    def test_env_parsing(self, monkeypatch, value, expected):
        monkeypatch.setenv(FAULTS_ENV, value)
        assert faults_enabled() is expected

    def test_unset_means_disabled(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        assert faults_enabled() is False

    @pytest.mark.parametrize("value", ["2", "banana", "enable", "y "])
    def test_surprising_values_are_rejected_not_guessed(
        self, monkeypatch, value
    ):
        """``REPRO_FAULTS=off`` silently *enabling* destructive injectors
        would be the worst possible parse; unknown spellings must raise."""
        monkeypatch.setenv(FAULTS_ENV, value)
        with pytest.raises(ConfigurationError, match=FAULTS_ENV):
            faults_enabled()


class TestExceptionTaxonomy:
    def test_injected_fault_is_not_a_library_error(self):
        """Recovery code must not be able to cheat by catching ReproError."""
        assert not issubclass(InjectedFault, ReproError)
        assert issubclass(SimulatedCrash, InjectedFault)


class TestCrashFault:
    def test_fires_exactly_at_its_boundary(self):
        fault = CrashFault(at_presentation=3)
        fault(0)
        fault(1)
        assert not fault.fired
        with pytest.raises(SimulatedCrash):
            fault(2)
        assert fault.fired


class TestWorkerDeathFault:
    def test_invalid_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="mode"):
            WorkerDeathFault.for_seeds([0], tmp_path, mode="segfault")

    def test_non_matching_seed_passes(self, tmp_path):
        fault = WorkerDeathFault.for_seeds([7], tmp_path)
        fault.maybe_trigger("float32", seed=0)  # no raise

    def test_variant_filter(self, tmp_path):
        fault = WorkerDeathFault.for_seeds([0], tmp_path, variant="2bit")
        fault.maybe_trigger("float32", seed=0)  # filtered out
        with pytest.raises(InjectedFault):
            fault.maybe_trigger("2bit", seed=0)

    def test_once_semantics_across_instances(self, tmp_path):
        """The marker file, not instance state, carries once-only-ness —
        exactly what a retried cell in a fresh worker process sees.  The
        instances share a ``run_id`` the way a pickled fault shipped to
        several pool workers does."""
        first = WorkerDeathFault.for_seeds([0], tmp_path, run_id="sweep-1")
        with pytest.raises(InjectedFault):
            first.maybe_trigger("float32", seed=0)
        second = WorkerDeathFault.for_seeds([0], tmp_path, run_id="sweep-1")
        second.maybe_trigger("float32", seed=0)  # already claimed: passes

    def test_once_semantics_within_one_instance(self, tmp_path):
        fault = WorkerDeathFault.for_seeds([0], tmp_path)
        with pytest.raises(InjectedFault):
            fault.maybe_trigger("float32", seed=0)
        fault.maybe_trigger("float32", seed=0)  # marker claimed: passes

    def test_stale_marker_from_a_previous_run_is_evicted(self, tmp_path):
        """A marker left behind by an interrupted earlier run must not
        exhaust a fresh fault's once-only budget — the fresh run would
        otherwise silently test nothing."""
        stale = WorkerDeathFault.for_seeds([0], tmp_path)
        with pytest.raises(InjectedFault):
            stale.maybe_trigger("float32", seed=0)
        fresh = WorkerDeathFault.for_seeds([0], tmp_path)  # new auto run_id
        with pytest.raises(InjectedFault):
            fresh.maybe_trigger("float32", seed=0)
        fresh.maybe_trigger("float32", seed=0)  # its own claim now holds

    def test_empty_run_id_shares_any_existing_marker(self, tmp_path):
        """``run_id=""`` is the legacy shared-claim mode: an existing
        marker counts as claimed no matter who wrote it."""
        first = WorkerDeathFault.for_seeds([0], tmp_path)
        with pytest.raises(InjectedFault):
            first.maybe_trigger("float32", seed=0)
        legacy = WorkerDeathFault.for_seeds([0], tmp_path, run_id="")
        legacy.maybe_trigger("float32", seed=0)  # passes: marker exists

    def test_exit_mode_requires_the_env_gate(self, tmp_path, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        fault = WorkerDeathFault.for_seeds([0], tmp_path, mode="exit")
        with pytest.raises(ConfigurationError, match=FAULTS_ENV):
            fault.maybe_trigger("float32", seed=0)


class TestHangFault:
    def test_sleeps_once_then_passes(self, tmp_path, monkeypatch):
        naps = []
        monkeypatch.setattr(
            "repro.resilience.faults.time.sleep", lambda s: naps.append(s)
        )
        fault = HangFault.for_seeds([0], tmp_path, seconds=4.0)
        fault.maybe_trigger("float32", seed=0)
        fault.maybe_trigger("float32", seed=0)
        fault.maybe_trigger("float32", seed=1)  # non-matching seed
        assert naps == [4.0]


class TestFaultyEngineInstall:
    def test_install_registers_and_uninstall_cleans(self, tiny_config):
        spec = install_faulty_engine(inner="fused", fail_at=1, mode="raise")
        try:
            assert spec.name == "faulty"
            assert get_engine_spec("faulty").supports_learning
            net = WTANetwork(tiny_config, 64)
            engine = FaultyEngine(net)
            assert engine.inner_name == "fused"
            assert engine.degrade_to == "reference"
        finally:
            uninstall_faulty_engine()
        with pytest.raises(ConfigurationError):
            get_engine_spec("faulty")

    def test_construction_without_install_is_rejected(self, tiny_config):
        uninstall_faulty_engine()  # ensure the schedule is clear
        with pytest.raises(ConfigurationError, match="install_faulty_engine"):
            FaultyEngine(WTANetwork(tiny_config, 64))

    def test_invalid_schedules_rejected(self):
        with pytest.raises(ConfigurationError, match="mode"):
            install_faulty_engine(mode="explode")
        with pytest.raises(ConfigurationError, match="fail_at"):
            install_faulty_engine(fail_at=0)

    def test_uninstall_is_idempotent(self):
        uninstall_faulty_engine()
        uninstall_faulty_engine()

    def test_fail_times_bounds_the_faults(self, tiny_config, tiny_dataset):
        install_faulty_engine(inner="fused", fail_at=1, fail_times=1, mode="raise")
        try:
            net = WTANetwork(tiny_config, 64)
            engine = FaultyEngine(net)
            image = tiny_dataset.train_images[0]
            with pytest.raises(InjectedFault):
                engine.run(image, 0.0, 5, 1.0)
            # Second call is past the schedule: delegates to the real engine.
            spikes, t_ms = engine.run(image, 0.0, 5, 1.0)
            assert t_ms == 5.0
        finally:
            uninstall_faulty_engine()


class TestNamedWrappers:
    def test_wrappers_coexist_with_independent_schedules(self, tiny_config):
        from repro.engine.registry import create_engine

        install_faulty_engine(inner="fused", fail_at=1, name="faulty-a")
        install_faulty_engine(inner="reference", fail_at=3, name="faulty-b")
        try:
            net = WTANetwork(tiny_config, 64)
            a = create_engine("faulty-a", net)
            b = create_engine("faulty-b", net)
            assert (a.inner_name, a.fail_at) == ("fused", 1)
            assert (b.inner_name, b.fail_at) == ("reference", 3)
        finally:
            uninstall_faulty_engine("faulty-a")
            uninstall_faulty_engine("faulty-b")
        for name in ("faulty-a", "faulty-b"):
            with pytest.raises(ConfigurationError):
                get_engine_spec(name)

    def test_degrade_to_override(self, tiny_config):
        from repro.engine.registry import create_engine

        install_faulty_engine(
            inner="fused", fail_at=1, name="faulty-x", degrade_to="reference"
        )
        try:
            engine = create_engine("faulty-x", WTANetwork(tiny_config, 64))
            assert engine.degrade_to == "reference"
        finally:
            uninstall_faulty_engine("faulty-x")

    def test_chain_install_wires_each_tier_to_the_next_wrapper(self, tiny_config):
        from repro.engine.registry import create_engine

        names = install_faulty_chain(["qfused", "fused"], fail_at=2)
        try:
            assert names == ["faulty-qfused", "faulty-fused"]
            config = replace(tiny_config, quantization=QuantizationConfig(fmt="Q1.7"))
            net = WTANetwork(config, 64)
            entry = create_engine("faulty-qfused", net)
            inner = create_engine("faulty-fused", net)
            assert entry.degrade_to == "faulty-fused"
            assert entry.fail_at == 2
            # Inner tiers fault on their first call — the boundary replay.
            assert inner.fail_at == 1
            assert inner.degrade_to == "reference"
        finally:
            uninstall_faulty_chain(["qfused", "fused"])
        with pytest.raises(ConfigurationError):
            get_engine_spec("faulty-qfused")

    def test_chain_rejects_empty_ladder(self):
        with pytest.raises(ConfigurationError, match="at least one engine"):
            install_faulty_chain([])


class TestFileDamage:
    def test_truncate_keeps_the_requested_fraction(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(bytes(100))
        kept = truncate_file(path, keep_fraction=0.25)
        assert kept == 25
        assert path.stat().st_size == 25

    def test_truncate_validates_fraction(self, tmp_path):
        path = tmp_path / "blob.bin"
        path.write_bytes(b"x")
        with pytest.raises(ConfigurationError, match="keep_fraction"):
            truncate_file(path, keep_fraction=1.0)

    def test_corrupt_is_deterministic(self, tmp_path):
        a = tmp_path / "a.bin"
        b = tmp_path / "b.bin"
        payload = bytes(range(64))
        a.write_bytes(payload)
        b.write_bytes(payload)
        corrupt_file(a, n_bytes=8, seed=3)
        corrupt_file(b, n_bytes=8, seed=3)
        assert a.read_bytes() == b.read_bytes()
        assert a.read_bytes() != payload

    def test_corrupt_rejects_empty_file(self, tmp_path):
        path = tmp_path / "empty.bin"
        path.write_bytes(b"")
        with pytest.raises(ConfigurationError, match="empty"):
            corrupt_file(path)


def test_nan_mode_poisons_persistent_state(tiny_config, tiny_dataset):
    """The 'nan' fault writes into theta, which survives the boundary rest."""
    install_faulty_engine(inner="fused", fail_at=1, mode="nan")
    try:
        net = WTANetwork(tiny_config, 64)
        engine = FaultyEngine(net)
        engine.run(tiny_dataset.train_images[0], 0.0, 5, 1.0)
        assert np.isnan(net.neurons.theta[0])
        net.rest()
        assert np.isnan(net.neurons.theta[0])
    finally:
        uninstall_faulty_engine()
