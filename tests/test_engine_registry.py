"""The presentation-engine registry: resolution, capabilities, contracts."""

import numpy as np
import pytest

from repro.engine.registry import (
    EngineSpec,
    Equivalence,
    available_engines,
    capability_rows,
    check_equivalence,
    create_engine,
    create_training_engine,
    get_engine_spec,
    register_engine,
    _REGISTRY,
)
from repro.engine.presentation import (
    BatchedEngine,
    FusedEngine,
    ReferenceEngine,
)
from repro.errors import ConfigurationError
from repro.network.wta import WTANetwork


@pytest.fixture
def tiny_network(tiny_config):
    return WTANetwork(tiny_config, n_pixels=64)


class TestRegistry:
    def test_builtin_engines_registered(self):
        assert available_engines() == (
            "batched", "fused", "qbatched", "qfused", "reference"
        )

    def test_unknown_name_lists_registered_engines(self):
        with pytest.raises(ConfigurationError, match="batched, fused, qbatched, qfused, reference"):
            get_engine_spec("warp")

    def test_specs_declare_capabilities(self):
        assert get_engine_spec("reference").supports_learning
        fused = get_engine_spec("fused")
        assert fused.equivalence is Equivalence.BIT_EXACT
        assert fused.supports_learning and fused.supports_batch
        assert fused.backends == ("numpy", "guard")
        batched = get_engine_spec("batched")
        assert not batched.supports_learning
        assert batched.supports_batch
        assert batched.equivalence is Equivalence.STATISTICAL
        assert "cupy" in batched.backends

    def test_create_engine_resolves_classes(self, tiny_network):
        for name, cls in (
            ("reference", ReferenceEngine),
            ("fused", FusedEngine),
            ("batched", BatchedEngine),
        ):
            engine = create_engine(name, tiny_network)
            assert isinstance(engine, cls)
            assert engine.name == name
            assert engine.spec is get_engine_spec(name)

    def test_training_engine_rejects_eval_only(self, tiny_network):
        with pytest.raises(ConfigurationError, match="does not support learning"):
            create_training_engine("batched", tiny_network)

    def test_training_engine_error_lists_learners(self, tiny_network):
        with pytest.raises(
            ConfigurationError, match="training engines: fused, qfused, reference"
        ):
            create_training_engine("batched", tiny_network)

    def test_capability_rows_cover_all_engines(self):
        rows = capability_rows()
        assert [row[0] for row in rows] == list(available_engines())
        assert all(len(row) == 7 for row in rows)

    def test_capability_rows_report_precisions(self):
        by_name = {row[0]: row for row in capability_rows()}
        assert by_name["fused"][4] == "float64"
        assert by_name["qfused"][4] == "uint8+uint16"

    def test_qfused_spec_declares_integer_tier(self):
        spec = get_engine_spec("qfused")
        assert spec.supports_learning
        assert spec.supports_batch
        assert spec.equivalence is Equivalence.BIT_EXACT
        assert spec.precisions == ("uint8", "uint16")
        assert "float64" not in spec.precisions
        assert spec.backends == ("numpy", "guard")

    def test_retired_engine_names_are_unregistered(self):
        for name in ("event", "qevent"):
            with pytest.raises(ConfigurationError, match="unknown engine"):
                get_engine_spec(name)

    def test_qbatched_spec_declares_integer_batch_tier(self):
        spec = get_engine_spec("qbatched")
        assert not spec.supports_learning
        assert spec.supports_batch
        assert spec.equivalence is Equivalence.STATISTICAL
        assert spec.precisions == ("uint8", "uint16")
        assert spec.backends == ("numpy", "guard", "cupy")

    def test_duplicate_registration_rejected(self):
        spec = get_engine_spec("fused")
        with pytest.raises(ConfigurationError, match="already registered"):
            register_engine(spec)

    def test_empty_name_rejected(self):
        spec = EngineSpec(
            name="", factory="x:Y", supports_learning=False,
            supports_batch=False, equivalence=Equivalence.STATISTICAL,
            backends=("numpy",), summary="",
        )
        with pytest.raises(ConfigurationError, match="non-empty"):
            register_engine(spec)

    def test_third_party_engine_plugs_in(self, tiny_network):
        spec = EngineSpec(
            name="custom-ref",
            factory="repro.engine.presentation:ReferenceEngine",
            supports_learning=True,
            supports_batch=False,
            equivalence=Equivalence.BIT_EXACT,
            backends=("numpy",),
            summary="registered by a test",
        )
        register_engine(spec)
        try:
            engine = create_training_engine("custom-ref", tiny_network)
            assert isinstance(engine, ReferenceEngine)
        finally:
            _REGISTRY.pop("custom-ref")

    def test_malformed_factory_rejected(self, tiny_network):
        spec = EngineSpec(
            name="broken", factory="no-colon", supports_learning=True,
            supports_batch=False, equivalence=Equivalence.BIT_EXACT,
            backends=("numpy",), summary="",
        )
        with pytest.raises(ConfigurationError, match="malformed factory"):
            spec.create(tiny_network)


class TestCheckEquivalence:
    def _spec(self, tier):
        return EngineSpec(
            name="probe", factory="x:Y", supports_learning=True,
            supports_batch=False, equivalence=tier,
            backends=("numpy",), summary="",
        )

    def test_bit_exact_passes_on_identical_state(self):
        state = {
            "conductances": np.ones((4, 3)),
            "spikes_per_image": [1, 2, 3],
            "responses": np.arange(12).reshape(4, 3),
        }
        assert check_equivalence(self._spec(Equivalence.BIT_EXACT), state, dict(state)) == []

    def test_bit_exact_flags_any_float_drift(self):
        oracle = {"conductances": np.ones(5)}
        candidate = {"conductances": np.ones(5) + 1e-15}
        failures = check_equivalence(self._spec(Equivalence.BIT_EXACT), oracle, candidate)
        assert len(failures) == 1 and "bit-identical" in failures[0]

    def test_spike_tier_tolerates_small_float_drift(self):
        oracle = {"conductances": np.ones(5), "spikes_per_image": [2, 2]}
        candidate = {"conductances": np.ones(5) + 1e-12, "spikes_per_image": [2, 2]}
        assert check_equivalence(
            self._spec(Equivalence.SPIKE_EQUIVALENT), oracle, candidate,
            conductance_atol=1e-9,
        ) == []

    def test_spike_tier_still_requires_exact_integers(self):
        oracle = {"spikes_per_image": [2, 2], "responses": np.array([[1, 0]])}
        candidate = {"spikes_per_image": [2, 3], "responses": np.array([[0, 1]])}
        failures = check_equivalence(
            self._spec(Equivalence.SPIKE_EQUIVALENT), oracle, candidate
        )
        assert len(failures) == 2

    def test_spike_tier_flags_large_float_drift(self):
        oracle = {"conductances": np.ones(5)}
        candidate = {"conductances": np.ones(5) + 1e-3}
        failures = check_equivalence(
            self._spec(Equivalence.SPIKE_EQUIVALENT), oracle, candidate,
            conductance_atol=1e-9,
        )
        assert len(failures) == 1 and "deviate" in failures[0]

    def test_statistical_tier_always_passes(self):
        oracle = {"responses": np.array([[9, 9]]), "conductances": np.zeros(3)}
        candidate = {"responses": np.array([[1, 2]]), "conductances": np.ones(3)}
        assert check_equivalence(self._spec(Equivalence.STATISTICAL), oracle, candidate) == []

    def test_only_shared_keys_compared(self):
        oracle = {"conductances": np.ones(3)}
        candidate = {"responses": np.array([[1]])}
        assert check_equivalence(self._spec(Equivalence.BIT_EXACT), oracle, candidate) == []
