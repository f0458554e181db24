"""The backend×engine equivalence grid: backend selection is never a result.

Every registered engine that declares the ``guard`` backend must produce
bit-identical spike trajectories, conductances and thresholds under
``backend="guard"`` vs ``backend="numpy"``, with zero implicit
host/device-mixing violations counted by the guard.  The guard backend is
a NumPy-wrapping array module whose arrays carry device residency, so
this grid is the CI-testable statement that the kernels keep device
discipline — the same property CuPy would enforce with a real GPU — and
that all randomness stays host-drawn (the bit-identity half).

Also pins the config plumbing: ``EngineConfig.backend`` validation, and
the trainer/evaluator honouring ``config.engine.backend`` when creating
and running their kernels.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import use_backend
from repro.backend.guard import reset_counters, transfer_stats
from repro.config.parameters import EngineConfig, QuantizationConfig, RoundingMode
from repro.engine.registry import check_backend_equivalence, get_engine_spec
from repro.errors import ConfigurationError
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer

#: Training engines of the grid; the flag selects the quantized config the
#: integer tiers require.
TRAIN_GRID = [
    ("reference", False),
    ("fused", False),
    ("qfused", True),
]


def _config(tiny_config, quantized):
    if quantized:
        return replace(
            tiny_config,
            quantization=QuantizationConfig(
                fmt="Q1.7", rounding=RoundingMode.STOCHASTIC
            ),
        )
    return tiny_config


def _train_state(config, images, engine, backend):
    net = WTANetwork(config, images[0].size)
    reset_counters()
    with use_backend(backend):
        log = UnsupervisedTrainer(net).train(images, engine=engine)
    return {
        "conductances": net.conductances.copy(),
        "thetas": net.neurons.theta.copy(),
        "spikes_per_image": list(log.spikes_per_image),
    }, transfer_stats()


class TestGuardTrainingGrid:
    @pytest.mark.parametrize("engine,quantized", TRAIN_GRID)
    def test_guard_run_is_bit_identical_and_clean(
        self, tiny_config, small_images, engine, quantized
    ):
        config = _config(tiny_config, quantized)
        oracle, _ = _train_state(config, small_images, engine, "numpy")
        candidate, stats = _train_state(config, small_images, engine, "guard")
        assert stats.violations == 0, (
            f"engine {engine!r} mixed host and device arrays implicitly"
        )
        spec = get_engine_spec(engine)
        assert check_backend_equivalence(spec, "guard", oracle, candidate) == []

    @pytest.mark.parametrize("engine,quantized", TRAIN_GRID[1:])
    def test_device_kernels_actually_touch_the_device(
        self, tiny_config, small_images, engine, quantized
    ):
        """Beyond 'no violations': the non-reference kernels must really
        route their state through the device (uploads counted), otherwise
        the grid would pass vacuously on a host-only code path."""
        config = _config(tiny_config, quantized)
        _, stats = _train_state(config, small_images[:2], engine, "guard")
        assert stats.h2d > 0
        assert stats.d2h > 0

    @pytest.mark.parametrize(
        "engine,quantized,boundary_downloads",
        [("fused", False, 5), ("qfused", True, 6)],
    )
    def test_training_downloads_exactly_through_to_host(
        self, tiny_config, small_images, engine, quantized, boundary_downloads
    ):
        """Every device-to-host copy of a training presentation goes through
        ``ops.to_host``, which the guard counts: the spike mask once per
        output spike (the single WTA winner), then at the boundary the
        refractory and inhibition timers, the current, v and theta, and on
        ``qfused`` the code matrix.  A write-back that strips residency with
        ``np.asarray`` downloads uncounted and breaks the count."""
        config = _config(tiny_config, quantized)
        state, stats = _train_state(config, small_images, engine, "guard")
        spikes = sum(state["spikes_per_image"])
        assert spikes > 0
        assert stats.d2h == boundary_downloads * len(small_images) + spikes


class TestGuardEvaluationGrid:
    @pytest.mark.parametrize("engine,quantized", [("batched", False), ("qbatched", True)])
    def test_batched_responses_identical_across_backends(
        self, tiny_config, small_images, engine, quantized
    ):
        config = _config(tiny_config, quantized)
        responses = {}
        for backend in ("numpy", "guard"):
            net = WTANetwork(config, small_images[0].size)
            UnsupervisedTrainer(net).train(
                small_images[:2], engine="qfused" if quantized else "fused"
            )
            net.freeze()
            reset_counters()
            with use_backend(backend):
                responses[backend] = Evaluator(
                    net, t_present_ms=50.0, engine=engine
                ).collect_responses(small_images)
            if backend == "guard":
                assert transfer_stats().violations == 0
        assert np.array_equal(responses["numpy"], responses["guard"])

    @pytest.mark.parametrize("engine", ["reference", "fused"])
    def test_sequential_evaluation_identical_across_backends(
        self, tiny_config, small_images, engine
    ):
        responses = {}
        for backend in ("numpy", "guard"):
            net = WTANetwork(tiny_config, small_images[0].size)
            net.freeze()
            reset_counters()
            with use_backend(backend):
                responses[backend] = Evaluator(
                    net, t_present_ms=50.0, engine=engine
                ).collect_responses(small_images[:3])
            if backend == "guard":
                assert transfer_stats().violations == 0
        assert np.array_equal(responses["numpy"], responses["guard"])


class TestCheckBackendEquivalence:
    def test_identical_state_passes(self):
        spec = get_engine_spec("fused")
        state = {
            "conductances": np.ones((4, 3)),
            "spikes_per_image": [1, 2, 3],
        }
        assert check_backend_equivalence(spec, "guard", state, dict(state)) == []

    def test_mismatch_is_reported_per_key(self):
        spec = get_engine_spec("fused")
        oracle = {"conductances": np.ones(4), "spikes_per_image": [1, 2]}
        candidate = {"conductances": np.zeros(4), "spikes_per_image": [2, 1]}
        failures = check_backend_equivalence(spec, "guard", oracle, candidate)
        assert len(failures) == 2
        assert all("bit-identical" in f for f in failures)

    def test_undeclared_backend_is_flagged(self):
        spec = get_engine_spec("fused")  # declares numpy+guard, not cupy
        failures = check_backend_equivalence(spec, "cupy", {}, {})
        assert len(failures) == 1
        assert "does not declare backend" in failures[0]

    def test_only_shared_keys_compared(self):
        spec = get_engine_spec("fused")
        oracle = {"conductances": np.ones(3)}
        candidate = {"spikes_per_image": [1]}
        assert check_backend_equivalence(spec, "guard", oracle, candidate) == []


class TestEngineConfigBackend:
    def test_default_is_unpinned(self):
        assert EngineConfig().backend is None

    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown array backend"):
            EngineConfig(backend="warp")

    def test_undeclared_engine_backend_combo_rejected(self):
        with pytest.raises(ConfigurationError, match="does not execute"):
            EngineConfig(train="fused", eval="fused", backend="cupy")

    def test_declared_combo_accepted(self):
        cfg = EngineConfig(train="fused", eval="batched", backend="guard")
        assert cfg.backend == "guard"

    def test_trainer_honors_config_backend(self, tiny_config, small_images):
        oracle_net = WTANetwork(tiny_config, small_images[0].size)
        UnsupervisedTrainer(oracle_net).train(small_images[:3], engine="fused")

        config = replace(
            tiny_config, engine=replace(tiny_config.engine, backend="guard")
        )
        net = WTANetwork(config, small_images[0].size)
        reset_counters()
        UnsupervisedTrainer(net).train(small_images[:3], engine="fused")
        stats = transfer_stats()
        assert stats.h2d > 0, "trainer did not route the kernel to the guard device"
        assert stats.violations == 0
        assert np.array_equal(net.conductances, oracle_net.conductances)

    def test_evaluator_honors_config_backend(self, tiny_config, small_images):
        config = replace(
            tiny_config, engine=replace(tiny_config.engine, backend="guard")
        )
        net = WTANetwork(config, small_images[0].size)
        net.freeze()
        reset_counters()
        responses = Evaluator(net, t_present_ms=50.0).collect_responses(
            small_images[:2]
        )
        stats = transfer_stats()
        assert stats.h2d > 0, "evaluator did not route the kernel to the guard device"
        assert stats.violations == 0
        assert responses.shape == (2, config.wta.n_neurons)
