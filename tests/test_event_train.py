"""Equivalence and unit tests for the float gather kernel (engine ``fused``).

The contract under test (see :mod:`repro.engine.event_train`): training with
``engine="fused"`` must reproduce the reference loop **bit for bit** under
identical :class:`~repro.engine.rng.RngStreams` seeds — per-image spike
counts, conductances, thetas and the exported timers — across storage
formats, rounding modes, learning rules, LTD modes, encoders, synapse models
and adaptive-threshold settings.  Both sum eq. 3 over the active input rows
in row order, so every comparison below is exact.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig, RoundingMode, STDPKind
from repro.config.presets import get_preset
from repro.encoding.events import sparsify
from repro.encoding.rate import make_encoder
from repro.engine.event_train import EventPresentation
from repro.engine.presentation import ReferenceEngine
from repro.errors import ConfigurationError, SimulationError
from repro.learning.stochastic import LTDMode
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer


def _train(config, images, engine):
    net = WTANetwork(config, n_pixels=images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


def _assert_bit_identical(config, images):
    net_ref, log_ref = _train(config, images, engine="reference")
    net_evt, log_evt = _train(config, images, engine="fused")
    assert log_ref.spikes_per_image == log_evt.spikes_per_image
    assert np.array_equal(net_ref.conductances, net_evt.conductances)
    assert np.array_equal(net_ref.neurons.theta, net_evt.neurons.theta)
    # Exported timer state must match what per-step decrements left behind
    # (exact on the integer ms grid these configs use).
    assert np.array_equal(
        net_ref.neurons._refractory_left, net_evt.neurons._refractory_left
    )
    assert np.array_equal(
        net_ref.neurons._inhibited_left, net_evt.neurons._inhibited_left
    )
    # The comparison must mean something.
    assert sum(log_ref.spikes_per_image) > 0


class TestSpikeTrajectoryEquivalence:
    """Spike trajectories match the reference loop, and so does every float
    state: the kernel is bit-exact, which implies spike equivalence."""

    def test_float32_stochastic(self, tiny_config, small_images):
        _assert_bit_identical(tiny_config, small_images)

    def test_q17_stochastic_rounding(self, tiny_config, small_images):
        """Q1.7 + stochastic rounding runs the column-restricted rule path
        too: a one-LSB step draws no rounding uniform."""
        cfg = get_preset("8bit", n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    def test_q17_nearest_rounding(self, tiny_config, small_images):
        """Q1.7 + nearest rounding exercises the column-restricted rule path."""
        cfg = get_preset("8bit", rounding=RoundingMode.NEAREST, n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    def test_deterministic_stdp(self, tiny_config, small_images):
        cfg = get_preset("float32", stdp_kind=STDPKind.DETERMINISTIC, n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    @pytest.mark.parametrize("ltd_mode", [LTDMode.PAIR, LTDMode.BOTH])
    def test_pair_ltd_modes(self, tiny_config, small_images, ltd_mode):
        """PAIR/BOTH consume learning RNG at pre-event steps — the engine
        must invoke the fallback rule at every input event, not just at
        output spikes."""
        cfg = replace(
            tiny_config,
            stochastic_stdp=replace(tiny_config.stochastic_stdp, ltd_mode=ltd_mode),
        )
        _assert_bit_identical(cfg, small_images)

    def test_fast_adaptive_threshold(self, tiny_config, small_images):
        """A strongly adaptive threshold (fast decay, large increment)
        stresses the predictor's theta-floor bound."""
        cfg = replace(
            tiny_config,
            wta=replace(
                tiny_config.wta,
                adaptive_threshold=replace(
                    tiny_config.wta.adaptive_threshold, theta_plus=0.5, tau_ms=50.0
                ),
            ),
        )
        _assert_bit_identical(cfg, small_images)

    def test_high_frequency_preset(self, tiny_config, small_images):
        """The Table I high-frequency row — the acceptance workload's rates."""
        cfg = get_preset("high_frequency", n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=replace(cfg.simulation, t_learn_ms=50.0, t_rest_ms=5.0))
        _assert_bit_identical(cfg, small_images)

    def test_periodic_encoder(self, tiny_config, small_images):
        cfg = replace(tiny_config, encoding=replace(tiny_config.encoding, kind="periodic"))
        _assert_bit_identical(cfg, small_images)

    def test_conductance_synapse_model(self, tiny_config, small_images):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, synapse_model="conductance"))
        _assert_bit_identical(cfg, small_images)

    def test_hard_inhibition(self, tiny_config, small_images):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, inhibition_strength=0.0))
        _assert_bit_identical(cfg, small_images)


class TestQuietInput:
    @staticmethod
    def _quiet(config, fmt=None, rounding=RoundingMode.NEAREST):
        cfg = replace(config, encoding=replace(config.encoding, f_min_hz=0.0, f_max_hz=10.0))
        if fmt is not None:
            cfg = replace(cfg, quantization=QuantizationConfig(fmt=fmt, rounding=rounding))
        return cfg

    @staticmethod
    def _run(cfg, tiny_dataset, train_engine, eval_engine):
        """Spikes, conductances, thetas and frozen evaluation responses."""
        images = tiny_dataset.train_images[:6]
        net, log = _train(cfg, images, engine=train_engine)
        net.freeze()
        responses = Evaluator(net, t_present_ms=50.0, engine=eval_engine).collect_responses(
            tiny_dataset.test_images[:4]
        )
        return log.spikes_per_image, net.conductances, net.neurons.theta, responses

    @pytest.mark.parametrize(
        "engine, fmt, rounding",
        [
            ("fused", None, RoundingMode.NEAREST),
            ("qfused", "Q1.7", RoundingMode.NEAREST),
            ("qfused", "Q8.8", RoundingMode.NEAREST),
            ("qfused", "Q1.7", RoundingMode.STOCHASTIC),
            ("qfused", "Q8.8", RoundingMode.STOCHASTIC),
        ],
        ids=[
            "fused",
            "qfused-Q1.7-nearest",
            "qfused-Q8.8-nearest",
            "qfused-Q1.7-stochastic",
            "qfused-Q8.8-stochastic",
        ],
    )
    def test_matches_reference(self, tiny_config, tiny_dataset, engine, fmt, rounding):
        """With a zero-rate background most steps carry no input event.
        The gather kernels still step every one of them with the reference
        arithmetic and its eq.-8 draws, so they match the reference loop bit
        for bit: spikes, learned conductances (hence codes), thetas and
        evaluation responses."""
        cfg = self._quiet(tiny_config, fmt, rounding)
        spikes, g, theta, responses = self._run(cfg, tiny_dataset, engine, engine)
        r_spikes, r_g, r_theta, r_responses = self._run(
            cfg, tiny_dataset, "reference", "reference"
        )
        assert sum(spikes) > 0 and responses.sum() > 0
        assert spikes == r_spikes
        assert np.array_equal(g, r_g)
        assert np.array_equal(theta, r_theta)
        assert np.array_equal(responses, r_responses)

    def test_silent_presentation_matches_reference(self, tiny_config, small_images):
        """An all-black image emits no events at f_min=0.  The gather kernel
        gets an empty raster, fires nothing, and still steps the whole
        presentation: membranes, currents, thetas and conductances come out
        exactly as the reference loop leaves them."""
        cfg = replace(tiny_config, encoding=replace(tiny_config.encoding, f_min_hz=0.0))
        silent = np.zeros_like(small_images[0])
        results = []
        for kernel_cls in (ReferenceEngine, EventPresentation):
            net = WTANetwork(cfg, n_pixels=silent.size)
            kernel = kernel_cls(net)
            _, t_ms = kernel.run(small_images[0], 0.0, 50, 1.0)
            net.rest()
            spikes, t_end = kernel.run(silent, t_ms, 50, 1.0)
            assert spikes == 0
            assert t_end == 100.0
            state = (net.neurons.v, net._current, net.neurons.theta, net.conductances)
            results.append([np.array(a, copy=True) for a in state])
        reference, event = results
        for r, e in zip(reference, event):
            assert np.array_equal(r, e)
        # The silent image encodes to an empty raster, while the first
        # image's output spikes left thetas for the silent steps to decay.
        encoder = make_encoder(cfg.encoding, silent.size)
        encoder.set_image(silent)
        raster = encoder.generate_train(50, 1.0, np.random.default_rng(0))
        assert sparsify(raster).n_events == 0
        assert reference[2].any()


class TestEngineResolution:
    def test_unknown_engine_rejected(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=small_images[0].size)
        with pytest.raises(ConfigurationError):
            UnsupervisedTrainer(net).train(small_images, engine="warp")


class TestSparsify:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        raster = rng.random((40, 16)) < 0.1
        sparse = sparsify(raster)
        rebuilt = np.zeros_like(raster)
        for j in range(40):
            rebuilt[j, sparse.rows(j)] = True
        assert np.array_equal(raster, rebuilt)
        assert sparse.n_events == int(raster.sum())
        assert sparse.cell_occupancy == pytest.approx(raster.mean())
        assert sparse.step_occupancy == pytest.approx(raster.any(axis=1).mean())

    def test_empty_raster(self):
        sparse = sparsify(np.zeros((10, 4), dtype=bool))
        assert sparse.n_events == 0
        assert sparse.step_occupancy == 0.0
        assert sparse.event_steps.size == 0

    def test_rejects_bad_shape(self):
        with pytest.raises(SimulationError):
            sparsify(np.zeros(10, dtype=bool))


class TestKernelGuards:
    def test_runs_on_guard_backend_bit_identically(self, tiny_config, small_images):
        """The event kernel is backend-generic: the guard backend must
        reproduce the numpy trajectory bit for bit, with zero device-
        discipline violations."""
        import repro.backend as backend
        from repro.backend import guard

        host_net = WTANetwork(tiny_config, n_pixels=64)
        host_kernel = EventPresentation(host_net)
        t = 0.0
        for image in small_images[:2]:
            _, t = host_kernel.run(image, t, 40, 1.0)

        dev_net = WTANetwork(tiny_config, n_pixels=64)
        guard.reset_counters()
        try:
            backend.set_backend("guard")
            dev_kernel = EventPresentation(dev_net)
            t = 0.0
            for image in small_images[:2]:
                _, t = dev_kernel.run(image, t, 40, 1.0)
        finally:
            backend.set_backend(None)
        assert guard.transfer_stats().violations == 0
        assert np.array_equal(host_net.synapses.g, dev_net.synapses.g)
        assert np.array_equal(host_net.neurons.theta, dev_net.neurons.theta)
        assert np.array_equal(host_net.neurons.v, dev_net.neurons.v)
        assert np.array_equal(
            host_net.neurons._inhibited_left, dev_net.neurons._inhibited_left
        )

    def test_rejects_negative_steps(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=64)
        kernel = EventPresentation(net)
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, -1, 1.0)
