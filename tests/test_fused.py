"""Equivalence and unit tests for the ``fused`` engine (the float gather kernel).

The contract under test (see :mod:`repro.engine.event_train`): training with
``engine="fused"`` must produce **bit-identical** state — conductances,
adaptive thresholds, membranes, currents, refractory and inhibition timers
and per-image spike counts — to the reference step loop under identical
:class:`~repro.engine.rng.RngStreams` seeds, across storage formats,
rounding modes, learning rules, encoders and synapse models.  Both sum
eq. 3 over the active input rows in row order, so the comparison is exact
whatever BLAS build numpy links.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig, RoundingMode, STDPKind
from repro.config.presets import get_preset
from repro.encoding.periodic import PeriodicEncoder
from repro.encoding.poisson import PoissonEncoder
from repro.engine.registry import create_training_engine
from repro.errors import SimulationError
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import Quantizer
from repro.synapses.conductance import ConductanceMatrix


def _train(config, images, engine):
    net = WTANetwork(config, n_pixels=images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


def _assert_bit_identical(config, images):
    net_ref, log_ref = _train(config, images, engine="reference")
    net_fus, log_fus = _train(config, images, engine="fused")
    assert np.array_equal(net_ref.conductances, net_fus.conductances)
    assert np.array_equal(net_ref.neurons.theta, net_fus.neurons.theta)
    assert np.array_equal(net_ref.neurons.v, net_fus.neurons.v)
    assert np.array_equal(net_ref._current, net_fus._current)
    assert np.array_equal(
        net_ref.neurons._refractory_left, net_fus.neurons._refractory_left
    )
    assert np.array_equal(
        net_ref.neurons._inhibited_left, net_fus.neurons._inhibited_left
    )
    assert log_ref.spikes_per_image == log_fus.spikes_per_image
    # The presentations must have produced activity for the comparison to
    # mean anything.
    assert sum(log_ref.spikes_per_image) > 0


class TestBitIdentity:
    def test_float32_stochastic(self, tiny_config, small_images):
        _assert_bit_identical(tiny_config, small_images)

    def test_q17_stochastic_rounding(self, tiny_config, small_images):
        """Q1.7 + stochastic rounding runs the column-restricted rule path
        too: a one-LSB step draws no rounding uniform."""
        cfg = get_preset("8bit", n_neurons=8, seed=0)
        cfg = replace(cfg, simulation=tiny_config.simulation)
        _assert_bit_identical(cfg, small_images)

    def test_q115_stochastic_rounding(self, tiny_config, small_images):
        """A 16-bit format under stochastic rounding: off the fixed-LSB regime."""
        cfg = replace(
            tiny_config,
            quantization=QuantizationConfig(fmt="Q1.15", rounding=RoundingMode.STOCHASTIC),
        )
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

    def test_periodic_encoder(self, tiny_config, small_images):
        cfg = replace(tiny_config, encoding=replace(tiny_config.encoding, kind="periodic"))
        _assert_bit_identical(cfg, small_images)

    def test_conductance_synapse_model(self, tiny_config, small_images):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, synapse_model="conductance"))
        _assert_bit_identical(cfg, small_images)

    def test_reference_and_fused_interleave(self, tiny_config, small_images):
        """The kernel mutates live network state, so paths can alternate."""
        net_ref, _ = _train(tiny_config, small_images, engine="reference")

        net_mix = WTANetwork(tiny_config, n_pixels=small_images[0].size)
        trainer = UnsupervisedTrainer(net_mix)
        # rest() wipes timers and fast state between images, and the tiny
        # config's times are exact integers, so per-image calls with
        # alternating paths reproduce the single reference run exactly.
        for i, image in enumerate(small_images):
            trainer.train(image[None], engine="fused" if i % 2 else "reference")
        assert np.array_equal(net_ref.conductances, net_mix.conductances)
        assert np.array_equal(net_ref.neurons.theta, net_mix.neurons.theta)


class TestStatisticalEquivalence:
    def test_aggregate_activity_across_seeds(self, tiny_config, tiny_dataset):
        """Different seeds (hence different draw orders) stay in one ballpark."""
        images = tiny_dataset.train_images[:10]
        totals = []
        for seed, engine in ((3, "reference"), (4, "fused"), (5, "fused")):
            cfg = replace(tiny_config, simulation=replace(tiny_config.simulation, seed=seed))
            _, log = _train(cfg, images, engine)
            totals.append(sum(log.spikes_per_image))
        assert min(totals) > 0
        assert max(totals) <= 2.0 * min(totals)


class TestGenerateTrain:
    def test_poisson_matches_sequential_steps(self):
        params = get_preset("float32").encoding
        image = np.linspace(0.0, 1.0, 64).reshape(8, 8)

        enc_a = PoissonEncoder(64, params)
        enc_a.set_image(image)
        rng_a = np.random.default_rng(99)
        seq = np.stack([enc_a.step(1.0, rng_a) for _ in range(40)])

        enc_b = PoissonEncoder(64, params)
        enc_b.set_image(image)
        rng_b = np.random.default_rng(99)
        vec = enc_b.generate_train(40, 1.0, rng_b)

        assert np.array_equal(seq, vec)
        # The stream must be left in the same state.
        assert rng_a.random() == rng_b.random()

    def test_periodic_matches_sequential_steps(self):
        params = get_preset("float32").encoding
        image = np.linspace(0.0, 1.0, 64).reshape(8, 8)

        enc_a = PeriodicEncoder(64, params)
        enc_a.set_image(image, np.random.default_rng(5))
        seq = np.stack([enc_a.step(1.0) for _ in range(40)])

        enc_b = PeriodicEncoder(64, params)
        enc_b.set_image(image, np.random.default_rng(5))
        vec = enc_b.generate_train(40, 1.0)

        assert np.array_equal(seq, vec)
        # Phase state must match so step() and generate_train() interleave.
        assert np.array_equal(enc_a._phase, enc_b._phase)
        assert np.array_equal(enc_a.step(1.0), enc_b.step(1.0))

    def test_no_image_yields_silence(self):
        params = get_preset("float32").encoding
        enc = PoissonEncoder(16, params)
        train = enc.generate_train(10, 1.0, np.random.default_rng(0))
        assert train.shape == (10, 16)
        assert not train.any()

    def test_invalid_arguments_rejected(self):
        params = get_preset("float32").encoding
        for enc in (PoissonEncoder(4, params), PeriodicEncoder(4, params)):
            with pytest.raises(SimulationError):
                enc.generate_train(-1, 1.0, np.random.default_rng(0))
            with pytest.raises(SimulationError):
                enc.generate_train(5, 0.0, np.random.default_rng(0))


class TestConductanceDeltaPaths:
    @pytest.mark.parametrize("quantizer", [None, Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST)])
    def test_apply_delta_preserves_buffer_identity(self, quantizer):
        mat = ConductanceMatrix(12, 6, quantizer=quantizer, rng=np.random.default_rng(1))
        buffer = mat.g
        delta = np.random.default_rng(2).normal(0.0, 0.05, size=(12, 6))
        mat.apply_delta(delta)
        assert mat.g is buffer  # in-place update, views stay live

    @pytest.mark.parametrize("quantizer", [None, Quantizer(parse_qformat("Q1.7"), RoundingMode.NEAREST)])
    def test_apply_delta_columns_matches_full_matrix(self, quantizer):
        rng_delta = np.random.default_rng(3)
        mat_full = ConductanceMatrix(12, 6, quantizer=quantizer, rng=np.random.default_rng(1))
        mat_cols = ConductanceMatrix(12, 6, quantizer=quantizer, rng=np.random.default_rng(1))
        cols = np.array([1, 4])
        delta_cols = rng_delta.normal(0.0, 0.05, size=(12, cols.size))

        delta = np.zeros((12, 6))
        delta[:, cols] = delta_cols
        mat_full.apply_delta(delta)
        mat_cols.apply_delta_columns(cols, delta_cols)
        assert np.array_equal(mat_full.g, mat_cols.g)


class TestKernelGuards:
    def test_runs_on_guard_backend_bit_identically(self, tiny_config, small_images):
        """The engine is backend-generic: the guard backend (device
        semantics, mixing enforced) must reproduce the numpy backend's
        trajectory bit for bit with zero discipline violations."""
        import repro.backend as backend
        from repro.backend import guard

        host_net = WTANetwork(tiny_config, n_pixels=64)
        host_kernel = create_training_engine("fused", host_net)
        t = 0.0
        for image in small_images[:2]:
            _, t = host_kernel.run(image, t, 40, 1.0)

        dev_net = WTANetwork(tiny_config, n_pixels=64)
        guard.reset_counters()
        try:
            backend.set_backend("guard")
            dev_kernel = create_training_engine("fused", dev_net)
            t = 0.0
            for image in small_images[:2]:
                _, t = dev_kernel.run(image, t, 40, 1.0)
        finally:
            backend.set_backend(None)
        assert guard.transfer_stats().violations == 0
        assert np.array_equal(host_net.synapses.g, dev_net.synapses.g)
        assert np.array_equal(host_net.neurons.theta, dev_net.neurons.theta)
        assert np.array_equal(host_net.neurons.v, dev_net.neurons.v)

    def test_rejects_negative_steps(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, n_pixels=64)
        kernel = create_training_engine("fused", net)
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, -1, 1.0)
