"""The integer-native ``qfused`` engine and its equivalence contract.

``qfused`` runs the integer gather kernel
(:class:`~repro.engine.qevent.QEventPresentation`).  The tiers pinned here
(the reference loop as oracle is pinned in ``tests/test_qevent.py``):

- **training, under every rounding option** — bit-identical to the float
  ``fused`` engine simulating the same Q-format: both compute the very
  same arithmetic on the same draws, eq.-8 stochastic rounding included
  (one ``learning`` uniform per changed synapse, in C order);
- **evaluation** — plasticity frozen, no rounding at all: bit-identical
  response matrices vs the fused engine;
- **resumability** — kill-and-resume through v2 checkpoints (which store
  the uint8/uint16 codes directly) reproduces the uninterrupted run.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import asnumpy

from repro.config.parameters import (
    QuantizationConfig,
    RoundingMode,
    STDPKind,
)
from repro.engine.qevent import QEventPresentation
from repro.engine.registry import create_training_engine
from repro.errors import ConfigurationError
from repro.learning.stochastic import LTDMode
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience import AutosavePolicy
from repro.resilience.faults import CrashFault, SimulatedCrash


def _quantized(config, fmt="Q1.7", rounding=RoundingMode.STOCHASTIC):
    return replace(config, quantization=QuantizationConfig(fmt=fmt, rounding=rounding))


def _train(config, images, engine):
    net = WTANetwork(config, images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


class TestDeterministicRoundingBitExact:
    @pytest.mark.parametrize("rounding", [RoundingMode.NEAREST, RoundingMode.TRUNCATE])
    def test_q17_matches_fused_bit_for_bit(
        self, tiny_config, small_images, rounding
    ):
        config = _quantized(tiny_config, rounding=rounding)
        fused_net, fused_log = _train(config, small_images, "fused")
        q_net, q_log = _train(config, small_images, "qfused")
        assert np.array_equal(q_net.conductances, fused_net.conductances)
        assert np.array_equal(q_net.neurons.theta, fused_net.neurons.theta)
        assert q_log.spikes_per_image == fused_log.spikes_per_image

    def test_q115_uint16_path_matches_fused(self, tiny_config, small_images):
        """16-bit formats leave the fixed-LSB regime: delta rounding and the
        per-image weight normaliser both run, still bit-identical."""
        config = _quantized(tiny_config, fmt="Q1.15", rounding=RoundingMode.NEAREST)
        fused_net, fused_log = _train(config, small_images, "fused")
        q_net, q_log = _train(config, small_images, "qfused")
        assert np.array_equal(q_net.conductances, fused_net.conductances)
        assert q_log.spikes_per_image == fused_log.spikes_per_image


class TestStochasticRoundingBitExact:
    @pytest.mark.parametrize("fmt", ["Q1.7", "Q1.15"])
    def test_matches_fused_bit_for_bit(self, tiny_config, small_images, fmt):
        config = _quantized(tiny_config, fmt=fmt, rounding=RoundingMode.STOCHASTIC)
        fused_net, fused_log = _train(config, small_images, "fused")
        q_net, q_log = _train(config, small_images, "qfused")
        assert np.array_equal(q_net.conductances, fused_net.conductances)
        assert np.array_equal(q_net.neurons.theta, fused_net.neurons.theta)
        assert q_log.spikes_per_image == fused_log.spikes_per_image
        assert q_net.rngs.state_dict() == fused_net.rngs.state_dict()

    def test_eq8_draws_come_from_the_learning_stream(self, tiny_config, small_images):
        """Deterministic STDP draws nothing itself, so at Q1.15 only eq.-8
        rounding can advance ``learning``: it does under stochastic rounding
        and not under nearest rounding."""
        config = replace(tiny_config, stdp_kind=STDPKind.DETERMINISTIC)
        fresh = WTANetwork(config, small_images[0].size).rngs.learning.bit_generator.state
        states = {}
        for rounding in (RoundingMode.NEAREST, RoundingMode.STOCHASTIC):
            net, log = _train(_quantized(config, "Q1.15", rounding), small_images, "qfused")
            assert sum(log.spikes_per_image) > 0
            states[rounding] = net.rngs.learning.bit_generator.state
        assert states[RoundingMode.NEAREST] == fresh
        assert states[RoundingMode.STOCHASTIC] != fresh


class TestCodesStorage:
    def test_code_matrix_dtype_and_width(self, tiny_config, small_images):
        for fmt, dtype in (("Q1.7", np.uint8), ("Q1.15", np.uint16)):
            net = WTANetwork(_quantized(tiny_config, fmt=fmt), small_images[0].size)
            kernel = QEventPresentation(net)
            assert kernel.codes.dtype == np.dtype(dtype)
            assert kernel.codes.dtype.itemsize * 8 <= 16
            assert kernel.codes.shape == net.synapses.g.shape

    def test_float_view_stays_on_grid_after_training(
        self, tiny_config, small_images
    ):
        config = _quantized(tiny_config)
        net, _ = _train(config, small_images, "qfused")
        fmt = net.synapses.quantizer.fmt
        assert bool(np.all(fmt.is_representable(net.conductances)))

    def test_decoded_codes_equal_the_float_view(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        kernel = QEventPresentation(net)
        UnsupervisedTrainer(net).train(small_images, engine=kernel)
        decoded = kernel.codec.decode(asnumpy(kernel.codes))
        assert np.array_equal(decoded, net.conductances)


class TestEvaluation:
    def test_frozen_responses_bit_identical_to_fused(
        self, tiny_config, small_images, tiny_dataset
    ):
        config = _quantized(tiny_config)
        net, _ = _train(config, small_images, "qfused")
        net.freeze()
        responses = {}
        for engine in ("fused", "qfused"):
            net.rngs.reseed(123)
            evaluator = Evaluator(net, t_present_ms=50.0, engine=engine)
            responses[engine] = evaluator.collect_responses(tiny_dataset.test_images[:4])
        assert np.array_equal(responses["fused"], responses["qfused"])


class TestResume:
    @pytest.mark.parametrize("crash_at", [1, 3])
    def test_kill_and_resume_bit_identical(
        self, tmp_path, tiny_config, tiny_dataset, crash_at
    ):
        """v2 checkpoints store the uint8 codes; resuming from one under the
        qfused engine reproduces the uninterrupted run exactly."""
        config = _quantized(tiny_config)
        images = tiny_dataset.train_images[:5]
        baseline, base_log = _train(config, images, "qfused")

        path = tmp_path / "auto.npz"
        net = WTANetwork(config, images[0].size)
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(net).train(
                images, engine="qfused",
                autosave=AutosavePolicy(path, every_images=1),
                on_image_end=CrashFault(at_presentation=crash_at),
            )

        resumed = WTANetwork(config, images[0].size)
        log = UnsupervisedTrainer(resumed).train(
            images, engine="qfused", resume_from=str(path)
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image


class TestValidation:
    def test_floating_point_config_rejected(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, small_images[0].size)  # fmt=None
        with pytest.raises(ConfigurationError, match="Q-format"):
            create_training_engine("qfused", net)

    def test_format_wider_than_sixteen_bits_rejected(
        self, tiny_config, small_images
    ):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="16 bits or fewer"):
            create_training_engine("qfused", net)

    def test_pair_ltd_rejected(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        config = replace(
            config, stochastic_stdp=replace(config.stochastic_stdp, ltd_mode=LTDMode.PAIR)
        )
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="pair-LTD"):
            create_training_engine("qfused", net)

    def test_config_requires_fixed_point_for_qfused_engine(self, tiny_config):
        with pytest.raises(ConfigurationError, match="fixed-point"):
            replace(tiny_config, engine=replace(tiny_config.engine, train="qfused"))

    def test_config_rejects_format_wider_than_engine_dtypes(self, tiny_config):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        with pytest.raises(ConfigurationError, match="18"):
            replace(config, engine=replace(config.engine, train="qfused"))
