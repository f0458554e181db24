"""The event-driven integer tier ``qevent`` and its equivalence contract.

The oracle ladder (mirrored by the ``bench_training --check`` gate):

- **vs the dense ``qfused`` kernel** — the integer drive sums are exact and
  every step runs the dense arithmetic, so spike trajectories and thetas
  match, and code updates are pure integer functions of spike times,
  timers and the ``learning``/``qrounding`` streams: conductance codes are
  **bit-identical** across every supported format width and rounding mode
  — including stochastic rounding, where both kernels consume the very
  same eq.-(8) draws in the very same order;
- **vs the float shadow twin** — ``QEventPresentation(net,
  storage="float")`` runs the identical algorithm on integer-valued
  float64 codes: the standing stochastic-rounding oracle;
- **evaluation** — plasticity frozen: response matrices bit-identical to
  the fused and qfused engines;
- **resumability** — kill-and-resume through v2 checkpoints reproduces the
  uninterrupted qevent run exactly.
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
from repro.errors import ConfigurationError, SimulationError
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


class TestBitIdenticalToQFused:
    @pytest.mark.parametrize("fmt", ["Q0.8", "Q1.7", "Q8.8"])
    @pytest.mark.parametrize(
        "rounding",
        [RoundingMode.TRUNCATE, RoundingMode.NEAREST, RoundingMode.STOCHASTIC],
    )
    def test_codes_thetas_and_spikes_match(
        self, tiny_config, small_images, fmt, rounding
    ):
        config = _quantized(tiny_config, fmt=fmt, rounding=rounding)
        dense_net, dense_log = _train(config, small_images, "qfused")
        event_net, event_log = _train(config, small_images, "qevent")
        assert event_log.spikes_per_image == dense_log.spikes_per_image
        assert sum(event_log.spikes_per_image) > 0
        assert np.array_equal(event_net.conductances, dense_net.conductances)
        assert np.array_equal(event_net.neurons.theta, dense_net.neurons.theta)

    def test_deterministic_stdp_rule_matches(self, tiny_config, small_images):
        config = _quantized(
            replace(tiny_config, stdp_kind=STDPKind.DETERMINISTIC),
            rounding=RoundingMode.NEAREST,
        )
        dense_net, dense_log = _train(config, small_images, "qfused")
        event_net, event_log = _train(config, small_images, "qevent")
        assert event_log.spikes_per_image == dense_log.spikes_per_image
        assert np.array_equal(event_net.conductances, dense_net.conductances)

    def test_rounding_stream_accounting_is_identical(
        self, tiny_config, small_images
    ):
        """Draw-count parity: the lazy scatter rounds one draw per changed
        synapse, exactly as the dense kernel does, so the ``qrounding`` and
        ``learning`` generators end in the very same state."""
        config = _quantized(tiny_config, fmt="Q1.15")
        dense_net, _ = _train(config, small_images, "qfused")
        event_net, _ = _train(config, small_images, "qevent")
        assert (
            event_net.rngs.qrounding.bit_generator.state
            == dense_net.rngs.qrounding.bit_generator.state
        )
        assert (
            event_net.rngs.learning.bit_generator.state
            == dense_net.rngs.learning.bit_generator.state
        )
        # And the stream genuinely advanced — the parity is not vacuous.
        fresh = WTANetwork(config, small_images[0].size)
        assert (
            event_net.rngs.qrounding.bit_generator.state
            != fresh.rngs.qrounding.bit_generator.state
        )


class TestStochasticShadowTwin:
    @pytest.mark.parametrize("fmt", ["Q1.7", "Q8.8"])
    def test_integer_storage_matches_float_twin(
        self, tiny_config, small_images, fmt
    ):
        config = _quantized(tiny_config, fmt=fmt)

        int_net = WTANetwork(config, small_images[0].size)
        int_log = UnsupervisedTrainer(int_net).train(small_images, engine="qevent")

        twin_net = WTANetwork(config, small_images[0].size)
        twin = QEventPresentation(twin_net, storage="float")
        twin_log = UnsupervisedTrainer(twin_net).train(small_images, engine=twin)

        assert np.array_equal(int_net.conductances, twin_net.conductances)
        assert np.array_equal(int_net.neurons.theta, twin_net.neurons.theta)
        assert int_log.spikes_per_image == twin_log.spikes_per_image


class TestCodesStorage:
    def test_code_matrix_dtype_and_width(self, tiny_config, small_images):
        for fmt, dtype in (("Q1.7", np.uint8), ("Q1.15", np.uint16)):
            net = WTANetwork(_quantized(tiny_config, fmt=fmt), small_images[0].size)
            kernel = QEventPresentation(net)
            assert kernel.codes.dtype == np.dtype(dtype)
            assert kernel.codes.shape == net.synapses.g.shape

    def test_decoded_codes_equal_the_float_view(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        kernel = QEventPresentation(net)
        UnsupervisedTrainer(net).train(small_images, engine=kernel)
        decoded = kernel.codec.decode(asnumpy(kernel.codes))
        assert np.array_equal(decoded, net.conductances)
        fmt = net.synapses.quantizer.fmt
        assert bool(np.all(fmt.is_representable(net.conductances)))


class TestEvaluation:
    def test_frozen_responses_bit_identical_to_fused_tiers(
        self, tiny_config, small_images, tiny_dataset
    ):
        config = _quantized(tiny_config)
        net, _ = _train(config, small_images, "qevent")
        net.freeze()
        responses = {}
        for engine in ("fused", "qfused", "qevent"):
            net.rngs.reseed(123)
            evaluator = Evaluator(net, t_present_ms=50.0, engine=engine)
            responses[engine] = evaluator.collect_responses(tiny_dataset.test_images[:4])
        assert np.array_equal(responses["fused"], responses["qevent"])
        assert np.array_equal(responses["qfused"], responses["qevent"])


class TestResume:
    @pytest.mark.parametrize("crash_at", [1, 3])
    def test_kill_and_resume_bit_identical(
        self, tmp_path, tiny_config, tiny_dataset, crash_at
    ):
        """v2 checkpoints store the uint8 codes; resuming one under the
        qevent engine reproduces the uninterrupted run exactly."""
        config = _quantized(tiny_config)
        images = tiny_dataset.train_images[:5]
        baseline, base_log = _train(config, images, "qevent")

        path = tmp_path / "auto.npz"
        net = WTANetwork(config, images[0].size)
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(net).train(
                images, engine="qevent",
                autosave=AutosavePolicy(path, every_images=1),
                on_image_end=CrashFault(at_presentation=crash_at),
            )

        resumed = WTANetwork(config, images[0].size)
        log = UnsupervisedTrainer(resumed).train(
            images, engine="qevent", resume_from=str(path)
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image


class TestValidation:
    def test_floating_point_config_rejected(self, tiny_config, small_images):
        net = WTANetwork(tiny_config, small_images[0].size)  # fmt=None
        with pytest.raises(ConfigurationError, match="Q-format"):
            QEventPresentation(net)

    def test_format_wider_than_sixteen_bits_rejected(
        self, tiny_config, small_images
    ):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="16 bits or fewer"):
            QEventPresentation(net)

    def test_pair_ltd_rejected(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size, ltd_mode=LTDMode.PAIR)
        with pytest.raises(ConfigurationError, match="pair-LTD"):
            QEventPresentation(net)

    def test_unknown_storage_mode_rejected(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="storage"):
            QEventPresentation(net, storage="fp8")

    def test_rejects_negative_steps(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        kernel = QEventPresentation(net)
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, -1, 1.0)

    def test_config_requires_fixed_point_for_qevent_engine(self, tiny_config):
        with pytest.raises(ConfigurationError, match="fixed-point"):
            replace(tiny_config, engine=replace(tiny_config.engine, train="qevent"))

    def test_config_rejects_format_wider_than_engine_dtypes(self, tiny_config):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        with pytest.raises(ConfigurationError, match="18"):
            replace(config, engine=replace(config.engine, train="qevent"))
