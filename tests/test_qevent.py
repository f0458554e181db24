"""The integer gather kernel behind ``qfused`` and its independent oracles.

The oracle ladder:

- **vs the reference loop** — under every rounding option: the integer
  drive sums are exact, every step runs the reference arithmetic, and
  eq.-8 stochastic rounding draws one ``learning`` uniform per changed
  synapse in C order in both, so spikes, codes, thetas, membranes,
  currents, timers and generator states are **bit-identical** to
  ``engine="reference"`` (and ``"fused"``) simulating the same Q-format on
  floats.  Pinned at the paper's 28x28 input size, where most input steps
  gather two or more rows;
- **evaluation** — plasticity frozen: response matrices bit-identical to
  the float ``fused`` engine;
- **resumability** — kill-and-resume through v2 checkpoints reproduces the
  uninterrupted ``qfused`` run exactly.
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
from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.encoding.events import sparsify
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


@pytest.fixture(scope="module")
def digits28():
    """Two 28x28 training digits: the paper's input size."""
    return load_dataset("mnist", n_train=2, n_test=2, size=28, seed=1)


def _paper_scale(fmt, rounding, stdp_kind=STDPKind.STOCHASTIC):
    """100 neurons, 500 ms presentations, 1-22 Hz rates (the ``8bit`` preset)."""
    config = get_preset("8bit", stdp_kind=stdp_kind, n_neurons=100, seed=0)
    return _quantized(config, fmt=fmt, rounding=rounding)


def _full_state(net, log):
    return {
        "spikes_per_image": np.array(log.spikes_per_image),
        "conductances": net.conductances,
        "thetas": net.neurons.theta,
        "membranes": net.neurons.v,
        "currents": net._current,
        "refractory": net.neurons._refractory_left,
        "inhibited": net.neurons._inhibited_left,
        "last_pre": net.timers.last_pre,
        "last_post": net.timers.last_post,
    }


def _assert_same_state(a, b):
    for key in a:
        assert np.array_equal(a[key], b[key]), key


_STREAMS = ("encoding", "learning", "rounding")


def _stream_states(net):
    return {name: net.rngs.get(name).bit_generator.state for name in _STREAMS}


class TestBitIdenticalToReference:
    @pytest.mark.parametrize(
        "fmt, rounding, stdp_kind",
        [
            ("Q1.7", RoundingMode.NEAREST, STDPKind.STOCHASTIC),
            ("Q1.7", RoundingMode.TRUNCATE, STDPKind.STOCHASTIC),
            ("Q1.15", RoundingMode.NEAREST, STDPKind.STOCHASTIC),
            ("Q1.15", RoundingMode.TRUNCATE, STDPKind.STOCHASTIC),
            ("Q1.7", RoundingMode.STOCHASTIC, STDPKind.STOCHASTIC),
            ("Q1.15", RoundingMode.STOCHASTIC, STDPKind.STOCHASTIC),
            ("Q1.7", RoundingMode.STOCHASTIC, STDPKind.DETERMINISTIC),
            ("Q1.15", RoundingMode.STOCHASTIC, STDPKind.DETERMINISTIC),
        ],
        ids=[
            "Q1.7-nearest",
            "Q1.7-truncate",
            "Q1.15-nearest",
            "Q1.15-truncate",
            "Q1.7-stochastic",
            "Q1.15-stochastic",
            "Q1.7-stochastic-deterministic_stdp",
            "Q1.15-stochastic-deterministic_stdp",
        ],
    )
    def test_matches_reference_at_paper_input_size(
        self, digits28, fmt, rounding, stdp_kind
    ):
        """``qfused`` and ``fused`` against ``reference``: the full state and
        the ``encoding``/``learning``/``rounding`` generator states."""
        config = _paper_scale(fmt, rounding, stdp_kind)
        images = digits28.train_images
        ref_net, ref_log = _train(config, images, "reference")
        reference = _full_state(ref_net, ref_log)
        assert reference["spikes_per_image"].sum() > 0
        for engine in ("fused", "qfused"):
            net, log = _train(config, images, engine)
            _assert_same_state(reference, _full_state(net, log))
            assert _stream_states(net) == _stream_states(ref_net), engine
        if rounding is RoundingMode.STOCHASTIC and fmt == "Q1.15":
            # A 16-bit format rounds with learning-stream draws (Q1.7 steps
            # one LSB per update and draws none), so the parity is not vacuous.
            fresh = WTANetwork(config, images[0].size)
            assert ref_net.rngs.learning.bit_generator.state != (
                fresh.rngs.learning.bit_generator.state
            )

        # Most input steps add two or more rows, so the sum order matters.
        net = WTANetwork(config, images[0].size)
        gathered = []
        for image in images:
            net.present_image(image)
            raster = net.encoder.generate_train(500, 1.0, net.rngs.encoding)
            gathered.append(np.diff(sparsify(raster).offsets))
        assert np.mean(np.concatenate(gathered) >= 2) >= 0.8

    @pytest.mark.parametrize("fmt", ["Q0.8", "Q1.7", "Q8.8"])
    @pytest.mark.parametrize(
        "rounding", [RoundingMode.TRUNCATE, RoundingMode.NEAREST, RoundingMode.STOCHASTIC]
    )
    def test_codes_thetas_and_spikes_match(self, tiny_config, small_images, fmt, rounding):
        """Every uint8/uint16 format width on the 8x8 fixtures."""
        config = _quantized(tiny_config, fmt=fmt, rounding=rounding)
        reference = _full_state(*_train(config, small_images, "reference"))
        qfused = _full_state(*_train(config, small_images, "qfused"))
        assert reference["spikes_per_image"].sum() > 0
        _assert_same_state(reference, qfused)

    def test_deterministic_stdp_rule_matches_reference(self, digits28):
        config = _paper_scale("Q1.7", RoundingMode.NEAREST, STDPKind.DETERMINISTIC)
        images = digits28.train_images
        reference = _full_state(*_train(config, images, "reference"))
        qfused = _full_state(*_train(config, images, "qfused"))
        assert reference["spikes_per_image"].sum() > 0
        _assert_same_state(reference, qfused)


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
        net, _ = _train(config, small_images, "qfused")
        net.freeze()
        responses = {}
        for engine in ("reference", "fused", "qfused"):
            net.rngs.reseed(123)
            evaluator = Evaluator(net, t_present_ms=50.0, engine=engine)
            responses[engine] = evaluator.collect_responses(tiny_dataset.test_images[:4])
        assert responses["qfused"].sum() > 0
        assert np.array_equal(responses["reference"], responses["qfused"])
        assert np.array_equal(responses["fused"], responses["qfused"])


class TestResume:
    @pytest.mark.parametrize("crash_at", [1, 3])
    def test_kill_and_resume_bit_identical(
        self, tmp_path, tiny_config, tiny_dataset, crash_at
    ):
        """v2 checkpoints store the uint16 codes of a Q1.15 run; resuming one
        under the qfused engine reproduces the uninterrupted run exactly."""
        config = _quantized(tiny_config, fmt="Q1.15")
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
        config = replace(
            config, stochastic_stdp=replace(config.stochastic_stdp, ltd_mode=LTDMode.PAIR)
        )
        net = WTANetwork(config, small_images[0].size)
        with pytest.raises(ConfigurationError, match="pair-LTD"):
            QEventPresentation(net)

    def test_rejects_negative_steps(self, tiny_config, small_images):
        config = _quantized(tiny_config)
        net = WTANetwork(config, small_images[0].size)
        kernel = QEventPresentation(net)
        with pytest.raises(SimulationError):
            kernel.run(small_images[0], 0.0, -1, 1.0)

    def test_config_rejects_format_wider_than_engine_dtypes(self, tiny_config):
        """The evaluation slot is validated like the training slot."""
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        with pytest.raises(ConfigurationError, match="18"):
            replace(config, engine=replace(config.engine, eval="qfused"))
