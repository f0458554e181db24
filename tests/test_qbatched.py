"""The code-native batched inference tier ``qbatched``.

The contract (also checked by the ``q8_infer`` benchmark workload): with the
conductances frozen on a Q-format grid, driving the lock-step batch with
integer code accumulation (:meth:`QCodec.batched_drive`) is **bit-identical**
to the float batched matmul — every partial sum of on-grid dyadic values is
exact in float64, and both paths perform one rounding of the same real
product — so response matrices and the predicted labels match exactly, not
just statistically.  Both engines draw from the restarted, salted
``batched_eval`` stream, which makes the pairing automatic under the same
network seeds.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.engine.batched import BatchedInference
from repro.errors import ConfigurationError
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer


def _quantized(config, fmt="Q1.7", rounding=RoundingMode.STOCHASTIC):
    return replace(config, quantization=QuantizationConfig(fmt=fmt, rounding=rounding))


@pytest.fixture
def trained_quantized(tiny_config, tiny_dataset):
    config = _quantized(tiny_config)
    net = WTANetwork(config, 64)
    UnsupervisedTrainer(net).train(tiny_dataset.train_images[:10], engine="qfused")
    net.freeze()
    return net


class TestBitIdenticalToFloatBatched:
    @pytest.mark.parametrize("fmt", ["Q0.8", "Q1.7", "Q8.8", "Q1.15"])
    def test_responses_match_bit_for_bit(self, tiny_config, tiny_dataset, fmt):
        config = _quantized(tiny_config, fmt=fmt, rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, 64)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:6], engine="qfused")
        net.freeze()
        images = tiny_dataset.test_images[:8]
        rng = np.random.default_rng(11)
        float_counts = BatchedInference(net).collect_responses(
            images, rng=np.random.default_rng(11)
        )
        int_counts = BatchedInference(net, storage="int").collect_responses(
            images, rng=rng
        )
        assert np.array_equal(float_counts, int_counts)
        assert float_counts.sum() > 0  # the comparison must mean something

    def test_engine_pairing_via_the_batched_eval_stream(
        self, trained_quantized, tiny_dataset
    ):
        """Through the registry engines no explicit rng is passed: both draw
        from the restarted salted ``batched_eval`` stream, so the responses
        — and hence the argmax labels — are bit-identical automatically."""
        images = tiny_dataset.test_images[:8]
        responses = {}
        for engine in ("batched", "qbatched"):
            evaluator = Evaluator(trained_quantized, t_present_ms=50.0, engine=engine)
            responses[engine] = evaluator.collect_responses(images)
        assert np.array_equal(responses["batched"], responses["qbatched"])
        assert np.array_equal(
            responses["batched"].argmax(axis=1),
            responses["qbatched"].argmax(axis=1),
        )

    def test_code_path_reads_fresh_weights(self, trained_quantized, tiny_dataset):
        """The codes are re-encoded per call: scaling the conductances
        between calls must change the integer path's output too."""
        engine = BatchedInference(trained_quantized, storage="int")
        images = tiny_dataset.test_images[:4]
        before = engine.collect_responses(images, rng=np.random.default_rng(5))
        assert before.sum() > 0
        trained_quantized.synapses.g.fill(0.0)  # still on the Q-format grid
        after = engine.collect_responses(images, rng=np.random.default_rng(5))
        assert after.sum() < before.sum()


class TestValidation:
    def test_floating_point_config_rejected(self, tiny_config):
        net = WTANetwork(tiny_config, 64)  # fmt=None
        with pytest.raises(ConfigurationError, match="Q-format"):
            BatchedInference(net, storage="int")

    def test_format_wider_than_sixteen_bits_rejected(self, tiny_config):
        config = _quantized(tiny_config, fmt="Q2.16", rounding=RoundingMode.NEAREST)
        net = WTANetwork(config, 64)
        with pytest.raises(ConfigurationError, match="16 bits or fewer"):
            BatchedInference(net, storage="int")

    def test_unknown_storage_mode_rejected(self, tiny_config):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(ConfigurationError, match="storage"):
            BatchedInference(net, storage="fp8")

    def test_float_storage_needs_no_quantizer(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        counts = BatchedInference(net).collect_responses(
            tiny_dataset.test_images[:2], rng=np.random.default_rng(0)
        )
        assert counts.shape == (2, 8)

    def test_config_requires_fixed_point_for_qbatched_engine(self, tiny_config):
        with pytest.raises(ConfigurationError, match="fixed-point"):
            replace(tiny_config, engine=replace(tiny_config.engine, eval="qbatched"))
