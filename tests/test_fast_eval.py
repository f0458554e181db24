"""Fast-path evaluation: bit-identity, defaults and engine selection."""

import numpy as np
import pytest

from repro.config.parameters import EngineConfig, RoundingMode
from repro.config.presets import get_preset
from repro.engine.registry import available_engines
from repro.errors import ConfigurationError
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.experiment import run_experiment
from repro.pipeline.trainer import UnsupervisedTrainer


@pytest.fixture
def trained_network(tiny_config, tiny_dataset):
    net = WTANetwork(tiny_config, n_pixels=tiny_dataset.n_pixels)
    UnsupervisedTrainer(net).train(tiny_dataset.train_images[:6], engine="fused")
    return net


def _responses(net, images, engine, seed):
    net.rngs.reseed(seed)
    return Evaluator(net, engine=engine).collect_responses(images)


class TestFastEvalBitIdentity:
    def test_fused_eval_matches_reference_bitwise(self, trained_network, small_images):
        seed = trained_network.config.simulation.seed
        ref = _responses(trained_network, small_images, "reference", seed)
        fused = _responses(trained_network, small_images, "fused", seed)
        assert np.array_equal(ref, fused)
        assert ref.sum() > 0  # the comparison is not vacuous

    def test_qfused_eval_matches_reference_bitwise(self, tiny_config, tiny_dataset, small_images):
        """Lock-step evaluation over integer codes: a Q1.7 network's
        responses equal the reference per-image loop's."""
        from dataclasses import replace

        from repro.config.parameters import QuantizationConfig

        config = replace(tiny_config, quantization=QuantizationConfig(fmt="Q1.7"))
        net = WTANetwork(config, n_pixels=tiny_dataset.n_pixels)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:6], engine="qfused")
        seed = config.simulation.seed
        ref = _responses(net, small_images, "reference", seed)
        qfused = _responses(net, small_images, "qfused", seed)
        assert ref.sum() > 0
        assert np.array_equal(ref, qfused)

    def test_eval_leaves_plasticity_state_untouched(self, trained_network, small_images):
        g_before = trained_network.conductances.copy()
        theta_before = trained_network.neurons.theta.copy()
        _responses(trained_network, small_images, "fused", 7)
        assert np.array_equal(trained_network.conductances, g_before)
        assert np.array_equal(trained_network.neurons.theta, theta_before)

    def test_single_image_accepted(self, trained_network, small_images):
        responses = Evaluator(trained_network, engine="fused").collect_responses(
            small_images[0]
        )
        assert responses.shape == (1, trained_network.config.wta.n_neurons)


class TestResponseShape:
    @pytest.mark.parametrize("n_images", [0, None, 3], ids=["empty", "2-d", "3-d"])
    @pytest.mark.parametrize("engine", available_engines())
    def test_every_engine_returns_int64_counts_per_image(
        self, tiny_dataset, engine, n_images
    ):
        """A Q1.7 config every engine accepts; an empty batch is (0, n)."""
        cfg = get_preset("8bit", rounding=RoundingMode.NEAREST, n_neurons=8)
        net = WTANetwork(cfg, n_pixels=tiny_dataset.n_pixels)
        images = tiny_dataset.test_images
        batch = images[0] if n_images is None else images[:n_images]
        responses = Evaluator(net, t_present_ms=20.0, engine=engine).collect_responses(
            batch
        )
        assert responses.shape == (1 if n_images is None else n_images, 8)
        assert responses.dtype == np.int64


class TestEngineSelection:
    def test_default_eval_engine_is_fused(self, tiny_config):
        assert tiny_config.engine.eval == "fused"
        net = WTANetwork(tiny_config, n_pixels=64)
        assert Evaluator(net).engine is None  # defers to config

    def test_default_train_engine_is_fused(self, tiny_config):
        assert tiny_config.engine.train == "fused"

    def test_unknown_eval_engine_raises_configuration_error(
        self, trained_network, small_images
    ):
        evaluator = Evaluator(trained_network, engine="warp")
        with pytest.raises(ConfigurationError, match="unknown engine 'warp'"):
            evaluator.collect_responses(small_images)

    def test_unknown_train_engine_raises_configuration_error(
        self, tiny_config, tiny_dataset
    ):
        net = WTANetwork(tiny_config, n_pixels=tiny_dataset.n_pixels)
        with pytest.raises(ConfigurationError, match="unknown engine"):
            UnsupervisedTrainer(net).train(tiny_dataset.train_images[:1], engine="warp")

    def test_batched_engine_cannot_train(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, n_pixels=tiny_dataset.n_pixels)
        with pytest.raises(ConfigurationError, match="does not support learning"):
            UnsupervisedTrainer(net).train(tiny_dataset.train_images[:1], engine="batched")

    def test_config_engine_drives_trainer(self, tiny_config, tiny_dataset):
        from dataclasses import replace

        config = replace(tiny_config, engine=EngineConfig(train="reference", eval="reference"))
        result = run_experiment(config, tiny_dataset, n_labeling=10)
        assert 0.0 <= result.accuracy <= 1.0

    def test_run_experiment_engine_overrides(self, tiny_config, tiny_dataset):
        result = run_experiment(
            tiny_config, tiny_dataset, n_labeling=10,
            train_engine="reference", eval_engine="batched",
        )
        assert 0.0 <= result.accuracy <= 1.0


class TestExperimentEngineEquivalence:
    def test_fused_defaults_reproduce_reference_experiment(self, tiny_config, tiny_dataset):
        from dataclasses import replace

        ref_cfg = replace(tiny_config, engine=EngineConfig(train="reference", eval="reference"))
        ref = run_experiment(ref_cfg, tiny_dataset, n_labeling=10)
        fused = run_experiment(tiny_config, tiny_dataset, n_labeling=10)
        assert ref.accuracy == fused.accuracy
        assert np.array_equal(ref.evaluation.predictions, fused.evaluation.predictions)
        assert np.array_equal(ref.conductances, fused.conductances)


class TestEngineConfig:
    def test_defaults(self):
        cfg = EngineConfig()
        assert cfg.train == "fused" and cfg.eval == "fused"

    def test_unknown_train_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            EngineConfig(train="warp")

    def test_unknown_eval_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown engine"):
            EngineConfig(eval="warp")

    def test_non_learning_train_engine_rejected(self):
        with pytest.raises(ConfigurationError, match="does not support learning"):
            EngineConfig(train="batched")

    def test_batched_eval_engine_allowed(self):
        assert EngineConfig(eval="batched").eval == "batched"
