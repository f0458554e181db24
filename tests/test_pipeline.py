"""Tests for trainer, evaluator, experiment runner and progress."""

import io
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import SimulationError
from repro.learning.homeostasis import WeightNormalizer
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.experiment import build_network, run_experiment
from repro.pipeline.progress import NullProgress, PrintProgress
from repro.pipeline.trainer import UnsupervisedTrainer


class TestTrainer:
    def test_training_log_bookkeeping(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        trainer = UnsupervisedTrainer(net)
        log = trainer.train(tiny_dataset.train_images[:4])
        assert log.images_seen == 4
        assert log.simulated_ms == pytest.approx(4 * (50.0 + 5.0))
        assert len(log.spikes_per_image) == 4
        assert log.wall_seconds > 0

    def test_epochs_multiply_presentations(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        log = UnsupervisedTrainer(net).train(tiny_dataset.train_images[:3], epochs=2)
        assert log.images_seen == 6

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_non_positive_epochs_rejected(self, tiny_config, tiny_dataset, epochs):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(SimulationError, match="epochs must be >= 1"):
            UnsupervisedTrainer(net).train(tiny_dataset.train_images[:3], epochs=epochs)

    def test_on_image_end_hook(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        seen = []
        UnsupervisedTrainer(net).train(
            tiny_dataset.train_images[:3], on_image_end=lambda i, log: seen.append(i)
        )
        assert seen == [0, 1, 2]

    def test_normalizer_invoked(self, tiny_config, tiny_dataset):
        """Normalisation runs at every image boundary: each boundary leaves
        every column summing to the normaliser's target, which training
        alone does not."""

        def column_sums(normalizer):
            net = WTANetwork(tiny_config, 64)
            sums = []
            UnsupervisedTrainer(net, normalizer=normalizer).train(
                tiny_dataset.train_images[:3],
                on_image_end=lambda _i, _log: sums.append(net.conductances.sum(axis=0)),
            )
            return net, sums

        norm = WeightNormalizer(period_images=1)
        net, sums = column_sums(norm)
        target = norm.target_sum(net.synapses)
        assert len(sums) == 3
        for boundary in sums:
            np.testing.assert_allclose(boundary, target, rtol=1e-12)
        _, unnormalised = column_sums(WeightNormalizer(enabled=False))
        assert not np.allclose(unnormalised[-1], target, rtol=1e-6)

    def test_weights_change_during_training(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        before = net.conductances.copy()
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:5])
        assert not np.array_equal(net.conductances, before)


class TestEvaluator:
    def test_collect_responses_shape(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        ev = Evaluator(net, n_classes=10, t_present_ms=30.0)
        responses = ev.collect_responses(tiny_dataset.test_images[:4])
        assert responses.shape == (4, 8)
        assert (responses >= 0).all()

    def test_responses_do_not_mutate_weights(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        before = net.conductances.copy()
        Evaluator(net, t_present_ms=30.0).collect_responses(tiny_dataset.test_images[:4])
        assert np.array_equal(net.conductances, before)
        assert net.learning_enabled  # restored

    def test_full_protocol(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images)
        ev = Evaluator(net, n_classes=10, t_present_ms=50.0)
        result = ev.evaluate(
            tiny_dataset.test_images[:10],
            tiny_dataset.test_labels[:10],
            tiny_dataset.test_images[10:],
            tiny_dataset.test_labels[10:],
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.predictions.shape == (10,)
        assert result.confusion.shape == (10, 11)
        assert result.confusion.sum() == 10
        assert 0.0 <= result.labeled_fraction <= 1.0
        assert result.error_rate == pytest.approx(1.0 - result.accuracy)


class TestRunExperiment:
    def test_end_to_end(self, tiny_config, tiny_dataset):
        result = run_experiment(tiny_config, tiny_dataset, n_labeling=10)
        assert 0.0 <= result.accuracy <= 1.0
        assert result.conductances.shape == (64, 8)
        assert result.training.images_seen == 20
        row = result.summary_row()
        assert row[0] == tiny_config.name

    def test_moving_error_tracking(self, tiny_config, tiny_dataset):
        result = run_experiment(
            tiny_config,
            tiny_dataset,
            n_labeling=10,
            track_moving_error=True,
            probe_every=10,
            probe_size=5,
        )
        assert result.moving_error is not None
        positions, errors = result.moving_error
        assert len(positions) == 2  # images 10 and 20
        assert ((errors >= 0) & (errors <= 1)).all()

    def test_build_network_seeded(self, tiny_config):
        a = build_network(tiny_config, 64)
        b = build_network(tiny_config, 64)
        assert np.array_equal(a.conductances, b.conductances)

    def test_seed_changes_outcome(self, tiny_config):
        other = replace(tiny_config, simulation=replace(tiny_config.simulation, seed=9))
        a = build_network(tiny_config, 64)
        b = build_network(other, 64)
        assert not np.array_equal(a.conductances, b.conductances)


class TestProgress:
    def test_null_progress_is_silent(self):
        p = NullProgress()
        p.start(10, "x")
        p.update(5)
        p.finish()

    def test_print_progress_output(self):
        stream = io.StringIO()
        p = PrintProgress(every=2, stream=stream)
        p.start(4, "train")
        p.update(1)
        p.update(2, "note")
        p.finish()
        text = stream.getvalue()
        assert "train" in text
        assert "2/4" in text
        assert "note" in text
        assert "1/4" not in text  # off-cadence update suppressed

    def test_print_progress_validation(self):
        with pytest.raises(ValueError):
            PrintProgress(every=0)
