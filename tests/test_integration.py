"""Integration tests: the full unsupervised pipeline, small but real.

These are the slowest tests in the suite (a few seconds each); they verify
that the pieces compose into a system that actually learns, at a scale far
below the benchmarks.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import SimulationParameters, STDPKind
from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.learning.stochastic import LTDMode
from repro.pipeline.experiment import run_experiment


def scaled_config(preset="float32", kind=STDPKind.STOCHASTIC, n_neurons=15, seed=0,
                  t_learn_ms=500.0):
    cfg = get_preset(preset, stdp_kind=kind, n_neurons=n_neurons, seed=seed)
    return replace(
        cfg,
        simulation=SimulationParameters(dt_ms=1.0, t_learn_ms=t_learn_ms, t_rest_ms=10.0, seed=seed),
    )


@pytest.fixture(scope="module")
def mnist_small():
    return load_dataset("mnist", n_train=150, n_test=50, size=16, seed=11)


class TestEndToEndLearning:
    def test_stochastic_learns_above_chance(self, mnist_small):
        """With 150 images and 15 neurons, accuracy must clearly beat 10 %."""
        result = run_experiment(scaled_config(), mnist_small, n_labeling=20)
        assert result.accuracy > 0.2

    def test_deterministic_pipeline_runs(self, mnist_small):
        result = run_experiment(
            scaled_config(kind=STDPKind.DETERMINISTIC, t_learn_ms=150.0), mnist_small, n_labeling=20
        )
        assert 0.0 <= result.accuracy <= 1.0
        assert result.evaluation.labeled_fraction > 0.0

    def test_fixed_point_learning_stays_on_grid(self, mnist_small):
        cfg = scaled_config(preset="4bit", t_learn_ms=150.0)
        result = run_experiment(cfg, mnist_small, n_labeling=20)
        g = result.conductances
        scaled = g * 16  # Q0.4 resolution = 1/16
        assert np.allclose(scaled, np.round(scaled), atol=1e-9)
        assert g.min() >= 0.0
        assert g.max() <= 15 / 16 + 1e-9

    def test_pair_ltd_mode_runs(self, mnist_small):
        cfg = scaled_config(t_learn_ms=150.0)
        cfg = replace(cfg, stochastic_stdp=replace(cfg.stochastic_stdp, ltd_mode=LTDMode.PAIR))
        result = run_experiment(cfg, mnist_small, n_labeling=20)
        assert 0.0 <= result.accuracy <= 1.0

    def test_same_seed_reproduces_accuracy(self, mnist_small):
        a = run_experiment(scaled_config(seed=4, t_learn_ms=150.0), mnist_small, n_labeling=20)
        b = run_experiment(scaled_config(seed=4, t_learn_ms=150.0), mnist_small, n_labeling=20)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.conductances, b.conductances)

    def test_learned_maps_have_contrast(self, mnist_small):
        from repro.analysis.conductance_maps import map_contrast

        result = run_experiment(scaled_config(), mnist_small, n_labeling=20)
        assert map_contrast(result.conductances).mean() > 0.2
