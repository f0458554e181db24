"""Tests for the analysis/reporting modules."""

import numpy as np
import pytest

from repro.analysis.accuracy import (
    accuracy_score,
    confusion_matrix,
    moving_error_rate,
    per_class_accuracy,
)
from repro.analysis.conductance_maps import (
    ascii_map,
    map_contrast,
    neuron_maps,
    population_selectivity,
)
from repro.analysis.distributions import (
    conductance_histogram,
    distribution_entropy,
    saturation_fractions,
)
from repro.analysis.rasters import ascii_raster, mean_rate_hz, spike_density
from repro.analysis.report import format_table
from repro.analysis.runtime import simulated_learning_minutes, time_callable
from repro.errors import LabelingError, ReproError, SimulationError, TopologyError


class TestAccuracy:
    def test_accuracy_score(self):
        assert accuracy_score([0, 1, 2], [0, 1, 1]) == pytest.approx(2 / 3)
        assert accuracy_score([], []) == 0.0

    def test_confusion_matrix(self):
        cm = confusion_matrix([0, 0, 1], [0, 1, 1], 2)
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1

    def test_confusion_unlabeled_column(self):
        cm = confusion_matrix([0], [-1], 2)
        assert cm[0, 2] == 1

    def test_per_class_accuracy(self):
        acc = per_class_accuracy([0, 0, 1], [0, 1, 1], 2)
        assert acc[0] == pytest.approx(0.5)
        assert acc[1] == pytest.approx(1.0)

    def test_per_class_nan_for_absent(self):
        acc = per_class_accuracy([0], [0], 3)
        assert np.isnan(acc[2])

    def test_moving_error_rate(self):
        flags = [True] * 10 + [False] * 10
        positions, errors = moving_error_rate(flags, window=5)
        assert errors[4] == 0.0
        assert errors[-1] == 1.0
        assert len(positions) == 20

    def test_moving_error_start_truncated(self):
        _, errors = moving_error_rate([False, True], window=10)
        assert errors[0] == 1.0
        assert errors[1] == 0.5

    def test_moving_error_validation(self):
        with pytest.raises(LabelingError):
            moving_error_rate([True], window=0)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(LabelingError):
            accuracy_score([0, 1], [0])


class TestConductanceMaps:
    def test_neuron_maps_reshape(self):
        g = np.arange(8).reshape(4, 2).astype(float)
        maps = neuron_maps(g)
        assert maps.shape == (2, 2, 2)
        assert np.array_equal(maps[0], g[:, 0].reshape(2, 2))

    def test_non_square_rejected(self):
        with pytest.raises(TopologyError):
            neuron_maps(np.zeros((5, 2)))

    def test_contrast_flat_is_zero(self):
        g = np.full((16, 3), 0.5)
        assert np.allclose(map_contrast(g), 0.0)

    def test_contrast_binary_is_high(self):
        g = np.zeros((16, 1))
        g[:4] = 1.0
        assert map_contrast(g)[0] > 0.9

    def test_selectivity_identical_maps_zero(self):
        g = np.tile(np.random.default_rng(0).random(16)[:, None], (1, 5))
        assert population_selectivity(g) == pytest.approx(0.0, abs=1e-9)

    def test_selectivity_orthogonal_maps_high(self):
        g = np.eye(4)
        assert population_selectivity(g) == pytest.approx(1.0)

    def test_selectivity_ignores_dead_neurons(self):
        g = np.zeros((4, 3))
        g[0, 0] = 1.0
        g[1, 1] = 1.0
        assert population_selectivity(g) == pytest.approx(1.0)

    def test_ascii_map_renders(self):
        art = ascii_map(np.array([[0.0, 1.0], [0.5, 0.25]]), g_max=1.0)
        lines = art.split("\n")
        assert len(lines) == 2
        assert lines[0][0] == " "  # zero -> darkest glyph
        assert lines[0][1] == "@"  # max -> brightest glyph


class TestDistributions:
    def test_histogram_fractions_sum_to_one(self):
        edges, fractions = conductance_histogram(np.random.default_rng(0).random(100))
        assert fractions.sum() == pytest.approx(1.0)
        assert len(edges) == len(fractions) + 1

    def test_saturation_fractions(self):
        g = np.array([0.0, 0.0, 0.5, 1.0])
        out = saturation_fractions(g)
        assert out["at_min"] == pytest.approx(0.5)
        assert out["at_max"] == pytest.approx(0.25)
        assert out["interior"] == pytest.approx(0.25)

    def test_entropy_collapsed_is_zero(self):
        assert distribution_entropy(np.zeros(50)) == 0.0

    def test_entropy_spread_is_positive(self):
        g = np.linspace(0, 1, 256)
        assert distribution_entropy(g, bins=16) == pytest.approx(4.0, abs=0.1)

    def test_empty_rejected(self):
        with pytest.raises(TopologyError):
            saturation_fractions(np.array([]))


class TestRasters:
    def test_spike_density(self):
        raster = np.zeros((10, 4), dtype=bool)
        raster[0, 0] = raster[5, 0] = True
        counts, density = spike_density(raster)
        assert counts[0] == 2
        assert density == pytest.approx(2 / 40)

    def test_mean_rate(self):
        raster = np.zeros((1000, 2), dtype=bool)
        raster[::100, :] = True  # 10 spikes per channel per second
        assert mean_rate_hz(raster, dt_ms=1.0) == pytest.approx(10.0)

    def test_ascii_raster_marks_spikes(self):
        raster = np.zeros((10, 3), dtype=bool)
        raster[2, 1] = True
        art = ascii_raster(raster)
        assert "|" in art.split("\n")[1]

    def test_bad_raster_rejected(self):
        with pytest.raises(SimulationError):
            spike_density(np.zeros(5, dtype=bool))


class TestRuntime:
    def test_time_callable(self):
        assert time_callable(lambda: sum(range(1000)), repeats=2) >= 0.0

    def test_time_callable_needs_one_repeat(self):
        calls = []
        with pytest.raises(SimulationError, match="repeats"):
            time_callable(lambda: calls.append(1), repeats=0)
        assert calls == []

    def test_simulated_learning_minutes_paper_number(self):
        # 60k images at 500 ms/image ~= 500 minutes (cf. 542 min in IV-C).
        assert simulated_learning_minutes(60_000, 500.0) == pytest.approx(500.0)

    def test_simulated_learning_minutes_counts_rest_and_rejects_negative_counts(self):
        assert simulated_learning_minutes(600, 80.0, 20.0) == pytest.approx(1.0)
        with pytest.raises(SimulationError, match="n_images"):
            simulated_learning_minutes(-1, 500.0)


class TestReport:
    def test_format_table_basic(self):
        text = format_table(["name", "acc"], [["a", 0.5], ["b", 0.25]], title="T")
        assert "### T" in text
        assert "| a" in text
        assert "0.500" in text

    def test_row_width_checked(self):
        with pytest.raises(ReproError):
            format_table(["a", "b"], [["only-one"]])

    def test_bool_rendering(self):
        text = format_table(["flag"], [[True], [False]])
        assert "yes" in text and "no" in text

    def test_empty_headers_rejected(self):
        with pytest.raises(ReproError):
            format_table([], [])
