"""Tests for the Fig. 3 WTA network."""

import numpy as np
import pytest
from dataclasses import replace

from repro.config.parameters import STDPKind
from repro.errors import TopologyError
from repro.learning.deterministic import DeterministicSTDP
from repro.learning.stochastic import StochasticSTDP
from repro.network.wta import WTANetwork, recommended_amplitude


def make_net(tiny_config, n_pixels=64, **config_overrides):
    cfg = replace(tiny_config, **config_overrides) if config_overrides else tiny_config
    return WTANetwork(cfg, n_pixels)


def run_image(net, image, steps=60, t0=0.0):
    net.present_image(image)
    counts = np.zeros(net.config.wta.n_neurons, dtype=int)
    input_total = 0
    for i in range(steps):
        result = net.advance(t0 + i, 1.0)
        counts += result.spikes["output"]
        input_total += result.spikes["input"].sum()
    return counts, input_total


class TestConstruction:
    def test_shapes(self, tiny_config):
        net = make_net(tiny_config)
        assert net.conductances.shape == (64, 8)

    def test_rule_selected_by_kind(self, tiny_config):
        assert isinstance(make_net(tiny_config).rule, StochasticSTDP)
        det_cfg = replace(tiny_config, stdp_kind=STDPKind.DETERMINISTIC)
        assert isinstance(WTANetwork(det_cfg, 64).rule, DeterministicSTDP)

    def test_amplitude_scaling(self):
        assert recommended_amplitude(256) == pytest.approx(0.3)
        assert recommended_amplitude(64) == pytest.approx(1.2)
        with pytest.raises(TopologyError):
            recommended_amplitude(0)

    def test_bad_pixels_rejected(self, tiny_config):
        with pytest.raises(TopologyError):
            WTANetwork(tiny_config, 0)


class TestDynamics:
    def test_bright_image_drives_spikes(self, tiny_config):
        net = make_net(tiny_config)
        img = np.full((8, 8), 255, dtype=np.uint8)
        counts, input_total = run_image(net, img, steps=200)
        assert input_total > 0
        assert counts.sum() > 0

    def test_no_image_no_activity(self, tiny_config):
        net = make_net(tiny_config)
        counts, input_total = run_image(net, np.zeros((8, 8), dtype=np.uint8), steps=50)
        net.rest()
        result = net.advance(1000.0, 1.0)
        assert not result.spikes["input"].any()

    def test_single_winner_per_step(self, tiny_config):
        net = make_net(tiny_config)
        img = np.full((8, 8), 255, dtype=np.uint8)
        net.present_image(img)
        for t in range(300):
            result = net.advance(float(t), 1.0)
            assert result.spikes["output"].sum() <= 1

    def test_multi_winner_allowed_when_disabled(self, tiny_config):
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, single_winner=False, t_inh_ms=0.0))
        net = WTANetwork(cfg, 64)
        img = np.full((8, 8), 255, dtype=np.uint8)
        net.present_image(img)
        max_simultaneous = 0
        for t in range(300):
            result = net.advance(float(t), 1.0)
            max_simultaneous = max(max_simultaneous, int(result.spikes["output"].sum()))
        assert max_simultaneous > 1

    def test_learning_changes_conductances(self, tiny_config):
        net = make_net(tiny_config)
        before = net.conductances.copy()
        img = np.full((8, 8), 255, dtype=np.uint8)
        run_image(net, img, steps=300)
        assert not np.array_equal(net.conductances, before)

    def test_freeze_stops_learning(self, tiny_config):
        net = make_net(tiny_config)
        net.freeze()
        before = net.conductances.copy()
        run_image(net, np.full((8, 8), 255, dtype=np.uint8), steps=300)
        assert np.array_equal(net.conductances, before)

    def test_evaluation_mode_restores_learning(self, tiny_config):
        net = make_net(tiny_config)
        adaptation = net.neurons.adaptation
        with net.evaluation_mode() as frozen:
            assert not frozen.learning_enabled
        assert net.learning_enabled
        assert net.neurons.adaptation == adaptation

    def test_rest_clears_fast_state_keeps_weights(self, tiny_config):
        net = make_net(tiny_config)
        run_image(net, np.full((8, 8), 255, dtype=np.uint8), steps=100)
        g = net.conductances.copy()
        net.rest()
        assert np.array_equal(net.conductances, g)
        assert np.all(net.timers.last_pre == -np.inf)
        assert np.allclose(net._current, 0.0)

    def test_seeded_runs_reproduce(self, tiny_config, tiny_dataset):
        counts = []
        for _ in range(2):
            net = WTANetwork(tiny_config, 64)
            c, _ = run_image(net, tiny_dataset.train_images[0], steps=100)
            counts.append(c)
        assert np.array_equal(counts[0], counts[1])


class TestDrive:
    def test_drive_sums_active_rows_in_row_order(self, tiny_config):
        """Eq. 3 adds the active input rows one after another, in row order,
        exactly as the gather kernels do.  Off-grid float64 conductances
        make the order visible: a BLAS ``vec @ matrix`` groups the 34
        additions differently and disagrees in some of the 1000 columns."""
        cfg = replace(tiny_config, wta=replace(tiny_config.wta, n_neurons=1000))
        net = WTANetwork(cfg, 784)
        rng = np.random.default_rng(11)
        net.synapses.g[:] = rng.random(net.synapses.g.shape)
        spikes = np.zeros(784, dtype=bool)
        rows = np.sort(rng.choice(784, size=34, replace=False))
        spikes[rows] = True

        net.drive(spikes, 1.0)  # from rest: the decayed current is exactly 0.0

        expected = np.add.reduce(net.synapses.g[rows], axis=0) * net.amplitude
        assert np.array_equal(net._current, expected)
