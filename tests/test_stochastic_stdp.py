"""Tests for the stochastic STDP rule (eqs. 6-7)."""

import numpy as np
import pytest

from repro.config.parameters import (
    DeterministicSTDPParameters,
    StochasticSTDPParameters,
)
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.synapses.conductance import ConductanceMatrix
from repro.synapses.traces import SpikeTimers


def setup(n_pre=6, n_post=2, g0=0.5, seed=0):
    rng = np.random.default_rng(seed)
    g = ConductanceMatrix(n_pre, n_post, g_init_low=g0, g_init_high=g0, rng=rng)
    timers = SpikeTimers(n_pre, n_post)
    return g, timers, rng


class TestEventGating:
    def test_no_spikes_no_update(self):
        g, timers, rng = setup()
        rule = StochasticSTDP()
        before = g.g.copy()
        rule.step(g, timers, np.zeros(6, bool), np.zeros(2, bool), 5.0, rng)
        assert np.array_equal(g.g, before)

    def test_certain_potentiation_at_dt_zero_gamma_one(self):
        g, timers, rng = setup()
        rule = StochasticSTDP(
            StochasticSTDPParameters(gamma_pot=1.0, tau_pot_ms=1e9, gamma_dep=0.001)
        )
        timers.record_pre(np.ones(6, bool), 10.0)
        before = g.g.copy()
        rule.step(g, timers, np.zeros(6, bool), np.array([True, False]), 10.0, rng)
        assert (g.g[:, 0] > before[:, 0]).all()

    def test_stale_pre_is_never_potentiated(self):
        """A channel that never spiked has P_pot = 0 exactly."""
        g, timers, rng = setup()
        rule = StochasticSTDP(
            StochasticSTDPParameters(gamma_pot=1.0, gamma_dep=0.001, tau_dep_post_ms=1e12)
        )
        before = g.g.copy()
        for t in range(200):
            rule.step(g, timers, np.zeros(6, bool), np.array([True, True]), float(t), rng)
        assert not (g.g > before).any()

    def test_silent_channels_depress_at_gamma_dep_rate(self):
        g, timers, rng = setup()
        rule = StochasticSTDP(StochasticSTDPParameters(gamma_pot=0.9, gamma_dep=1.0))
        before = g.g.copy()
        rule.step(g, timers, np.zeros(6, bool), np.array([True, False]), 10.0, rng)
        # Never-spiked channels: P_dep saturates at gamma_dep = 1 -> all drop.
        assert (g.g[:, 0] < before[:, 0]).all()

    def test_statistical_rate_matches_probability(self):
        """Over many post spikes, the fraction of potentiation events ~= P_pot."""
        gamma = 0.4
        params = StochasticSTDPParameters(gamma_pot=gamma, tau_pot_ms=1e9, gamma_dep=0.001)
        rule = StochasticSTDP(params)
        g, timers, rng = setup(n_pre=400, g0=0.5)
        timers.record_pre(np.ones(400, bool), 0.0)
        before = g.g.copy()
        rule.step(g, timers, np.zeros(400, bool), np.array([True, False]), 0.0, rng)
        frac_potentiated = np.mean(g.g[:, 0] > before[:, 0])
        assert frac_potentiated == pytest.approx(gamma, abs=0.08)

    def test_pot_and_dep_mutually_exclusive_per_event(self):
        params = StochasticSTDPParameters(gamma_pot=1.0, tau_pot_ms=1e9, gamma_dep=1.0)
        rule = StochasticSTDP(params)
        g, timers, rng = setup()
        timers.record_pre(np.ones(6, bool), 0.0)
        before = g.g.copy()
        rule.step(g, timers, np.zeros(6, bool), np.array([True, False]), 0.0, rng)
        # P_pot = 1 for everything, so nothing may depress.
        assert (g.g[:, 0] >= before[:, 0]).all()


class TestLTDModes:
    def test_pair_mode_depresses_on_post_then_pre(self):
        params = StochasticSTDPParameters(
            gamma_pot=0.001, gamma_dep=1.0, tau_dep_ms=1e9, ltd_mode=LTDMode.PAIR
        )
        rule = StochasticSTDP(params)
        g, timers, rng = setup()
        timers.record_post(np.array([True, False]), 10.0)
        before = g.g.copy()
        # Pre spike at t=12 following post at t=10 -> depression of column 0.
        rule.step(g, timers, np.array([True, False, False, False, False, False]),
                  np.zeros(2, bool), 12.0, rng)
        assert g.g[0, 0] < before[0, 0]
        assert g.g[0, 1] == before[0, 1]  # post 1 never fired -> P_dep = 0

    def test_pair_mode_skips_post_event_depression(self):
        params = StochasticSTDPParameters(gamma_pot=0.001, gamma_dep=1.0, ltd_mode=LTDMode.PAIR)
        rule = StochasticSTDP(params)
        g, timers, rng = setup()
        before = g.g.copy()
        # Post spike with silent afferents: POST_EVENT would depress, PAIR not.
        rule.step(g, timers, np.zeros(6, bool), np.array([True, True]), 5.0, rng)
        assert np.array_equal(g.g, before)

    def test_both_mode_runs_both(self):
        params = StochasticSTDPParameters(
            gamma_pot=0.001, gamma_dep=1.0, tau_dep_ms=1e9, ltd_mode=LTDMode.BOTH
        )
        rule = StochasticSTDP(params)
        g, timers, rng = setup()
        timers.record_post(np.array([True, True]), 10.0)
        before = g.g.copy()
        rule.step(g, timers, np.array([True] + [False] * 5), np.array([True, False]), 12.0, rng)
        assert (g.g <= before).all()
        assert (g.g < before).any()


class TestReproducibility:
    def test_same_rng_same_trajectory(self):
        results = []
        for _ in range(2):
            g, timers, _ = setup(seed=3)
            rng = np.random.default_rng(42)
            rule = StochasticSTDP()
            timers.record_pre(np.ones(6, bool), 0.0)
            for t in range(20):
                rule.step(g, timers, np.zeros(6, bool), np.array([True, True]), float(t), rng)
            results.append(g.g.copy())
        assert np.array_equal(results[0], results[1])

    def test_uses_eq45_magnitudes(self):
        magnitudes = DeterministicSTDPParameters(alpha_p=0.2, beta_p=0.0)
        params = StochasticSTDPParameters(gamma_pot=1.0, tau_pot_ms=1e9, gamma_dep=0.001)
        rule = StochasticSTDP(params, magnitudes)
        g, timers, rng = setup(g0=0.3)
        timers.record_pre(np.ones(6, bool), 0.0)
        rule.step(g, timers, np.zeros(6, bool), np.array([True, False]), 0.0, rng)
        # beta_p = 0 -> magnitude exactly alpha_p regardless of G.
        assert np.allclose(g.g[:, 0], 0.5)
