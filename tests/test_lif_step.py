"""The one Euler LIF step (eqs. 1-2), checked neuron by neuron.

Every engine runs :meth:`LIFPopulation.step`: the WTA network through
:class:`AdaptiveLIFPopulation`, which calls it unchanged against the raised
threshold ``v_threshold + theta`` and then updates ``theta``.  Here a scalar
transcription of the equations, one neuron at a time in plain Python
floats, must reproduce the population's spikes, membranes, timers and
thresholds bit for bit under every regime the step branches on: hard or
subtractive inhibition, refractory periods, step sizes and adaptive
thresholds.  A second transcription of :meth:`WTANetwork.advance` with
plasticity off (eq. 3's row-order drive, the current low-pass, the
conductance driving force, single-winner ties and the inhibition relay)
checks the network step the same way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List, Optional

import numpy as np
import pytest

from repro.config.parameters import AdaptiveThresholdParameters, LIFParameters
from repro.config.presets import get_preset
from repro.network.wta import StepResult, WTANetwork
from repro.neurons.adaptive_lif import AdaptiveLIFPopulation
from repro.neurons.lif import LIFPopulation


class ScalarNeuron:
    """One LIF neuron with scalar state; eqs. 1-2 spelled out step by step."""

    def __init__(
        self,
        params: LIFParameters,
        inhibition_strength: float = 0.0,
        adaptation: Optional[AdaptiveThresholdParameters] = None,
    ) -> None:
        self.params = params
        self.inhibition_strength = inhibition_strength
        self.adaptation = adaptation
        self.v = params.v_init
        self.refractory_left = 0.0
        self.inhibited_left = 0.0
        self.theta = 0.0

    def inhibit(self, duration_ms: float) -> None:
        self.inhibited_left = max(self.inhibited_left, duration_ms)

    def step(self, current: float, dt_ms: float) -> bool:
        p = self.params
        inhibited = self.inhibited_left > 0.0
        if self.inhibition_strength > 0.0:
            blocked = self.refractory_left > 0.0
            effective_current = 0.0 if blocked else current
            if inhibited:
                effective_current -= self.inhibition_strength
        else:
            blocked = self.refractory_left > 0.0 or inhibited
            effective_current = 0.0 if blocked else current

        self.v += (p.a + p.b * self.v + p.c * effective_current) * dt_ms
        if blocked:
            self.v = p.v_reset
        self.v = max(self.v, p.v_reset)

        spiked = not blocked and self.v >= p.v_threshold + self.theta
        if spiked:
            self.v = p.v_reset
            self.refractory_left = p.refractory_ms
        self.refractory_left = max(self.refractory_left - dt_ms, 0.0)
        self.inhibited_left = max(self.inhibited_left - dt_ms, 0.0)

        if self.adaptation is not None and self.adaptation.enabled:
            self.theta *= float(np.exp(-dt_ms / self.adaptation.tau_ms))
            if spiked:
                self.theta += self.adaptation.theta_plus
        return spiked


def assert_same_state(population: LIFPopulation, neurons: List[ScalarNeuron]) -> None:
    assert population.v.tolist() == [n.v for n in neurons]
    assert population.refractory_left.tolist() == [n.refractory_left for n in neurons]
    assert population.inhibited.tolist() == [n.inhibited_left > 0.0 for n in neurons]
    if isinstance(population, AdaptiveLIFPopulation):
        assert population.theta.tolist() == [n.theta for n in neurons]


def random_drive(rng: np.random.Generator, n: int) -> np.ndarray:
    """Per-neuron currents mixing silence, sub- and supra-threshold drive."""
    current = rng.uniform(0.0, 30.0, size=n)
    current[rng.random(n) < 0.3] = 0.0
    current[rng.random(n) < 0.2] *= 0.05
    return current


def run_against_oracle(
    population: LIFPopulation,
    neurons: List[ScalarNeuron],
    dt_ms: float,
    steps: int,
    t_inh_ms: float = 3.0,
    seed: int = 0,
) -> dict:
    """Step both with the same drive and WTA-style inhibition (every
    non-spiking neuron is inhibited after a step with a spike); return
    activity counts so callers can check the regime was exercised."""
    rng = np.random.default_rng(seed)
    counts = {"spikes": 0, "inhibited_steps": 0, "inhibited_spikes": 0, "refractory_steps": 0}
    for _ in range(steps):
        current = random_drive(rng, population.n)
        was_inhibited = population.inhibited.copy()
        counts["inhibited_steps"] += int(was_inhibited.sum())
        counts["refractory_steps"] += int((population.refractory_left > 0.0).sum())
        spikes = population.step(current, dt_ms)
        expected = [n.step(float(i), dt_ms) for n, i in zip(neurons, current)]
        assert spikes.tolist() == expected
        assert_same_state(population, neurons)
        counts["spikes"] += int(spikes.sum())
        counts["inhibited_spikes"] += int((spikes & was_inhibited).sum())
        if spikes.any():
            population.inhibit(~spikes, t_inh_ms)
            for neuron, spiked in zip(neurons, spikes):
                if not spiked:
                    neuron.inhibit(t_inh_ms)
    return counts


STRENGTHS = [0.0, 5.0]
REFRACTORY = [0.0, 2.0, 5.0]
STEP_SIZES = [0.5, 1.0]


class TestPopulationAgainstScalarOracle:
    @pytest.mark.parametrize("dt_ms", STEP_SIZES)
    @pytest.mark.parametrize("refractory_ms", REFRACTORY)
    @pytest.mark.parametrize("strength", STRENGTHS)
    def test_lif_step_matches(self, strength, refractory_ms, dt_ms):
        params = LIFParameters(refractory_ms=refractory_ms)
        population = LIFPopulation(8, params, inhibition_strength=strength)
        neurons = [ScalarNeuron(params, strength) for _ in range(8)]
        counts = run_against_oracle(population, neurons, dt_ms, steps=300)
        assert counts["spikes"] > 0
        assert counts["inhibited_steps"] > 0
        assert (counts["refractory_steps"] > 0) == (refractory_ms > dt_ms)
        if strength == 0.0:
            # Hard inhibition blocks outright: no inhibited neuron fires.
            assert counts["inhibited_spikes"] == 0

    @pytest.mark.parametrize("dt_ms", STEP_SIZES)
    @pytest.mark.parametrize("refractory_ms", REFRACTORY)
    @pytest.mark.parametrize("strength", STRENGTHS)
    def test_adaptive_step_matches(self, strength, refractory_ms, dt_ms):
        params = LIFParameters(refractory_ms=refractory_ms)
        # A fast, strong adaptation so theta visibly changes who fires.
        adaptation = AdaptiveThresholdParameters(theta_plus=0.8, tau_ms=40.0)
        population = AdaptiveLIFPopulation(
            8, params, adaptation, inhibition_strength=strength
        )
        neurons = [ScalarNeuron(params, strength, adaptation) for _ in range(8)]
        counts = run_against_oracle(population, neurons, dt_ms, steps=300, seed=1)
        assert counts["spikes"] > 0
        assert population.theta.max() > 0.0

    def test_subtractive_inhibition_lets_strong_drive_through(self):
        params = LIFParameters()
        population = LIFPopulation(1, params, inhibition_strength=5.0)
        neuron = ScalarNeuron(params, 5.0)
        population.inhibit(np.array([True]), 50.0)
        neuron.inhibit(50.0)
        fired = 0
        for _ in range(100):
            spiked = bool(population.step(np.array([20.0]), 1.0)[0])
            assert spiked == neuron.step(20.0, 1.0)
            assert population.v[0] == neuron.v
            fired += spiked
        assert fired > 0

    def test_single_neuron_random_currents(self):
        params = LIFParameters()
        population = LIFPopulation(1, params)
        neuron = ScalarNeuron(params)
        rng = np.random.default_rng(0)
        for _ in range(500):
            current = float(rng.uniform(0.0, 30.0))
            assert bool(population.step(np.array([current]), 1.0)[0]) == neuron.step(current, 1.0)
            assert population.v[0] == neuron.v

    def test_inhibition_cannot_push_membrane_below_reset(self):
        params = LIFParameters()
        population = LIFPopulation(3, params, inhibition_strength=1000.0)
        population.inhibit(np.ones(3, dtype=bool), 20.0)
        for _ in range(20):
            assert not population.step(np.full(3, 30.0), 1.0).any()
            assert np.all(population.v == params.v_reset)


class TestOneStepForBothPopulations:
    @pytest.mark.parametrize("strength", STRENGTHS)
    def test_adaptive_without_adaptation_is_the_lif_step(self, strength):
        params = LIFParameters()
        off = AdaptiveThresholdParameters(enabled=False)
        adaptive = AdaptiveLIFPopulation(6, params, off, inhibition_strength=strength)
        plain = LIFPopulation(6, params, inhibition_strength=strength)
        rng = np.random.default_rng(5)
        total = 0
        for _ in range(400):
            current = random_drive(rng, 6)
            spikes = adaptive.step(current, 1.0)
            assert np.array_equal(spikes, plain.step(current, 1.0))
            assert np.array_equal(adaptive.v, plain.v)
            total += int(spikes.sum())
            if spikes.any():
                adaptive.inhibit(~spikes, 4.0)
                plain.inhibit(~spikes, 4.0)
        assert total > 0
        assert np.all(adaptive.theta == 0.0)

    def test_raised_threshold_suppresses_a_spike(self):
        params = LIFParameters(refractory_ms=0.0)
        adaptive = AdaptiveLIFPopulation(2, params, AdaptiveThresholdParameters(theta_plus=0.0))
        adaptive.theta[1] = 100.0
        spikes = np.zeros(2, dtype=int)
        for _ in range(50):
            spikes += adaptive.step(np.full(2, 25.0), 1.0)
        assert spikes[0] > 0 and spikes[1] == 0

    @pytest.mark.parametrize("cls", [LIFPopulation, AdaptiveLIFPopulation])
    def test_relax_drops_timers_and_membranes(self, cls):
        population = cls(4, LIFParameters(refractory_ms=5.0))
        population.step(np.full(4, 200.0), 1.0)
        population.inhibit(np.ones(4, dtype=bool), 10.0)
        population.relax()
        assert np.all(population.v == population.params.v_init)
        assert np.all(population.refractory_left == 0.0)
        assert not population.inhibited.any()


def network_config(preset, synapse_model, single_winner, inhibition_strength, current_tau_ms):
    cfg = get_preset(preset, n_neurons=10, seed=3)
    return replace(
        cfg,
        wta=replace(
            cfg.wta,
            synapse_model=synapse_model,
            single_winner=single_winner,
            inhibition_strength=inhibition_strength,
            current_tau_ms=current_tau_ms,
        ),
    )


class ScalarWTA:
    """WTANetwork.advance with plasticity off, one neuron at a time."""

    def __init__(self, net: WTANetwork) -> None:
        wta = net.config.wta
        adaptation = net.neurons.adaptation
        self.g = net.synapses.g.tolist()
        self.amplitude = net.amplitude
        self.wta = wta
        self.denom = wta.e_excitatory - net.config.lif.v_reset
        if wta.current_tau_ms > 0.0:
            self.decay = float(np.exp(-net.config.simulation.dt_ms / wta.current_tau_ms))
        self.neurons = [
            ScalarNeuron(net.config.lif, wta.inhibition_strength, adaptation)
            for _ in range(wta.n_neurons)
        ]
        self.current = [0.0] * wta.n_neurons

    def step(self, input_spikes: np.ndarray, dt_ms: float) -> List[bool]:
        rows = [i for i, s in enumerate(input_spikes) if s]
        for j, neuron in enumerate(self.neurons):
            injected = 0.0
            for i in rows:
                injected += self.g[i][j]
            injected *= self.amplitude
            if self.wta.synapse_model == "conductance":
                injected *= max((self.wta.e_excitatory - neuron.v) / self.denom, 0.0)
            if self.wta.current_tau_ms > 0.0:
                self.current[j] = self.current[j] * self.decay + injected
            else:
                self.current[j] = injected
        spikes = [n.step(i, dt_ms) for n, i in zip(self.neurons, self.current)]
        if self.wta.single_winner and sum(spikes) > 1:
            # The most strongly driven contender; the lowest index on a tie.
            contenders = [j for j, spiked in enumerate(spikes) if spiked]
            winner = max(contenders, key=lambda j: (self.current[j], -j))
            spikes = [j == winner for j in range(len(spikes))]
        if any(spikes) and self.wta.t_inh_ms > 0.0:
            for neuron, spiked in zip(self.neurons, spikes):
                if not spiked:
                    neuron.inhibit(self.wta.t_inh_ms)
        return spikes


class TestNetworkStepAgainstScalarOracle:
    # Without the current low-pass each input spike must carry a neuron
    # to threshold on its own, hence the larger amplitude.
    @pytest.mark.parametrize("current_tau_ms, amplitude", [(60.0, None), (0.0, 80.0)])
    @pytest.mark.parametrize("inhibition_strength", [0.0, 8.0])
    @pytest.mark.parametrize("single_winner", [True, False])
    @pytest.mark.parametrize("synapse_model", ["current", "conductance"])
    def test_advance_matches(
        self, synapse_model, single_winner, inhibition_strength, current_tau_ms, amplitude
    ):
        cfg = network_config(
            "high_frequency", synapse_model, single_winner, inhibition_strength, current_tau_ms
        )
        net = WTANetwork(cfg, 64, input_spike_amplitude=amplitude)
        net.learning_enabled = False
        oracle = ScalarWTA(net)
        dt = cfg.simulation.dt_ms
        images = np.random.default_rng(11).random((3, 64))
        t = 0.0
        fired = 0
        for image in images:
            net.present_image(image)
            for _ in range(120):
                result = net.advance(t, dt)
                assert isinstance(result, StepResult) and result.t_ms == t
                expected = oracle.step(result.spikes["input"], dt)
                assert result.spikes["output"].tolist() == expected
                assert net.neurons.v.tolist() == [n.v for n in oracle.neurons]
                assert net.neurons.theta.tolist() == [n.theta for n in oracle.neurons]
                fired += sum(expected)
                t += dt
        assert fired > 0
        # Plasticity was off: the conductances the oracle copied still hold.
        assert net.synapses.g.tolist() == oracle.g

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_drive_sums_active_rows_in_row_order(self, seed):
        cfg = network_config("float32", "current", True, 8.0, 0.0)
        net = WTANetwork(cfg, 64)
        active = np.random.default_rng(seed).random(64) < 0.4
        net.drive(active, cfg.simulation.dt_ms)
        expected = []
        for j in range(cfg.wta.n_neurons):
            total = 0.0
            for i in np.flatnonzero(active):
                total += float(net.synapses.g[i, j])
            expected.append(total * net.amplitude)
        assert net._current.tolist() == expected

    def test_silent_input_injects_nothing(self):
        cfg = network_config("float32", "current", True, 8.0, 0.0)
        net = WTANetwork(cfg, 64)
        net.drive(np.zeros(64, dtype=bool), cfg.simulation.dt_ms)
        assert np.all(net._current == 0.0)

    def test_step_result_reports_both_layers(self):
        cfg = network_config("float32", "current", True, 8.0, 60.0)
        net = WTANetwork(cfg, 64)
        net.present_image(np.ones(64))
        result = net.advance(0.0, cfg.simulation.dt_ms)
        assert set(result.spikes) == {"input", "output"}
        assert result.spikes["input"].shape == (64,)
        assert result.spikes["output"].shape == (cfg.wta.n_neurons,)
        assert result.spikes["output"].dtype == bool
