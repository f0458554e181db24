"""Frequency-vs-current analysis for neuron models (Fig. 1a).

Fig. 1a of the paper plots the spiking frequency of the LIF model against a
constant input current.  :func:`spiking_frequency` measures the steady-state
rate of a single model neuron under constant drive; :func:`fi_curve` sweeps
a current range and returns the full curve, which the Fig. 1 bench prints
and EXPERIMENTS.md records.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.neurons.lif import LIFPopulation


def spiking_frequency(
    population: LIFPopulation,
    current: float,
    duration_ms: float = 2000.0,
    dt_ms: float = 0.1,
    settle_ms: float = 200.0,
) -> float:
    """Steady-state firing rate (Hz) of *population*'s first neuron.

    Drives every neuron with the same constant *current*, discards an
    initial ``settle_ms`` transient and counts spikes over the remaining
    window.  The population is reset before and after the measurement so
    the call has no side effects on ongoing simulations.
    """
    if duration_ms <= settle_ms:
        raise SimulationError("duration_ms must exceed settle_ms")
    population.reset_state()
    drive = np.full(population.n, float(current))
    n_steps = int(round(duration_ms / dt_ms))
    settle_steps = int(round(settle_ms / dt_ms))
    count = 0
    for step_idx in range(n_steps):
        spikes = population.step(drive, dt_ms)
        if step_idx >= settle_steps and spikes[0]:
            count += 1
    population.reset_state()
    window_s = (duration_ms - settle_ms) / 1000.0
    return count / window_s


def fi_curve(
    population: LIFPopulation,
    currents: Sequence[float],
    duration_ms: float = 2000.0,
    dt_ms: float = 0.1,
) -> Tuple[np.ndarray, np.ndarray]:
    """Frequency-vs-current curve over *currents* (Fig. 1a).

    Returns ``(currents, frequencies_hz)`` as arrays.  The curve is zero
    below the model's rheobase and monotonically non-decreasing above it —
    a property the test suite asserts.
    """
    currents_arr = np.asarray(list(currents), dtype=np.float64)
    if currents_arr.ndim != 1 or currents_arr.size == 0:
        raise SimulationError("currents must be a non-empty 1-D sequence")
    freqs = np.array(
        [
            spiking_frequency(population, current, duration_ms=duration_ms, dt_ms=dt_ms)
            for current in currents_arr
        ]
    )
    return currents_arr, freqs
