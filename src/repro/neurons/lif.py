"""Vectorised leaky integrate-and-fire population (eqs. 1-2).

The membrane follows ``dv/dt = a + b*v + c*I`` integrated with forward
Euler.  When ``v`` crosses ``v_threshold`` the neuron emits a spike, resets
to ``v_reset`` and enters an absolute refractory period during which the
membrane is pinned at ``v_reset``.

The population additionally supports an *inhibition clamp*: the WTA network
(Fig. 3) silences losing neurons for ``t_inh`` by calling
:meth:`LIFPopulation.inhibit`; while inhibited, a neuron ignores input
current and relaxes from the reset potential, which is how the second-layer
inhibitory signal is realised without simulating inhibitory conductances
explicitly.
"""

from __future__ import annotations

import numpy as np

from repro.config.parameters import LIFParameters
from repro.errors import SimulationError
from repro.neurons.base import NeuronPopulation


class LIFPopulation(NeuronPopulation):
    """A population of ``n`` LIF neurons sharing one parameter set.

    ``inhibition_strength`` selects how the WTA inhibitory signal acts:

    - ``> 0`` — *subtractive* inhibition: inhibited neurons receive that
      much negative current for the duration, so strongly-driven neurons
      can still fire (graded competition, the default);
    - ``<= 0`` — *hard* inhibition: inhibited neurons are blocked outright
      and pinned at the reset potential (absolute winner-take-all).
    """

    def __init__(
        self,
        n: int,
        params: LIFParameters = LIFParameters(),
        inhibition_strength: float = 0.0,
    ) -> None:
        super().__init__(n)
        self.params = params
        self.inhibition_strength = float(inhibition_strength)
        self._v = np.full(n, params.v_init, dtype=np.float64)
        # Remaining refractory time per neuron, ms.
        self._refractory_left = np.zeros(n, dtype=np.float64)
        # Remaining externally-imposed inhibition time per neuron, ms.
        self._inhibited_left = np.zeros(n, dtype=np.float64)

    @property
    def v(self) -> np.ndarray:
        return self._v

    @property
    def refractory_left(self) -> np.ndarray:
        return self._refractory_left

    @property
    def inhibited(self) -> np.ndarray:
        """Boolean mask of currently inhibited neurons."""
        return self._inhibited_left > 0.0

    def inhibit(self, mask: np.ndarray, duration_ms: float) -> None:
        """Silence the masked neurons for *duration_ms* (WTA inhibition).

        Inhibition is extended, never shortened: a neuron already inhibited
        for longer keeps its longer timer.
        """
        if duration_ms < 0.0:
            raise SimulationError(f"inhibition duration must be >= 0, got {duration_ms}")
        if isinstance(mask, np.ndarray):
            # astype keeps ndarray subclasses: a device mask illegally
            # handed to this host-contract class fails loudly at the
            # np.where mix below instead of being silently stripped.
            mask = mask.astype(bool, copy=False)
        else:
            mask = np.asarray(mask, dtype=bool)
        if mask.shape != (self.n,):
            raise SimulationError(f"mask must have shape ({self.n},), got {mask.shape}")
        np.maximum(self._inhibited_left, np.where(mask, duration_ms, 0.0), out=self._inhibited_left)

    def step(self, current: np.ndarray, dt_ms: float) -> np.ndarray:
        """Advance the membranes by ``dt_ms``; return the spike mask."""
        current = self._check_current(current)
        p = self.params

        inhibited = self._inhibited_left > 0.0
        if self.inhibition_strength > 0.0:
            # Subtractive inhibition: losers are pushed down but can still
            # fire if their drive dominates.
            blocked = self._refractory_left > 0.0
            effective_current = np.where(blocked, 0.0, current)
            effective_current -= np.where(inhibited, self.inhibition_strength, 0.0)
        else:
            # Hard inhibition: losers are silenced outright.
            blocked = (self._refractory_left > 0.0) | inhibited
            effective_current = np.where(blocked, 0.0, current)

        dv = (p.a + p.b * self._v + p.c * effective_current) * dt_ms
        self._v += dv
        # Refractory (and hard-inhibited) neurons stay pinned at reset.
        self._v[blocked] = p.v_reset
        # The membrane cannot be driven below reset by inhibition.
        np.maximum(self._v, p.v_reset, out=self._v)

        spikes = (self._v >= p.v_threshold) & ~blocked
        self._v[spikes] = p.v_reset
        self._refractory_left[spikes] = p.refractory_ms

        self._refractory_left = np.maximum(self._refractory_left - dt_ms, 0.0)
        self._inhibited_left = np.maximum(self._inhibited_left - dt_ms, 0.0)
        return spikes

    def reset_state(self) -> None:
        self._v.fill(self.params.v_init)
        self._refractory_left.fill(0.0)
        self._inhibited_left.fill(0.0)

    def relax(self) -> None:
        """Relax toward rest between images (keeps thresholds, drops timers).

        Used by the trainer during the inter-image rest window: membranes
        return to the initial potential and pending refractory/inhibition
        timers are cleared, mimicking a long silent period without paying
        for its simulation steps.
        """
        self._v.fill(self.params.v_init)
        self._refractory_left.fill(0.0)
        self._inhibited_left.fill(0.0)
