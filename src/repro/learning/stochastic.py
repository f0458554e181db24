"""Stochastic STDP — the paper's key contribution (eqs. 6-7).

Where the deterministic baseline applies every LTP/LTD event with
probability 1, the stochastic rule turns each synaptic update into a
Bernoulli trial whose probability encodes the *level* of causal
relationship between the pre and post spikes:

- at each post-synaptic spike, every afferent synapse potentiates with
  ``P_pot = gamma_pot * exp(-Δt/tau_pot)`` (eq. 6), Δt being the time since
  that channel's most recent pre spike — recent pre activity means strong
  causality, high probability;
- synapses that do not potentiate may depress.  Three LTD schedules are
  available (:class:`LTDMode`, chosen by ``StochasticSTDPParameters.ltd_mode``):

  * ``POST_EVENT`` (default) — evaluated at the same post spike with the
    probability rising in Δt (a long-silent afferent is non-causal), the
    capped complement of the eq. (7) exponential.  This mirrors the
    baseline's Querlioz schedule so the deterministic/stochastic comparison
    isolates exactly the stochasticity;
  * ``PAIR`` — the literal signed-Δt form of eq. (7): a pre spike arriving
    after a post spike depresses with ``P_dep = gamma_dep * exp(Δt/tau_dep)``,
    Δt = t_post - t_pre <= 0 (Fig. 1b sign convention);
  * ``BOTH`` — both mechanisms active.

The probabilistic gating is what makes low-precision learning survive: at a
fixed one-LSB step per event, expected conductance motion per event is
``P * LSB``, so the *effective* learning rate stays graded even when the
magnitude cannot be (Section IV-D), and loosely-correlated spike pairs
rarely destroy stored state.
"""

from __future__ import annotations

import numpy as np

from repro.config.parameters import (
    DeterministicSTDPParameters,
    LTDMode,
    StochasticSTDPParameters,
)
from repro.learning.base import STDPRule
from repro.learning.updates import (
    depression_magnitude,
    depression_probability,
    pair_depression_probability,
    potentiation_magnitude,
    potentiation_probability,
)
from repro.synapses.conductance import ConductanceMatrix
from repro.synapses.traces import SpikeTimers


class StochasticSTDP(STDPRule):
    """Eqs. (6)-(7): probabilistic LTP/LTD with eq. (4)-(5) magnitudes."""

    def __init__(
        self,
        params: StochasticSTDPParameters = StochasticSTDPParameters(),
        magnitudes: DeterministicSTDPParameters = DeterministicSTDPParameters(),
    ) -> None:
        self.params = params
        self.magnitudes = magnitudes
        self.ltd_mode = params.ltd_mode

    def step(
        self,
        g: ConductanceMatrix,
        timers: SpikeTimers,
        pre_spikes: np.ndarray,
        post_spikes: np.ndarray,
        t_ms: float,
        rng: np.random.Generator,
    ) -> None:
        post = np.asarray(post_spikes, dtype=bool)
        pre = np.asarray(pre_spikes, dtype=bool)

        if post.any():
            self._post_spike_updates(g, timers, post, t_ms, rng)
        if self.ltd_mode in (LTDMode.PAIR, LTDMode.BOTH) and pre.any():
            self._pair_ltd_updates(g, timers, pre, t_ms, rng)

    def _post_spike_updates(
        self,
        g: ConductanceMatrix,
        timers: SpikeTimers,
        post: np.ndarray,
        t_ms: float,
        rng: np.random.Generator,
    ) -> None:
        """LTP (and POST_EVENT-mode LTD) evaluated at this step's post spikes."""
        elapsed = timers.elapsed_pre(t_ms)                       # (n_pre,)
        p_pot = potentiation_probability(elapsed, self.params)   # (n_pre,)

        cols = np.flatnonzero(post)
        draws = rng.random(size=(elapsed.shape[0], cols.size))
        pot_mask = draws < p_pot[:, None]

        if self.ltd_mode in (LTDMode.POST_EVENT, LTDMode.BOTH):
            p_dep = depression_probability(elapsed, self.params)
            dep_draws = rng.random(size=pot_mask.shape)
            dep_mask = ~pot_mask & (dep_draws < p_dep[:, None])
        else:
            dep_mask = np.zeros_like(pot_mask)

        if not pot_mask.any() and not dep_mask.any():
            return

        g_cols = g.g[:, cols]
        dg_pot = potentiation_magnitude(g_cols, self.magnitudes)
        dg_dep = depression_magnitude(g_cols, self.magnitudes)
        delta_cols = np.where(pot_mask, dg_pot, 0.0) - np.where(dep_mask, dg_dep, 0.0)

        delta = np.zeros_like(g.g)
        delta[:, cols] = delta_cols
        g.apply_delta(delta, rng)

    def _pair_ltd_updates(
        self,
        g: ConductanceMatrix,
        timers: SpikeTimers,
        pre: np.ndarray,
        t_ms: float,
        rng: np.random.Generator,
    ) -> None:
        """Literal eq. (7) LTD on pre spikes arriving after post spikes.

        ``timers.last_post`` holds only strictly-earlier post spikes (the
        engine records this step's post spikes after the rule runs), so
        Δt = t_last_post - t_ms is <= -dt for genuine post-then-pre pairs.
        """
        dt_signed = timers.last_post - t_ms                       # (n_post,) <= 0
        p_dep = pair_depression_probability(dt_signed, self.params)

        rows = np.flatnonzero(pre)
        draws = rng.random(size=(rows.size, p_dep.shape[0]))
        dep_mask = draws < p_dep[None, :]
        if not dep_mask.any():
            return

        g_rows = g.g[rows, :]
        dg_dep = depression_magnitude(g_rows, self.magnitudes)

        delta = np.zeros_like(g.g)
        delta[rows, :] = -np.where(dep_mask, dg_dep, 0.0)
        g.apply_delta(delta, rng)
