"""LIF population with a homeostatic adaptive threshold.

Winner-take-all feature learning needs a mechanism that stops a few
early-winning neurons from capturing every input.  The standard solution —
used by the paper's deterministic baseline, Diehl & Cook [3] — is an
adaptive threshold: every spike raises a per-neuron offset ``theta`` which
decays slowly, so recently-active neurons become harder to excite and the
rest of the population gets a chance to specialise.

``AdaptiveLIFPopulation`` runs the :class:`LIFPopulation` step unchanged
(refractory period, WTA inhibition clamp) against the raised threshold and
then updates ``theta``.
"""

from __future__ import annotations

import numpy as np

from repro.config.parameters import AdaptiveThresholdParameters, LIFParameters
from repro.neurons.lif import LIFPopulation


class AdaptiveLIFPopulation(LIFPopulation):
    """LIF neurons whose effective threshold is ``v_threshold + theta``.

    ``theta`` survives :meth:`relax`: the homeostatic offset is the
    neuron's long-term memory of its own activity and persists across
    image boundaries; only :meth:`reset_state` clears it.
    """

    def __init__(
        self,
        n: int,
        params: LIFParameters = LIFParameters(),
        adaptation: AdaptiveThresholdParameters = AdaptiveThresholdParameters(),
        inhibition_strength: float = 0.0,
    ) -> None:
        super().__init__(n, params, inhibition_strength)
        self.adaptation = adaptation
        self._theta = np.zeros(n, dtype=np.float64)
        # exp(-dt/tau) cache: a scalar np.exp per step is measurable overhead
        # at small population sizes.  Keyed by (dt, tau) because
        # freeze_adaptation/evaluation_mode swap the adaptation parameters.
        self._theta_decay_cache: dict = {}

    def theta_decay(self, dt_ms: float) -> float:
        """The cached homeostatic-threshold decay factor ``exp(-dt/tau)``."""
        key = (dt_ms, self.adaptation.tau_ms)
        decay = self._theta_decay_cache.get(key)
        if decay is None:
            decay = float(np.exp(-dt_ms / self.adaptation.tau_ms))
            self._theta_decay_cache[key] = decay
        return decay

    @property
    def theta(self) -> np.ndarray:
        """Per-neuron threshold offsets."""
        return self._theta

    @property
    def effective_threshold(self) -> np.ndarray:
        """Per-neuron spike threshold ``v_threshold + theta``."""
        return self.params.v_threshold + self._theta

    def step(self, current: np.ndarray, dt_ms: float) -> np.ndarray:
        """The LIF step against ``v_threshold + theta``, then the theta update."""
        spikes = super().step(current, dt_ms)
        if self.adaptation.enabled:
            self._theta *= self.theta_decay(dt_ms)
            self._theta[spikes] += self.adaptation.theta_plus
        return spikes

    def reset_state(self) -> None:
        super().reset_state()
        self._theta.fill(0.0)

    def freeze_adaptation(self) -> None:
        """Disable further theta growth (used during labeling/inference)."""
        self.adaptation = AdaptiveThresholdParameters(
            theta_plus=0.0,
            tau_ms=self.adaptation.tau_ms,
            enabled=False,
        )
