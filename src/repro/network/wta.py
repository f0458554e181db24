"""The Fig. 3 winner-take-all unsupervised-learning architecture.

An input image is converted to one spike train per pixel.  The trains are
all-to-all connected through plastic conductances to the first layer of LIF
neurons.  When a first-layer neuron spikes, its second-layer partner sends
an inhibitory signal to every *other* first-layer neuron for ``t_inh`` —
the winner-take-all principle that prevents more than one neuron from
learning the same pattern.  The conductance array feeding each first-layer
neuron collectively learns to recognise one specific input pattern.

``WTANetwork`` bundles encoder, plastic synapses, spike timers, the
(adaptive-threshold) LIF layer and an STDP rule into one object whose
:meth:`WTANetwork.advance` is the reference engine's step.  The inhibition
layer is realised as a direct clamp on the losing neurons (functionally
identical to simulating 1000 relay neurons with one-to-one excitatory and
all-to-all inhibitory static synapses, without paying for their
integration).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.config.parameters import ExperimentConfig, STDPKind
from repro.encoding.rate import make_encoder
from repro.engine.rng import RngStreams
from repro.errors import TopologyError
from repro.learning.deterministic import DeterministicSTDP
from repro.learning.stochastic import StochasticSTDP
from repro.neurons.adaptive_lif import AdaptiveLIFPopulation
from repro.quantization.quantizer import make_quantizer
from repro.synapses.conductance import ConductanceMatrix
from repro.synapses.traces import SpikeTimers

#: Pixel count the default ``input_spike_amplitude`` is calibrated for.
_CALIBRATION_PIXELS = 256
#: Default drive at the calibration size (see :func:`recommended_amplitude`).
_CALIBRATION_AMPLITUDE = 0.3


def recommended_amplitude(n_pixels: int, base_amplitude: float = _CALIBRATION_AMPLITUDE) -> float:
    """Input-spike amplitude keeping total drive constant across image sizes.

    The summed synaptic current scales linearly with the number of input
    channels, so the per-spike amplitude must scale inversely to keep
    first-layer firing rates in the paper's operating regime.
    ``base_amplitude`` is the amplitude at the 16x16 (256-pixel) calibration
    size — ``WTAParameters.input_spike_amplitude`` plays that role when a
    network is built from a config.
    """
    if n_pixels < 1:
        raise TopologyError(f"n_pixels must be >= 1, got {n_pixels}")
    return base_amplitude * _CALIBRATION_PIXELS / n_pixels


@dataclass
class StepResult:
    """What :meth:`WTANetwork.advance` reports after one time step."""

    t_ms: float
    #: Boolean spike masks per named layer (``"input"``, ``"output"``).
    spikes: Dict[str, np.ndarray] = field(default_factory=dict)


class WTANetwork:
    """Input trains -> plastic synapses -> LIF layer with WTA inhibition."""

    def __init__(
        self,
        config: ExperimentConfig,
        n_pixels: int,
        rngs: Optional[RngStreams] = None,
        input_spike_amplitude: Optional[float] = None,
    ) -> None:
        if n_pixels < 1:
            raise TopologyError(f"n_pixels must be >= 1, got {n_pixels}")
        self.config = config
        self.n_pixels = int(n_pixels)
        self.rngs = rngs if rngs is not None else RngStreams(config.simulation.seed)

        quantizer = make_quantizer(config.quantization)
        self.synapses = ConductanceMatrix(
            n_pixels,
            config.wta.n_neurons,
            quantizer=quantizer,
            g_init_low=config.wta.g_init_low,
            g_init_high=min(config.wta.g_init_high, quantizer.g_max),
            rng=self.rngs.init,
        )
        self.timers = SpikeTimers(n_pixels, config.wta.n_neurons)
        self.neurons = AdaptiveLIFPopulation(
            config.wta.n_neurons,
            config.lif,
            config.wta.adaptive_threshold,
            inhibition_strength=config.wta.inhibition_strength,
        )
        self.encoder = make_encoder(config.encoding, n_pixels)

        if config.stdp_kind is STDPKind.DETERMINISTIC:
            self.rule = DeterministicSTDP(config.deterministic_stdp)
        else:
            self.rule = StochasticSTDP(config.stochastic_stdp, config.deterministic_stdp)

        self.amplitude = (
            input_spike_amplitude
            if input_spike_amplitude is not None
            else recommended_amplitude(n_pixels, config.wta.input_spike_amplitude)
        )
        self.learning_enabled = True
        self._current = np.zeros(config.wta.n_neurons, dtype=np.float64)
        # Loop-invariant constants, hoisted out of the per-step hot path:
        # the conductance-model driving-force denominator is fixed by the
        # config, and the current-decay factor exp(-dt/tau) only depends on
        # the step size, which is constant within a run.
        self._cond_scale_denom = config.wta.e_excitatory - config.lif.v_reset
        self._decay_cache: dict = {}

    def current_decay(self, dt_ms: float) -> float:
        """The synaptic-current low-pass factor ``exp(-dt/tau)``, cached.

        Computing this scalar ``np.exp`` anew every step costs about as much
        as a whole-population array op at small network sizes; the cache is
        keyed by ``dt_ms`` so variable-step callers stay correct.
        """
        decay = self._decay_cache.get(dt_ms)
        if decay is None:
            decay = float(np.exp(-dt_ms / self.config.wta.current_tau_ms))
            self._decay_cache[dt_ms] = decay
        return decay

    # ------------------------------------------------------------------
    # image presentation
    # ------------------------------------------------------------------

    def present_image(self, image: np.ndarray) -> None:
        """Load *image* into the encoder; spikes flow on subsequent steps."""
        try:
            self.encoder.set_image(image, self.rngs.encoding)  # periodic encoder
        except TypeError:
            self.encoder.set_image(image)

    def rest(self) -> None:
        """Inter-image rest: clear input, relax fast state, forget timings.

        Learned state — conductances and adaptive thresholds — persists;
        membranes, synaptic currents, inhibition and spike timers reset, the
        same relaxation a long silent gap would produce.
        """
        self.encoder.clear()
        self.neurons.relax()
        self.timers.reset()
        self._current.fill(0.0)

    # ------------------------------------------------------------------
    # engine protocol
    # ------------------------------------------------------------------

    def drive(self, input_spikes: np.ndarray, dt_ms: float) -> None:
        """Inject one step of *input_spikes* into the synaptic current (eq. 3).

        The active input rows are summed in row order — the gather kernels'
        own order — rather than by a BLAS ``vec @ matrix``, whose grouping
        of the additions depends on the BLAS build.  Every engine therefore
        computes the same float drive bit for bit.
        """
        rows = np.flatnonzero(input_spikes)
        injected = np.add.reduce(self.synapses.g[rows], axis=0) * self.amplitude
        if self.config.wta.synapse_model == "conductance":
            # Voltage-dependent driving force, normalised to match the
            # current model at the reset potential.
            e_exc = self.config.wta.e_excitatory
            scale = (e_exc - self.neurons.v) / self._cond_scale_denom
            injected = injected * np.maximum(scale, 0.0)
        if self.config.wta.current_tau_ms > 0.0:
            self._current = self._current * self.current_decay(dt_ms) + injected
        else:
            self._current = injected

    def advance(self, t_ms: float, dt_ms: float) -> StepResult:
        """One simulation step of the full loop (Fig. 2 flowchart)."""
        input_spikes = self.encoder.step(dt_ms, self.rngs.encoding)
        self.timers.record_pre(input_spikes, t_ms)
        self.drive(input_spikes, dt_ms)

        post_spikes = self.neurons.step(self._current, dt_ms)

        if self.config.wta.single_winner and np.count_nonzero(post_spikes) > 1:
            # Same-step threshold ties resolve to the most strongly driven
            # neuron; the relay inhibition beats the others' output spikes.
            contenders = np.flatnonzero(post_spikes)
            winner = contenders[np.argmax(self._current[contenders])]
            post_spikes = np.zeros_like(post_spikes)
            post_spikes[winner] = True

        if self.learning_enabled:
            self.rule.step(
                self.synapses,
                self.timers,
                input_spikes,
                post_spikes,
                t_ms,
                self.rngs.learning,
            )

        self.timers.record_post(post_spikes, t_ms)

        if post_spikes.any() and self.config.wta.t_inh_ms > 0.0:
            self.neurons.inhibit(~post_spikes, self.config.wta.t_inh_ms)

        return StepResult(t_ms=t_ms, spikes={"input": input_spikes, "output": post_spikes})

    # ------------------------------------------------------------------
    # mode switches
    # ------------------------------------------------------------------

    def freeze(self) -> None:
        """Stop all plasticity (labeling / inference mode)."""
        self.learning_enabled = False
        self.neurons.freeze_adaptation()

    def evaluation_mode(self):
        """Context manager suspending plasticity, restoring it on exit.

        Used for mid-training accuracy probes (the moving error rate of
        Fig. 8c): inside the block the network behaves like a frozen
        classifier; on exit learning and threshold adaptation resume with
        their previous settings.
        """
        return _EvaluationMode(self)

    @property
    def conductances(self) -> np.ndarray:
        """The learned conductance array, shape ``(n_pixels, n_neurons)``."""
        return self.synapses.g


class _EvaluationMode:
    """Reversible freeze: plasticity and threshold adaptation off inside."""

    def __init__(self, network: WTANetwork) -> None:
        self._network = network
        self._saved_learning = network.learning_enabled
        self._saved_adaptation = network.neurons.adaptation

    def __enter__(self) -> WTANetwork:
        self._network.learning_enabled = False
        self._network.neurons.freeze_adaptation()
        self._network.rest()
        return self._network

    def __exit__(self, exc_type, exc, tb) -> None:
        self._network.learning_enabled = self._saved_learning
        self._network.neurons.adaptation = self._saved_adaptation
        self._network.rest()
