"""Validated parameter dataclasses for every subsystem of the simulator.

Each dataclass mirrors one block of the paper's experimental setup:

- :class:`LIFParameters` — the leaky integrate-and-fire model of eqs. (1)-(2)
  with the Section III-D constants as defaults.
- :class:`DeterministicSTDPParameters` — the conductance-dependent rule of
  eqs. (4)-(5).
- :class:`StochasticSTDPParameters` — the probabilistic rule of eqs. (6)-(7).
- :class:`QuantizationConfig` — fixed-point storage format plus rounding
  option (Section III-C).
- :class:`EncodingParameters` — pixel-intensity to spike-frequency mapping
  and the frequency-control window ``[f_min, f_max]`` (Fig. 1d).
- :class:`WTAParameters` — the Fig. 3 winner-take-all architecture.
- :class:`SimulationParameters` — time step, per-image presentation time and
  RNG seeding.
- :class:`ExperimentConfig` — one complete learning option (a Table I row).

All classes validate in ``__post_init__`` and raise
:class:`repro.errors.ConfigurationError` on inconsistent values, so invalid
configurations fail at construction time rather than deep inside a run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ConfigurationError


def _require(condition: bool, message: str) -> None:
    """Raise :class:`ConfigurationError` with *message* unless *condition*."""
    if not condition:
        raise ConfigurationError(message)


def _require_finite(value: float, name: str) -> None:
    _require(value == value and abs(value) != float("inf"), f"{name} must be finite, got {value!r}")


class STDPKind(enum.Enum):
    """Which synaptic learning rule drives conductance updates."""

    DETERMINISTIC = "deterministic"
    STOCHASTIC = "stochastic"


class RoundingMode(enum.Enum):
    """Rounding options for low-precision learning (Section III-C)."""

    TRUNCATE = "truncate"
    NEAREST = "nearest"
    STOCHASTIC = "stochastic"


@dataclass(frozen=True)
class LIFParameters:
    """Leaky integrate-and-fire neuron constants (eqs. 1-2).

    The membrane potential evolves as ``dv/dt = a + b*v + c*I`` and resets to
    ``v_reset`` when it crosses ``v_threshold``.  Defaults are the Section
    III-D values.  ``refractory_ms`` is the absolute refractory period after
    a spike during which the membrane is pinned at ``v_reset``.
    """

    a: float = -6.77
    b: float = -0.0989
    c: float = 0.314
    v_threshold: float = -60.2
    v_reset: float = -74.7
    v_init: float = -70.0
    refractory_ms: float = 2.0

    def __post_init__(self) -> None:
        for name in ("a", "b", "c", "v_threshold", "v_reset", "v_init", "refractory_ms"):
            _require_finite(float(getattr(self, name)), name)
        _require(self.v_reset < self.v_threshold, "v_reset must be below v_threshold")
        _require(self.v_init < self.v_threshold, "v_init must be below v_threshold")
        _require(self.b < 0.0, "b must be negative for a leaky (stable) membrane")
        _require(self.refractory_ms >= 0.0, "refractory_ms must be non-negative")

    @property
    def rest_potential(self) -> float:
        """Fixed point of the membrane ODE with zero input current."""
        return -self.a / self.b

    @property
    def membrane_tau_ms(self) -> float:
        """Membrane time constant ``1/|b|`` in milliseconds."""
        return 1.0 / abs(self.b)

    def rheobase_current(self) -> float:
        """Smallest constant current whose fixed point reaches threshold.

        Below this current the neuron never spikes; Fig. 1a's f-I curve is
        zero left of this value.
        """
        return (-self.b * self.v_threshold - self.a) / self.c


@dataclass(frozen=True)
class AdaptiveThresholdParameters:
    """Homeostatic adaptive threshold for WTA feature diversity.

    Each spike adds ``theta_plus`` to a per-neuron threshold offset which
    decays exponentially with time constant ``tau_ms``.  This is the standard
    mechanism (Diehl & Cook 2015, the paper's deterministic baseline [3])
    preventing a handful of neurons from winning every WTA round.
    """

    theta_plus: float = 0.05
    tau_ms: float = 5.0e4
    enabled: bool = True

    def __post_init__(self) -> None:
        _require_finite(self.theta_plus, "theta_plus")
        _require(self.theta_plus >= 0.0, "theta_plus must be non-negative")
        _require(self.tau_ms > 0.0, "tau_ms must be positive")


@dataclass(frozen=True)
class DeterministicSTDPParameters:
    """Conductance-dependent deterministic STDP (eqs. 4-5).

    Potentiation adds ``alpha_p * exp(-beta_p * (G - G_min)/(G_max - G_min))``
    and depression subtracts
    ``alpha_d * exp(-beta_d * (G_max - G)/(G_max - G_min))``.  ``window_ms``
    is the pairing window: a post-synaptic spike potentiates synapses whose
    pre-neuron fired within the window and depresses the rest (the Querlioz
    simplified-STDP schedule the rule comes from [4]).
    """

    alpha_p: float = 0.01
    beta_p: float = 3.0
    alpha_d: float = 0.005
    beta_d: float = 3.0
    g_max: float = 1.0
    g_min: float = 0.0
    #: Pairing window for the post-spike schedule.  Roughly the bright-pixel
    #: inter-spike interval at the 22 Hz operating point, so causally-driving
    #: afferents usually fall inside it.
    window_ms: float = 60.0

    def __post_init__(self) -> None:
        for name in ("alpha_p", "beta_p", "alpha_d", "beta_d", "g_max", "g_min", "window_ms"):
            _require_finite(float(getattr(self, name)), name)
        _require(self.alpha_p > 0.0, "alpha_p must be positive")
        _require(self.alpha_d > 0.0, "alpha_d must be positive")
        _require(self.beta_p >= 0.0, "beta_p must be non-negative")
        _require(self.beta_d >= 0.0, "beta_d must be non-negative")
        _require(self.g_max > self.g_min, "g_max must exceed g_min")
        _require(self.window_ms > 0.0, "window_ms must be positive")

    @property
    def g_range(self) -> float:
        return self.g_max - self.g_min


@dataclass(frozen=True)
class StochasticSTDPParameters:
    """Stochastic STDP probabilities (eqs. 6-7).

    ``P_pot = gamma_pot * exp(-dt / tau_pot)`` for a pre-then-post pair with
    time difference ``dt >= 0``; ``P_dep = gamma_dep * exp(dt / tau_dep)``
    for a post-then-pre pair with ``dt <= 0`` (the paper's Fig. 1b sign
    convention).  ``gamma``s cap the probability, ``tau``s set how sharply it
    decays with timing.  The *short-term* behaviour used for high-frequency
    learning corresponds to a larger ``tau_pot`` with reduced ``gamma``s
    (Table I row "high frequency").
    """

    gamma_pot: float = 0.9
    tau_pot_ms: float = 30.0
    gamma_dep: float = 0.9
    tau_dep_ms: float = 10.0
    #: Timescale of the post-event depression schedule ("probability is
    #: higher when Δt is larger").  Distinct from ``tau_dep_ms``: the pair
    #: form of eq. (7) measures the post-then-pre *coincidence* window
    #: (~10 ms, Table I), while the post-event complement measures how long
    #: an afferent has been silent, which lives on the input inter-spike
    #: timescale (hundreds of ms at f_min of a few Hz).
    tau_dep_post_ms: float = 300.0

    def __post_init__(self) -> None:
        for name in ("gamma_pot", "tau_pot_ms", "gamma_dep", "tau_dep_ms", "tau_dep_post_ms"):
            _require_finite(float(getattr(self, name)), name)
        _require(0.0 < self.gamma_pot <= 1.0, "gamma_pot must be in (0, 1]")
        _require(0.0 < self.gamma_dep <= 1.0, "gamma_dep must be in (0, 1]")
        _require(self.tau_pot_ms > 0.0, "tau_pot_ms must be positive")
        _require(self.tau_dep_ms > 0.0, "tau_dep_ms must be positive")
        _require(self.tau_dep_post_ms > 0.0, "tau_dep_post_ms must be positive")


@dataclass(frozen=True)
class QuantizationConfig:
    """Fixed-point storage format and rounding option (Section III-C).

    ``fmt`` is a Q-format string such as ``"Q1.7"`` (1 integer bit, 7
    fractional bits) or ``None`` for 32-bit floating point.  ``rounding``
    selects among bit truncation, round-to-nearest and stochastic rounding
    (eq. 8).  When the total bit width is 8 or below, the conductance change
    per STDP event is the fixed LSB ``1/2^n`` as prescribed by the paper.
    """

    fmt: Optional[str] = None
    rounding: RoundingMode = RoundingMode.NEAREST

    def __post_init__(self) -> None:
        if self.fmt is not None:
            # Validation of the format string itself is owned by
            # repro.quantization.qformat; here we only check shape cheaply to
            # avoid an import cycle.
            _require(
                isinstance(self.fmt, str) and self.fmt.upper().startswith("Q") and "." in self.fmt,
                f"fmt must look like 'Q1.7', got {self.fmt!r}",
            )
        _require(isinstance(self.rounding, RoundingMode), "rounding must be a RoundingMode")

    @property
    def is_floating_point(self) -> bool:
        return self.fmt is None


@dataclass(frozen=True)
class EncodingParameters:
    """Pixel-to-spike-train encoding and frequency control (Fig. 1d).

    Pixel intensity (0-255) maps linearly onto spike frequency in
    ``[f_min_hz, f_max_hz]``.  The paper states both that frequency is
    "proportional to the pixel intensity" and that "for darker pixels, the
    spiking frequency is higher"; for white-on-black digit images these
    coincide (bright stroke = high drive).  ``invert`` flips the polarity for
    black-on-white material.  ``kind`` chooses Poisson or strictly periodic
    spike trains.
    """

    f_min_hz: float = 1.0
    f_max_hz: float = 22.0
    invert: bool = False
    kind: str = "poisson"
    intensity_levels: int = 256

    def __post_init__(self) -> None:
        _require_finite(self.f_min_hz, "f_min_hz")
        _require_finite(self.f_max_hz, "f_max_hz")
        _require(self.f_min_hz >= 0.0, "f_min_hz must be non-negative")
        _require(self.f_max_hz > self.f_min_hz, "f_max_hz must exceed f_min_hz")
        _require(self.kind in ("poisson", "periodic"), f"kind must be 'poisson' or 'periodic', got {self.kind!r}")
        _require(self.intensity_levels >= 2, "intensity_levels must be at least 2")

    def with_frequency_range(self, f_min_hz: float, f_max_hz: float) -> "EncodingParameters":
        """Return a copy with a new frequency window (frequency-control module)."""
        return EncodingParameters(
            f_min_hz=f_min_hz,
            f_max_hz=f_max_hz,
            invert=self.invert,
            kind=self.kind,
            intensity_levels=self.intensity_levels,
        )


@dataclass(frozen=True)
class WTAParameters:
    """The Fig. 3 two-layer winner-take-all architecture.

    ``n_neurons`` first-layer LIF neurons receive all-to-all plastic synapses
    from the input spike trains.  When one spikes, its second-layer partner
    inhibits every *other* first-layer neuron for ``t_inh_ms``.
    ``input_spike_amplitude`` is the voltage carried by one input spike
    (``v_pre`` in eq. 3); ``current_tau_ms`` optionally low-pass filters the
    summed synaptic current (0 disables filtering).
    """

    n_neurons: int = 100
    t_inh_ms: float = 50.0
    #: Per-spike drive at the 256-pixel calibration size.  Deliberately low:
    #: neurons should integrate tens of milliseconds of input before their
    #: first spike so the WTA race resolves weight alignment rather than
    #: Poisson noise (see DESIGN.md).
    input_spike_amplitude: float = 0.3
    current_tau_ms: float = 60.0
    #: Negative current injected into inhibited neurons.  Positive values
    #: give graded (subtractive) competition; 0 or below silences losers
    #: outright (hard WTA).
    inhibition_strength: float = 8.0
    #: Resolve same-step threshold-crossing ties to a single winner (the
    #: neuron with the largest drive), honouring the paper's "preventing
    #: more than one neuron to learn one specific pattern".
    single_winner: bool = True
    #: Synaptic transmission model: ``"current"`` injects eq. (3)'s weighted
    #: sum directly; ``"conductance"`` scales it by the driving force
    #: ``(E_exc - v)/(E_exc - v_reset)`` (voltage-dependent synapses, the
    #: second synaptic model the simulator supports).
    synapse_model: str = "current"
    #: Excitatory reversal potential for the conductance model, mV.
    e_excitatory: float = 0.0
    g_init_low: float = 0.2
    g_init_high: float = 0.6
    adaptive_threshold: AdaptiveThresholdParameters = field(default_factory=AdaptiveThresholdParameters)

    def __post_init__(self) -> None:
        _require(self.n_neurons >= 1, "n_neurons must be at least 1")
        _require(self.t_inh_ms >= 0.0, "t_inh_ms must be non-negative")
        _require(self.input_spike_amplitude > 0.0, "input_spike_amplitude must be positive")
        _require_finite(self.inhibition_strength, "inhibition_strength")
        _require(self.current_tau_ms >= 0.0, "current_tau_ms must be non-negative")
        _require(
            self.synapse_model in ("current", "conductance"),
            f"synapse_model must be 'current' or 'conductance', got {self.synapse_model!r}",
        )
        _require_finite(self.e_excitatory, "e_excitatory")
        _require(
            0.0 <= self.g_init_low <= self.g_init_high,
            "g_init_low must be in [0, g_init_high]",
        )


@dataclass(frozen=True)
class SimulationParameters:
    """Time discretisation and per-image schedule.

    ``dt_ms`` is the integration step.  Each training image is presented for
    ``t_learn_ms`` (500 ms in the paper's baseline, 100 ms in high-frequency
    mode) followed by ``t_rest_ms`` of silence that lets membranes and spike
    timers relax between images.
    """

    dt_ms: float = 1.0
    t_learn_ms: float = 500.0
    t_rest_ms: float = 20.0
    seed: int = 0

    def __post_init__(self) -> None:
        _require(self.dt_ms > 0.0, "dt_ms must be positive")
        _require(self.t_learn_ms > 0.0, "t_learn_ms must be positive")
        _require(self.t_rest_ms >= 0.0, "t_rest_ms must be non-negative")
        _require(self.t_learn_ms >= self.dt_ms, "t_learn_ms must cover at least one step")
        _require(int(self.seed) == self.seed, "seed must be an integer")
        _require(self.seed >= 0, f"seed must be non-negative, got {self.seed}")

    @property
    def steps_per_image(self) -> int:
        return int(round(self.t_learn_ms / self.dt_ms))

    @property
    def rest_steps(self) -> int:
        return int(round(self.t_rest_ms / self.dt_ms))


@dataclass(frozen=True)
class EngineConfig:
    """Which presentation engines drive training and evaluation.

    Names resolve through :mod:`repro.engine.registry`; unknown names fail
    here, at construction time, with the registered alternatives listed.
    The defaults select the float gather kernel (``"fused"``) for both
    phases — **bit-identical** to the reference loop under the config's
    seeds (the registry's declared and test-pinned contract) at several
    times the throughput.  Select ``"reference"`` to run the oracle loop
    itself, ``"qfused"`` to train a fixed-point config on integer codes, or
    ``"batched"`` for image-parallel (statistically equivalent) evaluation.

    ``backend`` names the array backend the engines execute on (``"numpy"``,
    ``"guard"``, ``"cupy"``); ``None`` keeps the process-level selection
    (:func:`repro.backend.set_backend` / ``REPRO_BACKEND``).  The name must
    be one the backend layer knows *and* both selected engines declare —
    cross-checked here so a GPU run fails at config time, not mid-epoch.
    Results are backend-independent bit for bit (the kernels draw all
    randomness host-side); availability of ``"cupy"`` itself is still
    probed lazily at first array allocation.
    """

    train: str = "fused"
    eval: str = "fused"
    backend: Optional[str] = None

    def __post_init__(self) -> None:
        # Function-level import: the registry is import-light (lazy engine
        # factories), but keeping it out of module scope makes the config
        # layer's import graph independent of the engine package.
        from repro.engine.registry import get_engine_spec

        _require(
            get_engine_spec(self.train).supports_learning,
            f"engine {self.train!r} does not support learning and cannot "
            f"be the training engine",
        )
        get_engine_spec(self.eval)
        if self.backend is not None:
            from repro.backend import KNOWN_BACKENDS

            _require(
                self.backend in KNOWN_BACKENDS,
                f"unknown array backend {self.backend!r}; choose from "
                f"{KNOWN_BACKENDS}",
            )
            for phase in ("train", "eval"):
                name = getattr(self, phase)
                spec = get_engine_spec(name)
                _require(
                    self.backend in spec.backends,
                    f"engine {name!r} ({phase}) does not execute on the "
                    f"{self.backend!r} backend (declared: "
                    f"{', '.join(spec.backends)})",
                )


@dataclass(frozen=True)
class ExperimentConfig:
    """One complete learning option — effectively a row of Table I.

    Aggregates every subsystem's parameters plus which STDP rule is active.
    ``name`` is a human-readable tag used in reports.
    """

    name: str = "float32-stochastic"
    stdp_kind: STDPKind = STDPKind.STOCHASTIC
    lif: LIFParameters = field(default_factory=LIFParameters)
    deterministic_stdp: DeterministicSTDPParameters = field(default_factory=DeterministicSTDPParameters)
    stochastic_stdp: StochasticSTDPParameters = field(default_factory=StochasticSTDPParameters)
    quantization: QuantizationConfig = field(default_factory=QuantizationConfig)
    encoding: EncodingParameters = field(default_factory=EncodingParameters)
    wta: WTAParameters = field(default_factory=WTAParameters)
    simulation: SimulationParameters = field(default_factory=SimulationParameters)
    engine: EngineConfig = field(default_factory=EngineConfig)

    def __post_init__(self) -> None:
        _require(isinstance(self.stdp_kind, STDPKind), "stdp_kind must be an STDPKind")
        _require(bool(self.name), "name must be non-empty")
        _require(
            isinstance(self.engine, EngineConfig), "engine must be an EngineConfig"
        )
        self._validate_engine_precisions()

    def _validate_engine_precisions(self) -> None:
        """Cross-check engine precision declarations against the quantization.

        Engines whose :class:`~repro.engine.registry.EngineSpec` declares
        only integer storage dtypes (no ``"float64"``) hold conductances as
        Q-format codes, so the config must select a fixed-point format that
        fits the widest declared dtype.  Checked here — at construction —
        rather than when the engine is instantiated mid-run.
        """
        from repro.engine.registry import get_engine_spec

        for phase in ("train", "eval"):
            engine_name = getattr(self.engine, phase)
            spec = get_engine_spec(engine_name)
            if "float64" in spec.precisions:
                continue
            codes = "/".join(spec.precisions)
            if self.quantization.fmt is None:
                raise ConfigurationError(
                    f"engine {engine_name!r} ({phase}) stores conductances as "
                    f"integer codes ({codes}) and requires a fixed-point "
                    f"quantization.fmt (e.g. fmt='Q1.7'); floating point needs "
                    f"a float64-capable engine such as 'fused'"
                )
            import numpy as np

            from repro.quantization.qformat import parse_qformat

            fmt = parse_qformat(self.quantization.fmt)
            max_bits = max(np.dtype(p).itemsize for p in spec.precisions) * 8
            _require(
                fmt.total_bits <= max_bits,
                f"engine {engine_name!r} ({phase}) stores codes in at most "
                f"{max_bits} bits ({codes}), but quantization.fmt={fmt} is "
                f"{fmt.total_bits} bits wide",
            )

    def describe(self) -> str:
        """One-line summary used by progress reporting and bench tables."""
        precision = self.quantization.fmt or "float32"
        return (
            f"{self.name}: {self.stdp_kind.value} STDP, {precision} "
            f"({self.quantization.rounding.value}), "
            f"{self.encoding.f_min_hz:g}-{self.encoding.f_max_hz:g} Hz, "
            f"{self.simulation.t_learn_ms:g} ms/image, "
            f"{self.wta.n_neurons} neurons"
        )
