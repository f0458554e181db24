"""The presentation-engine registry: one seam for every execution path.

Training and evaluation both boil down to *presenting images to the
network*; what differs is the execution strategy — the per-step reference
loop, the float and integer gather kernels, the image-parallel batched
engines, and whatever comes next (CuPy, sharded, remote).  Each call site
(trainer, evaluator, experiment, CLI, benchmark) resolves a strategy by
**name** against a declared capability record per engine:

- ``supports_learning`` — can the engine drive plasticity (training)?
- ``supports_batch`` — does it advance many images in lock-step?
- ``equivalence`` — the contract versus the reference loop
  (:class:`Equivalence` tier);
- ``backends`` — array backends the engine can execute on.

The built-in engines are one kernel per precision plus the oracle:
``reference`` (the per-step loop), ``fused`` (the float gather kernel,
bit-exact to ``reference``), ``qfused`` (the same loop on integer Q-format
codes, also bit-exact) and the evaluation-only ``batched``/``qbatched``.

Engines are registered as :class:`EngineSpec` records carrying a *lazy*
``"module:Class"`` factory path, so this module imports nothing heavy and
the config layer can validate engine names without pulling in the network
stack.  Third-party engines plug in through :func:`register_engine` —
no call site changes needed, which is the multi-backend seam the ROADMAP
asks for.

:func:`check_equivalence` turns each declared tier into concrete
assertions; the benchmark and the test suite use it to verify any engine
pair's contract instead of hand-rolled comparisons.
:func:`check_backend_equivalence` pins the orthogonal axis: the *same*
engine on two declared backends must agree **bit for bit** regardless of
its declared tier, because every kernel draws its randomness host-side
(see :class:`repro.engine.rng.DeviceRng`) and device arithmetic follows
IEEE float64 — backend selection is an execution detail, never a result.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from importlib import import_module
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.errors import ConfigurationError

#: Default absolute tolerance on float state (conductances, thetas) at the
#: ``SPIKE_EQUIVALENT`` tier, where spike counts must still match exactly.
CONDUCTANCE_ATOL = 1e-9


class Equivalence(str, enum.Enum):
    """Declared fidelity of an engine versus the reference loop.

    - ``BIT_EXACT`` — identical arrays bit for bit under pinned seeds
      (conductances, thresholds, spike counts, response matrices);
    - ``SPIKE_EQUIVALENT`` — identical spike trains (hence identical
      response matrices and learning-stream consumption) with real-valued
      state within a documented tolerance;
    - ``STATISTICAL`` — same distributions, different draws; results agree
      in aggregate but not element-wise.
    """

    BIT_EXACT = "bit_exact"
    SPIKE_EQUIVALENT = "spike_equivalent"
    STATISTICAL = "statistical"


@dataclass(frozen=True)
class EngineSpec:
    """Capability record and lazy factory for one presentation engine."""

    name: str
    #: ``"module:Class"`` path; the class takes the network as sole argument.
    factory: str
    supports_learning: bool
    supports_batch: bool
    equivalence: Equivalence
    #: Array backends the engine executes on (``"numpy"``, ``"cupy"`` ...).
    backends: Tuple[str, ...]
    summary: str
    #: Conductance storage dtypes the engine runs on.  ``"float64"`` means
    #: full-precision arrays (fixed-point formats *simulated* on floats);
    #: integer dtypes (``"uint8"``, ``"uint16"``) mean native Q-format code
    #: storage — those engines require a fixed-point quantization config
    #: narrow enough to fit (validated by ``ExperimentConfig``).
    precisions: Tuple[str, ...] = ("float64",)

    def create(self, network: Any) -> Any:
        """Instantiate the engine for *network* (imports the module now)."""
        module_name, _, attr = self.factory.partition(":")
        if not attr:
            raise ConfigurationError(
                f"engine {self.name!r} has a malformed factory path "
                f"{self.factory!r}; expected 'module:Class'"
            )
        cls = getattr(import_module(module_name), attr)
        return cls(network)


_REGISTRY: Dict[str, EngineSpec] = {}


def register_engine(spec: EngineSpec, replace: bool = False) -> EngineSpec:
    """Add *spec* to the registry; set *replace* to overwrite a name."""
    if not spec.name:
        raise ConfigurationError("engine name must be non-empty")
    if spec.name in _REGISTRY and not replace:
        raise ConfigurationError(
            f"engine {spec.name!r} is already registered; "
            f"pass replace=True to override it"
        )
    _REGISTRY[spec.name] = spec
    return spec


def unregister_engine(name: str) -> EngineSpec:
    """Remove and return a registered spec (plugin teardown, test cleanup)."""
    spec = _REGISTRY.pop(name, None)
    if spec is None:
        raise ConfigurationError(
            f"cannot unregister unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())}"
        )
    return spec


def available_engines() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(_REGISTRY))


def get_engine_spec(name: str) -> EngineSpec:
    """Look up a spec by name; unknown names list what *is* registered."""
    spec = _REGISTRY.get(name)
    if spec is None:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())}"
        )
    return spec


def create_engine(name: str, network: Any) -> Any:
    """Resolve *name* and instantiate the engine for *network*."""
    return get_engine_spec(name).create(network)


def create_training_engine(name: str, network: Any) -> Any:
    """Like :func:`create_engine`, but the engine must support learning."""
    spec = get_engine_spec(name)
    if not spec.supports_learning:
        learners = ", ".join(
            n for n in available_engines() if _REGISTRY[n].supports_learning
        )
        raise ConfigurationError(
            f"engine {name!r} does not support learning presentations "
            f"(evaluation only); training engines: {learners}"
        )
    return spec.create(network)


def capability_rows() -> List[List[object]]:
    """``[name, learning, batch, equivalence, precision, backends, summary]`` rows."""
    return [
        [
            spec.name,
            "yes" if spec.supports_learning else "no",
            "yes" if spec.supports_batch else "no",
            spec.equivalence.value,
            "+".join(spec.precisions),
            "+".join(spec.backends),
            spec.summary,
        ]
        for spec in (_REGISTRY[n] for n in available_engines())
    ]


def check_equivalence(
    spec: EngineSpec,
    oracle: Mapping[str, Any],
    candidate: Mapping[str, Any],
    conductance_atol: Optional[float] = None,
) -> List[str]:
    """Violations of *spec*'s declared equivalence tier, as messages.

    *oracle* and *candidate* are mappings holding any of the comparable
    artefacts a run produces — ``"conductances"`` (float array),
    ``"thetas"`` (float array), ``"spikes_per_image"`` (list of ints) and
    ``"responses"`` (integer spike-count matrix).  Only keys present in
    **both** mappings are compared; an empty return means the contract
    holds.  ``STATISTICAL`` engines promise nothing element-wise, so they
    always pass.

    At the ``BIT_EXACT`` tier every artefact must match exactly.  At
    ``SPIKE_EQUIVALENT`` the integer artefacts (spike counts, response
    matrices) must still match exactly — they are functions of the spike
    trains alone — while float state may deviate up to *conductance_atol*
    (default: :data:`CONDUCTANCE_ATOL`).
    """
    import numpy as np

    if spec.equivalence is Equivalence.STATISTICAL:
        return []
    if conductance_atol is None:
        conductance_atol = CONDUCTANCE_ATOL

    failures: List[str] = []
    if "spikes_per_image" in oracle and "spikes_per_image" in candidate:
        if list(oracle["spikes_per_image"]) != list(candidate["spikes_per_image"]):
            failures.append(
                f"engine {spec.name!r}: per-image spike counts differ from the oracle"
            )
    if "responses" in oracle and "responses" in candidate:
        if not np.array_equal(oracle["responses"], candidate["responses"]):
            failures.append(
                f"engine {spec.name!r}: evaluation response matrix differs "
                f"from the oracle (declared {spec.equivalence.value})"
            )
    for key in ("conductances", "thetas"):
        if key not in oracle or key not in candidate:
            continue
        a = np.asarray(oracle[key])
        b = np.asarray(candidate[key])
        if spec.equivalence is Equivalence.BIT_EXACT:
            if not np.array_equal(a, b):
                failures.append(
                    f"engine {spec.name!r}: {key} are not bit-identical to the oracle"
                )
        else:
            dev = float(np.max(np.abs(a - b))) if a.size else 0.0
            if dev > conductance_atol:
                failures.append(
                    f"engine {spec.name!r}: {key} deviate from the oracle by "
                    f"{dev:.3e} (atol {conductance_atol:.1e})"
                )
    return failures


def check_backend_equivalence(
    spec: EngineSpec,
    backend: str,
    oracle: Mapping[str, Any],
    candidate: Mapping[str, Any],
) -> List[str]:
    """Violations of the cross-backend contract, as messages.

    *oracle* holds artefacts from a run on the ``numpy`` backend,
    *candidate* the same artefacts from *backend* (same config, same
    seeds); the mappings use :func:`check_equivalence`'s keys.  Unlike the
    per-engine tier, the cross-backend contract is unconditional: every
    engine must be **bit-identical** across its declared backends — the
    kernels draw all randomness host-side and mirror state through explicit
    transfer seams, so a deviation is a device-discipline bug, not a
    tolerance question.  An engine that does not declare *backend* fails
    outright (run it on a declared backend instead).
    """
    import numpy as np

    if backend not in spec.backends:
        return [
            f"engine {spec.name!r} does not declare backend {backend!r} "
            f"(declared: {', '.join(spec.backends)})"
        ]
    failures: List[str] = []
    for key in sorted(set(oracle) & set(candidate)):
        a, b = oracle[key], candidate[key]
        if key == "spikes_per_image":
            ok = list(a) == list(b)
        else:
            ok = np.array_equal(np.asarray(a), np.asarray(b))
        if not ok:
            failures.append(
                f"engine {spec.name!r}: {key} on backend {backend!r} are "
                f"not bit-identical to the numpy backend"
            )
    return failures


# ----------------------------------------------------------------------
# built-in engines
# ----------------------------------------------------------------------

register_engine(EngineSpec(
    name="reference",
    factory="repro.engine.presentation:ReferenceEngine",
    supports_learning=True,
    supports_batch=False,
    equivalence=Equivalence.BIT_EXACT,
    backends=("numpy", "guard"),
    summary="per-step oracle loop (WTANetwork.advance)",
))
register_engine(EngineSpec(
    name="fused",
    factory="repro.engine.presentation:FusedEngine",
    supports_learning=True,
    supports_batch=True,
    equivalence=Equivalence.BIT_EXACT,
    backends=("numpy", "guard"),
    summary="float gather kernel: row-order input gathers, integer timers; lock-step evaluation",
))
register_engine(EngineSpec(
    name="batched",
    factory="repro.engine.presentation:BatchedEngine",
    supports_learning=False,
    supports_batch=True,
    equivalence=Equivalence.STATISTICAL,
    backends=("numpy", "guard", "cupy"),
    summary="image-parallel frozen inference (GPU batch-mode substitute)",
))
register_engine(EngineSpec(
    name="qfused",
    factory="repro.engine.presentation:QFusedEngine",
    supports_learning=True,
    supports_batch=True,
    equivalence=Equivalence.BIT_EXACT,
    backends=("numpy", "guard"),
    summary="integer gather kernel on uint8/uint16 Q-format codes; lock-step evaluation",
    precisions=("uint8", "uint16"),
))
register_engine(EngineSpec(
    name="qbatched",
    factory="repro.engine.presentation:QBatchedEngine",
    supports_learning=False,
    supports_batch=True,
    equivalence=Equivalence.STATISTICAL,
    backends=("numpy", "guard", "cupy"),
    summary="image-parallel inference on integer codes (bit-identical to 'batched')",
    precisions=("uint8", "uint16"),
))
