"""Simulation engines and instrumentation.

- :mod:`repro.engine.registry` — the presentation-engine registry: named
  engines with declared capabilities and equivalence tiers, the single
  seam trainer/evaluator/experiment/CLI/benchmark resolve engines through.
- :mod:`repro.engine.presentation` — the :class:`PresentationEngine`
  protocol and the built-in reference / fused / qfused / batched adapters
  spanning training and (plasticity-frozen, bit-identical) evaluation.
- :mod:`repro.engine.rng` — named, independently-seeded random streams (the
  CUDA RNG substitute; see DESIGN.md).
- :mod:`repro.engine.event_train` — the gather kernels' one presentation
  loop: sparse input gathers summed in row order, integer expiry timers
  with cached regime state, lazy plasticity state.  Over its float
  conductance store it is the ``"fused"`` engine, bit-identical to the
  reference loop.  Also the lock-step chunk both gather kernels evaluate
  with.
- :mod:`repro.engine.qevent` — the code store: the same loop over
  uint8/uint16 Q-format codes (registry name ``"qfused"``).
- :mod:`repro.engine.plasticity` — the column-restricted STDP application
  shared by both stores.
- :mod:`repro.engine.event_driven` — the closed-form LIF oracle the Euler
  step is checked against.

Attributes resolve lazily (PEP 562): importing :mod:`repro.engine` — or
light submodules like :mod:`repro.engine.registry` — does not pull in the
network stack, which lets the config layer validate engine names without
import cycles.
"""

from importlib import import_module
from typing import Any, Dict, List

#: Public name -> defining submodule, resolved on first attribute access.
_EXPORTS: Dict[str, str] = {
    "BatchedInference": "repro.engine.batched",
    "CONDUCTANCE_ATOL": "repro.engine.registry",
    "EventPresentation": "repro.engine.event_train",
    "CurrentStep": "repro.engine.event_driven",
    "EventDrivenLIF": "repro.engine.event_driven",
    "RngStreams": "repro.engine.rng",
    "BATCHED_EVAL_SALT": "repro.engine.rng",
    "EngineSpec": "repro.engine.registry",
    "Equivalence": "repro.engine.registry",
    "available_engines": "repro.engine.registry",
    "capability_rows": "repro.engine.registry",
    "check_equivalence": "repro.engine.registry",
    "create_engine": "repro.engine.registry",
    "create_training_engine": "repro.engine.registry",
    "get_engine_spec": "repro.engine.registry",
    "register_engine": "repro.engine.registry",
    "unregister_engine": "repro.engine.registry",
    "PresentationEngine": "repro.engine.presentation",
    "ReferenceEngine": "repro.engine.presentation",
    "FusedEngine": "repro.engine.presentation",
    "BatchedEngine": "repro.engine.presentation",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(module), name)
    globals()[name] = value  # cache so the next access skips the indirection
    return value


def __dir__() -> List[str]:
    return sorted(set(globals()) | set(_EXPORTS))
