"""Graceful engine degradation: fall down the equivalence ladder, not over.

The sequential training engines form one ladder from the most to the least
specialised implementation of the same semantics: ``qfused`` (the integer
gather kernel on Q-format codes) → ``fused`` (the float gather kernel) →
``reference`` (the per-step oracle).  When a fast engine faults mid-run —
a bug tickled by an unusual input, an injected fault from the test
harness — aborting an hours-long training run is the worst available
outcome: the *reference* semantics are still perfectly computable.

:func:`next_tier` names each engine's fallback.  The trainer uses it
(``on_engine_fault="degrade"``) to roll the network back to the last
presentation-boundary snapshot, rebuild the next-tier engine and re-present
the image, emitting an :class:`EngineDegradedWarning` so the downgrade is
visible in logs.  Because ``qfused`` and ``fused`` are both bit-identical
to ``reference``, a degraded run stays inside the published equivalence
contract of the tier it lands on.
"""

from __future__ import annotations

from typing import List, Optional

#: Fallback order of the sequential training engines (most to least
#: optimised).  ``reference`` has no fallback: a fault there is a real
#: error and propagates.  ``qfused`` falls back to ``fused`` (the same
#: Q-format *simulated* on float64, valid for any quantization config).
#: ``event`` and ``qevent`` are retired engine names: they are no longer
#: registered, and their entries only let :func:`degradation_path` walk
#: from a retired name to the engine that replaced it.
DEGRADATION_CHAIN = {
    "qfused": "fused",
    "fused": "reference",
    "qevent": "qfused",
    "event": "fused",
}


class EngineDegradedWarning(UserWarning):
    """A fast engine faulted and the run fell back to a safer tier."""


def next_tier(engine_name: str, engine: Optional[object] = None) -> Optional[str]:
    """The engine to fall back to when *engine_name* faults, or ``None``.

    When the live *engine* object declares a ``degrade_to`` attribute (the
    fault-injection wrappers do, naming the tier below the engine they
    wrap), that takes precedence — a wrapped ``qfused`` engine degrades into
    the real ``fused``, not into a chain lookup of its wrapper name.
    """
    declared = getattr(engine, "degrade_to", None)
    if declared is not None:
        return str(declared)
    return DEGRADATION_CHAIN.get(engine_name)


def degradation_path(engine_name: str) -> List[str]:
    """The full fallback walk starting at *engine_name* (inclusive).

    ``degradation_path("qfused") == ["qfused", "fused", "reference"]``;
    an engine outside the chain is its own single-element path.  Used by
    the resilience-analysis harness to bound the number of degradation
    hops a scenario may legitimately take, and by the benchmark to map a
    requested engine to the first registered one on its path.
    """
    path = [engine_name]
    while path[-1] in DEGRADATION_CHAIN:
        path.append(DEGRADATION_CHAIN[path[-1]])
    return path
