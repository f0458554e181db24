"""Per-component wall-clock profiling of simulation steps.

The Fig. 4 performance story becomes actionable with a breakdown of where a
simulated step spends its time (encoding draws, synaptic matmul, neuron
update, STDP).  :class:`StepProfiler` accumulates named sections via
context managers:

    profiler = StepProfiler()
    with profiler.section("encode"):
        spikes = encoder.step(dt, rng)
    ...
    print(profiler.table())

:func:`profile_wta_step` instruments a :class:`WTANetwork` for a number of
steps and returns the per-section totals — used by the engine bench and
available for users chasing their own bottlenecks.  It profiles the
reference path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Dict, Iterator, List, Optional

import numpy as np

from repro.analysis.report import format_table
from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.network.wta import WTANetwork


class StepProfiler:
    """Accumulates wall-clock time per named section."""

    def __init__(self) -> None:
        self._totals: Dict[str, float] = {}
        self._counts: Dict[str, int] = {}

    @contextmanager
    def section(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1

    @property
    def totals(self) -> Dict[str, float]:
        return dict(self._totals)

    def total_seconds(self) -> float:
        return sum(self._totals.values())

    def rows(self) -> List[List[object]]:
        """``[section, seconds, share, calls]`` rows, largest first."""
        total = max(self.total_seconds(), 1e-12)
        return [
            [name, seconds, seconds / total, self._counts[name]]
            for name, seconds in sorted(self._totals.items(), key=lambda kv: -kv[1])
        ]

    def table(self, title: Optional[str] = None) -> str:
        if not self._totals:
            raise SimulationError("profiler recorded no sections")
        return format_table(["section", "seconds", "share", "calls"], self.rows(), title=title)

    def reset(self) -> None:
        self._totals.clear()
        self._counts.clear()


def profile_wta_step(
    network: WTANetwork, image: np.ndarray, n_steps: int = 200, dt_ms: float = 1.0
) -> StepProfiler:
    """Instrumented re-implementation of ``WTANetwork.advance``'s phases.

    Runs *n_steps* over *image* splitting each step into the encode /
    propagate / neurons / learning phases.  The phase structure mirrors
    ``advance``, whose :meth:`~repro.network.wta.WTANetwork.drive` is the
    propagate phase; timings are indicative (instrumentation adds
    overhead).
    """
    if n_steps < 1:
        raise SimulationError(f"n_steps must be >= 1, got {n_steps}")
    profiler = StepProfiler()
    network.present_image(image)
    t_ms = 0.0
    for _ in range(n_steps):
        with profiler.section("encode"):
            input_spikes = network.encoder.step(dt_ms, network.rngs.encoding)
            network.timers.record_pre(input_spikes, t_ms)
        with profiler.section("propagate"):
            network.drive(input_spikes, dt_ms)
        with profiler.section("neurons"):
            post = network.neurons.step(network._current, dt_ms)
            if network.config.wta.single_winner and np.count_nonzero(post) > 1:
                contenders = np.flatnonzero(post)
                winner = contenders[np.argmax(network._current[contenders])]
                post = np.zeros_like(post)
                post[winner] = True
        with profiler.section("learning"):
            if network.learning_enabled:
                network.rule.step(
                    network.synapses, network.timers, input_spikes, post, t_ms,
                    network.rngs.learning,
                )
            network.timers.record_post(post, t_ms)
            if post.any() and network.config.wta.t_inh_ms > 0.0:
                network.neurons.inhibit(~post, network.config.wta.t_inh_ms)
        t_ms += dt_ms
    network.rest()
    return profiler
