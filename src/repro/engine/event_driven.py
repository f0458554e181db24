"""Event-driven LIF simulation (the third engine strategy).

Clock-driven engines pay for every time step whether or not anything
happens.  An event-driven simulator instead advances from input event to
input event, integrating the membrane *analytically* in between — the strategy
surveyed in the paper's related work (Brette et al. 2007) as the main
alternative to clock-driven simulation.

For the LIF equation ``dv/dt = a + b v + c I`` with piecewise-constant
current the solution between events is closed-form:

    ``v(t0 + dt) = v_inf + (v(t0) - v_inf) * exp(b * dt)``,
    ``v_inf = -(a + c I) / b``

and the threshold-crossing time (if ``v_inf > v_threshold``) is

    ``t* = ln((v_inf - v0) / (v_inf - v_th)) / (-b)``.

:class:`EventDrivenLIF` simulates one LIF neuron over a list of timed
current changes exactly (to machine precision), which gives the test suite
an *analytic oracle*: the clock-driven engines must converge to the
event-driven spike times as ``dt -> 0``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.config.parameters import LIFParameters
from repro.errors import SimulationError


@dataclass(frozen=True)
class CurrentStep:
    """The input current switches to *current* at time *t_ms*."""

    t_ms: float
    current: float


class EventDrivenLIF:
    """Exact LIF integration over piecewise-constant input currents."""

    def __init__(self, params: LIFParameters = LIFParameters()) -> None:
        if params.b >= 0:
            raise SimulationError("event-driven solution requires a leaky membrane (b < 0)")
        self.params = params

    def _v_inf(self, current: float) -> float:
        p = self.params
        return -(p.a + p.c * current) / p.b

    def _evolve(self, v0: float, current: float, dt: float) -> float:
        """Membrane after *dt* ms under constant *current* (no threshold)."""
        v_inf = self._v_inf(current)
        return v_inf + (v0 - v_inf) * math.exp(self.params.b * dt)

    def _crossing_time(self, v0: float, current: float) -> float:
        """Time until threshold, or ``inf`` if the fixed point is below it."""
        p = self.params
        v_inf = self._v_inf(current)
        if v_inf <= p.v_threshold or v0 >= v_inf:
            return math.inf
        if v0 >= p.v_threshold:
            return 0.0
        return math.log((v_inf - v0) / (v_inf - p.v_threshold)) / (-p.b)

    def run(
        self,
        steps: Sequence[CurrentStep],
        duration_ms: float,
        v0: Optional[float] = None,
    ) -> List[float]:
        """Exact spike times over *duration_ms* given the input schedule.

        *steps* must be sorted by time; the current before the first step is
        zero.  Refractoriness is honoured exactly (the membrane sits at
        ``v_reset`` for ``refractory_ms`` after each spike).
        """
        p = self.params
        schedule = list(steps)
        for earlier, later in zip(schedule, schedule[1:]):
            if later.t_ms < earlier.t_ms:
                raise SimulationError("current steps must be sorted by time")

        spikes: List[float] = []
        v = p.v_init if v0 is None else float(v0)
        t = 0.0
        current = 0.0
        refractory_until = -math.inf
        pending = list(schedule) + [CurrentStep(duration_ms, 0.0)]

        for nxt in pending:
            seg_end = min(nxt.t_ms, duration_ms)
            while t < seg_end:
                if t < refractory_until:
                    # Pinned at reset until refractoriness ends (or segment ends).
                    t_free = min(refractory_until, seg_end)
                    v = p.v_reset
                    t = t_free
                    continue
                t_cross = self._crossing_time(v, current)
                if t + t_cross <= seg_end:
                    t = t + t_cross
                    spikes.append(t)
                    v = p.v_reset
                    refractory_until = t + p.refractory_ms
                else:
                    v = self._evolve(v, current, seg_end - t)
                    t = seg_end
            if nxt.t_ms >= duration_ms:
                break
            current = nxt.current
        return spikes

    def steady_state_rate_hz(self, current: float) -> float:
        """Analytic firing rate under constant *current* (the exact Fig. 1a).

        Rate = 1000 / (t_cross(from reset) + refractory) or 0 below rheobase.
        """
        t_cross = self._crossing_time(self.params.v_reset, current)
        if math.isinf(t_cross):
            return 0.0
        period_ms = t_cross + self.params.refractory_ms
        return 1000.0 / period_ms


def poisson_like_schedule(
    spike_times_ms: Iterable[float], pulse_current: float, pulse_width_ms: float = 1.0
) -> List[CurrentStep]:
    """Turn a list of input spike times into a rectangular-pulse schedule.

    Each input spike contributes *pulse_current* for *pulse_width_ms* —
    the piecewise-constant analogue of the clock-driven engine's one-step
    current injection.  Overlapping pulses sum.
    """
    if pulse_width_ms <= 0:
        raise SimulationError("pulse_width_ms must be positive")
    events: List[Tuple[float, float]] = []
    for t in spike_times_ms:
        events.append((float(t), pulse_current))
        events.append((float(t) + pulse_width_ms, -pulse_current))
    events.sort()
    schedule: List[CurrentStep] = []
    level = 0.0
    for t, delta in events:
        level += delta
        if schedule and schedule[-1].t_ms == t:
            schedule[-1] = CurrentStep(t, level)
        else:
            schedule.append(CurrentStep(t, level))
    return schedule
