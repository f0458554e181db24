"""Run-time bookkeeping: wall clock and simulated time.

The paper reports two distinct time axes and both appear in the benches:

- *simulated time* — biological milliseconds of network activity (542 min
  to learn 60k MNIST images at 500 ms/image; 131 min at 100 ms/image).
  This is a property of the schedule, independent of the host machine.
- *wall-clock time* — how long the simulator itself takes, the Fig. 4
  engine-performance axis.

:func:`time_callable` is a tiny best-of-N timer;
:func:`simulated_learning_minutes` is the simulated-time axis.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import SimulationError


def time_callable(fn: Callable[[], object], repeats: int = 3) -> float:
    """Best-of-*repeats* wall-clock seconds for ``fn()``."""
    if repeats < 1:
        raise SimulationError(f"repeats must be >= 1, got {repeats}")
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def simulated_learning_minutes(n_images: int, t_learn_ms: float, t_rest_ms: float = 0.0) -> float:
    """The paper's total-simulation-time metric for a learning schedule."""
    if n_images < 0:
        raise SimulationError(f"n_images must be >= 0, got {n_images}")
    return n_images * (t_learn_ms + t_rest_ms) / 60_000.0
