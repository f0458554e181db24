"""R6 fixture: direct numpy creation/conversion in a backend-generic kernel.

Linted under an in-scope display path (``src/repro/engine/plasticity.py``) by
the test suite; every call below must be flagged — each one pins an array
to the host (or silently strips device residency) no matter which backend
the kernel was constructed on.
"""

import numpy as np


def run(xp, device_array, n):
    state = np.zeros(n, dtype=np.float64)
    scratch = np.empty((n, n), dtype=np.float64)
    host = np.asarray(device_array)
    steps = np.arange(n)
    return state, scratch, host, steps
