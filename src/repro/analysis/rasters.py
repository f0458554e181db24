"""Spike-raster utilities (Fig. 6a).

Fig. 6a shows input spike trains at low vs high frequency ("each dot
represents one spike") — the high-frequency raster makes the digit's dark
region visibly denser.  These helpers turn boolean raster arrays into
densities and ASCII dot plots.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import SimulationError


def spike_density(raster: np.ndarray) -> Tuple[np.ndarray, float]:
    """Per-channel spike counts and the overall density of a raster.

    Returns ``(counts_per_channel, fraction_of_cells_active)``.
    """
    arr = np.asarray(raster, dtype=bool)
    if arr.ndim != 2:
        raise SimulationError(f"raster must be 2-D, got shape {arr.shape}")
    counts = arr.sum(axis=0)
    density = float(arr.mean()) if arr.size else 0.0
    return counts, density


def mean_rate_hz(raster: np.ndarray, dt_ms: float = 1.0) -> float:
    """Population mean firing rate implied by a boolean raster."""
    arr = np.asarray(raster, dtype=bool)
    if arr.ndim != 2 or arr.size == 0:
        raise SimulationError(f"raster must be non-empty 2-D, got shape {arr.shape}")
    duration_s = arr.shape[0] * dt_ms / 1000.0
    return float(arr.sum() / (arr.shape[1] * duration_s))


def ascii_raster(
    raster: np.ndarray, max_channels: int = 40, max_steps: int = 120
) -> str:
    """Dot plot of a raster: rows = channels, columns = time (Fig. 6a).

    Large rasters are subsampled to at most ``max_channels`` rows and
    ``max_steps`` columns (a cell is '|' if any subsumed step spiked).
    """
    arr = np.asarray(raster, dtype=bool)
    if arr.ndim != 2:
        raise SimulationError(f"raster must be 2-D, got shape {arr.shape}")
    steps, channels = arr.shape
    row_stride = max(1, channels // max_channels)
    col_stride = max(1, steps // max_steps)
    lines = []
    for ch in range(0, channels, row_stride):
        cells = []
        for st in range(0, steps, col_stride):
            block = arr[st : st + col_stride, ch : ch + row_stride]
            cells.append("|" if block.any() else ".")
        lines.append("".join(cells))
    return "\n".join(lines)
