"""Sparse event-list view of a pre-generated input spike raster.

A pre-generated input raster is a dense ``(n_steps, n_channels)`` boolean
matrix.  At the paper's rate-coding parameters it is extremely sparse
*per channel* (a 78 Hz channel fires on ~8% of 1 ms steps; a 1 Hz
background channel on ~0.1%), so the gather kernels want the transpose
view: *which channels fire at each step*, plus *which steps carry any
event at all*.

:func:`sparsify` converts a raster from ``generate_train`` (leaving the
encoding RNG stream untouched — the draw already happened) into a
:class:`SparseRaster`: a CSR-like concatenated channel-index array with
per-step offsets.  The occupancy statistics it exposes are the measured
counterparts of the sparsity assumptions the gather kernels rely on;
perfbench's ``encoding`` layer reports :attr:`SparseRaster.cell_occupancy`
pooled over every raster a run draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.backend import asnumpy
from repro.errors import SimulationError


@dataclass(frozen=True)
class SparseRaster:
    """Per-step event column lists for one presentation's input raster.

    ``channels[offsets[j]:offsets[j + 1]]`` are the input channels spiking
    at step ``j`` (sorted ascending); ``event_steps`` lists the steps with
    at least one event, in order.
    """

    n_steps: int
    n_channels: int
    #: Concatenated spiking-channel indices, grouped by step.
    channels: np.ndarray
    #: ``(n_steps + 1,)`` prefix offsets into :attr:`channels`.
    offsets: np.ndarray
    #: Indices of steps carrying at least one input event.
    event_steps: np.ndarray

    def rows(self, step: int) -> np.ndarray:
        """The channels spiking at *step* (possibly empty, sorted)."""
        return self.channels[self.offsets[step] : self.offsets[step + 1]]

    @property
    def n_events(self) -> int:
        """Total number of ``(step, channel)`` spike cells."""
        return int(self.channels.size)

    @property
    def cell_occupancy(self) -> float:
        """Fraction of raster cells that are active (the matrix density)."""
        cells = self.n_steps * self.n_channels
        return self.n_events / cells if cells else 0.0

    @property
    def step_occupancy(self) -> float:
        """Fraction of steps carrying at least one input event.

        ``1 - step_occupancy`` of the presentation is input-quiescent: those
        steps inject no drive, so the event kernels skip their gather.
        """
        return self.event_steps.size / self.n_steps if self.n_steps else 0.0

    @property
    def events_per_step(self) -> float:
        """Mean active channels per step (the injection gather width)."""
        return self.n_events / self.n_steps if self.n_steps else 0.0


def sparsify(raster: np.ndarray) -> SparseRaster:
    """Convert a boolean ``(n_steps, n_channels)`` raster to event lists.

    One ``np.flatnonzero`` pass over the raster finds the active cells in
    row-major order, and ``divmod`` by ``n_channels`` splits each flat
    index into its step and channel, so the channels come out grouped by
    step and sorted within each step.  The offsets are a ``searchsorted``
    over the step indices, and the event steps are the steps whose offsets
    grow.  Equal to the 2-D ``np.nonzero`` + ``np.unique`` formulation,
    without its second index array and sort.
    """
    # Event lists are host index structures by contract; cross explicitly
    # through the backend's converter (a raster generated with an ``ops``
    # upload may arrive device-resident).
    raster = asnumpy(raster)
    if raster.ndim != 2:
        raise SimulationError(f"raster must be 2-D (steps, channels), got shape {raster.shape}")
    n_steps, n_channels = raster.shape
    step_idx, channels = np.divmod(np.flatnonzero(raster), n_channels)
    offsets = np.searchsorted(step_idx, np.arange(n_steps + 1))
    event_steps = np.flatnonzero(np.diff(offsets))
    return SparseRaster(
        n_steps=int(n_steps),
        n_channels=int(n_channels),
        channels=np.ascontiguousarray(channels, dtype=np.intp),
        offsets=np.ascontiguousarray(offsets, dtype=np.intp),
        event_steps=np.ascontiguousarray(event_steps, dtype=np.intp),
    )
