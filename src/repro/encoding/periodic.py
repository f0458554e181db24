"""Strictly periodic spike-train encoder.

The deterministic alternative to :class:`~repro.encoding.poisson.PoissonEncoder`:
each channel fires at exact intervals of ``1000 / f`` ms with a random
initial phase (so channels at equal frequency do not fire in lock-step).
Used by the Poisson-vs-periodic ablation bench and by tests that need exact
spike counts.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.ops import Ops
from repro.config.parameters import EncodingParameters
from repro.encoding.rate import intensity_to_frequency
from repro.errors import DatasetError, SimulationError


class PeriodicEncoder:
    """Deterministic periodic trains for ``n_pixels`` channels."""

    def __init__(
        self, n_pixels: int, params: EncodingParameters, random_phase: bool = True
    ) -> None:
        if n_pixels < 1:
            raise DatasetError(f"n_pixels must be >= 1, got {n_pixels}")
        self.n_pixels = int(n_pixels)
        self.params = params
        self.random_phase = random_phase
        self._freq_hz: Optional[np.ndarray] = None
        # Accumulated phase per channel, in cycles.  A spike fires whenever
        # the integer part advances.
        self._phase = np.zeros(n_pixels, dtype=np.float64)

    @property
    def frequencies_hz(self) -> Optional[np.ndarray]:
        return self._freq_hz

    def set_image(self, image: np.ndarray, rng: Optional[np.random.Generator] = None) -> None:
        """Load an image and reset phases (randomised when enabled)."""
        flat = np.asarray(image).reshape(-1)
        if flat.shape != (self.n_pixels,):
            raise DatasetError(
                f"image has {flat.size} pixels, encoder expects {self.n_pixels}"
            )
        self._freq_hz = intensity_to_frequency(flat, self.params)
        if self.random_phase and rng is not None:
            self._phase = rng.random(self.n_pixels)
        else:
            self._phase = np.zeros(self.n_pixels, dtype=np.float64)

    def clear(self) -> None:
        self._freq_hz = None

    def step(self, dt_ms: float, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Advance phases by one step; spike where a cycle boundary passed."""
        if self._freq_hz is None:
            return np.zeros(self.n_pixels, dtype=bool)
        if dt_ms <= 0.0:
            raise SimulationError(f"dt_ms must be positive, got {dt_ms}")
        before = np.floor(self._phase)
        self._phase = self._phase + self._freq_hz * (dt_ms / 1000.0)
        return np.floor(self._phase) > before

    def generate_train(
        self,
        n_steps: int,
        dt_ms: float,
        rng: Optional[np.random.Generator] = None,
        ops: Optional[Ops] = None,
    ) -> np.ndarray:
        """Pre-compute *n_steps* of spikes from the current phases at once.

        Bit-identical to *n_steps* sequential :meth:`step` calls: the phase
        trajectory is built with a sequential cumulative sum of the per-step
        increment (the same floating-point additions the step loop performs),
        and ``self._phase`` is advanced to the final row so interleaving
        :meth:`generate_train` with :meth:`step` stays exact.  *rng* is
        accepted for signature parity with the Poisson encoder; periodic
        trains consume no randomness after :meth:`set_image`.

        As with the Poisson encoder, the raster is computed on the host
        (phase state is host-side) and uploaded through ``ops`` when given.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        if dt_ms <= 0.0:
            raise SimulationError(f"dt_ms must be positive, got {dt_ms}")
        if self._freq_hz is None or n_steps == 0:
            raster = np.zeros((n_steps, self.n_pixels), dtype=bool)
        else:
            increments = np.empty((n_steps + 1, self.n_pixels), dtype=np.float64)
            increments[0] = self._phase
            increments[1:] = self._freq_hz * (dt_ms / 1000.0)
            phases = np.cumsum(increments, axis=0)
            floors = np.floor(phases)
            self._phase = phases[-1]
            raster = floors[1:] > floors[:-1]
        if ops is None:
            return raster
        return ops.to_device(raster)

    def generate(
        self,
        image: np.ndarray,
        duration_ms: float,
        dt_ms: float,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """A full raster ``(n_steps, n_pixels)`` for *image*."""
        self.set_image(image, rng)
        n_steps = int(round(duration_ms / dt_ms))
        raster = np.empty((n_steps, self.n_pixels), dtype=bool)
        for i in range(n_steps):
            raster[i] = self.step(dt_ms)
        return raster
