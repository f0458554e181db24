"""Poisson spike-train encoder: one independent train per pixel.

Each pixel's train emits a spike in a time step of width ``dt`` with
probability ``f * dt`` (``f`` in Hz, ``dt`` in seconds), the standard
Bernoulli approximation of a Poisson process, valid for ``f * dt << 1``
(22 Hz at 1 ms gives 0.022).  The encoder is stateless between steps apart
from the image currently loaded, so presenting a new image is just
:meth:`set_image`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.backend.ops import Ops
from repro.config.parameters import EncodingParameters
from repro.encoding.rate import intensity_to_frequency
from repro.errors import DatasetError, SimulationError

#: Steps per uniform draw in :meth:`PoissonEncoder.generate_train`: 64 steps
#: of 784 channels is a 401 kB float64 buffer, small enough to stay in
#: cache between the draw and the compare.  It is allocated per call: a
#: buffer kept on the encoder raised a 28x28 benchmark's peak RSS.
DRAW_BLOCK_STEPS = 64


class PoissonEncoder:
    """Generates Bernoulli/Poisson spike trains for ``n_pixels`` channels."""

    def __init__(self, n_pixels: int, params: EncodingParameters) -> None:
        if n_pixels < 1:
            raise DatasetError(f"n_pixels must be >= 1, got {n_pixels}")
        self.n_pixels = int(n_pixels)
        self.params = params
        self._freq_hz: Optional[np.ndarray] = None

    @property
    def frequencies_hz(self) -> Optional[np.ndarray]:
        """Per-channel frequencies for the loaded image, or ``None``."""
        return self._freq_hz

    def set_image(self, image: np.ndarray) -> None:
        """Load an image; its flattened pixels drive the trains."""
        flat = np.asarray(image).reshape(-1)  # host API input  # lint-ok: R6
        if flat.shape != (self.n_pixels,):
            raise DatasetError(
                f"image has {flat.size} pixels, encoder expects {self.n_pixels}"
            )
        self._freq_hz = intensity_to_frequency(flat, self.params)

    def clear(self) -> None:
        """Unload the image; subsequent steps emit no spikes (rest phase)."""
        self._freq_hz = None

    def step(self, dt_ms: float, rng: np.random.Generator) -> np.ndarray:
        """One time step of spikes as a boolean mask of shape ``(n_pixels,)``."""
        if self._freq_hz is None:
            return np.zeros(self.n_pixels, dtype=bool)  # host raster  # lint-ok: R6
        if dt_ms <= 0.0:
            raise SimulationError(f"dt_ms must be positive, got {dt_ms}")
        p = self._freq_hz * (dt_ms / 1000.0)
        return rng.random(self.n_pixels) < p

    def generate_train(
        self,
        n_steps: int,
        dt_ms: float,
        rng: np.random.Generator,
        ops: Optional[Ops] = None,
    ) -> np.ndarray:
        """Pre-draw *n_steps* of spikes for the loaded image.

        The uniforms are drawn :data:`DRAW_BLOCK_STEPS` steps at a time into
        one buffer, reused block after block, and compared against the
        spike probabilities.  ``Generator.random`` fills its output from
        the same underlying stream in C order, so the raster equals
        ``rng.random((n_steps, n_pixels)) < p``: row ``i`` is bit-identical
        to the ``i``-th sequential :meth:`step` draw, and the generator is
        left in the same state.  That is what lets the gather kernels swap
        per-step draws for block draws without perturbing reproducibility,
        and without an ``(n_steps, n_pixels)`` float64 temporary.

        The raster is always *computed* on the host — randomness is
        host-drawn on every backend so spike trains stay bit-identical —
        and then uploaded through ``ops`` when one is given.  Uploading the
        boolean raster (1 byte/step/pixel) instead of drawing on device
        keeps the transfer 8x smaller than the float draw it replaces.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        if dt_ms <= 0.0:
            raise SimulationError(f"dt_ms must be positive, got {dt_ms}")
        if self._freq_hz is None:
            raster = np.zeros((n_steps, self.n_pixels), dtype=bool)  # host raster  # lint-ok: R6
        else:
            p = self._freq_hz * (dt_ms / 1000.0)
            raster = np.empty((n_steps, self.n_pixels), dtype=bool)  # host raster  # lint-ok: R6
            block_steps = min(DRAW_BLOCK_STEPS, n_steps)
            uniforms = np.empty((block_steps, self.n_pixels))  # host draws  # lint-ok: R6
            for start in range(0, n_steps, DRAW_BLOCK_STEPS):
                stop = min(start + DRAW_BLOCK_STEPS, n_steps)
                block = uniforms[: stop - start]
                rng.random(out=block)
                np.less(block, p, out=raster[start:stop])
        if ops is None:
            return raster
        return ops.to_device(raster)

    def generate(
        self, image: np.ndarray, duration_ms: float, dt_ms: float, rng: np.random.Generator
    ) -> np.ndarray:
        """A full raster ``(n_steps, n_pixels)`` for *image* (Fig. 6a data)."""
        self.set_image(image)
        n_steps = int(round(duration_ms / dt_ms))
        raster = np.empty((n_steps, self.n_pixels), dtype=bool)  # host raster  # lint-ok: R6
        for i in range(n_steps):
            raster[i] = self.step(dt_ms, rng)
        return raster
