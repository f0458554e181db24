"""The three rounding options of Section III-C.

All functions snap floating-point arrays onto the grid of multiples of
``resolution`` (one LSB of the active Q-format):

- :func:`round_truncate` — bit truncation, i.e. round toward zero /
  downwards for the unsigned conductances used here;
- :func:`round_nearest` — round to the nearest grid point (ties away from
  zero, matching a hardware half-up rounder);
- :func:`round_stochastic` — stochastic rounding, eq. (8): the probability
  of rounding *up* equals the fractional position between the two
  neighbouring grid points, ``P_up = (x - trunc(x)) * 2^n``.

Inputs may be scalars or arrays; outputs are ``float64`` arrays (or scalars
for scalar input).  None of these functions clamp to a range — range
handling belongs to the quantiser.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backend import coerce_float64
from repro.errors import QuantizationError

ArrayLike = Union[float, np.ndarray]


def _check_resolution(resolution: float) -> None:
    if not resolution > 0.0:
        raise QuantizationError(f"resolution must be positive, got {resolution!r}")


def round_truncate(values: ArrayLike, resolution: float) -> np.ndarray:
    """Truncate *values* down onto the grid of multiples of *resolution*."""
    _check_resolution(resolution)
    arr = coerce_float64(values)
    return np.floor(arr / resolution) * resolution


def round_nearest(values: ArrayLike, resolution: float) -> np.ndarray:
    """Round *values* to the nearest multiple of *resolution*, ties up."""
    _check_resolution(resolution)
    arr = coerce_float64(values)
    return np.floor(arr / resolution + 0.5) * resolution


def stochastic_round_up_probability(values: ArrayLike, resolution: float) -> np.ndarray:
    """Eq. (8): probability of rounding up for each entry of *values*.

    ``P_up = (x - x_truncated) * 2^n`` where ``2^n = 1/resolution`` — i.e.
    the fractional position of ``x`` between its two neighbouring grid
    points.  Values already on the grid have probability 0.
    """
    _check_resolution(resolution)
    arr = coerce_float64(values)
    scaled = arr / resolution
    return scaled - np.floor(scaled)


def round_stochastic(
    values: ArrayLike, resolution: float, rng: Optional[np.random.Generator]
) -> np.ndarray:
    """Stochastically round *values* onto the grid (eq. 8).

    Each entry rounds up with probability equal to its fractional position
    between grid points and down otherwise, making the rounding unbiased in
    expectation: ``E[round(x)] = x``.
    """
    _check_resolution(resolution)
    if rng is None:
        raise QuantizationError(
            "rounding=stochastic requires a seeded RNG stream: eq. (8) draws "
            "one uniform per rounded value, so pass a generator (e.g. the "
            "'rounding' stream of RngStreams) or set rounding=nearest/"
            "truncate in QuantizationConfig"
        )
    arr = coerce_float64(values)
    scaled = arr / resolution
    down = np.floor(scaled)
    scaled -= down  # eq. (8)'s round-up probability
    down += rng.random(size=arr.shape) < scaled
    down *= resolution
    return down
