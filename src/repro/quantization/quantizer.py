"""Quantiser objects binding a storage format to a rounding option.

The learning module talks to a single small interface:

- ``quantize(values, rng)`` — snap a conductance array onto the storage
  grid with the configured rounding option and clamp it into range;
- ``quantize_into(values, out, rng)`` — the same, written into *out* one
  block of :data:`ENCODE_BLOCK_ROWS` rows at a time, so a full-matrix pass
  makes no full-matrix temporary;
- ``quantize_delta(delta, rng)`` — quantise a conductance *change* before it
  is applied ("Quantization for low precision learning is performed before
  the LTP/LTD phase", Section III-C), rounding only its nonzero entries;
- ``lsb_delta()`` — the fixed per-event step ``1/2^n`` used for 8-bit and
  lower precisions;
- ``uses_fixed_lsb`` — whether that fixed step is active for this format.

:func:`make_quantizer` builds the right object from a
:class:`repro.config.QuantizationConfig`: a :class:`FloatQuantizer` no-op
for 32-bit floating point, a :class:`Quantizer` otherwise.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backend import coerce_float64
from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.errors import QuantizationError
from repro.quantization.qformat import QFormat, parse_qformat
from repro.quantization.rounding import round_nearest, round_stochastic, round_truncate

#: Total bit widths at or below which the paper replaces the computed
#: conductance change with the fixed one-LSB step (Section III-C).
FIXED_LSB_MAX_BITS = 8

#: Rows per block of the full-matrix passes over the conductances that need
#: work arrays (quantise, encode, the integer batched drive): 64 rows of 1000
#: neurons is 512 kB of float64, where a whole-matrix temporary is 6.3 MB at
#: the paper's 784 x 1000 size.
ENCODE_BLOCK_ROWS = 64


class FloatQuantizer:
    """Identity quantiser for 32-bit floating-point learning."""

    #: Floating point has no fixed-LSB regime.
    uses_fixed_lsb: bool = False

    @property
    def fmt(self) -> Optional[QFormat]:
        return None

    @property
    def g_min(self) -> float:
        return 0.0

    @property
    def g_max(self) -> float:
        return 1.0

    def quantize(self, values: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Clamp into [g_min, g_max]; no grid snapping in floating point."""
        return np.clip(coerce_float64(values), self.g_min, self.g_max)

    def quantize_into(
        self,
        values: np.ndarray,
        out: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """:meth:`quantize` written into *out*, which may be *values* itself.

        Clipping is elementwise, so it needs no temporary at all.
        """
        return np.clip(values, self.g_min, self.g_max, out=out)

    def quantize_delta(
        self, delta: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Floating-point deltas pass through unchanged."""
        return coerce_float64(delta)

    def lsb_delta(self) -> float:
        raise QuantizationError("floating-point learning has no fixed LSB step")

    def describe(self) -> str:
        return "float32 (no quantisation)"


class Quantizer:
    """Fixed-point quantiser with one of the three rounding options."""

    def __init__(self, fmt: QFormat, rounding: RoundingMode) -> None:
        self._fmt = fmt
        self._rounding = rounding

    @property
    def fmt(self) -> QFormat:
        return self._fmt

    @property
    def rounding(self) -> RoundingMode:
        return self._rounding

    @property
    def uses_fixed_lsb(self) -> bool:
        """Whether this width uses the fixed ``1/2^n`` per-event step."""
        return self._fmt.total_bits <= FIXED_LSB_MAX_BITS

    @property
    def g_min(self) -> float:
        return self._fmt.min_value

    @property
    def g_max(self) -> float:
        """Largest conductance this format stores, capped at the paper's 1.0.

        Formats with integer bits (``Q1.7``, ``Q1.15``) can represent values
        above 1, but Table I fixes ``G_max = 1`` — the integer bit exists so
        1.0 itself is representable.  Narrow formats cannot reach 1; e.g.
        ``Q0.2`` tops out at 0.75 and learns in that reduced range.
        """
        return min(self._fmt.max_value, 1.0)

    def _round(self, values: np.ndarray, rng: Optional[np.random.Generator]) -> np.ndarray:
        res = self._fmt.resolution
        if self._rounding is RoundingMode.TRUNCATE:
            return round_truncate(values, res)
        if self._rounding is RoundingMode.NEAREST:
            return round_nearest(values, res)
        return round_stochastic(values, res, rng)

    def quantize(self, values: np.ndarray, rng: Optional[np.random.Generator] = None) -> np.ndarray:
        """Snap *values* onto the storage grid and clamp into [g_min, g_max]."""
        arr = coerce_float64(values)
        return np.clip(self._round(arr, rng), self.g_min, self.g_max)

    def quantize_into(
        self,
        values: np.ndarray,
        out: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """:meth:`quantize` of *values* written into *out*, one row block at a time.

        Each block of :data:`ENCODE_BLOCK_ROWS` rows is rounded and clamped
        into the same rows of *out*, which may be *values* itself, so the
        temporaries are block-sized.  Values and the end state of *rng* equal
        :meth:`quantize`'s: stochastic rounding draws one uniform per entry
        in C order, and a C-order draw over the whole array is the
        concatenation of its row blocks' draws.
        """
        for start in range(0, values.shape[0], ENCODE_BLOCK_ROWS):
            rows = slice(start, start + ENCODE_BLOCK_ROWS)
            np.clip(self._round(values[rows], rng), self.g_min, self.g_max, out=out[rows])
        return out

    def quantize_delta(
        self, delta: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> np.ndarray:
        """Quantise a conductance change before the LTP/LTD phase.

        For <= 8-bit formats the magnitude is replaced by one LSB with the
        original sign (Section III-C); for wider formats the computed change
        is rounded onto the grid with the configured rounding option.  Only
        the nonzero entries are rounded: a zero change stays zero under
        every option, so stochastic rounding draws one uniform per changed
        synapse, in C order, and none for the rest.
        """
        arr = coerce_float64(delta)
        if self.uses_fixed_lsb:
            return np.sign(arr) * self._fmt.resolution
        out = np.zeros(arr.shape, dtype=np.float64)
        changed = arr != 0.0
        out[changed] = self._round(arr[changed], rng)
        return out

    def lsb_delta(self) -> float:
        """The fixed per-event conductance step for low-precision learning."""
        return self._fmt.resolution

    def describe(self) -> str:
        return f"{self._fmt} ({self._rounding.value} rounding)"


def make_quantizer(config: QuantizationConfig) -> Union[FloatQuantizer, Quantizer]:
    """Build the quantiser implied by *config* (float or fixed point)."""
    if config.is_floating_point:
        return FloatQuantizer()
    return Quantizer(parse_qformat(config.fmt), config.rounding)
