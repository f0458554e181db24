"""Integer code-domain kernels for Q-format storage.

A conductance in format ``Qm.n`` is a *code* — the integer ``k`` such that
``G = k * 2^-n``.  The float-simulated quantisation path
(:mod:`repro.quantization.quantizer`) stores the decoded float64 values and
re-snaps them after every update; :class:`QCodec` instead gives the engines
a direct integer representation:

- :meth:`QCodec.encode` / :meth:`QCodec.decode` map between float
  conductances and ``uint8``/``uint16`` codes.  Both directions are *exact*
  for on-grid values: every representable ``k * 2^-n`` (``n <= 15``) is a
  dyadic rational with an exact float64 image, so
  ``decode(encode(g)) == g`` bit for bit whenever ``g`` lies on the grid —
  the invariant the integer engine tier and the checkpoint round-trip rely
  on.
- :meth:`QCodec.delta_codes` is the code-domain image of
  ``Quantizer.quantize_delta``: the fixed-LSB fast path (±1 code for
  formats of 8 total bits or fewer) and, for wider formats, the three
  rounding options with eq. (8) stochastic rounding fused into an integer
  compare-against-random — one uniform draw per *changed* synapse, from
  whatever dedicated stream the caller supplies.

Formats wider than :data:`MAX_CODE_BITS` (16) have no integer storage tier
here; :func:`code_dtype` raises for them and callers fall back to the
float-simulated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.config.parameters import RoundingMode
from repro.errors import ConfigurationError, QuantizationError
from repro.quantization.qformat import QFormat
from repro.quantization.quantizer import FIXED_LSB_MAX_BITS, Quantizer

#: Widest format the integer code representation serves (``uint16``).
MAX_CODE_BITS = 16


def code_dtype(fmt: QFormat) -> "np.dtype[Any]":
    """The narrowest unsigned storage dtype holding *fmt*'s codes.

    ``uint8`` for formats of 8 total bits or fewer, ``uint16`` up to 16;
    wider formats raise — they stay on the float-simulated path.
    """
    if fmt.total_bits > MAX_CODE_BITS:
        raise QuantizationError(
            f"{fmt} is {fmt.total_bits} bits wide; integer code storage "
            f"supports at most {MAX_CODE_BITS} bits"
        )
    if fmt.total_bits <= 8:
        return np.dtype(np.uint8)
    return np.dtype(np.uint16)


@dataclass(frozen=True)
class QCodec:
    """Precomputed scale factors and kernels for one format + rounding mode.

    ``max_code`` is the code of the quantiser's conductance ceiling
    (``min(fmt.max_value, 1.0)``, the Table I cap), so clipping codes to
    ``[0, max_code]`` is exactly the float path's ``[g_min, g_max]`` clamp.
    """

    fmt: QFormat
    rounding: RoundingMode
    #: ``2^-n`` — the decode scale factor (one LSB).
    resolution: float
    #: ``2^n`` — the encode scale factor (exact float64 power of two).
    inv_resolution: float
    #: Code of the largest storable conductance.
    max_code: int
    #: Unsigned storage dtype (``uint8`` or ``uint16``).
    dtype: "np.dtype[Any]"
    #: Whether updates use the fixed ±1-LSB step (<= 8 total bits).
    fixed_lsb: bool

    @classmethod
    def from_quantizer(cls, quantizer: Quantizer) -> "QCodec":
        """Build the codec matching a fixed-point :class:`Quantizer`."""
        fmt = quantizer.fmt
        resolution = fmt.resolution
        inv_resolution = 1.0 / resolution
        return cls(
            fmt=fmt,
            rounding=quantizer.rounding,
            resolution=resolution,
            inv_resolution=inv_resolution,
            max_code=int(round(quantizer.g_max * inv_resolution)),
            dtype=code_dtype(fmt),
            fixed_lsb=quantizer.uses_fixed_lsb,
        )

    @property
    def code_bits(self) -> int:
        """Storage width of one code in bits (8 or 16)."""
        return int(self.dtype.itemsize) * 8

    # ------------------------------------------------------------------
    # code <-> value kernels
    # ------------------------------------------------------------------

    def encode(
        self,
        values: np.ndarray,
        dtype: Optional["np.dtype[Any]"] = None,
        xp: Any = np,
    ) -> np.ndarray:
        """Float conductances -> integer codes, clipped to ``[0, max_code]``.

        Exact (pure rescaling, no rounding error) for values already on the
        storage grid; off-grid values snap to the nearest code.  *dtype*
        overrides the storage dtype — the float shadow twin passes
        ``float64`` to keep integer-valued codes in float storage.  *xp* is
        the backend array module: conversion must go through the owning
        backend (plain ``numpy.asarray`` silently strips device residency),
        while the arithmetic dispatches on the operands by itself.
        """
        arr = xp.asarray(values, dtype=np.float64)
        codes = np.rint(arr * self.inv_resolution)
        np.clip(codes, 0.0, float(self.max_code), out=codes)
        return codes.astype(self.dtype if dtype is None else dtype)

    def encode_into(
        self, values: np.ndarray, out: np.ndarray, scratch: np.ndarray
    ) -> np.ndarray:
        """:meth:`encode` of *values* into *out*, one row block at a time.

        *scratch* is a float64 ``(block_rows, n_cols)`` work array on the
        same backend as *values* and *out*; each block of rows is rescaled,
        ``rint``-ed and clipped in it, then cast into *out*.  The codes equal
        :meth:`encode`'s for every input, off-grid, out-of-range and
        non-finite values included (NaN raises the same cast warning), with
        no full-matrix float64 temporary.
        """
        block_rows = scratch.shape[0]
        n_rows = values.shape[0]
        for start in range(0, n_rows, block_rows):
            stop = min(start + block_rows, n_rows)
            block = scratch[: stop - start]
            np.multiply(values[start:stop], self.inv_resolution, out=block)
            np.rint(block, out=block)
            np.clip(block, 0.0, float(self.max_code), out=block)
            np.copyto(out[start:stop], block, casting="unsafe")
        return out

    def decode(self, codes: np.ndarray) -> np.ndarray:
        """Integer codes -> float64 conductances (exact: ``k * 2^-n``)."""
        return np.multiply(codes, self.resolution, dtype=np.float64)

    def decode_into(self, codes: np.ndarray, out: np.ndarray) -> np.ndarray:
        """:meth:`decode` writing into a preallocated float64 array."""
        return np.multiply(codes, self.resolution, out=out, dtype=np.float64)

    # ------------------------------------------------------------------
    # code-domain synaptic drive (the integer gather/matmul paths)
    # ------------------------------------------------------------------

    def gather_drive(
        self,
        codes: np.ndarray,
        rows: np.ndarray,
        scale: float,
        out: np.ndarray,
        acc_dtype: "np.dtype[Any]",
    ) -> np.ndarray:
        """Sparse row-gather drive: sum the *rows* of *codes*, scale into *out*.

        The code-domain image of the float kernels' ``(raster @ g) *
        amplitude`` restricted to the spiking rows: the column sum runs in
        *acc_dtype* (``int64`` for integer storage, ``float64`` for the
        shadow twin — single-row and on-grid sums are exact either way) and
        *scale* is the caller's precomputed ``resolution * amplitude``, so
        the one multiply is the only rounding, of the very same real product
        the float path rounds.  The single-row fast path skips the
        reduction; a one-element sum is exact in both dtypes, so the result
        is bit-identical to the general path.
        """
        if rows.size == 1:
            return np.multiply(codes[rows[0]], scale, out=out)
        acc = codes[rows].sum(axis=0, dtype=acc_dtype)
        return np.multiply(acc, scale, out=out)

    def batched_drive(
        self, spikes: np.ndarray, codes: np.ndarray, scale: float, xp: Any = np
    ) -> np.ndarray:
        """Image-parallel drive: ``(spikes @ codes) * scale`` on integer codes.

        *spikes* is a boolean ``(n_images, n_pre)`` raster slice and *codes*
        the frozen ``(n_pre, n_neurons)`` code matrix; the matmul
        accumulates in ``int64`` (no uint8/uint16 wraparound) and the single
        *scale* multiply (``resolution * amplitude``) per presentation step
        is the only rounding.  Code sums stay below ``2^53``, so the result
        is bit-identical to the float path's ``(spikes @ g) * amplitude``
        while moving a quarter (uint16) to an eighth (uint8) of the memory
        traffic through the matmul.

        On numpy-semantics backends (numpy, guard) the accumulation dtype
        rides on the matmul itself; CuPy's ``matmul`` has no ``dtype``
        keyword, so that branch widens the operands to ``int64`` first —
        same exact integer arithmetic, one extra temporary.
        """
        if getattr(xp, "__name__", "numpy").startswith("cupy"):  # pragma: no cover
            acc = spikes.astype(np.int64) @ codes.astype(np.int64)
        else:
            acc = np.matmul(spikes.astype(np.uint8), codes, dtype=np.int64)
        return np.multiply(acc, scale, dtype=np.float64)

    # ------------------------------------------------------------------
    # fused delta rounding (the eq.-8 integer kernel)
    # ------------------------------------------------------------------

    def delta_codes(
        self,
        delta: np.ndarray,
        rng: Optional[Any] = None,
        xp: Any = np,
    ) -> np.ndarray:
        """Code-domain image of ``Quantizer.quantize_delta`` for *delta*.

        Returns an integer-valued float64 array of signed code increments.
        In the fixed-LSB regime the computed magnitude is replaced by
        ``sign(delta)`` — one LSB per event, zero RNG draws (Section
        III-C).  Wider formats scale by ``2^n`` and round: truncate and
        nearest are deterministic; stochastic rounding is eq. (8) as an
        integer compare-against-random, drawing **one uniform per changed
        entry** (``delta != 0``) from *rng* in C order — the quantity the
        float-simulated path spends a full-matrix draw on.  On a device
        backend, pass *xp* plus a :class:`~repro.engine.rng.DeviceRng` so
        draws stay host-ordered while the compare runs on device.
        """
        arr = xp.asarray(delta, dtype=np.float64)
        if self.fixed_lsb:
            return np.sign(arr)
        scaled = arr * self.inv_resolution
        if self.rounding is RoundingMode.TRUNCATE:
            return np.floor(scaled)
        if self.rounding is RoundingMode.NEAREST:
            return np.floor(scaled + 0.5)
        down = np.floor(scaled)
        frac = scaled - down
        changed = np.flatnonzero(arr)
        if changed.size:
            if rng is None:
                raise QuantizationError(
                    "stochastic rounding requires a seeded RNG stream: the "
                    "config selected rounding=stochastic (eq. 8), which "
                    "draws one uniform per changed synapse; pass the "
                    "dedicated 'qrounding' stream (RngStreams.qrounding)"
                )
            draws = rng.random(size=changed.size)
            flat = down.reshape(-1)
            flat[changed] += draws < frac.reshape(-1)[changed]
        return down

    def apply_delta_codes(
        self,
        codes: np.ndarray,
        cols: np.ndarray,
        delta_codes: np.ndarray,
        mask_cols: Optional[np.ndarray] = None,
    ) -> None:
        """Scatter signed code increments onto the *cols* columns of *codes*.

        Generalised over the storage dtype: unsigned-integer storage
        widens to ``int64`` for the add (no wraparound), saturates into
        ``[0, max_code]`` and narrows back; the float shadow twin's
        ``float64`` code array takes the same arithmetic directly.  Both
        produce identical integer values — the dtype-equivalence contract
        of the ``qfused`` tier.  *mask_cols* (connectivity restricted to
        *cols*) zeroes permanently-absent synapses, matching
        ``ConductanceMatrix.apply_delta_columns``.
        """
        if codes.dtype.kind == "u":
            updated = codes[:, cols].astype(np.int64)
            updated += delta_codes.astype(np.int64)
            np.clip(updated, 0, self.max_code, out=updated)
            updated = updated.astype(codes.dtype)
        else:
            updated = codes[:, cols] + delta_codes
            np.clip(updated, 0.0, float(self.max_code), out=updated)
        if mask_cols is not None:
            updated = np.where(mask_cols, updated, 0)
        codes[:, cols] = updated


def require_codec(quantizer: object, engine: str) -> QCodec:
    """The :class:`QCodec` for an integer-native *engine*, or a config error.

    The integer tiers (``qfused``, ``qbatched``) share the same
    two admission requirements: a fixed-point quantization config, narrow
    enough for the unsigned code storage.  Violations raise
    :class:`~repro.errors.ConfigurationError` naming the engine and the fix.
    """
    if not isinstance(quantizer, Quantizer):
        raise ConfigurationError(
            f"the {engine} engine stores conductances as fixed-point codes "
            f"and needs a Q-format config; set quantization.fmt (e.g. "
            f"fmt='Q1.7') or use a float64-capable engine"
        )
    if quantizer.fmt.total_bits > MAX_CODE_BITS:
        raise ConfigurationError(
            f"{engine} stores codes in at most {MAX_CODE_BITS} bits, but "
            f"quantization.fmt={quantizer.fmt} is "
            f"{quantizer.fmt.total_bits} bits wide; choose a format of "
            f"{MAX_CODE_BITS} bits or fewer, or use a float64-capable engine"
        )
    return QCodec.from_quantizer(quantizer)


def codec_for(quantizer: object) -> Optional[QCodec]:
    """The :class:`QCodec` serving *quantizer*, or ``None``.

    ``None`` when the quantiser is floating point or the format is wider
    than :data:`MAX_CODE_BITS` — the callers' signal to stay on the
    float-simulated path.
    """
    if not isinstance(quantizer, Quantizer):
        return None
    if quantizer.fmt.total_bits > MAX_CODE_BITS:
        return None
    return QCodec.from_quantizer(quantizer)


__all__ = [
    "FIXED_LSB_MAX_BITS",
    "MAX_CODE_BITS",
    "QCodec",
    "code_dtype",
    "codec_for",
    "require_codec",
]
