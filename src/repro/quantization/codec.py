"""Integer code-domain kernels for Q-format storage.

A conductance in format ``Qm.n`` is a *code* — the integer ``k`` such that
``G = k * 2^-n``.  The float-simulated quantisation path
(:mod:`repro.quantization.quantizer`) stores the decoded float64 values,
on the grid; :class:`QCodec` instead gives the engines a direct integer
representation:

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
  compare-against-random — one uniform draw per *changed* synapse, the
  draws ``Quantizer.quantize_delta`` makes.

Formats wider than :data:`MAX_CODE_BITS` (16) have no integer storage tier
here; :func:`code_dtype` raises for them and callers fall back to the
float-simulated path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

import numpy as np

from repro.backend import coerce_float64
from repro.config.parameters import RoundingMode
from repro.errors import ConfigurationError, QuantizationError
from repro.quantization.qformat import QFormat
from repro.quantization.quantizer import ENCODE_BLOCK_ROWS, FIXED_LSB_MAX_BITS, Quantizer

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

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Float conductances -> integer codes, clipped to ``[0, max_code]``.

        Exact (pure rescaling, no rounding error) for values already on the
        storage grid; off-grid values snap to the nearest code.  The
        reference formulation of :meth:`encode_into`, which the program
        uses: this one makes two full-size float64 temporaries.
        """
        arr = coerce_float64(values)
        codes = np.rint(arr * self.inv_resolution)
        np.clip(codes, 0.0, float(self.max_code), out=codes)
        return codes.astype(self.dtype)

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
    # code-domain synaptic drive (the image-parallel matmul path)
    # ------------------------------------------------------------------

    def batched_drive(
        self, spikes: np.ndarray, codes: np.ndarray, scale: float, xp: Any = np
    ) -> np.ndarray:
        """Image-parallel drive: ``(spikes @ codes) * scale`` on integer codes.

        *spikes* is a boolean ``(n_images, n_pre)`` raster slice and *codes*
        the frozen ``(n_pre, n_neurons)`` code matrix.  The product is summed
        in ``int64`` (no uint8/uint16 wraparound) over blocks of
        :data:`ENCODE_BLOCK_ROWS` code rows, and the single *scale* multiply
        (``resolution * amplitude``) per presentation step is the only
        rounding.  Integer sums are exact in any grouping and stay below
        ``2^53``, so the result is bit-identical to the float path's
        ``(spikes @ g) * amplitude``.

        numpy runs an ``int64`` matmul as a plain loop without BLAS, on
        operands cast to ``int64``.  At the paper's 784 x 1000 size a
        whole-matrix product casts the codes to a 6.1 MB copy on every step;
        each block's cast is 512 kB and stays in cache.  At 10 images on a
        2-vCPU host a step took 13.4-14.2 ms whole and 7.0-8.8 ms in blocks.

        On numpy-semantics backends (numpy, guard) the accumulation dtype
        rides on the matmul itself; CuPy's ``matmul`` has no ``dtype``
        keyword, so that branch widens each block's operands to ``int64``
        first — the same exact integer arithmetic.
        """
        cupy = getattr(xp, "__name__", "numpy").startswith("cupy")

        def block_sum(start: int) -> np.ndarray:
            rows = slice(start, start + ENCODE_BLOCK_ROWS)
            if cupy:  # pragma: no cover
                return spikes[:, rows].astype(np.int64) @ codes[rows].astype(np.int64)
            return np.matmul(spikes[:, rows], codes[rows], dtype=np.int64)

        acc = block_sum(0)
        for start in range(ENCODE_BLOCK_ROWS, codes.shape[0], ENCODE_BLOCK_ROWS):
            acc += block_sum(start)
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
        entry** (``delta != 0``) from *rng* in C order — the draws
        ``Quantizer.quantize_delta`` makes.  On a device backend, pass *xp*
        plus a :class:`~repro.engine.rng.DeviceRng` so draws stay
        host-ordered while the compare runs on device.
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
                    "'learning' stream (RngStreams.learning)"
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
    ) -> None:
        """Scatter signed code increments onto the *cols* columns of *codes*.

        The unsigned codes widen to ``int64`` for the add (no wraparound),
        saturate into ``[0, max_code]`` and narrow back.
        """
        updated = codes[:, cols].astype(np.int64)
        updated += delta_codes.astype(np.int64)
        np.clip(updated, 0, self.max_code, out=updated)
        codes[:, cols] = updated.astype(codes.dtype)


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
    "ENCODE_BLOCK_ROWS",
    "FIXED_LSB_MAX_BITS",
    "MAX_CODE_BITS",
    "QCodec",
    "code_dtype",
    "codec_for",
    "require_codec",
]
