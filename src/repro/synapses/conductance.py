"""The plastic conductance matrix (the learned state of the network).

``ConductanceMatrix`` stores the all-to-all synapse conductances between the
input spike trains and the first neuron layer as a dense ``(n_pre, n_post)``
array.  It owns:

- random initialisation in a configurable band (Section III-D initialises
  every synapse randomly);
- clamping into ``[g_min, g_max]`` — in fixed-point learning the effective
  ceiling is the largest representable value of the storage format;
- quantised application of conductance deltas via a quantiser from
  :mod:`repro.quantization`, so every write respects the storage grid.

The learning rules compute *which* synapses change and by how much; this
class is the only place conductances are actually mutated, which keeps the
range/grid invariants in one spot (asserted by the property-based tests).
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.backend import coerce_float64
from repro.errors import TopologyError
from repro.quantization.quantizer import FloatQuantizer, Quantizer

AnyQuantizer = Union[FloatQuantizer, Quantizer]

#: Seed of the fallback initialisation generator when a
#: :class:`ConductanceMatrix` is built without *rng*.  Network construction
#: always passes the ``init`` stream of :class:`~repro.engine.rng.RngStreams`;
#: the fixed fallback keeps ad-hoc construction deterministic too
#: (determinism rule R1 forbids seedless ``default_rng()``).
DEFAULT_INIT_SEED = 0


class ConductanceMatrix:
    """Dense plastic ``(n_pre, n_post)`` conductances with quantised storage."""

    def __init__(
        self,
        n_pre: int,
        n_post: int,
        quantizer: Optional[AnyQuantizer] = None,
        g_init_low: float = 0.2,
        g_init_high: float = 0.6,
        rng: Optional[np.random.Generator] = None,
        connectivity: Optional[np.ndarray] = None,
    ) -> None:
        """*connectivity*, when given, is a boolean ``(n_pre, n_post)`` mask:
        ``False`` entries are permanently absent synapses — initialised to
        zero and immune to every later update (sparse wiring support)."""
        if n_pre < 1 or n_post < 1:
            raise TopologyError(
                f"conductance matrix needs n_pre, n_post >= 1, got ({n_pre}, {n_post})"
            )
        self._n_pre = int(n_pre)
        self._n_post = int(n_post)
        self.quantizer = quantizer if quantizer is not None else FloatQuantizer()
        if not (self.quantizer.g_min <= g_init_low <= g_init_high):
            raise TopologyError(
                f"initial band [{g_init_low}, {g_init_high}] invalid for "
                f"g_min={self.quantizer.g_min}"
            )
        if connectivity is not None:
            connectivity = np.asarray(connectivity, dtype=bool)
            if connectivity.shape != (n_pre, n_post):
                raise TopologyError(
                    f"connectivity mask must have shape ({n_pre}, {n_post}), "
                    f"got {connectivity.shape}"
                )
        self._mask = connectivity
        rng = rng if rng is not None else np.random.default_rng(DEFAULT_INIT_SEED)
        high = min(g_init_high, self.quantizer.g_max)
        low = min(g_init_low, high)
        # The uniform draw becomes the storage and is quantised in place.
        self._g = rng.uniform(low, high, size=(n_pre, n_post))
        self.quantizer.quantize_into(self._g, self._g, rng)
        if self._mask is not None:
            self._g[~self._mask] = 0.0

    @property
    def n_pre(self) -> int:
        return self._n_pre

    @property
    def n_post(self) -> int:
        return self._n_post

    @property
    def g(self) -> np.ndarray:
        """The conductance array itself, shape ``(n_pre, n_post)``."""
        return self._g

    @property
    def g_min(self) -> float:
        return self.quantizer.g_min

    @property
    def g_max(self) -> float:
        return self.quantizer.g_max

    def apply_delta(
        self, delta: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> None:
        """Apply a (pre x post) conductance change, quantised and clamped.

        *delta* must be broadcastable to the matrix shape.  The change is
        quantised *before* being applied (Section III-C: "Quantization for
        low precision learning is performed before the LTP/LTD phase") and
        the result is re-quantised to guarantee the storage grid invariant
        even after floating-point accumulation.

        The update mutates the stored array rather than rebinding it, so
        views of :attr:`g` handed out earlier keep observing the live
        conductances — the gather kernels and the batched-inference engine
        rely on that to avoid re-fetching the matrix every step.
        """
        delta = np.asarray(delta, dtype=np.float64)
        try:
            delta = np.broadcast_to(delta, self._g.shape)
        except ValueError as exc:
            raise TopologyError(
                f"delta shape {delta.shape} not broadcastable to {self._g.shape}"
            ) from exc
        quantized_delta = np.where(
            delta != 0.0, self.quantizer.quantize_delta(delta, rng), 0.0
        )
        np.add(self._g, quantized_delta, out=self._g)
        if isinstance(self.quantizer, FloatQuantizer):
            # Float storage: quantize == clip, which runs fully in place.
            np.clip(self._g, self.quantizer.g_min, self.quantizer.g_max, out=self._g)
        else:
            np.copyto(self._g, self.quantizer.quantize(self._g, rng))
        if self._mask is not None:
            self._g[~self._mask] = 0.0

    def apply_delta_columns(
        self,
        cols: np.ndarray,
        delta_cols: np.ndarray,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Apply a delta restricted to the *cols* post-neuron columns.

        Value-equivalent to :meth:`apply_delta` with a full matrix that is
        zero outside *cols*: stored conductances are already on the storage
        grid and inside ``[g_min, g_max]``, so re-quantising the untouched
        columns is the identity and can be skipped.  The fused training
        kernel uses this to make each STDP event cost ``O(n_pre * k)``
        instead of ``O(n_pre * n_post)``, ``k`` being the number of neurons
        that spiked (usually 1 under winner-take-all).

        With *stochastic rounding* the skipped columns would have consumed
        RNG draws in the full-matrix path, so callers needing bit-identical
        streams must not use this method then (the fused kernel falls back
        to :meth:`apply_delta` in that case).
        """
        if not isinstance(cols, np.ndarray):
            # List/tuple input carries no residency to strip.
            cols = np.asarray(cols)  # lint-ok: R8
        delta_cols = coerce_float64(delta_cols)
        expected = (self.n_pre, cols.shape[0]) if cols.ndim else (self.n_pre,)
        if delta_cols.shape != expected:
            raise TopologyError(
                f"delta_cols must have shape {expected}, got {delta_cols.shape}"
            )
        quantized_delta = np.where(
            delta_cols != 0.0, self.quantizer.quantize_delta(delta_cols, rng), 0.0
        )
        updated = self.quantizer.quantize(self._g[:, cols] + quantized_delta, rng)
        if self._mask is not None:
            updated = np.where(self._mask[:, cols], updated, 0.0)
        self._g[:, cols] = updated

    def set_conductances(
        self, values: np.ndarray, rng: Optional[np.random.Generator] = None
    ) -> None:
        """Overwrite all conductances (quantised and clamped).

        *values* may be :attr:`g` itself, which re-quantises the storage in
        place; either way no full-matrix temporary is made.
        """
        values = np.asarray(values, dtype=np.float64)
        if values.shape != self._g.shape:
            raise TopologyError(
                f"values must have shape {self._g.shape}, got {values.shape}"
            )
        self.quantizer.quantize_into(values, self._g, rng)
        if self._mask is not None:
            self._g[~self._mask] = 0.0

    def per_neuron_maps(self, side: Optional[int] = None) -> np.ndarray:
        """Reshape to per-post-neuron square maps for visualisation (Fig. 5).

        Returns shape ``(n_post, side, side)`` where ``side**2 == n_pre``.
        """
        if side is None:
            side = int(round(self.n_pre ** 0.5))
        if side * side != self.n_pre:
            raise TopologyError(
                f"n_pre={self.n_pre} is not a {side}x{side} square; pass side explicitly"
            )
        return self._g.T.reshape(self.n_post, side, side)

    def normalize_columns(self, target_sum: float, rng: Optional[np.random.Generator] = None) -> None:
        """Rescale each post-neuron's afferents to a common total conductance.

        Divisive weight normalisation is the standard companion of WTA STDP
        learning (it appears in the Diehl & Cook baseline the paper compares
        against); without it a handful of neurons accumulate all the drive.
        Columns with zero total are left untouched.

        The storage is rescaled and re-quantised in place, bit for bit
        ``quantize(g * scale, rng)`` with no full-matrix temporary, so views
        of :attr:`g` taken earlier see the result.  Float storage only
        clips; fixed-point storage rounds with the configured option,
        drawing from *rng* under stochastic rounding.
        """
        if target_sum <= 0.0:
            raise TopologyError(f"target_sum must be positive, got {target_sum}")
        sums = self._g.sum(axis=0)
        scale = np.where(sums > 0.0, target_sum / np.maximum(sums, 1e-12), 1.0)
        np.multiply(self._g, scale, out=self._g)
        self.quantizer.quantize_into(self._g, self._g, rng)
        if self._mask is not None:
            self._g[~self._mask] = 0.0

    @property
    def connectivity(self) -> Optional[np.ndarray]:
        """The boolean wiring mask, or ``None`` for all-to-all."""
        return self._mask

    @staticmethod
    def random_connectivity(
        n_pre: int, n_post: int, probability: float, rng: np.random.Generator
    ) -> np.ndarray:
        """A Bernoulli wiring mask with the given connection *probability*."""
        if not 0.0 < probability <= 1.0:
            raise TopologyError(f"probability must be in (0, 1], got {probability}")
        return rng.random((n_pre, n_post)) < probability
