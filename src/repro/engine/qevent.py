"""The integer gather kernel (registry name ``qfused``): the presentation loop over Q-format codes.

:class:`QEventPresentation` runs the gather kernels' one presentation loop
(:class:`~repro.engine.event_train.EventPresentation`) over a
:class:`CodeStore`: the conductances held as uint8/uint16 Q-format
**codes** (``k`` such that ``G = k * 2^-n``, via
:class:`~repro.quantization.codec.QCodec`) for the whole presentation,
exploiting *numeric* redundancy on top of the loop's input sparsity — the
regime L-SPINE's integer SIMD engine targets:

- **sparse integer drive** — at an input-event step the synaptic drive is
  :func:`~repro.engine.event_train.gather_drive` over the *code* matrix:
  an int64 column sum over the few spiking rows, scaled once by
  ``resolution * amplitude``.  On-grid code sums below ``2^53`` are exact and
  the scale factor is a power-of-two multiple of the amplitude, so the drive
  is bit-identical to the reference loop's row-order float sum
  ``np.add.reduce(g[rows], axis=0) * amplitude`` — while touching an eighth
  (uint8) of the memory the float gather reads;
- **lazy code-domain plasticity** — STDP lands only at post-spike steps,
  only on the spiking columns, directly in the code domain
  (:func:`~repro.engine.plasticity.quantized_stochastic_columns` /
  :func:`~repro.engine.plasticity.quantized_deterministic_columns`): eq.-(8)
  stochastic rounding is an integer compare-against-random drawing **one
  uniform per changed synapse** from the dedicated ``qrounding`` stream,
  instead of the full-matrix draw the float-simulated path makes per
  update; at <= 8 bits an update is a saturating +-1 code step.

Equivalence contract (``tests/test_qfused.py`` and ``tests/test_qevent.py``):

- with truncate/nearest rounding — and in evaluation always — results are
  **bit-identical** to the reference loop under pinned seeds: the rounding
  draws nothing, so both compute the same arithmetic on the same draws;
- with stochastic rounding the RNG accounting intentionally differs from
  the float-simulated path (that is the point), so the oracle is the
  *shadow twin*: the same kernel with ``storage="float"``, which runs the
  identical algorithm on integer-valued float64 codes.  Spikes, codes and
  thetas match it bit for bit.  The declared registry tier is
  spike-equivalence.

Backend discipline follows the loop: the codes live on the
:class:`~repro.backend.ops.Ops` backend bound at construction; spike
timers and every RNG draw stay host-side (the ``qrounding`` stream arrives
as a :class:`~repro.engine.rng.DeviceRng` on device backends, so draws
remain host-ordered), and the float view of ``synapses.g`` is
re-synchronised on the host at :meth:`~CodeStore.sync_out`, so everything
outside a presentation (weight normalisation, checkpoints, the
health sentinel) keeps seeing ordinary float conductances.
"""

from __future__ import annotations

import numpy as np

from repro.backend import backend_ops
from repro.engine.event_train import EventPresentation, gather_drive
from repro.engine.plasticity import (
    quantized_deterministic_columns,
    quantized_stochastic_columns,
    resolve_column_rule,
)
from repro.errors import ConfigurationError
from repro.network.wta import WTANetwork
from repro.quantization.codec import ENCODE_BLOCK_ROWS, QCodec, require_codec

#: Storage modes: ``"int"`` is the real tier; ``"float"`` is the shadow
#: twin used as the stochastic-rounding equivalence oracle.
STORAGE_MODES = ("int", "float")


class CodeStore:
    """Q-format codes as the presentation loop's store (``qfused``).

    Between presentations ``network.synapses.g`` stays authoritative: the
    codes are re-encoded from it at :meth:`sync_in` and decoded back at
    :meth:`sync_out`; during a presentation the code array is the live
    learned state.  Serves the column-restricted rules only.
    """

    #: Code-domain STDP runs at post spikes only.
    learns_at_input_events = False

    def __init__(self, network: WTANetwork, storage: str = "int") -> None:
        self._ops = backend_ops()
        xp = self._ops.xp
        if storage not in STORAGE_MODES:
            raise ConfigurationError(
                f"qfused storage must be one of {STORAGE_MODES}, got {storage!r}"
            )
        rule = resolve_column_rule(network)
        if rule is None:
            raise ConfigurationError(
                "the integer-native engines serve the column-restricted STDP "
                "rules only (stdp.kind='deterministic', or 'stochastic' with "
                "ltd_mode='post_event'); pair-LTD modes need the float 'fused' "
                "engine, which runs them through the reference rule"
            )
        self._stochastic_rule = rule == "stochastic"
        self.net = network
        self.storage = storage
        self.codec = require_codec(network.synapses.quantizer, "qfused")
        # `resolution * amplitude` only shifts the amplitude's exponent, so
        # it is exact.
        self._scale = self.codec.resolution * network.amplitude

        # The live code matrix (uint8/uint16, or float64 for the twin),
        # resident on the kernel's backend for the whole run.
        g_shape = network.synapses.g.shape
        code_dtype = self.codec.dtype if storage == "int" else np.dtype(np.float64)
        self.codes = xp.zeros(g_shape, dtype=code_dtype)
        self._acc_dtype = np.dtype(np.int64) if storage == "int" else np.dtype(np.float64)
        self._encode_scratch = xp.empty(
            (min(ENCODE_BLOCK_ROWS, g_shape[0]), g_shape[1]), dtype=np.float64
        )

    def sync_in(self) -> None:
        """Encode the float view into the codes.

        Live float values are on the storage grid, so the encode is an
        exact rescaling.  It runs through a row-block scratch straight into
        the code matrix; a device backend uploads the float view once first
        (an identity on the host).
        """
        self.codec.encode_into(
            self._ops.to_device(self.net.synapses.g), self.codes, self._encode_scratch
        )

    def gather(self, rows: np.ndarray, out: np.ndarray) -> None:
        """The eq.-3 drive of the spiking *rows* into *out*, summed over codes."""
        gather_drive(self.codes, rows, self._scale, out, self._acc_dtype)

    def learn(self, rows: np.ndarray, post: np.ndarray, t_ms: float) -> None:
        """Code-domain STDP on the columns of the host spike mask *post*.

        Each changed synapse is rounded with one ``qrounding`` draw, in
        column order — the draws the float shadow twin makes on the same
        spike trajectory.  The helpers upload the host-computed masks
        through the explicit ops seam.
        """
        net = self.net
        ops = self._ops
        # Eq.-8 rounding draws stay host-ordered on every backend; on a
        # device backend the stream arrives wrapped so draws upload.
        rng_rounding = net.rngs.device_stream("qrounding", ops)
        conn_mask = net.synapses.connectivity
        if self._stochastic_rule:
            quantized_stochastic_columns(
                net.rule, self.codes, self.codec, net.timers, post, t_ms,
                net.rngs.learning, rng_rounding, conn_mask, ops=ops,
            )
        else:
            quantized_deterministic_columns(
                net.rule, self.codes, self.codec, net.timers, post, t_ms,
                rng_rounding, conn_mask, ops=ops,
            )

    def sync_out(self) -> None:
        """Decode the codes back into the authoritative float view."""
        ops = self._ops
        codes = self.codes if ops.is_host else ops.to_host(self.codes)
        self.codec.decode_into(codes, self.net.synapses.g)


class QEventPresentation(EventPresentation):
    """The presentation loop over a :class:`CodeStore`.

    Construct once per training run and call :meth:`run` once per image.
    *storage* ``"float"`` builds the shadow twin.
    """

    store: CodeStore

    def __init__(self, network: WTANetwork, storage: str = "int") -> None:
        super().__init__(network, CodeStore(network, storage))

    @property
    def codes(self) -> np.ndarray:
        """The Q-format code matrix (live during a presentation).

        Resident on the kernel's backend; download with
        :func:`repro.backend.asnumpy` before host-side use.
        """
        return self.store.codes

    @property
    def codec(self) -> QCodec:
        """The codec between the codes and the float view."""
        return self.store.codec
