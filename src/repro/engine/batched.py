"""Image-parallel batched inference (the GPU batch-mode substitute).

The sequential :class:`~repro.pipeline.evaluator.Evaluator` presents test
images one at a time, exactly like the training loop.  For *inference*
nothing persists between images (plasticity and threshold adaptation are
frozen, and the rest phase clears all fast state), so every presentation is
independent — which means a whole batch of images can advance in lock-step
through the same time grid, turning the per-step work into one large
matrix product.  This is precisely the second axis of parallelism a GPU
implementation exploits, and it accelerates the evaluation phase by an
order of magnitude on the benches.

The dynamics replicate :class:`~repro.network.wta.WTANetwork.advance` in
evaluation mode operation-for-operation (current filtering, subtractive or
hard inhibition, membrane pinning, threshold offsets, single-winner
arbitration, WTA inhibition of the losers).  Spike-train randomness is
drawn from a batch-shaped stream, so results are statistically equivalent
to — though not bit-identical with — the sequential evaluator; the test
suite pins the agreement.

Array operations route through the :class:`~repro.backend.ops.Ops` layer,
so selecting the CuPy backend moves the whole lock-step batch onto the GPU
without code changes; results always come back as host numpy arrays.
Randomness is **host-drawn and device-uploaded** (see
:class:`~repro.engine.rng.DeviceRng`), so the response matrices are
bit-identical across backends for the same seed.

The learned state (conductances and thresholds) is re-read from the network
at :meth:`BatchedInference.collect_responses` time.  An earlier revision
captured the arrays at construction, which silently served *stale* weights
whenever further training or normalisation replaced the network's buffers —
an inference engine built once and reused across training checkpoints must
always see the current weights.

With ``storage="int"`` (the ``qbatched`` engine tier) the frozen
conductances are encoded once per call into uint8/uint16 Q-format codes
(:class:`~repro.quantization.codec.QCodec`), row block by row block, and
the per-step batched matmul runs as **integer accumulation** over 64-row
blocks of the codes, scaled once by ``resolution * amplitude``
(:meth:`QCodec.batched_drive`).  On-grid code sums below ``2^53`` are exact
and the scale factor is a power-of-two multiple of the amplitude, so the
response matrices — and hence the predicted labels — are **bit-identical**
to the float path under the same draws.  The storage is narrow, but the
arithmetic is not: numpy's ``int64`` matmul runs without BLAS on operands
cast to ``int64`` block by block, so this tier is slower than the float
BLAS path; what it saves is memory, with no full-matrix float64 or int64
temporary.  The integer path requires a fixed-point quantization config.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.backend import asnumpy, backend_ops
from repro.config.parameters import ExperimentConfig
from repro.encoding.rate import intensity_to_frequency
from repro.errors import ConfigurationError, SimulationError
from repro.network.wta import WTANetwork
from repro.quantization.codec import ENCODE_BLOCK_ROWS, QCodec, require_codec

#: Conductance storage modes: ``"float"`` is the original float64 matmul
#: path; ``"int"`` drives the matmul with Q-format codes (``qbatched``).
STORAGE_MODES = ("float", "int")


class BatchedInference:
    """Frozen-network inference over many images simultaneously."""

    def __init__(self, network: WTANetwork, storage: str = "float") -> None:
        if storage not in STORAGE_MODES:
            raise ConfigurationError(
                f"batched storage must be one of {STORAGE_MODES}, got {storage!r}"
            )
        engine = "qbatched" if storage == "int" else "batched"
        kind = network.config.encoding.kind
        if kind != "poisson":
            # The lock-step draw below is Bernoulli; evaluating another
            # encoding with it would break the "same distributions" tier.
            raise ConfigurationError(
                f"the {engine} engine draws Poisson input trains, but the "
                f"config selects encoding.kind={kind!r}; evaluate with "
                f"'fused' (or 'qfused' for a fixed-point config), which "
                f"present the configured encoder exactly"
            )
        self.codec: Optional[QCodec] = None
        if storage == "int":
            self.codec = require_codec(network.synapses.quantizer, engine)
        self.network = network
        self.storage = storage
        self.config: ExperimentConfig = network.config
        self.n_pixels = network.n_pixels
        self.amplitude = network.amplitude

    def collect_responses(
        self,
        images: np.ndarray,
        t_present_ms: Optional[float] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> np.ndarray:
        """Per-image output spike counts, shape ``(n_images, n_neurons)``."""
        batch = np.asarray(images, dtype=np.float64)
        if batch.ndim == 2:
            batch = batch[None]
        if batch.ndim != 3:
            raise SimulationError(f"images must be 2-D or 3-D, got shape {batch.shape}")
        flat = batch.reshape(batch.shape[0], batch.shape[1] * batch.shape[2])
        if flat.shape[1] != self.n_pixels:
            raise SimulationError(
                f"images have {flat.shape[1]} pixels, network expects {self.n_pixels}"
            )

        cfg = self.config
        ops = backend_ops()
        xp = ops.xp
        # Default stream: the salted batched-evaluation stream, decorrelated
        # from the sequential streams and restarted per call (see
        # RngStreams.batched_eval) — never an ad-hoc generator.  Draws are
        # host-side on every backend and uploaded through the explicit seam,
        # so responses are bit-identical across backends.
        rng = rng if rng is not None else self.network.rngs.batched_eval()

        def draw(shape: Tuple[int, ...]) -> np.ndarray:
            return ops.to_device(rng.random(shape))

        dt = cfg.simulation.dt_ms
        duration = t_present_ms if t_present_ms is not None else cfg.simulation.t_learn_ms
        n_steps = int(round(duration / dt))

        n_images = flat.shape[0]
        n_neurons = cfg.wta.n_neurons
        lif = cfg.lif
        wta = cfg.wta

        # Learned state, read fresh from the network for every call.  The
        # integer path re-encodes the frozen float view into codes once per
        # call (exact: live conductances sit on the storage grid), through a
        # row-block scratch after uploading the float view, as
        # CodeStore.sync_in does.
        codec = self.codec
        if codec is not None:
            g_host = self.network.conductances
            g_codes = xp.empty(g_host.shape, dtype=codec.dtype)
            scratch = xp.empty(
                (min(ENCODE_BLOCK_ROWS, g_host.shape[0]), g_host.shape[1]),
                dtype=np.float64,
            )
            codec.encode_into(ops.to_device(g_host), g_codes, scratch)
            inj_scale = codec.resolution * self.amplitude
        else:
            g = xp.asarray(self.network.conductances, dtype=xp.float64)
        theta = xp.asarray(self.network.neurons.theta, dtype=xp.float64)

        spike_prob = xp.asarray(
            intensity_to_frequency(flat, cfg.encoding) * (dt / 1000.0),
            dtype=xp.float64,
        )

        v = xp.full((n_images, n_neurons), lif.v_init, dtype=xp.float64)
        current = xp.zeros((n_images, n_neurons), dtype=xp.float64)
        refractory = xp.zeros((n_images, n_neurons), dtype=xp.float64)
        inhibited_left = xp.zeros((n_images, n_neurons), dtype=xp.float64)
        counts = xp.zeros((n_images, n_neurons), dtype=xp.int64)
        threshold = lif.v_threshold + theta[None, :]
        decay = float(np.exp(-dt / wta.current_tau_ms)) if wta.current_tau_ms > 0 else 0.0
        row_index = xp.arange(n_images)

        for _ in range(n_steps):
            input_spikes = draw(spike_prob.shape) < spike_prob
            if codec is not None:
                injected = codec.batched_drive(input_spikes, g_codes, inj_scale, xp=xp)
            else:
                injected = (input_spikes @ g) * self.amplitude
            if wta.synapse_model == "conductance":
                scale = (wta.e_excitatory - v) / (wta.e_excitatory - lif.v_reset)
                injected = injected * xp.maximum(scale, 0.0)
            if wta.current_tau_ms > 0:
                current = current * decay + injected
            else:
                current = injected

            inhibited = inhibited_left > 0.0
            if wta.inhibition_strength > 0.0:
                blocked = refractory > 0.0
                effective = xp.where(blocked, 0.0, current)
                effective = effective - xp.where(inhibited, wta.inhibition_strength, 0.0)
            else:
                blocked = (refractory > 0.0) | inhibited
                effective = xp.where(blocked, 0.0, current)

            v = v + (lif.a + lif.b * v + lif.c * effective) * dt
            v = xp.where(blocked, lif.v_reset, v)
            xp.maximum(v, lif.v_reset, out=v)

            crossers = (v >= threshold) & ~blocked
            v = xp.where(crossers, lif.v_reset, v)
            refractory = xp.where(crossers, lif.refractory_ms, refractory)

            if wta.single_winner:
                masked = xp.where(crossers, current, -xp.inf)
                winner_idx = xp.argmax(masked, axis=1)
                any_cross = crossers.any(axis=1)
                winners = xp.zeros_like(crossers)
                winners[row_index, winner_idx] = True
                winners &= any_cross[:, None]
            else:
                winners = crossers

            counts += winners

            # The timers count down before the losers are inhibited, as in
            # WTANetwork.advance (neurons.step decrements, then inhibit), so
            # the losers stay inhibited for the full t_inh.
            refractory = xp.maximum(refractory - dt, 0.0)
            inhibited_left = xp.maximum(inhibited_left - dt, 0.0)

            if wta.t_inh_ms > 0.0:
                fired_rows = winners.any(axis=1)
                losers = ~winners & fired_rows[:, None]
                inhibited_left = xp.maximum(
                    inhibited_left, xp.where(losers, wta.t_inh_ms, 0.0)
                )

        return asnumpy(counts)
