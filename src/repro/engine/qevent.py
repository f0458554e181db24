"""The integer gather kernel (registry name ``qfused``): sparse events over Q-format codes.

The float gather kernel (:mod:`repro.engine.event_train`) exploits *input*
sparsity: per-step event column lists instead of dense rasters, integer
expiry-step timers.  This kernel runs the same loop with the conductances
held as uint8/uint16 Q-format **codes** (``k`` such that ``G = k * 2^-n``,
via :class:`~repro.quantization.codec.QCodec`) for the whole presentation,
exploiting *numeric* redundancy too — the regime L-SPINE's integer SIMD
engine targets:

- **sparse integer drive** — at an input-event step the synaptic drive is a
  row gather over the *code* matrix (:meth:`~repro.quantization.codec.QCodec.gather_drive`):
  an int64 column sum over the few spiking rows, scaled once by
  ``resolution * amplitude``.  On-grid code sums below ``2^53`` are exact and
  the scale factor is a power-of-two multiple of the amplitude, so the drive
  is bit-identical to the reference loop's row-order float sum
  ``np.add.reduce(g[rows], axis=0) * amplitude`` — while touching an eighth
  (uint8) of the memory the float gather reads;
- **integer timers and cached regimes** — membranes, currents and
  thresholds are float64 state and advance every step with the reference
  arithmetic; refractory and inhibition timers are integer expiry steps,
  the subtractive-mode refractory set is a small index array with a FIFO of
  expiries, and the inhibition term is a cached drive vector rebuilt only
  when its mask changes;
- **lazy code-domain plasticity** — STDP lands only at post-spike steps,
  only on the spiking columns, directly in the code domain
  (:func:`~repro.engine.plasticity.quantized_stochastic_columns` /
  :func:`~repro.engine.plasticity.quantized_deterministic_columns`): eq.-(8)
  stochastic rounding is an integer compare-against-random drawing **one
  uniform per changed synapse** from the dedicated ``qrounding`` stream,
  instead of the full-matrix draw the float-simulated path makes per
  update.

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

Backend discipline follows the float kernel: codes, neuron-state mirrors
and work buffers live on the :class:`~repro.backend.ops.Ops` backend bound
at construction; the raster, event lists, spike timers and every RNG draw
stay host-side (the ``qrounding`` stream arrives as a
:class:`~repro.engine.rng.DeviceRng` on device backends, so draws remain
host-ordered), and the float view of ``synapses.g`` plus the float timers
are re-synchronised on the host at :meth:`run` exit, so everything outside
a presentation (weight normalisation, checkpoints, monitors, the health
sentinel) keeps seeing ordinary float conductances.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Deque, Optional, Tuple

import numpy as np

from repro.backend import backend_ops
from repro.encoding.events import sparsify
from repro.engine.event_train import EventTrainStats, _expiry_steps
from repro.engine.plasticity import (
    quantized_deterministic_columns,
    quantized_stochastic_columns,
    resolve_quantized_rule,
)
from repro.errors import ConfigurationError, SimulationError
from repro.network.wta import WTANetwork
from repro.quantization.codec import require_codec

if TYPE_CHECKING:
    from repro.engine.profiler import StepProfiler

#: Storage modes: ``"int"`` is the real tier; ``"float"`` is the shadow
#: twin used as the stochastic-rounding equivalence oracle.
STORAGE_MODES = ("int", "float")


class QEventPresentation:
    """Event-driven presentation kernel over integer Q-format codes.

    Construct once per training run and call :meth:`run` once per image.
    Between presentations ``network.synapses.g`` stays authoritative (codes
    are re-encoded at entry and decoded back at exit); during a
    presentation the code array is the live learned state.
    """

    def __init__(self, network: WTANetwork, storage: str = "int") -> None:
        self._ops = backend_ops()
        xp = self._ops.xp
        if storage not in STORAGE_MODES:
            raise ConfigurationError(
                f"qfused storage must be one of {STORAGE_MODES}, got {storage!r}"
            )
        self._stochastic_rule = resolve_quantized_rule(network) == "stochastic"

        self.net = network
        self.storage = storage
        self.codec = require_codec(network.synapses.quantizer, "qfused")
        cfg = network.config
        self._wta = cfg.wta
        self._lif = cfg.lif
        n = cfg.wta.n_neurons

        # Loop-invariant constants (`resolution * amplitude` only shifts the
        # amplitude's exponent, so it is exact).
        self._inj_scale = self.codec.resolution * network.amplitude
        self._conductance_model = cfg.wta.synapse_model == "conductance"
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._subtractive = network.neurons.inhibition_strength > 0.0

        # The live code matrix (uint8/uint16, or float64 for the twin),
        # resident on the kernel's backend for the whole run.
        g_shape = network.synapses.g.shape
        code_dtype = self.codec.dtype if storage == "int" else np.dtype(np.float64)
        self._codes = xp.zeros(g_shape, dtype=code_dtype)
        self._acc_dtype = np.dtype(np.int64) if storage == "int" else np.dtype(np.float64)

        self.occupancy = EventTrainStats()

        # Preallocated work buffers (the event kernel's set), resident on
        # the backend the kernel steps on.
        self._inj = xp.empty(n, dtype=np.float64)
        self._scale = xp.empty(n, dtype=np.float64)
        self._eff = xp.empty(n, dtype=np.float64)
        self._dv = xp.empty(n, dtype=np.float64)
        self._tmp = xp.empty(n, dtype=np.float64)
        self._thr = xp.empty(n, dtype=np.float64)
        self._blocked = xp.empty(n, dtype=bool)
        self._inh_mask = xp.empty(n, dtype=bool)
        self._spikes = xp.empty(n, dtype=bool)
        self._losers = xp.empty(n, dtype=bool)
        self._ref_end = xp.zeros(n, dtype=np.int64)
        self._inh_end = xp.zeros(n, dtype=np.int64)
        self._inh_scratch = xp.empty(n, dtype=np.int64)
        self._inh_vec = xp.empty(n, dtype=np.float64)

    @property
    def codes(self) -> np.ndarray:
        """The Q-format code matrix (live during a presentation).

        Resident on the kernel's backend; download with
        :func:`repro.backend.asnumpy` before host-side use.
        """
        return self._codes

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        profiler: Optional[StepProfiler] = None,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        """Present *image* for *n_steps* steps of *dt_ms*, starting at *t_ms*.

        Returns ``(total_output_spikes, t_ms_after)`` — the protocol shared
        by every presentation kernel.  Conductance codes are refreshed from
        ``synapses.g`` on entry and decoded back on exit (the float view is
        authoritative between presentations); spike times handed to the
        STDP timers come from the same repeated ``+ dt_ms`` accumulation
        the reference loop performs.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.net
        lif = self._lif
        wta = self._wta
        clock = time.perf_counter
        codec = self.codec
        codes = self._codes
        acc_dtype = self._acc_dtype
        conn_mask = net.synapses.connectivity

        # Boundary sync in: live float values are on the storage grid, so
        # the encode is an exact rescaling, routed
        # through the backend's own conversion so the codes land device-side.
        ops = self._ops
        on_host = ops.is_host
        g = net.synapses.g
        np.copyto(codes, codec.encode(g, dtype=codes.dtype, xp=ops.xp))

        if profiler is not None:
            _t0 = clock()
        net.present_image(image)
        raster = net.encoder.generate_train(n_steps, dt_ms, net.rngs.encoding)
        sparse = sparsify(raster)
        if profiler is not None:
            profiler.add("encode", clock() - _t0)

        neurons = net.neurons
        timers = net.timers
        has_decay = wta.current_tau_ms > 0.0
        gamma = net.current_decay(dt_ms) if has_decay else 0.0
        theta_decay = neurons.theta_decay(dt_ms)
        adapting = neurons.adaptation.enabled
        theta_plus = neurons.adaptation.theta_plus
        learning = net.learning_enabled
        inh_strength = neurons.inhibition_strength
        t_inh = wta.t_inh_ms
        single_winner = wta.single_winner
        stochastic_rule = self._stochastic_rule
        rng_learning = net.rngs.learning
        # Eq.-8 rounding draws stay host-ordered on every backend; on a
        # device backend the stream arrives wrapped so draws upload.
        rng_rounding = net.rngs.device_stream("qrounding", ops)
        ref_steps = _expiry_steps(lif.refractory_ms, dt_ms)
        # Inhibition is applied after the reference loop's timer decrement, so
        # it survives one step longer than its raw duration.
        inh_steps = _expiry_steps(t_inh, dt_ms) + 1
        a, b, c = lif.a, lif.b, lif.c
        v_reset, v_threshold = lif.v_reset, lif.v_threshold

        # State arrays: the network's live arrays on the host backend
        # (identity transfers, mutated in place), uploaded mirrors on a
        # device backend with a download at the end of the presentation.
        current = ops.to_device(net._current)
        v = ops.to_device(neurons._v)
        theta = ops.to_device(neurons._theta)
        rule = net.rule

        inj = self._inj
        scale = self._scale
        eff = self._eff
        dv = self._dv
        tmp = self._tmp
        thr = self._thr
        blocked = self._blocked
        inh_mask = self._inh_mask
        spikes = self._spikes
        losers = self._losers
        ref_end = self._ref_end
        inh_end = self._inh_end
        inh_vec = self._inh_vec
        inh_scratch = self._inh_scratch
        inj_scale = self._inj_scale
        scale_denom = self._scale_denom
        e_excitatory = wta.e_excitatory
        # The timer arrays are bound once at trace construction, never
        # reassigned, so hoisting the attribute chain out of the loop is
        # safe (and saves two lookups per event/spike step).
        last_pre = timers._last_pre
        last_post = timers._last_post

        # Import the float timers into integer expiry steps (step indices
        # relative to this presentation; ``end > j``  <=>  flagged at j).
        if on_host:
            np.ceil(neurons._refractory_left / dt_ms - 1e-12, out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            ref_end[:] = tmp.astype(np.int64)
            np.ceil(neurons._inhibited_left / dt_ms - 1e-12, out=tmp)
            np.maximum(tmp, 0.0, out=tmp)
            inh_end[:] = tmp.astype(np.int64)
        else:
            # The float timers are host state: convert on the host (same
            # arithmetic) and upload the integer result once.
            imported = np.ceil(neurons._refractory_left / dt_ms - 1e-12)
            np.maximum(imported, 0.0, out=imported)
            ref_end[:] = ops.to_device(imported.astype(np.int64))
            imported = np.ceil(neurons._inhibited_left / dt_ms - 1e-12)
            np.maximum(imported, 0.0, out=imported)
            inh_end[:] = ops.to_device(imported.astype(np.int64))

        # Sentinel expiry beyond every reachable timer end (late spikes set
        # ends past ``n_steps``), so a masked minimum equal to ``big``
        # certifies the mask is empty.
        big = n_steps + max(ref_steps, inh_steps, 1) + 1
        subtractive = self._subtractive
        conductance_model = self._conductance_model

        self.occupancy.raster_cells += n_steps * sparse.n_channels
        self.occupancy.raster_active_cells += sparse.n_events

        # Plain Python ints everywhere the loop reads per-step metadata:
        # numpy scalar indexing would pay a boxing conversion per
        # iteration.  ``rows_at[j]`` holds each step's spiking-row view
        # (the shared ``empty_rows`` object on quiescent steps, so the loop
        # classifies a step with one identity test).
        offsets = sparse.offsets.tolist()
        channels = sparse.channels
        empty_rows = channels[:0]
        rows_at = [empty_rows] * n_steps
        for s in sparse.event_steps.tolist():
            rows_at[s] = channels[offsets[s] : offsets[s + 1]]

        total_spikes = 0

        # Initial regime state at step 0 (``end > 0``  <=>  flagged now).
        # A mask is non-empty exactly when its masked minimum beat the
        # sentinel — no separate ``any`` reductions needed; the raw
        # ``ufunc.reduce`` calls skip the ``np.min`` dispatch layer.
        np.greater(ref_end, 0, out=blocked)
        nr = int(np.minimum.reduce(ref_end, initial=big, where=blocked))
        np.greater(inh_end, 0, out=inh_mask)
        ni = int(np.minimum.reduce(inh_end, initial=big, where=inh_mask))
        inh_any = ni < big
        if not subtractive:
            np.logical_or(blocked, inh_mask, out=blocked)
            blocked_any = nr < big or inh_any
        else:
            blocked_any = nr < big
        next_inh = ni
        next_ref = nr
        next_expiry = min(nr, ni)
        # Subtractive inhibition keeps the refractory set tiny — a handful
        # of recent contenders — so it is carried as a small *index* array
        # ``blk`` (fancy assignment through a short int array beats a full
        # boolean mask pass) whose expiries live in a FIFO of ``(end,
        # indices)`` entries with ends pushed in increasing order.  With
        # blocking inhibition the coupled mask stays dense and boolean, and
        # ``blk`` simply aliases it: every consumer indexes through ``blk``
        # either way.  When ``blocked_any`` is false ``blk`` may be stale —
        # every use is guarded.
        ref_fifo: Deque[Tuple[int, np.ndarray]] = deque()
        if subtractive:
            blk = np.flatnonzero(blocked)
            if blk.size:
                ends = ref_end[blk]
                for k in np.argsort(ends, kind="stable").tolist():
                    ref_fifo.append((int(ends[k]), blk[k : k + 1]))
            # The cached inhibition drive: ``inh_strength`` on inhibited
            # neurons, exactly 0.0 elsewhere, rebuilt only when the mask
            # changes.  Subtracting it elementwise is bit-identical to the
            # masked in-place subtract (``x - 0.0 == x`` for every float)
            # and replaces a gather/scatter pass with one dense ufunc.
            np.multiply(inh_mask, inh_strength, out=inh_vec)
        else:
            blk = blocked

        for j in range(n_steps):
            if j >= next_expiry:
                if subtractive:
                    if j >= next_ref:
                        while ref_fifo and ref_fifo[0][0] <= j:
                            ref_fifo.popleft()
                        if ref_fifo:
                            next_ref = ref_fifo[0][0]
                            blk = (
                                ref_fifo[0][1]
                                if len(ref_fifo) == 1
                                else np.concatenate([e[1] for e in ref_fifo])
                            )
                        else:
                            blocked_any = False
                            next_ref = big
                    if j >= next_inh:
                        # Inhibition expiries are rare (spike-step
                        # extensions keep pushing the earliest masked end
                        # forward), so the dense recompute only runs when
                        # one actually lapses.
                        np.greater(inh_end, j, out=inh_mask)
                        ni = int(
                            np.minimum.reduce(
                                inh_end, initial=big, where=inh_mask
                            )
                        )
                        inh_any = ni < big
                        next_inh = ni
                        np.multiply(inh_mask, inh_strength, out=inh_vec)
                    next_expiry = min(next_ref, next_inh)
                else:
                    # Full regime refresh — with blocking inhibition the
                    # masks are coupled, so both are recomputed at any timer
                    # expiry (output spikes still extend them incrementally
                    # below).
                    np.greater(ref_end, j, out=blocked)
                    nr = int(
                        np.minimum.reduce(ref_end, initial=big, where=blocked)
                    )
                    np.greater(inh_end, j, out=inh_mask)
                    ni = int(
                        np.minimum.reduce(inh_end, initial=big, where=inh_mask)
                    )
                    inh_any = ni < big
                    np.logical_or(blocked, inh_mask, out=blocked)
                    blocked_any = nr < big or inh_any
                    next_expiry = min(nr, ni)

            if profiler is not None:
                _t0 = clock()
            rows = rows_at[j]
            if rows is not empty_rows:
                last_pre[rows] = t_ms
                # Sparse integer drive: gather + int64 sum over the spiking
                # rows of the code matrix, one exact power-of-two scale.
                codec.gather_drive(codes, rows, inj_scale, inj, acc_dtype)
                if conductance_model:
                    np.subtract(e_excitatory, v, out=scale)
                    scale /= scale_denom
                    np.maximum(scale, 0.0, out=scale)
                    inj *= scale
                if has_decay:
                    current *= gamma
                    current += inj
                else:
                    np.copyto(current, inj)
            elif has_decay:
                current *= gamma
            else:
                current.fill(0.0)

            np.copyto(eff, current)
            if blocked_any:
                eff[blk] = 0.0
            if subtractive and inh_any:
                np.subtract(eff, inh_vec, out=eff)

            np.multiply(v, b, out=dv)
            dv += a
            np.multiply(eff, c, out=tmp)
            dv += tmp
            dv *= dt_ms
            v += dv
            if blocked_any:
                v[blk] = v_reset
            np.maximum(v, v_reset, out=v)

            np.add(theta, v_threshold, out=thr)
            np.greater_equal(v, thr, out=spikes)
            if blocked_any:
                spikes[blk] = False
            n_fired = int(np.count_nonzero(spikes))
            if n_fired:
                v[spikes] = v_reset
                ref_end[spikes] = j + ref_steps
                # Refractoriness lands on every contender *before* WTA
                # arbitration (the reference loop sets its timers here too),
                # so the blocked set must grow from the pre-WTA spike set.
                if ref_steps > 1:
                    if subtractive:
                        fired = np.flatnonzero(spikes)
                        ref_fifo.append((j + ref_steps, fired))
                        blk = (
                            np.concatenate((blk, fired))
                            if blocked_any
                            else fired
                        )
                        next_ref = min(next_ref, j + ref_steps)
                    else:
                        np.logical_or(blocked, spikes, out=blocked)
                    next_expiry = min(next_expiry, j + ref_steps)
                    blocked_any = True

            if adapting:
                theta *= theta_decay
                if n_fired:
                    theta[spikes] += theta_plus
            if profiler is not None:
                _t1 = clock()
                profiler.add("integrate", _t1 - _t0)

            if single_winner and n_fired > 1:
                contenders = np.flatnonzero(spikes)
                winner = contenders[np.argmax(current[contenders])]
                spikes.fill(False)
                spikes[winner] = True
                n_fired = 1
            if profiler is not None:
                _t2 = clock()
                profiler.add("wta", _t2 - _t1, calls=0)

            # --- lazy code-domain plasticity ----------------------------
            # The column-restricted scatter touches only the spiking
            # columns, rounding each changed synapse with one qrounding
            # draw, in column order — the draws the float shadow twin makes
            # on the same spike trajectory.  Timers and the
            # Bernoulli draws are host subsystems, so the spike mask is
            # downloaded at fired steps and the helpers upload the
            # host-computed masks through the explicit ops seam.
            if n_fired:
                spikes_h = spikes if on_host else ops.to_host(spikes)
                if learning:
                    if stochastic_rule:
                        quantized_stochastic_columns(
                            rule, codes, codec, timers, spikes_h, t_ms,
                            rng_learning, rng_rounding, conn_mask, ops=ops,
                        )
                    else:
                        quantized_deterministic_columns(
                            rule, codes, codec, timers, spikes_h, t_ms,
                            rng_rounding, conn_mask, ops=ops,
                        )
                last_post[spikes_h] = t_ms
                if out_counts is not None:
                    out_counts[spikes_h] += 1
            if profiler is not None:
                _t3 = clock()
                profiler.add("stdp", _t3 - _t2)

            if n_fired:
                # Incremental regime update: the WTA losers (inhibited) are
                # exactly the new inhibition-mask members, so the masks grow
                # in place — no full refresh (the refractory mask already
                # grew from the pre-WTA contender set above).  One-step
                # timers (`end == j + 1`) never enter a mask: they are
                # already expired by the time step ``j + 1`` reads it.
                # ``next_expiry`` keeps the earliest *masked* end so stale
                # entries are always purged by a full refresh in time.
                if t_inh > 0.0:
                    np.logical_not(spikes, out=losers)
                    np.multiply(losers, j + inh_steps, out=inh_scratch)
                    np.maximum(inh_end, inh_scratch, out=inh_end)
                    if inh_steps > 1:
                        np.logical_or(inh_mask, losers, out=inh_mask)
                        inh_any = True
                        if subtractive:
                            np.multiply(inh_mask, inh_strength, out=inh_vec)
                        else:
                            np.logical_or(blocked, losers, out=blocked)
                            blocked_any = True
                        next_expiry = min(next_expiry, j + inh_steps)
                        next_inh = min(next_inh, j + inh_steps)
            if profiler is not None:
                profiler.add("wta", clock() - _t3)

            total_spikes += n_fired
            t_ms += dt_ms

        # Export the integer timers back into the float state so the
        # reference engine (and `rest()`) see exactly what per-step decrements would
        # have left behind.  The float timers are host state, so a device
        # backend downloads the expiry steps first (same arithmetic after).
        ref_export = ref_end if on_host else ops.to_host(ref_end)
        inh_export = inh_end if on_host else ops.to_host(inh_end)
        np.subtract(ref_export, n_steps, out=ref_export)
        np.maximum(ref_export, 0, out=ref_export)
        np.multiply(ref_export, dt_ms, out=neurons._refractory_left, casting="unsafe")
        np.subtract(inh_export, n_steps, out=inh_export)
        np.maximum(inh_export, 0, out=inh_export)
        np.multiply(inh_export, dt_ms, out=neurons._inhibited_left, casting="unsafe")

        # Boundary sync out: the decoded float view becomes authoritative
        # again for everything that runs between presentations; device
        # backends download the neuron-state mirrors too.
        if on_host:
            codec.decode_into(codes, g)
        else:
            codec.decode_into(ops.to_host(codes), g)
            np.copyto(net._current, ops.to_host(current))
            np.copyto(neurons._v, ops.to_host(v))
            np.copyto(neurons._theta, ops.to_host(theta))
        return total_spikes, t_ms
