"""The float gather kernel (registry name ``fused``) and lock-step evaluation.

One presentation per :meth:`EventPresentation.run` call: the input raster
is drawn up front and every step advances membranes, currents and
thresholds with the reference loop's arithmetic.  The kernel exploits the
sparsity of rate-coded input — the event-driven direction Bautembach et al.
describe (PAPERS.md, arXiv:2107.04092) — in three ways:

**Sparse input gathers.**  The pre-generated raster (the same
``generate_train`` draw the reference loop's per-step draws make, so the
``encoding`` RNG stream is consumed identically) is converted to per-step
event column lists (:func:`repro.encoding.events.sparsify`).  Injection at
an event step sums only the spiking rows of the conductance matrix, in row
order — a few row reads instead of a dense ``vec @ matrix``.

**Integer timer state.**  Refractory and WTA-inhibition timers are kept as
integer expiry *steps* (no per-step float decrement over the population);
the regime masks they imply are refreshed only when a timer is set or
expires.  Float timer state is synchronised back into the network at the
end of each presentation, so engines stay interchangeable between images.

**Lazy plasticity.**  ``last_pre`` is written only at event steps (a sparse
scatter over the few spiking channels, not a masked write over all 784).

Contract — **bit-exact** to the reference loop under pinned seeds:
conductances, thetas, membranes, currents, timers and spike counts.
:meth:`~repro.network.wta.WTANetwork.drive` sums eq. 3 over the active
rows in the same row order (``np.add.reduce(g[rows], axis=0)``), so no
result depends on how a BLAS build groups a matrix-vector product, and
weight updates read only spike times, timers and the ``learning`` stream.
``tests/test_fused.py`` and ``tests/test_event_train.py`` pin it.

**Lock-step evaluation.**  Evaluation does not present through
:meth:`EventPresentation.run`: frozen presentations are independent, so
:class:`LockstepChunk` steps a chunk of them together with this kernel's
arithmetic, bit-identical to presenting them one at a time (see
:class:`repro.engine.presentation.LockstepEvaluation`, which serves both
``fused`` and ``qfused``).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.backend import backend_ops
from repro.encoding.events import SparseRaster, sparsify
from repro.engine.plasticity import (
    deterministic_rule_columns,
    resolve_fast_rule,
    stochastic_rule_columns,
)
from repro.errors import SimulationError
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.network.wta import WTANetwork

if TYPE_CHECKING:
    from repro.engine.profiler import StepProfiler

@dataclass
class EventTrainStats:
    """Input-raster occupancy counters accumulated across ``run`` calls."""

    #: Raster cells = presentations * steps * channels; active = spiking.
    raster_cells: int = 0
    raster_active_cells: int = 0


def _expiry_steps(duration_ms: float, dt_ms: float) -> int:
    """How many steps a timer of *duration_ms* keeps its neuron flagged.

    Mirrors the reference loop's ``left > 0`` test against per-step ``dt``
    decrements: a timer set to ``d`` stays positive for ``ceil(d/dt)``
    decrements (exact when ``d`` is a multiple of ``dt``, which the paper's
    1 ms grid always is; the epsilon guards against ``d/dt`` landing a ulp
    above an integer).
    """
    if duration_ms <= 0.0:
        return 0
    return int(math.ceil(duration_ms / dt_ms - 1e-12))


class EventPresentation:
    """The float gather kernel behind the ``fused`` engine.

    Construct once per training run and call :meth:`run` once per image.
    The kernel reads and mutates the live network state and consumes the
    ``encoding`` and ``learning`` RNG streams in the same order as the
    reference loop, so presentations can interleave with it; see the
    module docstring for the equivalence contract.
    """

    def __init__(self, network: WTANetwork) -> None:
        self._ops = backend_ops()
        xp = self._ops.xp
        self.net = network
        cfg = network.config
        self._wta = cfg.wta
        self._lif = cfg.lif
        n = cfg.wta.n_neurons

        self._amplitude = network.amplitude
        self._conductance_model = cfg.wta.synapse_model == "conductance"
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._subtractive = network.neurons.inhibition_strength > 0.0

        self._fast_rule = resolve_fast_rule(network)
        # PAIR/BOTH-mode LTD consumes the learning stream at *pre*-spike
        # steps too, so the fallback rule must run at every input-event step.
        rule = network.rule
        self._pair_ltd = isinstance(rule, StochasticSTDP) and rule.ltd_mode in (
            LTDMode.PAIR,
            LTDMode.BOTH,
        )

        self.occupancy = EventTrainStats()

        # Preallocated work buffers on the kernel's backend.  ``_pre_mask``
        # stays host-resident: it is consumed only by the fallback reference
        # rule, a host subsystem.
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
        # Host-side: consumed by the host STDP scatter.
        self._pre_mask = np.empty(network.n_pixels, dtype=bool)  # lint-ok: R6
        self._ref_end = xp.zeros(n, dtype=np.int64)
        self._inh_end = xp.zeros(n, dtype=np.int64)
        self._inh_scratch = xp.empty(n, dtype=np.int64)

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

        Returns ``(total_output_spikes, t_ms_after)`` — the protocol of
        :meth:`~repro.engine.presentation.PresentationEngine.run`.  Spike
        times handed to the STDP timers come from the same repeated
        ``+ dt_ms`` float accumulation the reference loop performs, so timer
        contents match exactly.

        *profiler* (a :class:`~repro.engine.profiler.StepProfiler`) splits
        the presentation into encode / integrate / stdp / wta sections.

        *out_counts* (int64, length ``n_neurons``) accumulates each
        neuron's post-arbitration spike count.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.net
        lif = self._lif
        wta = self._wta
        clock = time.perf_counter

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
        ref_steps = _expiry_steps(lif.refractory_ms, dt_ms)
        # Inhibition is applied after the reference loop's timer decrement, so
        # it survives one step longer than its raw duration (see tests).
        inh_steps = _expiry_steps(t_inh, dt_ms) + 1
        a, b, c = lif.a, lif.b, lif.c
        v_reset, v_threshold = lif.v_reset, lif.v_threshold

        # State arrays: the network's live arrays on the host backend
        # (identity transfers), uploaded mirrors on a device backend with a
        # download at the end of the presentation.  The host conductance
        # matrix stays authoritative (STDP is a host subsystem); its device
        # copy is read-only between column resyncs.
        ops = self._ops
        on_host = ops.is_host
        g_host = net.synapses.g
        current = ops.to_device(net._current)
        v = ops.to_device(neurons._v)
        theta = ops.to_device(neurons._theta)
        g = ops.to_device(g_host)
        rule = net.rule
        rng_learning = net.rngs.learning
        fast_rule = self._fast_rule

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

        big = n_steps + 1  # sentinel expiry beyond the presentation
        subtractive = self._subtractive
        conductance_model = self._conductance_model

        self.occupancy.raster_cells += n_steps * sparse.n_channels
        self.occupancy.raster_active_cells += sparse.n_events

        offsets = sparse.offsets.tolist()
        channels = sparse.channels

        total_spikes = 0
        regimes_dirty = True
        next_expiry = 0
        blocked_any = False
        inh_any = False
        for j in range(n_steps):
            if regimes_dirty or j >= next_expiry:
                # Refresh regime masks; they stay valid until the earliest
                # pending expiry (or the next output spike sets new timers).
                np.greater(ref_end, j, out=blocked)
                np.greater(inh_end, j, out=inh_mask)
                if not subtractive:
                    np.logical_or(blocked, inh_mask, out=blocked)
                blocked_any = bool(blocked.any())
                inh_any = bool(inh_mask.any())
                nr = int(np.min(np.where(ref_end > j, ref_end, big)))
                ni = int(np.min(np.where(inh_end > j, inh_end, big)))
                next_expiry = min(nr, ni)
                regimes_dirty = False

            if profiler is not None:
                _t0 = clock()
            rows = channels[offsets[j] : offsets[j + 1]]
            k = rows.size
            if k:
                timers._last_pre[rows] = t_ms
                if k == 1:
                    np.multiply(g[rows[0]], self._amplitude, out=inj)
                else:
                    np.sum(g[rows], axis=0, out=inj)
                    inj *= self._amplitude
                if conductance_model:
                    np.subtract(wta.e_excitatory, v, out=scale)
                    scale /= self._scale_denom
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
                eff[blocked] = 0.0
            if subtractive and inh_any:
                eff[inh_mask] -= inh_strength

            np.multiply(v, b, out=dv)
            dv += a
            np.multiply(eff, c, out=tmp)
            dv += tmp
            dv *= dt_ms
            v += dv
            if blocked_any:
                v[blocked] = v_reset
            np.maximum(v, v_reset, out=v)

            np.add(theta, v_threshold, out=thr)
            np.greater_equal(v, thr, out=spikes)
            if blocked_any:
                spikes[blocked] = False
            n_fired = int(np.count_nonzero(spikes))
            if n_fired:
                v[spikes] = v_reset
                ref_end[spikes] = j + ref_steps

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

            # STDP runs on the host (rules/quantisers are host subsystems):
            # on a device backend the spike mask is downloaded at the steps
            # that need it and the updated conductance columns re-uploaded.
            spikes_h = spikes if on_host else None
            if learning:
                if fast_rule is None:
                    # Fallback configs (stochastic rounding, pair-LTD): the
                    # reference rule only touches state / draws RNG at post
                    # spikes (plus pre events in the pair modes), so calling
                    # it exactly then keeps the learning stream identical.
                    if n_fired or (self._pair_ltd and k):
                        pre_mask = self._pre_mask
                        pre_mask.fill(False)
                        if k:
                            pre_mask[rows] = True
                        if spikes_h is None:
                            spikes_h = ops.to_host(spikes)
                        rule.step(
                            net.synapses, timers, pre_mask, spikes_h, t_ms, rng_learning
                        )
                        if not on_host:
                            # The reference path may touch the whole matrix.
                            g = ops.to_device(g_host)
                elif n_fired:
                    if spikes_h is None:
                        spikes_h = ops.to_host(spikes)
                    if fast_rule == "stochastic":
                        stochastic_rule_columns(
                            rule, net.synapses, timers, spikes_h, t_ms, rng_learning
                        )
                    else:
                        deterministic_rule_columns(
                            rule, net.synapses, timers, spikes_h, t_ms, rng_learning
                        )
                    if not on_host:
                        cols = np.flatnonzero(spikes_h)
                        g[:, cols] = ops.to_device(g_host[:, cols])
            if n_fired:
                if spikes_h is None:
                    spikes_h = ops.to_host(spikes)
                timers._last_post[spikes_h] = t_ms
                if out_counts is not None:
                    out_counts[spikes_h] += 1
            if profiler is not None:
                _t3 = clock()
                profiler.add("stdp", _t3 - _t2)

            if n_fired:
                if t_inh > 0.0:
                    np.logical_not(spikes, out=losers)
                    scratch = self._inh_scratch
                    np.multiply(losers, j + inh_steps, out=scratch)
                    np.maximum(inh_end, scratch, out=inh_end)
                regimes_dirty = True
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

        if not on_host:
            # Download the stepped state into the live host arrays so every
            # boundary consumer keeps seeing plain host floats.
            np.copyto(net._current, ops.to_host(current))
            np.copyto(neurons._v, ops.to_host(v))
            np.copyto(neurons._theta, ops.to_host(theta))

        return total_spikes, t_ms


# ----------------------------------------------------------------------
# lock-step evaluation
# ----------------------------------------------------------------------

#: Images a :class:`LockstepChunk` steps together.  Each step costs about
#: twenty whole-array ufunc calls for the chunk plus one row-gather sum per
#: image, so the chunk shares the ufunc call overhead; at 1000 neurons any
#: chunk from 8 to 64 images ran equally fast.  Memory is O(chunk x
#: n_neurons) plus the chunk's input events.
LOCKSTEP_IMAGES = 32


class LockstepChunk:
    """Steps a chunk of frozen presentations together on ``(chunk, n_neurons)`` arrays.

    The lock-step evaluator of the gather kernels
    (:class:`~repro.engine.presentation.LockstepEvaluation`) draws each
    image's input events and hands a chunk of them to :meth:`run`.  Inside
    ``evaluation_mode`` every presentation starts from the rested state and
    reads only frozen conductances and thresholds, so the images are
    independent and advance together with the gather kernel's arithmetic:
    integer expiry timers, subtractive or blocking inhibition, and a single
    winner per image.  Each image's drive is the kernel's own row-order sum
    over the spiking rows of the float view ``synapses.g``; on-grid
    conductances sum exactly in any order, so that view gives the integer
    kernel's code drive too.

    The buffers live on the backend bound at construction, as in the
    kernels.  Conductances and thresholds upload once per evaluation and
    each chunk's event index once, so host-to-device traffic does not grow
    with ``n_steps``; the response counts download once per chunk.
    """

    def __init__(self, network: WTANetwork, n_images: int, dt_ms: float) -> None:
        self._ops = ops = backend_ops()
        xp = ops.xp
        cfg = network.config
        self._lif = cfg.lif
        self._wta = cfg.wta
        self._dt_ms = dt_ms
        self._amplitude = network.amplitude
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._gamma = network.current_decay(dt_ms) if cfg.wta.current_tau_ms > 0.0 else None
        self._inh_strength = network.neurons.inhibition_strength
        self._ref_steps = _expiry_steps(cfg.lif.refractory_ms, dt_ms)
        # Inhibition survives one step longer than its raw duration, as in
        # the kernels.
        self._inh_steps = _expiry_steps(cfg.wta.t_inh_ms, dt_ms) + 1
        self._g = ops.to_device(network.synapses.g)
        # Adaptation is frozen, so the threshold is constant.
        self._thr = ops.to_device(network.neurons.theta) + cfg.lif.v_threshold

        shape = (n_images, cfg.wta.n_neurons)
        self._v = xp.empty(shape, dtype=np.float64)
        self._current = xp.empty(shape, dtype=np.float64)
        self._inj = xp.empty(shape, dtype=np.float64)
        self._scale = xp.empty(shape, dtype=np.float64)
        self._eff = xp.empty(shape, dtype=np.float64)
        self._dv = xp.empty(shape, dtype=np.float64)
        self._tmp = xp.empty(shape, dtype=np.float64)
        self._blocked = xp.empty(shape, dtype=bool)
        self._inhibited = xp.empty(shape, dtype=bool)
        self._spikes = xp.empty(shape, dtype=bool)
        self._ref_end = xp.empty(shape, dtype=np.int64)
        self._inh_end = xp.empty(shape, dtype=np.int64)
        self._counts = xp.empty(shape, dtype=np.int64)

    def run(self, events: List[SparseRaster]) -> np.ndarray:
        """Present the chunk whose per-image event lists are *events*; host spike counts."""
        ops = self._ops
        lif = self._lif
        wta = self._wta
        dt_ms = self._dt_ms
        a, b, c = lif.a, lif.b, lif.c
        v_reset = lif.v_reset
        amplitude = self._amplitude
        gamma = self._gamma
        conductance_model = wta.synapse_model == "conductance"
        e_excitatory = wta.e_excitatory
        scale_denom = self._scale_denom
        inh_strength = self._inh_strength
        subtractive = inh_strength > 0.0
        inhibiting = wta.t_inh_ms > 0.0
        single_winner = wta.single_winner
        ref_steps = self._ref_steps
        inh_steps = self._inh_steps
        g = self._g
        thr = self._thr

        n = len(events)
        n_neurons = wta.n_neurons
        # The rested state every presentation starts from.
        v = self._v[:n]
        v.fill(lif.v_init)
        current = self._current[:n]
        current.fill(0.0)
        ref_end = self._ref_end[:n]
        ref_end.fill(0)
        inh_end = self._inh_end[:n]
        inh_end.fill(0)
        counts = self._counts[:n]
        counts.fill(0)
        inj = self._inj[:n]
        scale = self._scale[:n]
        eff = self._eff[:n]
        dv = self._dv[:n]
        tmp = self._tmp[:n]
        blocked = self._blocked[:n]
        inhibited = self._inhibited[:n]
        spikes = self._spikes[:n]
        # Flat views for scatters at spike positions.
        v_flat = v.reshape(-1)
        ref_flat = ref_end.reshape(-1)
        inh_flat = inh_end.reshape(-1)
        counts_flat = counts.reshape(-1)

        # One upload of the chunk's event index; image i's rows at step j
        # are channels[bounds[i][j]:bounds[i][j + 1]].
        channels = ops.to_device(np.concatenate([e.channels for e in events]))
        bounds = []
        base = 0
        for e in events:
            bounds.append((e.offsets + base).tolist())
            base += e.n_events
        inj_rows = list(inj)

        add_rows = np.add.reduce
        for j in range(events[0].n_steps):
            # Drive: per image, the kernel's row-order gather sum
            # (``np.sum`` of a float64 array is this ``np.add.reduce``).
            # An empty gather sums to 0.0, which the updates below leave
            # exact.
            for inj_row, bound in zip(inj_rows, bounds):
                add_rows(g[channels[bound[j] : bound[j + 1]]], axis=0, out=inj_row)
            inj *= amplitude
            if conductance_model:
                np.subtract(e_excitatory, v, out=scale)
                scale /= scale_denom
                np.maximum(scale, 0.0, out=scale)
                inj *= scale
            if gamma is not None:
                current *= gamma
                current += inj
            else:
                np.copyto(current, inj)

            # Membranes.  The kernels zero the blocked neurons' drive
            # first; their membranes are pinned to v_reset below whatever
            # the drive, so the zeroing is skipped here.
            np.greater(ref_end, j, out=blocked)
            drive = current
            if inhibiting:
                np.greater(inh_end, j, out=inhibited)
                if subtractive:
                    # inh_strength on inhibited neurons, 0.0 elsewhere
                    # (x - 0.0 == x), as in the integer kernel.
                    np.multiply(inhibited, inh_strength, out=eff)
                    np.subtract(current, eff, out=eff)
                    drive = eff
                else:
                    np.logical_or(blocked, inhibited, out=blocked)
            np.multiply(v, b, out=dv)
            dv += a
            np.multiply(drive, c, out=tmp)
            dv += tmp
            dv *= dt_ms
            v += dv
            np.copyto(v, v_reset, where=blocked)
            np.maximum(v, v_reset, out=v)

            np.greater_equal(v, thr, out=spikes)
            np.copyto(spikes, False, where=blocked)
            if not np.count_nonzero(spikes):
                continue
            fired = np.flatnonzero(spikes)
            v_flat[fired] = v_reset
            ref_flat[fired] = j + ref_steps
            winners: np.ndarray = fired
            images = np.unique(fired // n_neurons)
            if single_winner and images.size < fired.size:
                # Per image, the contender with the largest current wins
                # (lowest index on ties, as argmax over the contenders).
                contest = np.where(spikes[images], current[images], -np.inf)
                winners = images * n_neurons + np.argmax(contest, axis=1)
            counts_flat[winners] += 1
            if inhibiting:
                # Every neuron of a firing image but its winners is
                # inhibited until j + inh_steps, never shortened.
                kept = inh_flat[winners]
                rows = inh_end[images]
                np.maximum(rows, j + inh_steps, out=rows)
                inh_end[images] = rows
                inh_flat[winners] = kept

        return ops.to_host(counts)
