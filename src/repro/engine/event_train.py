"""The gather kernels' presentation loop (``fused`` and ``qfused``) and lock-step evaluation.

One presentation per :meth:`EventPresentation.run` call: the input raster
is drawn up front and every step advances membranes, currents and
thresholds with the reference loop's arithmetic.  The loop is written once
for both precisions; what differs is the conductance *store* it reads the
drive from and lands STDP in:

- :class:`FloatStore` (``fused``) — the float64 conductance matrix itself;
- :class:`~repro.engine.qevent.CodeStore` (``qfused``) — the same matrix
  held as uint8/uint16 Q-format codes for the whole presentation.

The loop calls its store for three things: the drive (:meth:`~FloatStore.gather`),
STDP (:meth:`~FloatStore.learn`, at post-spike steps, and at input-event
steps for a store that sets ``learns_at_input_events``) and the entry/exit
sync (:meth:`~FloatStore.sync_in` / :meth:`~FloatStore.sync_out`).  It
exploits the sparsity of rate-coded input — the event-driven direction
Bautembach et al. describe (PAPERS.md, arXiv:2107.04092) — in three ways:

**Sparse input gathers.**  The pre-generated raster (the same
``generate_train`` draw the reference loop's per-step draws make, so the
``encoding`` RNG stream is consumed identically) is converted to per-step
event column lists (:func:`repro.encoding.events.sparsify`).  Injection at
an event step sums only the spiking rows of the store's matrix, in row
order (:func:`gather_drive`) — a few row reads instead of a dense
``vec @ matrix``.

**Integer timers and cached regimes.**  Refractory and WTA-inhibition
timers are integer expiry *steps* (no per-step float decrement over the
population), and the regime state they imply is cached: the
subtractive-mode refractory set is a small index array with a FIFO of
expiries, and the inhibition term is a drive vector rebuilt only when its
mask changes.  Float timer state is synchronised back into the network at
the end of each presentation, so engines stay interchangeable between
images.

**Lazy plasticity.**  ``last_pre`` is written only at event steps (a sparse
scatter over the few spiking channels, not a masked write over all 784),
and STDP runs only at the steps where the rule can change state.

Contract — **bit-exact** to the reference loop under pinned seeds, over
either store and under every rounding option: conductances, thetas,
membranes, currents, timers and spike counts.
:meth:`~repro.network.wta.WTANetwork.drive` sums eq. 3 over the active
rows in the same row order (``np.add.reduce(g[rows], axis=0)``), so no
result depends on how a BLAS build groups a matrix-vector product, and
weight updates read only spike times, timers and the ``learning`` stream,
which also serves eq.-8 rounding: one uniform per changed synapse, in C
order, in every tier.
``tests/test_fused.py``, ``tests/test_event_train.py`` and
``tests/test_gather_timers.py`` pin it.

**Lock-step evaluation.**  Evaluation does not present through
:meth:`EventPresentation.run`: frozen presentations are independent, so
:class:`LockstepChunk` steps a chunk of them together with this loop's
arithmetic, bit-identical to presenting them one at a time (see
:class:`repro.engine.presentation.LockstepEvaluation`, which serves both
``fused`` and ``qfused``).
"""

from __future__ import annotations

import math
from collections import deque
from typing import TYPE_CHECKING, Any, Deque, List, Optional, Tuple, Union

import numpy as np

from repro.backend import backend_ops
from repro.encoding.events import SparseRaster, sparsify
from repro.engine.plasticity import (
    deterministic_rule_columns,
    resolve_column_rule,
    stochastic_rule_columns,
)
from repro.errors import SimulationError
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.network.wta import WTANetwork

if TYPE_CHECKING:
    from repro.engine.qevent import CodeStore


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


def gather_drive(
    matrix: np.ndarray,
    rows: np.ndarray,
    scale: float,
    out: np.ndarray,
    acc_dtype: "np.dtype[Any]",
) -> np.ndarray:
    """Sparse row-gather drive: sum the *rows* of *matrix* in row order, scale into *out*.

    The float store passes its conductances with ``scale = amplitude`` and
    ``acc_dtype = float64``: the reference loop's
    ``np.add.reduce(g[rows], axis=0) * amplitude``.  The code store passes
    its codes with ``scale = resolution * amplitude`` (a power-of-two
    multiple of the amplitude, so exact) and ``acc_dtype = int64``; on-grid
    code sums below ``2^53`` are exact, so the one multiply is the only
    rounding, of the same real product the float path rounds.  A single
    row skips the reduction; a one-element sum is exact, so the result is
    the same.
    """
    if rows.size == 1:
        return np.multiply(matrix[rows[0]], scale, out=out)
    acc = matrix[rows].sum(axis=0, dtype=acc_dtype)
    return np.multiply(acc, scale, out=out)


class FloatStore:
    """The float64 conductance matrix as the loop's store (``fused``).

    ``network.synapses.g`` is the live state: the drive reads it (through a
    read-only device copy on a device backend) and STDP writes it on the
    host.  Rules whose updates touch only the spiking columns run
    column-restricted under every rounding option
    (:func:`~repro.engine.plasticity.stochastic_rule_columns` /
    :func:`~repro.engine.plasticity.deterministic_rule_columns`); the
    pair-LTD modes run the reference ``rule.step``, called exactly at the
    steps where it touches state or draws from the ``learning`` stream, so
    the stream stays identical.
    """

    def __init__(self, network: WTANetwork) -> None:
        self._ops = backend_ops()
        self.net = network
        self._amplitude = network.amplitude
        self._acc_dtype = np.dtype(np.float64)
        self._column_rule = resolve_column_rule(network)
        # PAIR/BOTH-mode LTD draws the learning stream at *pre*-spike steps
        # too, so the reference rule must also run at every input-event step.
        rule = network.rule
        self.learns_at_input_events = isinstance(
            rule, StochasticSTDP
        ) and rule.ltd_mode in (LTDMode.PAIR, LTDMode.BOTH)
        # Host-side: consumed only by the reference rule, a host subsystem.
        self._pre_mask = np.empty(network.n_pixels, dtype=bool)
        self._g = self._ops.to_device(network.synapses.g)

    def sync_in(self) -> None:
        """Upload the float view the drive reads (an identity on the host)."""
        self._g = self._ops.to_device(self.net.synapses.g)

    def gather(self, rows: np.ndarray, out: np.ndarray) -> None:
        """The eq.-3 drive of the spiking *rows* into *out*."""
        gather_drive(self._g, rows, self._amplitude, out, self._acc_dtype)

    def learn(self, rows: np.ndarray, post: np.ndarray, t_ms: float) -> None:
        """STDP for this step's input *rows* and host spike mask *post*."""
        net = self.net
        ops = self._ops
        g = net.synapses.g
        if self._column_rule is None:
            pre_mask = self._pre_mask
            pre_mask.fill(False)
            pre_mask[rows] = True
            net.rule.step(net.synapses, net.timers, pre_mask, post, t_ms, net.rngs.learning)
            if not ops.is_host:
                # The reference path may touch the whole matrix.
                self._g = ops.to_device(g)
            return
        if self._column_rule == "stochastic":
            stochastic_rule_columns(
                net.rule, net.synapses, net.timers, post, t_ms, net.rngs.learning
            )
        else:
            deterministic_rule_columns(
                net.rule, net.synapses, net.timers, post, t_ms, net.rngs.learning
            )
        if not ops.is_host:
            cols = np.flatnonzero(post)
            self._g[:, cols] = ops.to_device(g[:, cols])

    def sync_out(self) -> None:
        """Nothing to write back: STDP landed in the host matrix directly."""


#: A conductance store the loop presents over.
Store = Union[FloatStore, "CodeStore"]


class EventPresentation:
    """The gather kernels' presentation loop over a conductance store.

    Construct once per training run and call :meth:`run` once per image;
    *store* defaults to a :class:`FloatStore` over ``network.synapses``
    (the ``fused`` engine).  The loop reads and mutates the live network
    state and consumes the ``encoding`` and ``learning`` RNG streams in the
    same order as the reference loop, so presentations can interleave with
    it; see the module docstring for the equivalence contract.
    """

    def __init__(self, network: WTANetwork, store: Optional[Store] = None) -> None:
        self._ops = backend_ops()
        xp = self._ops.xp
        self.net = network
        self.store: Store = store if store is not None else FloatStore(network)
        cfg = network.config
        self._wta = cfg.wta
        self._lif = cfg.lif
        n = cfg.wta.n_neurons

        self._conductance_model = cfg.wta.synapse_model == "conductance"
        self._scale_denom = cfg.wta.e_excitatory - cfg.lif.v_reset
        self._subtractive = network.neurons.inhibition_strength > 0.0

        # Preallocated work buffers, resident on the backend the loop
        # steps on.
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

    # ------------------------------------------------------------------
    # kernel
    # ------------------------------------------------------------------

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        """Present *image* for *n_steps* steps of *dt_ms*, starting at *t_ms*.

        Returns ``(total_output_spikes, t_ms_after)`` — the protocol of
        :meth:`~repro.engine.presentation.PresentationEngine.run`.  The
        store syncs in on entry and out on exit (the float view
        ``synapses.g`` is authoritative between presentations); spike
        times handed to the STDP timers come from the same repeated
        ``+ dt_ms`` float accumulation the reference loop performs, so
        timer contents match exactly.

        *out_counts* (int64, length ``n_neurons``) accumulates each
        neuron's post-arbitration spike count.
        """
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.net
        lif = self._lif
        wta = self._wta
        store = self.store
        ops = self._ops
        on_host = ops.is_host

        store.sync_in()
        net.present_image(image)
        raster = net.encoder.generate_train(n_steps, dt_ms, net.rngs.encoding)
        sparse = sparsify(raster)

        neurons = net.neurons
        timers = net.timers
        has_decay = wta.current_tau_ms > 0.0
        gamma = net.current_decay(dt_ms) if has_decay else 0.0
        theta_decay = neurons.theta_decay(dt_ms)
        adapting = neurons.adaptation.enabled
        theta_plus = neurons.adaptation.theta_plus
        learning = net.learning_enabled
        pre_learning = learning and store.learns_at_input_events
        inh_strength = neurons.inhibition_strength
        t_inh = wta.t_inh_ms
        single_winner = wta.single_winner
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

            rows = rows_at[j]
            if rows is not empty_rows:
                last_pre[rows] = t_ms
                store.gather(rows, inj)
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

            if single_winner and n_fired > 1:
                contenders = np.flatnonzero(spikes)
                winner = contenders[np.argmax(current[contenders])]
                spikes.fill(False)
                spikes[winner] = True
                n_fired = 1

            # STDP runs on the host (timers, rules and every RNG draw are
            # host subsystems): on a device backend the spike mask is
            # downloaded at the steps that need it.  It runs before this
            # step's ``last_post`` write, as in the reference loop.
            if n_fired:
                spikes_h = spikes if on_host else ops.to_host(spikes)
                if learning:
                    store.learn(rows, spikes_h, t_ms)
                last_post[spikes_h] = t_ms
                if out_counts is not None:
                    out_counts[spikes_h] += 1
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
            elif pre_learning and rows is not empty_rows:
                store.learn(rows, spikes if on_host else ops.to_host(spikes), t_ms)

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

        # Boundary sync out: the float view becomes authoritative again for
        # everything that runs between presentations; device backends
        # download the neuron-state mirrors too.
        store.sync_out()
        if not on_host:
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
    independent and advance together with the gather loop's arithmetic:
    integer expiry timers, subtractive or blocking inhibition, and a single
    winner per image.  Each image's drive is the loop's own row-order sum
    over the spiking rows of the float view ``synapses.g``; on-grid
    conductances sum exactly in any order, so that view gives the code
    store's drive too.

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
            # Drive: per image, the loop's row-order gather sum
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

            # Membranes.  The presentation loop zeroes the blocked neurons'
            # drive first; their membranes are pinned to v_reset below
            # whatever the drive, so the zeroing is skipped here.
            np.greater(ref_end, j, out=blocked)
            drive = current
            if inhibiting:
                np.greater(inh_end, j, out=inhibited)
                if subtractive:
                    # inh_strength on inhibited neurons, 0.0 elsewhere
                    # (x - 0.0 == x), as in the presentation loop.
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
