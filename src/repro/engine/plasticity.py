"""Column-restricted STDP application shared by the gather kernels' stores.

The float store (:class:`repro.engine.event_train.FloatStore`) and the
code store (:class:`repro.engine.qevent.CodeStore`) exploit the same
observation: at a post-synaptic spike the STDP rules only change the
*spiking columns* of the conductance matrix, so the full-matrix
delta/quantise round trip in ``ConductanceMatrix.apply_delta`` can be
replaced by :meth:`~repro.synapses.conductance.ConductanceMatrix.apply_delta_columns`
over those columns.  :func:`resolve_column_rule` says which rules admit it.

The learned values and the ``learning`` draws are identical either way:
``Quantizer.quantize_delta`` rounds only the changed synapses, in C order,
which the columns reproduce, and the other columns neither move nor draw.
Only the pair-LTD modes, which also update at pre-spike steps, make the
float store fall back to the reference rule object.

The Bernoulli draw shapes in the stochastic rule are ``(n_pre, k)`` in the
reference implementation already, so consuming the ``learning`` stream
identically is free; bit-identity of both the conductances and the RNG
stream position is part of the ``fused`` engine's contract and covered by
``tests/test_fused.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Any, Callable, Optional

import numpy as np

from repro.backend.ops import Ops
from repro.config.parameters import DeterministicSTDPParameters
from repro.engine.rng import on_backend
from repro.learning.deterministic import DeterministicSTDP
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.learning.updates import (
    depression_magnitude,
    depression_probability,
    potentiation_magnitude,
    potentiation_probability,
)

if TYPE_CHECKING:
    from repro.network.wta import WTANetwork
    from repro.quantization.codec import QCodec
    from repro.synapses.conductance import ConductanceMatrix
    from repro.synapses.traces import SpikeTimers


def resolve_column_rule(network: WTANetwork) -> Optional[str]:
    """Which column-restricted STDP path serves *network*'s rule, or ``None``.

    ``"deterministic"`` for deterministic STDP and ``"stochastic"`` for
    stochastic STDP with post-event LTD: at a post spike these rules change
    only the spiking columns.  Any other rule returns ``None``; the pair-LTD
    modes, for one, also draw the ``learning`` stream at pre-spike steps.
    The float store then runs the reference ``rule.step`` and the code
    store rejects the config.
    """
    rule = network.rule
    if isinstance(rule, DeterministicSTDP):
        return "deterministic"
    if isinstance(rule, StochasticSTDP) and rule.ltd_mode is LTDMode.POST_EVENT:
        return "stochastic"
    return None


def stochastic_rule_columns(
    rule: StochasticSTDP,
    synapses: ConductanceMatrix,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng: np.random.Generator,
) -> None:
    """``StochasticSTDP._post_spike_updates`` on the spiking columns only.

    The Bernoulli draw shapes are ``(n_pre, k)`` in the reference rule
    already, so consuming the ``learning`` stream identically is free; the
    saving is the full-matrix delta/quantise in ``apply_delta``, replaced by
    :meth:`ConductanceMatrix.apply_delta_columns`.
    """
    elapsed = timers.elapsed_pre(t_ms)
    p_pot = potentiation_probability(elapsed, rule.params)
    cols = np.flatnonzero(post)
    draws = rng.random(size=(elapsed.shape[0], cols.size))
    pot_mask = draws < p_pot[:, None]

    p_dep = depression_probability(elapsed, rule.params)
    dep_draws = rng.random(size=pot_mask.shape)
    dep_mask = ~pot_mask & (dep_draws < p_dep[:, None])
    if not pot_mask.any() and not dep_mask.any():
        return

    g_cols = synapses.g[:, cols]
    dg_pot = potentiation_magnitude(g_cols, rule.magnitudes)
    dg_dep = depression_magnitude(g_cols, rule.magnitudes)
    delta_cols = np.where(pot_mask, dg_pot, 0.0) - np.where(dep_mask, dg_dep, 0.0)
    synapses.apply_delta_columns(cols, delta_cols, rng)


def deterministic_rule_columns(
    rule: DeterministicSTDP,
    synapses: ConductanceMatrix,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng: np.random.Generator,
) -> None:
    """``DeterministicSTDP.step`` on the spiking columns only."""
    elapsed = timers.elapsed_pre(t_ms)
    recent = elapsed <= rule.params.window_ms
    cols = np.flatnonzero(post)
    g_cols = synapses.g[:, cols]
    dg_pot = potentiation_magnitude(g_cols, rule.params)
    dg_dep = depression_magnitude(g_cols, rule.params)
    delta_cols = np.where(recent[:, None], dg_pot, -dg_dep)
    synapses.apply_delta_columns(cols, delta_cols, rng)


# ----------------------------------------------------------------------
# code-domain variants (the integer ``qfused`` tier)
# ----------------------------------------------------------------------
#
# Same column restriction over Q-format *codes* (uint8/uint16): the delta is
# rounded straight to signed code increments by ``QCodec.delta_codes``,
# fusing eq.-8 stochastic rounding into the scatter as an integer
# compare-against-random.  The Bernoulli LTP/LTD draws and then the rounding
# draws — one uniform per *changed* synapse, in C order — consume the
# ``learning`` stream exactly as the float rules' ``quantize_delta`` does,
# keeping that stream's position bit-identical across tiers.
#
# Backend generality: *codes* may be device-resident (the quantized engines
# keep them on device for the whole run).  Timer state and the Bernoulli
# draws are host subsystems, so probabilities and masks are computed on the
# host — identical draw order on every backend — and uploaded through the
# explicit ``ops.to_device`` seam before they meet the device codes.  The
# eq.-8 rounding draws come from the same stream, which the kernels wrap for
# the backend (a ``DeviceRng`` on device backends, see ``on_backend``), so
# ``QCodec.delta_codes`` draws host-identically too.
#
# At <= 8 bits (the fixed-LSB regime) ``QCodec.delta_codes`` reduces every
# change to ``sign(delta)`` and draws nothing, so once eqs. 4-5 are known to
# be positive at every storable code an update is exactly the LTP mask
# minus the LTD mask, applied as a saturating +-1 code step: no decode, no
# magnitudes, no rounding and no int64 widening.  The magnitude path stays
# for wider formats and as the fallback when a magnitude underflows.


def _device_uploader(ops: Optional[Ops]) -> Callable[[np.ndarray], Any]:
    """The mask-upload seam: identity on the host, ``to_device`` elsewhere."""
    if ops is None or ops.is_host:
        return lambda array: array
    return ops.to_device


@lru_cache(maxsize=64)
def unit_steps_exact(params: DeterministicSTDPParameters, codec: QCodec) -> bool:
    """Whether every update under *params* is a +-1 code step in *codec*.

    True when the format is fixed-LSB and eqs. 4-5 are positive at every
    storable code ``0 .. max_code``: ``QCodec.delta_codes`` then maps each
    LTP event to exactly +1 code and each LTD event to -1.  The threshold is
    the smallest normal float64, so no ``exp`` implementation can round a
    passing magnitude to 0.  A large ``beta_p`` or ``beta_d`` underflows
    eq. 4 or 5 at the far end of the range; the caller then keeps the
    magnitude path, where those synapses do not move.  A pure function of
    two frozen dataclasses, so it is evaluated once per pair.
    """
    if not codec.fixed_lsb:
        return False
    # A handful of scalar evaluations on the host, never a kernel operand.
    g = codec.decode(np.arange(codec.max_code + 1))
    tiny = np.finfo(np.float64).tiny
    return bool(
        np.all(potentiation_magnitude(g, params) >= tiny)
        and np.all(depression_magnitude(g, params) >= tiny)
    )


def _step_codes(
    codes: np.ndarray,
    cols: np.ndarray,
    up: np.ndarray,
    down: np.ndarray,
    max_code: int,
) -> None:
    """Saturating +1 on *up* and -1 on *down* over the *cols* columns of *codes*.

    *up* and *down* are disjoint boolean masks broadcastable to
    ``(n_pre, cols.size)``.  Each step is taken only where it stays inside
    ``[0, max_code]``, so unsigned storage never wraps and needs no
    widening; on stored codes this equals ``QCodec.apply_delta_codes`` with
    ``up - down`` as the increments.
    """
    updated = codes[:, cols]
    updated += up & (updated < max_code)
    updated -= down & (updated > 0)
    # Saturated by the guards above, which R7 cannot see (it wants a clip).
    codes[:, cols] = updated  # lint-ok: R7


def quantized_stochastic_columns(
    rule: StochasticSTDP,
    codes: np.ndarray,
    codec: QCodec,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng: np.random.Generator,
    ops: Optional[Ops] = None,
) -> None:
    """:func:`stochastic_rule_columns` operating on Q-format codes.

    When :func:`unit_steps_exact` holds (<= 8 bits), the LTP mask minus the
    LTD mask lands as a saturating +-1 code step; otherwise eqs. 4-5 are
    rounded to code increments by ``QCodec.delta_codes``, drawing from
    *rng* (the ``learning`` stream) after the Bernoulli draws.  The
    Bernoulli draws are the same either way, and at <= 8 bits neither path
    makes a rounding draw.
    """
    upload = _device_uploader(ops)
    xp = np if ops is None else ops.xp
    elapsed = timers.elapsed_pre(t_ms)
    p_pot = potentiation_probability(elapsed, rule.params)
    cols = np.flatnonzero(post)
    draws = rng.random(size=(elapsed.shape[0], cols.size))
    pot_mask = draws < p_pot[:, None]

    p_dep = depression_probability(elapsed, rule.params)
    dep_draws = rng.random(size=pot_mask.shape)
    dep_mask = ~pot_mask & (dep_draws < p_dep[:, None])
    if not pot_mask.any() and not dep_mask.any():
        return

    if unit_steps_exact(rule.magnitudes, codec):
        _step_codes(codes, cols, upload(pot_mask), upload(dep_mask), codec.max_code)
        return
    g_cols = codec.decode(codes[:, cols])
    dg_pot = potentiation_magnitude(g_cols, rule.magnitudes)
    dg_dep = depression_magnitude(g_cols, rule.magnitudes)
    delta_cols = np.where(upload(pot_mask), dg_pot, 0.0) - np.where(
        upload(dep_mask), dg_dep, 0.0
    )
    delta_codes = np.where(
        delta_cols != 0.0, codec.delta_codes(delta_cols, on_backend(rng, ops), xp=xp), 0.0
    )
    codec.apply_delta_codes(codes, cols, delta_codes)


def quantized_deterministic_columns(
    rule: DeterministicSTDP,
    codes: np.ndarray,
    codec: QCodec,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng: np.random.Generator,
    ops: Optional[Ops] = None,
) -> None:
    """:func:`deterministic_rule_columns` operating on Q-format codes.

    When :func:`unit_steps_exact` holds (<= 8 bits), the spiking columns
    step +1 code on recently active rows and -1 on the rest, saturating;
    otherwise eqs. 4-5 are rounded by ``QCodec.delta_codes``, drawing from
    *rng* (the ``learning`` stream).
    """
    upload = _device_uploader(ops)
    xp = np if ops is None else ops.xp
    elapsed = timers.elapsed_pre(t_ms)
    recent = upload(elapsed[:, None] <= rule.params.window_ms)
    cols = np.flatnonzero(post)
    if unit_steps_exact(rule.params, codec):
        _step_codes(codes, cols, recent, ~recent, codec.max_code)
        return
    g_cols = codec.decode(codes[:, cols])
    dg_pot = potentiation_magnitude(g_cols, rule.params)
    dg_dep = depression_magnitude(g_cols, rule.params)
    delta_cols = np.where(recent, dg_pot, -dg_dep)
    delta_codes = np.where(
        delta_cols != 0.0, codec.delta_codes(delta_cols, on_backend(rng, ops), xp=xp), 0.0
    )
    codec.apply_delta_codes(codes, cols, delta_codes)
