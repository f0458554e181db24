"""Column-restricted STDP application shared by the gather kernels.

The float gather kernel (:mod:`repro.engine.event_train`) and the integer
one (:mod:`repro.engine.qevent`) exploit the same observation: at a
post-synaptic spike the STDP rules only change the
*spiking columns* of the conductance matrix, so the full-matrix
delta/quantise round trip in ``ConductanceMatrix.apply_delta`` can be
replaced by :meth:`~repro.synapses.conductance.ConductanceMatrix.apply_delta_columns`
over those columns.

The learned values are identical either way; the restriction is only valid
when the quantiser draws no RNG inside ``quantize()``/``quantize_delta()``
(otherwise the skipped columns would have consumed draws in the full-matrix
path and the ``learning`` stream would diverge).  Stochastic *rounding* and
the pair-LTD modes therefore report ``None`` from :func:`resolve_fast_rule`
and the kernels fall back to the reference rule object.

The Bernoulli draw shapes in the stochastic rule are ``(n_pre, k)`` in the
reference implementation already, so consuming the ``learning`` stream
identically is free; bit-identity of both the conductances and the RNG
stream position is part of the ``fused`` engine's contract and covered by
``tests/test_fused.py``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.backend.ops import Ops
from repro.config.parameters import DeterministicSTDPParameters, RoundingMode
from repro.engine.rng import DeviceRng
from repro.errors import ConfigurationError
from repro.learning.deterministic import DeterministicSTDP
from repro.learning.stochastic import LTDMode, StochasticSTDP
from repro.learning.updates import (
    depression_magnitude,
    depression_probability,
    potentiation_magnitude,
    potentiation_probability,
)
from repro.quantization.quantizer import FloatQuantizer

if TYPE_CHECKING:
    from repro.network.wta import WTANetwork
    from repro.quantization.codec import QCodec
    from repro.synapses.conductance import ConductanceMatrix
    from repro.synapses.traces import SpikeTimers


def resolve_fast_rule(network: WTANetwork) -> Optional[str]:
    """Which column-restricted path serves *network*, or ``None``.

    Returns ``"deterministic"`` / ``"stochastic"`` when the rule/quantiser
    combination admits the column restriction, else ``None`` (kernels then
    call the reference ``rule.step`` full-matrix path, which remains
    bit-identical by construction).
    """
    quantizer = network.synapses.quantizer
    rng_free_quantizer = isinstance(quantizer, FloatQuantizer) or (
        quantizer.rounding is not RoundingMode.STOCHASTIC
    )
    if not rng_free_quantizer:
        return None
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


def resolve_quantized_rule(network: WTANetwork) -> str:
    """Which code-domain column path serves *network*'s rule, or raise.

    The integer-native training kernel (``qfused``) serves
    exactly the column-restricted rules: plain deterministic STDP, or
    stochastic STDP with post-event LTD.  The pair-LTD modes touch the
    learning stream at pre-spike steps through the full-matrix reference
    path and have no code-domain equivalent, so — unlike
    :func:`resolve_fast_rule`'s ``None``-means-fallback contract — an
    unsupported rule is a configuration error here.
    """
    rule = network.rule
    if isinstance(rule, DeterministicSTDP):
        return "deterministic"
    if isinstance(rule, StochasticSTDP) and rule.ltd_mode is LTDMode.POST_EVENT:
        return "stochastic"
    raise ConfigurationError(
        "the integer-native engines serve the column-restricted STDP rules "
        "only (stdp.kind='deterministic', or 'stochastic' with "
        "ltd_mode='post_event'); pair-LTD modes need the float 'fused' "
        "engine, which runs them through the reference rule"
    )


# ----------------------------------------------------------------------
# code-domain variants (the integer ``qfused`` tier)
# ----------------------------------------------------------------------
#
# Same column restriction, generalised over the storage dtype: conductances
# live as Q-format *codes* (uint8/uint16 — or integer-valued float64 for the
# shadow-twin storage used by equivalence checks) and the delta is rounded
# straight to signed code increments by ``QCodec.delta_codes``, fusing eq.-8
# stochastic rounding into the scatter as an integer compare-against-random.
# The rounding draws come from the dedicated ``qrounding`` stream — one
# uniform per *changed* synapse instead of the full-matrix draw the
# float-simulated path burns inside ``Quantizer.quantize`` — while the
# Bernoulli LTP/LTD draws consume the ``learning`` stream with exactly the
# reference shapes, keeping that stream's position bit-identical.
#
# Backend generality: *codes* may be device-resident (the quantized engines
# keep them on device for the whole run).  Timer state and the Bernoulli
# draws are host subsystems, so probabilities and masks are computed on the
# host — identical draw order on every backend — and uploaded through the
# explicit ``ops.to_device`` seam before they meet the device codes.  The
# rounding stream arrives pre-adapted (a ``DeviceRng`` on device backends),
# so ``QCodec.delta_codes`` draws host-identically too.
#
# At <= 8 bits (the fixed-LSB regime) ``QCodec.delta_codes`` reduces every
# change to ``sign(delta)`` and draws nothing, so once eqs. 4-5 are known to
# be positive at every storable code an update is exactly the LTP mask
# minus the LTD mask, applied as a saturating +-1 code step: no decode, no
# magnitudes, no rounding and no int64 widening.  The magnitude path stays
# for wider formats and as the fallback when a magnitude underflows.


def _device_uploader(ops: Optional[Ops]):
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
    g = codec.decode(np.arange(codec.max_code + 1))  # lint-ok: R6
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
    mask_cols: Optional[np.ndarray],
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
    if mask_cols is not None:
        updated = np.where(mask_cols, updated, 0)
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
    rng_rounding: Union[np.random.Generator, DeviceRng],
    conn_mask: Optional[np.ndarray] = None,
    ops: Optional[Ops] = None,
) -> None:
    """:func:`stochastic_rule_columns` operating on Q-format codes.

    When :func:`unit_steps_exact` holds (<= 8 bits), the LTP mask minus the
    LTD mask lands as a saturating +-1 code step; otherwise eqs. 4-5 are
    rounded to code increments by ``QCodec.delta_codes``.  The ``learning``
    draws are the same either way, and at <= 8 bits neither path draws from
    *rng_rounding*.
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

    mask_cols = None if conn_mask is None else upload(conn_mask[:, cols])
    if unit_steps_exact(rule.magnitudes, codec):
        _step_codes(
            codes, cols, upload(pot_mask), upload(dep_mask), codec.max_code, mask_cols
        )
        return
    g_cols = codec.decode(codes[:, cols])
    dg_pot = potentiation_magnitude(g_cols, rule.magnitudes)
    dg_dep = depression_magnitude(g_cols, rule.magnitudes)
    delta_cols = np.where(upload(pot_mask), dg_pot, 0.0) - np.where(
        upload(dep_mask), dg_dep, 0.0
    )
    delta_codes = np.where(
        delta_cols != 0.0, codec.delta_codes(delta_cols, rng_rounding, xp=xp), 0.0
    )
    codec.apply_delta_codes(codes, cols, delta_codes, mask_cols)


def quantized_deterministic_columns(
    rule: DeterministicSTDP,
    codes: np.ndarray,
    codec: QCodec,
    timers: SpikeTimers,
    post: np.ndarray,
    t_ms: float,
    rng_rounding: Union[np.random.Generator, DeviceRng],
    conn_mask: Optional[np.ndarray] = None,
    ops: Optional[Ops] = None,
) -> None:
    """:func:`deterministic_rule_columns` operating on Q-format codes.

    When :func:`unit_steps_exact` holds (<= 8 bits), the spiking columns
    step +1 code on recently active rows and -1 on the rest, saturating;
    otherwise eqs. 4-5 are rounded by ``QCodec.delta_codes``.
    """
    upload = _device_uploader(ops)
    xp = np if ops is None else ops.xp
    elapsed = timers.elapsed_pre(t_ms)
    recent = upload(elapsed[:, None] <= rule.params.window_ms)
    cols = np.flatnonzero(post)
    mask_cols = None if conn_mask is None else upload(conn_mask[:, cols])
    if unit_steps_exact(rule.params, codec):
        _step_codes(codes, cols, recent, ~recent, codec.max_code, mask_cols)
        return
    g_cols = codec.decode(codes[:, cols])
    dg_pot = potentiation_magnitude(g_cols, rule.params)
    dg_dep = depression_magnitude(g_cols, rule.params)
    delta_cols = np.where(recent, dg_pot, -dg_dep)
    delta_codes = np.where(
        delta_cols != 0.0, codec.delta_codes(delta_cols, rng_rounding, xp=xp), 0.0
    )
    codec.apply_delta_codes(codes, cols, delta_codes, mask_cols)
