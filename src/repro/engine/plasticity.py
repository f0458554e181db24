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

from typing import TYPE_CHECKING, Optional, Union

import numpy as np

from repro.backend.ops import Ops
from repro.config.parameters import RoundingMode
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


def _device_uploader(ops: Optional[Ops]):
    """The mask-upload seam: identity on the host, ``to_device`` elsewhere."""
    if ops is None or ops.is_host:
        return lambda array: array
    return ops.to_device


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
    """:func:`stochastic_rule_columns` operating on Q-format codes."""
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

    g_cols = codec.decode(codes[:, cols])
    dg_pot = potentiation_magnitude(g_cols, rule.magnitudes)
    dg_dep = depression_magnitude(g_cols, rule.magnitudes)
    delta_cols = np.where(upload(pot_mask), dg_pot, 0.0) - np.where(
        upload(dep_mask), dg_dep, 0.0
    )
    delta_codes = np.where(
        delta_cols != 0.0, codec.delta_codes(delta_cols, rng_rounding, xp=xp), 0.0
    )
    mask_cols = None if conn_mask is None else upload(conn_mask[:, cols])
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
    """:func:`deterministic_rule_columns` operating on Q-format codes."""
    upload = _device_uploader(ops)
    xp = np if ops is None else ops.xp
    elapsed = timers.elapsed_pre(t_ms)
    recent = elapsed <= rule.params.window_ms
    cols = np.flatnonzero(post)
    g_cols = codec.decode(codes[:, cols])
    dg_pot = potentiation_magnitude(g_cols, rule.params)
    dg_dep = depression_magnitude(g_cols, rule.params)
    delta_cols = np.where(upload(recent[:, None]), dg_pot, -dg_dep)
    delta_codes = np.where(
        delta_cols != 0.0, codec.delta_codes(delta_cols, rng_rounding, xp=xp), 0.0
    )
    mask_cols = None if conn_mask is None else upload(conn_mask[:, cols])
    codec.apply_delta_codes(codes, cols, delta_codes, mask_cols)
