"""Timer-regime equivalence of the gather loop (``fused`` and ``qfused``).

The presentation loop (:mod:`repro.engine.event_train`) keeps refractory and
WTA-inhibition timers as integer expiry steps with cached regime state: a
FIFO of refractory expiries under subtractive inhibition, coupled boolean
masks under hard inhibition, and separate branches for timers of one step
or less (``ref_steps > 1``, ``inh_steps > 1``), for ``t_inh > 0`` and for
FIFO expiry.  Each config below presents the same images through
``reference``, ``fused`` and ``qfused`` (Q1.7, nearest rounding, where the
code store is bit-exact) and requires identical per-neuron spike counts,
conductances, thresholds, membranes and exported timers after every
presentation, then identical lock-step evaluation responses.

The configs are a 16-row slice of refractory {0, 1 step, 2, 7 ms} x
``t_inh`` {0, 1 step, 3, 20 ms} x hard/subtractive inhibition x single
winner on/off x dt {1, 0.5 ms} that holds every pair of levels of any two
factors.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.engine.registry import create_training_engine
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator

#: ``None`` stands for one step of the config's dt.
STEP = None

#: (refractory_ms, t_inh_ms, hard inhibition, single winner, dt_ms).
TIMER_CONFIGS = [
    (0.0, 0.0, False, False, 1.0),
    (0.0, STEP, True, False, 0.5),
    (0.0, 3.0, False, True, 0.5),
    (0.0, 20.0, True, True, 1.0),
    (STEP, 0.0, True, False, 0.5),
    (STEP, STEP, False, False, 1.0),
    (STEP, 3.0, True, True, 1.0),
    (STEP, 20.0, False, True, 0.5),
    (2.0, 0.0, False, True, 0.5),
    (2.0, STEP, True, True, 1.0),
    (2.0, 3.0, False, False, 1.0),
    (2.0, 20.0, True, False, 0.5),
    (7.0, 0.0, True, True, 1.0),
    (7.0, STEP, False, True, 0.5),
    (7.0, 3.0, True, False, 0.5),
    (7.0, 20.0, False, False, 1.0),
]


def _config_id(config):
    refractory, t_inh, hard, single, dt = config

    def ms(value):
        return "1step" if value is STEP else f"{value:g}ms"

    return (
        f"ref{ms(refractory)}-inh{ms(t_inh)}-{'hard' if hard else 'sub'}"
        f"-{'single' if single else 'multi'}-dt{dt:g}"
    )


def _experiment(refractory, t_inh, hard, single, dt):
    cfg = get_preset("float32", n_neurons=12, seed=4)
    refractory = dt if refractory is STEP else refractory
    t_inh = dt if t_inh is STEP else t_inh
    return replace(
        cfg,
        lif=replace(cfg.lif, refractory_ms=refractory),
        wta=replace(
            cfg.wta,
            t_inh_ms=t_inh,
            inhibition_strength=0.0 if hard else cfg.wta.inhibition_strength,
            single_winner=single,
        ),
        encoding=replace(cfg.encoding, f_max_hz=60.0),
        quantization=QuantizationConfig(fmt="Q1.7", rounding=RoundingMode.NEAREST),
        simulation=replace(cfg.simulation, dt_ms=dt, t_learn_ms=60.0, t_rest_ms=5.0),
    )


def _present_and_evaluate(config, engine, digits):
    """Per-presentation state snapshots, then lock-step responses."""
    net = WTANetwork(config, n_pixels=digits.train_images[0].size)
    kernel = create_training_engine(engine, net)
    sim = config.simulation
    snapshots = []
    t_ms = 0.0
    for image in digits.train_images:
        counts = np.zeros(config.wta.n_neurons, dtype=np.int64)
        _, t_ms = kernel.run(image, t_ms, sim.steps_per_image, sim.dt_ms, out_counts=counts)
        neurons = net.neurons
        snapshots.append(
            {
                "spikes": counts,
                "g": net.conductances.copy(),
                "theta": neurons.theta.copy(),
                "v": neurons.v.copy(),
                "refractory_left": neurons._refractory_left.copy(),
                "inhibited_left": neurons._inhibited_left.copy(),
            }
        )
        net.rest()
        t_ms += sim.t_rest_ms
    responses = Evaluator(net, t_present_ms=sim.t_learn_ms, engine=engine).collect_responses(
        digits.test_images
    )
    return snapshots, responses


@pytest.fixture(scope="module")
def digits():
    return load_dataset("mnist", n_train=4, n_test=4, size=8, seed=11)


@pytest.mark.parametrize("timers", TIMER_CONFIGS, ids=[_config_id(c) for c in TIMER_CONFIGS])
def test_gather_loop_matches_reference(digits, timers):
    config = _experiment(*timers)
    want, want_responses = _present_and_evaluate(config, "reference", digits)
    # The comparison must mean something: neurons fire during training and
    # evaluation.
    assert sum(int(s["spikes"].sum()) for s in want) > 0
    assert want_responses.sum() > 0
    for engine in ("fused", "qfused"):
        got, got_responses = _present_and_evaluate(config, engine, digits)
        for index, (g, w) in enumerate(zip(got, want)):
            for key in w:
                assert np.array_equal(g[key], w[key]), (engine, index, key)
        assert np.array_equal(got_responses, want_responses), engine
