"""Fig. 4 — spiking-activity validation and engine performance.

The paper validates ParallelSpikeSim against CARLsim on a network of 10^3
LIF neurons / 10^4 synapses, showing matching spiking activity, then
compares simulation performance.  Here the roles are played by the two
float engines that train the network:

- ``reference`` — :meth:`~repro.network.wta.WTANetwork.advance`, one
  whole-population step at a time (dense eq.-3 sums, full-matrix STDP);
- ``fused`` — the gather kernel (sparse input gathers, integer expiry
  timers, column-restricted STDP).

Both present the same images from the same seed on the float32 preset with
stochastic STDP, on Fig. 4's network (1000 neurons behind 10 input
channels, a 2 x 5 image, 10^4 synapses) and on the 784 x 1000 training
network.  The bench asserts bit-identical per-image spike counts,
conductances and thresholds, then reports each engine's process CPU time
per image as the median [IQR] over repeats, and the ratio of the medians.
"""

import time

import numpy as np

from benchmarks.conftest import publish
from repro.analysis.report import format_table
from repro.config.parameters import STDPKind
from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.engine.registry import create_training_engine
from repro.network.wta import WTANetwork

ENGINES = ("reference", "fused")
N_NEURONS = 1000
SEED = 1


def _config():
    return get_preset("float32", stdp_kind=STDPKind.STOCHASTIC, n_neurons=N_NEURONS, seed=SEED)


def _present(engine_name, images):
    """Train a fresh network on *images*; return its state and CPU s/image."""
    cfg = _config()
    net = WTANetwork(cfg, images[0].size)
    engine = create_training_engine(engine_name, net)
    sim = cfg.simulation
    steps = int(round(sim.t_learn_ms / sim.dt_ms))
    t_ms = 0.0
    spikes = []
    cpu_s = 0.0
    for image in images:
        start = time.process_time()
        n_spikes, t_ms = engine.run(image, t_ms, steps, sim.dt_ms)
        cpu_s += time.process_time() - start
        net.rest()
        t_ms += sim.t_rest_ms
        spikes.append(n_spikes)
    state = {
        "spikes": np.array(spikes),
        "conductances": net.conductances.copy(),
        "thetas": net.neurons.theta.copy(),
    }
    return state, cpu_s / len(images)


def _compare(images, repeats):
    """Per-engine ms/image over *repeats* runs, alternating which goes first."""
    ms = {name: [] for name in ENGINES}
    states = {}
    for r in range(repeats):
        for name in ENGINES if r % 2 == 0 else ENGINES[::-1]:
            state, cpu_s = _present(name, images)
            ms[name].append(cpu_s * 1e3)
            states.setdefault(name, state)
            for key, value in state.items():
                assert np.array_equal(value, states[name][key]), (name, key, r)
    oracle, fused = states["reference"], states["fused"]
    for key in oracle:
        assert np.array_equal(oracle[key], fused[key]), key
    assert oracle["spikes"].sum() > 0
    return ms, oracle["spikes"]


def _median_iqr(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return median, f"{median:.1f} [{q1:.1f}-{q3:.1f}]"


def test_fig4_activity_match_and_performance(benchmark):
    fig4_images = np.random.default_rng(SEED).integers(0, 256, size=(6, 2, 5), dtype=np.uint8)
    mnist = load_dataset("mnist", n_train=2, n_test=1, size=28, seed=SEED).train_images
    workloads = [
        ("10 x 1000 (Fig. 4)", fig4_images, 5),
        ("784 x 1000 (training)", mnist, 3),
    ]
    rows = []
    for label, images, repeats in workloads:
        ms, spikes = _compare(images, repeats)
        ref_median, ref_cell = _median_iqr(ms["reference"])
        fused_median, fused_cell = _median_iqr(ms["fused"])
        rows.append([
            label,
            f"{len(images)} x {repeats}",
            " ".join(str(n) for n in spikes),
            ref_cell,
            fused_cell,
            ref_median / fused_median,
        ])
    publish(
        "fig4_engine_comparison",
        format_table(
            [
                "network (inputs x neurons)",
                "images x repeats",
                "output spikes per image",
                "reference ms/image",
                "fused ms/image",
                "reference / fused",
            ],
            rows,
            precision=1,
            title=(
                "Fig. 4: reference and fused train bit-identically (per-image "
                "spikes, conductances, thresholds); process CPU ms per 500 ms "
                "presentation, median [IQR], float32 stochastic STDP"
            ),
        ),
    )

    # Benchmark target: one fused presentation on Fig. 4's network.
    net = WTANetwork(_config(), fig4_images[0].size)
    engine = create_training_engine("fused", net)
    steps = int(round(net.config.simulation.t_learn_ms / net.config.simulation.dt_ms))
    benchmark.pedantic(
        lambda: engine.run(fig4_images[0], 0.0, steps, net.config.simulation.dt_ms),
        rounds=3,
        iterations=1,
    )
