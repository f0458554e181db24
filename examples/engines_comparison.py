"""The two float training engines on one image (the Fig. 4 comparison).

ParallelSpikeSim's validation story (Fig. 4) shows matching spiking
activity across simulators, then compares their performance.  This
repository trains the network on two float engines:

1. ``reference`` — ``WTANetwork.advance``, one whole-population step at a
   time (dense eq.-3 sums, full-matrix STDP);
2. ``fused`` — the gather kernel (sparse input gathers, integer expiry
   timers, column-restricted STDP).

The example presents one image to each engine from the same seed, on Fig.
4's network (1000 neurons behind 10 input channels) and on the 784 x 1000
training network, checks that spikes, conductances and thresholds agree
bit for bit, and prints the CPU time of each presentation.
``benchmarks/test_fig4_engine_comparison.py`` repeats this over more images
and reports medians.

    python examples/engines_comparison.py
"""

import time

import numpy as np

from repro.analysis.report import format_table
from repro.config.parameters import STDPKind
from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.engine.registry import create_training_engine
from repro.network.wta import WTANetwork


def present(engine_name: str, image: np.ndarray):
    """One presentation on a fresh 1000-neuron network: state and CPU seconds."""
    cfg = get_preset("float32", stdp_kind=STDPKind.STOCHASTIC, n_neurons=1000, seed=1)
    net = WTANetwork(cfg, image.size)
    engine = create_training_engine(engine_name, net)
    steps = int(round(cfg.simulation.t_learn_ms / cfg.simulation.dt_ms))
    start = time.process_time()
    spikes, _ = engine.run(image, 0.0, steps, cfg.simulation.dt_ms)
    cpu_s = time.process_time() - start
    return (spikes, net.conductances.copy(), net.neurons.theta.copy()), cpu_s


def main() -> None:
    images = {
        "10 x 1000 (Fig. 4)": np.random.default_rng(1).integers(0, 256, (2, 5), dtype=np.uint8),
        "784 x 1000 (training)": load_dataset("mnist", n_train=1, n_test=1, size=28).train_images[0],
    }
    rows = []
    for label, image in images.items():
        (ref_spikes, ref_g, ref_theta), ref_s = present("reference", image)
        (spikes, g, theta), fused_s = present("fused", image)
        identical = (
            ref_spikes == spikes
            and np.array_equal(ref_g, g)
            and np.array_equal(ref_theta, theta)
        )
        rows.append([label, spikes, identical, ref_s * 1e3, fused_s * 1e3, ref_s / fused_s])
    print(format_table(
        ["network", "output spikes", "bit-identical", "reference ms", "fused ms", "ratio"],
        rows,
        precision=1,
        title="One 500 ms presentation, float32 preset, stochastic STDP (process CPU time)",
    ))


if __name__ == "__main__":
    main()
