"""Engine deep-dives beyond Fig. 4: batched inference, event-driven oracle.

Two measurements the paper's performance discussion implies but doesn't
print:

1. the batched-inference speedup over sequential evaluation (the second
   GPU axis);
2. the clock-driven engine's convergence to the event-driven analytic
   oracle (correctness of the dt = 1 ms discretisation).

Where a training presentation spends its time, layer by layer, is
perfbench's traced round (``python3 perfbench/run.py --trace 1``).
"""

import numpy as np

from benchmarks.conftest import publish, scaled_preset
from repro.analysis.report import format_table
from repro.analysis.runtime import time_callable
from repro.config.parameters import STDPKind
from repro.config.presets import PAPER_LIF
from repro.engine.batched import BatchedInference
from repro.engine.event_driven import CurrentStep, EventDrivenLIF
from repro.network.wta import WTANetwork
from repro.neurons.lif import LIFPopulation
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer


def test_batched_inference_speedup(benchmark, scale, mnist):
    cfg = scaled_preset("float32", scale, stdp_kind=STDPKind.STOCHASTIC)
    net = WTANetwork(cfg, mnist.n_pixels)
    UnsupervisedTrainer(net).train(mnist.train_images[:30])

    images = mnist.test_images[: scale.n_test]
    sequential_s = time_callable(
        lambda: Evaluator(net, t_present_ms=200.0).collect_responses(images), repeats=1
    )
    batched_s = time_callable(
        lambda: BatchedInference(net).collect_responses(
            images, t_present_ms=200.0, rng=np.random.default_rng(0)
        ),
        repeats=1,
    )
    speedup = sequential_s / max(batched_s, 1e-9)
    publish(
        "engine_batched_speedup",
        format_table(
            ["inference engine", "seconds", "speedup"],
            [
                ["sequential (one image at a time)", sequential_s, 1.0],
                ["batched (image-parallel)", batched_s, speedup],
            ],
            title=f"Inference over {images.shape[0]} images x 200 ms",
        ),
    )
    assert speedup > 3.0
    benchmark.pedantic(
        lambda: BatchedInference(net).collect_responses(
            images[:10], t_present_ms=100.0, rng=np.random.default_rng(0)
        ),
        rounds=3, iterations=1,
    )


def test_event_driven_oracle(benchmark):
    oracle = EventDrivenLIF(PAPER_LIF)
    current = 3.0 * PAPER_LIF.rheobase_current()
    exact = oracle.run([CurrentStep(0.0, current)], duration_ms=400.0)

    rows = []
    prev_err = None
    for dt in (1.0, 0.25, 0.05):
        pop = LIFPopulation(1, PAPER_LIF)
        spikes = []
        for i in range(int(400.0 / dt)):
            if pop.step(np.array([current]), dt)[0]:
                spikes.append((i + 1) * dt)
        n = min(len(spikes), len(exact))
        err = float(np.abs(np.array(spikes[:n]) - np.array(exact[:n])).max())
        rows.append([dt, len(spikes), err])
        if prev_err is not None:
            assert err < prev_err
        prev_err = err
    publish(
        "engine_event_driven_oracle",
        format_table(
            ["dt (ms)", "spikes (exact: %d)" % len(exact), "max timing error (ms)"],
            rows,
            title="Clock-driven engine converging to the event-driven analytic oracle",
        ),
    )
    benchmark(oracle.run, [CurrentStep(0.0, current)], 400.0)
