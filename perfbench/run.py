"""Benchmark of the train -> label -> infer pipeline at the paper's Fig. 3 scale.

Usage, from the repository root::

    python3 perfbench/run.py --workload hf_float --seed 1 --seconds 30 --trace 0

``--workload`` is one of ``hf_float``, ``q8_sparse``, ``q8_infer`` (see
``perfbench/workloads.py``; ``BENCHMARK.json`` says why each was chosen).
The dataset and config are generated from ``--seed``; the same seed gives
the same inputs and the same accuracy.

A run sets up, checks the workload's engines against their oracles, then
for about ``--seconds`` seconds alternates identical train -> label ->
infer rounds with repeated set-ups (``setup_s`` is the median set-up,
over at least ``SETUP_REPEATS``).  Each round splits at presentation
boundaries into the same segments; a time is the sum over segments of
each segment's median over the rounds (over the set-ups for an inference
workload's training).  Times are CPU seconds of this single-threaded
process (see ``spans.clock``).  With ``--trace 0`` it prints the
end-to-end metrics, measured with nothing instrumented.  With
``--trace 1`` it runs one plain round and one instrumented round, requires
both to produce the same accuracy, predictions and spike counts, runs a
short slice on the ``guard`` backend, and prints the per-layer metrics:
span self times per layer (they add up to the traced round's time), the
layers' counts, the guard backend's transfer counts and the tracing
overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts the presentations of the timed rounds plus the correctness checks;
``failed`` counts presentations that did not run and checks that failed.
The environment, engines, checks and (traced) spans go to
``.perfbench/<workload>-seed<seed>-trace<n>.json``, written once at the end.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fewest set-up repetitions in a run; ``setup_s`` is their median.
SETUP_REPEATS = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _pin_blas_threads() -> int:
    """Pin BLAS to one thread; must run before numpy loads.

    The kernels' matrix-vector products gain little from a second BLAS
    thread, and a single-threaded process makes its CPU time the time the
    program ran.
    """
    threads = 1
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(threads)
    return threads


def _import_program() -> None:
    """Make ``repro`` importable from this checkout's ``src``, and only from there."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


def _l2_bytes():
    try:
        text = Path("/sys/devices/system/cpu/cpu0/cache/index2/size").read_text().strip()
    except OSError:
        return None
    scale = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
    return int(text.rstrip("KM")) * scale


def _metric(value, unit):
    return {"value": float(value), "unit": unit}


def _end_to_end(workload, setups, rounds):
    import resource
    import statistics

    import numpy as np

    def segment_medians(repeats):
        # Every repetition runs the same segments in the same order, so the
        # median over repetitions of each segment drops a slow stretch of
        # the host that hit only some of them.
        return np.median(np.array(repeats), axis=0)

    round_train_ms = segment_medians([r.train_ms for r in rounds])
    eval_ms = segment_medians([r.eval_ms for r in rounds])
    rest_ms = statistics.median(
        r.seconds * 1e3 - sum(r.train_ms) - sum(r.eval_ms) for r in rounds)
    round_s = (round_train_ms.sum() + eval_ms.sum() + rest_ms) / 1e3
    # An inference workload's timed rounds do not train; training is the set-up's.
    train_ms = (round_train_ms if workload.trains_in_round
                else segment_medians([s.train_ms for s in setups]))
    print(f"rounds: {len(rounds)}; set-ups: {len(setups)}; "
          f"training presentations per repetition: {train_ms.size}")
    return {
        "setup_s": _metric(statistics.median(s.seconds for s in setups), "s"),
        "run_images_per_s": _metric(workload.round_images / round_s, "images/s"),
        "train_images_per_s": _metric(train_ms.size / (train_ms.sum() / 1e3), "images/s"),
        "train_image_ms_p50": _metric(np.median(train_ms), "ms"),
        "infer_images_per_s": _metric(
            (workload.n_label + workload.n_infer) / (eval_ms.sum() / 1e3), "images/s"),
        "peak_rss_mb": _metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(setup, setup_tracer, tracer, plain, traced, transfers):
    self_s = tracer.self_times()
    setup_self = setup_tracer.self_times()
    counts = tracer.counters
    cells = counts["encoding.raster_cells"]

    def seconds(name):
        return _metric(self_s.get(name, 0.0), "s")

    def count(name, unit="count"):
        return _metric(counts[name], unit)

    print(f"self time of the traced round ({traced.seconds:.3f} s, "
          f"{sum(self_s.values()) - traced.seconds:+.2e} s unaccounted):")
    for name, spent in sorted(self_s.items(), key=lambda kv: -kv[1]):
        print(f"  {name:<26} {spent:9.4f} s  {spent / traced.seconds:6.1%}")
    return {
        "datasets.generate_s": _metric(setup_self.get("datasets.generate", 0.0), "s"),
        "io.checkpoint_load_s": _metric(setup_self.get("io.checkpoint_load", 0.0), "s"),
        "io.checkpoint_bytes": _metric(setup.checkpoint_bytes, "bytes"),
        "encoding.generate_train_s": seconds("encoding.generate_train"),
        "encoding.calls": count("encoding.calls"),
        "encoding.raster_occupancy": _metric(
            counts["encoding.raster_active_cells"] / cells if cells else 0.0, "fraction"),
        "engine.present_self_s": seconds("engine.present"),
        "engine.steps": count("engine.steps"),
        "engine.steps_skipped": count("engine.steps_skipped"),
        "engine.output_spikes": count("engine.output_spikes"),
        "plasticity.stdp_s": seconds("plasticity.stdp"),
        "plasticity.columns_updated": count("plasticity.columns_updated"),
        "plasticity.bytes_computed": count("plasticity.bytes_computed", "bytes"),
        "quantization.codec_s": seconds("quantization.codec"),
        "quantization.codec_calls": count("quantization.codec_calls"),
        "homeostasis.normalize_s": seconds("homeostasis.normalize"),
        "homeostasis.normalizations": count("homeostasis.normalizations"),
        "resilience.autosave_s": seconds("resilience.autosave"),
        "resilience.saves": count("resilience.saves"),
        "network.label_s": seconds("network.label"),
        "network.infer_collect_s": seconds("network.infer_collect"),
        "network.classify_s": seconds("network.classify"),
        "network.accuracy": _metric(traced.accuracy, "fraction"),
        "pipeline.self_s": _metric(
            sum(v for k, v in self_s.items() if k.startswith("pipeline.")), "s"),
        "backend.h2d": _metric(transfers["h2d"], "count"),
        "backend.d2h": _metric(transfers["d2h"], "count"),
        "backend.allocations": _metric(transfers["allocations"], "count"),
        "trace.overhead_fraction": _metric(traced.seconds / plain.seconds - 1.0, "fraction"),
    }


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    blas_threads = _pin_blas_threads()
    _import_program()

    import json
    import time

    import numpy as np

    import workloads as wl
    from spans import Instrumentation, Tracer

    if args.workload not in wl.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(wl.WORKLOADS)}")
    workload = wl.WORKLOADS[args.workload]
    WORKDIR.mkdir(exist_ok=True)

    # A traced run records the set-up's spans once.
    setup_tracer = Tracer() if args.trace else None
    setups = [wl.set_up(workload, args.seed, WORKDIR, setup_tracer)]
    setup = setups[0]
    engines = setup.engines

    # Correctness checks and warm-up, outside the timed region.
    checks = wl.equivalence_checks(workload, setup)
    wl.warm_up(workload, setup)

    rounds = []
    if args.trace:
        rounds.append(wl.run_round(workload, setup, WORKDIR))
        tracer = Tracer()
        with Instrumentation(tracer):
            traced = wl.run_round(workload, setup, WORKDIR, tracer)
        checks.append(wl.Check(
            "traced round reproduces the untraced round exactly",
            traced.signature() == rounds[0].signature(),
            f"accuracy {traced.accuracy} vs {rounds[0].accuracy}",
        ))
        transfers, guard_checks = wl.guard_slice(workload, setup)
        checks += guard_checks
    else:
        # Set-up repeats between rounds, so that setup_s and an inference
        # workload's set-up training sample the whole run as the rounds do.
        # The run lasts --seconds of wall time however much of it the host
        # gives to others; the rounds and set-ups are still timed in CPU time.
        deadline = time.perf_counter() + args.seconds
        while True:
            began = time.perf_counter()
            rounds.append(wl.run_round(workload, setup, WORKDIR))
            setups.append(wl.set_up(workload, args.seed, WORKDIR))
            # Stop when one more round would end further from the deadline.
            now = time.perf_counter()
            if now + (now - began) / 2 >= deadline:
                break
        while len(setups) < SETUP_REPEATS:
            setups.append(wl.set_up(workload, args.seed, WORKDIR))
    checks += wl.round_checks(workload, setup, rounds)
    for leftover in WORKDIR.glob(f"{workload.name}-*.npz"):
        leftover.unlink()

    if args.trace:
        metrics = _per_layer(setup, setup_tracer, tracer, rounds[0], traced, transfers)
    else:
        metrics = _end_to_end(workload, setups, rounds)

    planned = workload.round_images * len(rounds)
    presented = sum(r.trained + workload.n_label + r.predictions.size for r in rounds)
    attempted = planned + len(checks)
    failed = (planned - presented) + sum(not c.ok for c in checks)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    environment = {
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "l2_bytes": _l2_bytes(),
        "conductance_bytes": wl.conductance_bytes(setup),
        "clock": "process CPU time",
    }

    print(f"workload {workload.name} seed {args.seed}: engines train={engines.train} "
          f"eval={engines.eval} oracle={engines.oracle} "
          f"(requested train={engines.requested[0]} eval={engines.requested[1]})")
    print(f"accuracy {rounds[0].accuracy:.4f}; failed {failed} of {attempted} attempted "
          f"(failed_fraction {failed / attempted:.4f})")
    print("environment: " + json.dumps(environment))
    for check in checks:
        print(f"  [{'ok' if check.ok else 'FAIL'}] {check.name}"
              + (f" ({check.detail})" if check.detail else ""))
    for name, m in metrics.items():
        print(f"  {name:<28} {m['value']:>14.6g} {m['unit']}")

    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "engines": {"train": engines.train, "eval": engines.eval, "oracle": engines.oracle,
                    "requested_train": engines.requested[0],
                    "requested_eval": engines.requested[1]},
        "environment": environment,
        "accuracy": rounds[0].accuracy,
        "rounds": [{"seconds": r.seconds, "train_s": r.train_s, "eval_s": r.eval_s,
                    "train_ms": r.train_ms, "eval_ms": r.eval_ms} for r in rounds],
        "setups": [{"seconds": s.seconds, "train_ms": s.train_ms} for s in setups],
        "checks": [vars(c) for c in checks],
        "result": result,
    }
    if args.trace:
        record["spans"] = {"setup": setup_tracer.as_records(), "round": tracer.as_records()}
    out = WORKDIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
