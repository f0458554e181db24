#!/usr/bin/env python
"""Benchmark the presentation engines across training and evaluation.

Usage::

    PYTHONPATH=src python scripts/bench_training.py            # full workload
    PYTHONPATH=src python scripts/bench_training.py --quick    # CI smoke run
    PYTHONPATH=src python scripts/bench_training.py --quick --check

Times the engine trajectory and writes the numbers to ``BENCH_train.json``
at the repository root:

- **training** — a three-row trajectory over the same images and seeds
  (``engine="reference"`` / ``"fused"`` / ``"event"``), re-checking each
  engine's declared equivalence contract through
  :func:`repro.engine.registry.check_equivalence`: the fused kernel must be
  **bit-identical** to the reference loop (conductances and per-image spike
  counts exact), the event kernel **spike-trajectory equivalent** to the
  fused row (identical spike counts; conductances within
  ``CONDUCTANCE_ATOL``), plus the measured raster occupancy the event
  engine exploited.  A fourth trajectory
  row re-runs the fused engine with periodic checkpoint autosave enabled
  and records the overhead fraction (checkpoint seconds over total wall
  seconds) both as measured and projected at the production cadence —
  ``--check`` warns when the projection exceeds
  ``AUTOSAVE_OVERHEAD_CEILING`` and fails if autosave perturbed the
  trained weights.  A further **quantized** trajectory block re-runs the
  workload under the paper's ``Q1.7``/stochastic low-precision config and
  times the float-simulated quantized fused path against the
  integer-native ``"qfused"`` tier (conductances held as uint8/uint16
  Q-format codes, eq.-8 rounding fused into the STDP scatter) and the
  event-driven ``"qevent"`` tier (the same codes driven through sparse
  gathers and integer timers) — qfused must be spike-equivalent and
  conductance-exact against its float shadow twin at matched rounding
  draws, bit-identical to fused under nearest rounding, and its code
  array at most 16 bits wide; qevent must reproduce qfused's codes **bit
  for bit** (and its own float twin at ``conductance_atol=0.0``), with
  the nearest-rounding pair bit-identical too; all are blocking under
  ``--check``;

- **evaluation** — the plasticity-frozen label/infer loop on the trained
  network, once per sequential engine.  The fused and event engines must
  produce **bit-identical** response matrices to the reference evaluation
  loop (each run starts from ``rngs.reseed``, so all three consume the
  encoding stream from the same point) — this is the contract that makes
  fast evaluation the default;

- **inference** — the sequential evaluator against the image-parallel
  ``"batched"`` engine (statistical tier: speed only, no bit comparison),
  plus the code-native ``"qbatched"`` tier on a quantized network, whose
  response matrices (and hence predicted labels) must be bit-identical to
  the float batched evaluator — blocking under ``--check``;

- **backend** — the device-discipline rows: every training engine re-runs
  a short slice of the workload on the ``guard`` backend (the
  NumPy-wrapping array module of :mod:`repro.backend.guard` that marks
  arrays device-resident and counts allocations and host↔device
  transfers) and must produce a **bit-identical** trajectory to its numpy
  run with **zero** implicit-mixing violations — both blocking under
  ``--check``.  The per-engine transfer counts land in the workload
  metadata, so BENCH_train.json also documents how much host↔device
  traffic each kernel would generate on a real GPU.

The default workload mirrors the Fig. 4 comparison scale at the Table I
high-frequency rates: 1000 output neurons on 16x16 inputs with 5-78 Hz
input trains over the 100 ms presentation schedule — the regime the event
engine's acceptance floor (>= 1.5x over fused) is defined at.

``--check`` compares a fresh run against the committed baseline: the
equivalence re-checks (training contracts **and** evaluation bit-identity)
are **blocking** (exit 1 on any violation — a correctness regression),
while speedup floors derived from the baseline (``CHECK_FLOOR_FRACTION``
of the committed ratios) only emit warnings by default (timing on shared
CI runners is noisy); ``--strict-speed`` makes them blocking too.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Fraction of a committed speedup a fresh measurement must reach before
#: ``--check`` flags a speed regression.  Generous because CI runners are
#: noisy; the equivalence checks are exact and carry the blocking weight.
CHECK_FLOOR_FRACTION = 0.5

#: Sequential engines timed in the training and evaluation trajectories.
SEQUENTIAL_ENGINES = ("reference", "fused", "event")

#: Fraction of training wall time periodic autosave may consume before
#: ``--check`` emits a warning.  Checkpointing exists to make long runs
#: resumable; above this it is itself slowing the run it protects.  The
#: ceiling is checked against the overhead *projected at the default
#: autosave cadence* (``DEFAULT_AUTOSAVE_EVERY``): the bench workload is
#: only a handful of images, so it saves far more densely than a real run
#: and its raw measured fraction would be all fixed per-save cost.
AUTOSAVE_OVERHEAD_CEILING = 0.03

#: The ``repro run --autosave-every`` default the projection assumes.
DEFAULT_AUTOSAVE_EVERY = 50

#: Engines exercised by the guard-backend discipline rows; the second
#: element selects the quantized workload config for the integer tiers.
BACKEND_CHECK_ENGINES = (
    ("reference", False),
    ("fused", False),
    ("event", False),
    ("qfused", True),
    ("qevent", True),
)

#: Images per guard-backend row — discipline/bit-identity checks, not
#: timing rows, so a short slice of the workload carries the contract.
BACKEND_CHECK_IMAGES = 3

#: Q-format of the quantized trajectory rows; 8 total bits -> uint8 codes.
QFUSED_FMT = "Q1.7"

#: Rounding mode of the timed quantized rows.  Stochastic is the paper's
#: eq. (8) learning mode and the slowest float-simulated path (the fused
#: engine draws a full-matrix uniform per plasticity update), i.e. the
#: regime the integer tier's >= 1.3x acceptance floor is defined over.
QFUSED_ROUNDING = "stochastic"


def _build(n_neurons: int, n_pixels: int, seed: int):
    from repro.config.presets import get_preset
    from repro.network.wta import WTANetwork

    config = get_preset("high_frequency", n_neurons=n_neurons, seed=seed)
    return WTANetwork(config, n_pixels=n_pixels)


def _build_quantized(n_neurons: int, n_pixels: int, seed: int, rounding: str):
    import dataclasses

    from repro.config.parameters import QuantizationConfig, RoundingMode
    from repro.config.presets import get_preset
    from repro.network.wta import WTANetwork

    config = get_preset("high_frequency", n_neurons=n_neurons, seed=seed)
    config = dataclasses.replace(
        config,
        quantization=QuantizationConfig(
            fmt=QFUSED_FMT, rounding=RoundingMode(rounding)
        ),
    )
    return WTANetwork(config, n_pixels=n_pixels)


def bench_training(args, images) -> dict:
    from repro.engine.event_train import CONDUCTANCE_ATOL
    from repro.engine.registry import check_equivalence, get_engine_spec
    from repro.pipeline.trainer import UnsupervisedTrainer

    results = {}
    state = {}
    for engine in SEQUENTIAL_ENGINES:
        net = _build(args.neurons, images[0].size, args.seed)
        trainer = UnsupervisedTrainer(net)
        t0 = time.perf_counter()
        log = trainer.train(images, engine=engine)
        elapsed = time.perf_counter() - t0
        results[engine] = {
            "seconds": elapsed,
            "images": log.images_seen,
            "steps": log.total_steps,
            "total_spikes": int(sum(log.spikes_per_image)),
        }
        state[engine] = {
            "conductances": net.conductances.copy(),
            "spikes_per_image": list(log.spikes_per_image),
        }
        if engine == "event":
            results[engine]["raster_cell_occupancy"] = log.raster_occupancy

    # Each engine's declared contract, concretely: fused vs the reference
    # oracle (bit-exact tier), event vs the fused row (spike tier).
    fused_violations = check_equivalence(
        get_engine_spec("fused"), state["reference"], state["fused"]
    )
    event_violations = check_equivalence(
        get_engine_spec("event"), state["fused"], state["event"]
    )
    g_dev = float(np.max(np.abs(
        state["fused"]["conductances"] - state["event"]["conductances"]
    )))
    results["speedup"] = results["reference"]["seconds"] / results["fused"]["seconds"]
    results["event_speedup"] = results["reference"]["seconds"] / results["event"]["seconds"]
    results["event_over_fused"] = results["fused"]["seconds"] / results["event"]["seconds"]
    results["bit_identical"] = not fused_violations
    results["spike_equivalent"] = not event_violations
    results["contract_violations"] = fused_violations + event_violations
    results["conductance_max_abs_dev"] = g_dev
    results["conductance_atol"] = CONDUCTANCE_ATOL
    results["autosave"] = bench_autosave(args, images, state["fused"])
    results["qfused"] = bench_qfused(args, images)
    return results


def bench_qfused(args, images) -> dict:
    """Quantized trajectory block: the integer tier vs the float-simulated path.

    Trains the same workload under the ``Q1.7``/stochastic quantization
    config three ways — the fused engine (quantize -> dequantize round trip
    in float), the integer-native qfused engine (uint8 codes end-to-end),
    and qfused's float shadow twin (same algorithm and rounding draws, but
    float64 code storage) — then re-checks the tier's contracts:

    - qfused vs the twin at ``conductance_atol=0.0``: identical spike
      counts *and* identical conductances prove integer storage changed
      nothing but the representation;
    - a nearest-rounding pair (fused vs qfused) must be fully
      bit-identical — deterministic rounding consumes no RNG, so the two
      paths compute the very same arithmetic;
    - the live code matrix must be at most 16 bits wide.

    The event-driven ``qevent`` rows extend the ladder: qevent's codes
    and thetas must be **bit-identical** to the dense qfused kernel's
    (exact integer drive sums and the dense per-step arithmetic reproduce
    the spike trajectory, and code updates are pure integer functions of
    it), its own float shadow twin must match at ``conductance_atol=0.0``,
    and the nearest-rounding qevent/qfused pair must produce identical
    codes too.

    All violations are blocking under ``--check``; the
    ``qfused_over_fused`` and ``qevent_over_qfused`` speedups feed the
    usual warning-tier floors.
    """
    from repro.engine.qevent import QEventPresentation
    from repro.engine.qfused import QFusedPresentation
    from repro.engine.registry import check_equivalence, get_engine_spec
    from repro.pipeline.trainer import UnsupervisedTrainer

    results: dict = {}
    state: dict = {}

    def _row(key, rounding, engine_factory, occupancy=False):
        net = _build_quantized(args.neurons, images[0].size, args.seed, rounding)
        t0 = time.perf_counter()
        log = UnsupervisedTrainer(net).train(images, engine=engine_factory(net))
        elapsed = time.perf_counter() - t0
        results[key] = {
            "seconds": elapsed,
            "images": log.images_seen,
            "total_spikes": int(sum(log.spikes_per_image)),
        }
        if occupancy:
            results[key]["raster_cell_occupancy"] = log.raster_occupancy
        state[key] = {
            "conductances": net.conductances.copy(),
            "thetas": net.neurons.theta.copy(),
            "spikes_per_image": list(log.spikes_per_image),
        }

    _row("fused", QFUSED_ROUNDING, lambda net: "fused")
    _row("qfused", QFUSED_ROUNDING, lambda net: "qfused")
    _row("float_twin", QFUSED_ROUNDING,
         lambda net: QFusedPresentation(net, storage="float"))
    _row("fused_nearest", "nearest", lambda net: "fused")
    _row("qfused_nearest", "nearest", lambda net: "qfused")
    _row("qevent", QFUSED_ROUNDING, lambda net: "qevent", occupancy=True)
    _row("qevent_twin", QFUSED_ROUNDING,
         lambda net: QEventPresentation(net, storage="float"))
    _row("qevent_nearest", "nearest", lambda net: "qevent")

    # The declared contract at its tightest: spike-equivalent with zero
    # conductance tolerance against the float twin (same draws from the
    # dedicated qrounding stream, so any deviation is an arithmetic bug,
    # not rounding noise).
    twin_violations = check_equivalence(
        get_engine_spec("qfused"), state["float_twin"], state["qfused"],
        conductance_atol=0.0,
    )
    violations = list(twin_violations)
    nearest_exact = bool(
        np.array_equal(state["fused_nearest"]["conductances"],
                       state["qfused_nearest"]["conductances"])
        and np.array_equal(state["fused_nearest"]["thetas"],
                           state["qfused_nearest"]["thetas"])
        and state["fused_nearest"]["spikes_per_image"]
        == state["qfused_nearest"]["spikes_per_image"]
    )
    if not nearest_exact:
        violations.append(
            "engine 'qfused': nearest-rounding training is no longer "
            "bit-identical to the fused path"
        )

    # The event-driven tier against the dense kernel: codes and thetas
    # bit-identical (zero tolerance).
    qevent_violations = check_equivalence(
        get_engine_spec("qevent"), state["qfused"], state["qevent"],
        conductance_atol=0.0,
    )
    # The sparse kernel's own float shadow twin runs the identical
    # algorithm on the identical draws: everything matches bit for bit.
    qevent_twin_violations = check_equivalence(
        get_engine_spec("qevent"), state["qevent_twin"], state["qevent"],
        conductance_atol=0.0,
    )
    violations += qevent_violations + qevent_twin_violations
    qevent_nearest_exact = bool(
        np.array_equal(state["qfused_nearest"]["conductances"],
                       state["qevent_nearest"]["conductances"])
        and state["qfused_nearest"]["spikes_per_image"]
        == state["qevent_nearest"]["spikes_per_image"]
    )
    if not qevent_nearest_exact:
        violations.append(
            "engine 'qevent': nearest-rounding training no longer produces "
            "bit-identical codes to the dense qfused kernel"
        )

    # End-to-end width probe: the live code matrix of a freshly built
    # kernel at this workload's scale and format.
    probe = QFusedPresentation(
        _build_quantized(args.neurons, images[0].size, args.seed, QFUSED_ROUNDING)
    )
    code_bits = int(probe.codes.dtype.itemsize) * 8
    if probe.codes.dtype.kind != "u" or code_bits > 16:
        violations.append(
            f"engine 'qfused': conductance codes are {probe.codes.dtype} "
            f"({code_bits} bits); the integer tier requires unsigned "
            f"storage of at most 16 bits"
        )

    results["fmt"] = QFUSED_FMT
    results["rounding"] = QFUSED_ROUNDING
    results["code_dtype"] = str(probe.codes.dtype)
    results["code_bits"] = code_bits
    results["qfused_over_fused"] = (
        results["fused"]["seconds"] / results["qfused"]["seconds"]
    )
    results["qevent_over_qfused"] = (
        results["qfused"]["seconds"] / results["qevent"]["seconds"]
    )
    results["qevent_over_fused"] = (
        results["fused"]["seconds"] / results["qevent"]["seconds"]
    )
    results["spike_equivalent"] = not twin_violations
    results["nearest_bit_exact"] = nearest_exact
    results["qevent_code_exact"] = not (qevent_violations or qevent_twin_violations)
    results["qevent_nearest_bit_exact"] = qevent_nearest_exact
    results["contract_violations"] = violations
    return results


def bench_autosave(args, images, fused_state) -> dict:
    """Fourth trajectory row: the fused engine with periodic autosave on.

    Trains the identical workload with an :class:`AutosavePolicy` writing
    v2 run checkpoints, and reports the overhead fraction (checkpoint
    seconds over total wall seconds) plus bit-identity against the plain
    fused row — autosave must observe the run, never perturb it.
    """
    import tempfile

    from repro.pipeline.trainer import UnsupervisedTrainer
    from repro.resilience import AutosavePolicy

    every = max(1, args.images // 2)
    with tempfile.TemporaryDirectory() as tmp:
        policy = AutosavePolicy(Path(tmp) / "bench_autosave.npz", every_images=every)
        net = _build(args.neurons, images[0].size, args.seed)
        t0 = time.perf_counter()
        log = UnsupervisedTrainer(net).train(images, engine="fused", autosave=policy)
        elapsed = time.perf_counter() - t0
    per_save = policy.seconds_spent / max(policy.saves_written, 1)
    per_image = (elapsed - policy.seconds_spent) / len(images)
    return {
        "engine": "fused",
        "every_images": every,
        "seconds": elapsed,
        "saves_written": policy.saves_written,
        "autosave_seconds": policy.seconds_spent,
        "overhead_fraction": policy.overhead_fraction(elapsed),
        # What one save costs relative to the training it protects at the
        # production cadence — the number the ceiling is defined over.
        "projected_run_fraction": per_save / (per_image * DEFAULT_AUTOSAVE_EVERY),
        "projected_every_images": DEFAULT_AUTOSAVE_EVERY,
        "bit_identical": bool(
            np.array_equal(net.conductances, fused_state["conductances"])
            and list(log.spikes_per_image) == fused_state["spikes_per_image"]
        ),
    }


def bench_evaluation(args, net, images) -> dict:
    """Time the frozen label/infer response loop per sequential engine.

    Every run calls ``rngs.reseed`` first: the sequential engines draw
    presentation spike trains from the shared ``encoding`` stream, so a
    common starting point is what the bit-identity contract is defined
    over.  (It also makes this bench independent of how much training
    consumed the streams beforehand.)
    """
    from repro.pipeline.evaluator import Evaluator

    t_present = 100.0
    results = {}
    responses = {}
    for engine in SEQUENTIAL_ENGINES:
        net.rngs.reseed(args.seed)
        evaluator = Evaluator(net, t_present_ms=t_present, engine=engine)
        t0 = time.perf_counter()
        responses[engine] = evaluator.collect_responses(images)
        results[engine + "_seconds"] = time.perf_counter() - t0

    results["fused_speedup"] = results["reference_seconds"] / results["fused_seconds"]
    results["event_speedup"] = results["reference_seconds"] / results["event_seconds"]
    results["bit_identical"] = bool(
        np.array_equal(responses["reference"], responses["fused"])
        and np.array_equal(responses["reference"], responses["event"])
    )
    results["images"] = int(np.asarray(images).shape[0])
    results["t_present_ms"] = t_present
    return results


def bench_inference(args, net, images) -> dict:
    from repro.pipeline.evaluator import Evaluator

    t_present = 100.0
    t0 = time.perf_counter()
    Evaluator(net, t_present_ms=t_present, engine="reference").collect_responses(images)
    sequential = time.perf_counter() - t0

    t0 = time.perf_counter()
    Evaluator(net, t_present_ms=t_present, engine="batched").collect_responses(images)
    batched = time.perf_counter() - t0
    return {
        "sequential_seconds": sequential,
        "batched_seconds": batched,
        "speedup": sequential / batched,
        "images": int(images.shape[0]),
        "t_present_ms": t_present,
    }


def bench_qbatched(args, train_images, test_images) -> dict:
    """Code-native batched inference vs the float batched evaluator.

    Trains a quantized network with the qfused engine, freezes it, then
    collects batched responses twice through the registry engines —
    ``"batched"`` (float64 matmul) and ``"qbatched"`` (uint8/uint16 codes,
    int64-accumulating matmul scaled once).  Both draw from the restarted
    salted ``batched_eval`` stream, so the response matrices — and hence
    the argmax labels — must be **bit-identical** (every partial sum of
    on-grid dyadic values is exact in float64); violations block under
    ``--check``.  The speedup is reported for the record (statistical
    tier: no speed floor).
    """
    from repro.pipeline.evaluator import Evaluator
    from repro.pipeline.trainer import UnsupervisedTrainer

    net = _build_quantized(args.neurons, train_images[0].size, args.seed,
                           QFUSED_ROUNDING)
    UnsupervisedTrainer(net).train(train_images, engine="qfused")
    net.freeze()

    t_present = 100.0
    results: dict = {}
    responses = {}
    for engine in ("batched", "qbatched"):
        evaluator = Evaluator(net, t_present_ms=t_present, engine=engine)
        t0 = time.perf_counter()
        responses[engine] = evaluator.collect_responses(test_images)
        results[engine + "_seconds"] = time.perf_counter() - t0

    identical = bool(np.array_equal(responses["batched"], responses["qbatched"]))
    labels_identical = bool(np.array_equal(
        responses["batched"].argmax(axis=1),
        responses["qbatched"].argmax(axis=1),
    ))
    violations = []
    if not identical:
        violations.append(
            "engine 'qbatched': integer-code batched responses are no "
            "longer bit-identical to the float batched evaluator"
        )
    elif int(responses["batched"].sum()) == 0:
        violations.append(
            "engine 'qbatched': the batched comparison produced zero "
            "spikes — the bit-identity contract was checked vacuously"
        )
    if not labels_identical:
        violations.append(
            "engine 'qbatched': predicted labels diverged from the float "
            "batched evaluator"
        )
    results["speedup"] = results["batched_seconds"] / results["qbatched_seconds"]
    results["bit_identical"] = identical
    results["labels_identical"] = labels_identical
    results["total_spikes"] = int(responses["batched"].sum())
    results["images"] = int(np.asarray(test_images).shape[0])
    results["t_present_ms"] = t_present
    results["fmt"] = QFUSED_FMT
    results["contract_violations"] = violations
    return results


def bench_backend(args, images) -> dict:
    """Guard-backend discipline rows: device residency checked without a GPU.

    Re-trains a short slice of the workload per engine twice — once on the
    numpy backend, once on ``guard`` — then requires the guard trajectory
    to be bit-identical to the numpy one
    (:func:`repro.engine.registry.check_backend_equivalence`) and the
    guard's implicit-mixing violation counter to be zero.  Both block under
    ``--check``: together they are the CI-testable statement that backend
    selection is an execution detail (never a result) and that the kernels
    keep host and device arrays apart the way CuPy would force them to.
    The per-engine transfer counters (h2d/d2h/allocations) are reported so
    the committed baseline documents each kernel's boundary traffic.
    """
    from repro.backend import use_backend
    from repro.backend.guard import reset_counters, transfer_stats
    from repro.engine.registry import check_backend_equivalence, get_engine_spec
    from repro.pipeline.trainer import UnsupervisedTrainer

    slice_images = images[: min(len(images), BACKEND_CHECK_IMAGES)]
    violations: list = []
    transfers: dict = {}

    for engine, quantized in BACKEND_CHECK_ENGINES:
        spec = get_engine_spec(engine)
        state = {}
        for backend in ("numpy", "guard"):
            if quantized:
                net = _build_quantized(
                    args.neurons, images[0].size, args.seed, QFUSED_ROUNDING
                )
            else:
                net = _build(args.neurons, images[0].size, args.seed)
            reset_counters()
            with use_backend(backend):
                log = UnsupervisedTrainer(net).train(slice_images, engine=engine)
            state[backend] = {
                "conductances": net.conductances.copy(),
                "thetas": net.neurons.theta.copy(),
                "spikes_per_image": list(log.spikes_per_image),
            }
            if backend == "guard":
                stats = transfer_stats()
                transfers[engine] = stats.as_dict()
                if stats.violations:
                    violations.append(
                        f"engine {engine!r}: guard backend counted "
                        f"{stats.violations} implicit host/device mixing "
                        f"violation(s)"
                    )
        violations.extend(
            check_backend_equivalence(spec, "guard", state["numpy"], state["guard"])
        )

    return {
        "images": int(len(slice_images)),
        "engines": [name for name, _ in BACKEND_CHECK_ENGINES],
        "transfers": transfers,
        "bit_identical": not violations,
        "contract_violations": violations,
    }


def check_against_baseline(payload: dict, baseline_path: Path, strict_speed: bool) -> int:
    """Compare a fresh run to the committed baseline; return an exit code.

    Equivalence contracts are blocking: the fresh run must itself be
    bit-identical (reference vs fused training), spike-equivalent (fused vs
    event training) and bit-identical across the evaluation engines.
    Speedups must reach ``CHECK_FLOOR_FRACTION`` of the committed ratios —
    warnings unless *strict_speed*.
    """
    training = payload["training"]
    evaluation = payload["evaluation"]
    failures = []
    if not training["bit_identical"]:
        failures.append("fused kernel is no longer bit-identical to the reference loop")
    if not training["spike_equivalent"]:
        failures.append(
            f"event kernel broke spike-trajectory equivalence "
            f"(conductance max dev {training['conductance_max_abs_dev']:.3e}, "
            f"atol {training['conductance_atol']:.1e})"
        )
    failures.extend(training.get("contract_violations", []))
    autosave = training.get("autosave")
    if autosave is not None and not autosave.get("bit_identical", True):
        failures.append(
            "training with autosave enabled is no longer bit-identical to "
            "plain fused training: checkpointing perturbed the run"
        )
    qfused = training.get("qfused")
    if qfused is not None:
        # The integer tier's contracts (float-twin equivalence, nearest
        # bit-identity, <= 16-bit codes, qevent/qfused code bit-identity)
        # are correctness statements, so their violations block like the
        # float-tier contracts above.
        failures.extend(qfused.get("contract_violations", []))
    qbatched = payload.get("inference", {}).get("qbatched")
    if qbatched is not None:
        failures.extend(qbatched.get("contract_violations", []))
    backend_rows = payload.get("backend")
    if backend_rows is not None:
        # Guard-backend rows: bit-identity across backends and zero
        # implicit-mixing violations are correctness statements, blocking
        # like the equivalence tiers above.
        failures.extend(backend_rows.get("contract_violations", []))
    if not evaluation["bit_identical"]:
        failures.append(
            "fast-path evaluation (fused/event) is no longer bit-identical "
            "to the reference evaluation loop"
        )

    warnings = []
    if autosave is not None:
        fraction = autosave["projected_run_fraction"]
        if fraction > AUTOSAVE_OVERHEAD_CEILING:
            warnings.append(
                f"autosave overhead projected at the default cadence "
                f"(every {autosave['projected_every_images']} images) is "
                f"{fraction:.1%}, above the "
                f"{AUTOSAVE_OVERHEAD_CEILING:.0%} ceiling (measured "
                f"{autosave['overhead_fraction']:.1%} at the bench cadence "
                f"of every {autosave['every_images']})"
            )
    if baseline_path.exists():
        baseline_payload = json.loads(baseline_path.read_text())
        baseline = baseline_payload["training"]
        scale_keys = ("images", "n_neurons", "image_side")
        same_scale = all(
            baseline_payload.get("workload", {}).get(k) == payload["workload"][k]
            for k in scale_keys
        )
        if not same_scale:
            # Ratios measured at a different scale (e.g. --quick vs the
            # committed full run) are not comparable; only the equivalence
            # contracts carry over.
            print("bench --check: workload differs from baseline; "
                  "speed floors skipped, equivalence contracts still enforced")
        else:
            for key, label in (
                ("speedup", "fused-over-reference"),
                ("event_over_fused", "event-over-fused"),
            ):
                committed = baseline.get(key)
                if committed is None:
                    continue
                floor = committed * CHECK_FLOOR_FRACTION
                measured = training[key]
                if measured < floor:
                    warnings.append(
                        f"{label} speedup {measured:.2f}x fell below the floor "
                        f"{floor:.2f}x ({CHECK_FLOOR_FRACTION:.0%} of committed {committed:.2f}x)"
                    )
            for key, label in (
                ("qfused_over_fused", "qfused-over-fused"),
                ("qevent_over_qfused", "qevent-over-qfused"),
            ):
                committed_q = baseline.get("qfused", {}).get(key)
                if committed_q is None or qfused is None:
                    continue
                floor = committed_q * CHECK_FLOOR_FRACTION
                measured = qfused[key]
                if measured < floor:
                    warnings.append(
                        f"{label} speedup {measured:.2f}x fell below "
                        f"the floor {floor:.2f}x ({CHECK_FLOOR_FRACTION:.0%} of "
                        f"committed {committed_q:.2f}x)"
                    )
            baseline_eval = baseline_payload.get("evaluation", {})
            for key, label in (
                ("fused_speedup", "fused-evaluation"),
                ("event_speedup", "event-evaluation"),
            ):
                committed = baseline_eval.get(key)
                if committed is None:
                    continue
                floor = committed * CHECK_FLOOR_FRACTION
                measured = evaluation[key]
                if measured < floor:
                    warnings.append(
                        f"{label} speedup {measured:.2f}x fell below the floor "
                        f"{floor:.2f}x ({CHECK_FLOOR_FRACTION:.0%} of committed {committed:.2f}x)"
                    )
    else:
        warnings.append(f"no baseline at {baseline_path}; speed floors not checked")

    for message in warnings:
        print(f"::warning::bench --check: {message}")
    for message in failures:
        print(f"::error::bench --check: {message}")
    if failures:
        return 1
    if warnings and strict_speed:
        return 2
    print("bench --check: equivalence contracts hold"
          + ("" if warnings else "; speedups above floors"))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true",
                        help="small smoke workload (CI); overrides the scale flags")
    parser.add_argument("--images", type=int, default=10, help="training images")
    parser.add_argument("--neurons", type=int, default=1000,
                        help="output-layer size (paper scale: 1000)")
    parser.add_argument("--size", type=int, default=16, help="image side length")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_train.json")
    parser.add_argument("--check", action="store_true",
                        help="regression mode: verify equivalence contracts (blocking) "
                             "and speedup floors vs --baseline (warning); "
                             "does not overwrite --out")
    parser.add_argument("--baseline", type=Path, default=REPO_ROOT / "BENCH_train.json",
                        help="committed results used to derive --check floors")
    parser.add_argument("--strict-speed", action="store_true",
                        help="with --check: speed-floor violations also exit non-zero")
    args = parser.parse_args()

    if args.quick:
        args.images, args.neurons, args.size = 5, 100, 8

    from repro.backend import backend_name
    from repro.datasets.dataset import load_dataset
    from repro.quantization.qformat import parse_qformat

    data = load_dataset("mnist", n_train=args.images, n_test=args.images,
                        size=args.size, seed=args.seed)

    # Warm up BLAS/allocator so first-call overhead doesn't skew the ratios.
    from repro.pipeline.trainer import UnsupervisedTrainer
    for engine in ("fused", "event"):
        warm = _build(args.neurons, data.train_images[0].size, args.seed)
        UnsupervisedTrainer(warm).train(data.train_images[:1], engine=engine)
    for engine in ("fused", "qfused", "qevent"):
        warm = _build_quantized(args.neurons, data.train_images[0].size,
                                args.seed, QFUSED_ROUNDING)
        UnsupervisedTrainer(warm).train(data.train_images[:1], engine=engine)

    training = bench_training(args, data.train_images)
    trained_net = _build(args.neurons, data.train_images[0].size, args.seed)
    UnsupervisedTrainer(trained_net).train(data.train_images, engine="fused")
    evaluation = bench_evaluation(args, trained_net, data.test_images)
    inference = bench_inference(args, trained_net, data.test_images)
    inference["qbatched"] = bench_qbatched(args, data.train_images, data.test_images)
    backend_rows = bench_backend(args, data.train_images)

    payload = {
        "workload": {
            "images": args.images,
            "n_neurons": args.neurons,
            "image_side": args.size,
            "seed": args.seed,
            "quick": args.quick,
            "preset": "high_frequency",
            # Precision of the quantized trajectory block (the float-tier
            # rows above it run the preset's unquantized float64 config).
            "qfused_fmt": QFUSED_FMT,
            "qfused_rounding": QFUSED_ROUNDING,
            "qfused_code_dtype": training["qfused"]["code_dtype"],
            # Self-describing precision/sparsity metadata: enough to
            # reproduce the quantized rows without reading the source.
            "quantized": {
                "fmt": QFUSED_FMT,
                "code_bits": training["qfused"]["code_bits"],
                "int_bits": parse_qformat(QFUSED_FMT).int_bits,
                "frac_bits": parse_qformat(QFUSED_FMT).frac_bits,
                "rounding": QFUSED_ROUNDING,
                "code_dtype": training["qfused"]["code_dtype"],
                # Measured on this workload's rasters by the qevent row —
                # the occupancy regime the sparse integer path won at.
                "raster_cell_occupancy":
                    training["qfused"]["qevent"]["raster_cell_occupancy"],
            },
            # Array backend the timed rows ran on, plus each engine's
            # host↔device boundary traffic measured by the guard rows —
            # the transfer budget a real GPU backend would pay.
            "backend": backend_name(),
            "backend_transfers": backend_rows["transfers"],
        },
        "training": training,
        "evaluation": evaluation,
        "inference": inference,
        "backend": backend_rows,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "backend": backend_name(),
        },
    }

    print(f"training : reference {training['reference']['seconds']:.3f}s  "
          f"fused {training['fused']['seconds']:.3f}s  "
          f"event {training['event']['seconds']:.3f}s")
    print(f"           fused {training['speedup']:.2f}x  "
          f"event {training['event_speedup']:.2f}x  "
          f"event/fused {training['event_over_fused']:.2f}x  "
          f"bit_identical={training['bit_identical']}  "
          f"spike_equivalent={training['spike_equivalent']}")
    print(f"           raster occupancy {training['event']['raster_cell_occupancy']:.4f}")
    autosave = training["autosave"]
    print(f"autosave : fused {autosave['seconds']:.3f}s  "
          f"saves {autosave['saves_written']} (every {autosave['every_images']})  "
          f"overhead {autosave['overhead_fraction']:.2%}  "
          f"projected@{autosave['projected_every_images']} "
          f"{autosave['projected_run_fraction']:.2%}  "
          f"bit_identical={autosave['bit_identical']}")
    qf = training["qfused"]
    print(f"qfused   : fused {qf['fused']['seconds']:.3f}s  "
          f"qfused {qf['qfused']['seconds']:.3f}s  "
          f"twin {qf['float_twin']['seconds']:.3f}s  "
          f"[{qf['fmt']}/{qf['rounding']}, codes {qf['code_dtype']}]")
    print(f"           qfused/fused {qf['qfused_over_fused']:.2f}x  "
          f"spike_equivalent={qf['spike_equivalent']}  "
          f"nearest_bit_exact={qf['nearest_bit_exact']}")
    print(f"qevent   : qevent {qf['qevent']['seconds']:.3f}s  "
          f"qevent/qfused {qf['qevent_over_qfused']:.2f}x  "
          f"qevent/fused {qf['qevent_over_fused']:.2f}x  "
          f"code_exact={qf['qevent_code_exact']}  "
          f"nearest_bit_exact={qf['qevent_nearest_bit_exact']}")
    print(f"           raster occupancy "
          f"{qf['qevent']['raster_cell_occupancy']:.4f}")
    print(f"evaluation: reference {evaluation['reference_seconds']:.3f}s  "
          f"fused {evaluation['fused_seconds']:.3f}s  "
          f"event {evaluation['event_seconds']:.3f}s")
    print(f"           fused {evaluation['fused_speedup']:.2f}x  "
          f"event {evaluation['event_speedup']:.2f}x  "
          f"bit_identical={evaluation['bit_identical']}")
    print(f"inference: sequential {inference['sequential_seconds']:.3f}s  "
          f"batched {inference['batched_seconds']:.3f}s  "
          f"speedup {inference['speedup']:.2f}x")
    qb = inference["qbatched"]
    print(f"qbatched : batched {qb['batched_seconds']:.3f}s  "
          f"qbatched {qb['qbatched_seconds']:.3f}s  "
          f"speedup {qb['speedup']:.2f}x  "
          f"bit_identical={qb['bit_identical']}  "
          f"labels_identical={qb['labels_identical']}")
    print(f"backend  : guard vs numpy over {backend_rows['images']} images  "
          f"bit_identical={backend_rows['bit_identical']}")
    for engine in backend_rows["engines"]:
        tr = backend_rows["transfers"][engine]
        print(f"           {engine:<9} h2d {tr['h2d']:<5} d2h {tr['d2h']:<5} "
              f"alloc {tr['allocations']:<5} violations {tr['violations']}")

    if args.check:
        return check_against_baseline(payload, args.baseline, args.strict_speed)

    args.out.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
