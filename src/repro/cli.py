"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``run`` — train + evaluate one learning option on a dataset, optionally
  saving a checkpoint and the learned maps; ``--autosave PATH`` writes a
  resumable v2 checkpoint every ``--autosave-every`` images;
- ``resume`` — continue a killed training run from its autosave checkpoint
  (bit-identical to the uninterrupted run), then evaluate;
- ``evaluate`` — load a checkpoint and classify a test split;
- ``presets`` — list the Table I learning options and their parameters;
- ``engines`` — list registered presentation engines and capabilities;
- ``lint`` — run the determinism/numerics static-analysis rules (R1–R5,
  the interprocedural R7–R9 flow passes and the W0 stale-pragma check);
- ``resilience`` — run the built-in fault scenarios and tabulate their
  recovery outcomes into a versioned ``ResilienceReport`` (``--check``
  gates on zero ``UNRECOVERED`` scenarios, ``--out`` writes the JSON);
- ``fi-curve`` — print the Fig. 1a frequency-vs-current curve;
- ``info`` — describe a checkpoint file.

Engine selection (``--engine`` / ``--eval-engine``) goes through the
:mod:`repro.engine.registry` names.

The CLI is a thin layer over the library: each command parses arguments,
calls the same public API the examples use, and prints report tables.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from repro.analysis.conductance_maps import ascii_map, map_contrast, neuron_maps
from repro.analysis.report import format_table
from repro.backend import KNOWN_BACKENDS, available_backends, backend_ops, use_backend
from repro.config.parameters import RoundingMode, STDPKind
from repro.config.presets import available_presets, get_preset, table_i_rows
from repro.config.serialize import save_json
from repro.datasets.dataset import load_dataset
from repro.engine.registry import available_engines, capability_rows
from repro.errors import ReproError
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.neurons.analysis import fi_curve
from repro.neurons.lif import LIFPopulation
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.experiment import run_experiment
from repro.pipeline.progress import PrintProgress
from repro.network.inference import classify_batch


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="ParallelSpikeSim reproduction: stochastic-STDP SNN learning",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="train + evaluate one learning option")
    run.add_argument("--preset", choices=available_presets(), default="float32")
    run.add_argument("--stdp", choices=["stochastic", "deterministic"], default="stochastic")
    run.add_argument("--rounding", choices=[m.value for m in RoundingMode], default="stochastic")
    run.add_argument("--dataset", choices=["mnist", "fashion"], default="mnist")
    run.add_argument("--n-train", type=int, default=200)
    run.add_argument("--n-test", type=int, default=100)
    run.add_argument("--n-labeling", type=int, default=40)
    run.add_argument("--neurons", type=int, default=25)
    run.add_argument("--size", type=int, default=16, help="image side in pixels")
    run.add_argument("--epochs", type=int, default=2)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--engine", choices=available_engines(), default=None,
                     help="training presentation engine (default: config's engine.train)")
    run.add_argument("--eval-engine", choices=available_engines(), default=None,
                     help="evaluation presentation engine (default: config's engine.eval)")
    run.add_argument("--backend", choices=KNOWN_BACKENDS, default=None,
                     help="array backend for the engine kernels (default: numpy; "
                          "'cupy' needs a GPU, 'guard' checks device discipline)")
    run.add_argument("--quiet", action="store_true")
    run.add_argument("--autosave", metavar="PATH", default=None,
                     help="write a resumable v2 checkpoint here during training")
    run.add_argument("--autosave-every", type=int, default=50, metavar="N",
                     help="images between autosaves (default 50)")
    run.add_argument("--save", metavar="PATH", help="write a checkpoint here")
    run.add_argument("--save-config", metavar="PATH", help="write the config JSON here")
    run.add_argument("--show-maps", type=int, default=0, metavar="N",
                     help="print the first N learned maps")

    resume = sub.add_parser(
        "resume", help="continue a killed training run from a v2 checkpoint"
    )
    resume.add_argument("checkpoint", help="autosave checkpoint written by run --autosave")
    resume.add_argument("--quiet", action="store_true")
    resume.add_argument("--no-autosave", action="store_true",
                        help="do not keep autosaving to the same path while resuming")

    ev = sub.add_parser("evaluate", help="classify a test split with a checkpoint")
    ev.add_argument("checkpoint")
    ev.add_argument("--dataset", choices=["mnist", "fashion"], default="mnist")
    ev.add_argument("--n-test", type=int, default=100)
    ev.add_argument("--n-labeling", type=int, default=40)
    ev.add_argument("--size", type=int, default=16)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--engine", choices=available_engines(), default=None,
                    help="evaluation presentation engine (default: config's engine.eval)")
    ev.add_argument("--backend", choices=KNOWN_BACKENDS, default=None,
                    help="array backend for the evaluation kernels")

    sub.add_parser("presets", help="list Table I learning options")

    sub.add_parser("engines", help="list registered presentation engines")

    lint = sub.add_parser(
        "lint", help="determinism/numerics static analysis (rules R1-R9, W0)"
    )
    lint.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to check (default: src)",
    )
    lint.add_argument("--format", choices=["text", "json"], default="text")
    lint.add_argument(
        "--out", metavar="PATH", default=None,
        help="also write the JSON report to PATH",
    )
    lint.add_argument(
        "--sarif", metavar="PATH", default=None,
        help="also write a SARIF 2.1.0 report to PATH (code scanning)",
    )

    res = sub.add_parser(
        "resilience",
        help="run the built-in fault scenarios and tabulate their recovery",
    )
    res.add_argument(
        "--check", action="store_true",
        help="exit non-zero if any scenario ends UNRECOVERED",
    )
    res.add_argument(
        "--out", metavar="PATH", default=None,
        help="write the ResilienceReport JSON here",
    )
    res.add_argument("--quiet", action="store_true")

    fi = sub.add_parser("fi-curve", help="Fig. 1a frequency-vs-current curve")
    fi.add_argument("--points", type=int, default=8)
    fi.add_argument("--max-current", type=float, default=None)

    info = sub.add_parser("info", help="describe a checkpoint")
    info.add_argument("checkpoint")

    return parser


def _cmd_run(args: argparse.Namespace) -> int:
    dataset = load_dataset(
        args.dataset, n_train=args.n_train, n_test=args.n_test, size=args.size, seed=args.seed
    )
    config = get_preset(
        args.preset,
        stdp_kind=STDPKind(args.stdp),
        rounding=RoundingMode(args.rounding),
        n_neurons=args.neurons,
        seed=args.seed,
    )
    print(f"config: {config.describe()}")
    if args.save_config:
        save_json(config, args.save_config)

    eval_engine = args.eval_engine

    if args.backend:
        from dataclasses import replace

        # Record the backend (and the effective engine names) in the config
        # so EngineConfig validation checks the combination actually run and
        # the trainer/evaluator pick the backend up from config.engine.
        config = replace(
            config,
            engine=replace(
                config.engine,
                backend=args.backend,
                train=args.engine or config.engine.train,
                eval=eval_engine or config.engine.eval,
            ),
        )

    autosave = None
    if args.autosave:
        from repro.resilience import AutosavePolicy

        autosave = AutosavePolicy(
            args.autosave,
            every_images=args.autosave_every,
            extra={
                "dataset": args.dataset,
                "n_train": args.n_train,
                "n_test": args.n_test,
                "size": args.size,
                "seed": args.seed,
                "n_labeling": args.n_labeling,
                "train_engine": args.engine,
                "eval_engine": eval_engine,
                "autosave_every": args.autosave_every,
            },
        )

    progress = None if args.quiet else PrintProgress(every=50)
    result = run_experiment(
        config,
        dataset,
        n_labeling=args.n_labeling,
        epochs=args.epochs,
        progress=progress,
        train_engine=args.engine,
        eval_engine=eval_engine,
        autosave=autosave,
    )
    if autosave is not None and autosave.saves_written:
        print(
            f"autosave: {autosave.saves_written} checkpoint(s) written to "
            f"{autosave.path}"
        )
    print(
        format_table(
            ["metric", "value"],
            [
                ["accuracy", result.accuracy],
                ["labeled neuron fraction", result.evaluation.labeled_fraction],
                ["simulated minutes", result.training.simulated_minutes],
                ["wall seconds", result.training.wall_seconds],
                ["mean spikes / image", result.training.mean_spikes_per_image],
            ],
            title="Result",
        )
    )

    if args.show_maps > 0:
        maps = neuron_maps(result.conductances)
        order = np.argsort(-map_contrast(result.conductances))
        for idx in order[: args.show_maps]:
            print(f"\nneuron {idx} (label {result.evaluation.neuron_labels[idx]}):")
            print(ascii_map(maps[idx], g_max=float(result.conductances.max())))

    if args.save:
        save_checkpoint(args.save, result.network, result.evaluation.neuron_labels)
        print(f"checkpoint written to {args.save}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.io.checkpoint import load_run_checkpoint
    from repro.resilience import AutosavePolicy

    state = load_run_checkpoint(args.checkpoint)
    extra = state.extra
    needed = ("dataset", "n_train", "n_test", "size", "seed")
    missing = [key for key in needed if key not in extra]
    if missing:
        print(
            f"error: {args.checkpoint} lacks run metadata ({', '.join(missing)}); "
            f"resume needs a checkpoint written by 'run --autosave'",
            file=sys.stderr,
        )
        return 2
    dataset = load_dataset(
        extra["dataset"],
        n_train=extra["n_train"],
        n_test=extra["n_test"],
        size=extra["size"],
        seed=extra["seed"],
    )
    total = state.n_images * state.epochs
    print(
        f"resuming {extra['dataset']} run at presentation "
        f"{state.presentation_index}/{total} (config: {state.config.describe()})"
    )

    autosave = None
    if not args.no_autosave:
        autosave = AutosavePolicy(
            args.checkpoint,
            every_images=int(extra.get("autosave_every", 50)),
            extra=extra,
        )
    progress = None if args.quiet else PrintProgress(every=50)
    result = run_experiment(
        state.config,
        dataset,
        n_labeling=extra.get("n_labeling"),
        epochs=state.epochs,
        progress=progress,
        train_engine=extra.get("train_engine"),
        eval_engine=extra.get("eval_engine"),
        resume_from=state,
        autosave=autosave,
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ["accuracy", result.accuracy],
                ["labeled neuron fraction", result.evaluation.labeled_fraction],
                ["simulated minutes", result.training.simulated_minutes],
                ["wall seconds (this segment)", result.training.wall_seconds],
                ["mean spikes / image", result.training.mean_spikes_per_image],
            ],
            title="Result (resumed run)",
        )
    )
    return 0


def _cmd_evaluate(args: argparse.Namespace) -> int:
    network, labels = load_checkpoint(args.checkpoint)
    dataset = load_dataset(
        args.dataset, n_train=1, n_test=args.n_test, size=args.size, seed=args.seed
    )
    if dataset.n_pixels != network.n_pixels:
        print(
            f"error: checkpoint expects {network.n_pixels} pixels, dataset has "
            f"{dataset.n_pixels}",
            file=sys.stderr,
        )
        return 2
    network.freeze()
    if args.backend:
        from repro.engine.registry import get_engine_spec

        engine_name = args.engine or network.config.engine.eval
        spec = get_engine_spec(engine_name)
        if args.backend not in spec.backends:
            print(
                f"error: engine {engine_name!r} does not execute on the "
                f"{args.backend!r} backend (declared: {', '.join(spec.backends)})",
                file=sys.stderr,
            )
            return 2
    evaluator = Evaluator(network, n_classes=dataset.n_classes, engine=args.engine)
    # The checkpoint's config is authoritative for everything *but* the
    # backend, which is an execution detail of this process — an outer
    # use_backend scope governs it (the evaluator's own scope is a no-op
    # when the config leaves engine.backend unset).
    with use_backend(args.backend):
        if labels is None:
            label_x, label_y, test_x, test_y = dataset.labeling_split(args.n_labeling)
            result = evaluator.evaluate(label_x, label_y, test_x, test_y)
            accuracy, n_images = result.accuracy, len(test_y)
        else:
            responses = evaluator.collect_responses(dataset.test_images)
            predictions = classify_batch(
                responses, labels, dataset.n_classes, network.rngs.misc
            )
            accuracy = float(np.mean(predictions == dataset.test_labels))
            n_images = dataset.test_labels.size
    print(f"accuracy on {n_images} images: {accuracy:.1%}")
    return 0


def _cmd_presets(_args: argparse.Namespace) -> int:
    rows = []
    for name, row in table_i_rows().items():
        rows.append(
            [name, row["gamma_pot"], row["tau_pot_ms"], row["gamma_dep"], row["tau_dep_ms"],
             f"{row['f_min_hz']:g}-{row['f_max_hz']:g}"]
        )
    print(
        format_table(
            ["preset", "gamma_pot", "tau_pot", "gamma_dep", "tau_dep", "window (Hz)"],
            rows,
            title="Table I learning options",
        )
    )
    return 0


def _cmd_engines(_args: argparse.Namespace) -> int:
    print(
        format_table(
            ["engine", "learning", "batch", "equivalence", "precision", "backends", "summary"],
            capability_rows(),
            title="Registered presentation engines",
        )
    )
    usable = available_backends()
    missing = [name for name in KNOWN_BACKENDS if name not in usable]
    line = f"backends available here: {', '.join(usable)}"
    if missing:
        line += f" (not installed: {', '.join(missing)})"
    print(line)
    print(f"active backend: {backend_ops().name}")
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.lint import lint_paths

    report = lint_paths(args.paths)
    if args.format == "json":
        print(report.to_json())
    else:
        print(report.format_text())
    if args.out:
        Path(args.out).write_text(report.to_json() + "\n")
    if args.sarif:
        from repro.lint.flow.sarif import sarif_json

        Path(args.sarif).write_text(sarif_json(report) + "\n")
    return report.exit_code


def _cmd_resilience(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.resilience.explore import SCENARIOS, ScenarioRunner
    from repro.resilience.tabulate import ResilienceReport

    if not args.quiet:
        print(f"running {len(SCENARIOS)} fault scenarios")

    def progress(done: int, total: int, outcome) -> None:
        if not args.quiet:
            print(
                f"  [{done}/{total}] {outcome.scenario.scenario_id}: "
                f"{outcome.outcome}"
            )

    with tempfile.TemporaryDirectory(prefix="repro-resilience-") as tmp:
        outcomes = ScenarioRunner(tmp).run_all(progress=progress)

    report = ResilienceReport(outcomes)
    print(report.markdown())
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"report written to {args.out}")
    if args.check:
        problems = report.check()
        if problems:
            for problem in problems:
                print(f"check failure: {problem}", file=sys.stderr)
            return 1
        print(f"check passed: all {len(outcomes)} scenarios recovered "
              f"within contract")
    return 0


def _cmd_fi_curve(args: argparse.Namespace) -> int:
    pop = LIFPopulation(1)
    rheobase = pop.params.rheobase_current()
    top = args.max_current if args.max_current is not None else 5.0 * rheobase
    currents, freqs = fi_curve(pop, np.linspace(0.0, top, args.points), duration_ms=800.0)
    print(
        format_table(
            ["current", "frequency (Hz)"],
            [[float(i), float(f)] for i, f in zip(currents, freqs)],
            title=f"LIF f-I curve (rheobase {rheobase:.2f})",
        )
    )
    return 0


def _cmd_info(args: argparse.Namespace) -> int:
    from repro.io.checkpoint import checkpoint_magic, load_run_checkpoint

    magic = checkpoint_magic(args.checkpoint)
    state = None
    if magic.endswith("-v2"):
        # The run state carries the learned state too: one read of the file.
        state = load_run_checkpoint(args.checkpoint)
        config, n_pixels, g, labels = (
            state.config, state.n_pixels, state.conductances, state.neuron_labels
        )
    else:
        network, labels = load_checkpoint(args.checkpoint)
        config, n_pixels, g = network.config, network.n_pixels, network.conductances
    rows = [
        ["format", magic],
        ["config", config.describe()],
        ["pixels", n_pixels],
        ["neurons", config.wta.n_neurons],
        ["conductance range", f"[{g.min():.3f}, {g.max():.3f}]"],
        ["labeled", "yes" if labels is not None else "no"],
    ]
    if state is not None:
        rows += [
            ["presentation", f"{state.presentation_index}/{state.n_images * state.epochs}"],
            ["simulation clock (ms)", state.t_ms],
            ["epochs", state.epochs],
        ]
    print(format_table(["field", "value"], rows, title=f"Checkpoint {args.checkpoint}"))
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "resume": _cmd_resume,
    "evaluate": _cmd_evaluate,
    "presets": _cmd_presets,
    "engines": _cmd_engines,
    "lint": _cmd_lint,
    "resilience": _cmd_resilience,
    "fi-curve": _cmd_fi_curve,
    "info": _cmd_info,
}


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns a process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ReproError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
