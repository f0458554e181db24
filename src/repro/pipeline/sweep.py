"""Seed-averaged parameter sweeps: sequential, parallel, and fault-tolerant.

The reduced-scale runs are noisy (WTA winner races), so trend studies need
the same experiment repeated over seeds and variants compared on aggregate.
:class:`ParameterSweep` runs a set of named config *factories* (functions
``seed -> ExperimentConfig``) over a seed list against one dataset, records
per-seed accuracies and produces a report table.

Per-seed runs are independent (each builds its network from its own
``config.seed``-derived :class:`~repro.engine.rng.RngStreams`), so a sweep
is embarrassingly parallel: pass ``n_workers > 1`` to fan the seeds out
over a ``ProcessPoolExecutor``.  Determinism is preserved — the factory is
evaluated *in the parent* (factories are often lambdas/closures, which do
not pickle) and only the resulting config dataclass, the dataset and the
run options travel to the workers, so a parallel sweep produces exactly
the score table the sequential default would.

Long sweeps are where process faults actually land, so the sweep is
fault-tolerant (see :mod:`repro.resilience`):

- **per-cell retry with exponential backoff** (``max_retries``,
  ``retry_backoff_s``) — a transient failure retries instead of aborting
  the grid;
- **worker-death and hang recovery** — a broken process pool is rebuilt
  and the doomed cells retried; ``worker_timeout_s`` bounds how long the
  sweep waits for *any* in-flight cell before declaring the workers hung;
- **per-cell failure records** — a cell that exhausts its retries is
  recorded (:meth:`ParameterSweep.failures`) and the variant aggregates
  over the surviving seeds instead of the whole pool aborting;
- **persisted results manifest** (``manifest_path``) — every finished cell
  is written to a :class:`~repro.resilience.manifest.SweepManifest`;
  rerunning the sweep with the same manifest path recomputes only the
  cells not yet done.

Example::

    sweep = ParameterSweep(dataset, seeds=(3, 5, 7), epochs=2, n_workers=3,
                           max_retries=2, manifest_path="sweep.json")
    sweep.add("stochastic", lambda s: get_preset("float32", seed=s))
    sweep.add("baseline", lambda s: baseline_preset(seed=s))
    print(sweep.table(title="float32: stochastic vs baseline"))
"""

from __future__ import annotations

import time
import warnings
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

import multiprocessing

from repro.analysis.report import format_table
from repro.analysis.statistics import SeedStudy, Summary
from repro.config.parameters import ExperimentConfig
from repro.datasets.dataset import Dataset
from repro.errors import ReproError
from repro.pipeline.experiment import run_experiment

ConfigFactory = Callable[[int], ExperimentConfig]


class SweepCellTimeout(ReproError):
    """No in-flight sweep cell completed within ``worker_timeout_s``."""


def _run_one(payload) -> float:
    """Module-level worker: one ``run_experiment`` call, returns accuracy.

    Must stay a top-level function (and take one picklable tuple) so the
    spawn-based process pool can import and call it.  ``fault`` is an
    optional injector (``maybe_trigger(variant, seed)``) from the
    fault-injection harness; ``None`` outside the resilience tests.
    """
    (
        variant,
        seed,
        config,
        dataset,
        n_labeling,
        epochs,
        train_engine,
        eval_engine,
        fault,
    ) = payload
    if fault is not None:
        fault.maybe_trigger(variant, seed)
    result = run_experiment(
        config,
        dataset,
        n_labeling=n_labeling,
        epochs=epochs,
        train_engine=train_engine,
        eval_engine=eval_engine,
    )
    return result.accuracy


class ParameterSweep:
    """Run config variants across seeds; aggregate accuracy per variant.

    ``n_workers=None`` (or 1) keeps the sequential in-process default;
    ``n_workers > 1`` evaluates each variant's seeds concurrently in
    ``spawn``-context worker processes (safe under BLAS/OpenMP threading),
    with identical results.

    Fault tolerance: each ``(variant, seed)`` cell gets ``1 + max_retries``
    attempts with the shared deterministic exponential-backoff schedule
    (:class:`repro.resilience.retry.RetryPolicy`; no wall-clock jitter);
    a cell that exhausts them is recorded in :meth:`failures` and the
    variant aggregates over the seeds that survived.  ``worker_timeout_s``
    detects hung workers in the parallel path.  ``manifest_path`` persists
    every outcome so an interrupted sweep resumes from the done cells.
    """

    def __init__(
        self,
        dataset: Dataset,
        seeds: Sequence[int] = (0,),
        n_labeling: Optional[int] = None,
        epochs: int = 1,
        train_engine: Optional[str] = None,
        eval_engine: Optional[str] = "batched",
        n_workers: Optional[int] = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        worker_timeout_s: Optional[float] = None,
        manifest_path: Optional[Union[str, Path]] = None,
        fault: Optional[Any] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        from repro.resilience.retry import RetryPolicy

        if n_workers is not None and n_workers < 1:
            raise ReproError(f"n_workers must be >= 1, got {n_workers}")
        #: Shared deterministic retry schedule (validates both settings).
        self.retry = RetryPolicy(max_retries=max_retries, backoff_s=retry_backoff_s)
        if worker_timeout_s is not None and worker_timeout_s <= 0.0:
            raise ReproError(
                f"worker_timeout_s must be positive, got {worker_timeout_s}"
            )
        self.dataset = dataset
        self.study = SeedStudy(list(seeds))
        self.n_labeling = n_labeling
        self.epochs = epochs
        #: Registry engine names shipped to every run (``None`` = config default).
        self.train_engine = train_engine
        self.eval_engine = eval_engine
        self.n_workers = n_workers
        self.worker_timeout_s = worker_timeout_s
        #: Fault injector shipped inside every worker payload (tests only).
        self.fault = fault
        self._sleep = sleep
        self._manifest = None
        if manifest_path is not None:
            from repro.resilience.manifest import SweepManifest

            self._manifest = SweepManifest(manifest_path)
        self._order: List[str] = []
        #: Per-cell permanent failures: ``(variant, seed) -> record``.
        self._failures: Dict[Tuple[str, int], Dict[str, Any]] = {}

    # ------------------------------------------------------------------
    # cell plumbing
    # ------------------------------------------------------------------

    def _payload(self, name: str, factory: ConfigFactory, seed: int, epochs: int):
        return (
            name,
            seed,
            factory(seed),
            self.dataset,
            self.n_labeling,
            epochs,
            self.train_engine,
            self.eval_engine,
            self.fault,
        )

    def _backoff(self, failed_attempts: int) -> None:
        """Sleep before retry *failed_attempts* (1-based), exponentially."""
        delay = self.retry.backoff_for(failed_attempts)
        if delay > 0.0:
            self._sleep(delay)

    def _cell_done(self, name: str, seed: int, score: float, attempts: int) -> None:
        if self._manifest is not None:
            self._manifest.record_done(name, seed, score, attempts)

    def _cell_failed(
        self, name: str, seed: int, error: BaseException, attempts: int
    ) -> None:
        record = {
            "variant": name,
            "seed": seed,
            "error": f"{type(error).__name__}: {error}",
            "attempts": attempts,
        }
        self._failures[(name, seed)] = record
        if self._manifest is not None:
            self._manifest.record_failure(name, seed, record["error"], attempts)
        warnings.warn(
            f"sweep cell ({name!r}, seed {seed}) permanently failed after "
            f"{attempts} attempt(s): {record['error']}",
            stacklevel=3,
        )

    # ------------------------------------------------------------------
    # execution paths
    # ------------------------------------------------------------------

    def _run_sequential(
        self, name: str, factory: ConfigFactory, epochs: int, seeds: List[int]
    ) -> Dict[int, float]:
        from repro.resilience.retry import run_with_retry

        scores: Dict[int, float] = {}
        for seed in seeds:
            payload = self._payload(name, factory, seed, epochs)
            try:
                score, attempts = run_with_retry(
                    lambda: float(_run_one(payload)), self.retry, sleep=self._sleep
                )
            except Exception as exc:  # lint-ok: R5 — cell isolation boundary
                self._cell_failed(name, seed, exc, self.retry.attempts())
                continue
            scores[seed] = score
            self._cell_done(name, seed, score, attempts)
        return scores

    def _run_parallel(
        self, name: str, factory: ConfigFactory, epochs: int, seeds: List[int]
    ) -> Dict[int, float]:
        context = multiprocessing.get_context("spawn")
        max_workers = min(self.n_workers or 1, len(seeds))
        scores: Dict[int, float] = {}
        attempts: Dict[int, int] = {seed: 0 for seed in seeds}
        queue: List[int] = list(seeds)
        pool = ProcessPoolExecutor(max_workers=max_workers, mp_context=context)
        in_flight: Dict[Future, int] = {}

        def fail_attempt(seed: int, exc: BaseException) -> None:
            if attempts[seed] >= self.retry.attempts():
                self._cell_failed(name, seed, exc, attempts[seed])
            else:
                self._backoff(attempts[seed])
                queue.append(seed)

        try:
            while queue or in_flight:
                while queue:
                    seed = queue.pop(0)
                    attempts[seed] += 1
                    payload = self._payload(name, factory, seed, epochs)
                    in_flight[pool.submit(_run_one, payload)] = seed
                done, _ = wait(
                    in_flight, timeout=self.worker_timeout_s,
                    return_when=FIRST_COMPLETED,
                )
                if not done:
                    # Nothing finished within the window: the workers are
                    # hung.  Abandon the pool and retry every in-flight cell.
                    pool.shutdown(wait=False, cancel_futures=True)
                    doomed = list(in_flight.values())
                    in_flight = {}
                    pool = ProcessPoolExecutor(
                        max_workers=max_workers, mp_context=context
                    )
                    timeout = SweepCellTimeout(
                        f"no sweep cell completed within {self.worker_timeout_s}s"
                    )
                    for seed in doomed:
                        fail_attempt(seed, timeout)
                    continue
                pool_broken = False
                for future in done:
                    seed = in_flight.pop(future)
                    try:
                        scores[seed] = float(future.result())
                        self._cell_done(name, seed, scores[seed], attempts[seed])
                    except BrokenProcessPool as exc:
                        pool_broken = True
                        fail_attempt(seed, exc)
                    except Exception as exc:  # lint-ok: R5 — cell isolation boundary
                        fail_attempt(seed, exc)
                if pool_broken:
                    # A dead worker poisons the whole executor: every other
                    # in-flight future is doomed too.  Rebuild and retry them.
                    pool.shutdown(wait=False, cancel_futures=True)
                    doomed = list(in_flight.values())
                    in_flight = {}
                    pool = ProcessPoolExecutor(
                        max_workers=max_workers, mp_context=context
                    )
                    broken = BrokenProcessPool("process pool died mid-cell")
                    for seed in doomed:
                        fail_attempt(seed, broken)
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        return scores

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def add(self, name: str, factory: ConfigFactory, epochs: Optional[int] = None) -> Summary:
        """Run one variant across all seeds; returns its accuracy summary.

        With a manifest, cells already recorded as done are loaded instead
        of recomputed (failed cells are retried).  If some cells fail
        permanently the summary covers the surviving seeds; if *every*
        cell fails the error is re-raised as :class:`ReproError`.
        """
        if name in self._order:
            raise ReproError(f"variant {name!r} already swept")
        run_epochs = epochs if epochs is not None else self.epochs

        scores: Dict[int, float] = {}
        pending: List[int] = []
        for seed in self.study.seeds:
            if self._manifest is not None and self._manifest.is_done(name, seed):
                scores[seed] = self._manifest.score(name, seed)
            else:
                pending.append(seed)

        if pending:
            if self.n_workers is not None and self.n_workers > 1:
                scores.update(self._run_parallel(name, factory, run_epochs, pending))
            else:
                scores.update(self._run_sequential(name, factory, run_epochs, pending))

        if not scores:
            details = "; ".join(
                rec["error"] for (v, _), rec in sorted(self._failures.items())
                if v == name
            )
            raise ReproError(
                f"every cell of sweep variant {name!r} failed permanently: "
                f"{details}"
            )
        if len(scores) == len(self.study.seeds):
            summary = self.study.record(
                name, [scores[seed] for seed in self.study.seeds]
            )
        else:
            summary = self.study.record_partial(name, scores)
        self._order.append(name)
        return summary

    def failures(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        """Permanent per-cell failure records (optionally for one variant)."""
        return [
            dict(record)
            for (variant, _), record in sorted(self._failures.items())
            if name is None or variant == name
        ]

    @property
    def manifest(self):
        """The attached :class:`~repro.resilience.manifest.SweepManifest`."""
        return self._manifest

    def scores(self, name: str) -> List[float]:
        return self.study.scores(name)

    def gap(self, a: str, b: str) -> Summary:
        """Paired per-seed accuracy difference ``a - b``."""
        return self.study.difference(a, b)

    def table(self, title: Optional[str] = None) -> str:
        """A Markdown table of mean/std/min/max accuracy per variant."""
        if not self._order:
            raise ReproError("no variants swept yet")
        rows = self.study.summary_rows()
        return format_table(
            ["variant", "mean accuracy", "std", "min", "max"], rows, title=title
        )
