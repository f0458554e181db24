"""Resilience analysis: sample the fault space, run scenario ensembles.

PR 5 built deterministic fault injectors and the recovery machinery they
exercise; this module turns them into a *quantified availability story*,
following the nasa-fmdtools shape: define a fault space, sample it into
concrete scenarios, run each scenario end to end against a small
deterministic workload, and classify how the system recovered.

Three layers:

1. **Fault-space sampling** — :class:`FaultSpace` declares the axes
   (fault kind × injection presentation × engine × autosave cadence ×
   checkpoint-damage mode); :meth:`FaultSpace.scenarios` expands the
   full factorial per kind, :meth:`FaultSpace.sample` draws a seeded
   subsample.  Each point is a serializable :class:`FaultScenario`.
2. **Scenario execution** — :class:`ScenarioRunner` drives each scenario
   through the matching injector (:class:`~repro.resilience.faults.CrashFault`,
   :func:`~repro.resilience.faults.install_faulty_engine`,
   :func:`~repro.resilience.faults.truncate_file` /
   :func:`~repro.resilience.faults.corrupt_file`) and executes the
   matching recovery path (resume from autosave, degradation chain,
   cache regeneration), classifying the result into one of
   :data:`OUTCOMES` with work-lost / checkpoint-size metrics.
3. **Tabulation** — :mod:`repro.resilience.tabulate` aggregates the
   ensemble into a versioned :class:`~repro.resilience.tabulate.ResilienceReport`.

Determinism contract: everything an outcome records except
``recovery_seconds`` is a pure function of (space, sample seed, workload)
— the workload is seeded, the injectors are index-scheduled, damage-byte
positions derive from the scenario id — so the same space + seed yields a
byte-identical report (timings are excluded from the canonical
serialization and only included on request).
"""

from __future__ import annotations

import time
import warnings
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.config.parameters import (
    ExperimentConfig,
    QuantizationConfig,
    RoundingMode,
    STDPKind,
    SimulationParameters,
)
from repro.config.presets import get_preset
from repro.datasets.cache import cached_load_dataset
from repro.datasets.dataset import load_dataset
from repro.engine.registry import available_engines, get_engine_spec
from repro.errors import CheckpointError, ConfigurationError
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience.autosave import AutosavePolicy
from repro.resilience.degrade import EngineDegradedWarning, degradation_path
from repro.resilience.faults import (
    CrashFault,
    SimulatedCrash,
    corrupt_file,
    install_faulty_engine,
    truncate_file,
    uninstall_faulty_engine,
)
from repro.resilience.retry import RetryPolicy, run_with_retry
from repro.resilience.run_state import load_run_state

# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------

#: Fault kinds a scenario can inject.
KIND_CRASH = "crash"
KIND_ENGINE_FAULT = "engine_fault"
KIND_CACHE_CORRUPTION = "cache_corruption"
FAULT_KINDS: Tuple[str, ...] = (KIND_CRASH, KIND_ENGINE_FAULT, KIND_CACHE_CORRUPTION)

#: Checkpoint/cache damage applied after the fault (crash and cache kinds).
DAMAGE_NONE = "none"
DAMAGE_TRUNCATE = "truncate"
DAMAGE_CORRUPT = "corrupt"
DAMAGE_MODES: Tuple[str, ...] = (DAMAGE_NONE, DAMAGE_TRUNCATE, DAMAGE_CORRUPT)

#: Outcome classes, best to worst.  ``RESUMED_BIT_IDENTICAL``: the run
#: recovered onto exactly the uninterrupted trajectory.  ``DEGRADED``: the
#: run finished on a lower engine tier, inside that tier's published
#: equivalence contract.  ``LOST_WORK``: recovery required recomputing
#: completed presentations (e.g. restart from scratch) but reached the
#: correct final state.  ``UNRECOVERED``: no recovery path produced the
#: contractual result — always a defect.
OUTCOME_RESUMED = "RESUMED_BIT_IDENTICAL"
OUTCOME_DEGRADED = "DEGRADED"
OUTCOME_LOST_WORK = "LOST_WORK"
OUTCOME_UNRECOVERED = "UNRECOVERED"
OUTCOMES: Tuple[str, ...] = (
    OUTCOME_RESUMED,
    OUTCOME_DEGRADED,
    OUTCOME_LOST_WORK,
    OUTCOME_UNRECOVERED,
)

#: Pseudo-engine label for scenarios that never run a training engine
#: (cache corruption damages the dataset store, not a run).
DATASET_ENGINE = "dataset"



def _damage_seed(scenario_id: str) -> int:
    """Deterministic per-scenario seed for damage-byte positions."""
    return zlib.crc32(scenario_id.encode("utf-8")) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# layer 1: the declarative fault space
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultScenario:
    """One sampled point of the fault space, fully serializable.

    ``autosave_every == 0`` means no autosave (crash scenarios then have
    nothing to resume from and are expected to cost a full restart);
    ``damage`` applies to the checkpoint (crash kind) or the dataset cache
    entry (cache kind).
    """

    kind: str
    engine: str
    at_presentation: int = 1
    autosave_every: int = 0
    damage: str = DAMAGE_NONE

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"unknown fault kind {self.kind!r}; known: {list(FAULT_KINDS)}"
            )
        if self.damage not in DAMAGE_MODES:
            raise ConfigurationError(
                f"unknown damage mode {self.damage!r}; known: {list(DAMAGE_MODES)}"
            )
        if not self.engine:
            raise ConfigurationError("scenario engine must be non-empty")
        if self.at_presentation < 1:
            raise ConfigurationError(
                f"at_presentation must be >= 1, got {self.at_presentation}"
            )
        if self.autosave_every < 0:
            raise ConfigurationError(
                f"autosave_every must be >= 0, got {self.autosave_every}"
            )

    @property
    def scenario_id(self) -> str:
        """A stable human-readable key, unique within any one space."""
        return (
            f"{self.kind}:{self.engine}:p{self.at_presentation}"
            f":a{self.autosave_every}:{self.damage}"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "engine": self.engine,
            "at_presentation": self.at_presentation,
            "autosave_every": self.autosave_every,
            "damage": self.damage,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultScenario":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored."""
        return cls(
            kind=str(payload["kind"]),
            engine=str(payload["engine"]),
            at_presentation=int(payload.get("at_presentation", 1)),
            autosave_every=int(payload.get("autosave_every", 0)),
            damage=str(payload.get("damage", DAMAGE_NONE)),
        )


@dataclass(frozen=True)
class FaultSpace:
    """The declarative axes the harness explores.

    :meth:`scenarios` expands a full factorial *per kind* — kinds do not
    share every axis: engine faults need no autosave or file damage, and
    cache corruption involves no engine or injection index — so the
    factorial is taken over each kind's meaningful axes only.
    """

    kinds: Tuple[str, ...] = FAULT_KINDS
    engines: Tuple[str, ...] = ("fused", "qfused")
    at_presentations: Tuple[int, ...] = (3, 6)
    autosave_cadences: Tuple[int, ...] = (2, 4)
    damage_modes: Tuple[str, ...] = DAMAGE_MODES

    def __post_init__(self) -> None:
        for kind in self.kinds:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown fault kind {kind!r}; known: {list(FAULT_KINDS)}"
                )
        learners = [n for n in available_engines() if get_engine_spec(n).supports_learning]
        for engine in self.engines:
            if engine not in learners:
                raise ConfigurationError(
                    f"fault space engine {engine!r} is not a registered learning "
                    f"engine; registered learning engines: {', '.join(learners)}"
                )
        for damage in self.damage_modes:
            if damage not in DAMAGE_MODES:
                raise ConfigurationError(
                    f"unknown damage mode {damage!r}; known: {list(DAMAGE_MODES)}"
                )
        if not self.kinds:
            raise ConfigurationError("a fault space needs at least one kind")
        if any(k in (KIND_CRASH, KIND_ENGINE_FAULT) for k in self.kinds):
            if not self.engines:
                raise ConfigurationError(
                    "crash/engine_fault kinds need at least one engine"
                )
            if not self.at_presentations:
                raise ConfigurationError(
                    "crash/engine_fault kinds need at least one at_presentation"
                )
        for at in self.at_presentations:
            if at < 1:
                raise ConfigurationError(
                    f"at_presentations entries must be >= 1, got {at}"
                )
        for cadence in self.autosave_cadences:
            if cadence < 1:
                raise ConfigurationError(
                    f"autosave_cadences entries must be >= 1, got {cadence}"
                )

    def scenarios(self) -> List[FaultScenario]:
        """The full factorial expansion, in deterministic axis order."""
        out: List[FaultScenario] = []
        for kind in self.kinds:
            if kind == KIND_CRASH:
                for engine in self.engines:
                    for at in self.at_presentations:
                        for cadence in self.autosave_cadences:
                            for damage in self.damage_modes:
                                out.append(
                                    FaultScenario(kind, engine, at, cadence, damage)
                                )
            elif kind == KIND_ENGINE_FAULT:
                for engine in self.engines:
                    for at in self.at_presentations:
                        out.append(FaultScenario(kind, engine, at, 0, DAMAGE_NONE))
            else:  # KIND_CACHE_CORRUPTION
                damages = [d for d in self.damage_modes if d != DAMAGE_NONE]
                for damage in damages or [DAMAGE_CORRUPT]:
                    out.append(FaultScenario(kind, DATASET_ENGINE, 1, 0, damage))
        return out

    def sample(self, n: int, seed: int = 0) -> List[FaultScenario]:
        """A seeded subsample of :meth:`scenarios`, original order kept."""
        if n < 1:
            raise ConfigurationError(f"sample size must be >= 1, got {n}")
        scenarios = self.scenarios()
        if n >= len(scenarios):
            return scenarios
        rng = np.random.default_rng(seed)
        chosen = rng.choice(len(scenarios), size=n, replace=False)
        return [scenarios[i] for i in sorted(int(i) for i in chosen)]

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kinds": list(self.kinds),
            "engines": list(self.engines),
            "at_presentations": list(self.at_presentations),
            "autosave_cadences": list(self.autosave_cadences),
            "damage_modes": list(self.damage_modes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "FaultSpace":
        """Rebuild from :meth:`to_dict` JSON; unknown keys are ignored and
        missing axes keep their defaults."""
        default = cls()
        return cls(
            kinds=tuple(payload.get("kinds", default.kinds)),
            engines=tuple(payload.get("engines", default.engines)),
            at_presentations=tuple(
                int(v) for v in payload.get("at_presentations", default.at_presentations)
            ),
            autosave_cadences=tuple(
                int(v) for v in payload.get("autosave_cadences", default.autosave_cadences)
            ),
            damage_modes=tuple(payload.get("damage_modes", default.damage_modes)),
        )


def default_space() -> FaultSpace:
    """The default analysis space: 3 kinds × 2 engines × 2 injection points
    × 2 cadences × 3 damage modes (30 scenarios)."""
    return FaultSpace()


def smoke_space() -> FaultSpace:
    """A small space for CI smoke runs (6 scenarios, float engine only)."""
    return FaultSpace(
        engines=("fused",),
        at_presentations=(3,),
        autosave_cadences=(2, 4),
        damage_modes=(DAMAGE_NONE, DAMAGE_TRUNCATE),
    )


# ----------------------------------------------------------------------
# layer 2: the deterministic workload and the scenario runner
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioWorkload:
    """The small, fully seeded training workload every scenario runs.

    Mirrors the test suite's tiny fixtures: 8 WTA neurons over 8×8
    synthetic digits, 50 ms presentations.  Quantized engines train
    ``quantized_fmt`` with stochastic rounding, the fixed-point presets'
    default.
    """

    n_images: int = 8
    n_neurons: int = 8
    image_size: int = 8
    dataset_seed: int = 42
    config_seed: int = 0
    dt_ms: float = 1.0
    t_learn_ms: float = 50.0
    t_rest_ms: float = 5.0
    quantized_fmt: str = "Q1.7"

    def load_images(self) -> np.ndarray:
        """The training images (synthetic, generated from the seed)."""
        dataset = load_dataset(
            "mnist",
            n_train=self.n_images,
            n_test=4,
            size=self.image_size,
            seed=self.dataset_seed,
        )
        return dataset.train_images

    def config_for(self, engine: str) -> ExperimentConfig:
        """The experiment config a scenario on *engine* trains with."""
        config = get_preset(
            "float32",
            stdp_kind=STDPKind.STOCHASTIC,
            n_neurons=self.n_neurons,
            seed=self.config_seed,
        )
        config = replace(
            config,
            wta=replace(config.wta, n_neurons=self.n_neurons),
            simulation=SimulationParameters(
                dt_ms=self.dt_ms,
                t_learn_ms=self.t_learn_ms,
                t_rest_ms=self.t_rest_ms,
                seed=self.config_seed,
            ),
        )
        if "float64" not in get_engine_spec(engine).precisions:
            config = replace(
                config,
                quantization=QuantizationConfig(
                    fmt=self.quantized_fmt, rounding=RoundingMode.STOCHASTIC
                ),
            )
        return config

    def to_dict(self) -> Dict[str, Any]:
        return {
            "n_images": self.n_images,
            "n_neurons": self.n_neurons,
            "image_size": self.image_size,
            "dataset_seed": self.dataset_seed,
            "config_seed": self.config_seed,
            "dt_ms": self.dt_ms,
            "t_learn_ms": self.t_learn_ms,
            "t_rest_ms": self.t_rest_ms,
            "quantized_fmt": self.quantized_fmt,
        }


@dataclass(frozen=True)
class _Baseline:
    """Final state of the uninterrupted run a scenario is judged against."""

    conductances: np.ndarray
    theta: np.ndarray
    spikes: Tuple[int, ...]


@dataclass(frozen=True)
class ScenarioOutcome:
    """How one scenario ended.

    ``bit_identical`` records what was *observed* (all compared state
    exactly equal); ``expected_exact`` what the engine contract *promises*
    — a scenario with ``expected_exact and not bit_identical`` is a
    contract violation even when the outcome class looks benign.
    ``work_lost`` counts completed presentations that had to be redone;
    ``recovery_seconds`` is wall clock and therefore excluded from the
    canonical serialization (``to_dict(timings=False)``).
    """

    scenario: FaultScenario
    outcome: str
    bit_identical: bool
    expected_exact: bool
    work_lost: int = 0
    checkpoint_bytes: int = 0
    hops: int = 0
    degraded_to: Optional[str] = None
    detail: str = ""
    recovery_seconds: float = 0.0

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "scenario": self.scenario.to_dict(),
            "scenario_id": self.scenario.scenario_id,
            "outcome": self.outcome,
            "bit_identical": self.bit_identical,
            "expected_exact": self.expected_exact,
            "work_lost": self.work_lost,
            "checkpoint_bytes": self.checkpoint_bytes,
            "hops": self.hops,
            "degraded_to": self.degraded_to,
            "detail": self.detail,
        }
        if timings:
            payload["recovery_seconds"] = self.recovery_seconds
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioOutcome":
        """Rebuild from :meth:`to_dict` output; unknown keys are ignored."""
        return cls(
            scenario=FaultScenario.from_dict(payload["scenario"]),
            outcome=str(payload["outcome"]),
            bit_identical=bool(payload["bit_identical"]),
            expected_exact=bool(payload["expected_exact"]),
            work_lost=int(payload.get("work_lost", 0)),
            checkpoint_bytes=int(payload.get("checkpoint_bytes", 0)),
            hops=int(payload.get("hops", 0)),
            degraded_to=payload.get("degraded_to"),
            detail=str(payload.get("detail", "")),
            recovery_seconds=float(payload.get("recovery_seconds", 0.0)),
        )


class ScenarioRunner:
    """Run :class:`FaultScenario` points against the deterministic workload.

    *workdir* holds the scenario checkpoints and cache entries (a temp
    directory in the CLI); clean per-engine baselines are computed once
    and cached.  Transient harness failures retry under the shared
    :class:`~repro.resilience.retry.RetryPolicy`; a scenario that still
    fails is classified ``UNRECOVERED`` rather than aborting the ensemble.
    """

    def __init__(
        self,
        workdir: Union[str, Path],
        workload: Optional[ScenarioWorkload] = None,
        retry: Optional[RetryPolicy] = None,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.workload = workload if workload is not None else ScenarioWorkload()
        self.retry = retry if retry is not None else RetryPolicy()
        self._sleep = sleep
        self._images: Optional[np.ndarray] = None
        self._baselines: Dict[str, _Baseline] = {}

    # -- shared workload state -----------------------------------------

    def images(self) -> np.ndarray:
        if self._images is None:
            self._images = self.workload.load_images()
        return self._images

    def baseline(self, engine: str) -> _Baseline:
        """Final state of the clean, uninterrupted run on *engine*."""
        cached = self._baselines.get(engine)
        if cached is None:
            config = self.workload.config_for(engine)
            images = self.images()
            net = WTANetwork(config, images[0].size)
            log = UnsupervisedTrainer(net).train(images, engine=engine)
            cached = _Baseline(
                conductances=np.array(net.conductances, copy=True),
                theta=np.array(net.neurons.theta, copy=True),
                spikes=tuple(log.spikes_per_image),
            )
            self._baselines[engine] = cached
        return cached

    # -- execution ------------------------------------------------------

    def run(self, scenario: FaultScenario) -> ScenarioOutcome:
        """Execute one scenario (with retry), never raising for its fault."""
        try:
            outcome, _ = run_with_retry(
                lambda: self._run_once(scenario), self.retry, sleep=self._sleep
            )
            return outcome
        except Exception as exc:  # scenario isolation boundary
            return ScenarioOutcome(
                scenario=scenario,
                outcome=OUTCOME_UNRECOVERED,
                bit_identical=False,
                expected_exact=False,
                detail=f"harness error: {type(exc).__name__}",
            )

    def run_all(
        self,
        scenarios: List[FaultScenario],
        progress: Optional[Callable[[int, int, ScenarioOutcome], None]] = None,
    ) -> List[ScenarioOutcome]:
        outcomes = []
        for index, scenario in enumerate(scenarios):
            outcome = self.run(scenario)
            outcomes.append(outcome)
            if progress is not None:
                progress(index + 1, len(scenarios), outcome)
        return outcomes

    def _run_once(self, scenario: FaultScenario) -> ScenarioOutcome:
        if scenario.kind == KIND_CRASH:
            return self._run_crash(scenario)
        if scenario.kind == KIND_ENGINE_FAULT:
            return self._run_engine_fault(scenario)
        return self._run_cache_corruption(scenario)

    # -- crash + resume -------------------------------------------------

    def _run_crash(self, sc: FaultScenario) -> ScenarioOutcome:
        if sc.at_presentation > self.workload.n_images:
            raise ConfigurationError(
                f"scenario {sc.scenario_id} crashes at presentation "
                f"{sc.at_presentation} but the workload has only "
                f"{self.workload.n_images} images"
            )
        config = self.workload.config_for(sc.engine)
        images = self.images()
        base = self.baseline(sc.engine)
        ckpt = self.workdir / (sc.scenario_id.replace(":", "_") + ".npz")
        if ckpt.exists():
            ckpt.unlink()

        net = WTANetwork(config, images[0].size)
        fault = CrashFault(at_presentation=sc.at_presentation)
        autosave = (
            AutosavePolicy(ckpt, every_images=sc.autosave_every)
            if sc.autosave_every > 0
            else None
        )
        try:
            UnsupervisedTrainer(net).train(
                images, engine=sc.engine, autosave=autosave, on_image_end=fault
            )
            raise ConfigurationError(
                f"scenario {sc.scenario_id}: the injected crash never fired"
            )
        except SimulatedCrash:
            pass

        checkpoint_bytes = ckpt.stat().st_size if ckpt.exists() else 0
        if ckpt.exists() and sc.damage == DAMAGE_TRUNCATE:
            truncate_file(ckpt, keep_fraction=0.5)
        elif ckpt.exists() and sc.damage == DAMAGE_CORRUPT:
            corrupt_file(ckpt, n_bytes=64, seed=_damage_seed(sc.scenario_id))

        start = time.perf_counter()
        state = None
        detail = ""
        if not ckpt.exists():
            detail = "no checkpoint on disk at crash time; "
        else:
            try:
                state = load_run_state(str(ckpt))
            except CheckpointError:
                detail = "damaged checkpoint rejected by the loader; "

        if state is not None:
            resumed_at = state.presentation_index
            net2 = WTANetwork(config, images[0].size)
            log2 = UnsupervisedTrainer(net2).train(
                images, engine=sc.engine, resume_from=state
            )
            elapsed = time.perf_counter() - start
            if self._matches_exactly(net2, log2.spikes_per_image, base):
                return ScenarioOutcome(
                    scenario=sc,
                    outcome=OUTCOME_RESUMED,
                    bit_identical=True,
                    expected_exact=True,
                    work_lost=sc.at_presentation - resumed_at,
                    checkpoint_bytes=checkpoint_bytes,
                    detail=detail + f"resumed from presentation {resumed_at}",
                    recovery_seconds=elapsed,
                )
            return ScenarioOutcome(
                scenario=sc,
                outcome=OUTCOME_UNRECOVERED,
                bit_identical=False,
                expected_exact=True,
                work_lost=sc.at_presentation - resumed_at,
                checkpoint_bytes=checkpoint_bytes,
                detail=detail + "resumed state diverged from the clean run",
                recovery_seconds=elapsed,
            )

        # No loadable checkpoint: the recovery path is a full restart.
        net2 = WTANetwork(config, images[0].size)
        log2 = UnsupervisedTrainer(net2).train(images, engine=sc.engine)
        elapsed = time.perf_counter() - start
        identical = self._matches_exactly(net2, log2.spikes_per_image, base)
        return ScenarioOutcome(
            scenario=sc,
            outcome=OUTCOME_LOST_WORK if identical else OUTCOME_UNRECOVERED,
            bit_identical=identical,
            expected_exact=True,
            work_lost=sc.at_presentation,
            checkpoint_bytes=checkpoint_bytes,
            detail=detail + "restarted from scratch",
            recovery_seconds=elapsed,
        )

    @staticmethod
    def _matches_exactly(
        net: WTANetwork, spikes: List[int], base: _Baseline
    ) -> bool:
        return (
            tuple(spikes) == base.spikes
            and np.array_equal(net.conductances, base.conductances)
            and np.array_equal(net.neurons.theta, base.theta)
        )

    # -- engine fault + degradation ------------------------------------

    def _run_engine_fault(self, sc: FaultScenario) -> ScenarioOutcome:
        if sc.at_presentation > self.workload.n_images:
            raise ConfigurationError(
                f"scenario {sc.scenario_id} faults at presentation "
                f"{sc.at_presentation} but the workload has only "
                f"{self.workload.n_images} images"
            )
        chain = degradation_path(sc.engine)
        if len(chain) < 2:
            raise ConfigurationError(
                f"engine {sc.engine!r} has no degradation tier to fall back to"
            )
        config = self.workload.config_for(sc.engine)
        images = self.images()
        base = self.baseline(sc.engine)
        wrapper = f"faulty-{sc.engine}"
        install_faulty_engine(
            inner=sc.engine,
            fail_at=sc.at_presentation,
            fail_times=1,
            mode="raise",
            name=wrapper,
        )
        start = time.perf_counter()
        try:
            net = WTANetwork(config, images[0].size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                log = UnsupervisedTrainer(net).train(
                    images, engine=wrapper, on_engine_fault="degrade"
                )
        finally:
            uninstall_faulty_engine(wrapper)
        elapsed = time.perf_counter() - start
        hops = sum(
            1 for w in caught if issubclass(w.category, EngineDegradedWarning)
        )

        # Every fallback steps the same arithmetic on the same draws:
        # ``fused`` falls to the bit-identical ``reference``, ``qfused`` to
        # the bit-identical ``fused``.  So the degraded run must match the
        # clean run bit for bit.
        identical = self._matches_exactly(net, log.spikes_per_image, base)
        contract_holds = hops >= 1 and identical
        return ScenarioOutcome(
            scenario=sc,
            outcome=OUTCOME_DEGRADED if contract_holds else OUTCOME_UNRECOVERED,
            bit_identical=identical,
            expected_exact=True,
            hops=hops,
            degraded_to=chain[1] if hops >= 1 else None,
            detail=(
                f"degraded {sc.engine} -> {chain[1]} at presentation "
                f"{sc.at_presentation}"
                if contract_holds
                else "degraded run broke the fallback tier's equivalence contract"
            ),
            recovery_seconds=elapsed,
        )

    # -- cache corruption + regeneration -------------------------------

    def _run_cache_corruption(self, sc: FaultScenario) -> ScenarioOutcome:
        wl = self.workload
        cache_dir = self.workdir / f"cache-{sc.damage}"
        params: Dict[str, Any] = dict(
            n_train=wl.n_images,
            n_test=4,
            size=wl.image_size,
            seed=wl.dataset_seed,
            cache_dir=cache_dir,
        )
        pristine = cached_load_dataset("mnist", **params)
        entries = sorted(cache_dir.glob("*.npz"))
        if not entries:
            raise ConfigurationError(
                f"scenario {sc.scenario_id}: the dataset cache wrote no entry"
            )
        target = entries[0]
        checkpoint_bytes = target.stat().st_size
        if sc.damage == DAMAGE_TRUNCATE:
            truncate_file(target, keep_fraction=0.5)
        else:
            corrupt_file(target, n_bytes=64, seed=_damage_seed(sc.scenario_id))

        start = time.perf_counter()
        recovered = cached_load_dataset("mnist", **params)
        elapsed = time.perf_counter() - start
        identical = (
            np.array_equal(recovered.train_images, pristine.train_images)
            and np.array_equal(recovered.train_labels, pristine.train_labels)
            and np.array_equal(recovered.test_images, pristine.test_images)
            and np.array_equal(recovered.test_labels, pristine.test_labels)
        )
        return ScenarioOutcome(
            scenario=sc,
            outcome=OUTCOME_RESUMED if identical else OUTCOME_UNRECOVERED,
            bit_identical=identical,
            expected_exact=True,
            checkpoint_bytes=checkpoint_bytes,
            detail=(
                "damaged cache entry regenerated bit-identically"
                if identical
                else "regenerated cache entry diverged from the original"
            ),
            recovery_seconds=elapsed,
        )
