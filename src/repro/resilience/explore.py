"""Resilience analysis: run the built-in fault scenarios, classify recovery.

The injectors of :mod:`repro.resilience.faults` prove that each recovery
path works; this module measures *how well* the paths recover, following
the nasa-fmdtools shape (fault scenarios → scenario runs → tabulated
recovery):

1. **The fault space** — :data:`SCENARIOS` is the one built-in space:
   every crash (engine × injection presentation × autosave cadence ×
   checkpoint damage, where a checkpoint exists to damage) and every
   injected engine fault (engine × injection presentation), as frozen
   :class:`FaultScenario` points.
2. **Scenario execution** — :class:`ScenarioRunner` drives each scenario
   through its injector (:class:`~repro.resilience.faults.CrashFault` with
   :func:`~repro.resilience.faults.corrupt_file`, or
   :func:`~repro.resilience.faults.install_faulty_engine`) against a small
   seeded workload, executes the real recovery path (resume from the
   autosave or restart, the degradation chain) and classifies the result
   into one of :data:`OUTCOMES` with work-lost / checkpoint-size metrics.
3. **Tabulation** — :mod:`repro.resilience.tabulate` folds the outcomes
   into a versioned :class:`~repro.resilience.tabulate.ResilienceReport`.

Determinism contract: every outcome is a pure function of the workload —
the workload is seeded, the injectors are index-scheduled, damage-byte
positions derive from the scenario id — so every run yields a
byte-identical report.
"""

from __future__ import annotations

import warnings
import zlib
from dataclasses import asdict, dataclass, replace
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
from repro.datasets.dataset import load_dataset
from repro.engine.registry import get_engine_spec
from repro.errors import CheckpointError, ConfigurationError
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience.autosave import AutosavePolicy
from repro.resilience.degrade import EngineDegradedWarning, next_tier
from repro.resilience.faults import (
    CrashFault,
    SimulatedCrash,
    corrupt_file,
    install_faulty_engine,
    uninstall_faulty_engine,
)
from repro.resilience.run_state import load_run_state

# ----------------------------------------------------------------------
# taxonomy
# ----------------------------------------------------------------------

#: Fault kinds a scenario can inject.
KIND_CRASH = "crash"
KIND_ENGINE_FAULT = "engine_fault"
FAULT_KINDS: Tuple[str, ...] = (KIND_CRASH, KIND_ENGINE_FAULT)

#: Damage applied to a crash scenario's autosaved checkpoint.
DAMAGE_NONE = "none"
DAMAGE_CORRUPT = "corrupt"
DAMAGE_MODES: Tuple[str, ...] = (DAMAGE_NONE, DAMAGE_CORRUPT)

#: Outcome classes, best to worst.  ``RESUMED_BIT_IDENTICAL``: the run
#: recovered onto exactly the uninterrupted trajectory.  ``DEGRADED``: the
#: run finished on a lower engine tier, bit-identical to the clean run.
#: ``LOST_WORK``: recovery required recomputing completed presentations
#: (a restart from scratch) but reached the same final state.
#: ``UNRECOVERED``: no recovery path produced the clean run's state —
#: always a defect.
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

# ----------------------------------------------------------------------
# the workload every scenario trains: the test suite's tiny fixtures, 8 WTA
# neurons over 8 synthetic 8×8 digits with 50 ms presentations.  Quantized
# engines train QUANTIZED_FMT with stochastic rounding, the fixed-point
# presets' default.
# ----------------------------------------------------------------------

N_IMAGES = 8
N_NEURONS = 8
IMAGE_SIZE = 8
DATASET_SEED = 42
CONFIG_SEED = 0
DT_MS = 1.0
T_LEARN_MS = 50.0
T_REST_MS = 5.0
QUANTIZED_FMT = "Q1.7"


def scenario_images() -> np.ndarray:
    """The training images every scenario presents (synthetic, seeded)."""
    dataset = load_dataset(
        "mnist", n_train=N_IMAGES, n_test=4, size=IMAGE_SIZE, seed=DATASET_SEED
    )
    return dataset.train_images


def scenario_config(engine: str) -> ExperimentConfig:
    """The experiment config a scenario on *engine* trains with."""
    config = get_preset(
        "float32",
        stdp_kind=STDPKind.STOCHASTIC,
        n_neurons=N_NEURONS,
        seed=CONFIG_SEED,
    )
    config = replace(
        config,
        wta=replace(config.wta, n_neurons=N_NEURONS),
        simulation=SimulationParameters(
            dt_ms=DT_MS, t_learn_ms=T_LEARN_MS, t_rest_ms=T_REST_MS, seed=CONFIG_SEED
        ),
    )
    if "float64" not in get_engine_spec(engine).precisions:
        config = replace(
            config,
            quantization=QuantizationConfig(
                fmt=QUANTIZED_FMT, rounding=RoundingMode.STOCHASTIC
            ),
        )
    return config


# ----------------------------------------------------------------------
# the built-in fault space
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultScenario:
    """One point of the built-in fault space.

    ``autosave_every`` is the crash scenarios' autosave cadence (0 for
    engine faults, which autosave nothing); ``damage`` applies to the
    checkpoint a crash leaves behind.
    """

    kind: str
    engine: str
    at_presentation: int
    autosave_every: int = 0
    damage: str = DAMAGE_NONE

    @property
    def scenario_id(self) -> str:
        """A stable human-readable key, unique within the space."""
        return (
            f"{self.kind}:{self.engine}:p{self.at_presentation}"
            f":a{self.autosave_every}:{self.damage}"
        )


#: Engines with a fallback tier (``qfused → fused → reference``).
ENGINES: Tuple[str, ...] = ("fused", "qfused")

#: The built-in fault space, in report order: 14 crashes, then 4 engine
#: faults.  A crash at presentation 3 under cadence 4 finds no checkpoint
#: on disk, so it has nothing to damage and runs undamaged only; every
#: other crash finds one.
SCENARIOS: Tuple[FaultScenario, ...] = (
    *(
        FaultScenario(KIND_CRASH, engine, at, cadence, damage)
        for engine in ENGINES
        for at in (3, 6)
        for cadence in (2, 4)
        for damage in DAMAGE_MODES
        if damage == DAMAGE_NONE or at >= cadence
    ),
    *(
        FaultScenario(KIND_ENGINE_FAULT, engine, at)
        for engine in ENGINES
        for at in (3, 6)
    ),
)


def _damage_seed(scenario_id: str) -> int:
    """Deterministic per-scenario seed for damage-byte positions."""
    return zlib.crc32(scenario_id.encode("utf-8")) & 0x7FFFFFFF


# ----------------------------------------------------------------------
# scenario execution
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class _Baseline:
    """Final state of the uninterrupted run a scenario is judged against."""

    conductances: np.ndarray
    theta: np.ndarray
    spikes: Tuple[int, ...]


@dataclass(frozen=True)
class ScenarioOutcome:
    """How one scenario ended.

    ``bit_identical`` records whether the recovered run's spikes,
    conductances and thresholds equal the clean run's exactly; every class
    but ``UNRECOVERED`` requires it.  ``work_lost`` counts completed
    presentations that had to be redone.
    """

    scenario: FaultScenario
    outcome: str
    bit_identical: bool
    work_lost: int = 0
    checkpoint_bytes: int = 0
    hops: int = 0
    degraded_to: Optional[str] = None
    detail: str = ""

    def to_dict(self) -> Dict[str, Any]:
        return {**asdict(self), "scenario_id": self.scenario.scenario_id}


class ScenarioRunner:
    """Run :class:`FaultScenario` points against the seeded workload.

    *workdir* holds the scenario checkpoints (a temp directory in the CLI);
    clean per-engine baselines are computed once and cached.  A scenario
    whose harness raises is classified ``UNRECOVERED`` rather than
    aborting the ensemble.
    """

    def __init__(self, workdir: Union[str, Path]) -> None:
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.images = scenario_images()
        self._baselines: Dict[str, _Baseline] = {}

    def baseline(self, engine: str) -> _Baseline:
        """Final state of the clean, uninterrupted run on *engine*."""
        cached = self._baselines.get(engine)
        if cached is None:
            net = WTANetwork(scenario_config(engine), self.images[0].size)
            log = UnsupervisedTrainer(net).train(self.images, engine=engine)
            cached = _Baseline(
                conductances=np.array(net.conductances, copy=True),
                theta=np.array(net.neurons.theta, copy=True),
                spikes=tuple(log.spikes_per_image),
            )
            self._baselines[engine] = cached
        return cached

    def run(self, scenario: FaultScenario) -> ScenarioOutcome:
        """Execute one scenario, never raising for its fault."""
        try:
            if scenario.kind == KIND_CRASH:
                return self._run_crash(scenario)
            return self._run_engine_fault(scenario)
        except Exception as exc:  # scenario isolation boundary
            return ScenarioOutcome(
                scenario=scenario,
                outcome=OUTCOME_UNRECOVERED,
                bit_identical=False,
                detail=f"harness error: {type(exc).__name__}",
            )

    def run_all(
        self, progress: Optional[Callable[[int, int, ScenarioOutcome], None]] = None
    ) -> List[ScenarioOutcome]:
        """Run every built-in scenario, in :data:`SCENARIOS` order."""
        outcomes = []
        for index, scenario in enumerate(SCENARIOS):
            outcome = self.run(scenario)
            outcomes.append(outcome)
            if progress is not None:
                progress(index + 1, len(SCENARIOS), outcome)
        return outcomes

    def _matches_baseline(
        self, engine: str, net: WTANetwork, spikes: List[int]
    ) -> bool:
        base = self.baseline(engine)
        return (
            tuple(spikes) == base.spikes
            and np.array_equal(net.conductances, base.conductances)
            and np.array_equal(net.neurons.theta, base.theta)
        )

    # -- crash + resume -------------------------------------------------

    def _run_crash(self, sc: FaultScenario) -> ScenarioOutcome:
        config = scenario_config(sc.engine)
        ckpt = self.workdir / (sc.scenario_id.replace(":", "_") + ".npz")
        ckpt.unlink(missing_ok=True)

        net = WTANetwork(config, self.images[0].size)
        try:
            UnsupervisedTrainer(net).train(
                self.images,
                engine=sc.engine,
                autosave=AutosavePolicy(ckpt, every_images=sc.autosave_every),
                on_image_end=CrashFault(at_presentation=sc.at_presentation),
            )
            raise ConfigurationError(
                f"scenario {sc.scenario_id}: the injected crash never fired"
            )
        except SimulatedCrash:
            pass

        checkpoint_bytes = 0
        state = None
        detail = "no checkpoint on disk at crash time; restarted from scratch"
        if ckpt.exists():
            checkpoint_bytes = ckpt.stat().st_size
            if sc.damage == DAMAGE_CORRUPT:
                corrupt_file(ckpt, n_bytes=64, seed=_damage_seed(sc.scenario_id))
            try:
                state = load_run_state(str(ckpt))
                detail = f"resumed from presentation {state.presentation_index}"
            except CheckpointError:
                detail = (
                    "damaged checkpoint rejected by the loader; restarted from scratch"
                )

        # The recovery path: resume from the loaded state, or restart from
        # scratch when there is none.
        net2 = WTANetwork(config, self.images[0].size)
        log2 = UnsupervisedTrainer(net2).train(
            self.images, engine=sc.engine, resume_from=state
        )
        identical = self._matches_baseline(sc.engine, net2, log2.spikes_per_image)
        if state is None:
            outcome, work_lost = OUTCOME_LOST_WORK, sc.at_presentation
        else:
            outcome = OUTCOME_RESUMED
            work_lost = sc.at_presentation - state.presentation_index
        return ScenarioOutcome(
            scenario=sc,
            outcome=outcome if identical else OUTCOME_UNRECOVERED,
            bit_identical=identical,
            work_lost=work_lost,
            checkpoint_bytes=checkpoint_bytes,
            detail=detail if identical else detail + ", but diverged from the clean run",
        )

    # -- engine fault + degradation ------------------------------------

    def _run_engine_fault(self, sc: FaultScenario) -> ScenarioOutcome:
        fallback = next_tier(sc.engine)
        wrapper = f"faulty-{sc.engine}"
        install_faulty_engine(
            inner=sc.engine,
            fail_at=sc.at_presentation,
            fail_times=1,
            mode="raise",
            name=wrapper,
        )
        try:
            net = WTANetwork(scenario_config(sc.engine), self.images[0].size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                log = UnsupervisedTrainer(net).train(
                    self.images, engine=wrapper, on_engine_fault="degrade"
                )
        finally:
            uninstall_faulty_engine(wrapper)
        hops = sum(
            1 for w in caught if issubclass(w.category, EngineDegradedWarning)
        )

        # Every fallback steps the same arithmetic on the same draws:
        # ``fused`` falls to the bit-identical ``reference``, ``qfused`` to
        # the bit-identical ``fused``.  So the degraded run must match the
        # clean run bit for bit.
        identical = self._matches_baseline(sc.engine, net, log.spikes_per_image)
        contract_holds = hops >= 1 and identical
        return ScenarioOutcome(
            scenario=sc,
            outcome=OUTCOME_DEGRADED if contract_holds else OUTCOME_UNRECOVERED,
            bit_identical=identical,
            hops=hops,
            degraded_to=fallback if hops >= 1 else None,
            detail=(
                f"degraded {sc.engine} -> {fallback} at presentation "
                f"{sc.at_presentation}"
                if contract_holds
                else "degraded run broke the fallback tier's equivalence contract"
            ),
        )
