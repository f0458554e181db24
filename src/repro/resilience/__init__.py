"""Fault tolerance for long runs: checkpoint-resume, invariant monitoring,
sweep recovery, graceful engine degradation, the deterministic
fault-injection harness that proves each mechanism works, and the
resilience analysis (:mod:`repro.resilience.explore` +
:mod:`repro.resilience.tabulate`) that runs the built-in fault scenarios
and tabulates how each one recovered.

Layering: this package may import the network/engine/pipeline layers at
module level; the reverse edges (``pipeline`` → resilience, ``io`` →
resilience) are function-local, so importing any single module here — or
any module there — never cycles.
"""

from repro.resilience.autosave import AutosavePolicy
from repro.resilience.degrade import (
    DEGRADATION_CHAIN,
    EngineDegradedWarning,
    degradation_path,
    next_tier,
)
from repro.resilience.explore import (
    FAULT_KINDS,
    OUTCOMES,
    SCENARIOS,
    FaultScenario,
    ScenarioOutcome,
    ScenarioRunner,
)
from repro.resilience.manifest import MANIFEST_VERSION, SweepManifest, cell_key
from repro.resilience.retry import RetryPolicy, run_with_retry
from repro.resilience.run_state import (
    RUN_STATE_VERSION,
    TrainingRunState,
    load_run_state,
)
from repro.resilience.sentinel import NumericHealthSentinel
from repro.resilience.tabulate import REPORT_VERSION, ResilienceReport

__all__ = [
    "AutosavePolicy",
    "DEGRADATION_CHAIN",
    "EngineDegradedWarning",
    "FAULT_KINDS",
    "FaultScenario",
    "MANIFEST_VERSION",
    "NumericHealthSentinel",
    "OUTCOMES",
    "REPORT_VERSION",
    "RUN_STATE_VERSION",
    "ResilienceReport",
    "RetryPolicy",
    "SCENARIOS",
    "ScenarioOutcome",
    "ScenarioRunner",
    "SweepManifest",
    "TrainingRunState",
    "cell_key",
    "degradation_path",
    "load_run_state",
    "next_tier",
    "run_with_retry",
]
