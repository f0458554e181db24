"""Fold the built-in scenario outcomes into a versioned resilience report.

The runner in :mod:`repro.resilience.explore` produces one
:class:`~repro.resilience.explore.ScenarioOutcome` per built-in fault
scenario; this module folds them into a :class:`ResilienceReport` —
per-engine / per-fault-kind outcome tables, availability ratios,
worst-case recovery cost — serialized as versioned JSON and a Markdown
summary.

Determinism contract: :meth:`ResilienceReport.to_json` is canonical —
sorted keys, no wall-clock fields — and every outcome is a function of the
built-in workload alone, so every run writes a byte-identical report and a
resilience regression diffs cleanly in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List

from repro.analysis.report import format_table
from repro.resilience.explore import (
    OUTCOME_DEGRADED,
    OUTCOME_RESUMED,
    OUTCOME_UNRECOVERED,
    OUTCOMES,
    ScenarioOutcome,
)

#: Schema version of the report JSON.  Version 2 dropped the fault-space,
#: workload and subsample sections and the per-outcome ``expected_exact``
#: flag: the scenarios and the workload are constants of the build, and
#: every scenario's contract is bit-identity.
REPORT_VERSION = 2

#: The ``"kind"`` discriminator stamped into every report file.
REPORT_KIND = "repro-resilience-report"


@dataclass
class ResilienceReport:
    """The tabulated result of one run of the built-in scenarios.

    All aggregate tables are derived from ``outcomes`` at serialization
    time, so the report cannot drift from its own data.
    """

    outcomes: List[ScenarioOutcome]

    # -- aggregation ----------------------------------------------------

    def outcome_counts(self) -> Dict[str, int]:
        """Ensemble-wide scenario count per outcome class."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for result in self.outcomes:
            counts[result.outcome] += 1
        return counts

    def by_engine_and_kind(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Nested counts: engine → fault kind → outcome class."""
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for result in self.outcomes:
            cell = table.setdefault(result.scenario.engine, {}).setdefault(
                result.scenario.kind, {outcome: 0 for outcome in OUTCOMES}
            )
            cell[result.outcome] += 1
        return table

    def availability(self) -> Dict[str, Dict[str, float]]:
        """Per-engine availability ratios.

        ``no_lost_work`` — fraction of scenarios where no completed
        presentation had to be redone (resumed bit-identically or degraded
        in place); ``recovered`` — fraction that reached the clean run's
        state at all (everything but ``UNRECOVERED``).
        """
        ratios: Dict[str, Dict[str, float]] = {}
        per_engine: Dict[str, List[ScenarioOutcome]] = {}
        for result in self.outcomes:
            per_engine.setdefault(result.scenario.engine, []).append(result)
        for engine, results in sorted(per_engine.items()):
            total = len(results)
            kept = sum(
                1
                for r in results
                if r.outcome in (OUTCOME_RESUMED, OUTCOME_DEGRADED)
            )
            unrecovered = sum(
                1 for r in results if r.outcome == OUTCOME_UNRECOVERED
            )
            ratios[engine] = {
                "scenarios": float(total),
                "no_lost_work": kept / total,
                "recovered": (total - unrecovered) / total,
            }
        return ratios

    def worst_case(self) -> Dict[str, Any]:
        """The most expensive recovery observed, in deterministic units."""
        by_work = max(self.outcomes, key=lambda r: r.work_lost)
        return {
            "work_lost": by_work.work_lost,
            "work_lost_scenario": (
                by_work.scenario.scenario_id if by_work.work_lost > 0 else None
            ),
            "checkpoint_bytes": max(r.checkpoint_bytes for r in self.outcomes),
            "hops": max(r.hops for r in self.outcomes),
        }

    # -- the --check gate -----------------------------------------------

    def check(self) -> List[str]:
        """One line per ``UNRECOVERED`` scenario; empty = the gate passes."""
        return [
            f"{r.scenario.scenario_id}: UNRECOVERED ({r.detail})"
            for r in self.outcomes
            if r.outcome == OUTCOME_UNRECOVERED
        ]

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": REPORT_KIND,
            "schema_version": REPORT_VERSION,
            "n_scenarios": len(self.outcomes),
            "outcome_counts": self.outcome_counts(),
            "by_engine": self.by_engine_and_kind(),
            "availability": self.availability(),
            "worst_case": self.worst_case(),
            "outcomes": [r.to_dict() for r in self.outcomes],
        }

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, trailing newline, no wall clock."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    # -- human-facing summary -------------------------------------------

    def markdown(self) -> str:
        """The Markdown summary ``python -m repro resilience`` prints."""
        counts = self.outcome_counts()
        lines = [
            f"{len(self.outcomes)} scenarios: "
            + ", ".join(f"{counts[o]} {o}" for o in OUTCOMES)
        ]
        rows = []
        for engine, kinds in sorted(self.by_engine_and_kind().items()):
            for kind, cell in sorted(kinds.items()):
                rows.append(
                    [engine, kind]
                    + [str(cell[outcome]) for outcome in OUTCOMES]
                )
        outcome_headers = ["engine", "fault kind", "resumed", "degraded",
                           "lost work", "unrecovered"]
        lines.append("")
        lines.append(format_table(outcome_headers, rows, title="Outcomes"))
        avail_rows = [
            [
                engine,
                f"{int(ratios['scenarios'])}",
                f"{ratios['no_lost_work']:.3f}",
                f"{ratios['recovered']:.3f}",
            ]
            for engine, ratios in sorted(self.availability().items())
        ]
        lines.append("")
        lines.append(
            format_table(
                ["engine", "scenarios", "no-lost-work", "recovered"],
                avail_rows,
                title="Availability",
            )
        )
        worst = self.worst_case()
        lines.append("")
        lines.append(
            f"Worst case: {worst['work_lost']} presentations of lost work"
            + (
                f" ({worst['work_lost_scenario']})"
                if worst["work_lost_scenario"]
                else ""
            )
            + f"; largest checkpoint {worst['checkpoint_bytes']} bytes; "
            f"deepest degradation {worst['hops']} hop(s)."
        )
        return "\n".join(lines) + "\n"
