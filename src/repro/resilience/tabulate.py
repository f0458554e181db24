"""Aggregate scenario-ensemble outcomes into a versioned resilience report.

The runner in :mod:`repro.resilience.explore` produces one
:class:`~repro.resilience.explore.ScenarioOutcome` per sampled fault
scenario; this module folds the ensemble into a
:class:`ResilienceReport` — per-engine / per-fault-kind outcome tables,
availability ratios, worst-case recovery cost — serialized as a versioned
JSON artifact and a Markdown summary.

Determinism contract: :meth:`ResilienceReport.to_json` is canonical —
sorted keys, no wall-clock fields (timings are opt-in via
``timings=True``) — so the same fault space + sample seed yields a
byte-identical report and resilience regressions diff cleanly in CI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.analysis.report import format_table
from repro.errors import CheckpointError
from repro.resilience.explore import (
    OUTCOME_DEGRADED,
    OUTCOME_RESUMED,
    OUTCOME_UNRECOVERED,
    OUTCOMES,
    ScenarioOutcome,
)

#: Schema version of the report JSON.  Readers follow the same tolerance
#: rule as the sweep manifest: accept any version >= 1, ignore unknown keys.
REPORT_VERSION = 1

#: The ``"kind"`` discriminator stamped into every report file.
REPORT_KIND = "repro-resilience-report"


@dataclass
class ResilienceReport:
    """The tabulated result of one scenario ensemble.

    ``space`` and ``workload`` are the serialized inputs (for provenance
    and re-runs); ``sample`` records the subsample request (``None`` for a
    full-factorial run).  All aggregate tables are derived from
    ``outcomes`` at serialization time, so the report cannot drift from
    its own data.
    """

    space: Dict[str, Any]
    workload: Dict[str, Any]
    outcomes: List[ScenarioOutcome]
    sample: Optional[Dict[str, int]] = None
    extra: Dict[str, Any] = field(default_factory=dict)

    # -- aggregation ----------------------------------------------------

    def outcome_counts(self) -> Dict[str, int]:
        """Ensemble-wide scenario count per outcome class."""
        counts = {outcome: 0 for outcome in OUTCOMES}
        for result in self.outcomes:
            counts[result.outcome] = counts.get(result.outcome, 0) + 1
        return counts

    def by_engine_and_kind(self) -> Dict[str, Dict[str, Dict[str, int]]]:
        """Nested counts: engine → fault kind → outcome class."""
        table: Dict[str, Dict[str, Dict[str, int]]] = {}
        for result in self.outcomes:
            engine = result.scenario.engine
            kind = result.scenario.kind
            cell = table.setdefault(engine, {}).setdefault(
                kind, {outcome: 0 for outcome in OUTCOMES}
            )
            cell[result.outcome] = cell.get(result.outcome, 0) + 1
        return table

    def availability(self) -> Dict[str, Dict[str, float]]:
        """Per-engine availability ratios.

        ``no_lost_work`` — fraction of scenarios where no completed
        presentation had to be redone (resumed bit-identically or degraded
        in place); ``recovered`` — fraction that reached a contractual
        final state at all (everything but ``UNRECOVERED``).
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
        if not self.outcomes:
            return {
                "work_lost": 0,
                "work_lost_scenario": None,
                "checkpoint_bytes": 0,
                "hops": 0,
            }
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
        """Contract violations: any ``UNRECOVERED`` scenario, and any
        scenario whose engine contract promises bit-identity but whose
        observed recovery diverged.  Empty list = the gate passes."""
        problems: List[str] = []
        for result in self.outcomes:
            sid = result.scenario.scenario_id
            if result.outcome == OUTCOME_UNRECOVERED:
                problems.append(f"{sid}: UNRECOVERED ({result.detail})")
            elif result.expected_exact and not result.bit_identical:
                problems.append(
                    f"{sid}: contract promises bit-identical recovery but "
                    f"the observed state diverged"
                )
        return problems

    # -- serialization --------------------------------------------------

    def to_dict(self, timings: bool = False) -> Dict[str, Any]:
        return {
            "kind": REPORT_KIND,
            "schema_version": REPORT_VERSION,
            "space": self.space,
            "workload": self.workload,
            "sample": self.sample,
            "n_scenarios": len(self.outcomes),
            "outcome_counts": self.outcome_counts(),
            "by_engine": self.by_engine_and_kind(),
            "availability": self.availability(),
            "worst_case": self.worst_case(),
            "outcomes": [r.to_dict(timings=timings) for r in self.outcomes],
            **self.extra,
        }

    def to_json(self, timings: bool = False) -> str:
        """Canonical JSON: sorted keys, trailing newline, no wall clock."""
        return json.dumps(self.to_dict(timings=timings), indent=2, sort_keys=True) + "\n"

    def save(self, path: Union[str, Path], timings: bool = False) -> None:
        Path(path).write_text(self.to_json(timings=timings))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ResilienceReport":
        """Rebuild from :meth:`to_dict` output (tolerant loading).

        Unknown top-level keys are preserved in ``extra``; aggregate
        tables are recomputed from the outcomes rather than trusted.
        """
        if not isinstance(payload, dict) or "outcomes" not in payload:
            raise CheckpointError(
                "resilience report payload is missing the 'outcomes' list"
            )
        version = payload.get("schema_version")
        if not isinstance(version, int) or version < 1:
            raise CheckpointError(
                f"resilience report has no usable schema version "
                f"(got {version!r}); this build writes version "
                f"{REPORT_VERSION} and reads any version >= 1"
            )
        known = {
            "kind",
            "schema_version",
            "space",
            "workload",
            "sample",
            "n_scenarios",
            "outcome_counts",
            "by_engine",
            "availability",
            "worst_case",
            "outcomes",
        }
        return cls(
            space=dict(payload.get("space", {})),
            workload=dict(payload.get("workload", {})),
            outcomes=[
                ScenarioOutcome.from_dict(entry) for entry in payload["outcomes"]
            ],
            sample=payload.get("sample"),
            extra={k: v for k, v in payload.items() if k not in known},
        )

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ResilienceReport":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointError(
                f"resilience report {path} is unreadable or not valid JSON: {exc}"
            ) from exc
        return cls.from_dict(payload)

    # -- human-facing summary -------------------------------------------

    def markdown(self) -> str:
        """The Markdown summary ``scripts/make_report.py`` embeds."""
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
