"""Finding records and the versioned machine-readable lint report.

The JSON layout (``LintReport.as_dict``) is a stable contract: CI uploads
it as an artifact and downstream tooling parses it, so the schema carries
an explicit version that must be bumped on any incompatible change.  The
test suite pins the schema (``tests/test_lint.py``).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

#: Bump on any incompatible change to :meth:`LintReport.as_dict`.
#: v2: findings carry ``severity``; the report gains ``flow`` and
#: ``baseline`` sections and a ``by_severity`` summary; rules R7-R9 and
#: the W0 warning join the rule table.  v3: every rule always runs, so
#: the ``flow`` section (with its cache counters) and the ``baseline``
#: section leave the report, ``functions_checked`` joins it, and R6
#: leaves the rule table.
REPORT_SCHEMA_VERSION = 3

#: Rule identifiers and the convention each one enforces.
RULE_DESCRIPTIONS: Dict[str, str] = {
    "R1": (
        "randomness must be explicitly seeded: no seedless or module-level "
        "np.random construction outside engine/rng.py, no legacy global-state API"
    ),
    "R2": (
        "dtype discipline in engine/quantization hot paths: array allocations "
        "need an explicit dtype; no float32/float64 mixing in one expression"
    ),
    "R3": (
        "engine-registry conformance: every EngineSpec factory resolves to a "
        "PresentationEngine whose implemented methods match its declared capabilities"
    ),
    "R4": (
        "no mutable default arguments; parameters defaulting to None must be "
        "annotated Optional"
    ),
    "R5": (
        "no bare 'except:' or blanket 'except Exception' outside the "
        "resilience package: catch specific error types; broad catches are "
        "reserved for sanctioned fault-isolation boundaries"
    ),
    "R7": (
        "integer width flow: a uint8/uint16 Q-format code value that is "
        "widened (cast, sum, arithmetic) must pass through a saturating "
        "clip before it is narrowed or stored back into code storage"
    ),
    "R8": (
        "device-residency flow: an Ops-owned array (xp-created or "
        "to_device-uploaded) must never reach the host-only np.asarray "
        "conversion family, directly or through any analyzed call chain; "
        "cross with ops.to_host at the boundary"
    ),
    "R9": (
        "RNG-stream provenance: every named RngStreams draw site must be "
        "declared in the STREAM_CONSUMERS manifest of engine/rng.py; "
        "unknown streams, undeclared or silent consumers and unreserved "
        "dead streams are flagged"
    ),
    "W0": (
        "stale suppression: a '# lint-ok' pragma that suppresses no "
        "finding under the full rule set should be removed"
    ),
}


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    severity: str = "error"  # "error" | "warning" (W0)

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


@dataclass
class LintReport:
    """The outcome of one lint run: findings plus coverage counters."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    #: Functions and methods the flow passes analysed.
    functions_checked: int = 0
    contracts_checked: int = 0

    @property
    def exit_code(self) -> int:
        return 1 if self.findings else 0

    def counts_by_rule(self) -> Dict[str, int]:
        """Findings per rule id; every known rule appears, even at zero."""
        counts = {rule: 0 for rule in RULE_DESCRIPTIONS}
        for finding in self.findings:
            counts[finding.rule] = counts.get(finding.rule, 0) + 1
        return counts

    def counts_by_severity(self) -> Dict[str, int]:
        counts = {"error": 0, "warning": 0}
        for finding in self.findings:
            counts[finding.severity] = counts.get(finding.severity, 0) + 1
        return counts

    def as_dict(self) -> Dict[str, Any]:
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "tool": "repro-lint",
            "rules": dict(RULE_DESCRIPTIONS),
            "files_checked": self.files_checked,
            "functions_checked": self.functions_checked,
            "contracts_checked": self.contracts_checked,
            "summary": {
                "total": len(self.findings),
                "by_rule": self.counts_by_rule(),
                "by_severity": self.counts_by_severity(),
            },
            "findings": [f.as_dict() for f in sorted(self.findings, key=Finding.sort_key)],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    def format_text(self) -> str:
        lines = [f.format() for f in sorted(self.findings, key=Finding.sort_key)]
        scope = (
            f"{self.files_checked} files, {self.functions_checked} functions, "
            f"{self.contracts_checked} registered engine specs"
        )
        if not self.findings:
            lines.append(f"checked {scope}: clean")
        else:
            by_rule = ", ".join(
                f"{rule}={n}" for rule, n in self.counts_by_rule().items() if n
            )
            lines.append(f"checked {scope}: {len(self.findings)} findings ({by_rule})")
        return "\n".join(lines)
