"""Project-specific static analysis: the determinism & numerics linter.

``python -m repro lint`` enforces the conventions the engine registry's
equivalence tiers depend on.  Bit-identity between the reference, fused and
qfused execution paths only holds when every random draw flows through an
explicitly seeded :class:`~repro.engine.rng.RngStreams` stream and every hot
buffer has a pinned dtype — properties a test suite can only sample, but an
AST walk can prove for the whole tree.  Every run applies every rule:

- **R1** — no seedless or module-level ``np.random`` construction outside
  ``engine/rng.py``; randomness must come from ``RngStreams`` or an
  explicitly seeded, caller-supplied ``Generator``.
- **R2** — dtype discipline in engine/quantization hot paths: array
  allocations need an explicit ``dtype`` and one expression must not mix
  float32 with float64.
- **R3** — engine-registry conformance: every :class:`EngineSpec` factory
  resolves, the class satisfies the :class:`PresentationEngine` protocol
  and declared capabilities match implemented methods (import/inspect only,
  no simulation).
- **R4** — no mutable default arguments; parameters defaulting to ``None``
  must be annotated ``Optional``.
- **R5** — exception hygiene: no bare or blanket ``except`` outside the
  resilience package.
- **R7**, **R8**, **R9** — the interprocedural dataflow passes of
  :mod:`repro.lint.flow`: integer-width flow for Q-format codes,
  device-residency flow to host-only sinks, and RNG-stream provenance
  against the ``engine/rng.py`` manifest.
- **W0** — suppressions that no longer suppress anything.

A finding can be suppressed in place with a ``# lint-ok`` comment (all
rules) or ``# lint-ok: R1`` (specific rules) on the offending line.
"""

from repro.lint.contracts import check_engine_contracts
from repro.lint.findings import (
    REPORT_SCHEMA_VERSION,
    RULE_DESCRIPTIONS,
    Finding,
    LintReport,
)
from repro.lint.rules import check_module
from repro.lint.runner import iter_source_files, lint_paths, lint_source

__all__ = [
    "Finding",
    "LintReport",
    "REPORT_SCHEMA_VERSION",
    "RULE_DESCRIPTIONS",
    "check_engine_contracts",
    "check_module",
    "iter_source_files",
    "lint_paths",
    "lint_source",
]
