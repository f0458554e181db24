"""Interprocedural dataflow analysis: rules R7, R8 and R9.

The syntactic rules (:mod:`repro.lint.rules`) prove single-statement
properties; this package proves *flow* properties across call chains.  It
works in two phases:

1. **Extraction** (:mod:`repro.lint.flow.summary`) lowers each module's AST
   into a compact :class:`ModuleSummary`: per-function statement IR
   restricted to the facts the lattices care about, call sites with
   best-effort callee references, RNG-stream consumption sites, and the
   module-level declarations the R9 pass reads from ``engine/rng.py``.

2. **Propagation** (:mod:`repro.lint.flow.width`, ``residency``,
   ``rngflow``) runs whole-program fixpoints over the summaries:

   - **R7** (integer width): uint8/uint16 Q-format code values are traced
     through widening arithmetic; a widened value stored back into narrow
     code storage — or re-narrowed with ``astype`` — without passing
     through a saturating ``clip`` is flagged.
   - **R8** (device residency): ``Ops``-owned (``xp``-created or
     ``to_device``-uploaded) arrays are traced through calls; reaching a
     host-only conversion (``np.asarray`` and friends, which silently strip
     residency — the guard backend's documented blind spot) is flagged,
     directly or through any chain of analyzed helper functions.
   - **R9** (RNG-stream provenance): every named ``RngStreams`` consumer
     site is checked against the ``STREAM_CONSUMERS`` manifest declared in
     ``engine/rng.py``; undeclared consumers, unknown stream names and
     dead streams are flagged.

Soundness limits are documented in DESIGN.md: the analysis is
flow-insensitive within a function (values join across branches), method
calls resolve by attribute name against the analyzed corpus, and dynamic
dispatch/reflection are invisible.  It over-approximates where cheap
(may-analysis: a value that is narrow on *some* path is treated as narrow)
and under-approximates where resolution fails, trading completeness for
zero false positives on the live tree.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.lint.findings import Finding
from repro.lint.flow.residency import check_residency
from repro.lint.flow.rngflow import check_rng_provenance
from repro.lint.flow.summary import ModuleSummary, extract_summary
from repro.lint.flow.width import check_width

__all__ = [
    "ModuleSummary",
    "analyze_flow",
    "extract_summary",
]


def analyze_flow(summaries: Sequence[ModuleSummary]) -> List[Finding]:
    """Run the three interprocedural passes over one module corpus.

    *summaries* is the full set of modules analyzed together (one whole
    program); the passes share nothing but the corpus, so their findings
    are simply concatenated and sorted.
    """
    corpus: Dict[str, ModuleSummary] = {s.path: s for s in summaries}
    findings: List[Finding] = []
    findings.extend(check_width(corpus))
    findings.extend(check_residency(corpus))
    findings.extend(check_rng_provenance(corpus))
    return sorted(findings, key=Finding.sort_key)
