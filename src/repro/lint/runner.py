"""Walks files, parses them and assembles the :class:`LintReport`.

The runner is what the CLI subcommand calls: it expands file/directory
arguments into a deterministic file list, runs the syntactic rules per
file, the interprocedural R7/R8/R9 passes over the whole file set, the W0
stale-pragma check and the R3 registry-conformance checks.  Findings come
back in one report with stable ordering (sorted by path, line, column,
rule).
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, FrozenSet, List, Optional, Sequence, Union

from repro.errors import ConfigurationError
from repro.lint.contracts import check_engine_contracts
from repro.lint.findings import Finding, LintReport
from repro.lint.flow import analyze_flow, extract_summary
from repro.lint.flow.summary import ModuleSummary
from repro.lint.rules import (
    apply_suppressions,
    check_module,
    check_module_raw,
    suppressed_rules,
)

PathLike = Union[str, Path]


def iter_source_files(paths: Sequence[PathLike]) -> List[Path]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen = set()
    out: List[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            candidates = sorted(path.rglob("*.py"))
        elif path.is_file():
            candidates = [path]
        else:
            raise ConfigurationError(f"lint path {str(raw)!r} does not exist")
        for candidate in candidates:
            if candidate not in seen:
                seen.add(candidate)
                out.append(candidate)
    return out


def _display_path(path: Path) -> str:
    """Stable display form: relative to the working directory when possible."""
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_error(path: str, err: SyntaxError) -> Finding:
    return Finding(
        rule="PARSE",
        path=path,
        line=err.lineno or 1,
        col=err.offset or 1,
        message=f"syntax error: {err.msg}",
    )


def lint_source(source: str, path: str) -> List[Finding]:
    """Syntactic findings for one module given as text (fixture tests use this)."""
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as err:
        return [_parse_error(path, err)]
    return check_module(tree, source, path)


def lint_paths(paths: Sequence[PathLike] = ("src",)) -> LintReport:
    """Lint *paths* (files or directories) and return the full report.

    Every rule runs: the syntactic R1/R2/R4/R5 per file, the flow passes
    R7/R8/R9 over the whole file set (one program), W0 on every pragma the
    full rule set leaves unused, and R3 against every registered engine
    spec (global, not tied to the scanned files, because the registry is
    process-global state).
    """
    files = iter_source_files(paths)
    per_file: Dict[str, List[Finding]] = {}
    pragmas: Dict[str, Dict[int, Optional[FrozenSet[str]]]] = {}
    summaries: List[ModuleSummary] = []
    for path in files:
        display = _display_path(path)
        if display in per_file:
            continue
        source = path.read_text()
        pragmas[display] = suppressed_rules(source)
        try:
            tree = ast.parse(source, filename=display)
        except SyntaxError as err:
            per_file[display] = [_parse_error(display, err)]
            summaries.append(ModuleSummary(path=display))
            continue
        per_file[display] = check_module_raw(tree, display)
        summaries.append(extract_summary(tree, display))

    for finding in analyze_flow(summaries):
        per_file[finding.path].append(finding)

    # Pragma suppression is applied centrally so used pragma lines are
    # known; W0 then flags the pragmas that earned nothing.
    findings: List[Finding] = []
    for display in sorted(per_file):
        kept, used_lines = apply_suppressions(per_file[display], pragmas[display])
        findings.extend(kept)
        findings.extend(
            Finding(
                rule="W0",
                path=display,
                line=line,
                col=1,
                message=(
                    "stale '# lint-ok' pragma: suppresses no finding under "
                    "the full rule set"
                ),
                severity="warning",
            )
            for line in sorted(pragmas[display])
            if line not in used_lines
        )

    from repro.engine.registry import available_engines

    findings.extend(check_engine_contracts())
    return LintReport(
        findings=sorted(findings, key=Finding.sort_key),
        files_checked=len(files),
        functions_checked=sum(len(s.functions) for s in summaries),
        contracts_checked=len(available_engines()),
    )
