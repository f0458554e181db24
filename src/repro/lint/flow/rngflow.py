"""R9 — RNG-stream provenance: draws audited against the rng.py manifest.

Bit-identity across engine tiers (the ``fused``-vs-``reference`` and
``qfused``-vs-``reference`` equivalence claims) and between runs of one
configuration holds only if every named ``RngStreams`` stream is drawn by
exactly the documented call sites.  An undeclared draw shifts a stream
for every later consumer, and no equivalence test fails when both sides
of the comparison make it.  The ground truth is declared as module-level
literals in ``engine/rng.py`` itself — parsed from the AST by
:mod:`repro.lint.flow.summary`, never imported, so fixture corpora can
carry their own manifest:

- ``STREAM_NAMES``      the spawn-ordered stream tuple (already present);
- ``STREAM_CONSUMERS``  stream -> list of module-path suffixes allowed to
  draw it (``"batched_eval"`` covers the salted pseudo-stream);
- ``RESERVED_STREAMS``  stream -> one-line justification for a stream
  that is intentionally unconsumed (spawn-prefix stability forbids
  removing an entry that other streams follow in ``STREAM_NAMES``).

Checks, all emitted as R9:

1. a site draws a stream not in ``STREAM_NAMES`` (typo'd name);
2. a site's module is absent from the stream's consumer list;
3. a stream has consumers but no ``STREAM_CONSUMERS`` entry;
4. a declared consumer module never actually draws the stream
   (manifest rot);
5. a stream with no sites at all and no ``RESERVED_STREAMS`` entry
   (dead stream).

Sites with non-constant stream names (``rngs.get(variable)``) are
invisible — an accepted, documented soundness limit.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.lint.findings import Finding
from repro.lint.flow.summary import ModuleSummary, RngSite

#: The pseudo-stream drawn by ``RngStreams.batched_eval``.
BATCHED_EVAL = "batched_eval"

#: Path suffix identifying the manifest module.
MANIFEST_SUFFIX = "engine/rng.py"


def _find_manifest(corpus: Dict[str, ModuleSummary]) -> Optional[ModuleSummary]:
    for path in sorted(corpus):
        if path.endswith(MANIFEST_SUFFIX):
            return corpus[path]
    return None


def _module_matches(path: str, suffix: str) -> bool:
    return path == suffix or path.endswith("/" + suffix) or path.endswith(suffix)


def check_rng_provenance(corpus: Dict[str, ModuleSummary]) -> List[Finding]:
    """Run R9 over one whole-program corpus."""
    manifest = _find_manifest(corpus)
    if manifest is None:
        return []
    decls = manifest.declarations
    if "STREAM_NAMES" not in decls:
        return []

    stream_names = list(decls["STREAM_NAMES"]["value"])
    names_line = decls["STREAM_NAMES"]["line"]
    consumers_decl = decls.get("STREAM_CONSUMERS", {"value": {}, "line": names_line})
    consumers: Dict[str, List[str]] = dict(consumers_decl["value"])
    consumers_line = consumers_decl["line"]
    reserved_names = set(decls.get("RESERVED_STREAMS", {"value": {}})["value"])

    known = set(stream_names) | {BATCHED_EVAL}
    findings: List[Finding] = []

    def add(path: str, line: int, col: int, message: str) -> None:
        findings.append(
            Finding(rule="R9", path=path, line=line, col=col, message=message)
        )

    # Collect consumption sites outside the manifest module itself.
    sites: List[Tuple[str, RngSite]] = []
    for path in sorted(corpus):
        if path.endswith(MANIFEST_SUFFIX):
            continue
        for site in corpus[path].rng_sites:
            sites.append((path, site))

    drawn_by_stream: Dict[str, List[Tuple[str, RngSite]]] = {}
    for path, site in sites:
        drawn_by_stream.setdefault(site.stream, []).append((path, site))

    # 1 + 2: per-site checks.
    for path, site in sites:
        if site.stream not in known:
            add(
                path, site.line, site.col,
                f"draw from undeclared RNG stream '{site.stream}' "
                f"(known streams: {', '.join(sorted(known))})",
            )
            continue
        allowed = consumers.get(site.stream)
        if allowed is None:
            continue  # reported once as an unmapped stream below
        if not any(_module_matches(path, suffix) for suffix in allowed):
            add(
                path, site.line, site.col,
                f"module is not a declared consumer of RNG stream "
                f"'{site.stream}' (declared: {', '.join(allowed) or 'none'}); "
                "update STREAM_CONSUMERS in engine/rng.py or drop the draw",
            )

    # 3: streams with live sites but no consumer declaration.
    for stream in sorted(drawn_by_stream):
        if stream in known and stream not in consumers:
            add(
                manifest.path, consumers_line, 1,
                f"RNG stream '{stream}' is drawn but has no STREAM_CONSUMERS "
                "entry in engine/rng.py",
            )

    # 4: declared consumers that never draw (manifest rot).  Only checked
    # for modules actually present in the analyzed corpus, so scoped runs
    # do not fabricate rot.
    for stream in sorted(consumers):
        for suffix in consumers[stream]:
            matching = [p for p in sorted(corpus) if _module_matches(p, suffix)]
            if not matching:
                continue
            if not any(
                _module_matches(p, suffix)
                for p, s in drawn_by_stream.get(stream, [])
            ):
                add(
                    manifest.path, consumers_line, 1,
                    f"STREAM_CONSUMERS declares '{suffix}' as a consumer of "
                    f"'{stream}' but no draw site was found there",
                )

    # 5: dead streams.
    for stream in stream_names:
        if stream in drawn_by_stream or stream in reserved_names:
            continue
        add(
            manifest.path, names_line, 1,
            f"RNG stream '{stream}' has no consumers and no RESERVED_STREAMS "
            "justification (dead stream; spawn-prefix stability forbids "
            "removal — reserve it instead)",
        )

    return sorted(findings, key=Finding.sort_key)
