#!/usr/bin/env python
"""Assemble all benchmark result blocks into one report file.

Usage::

    python scripts/make_report.py [--results benchmarks/results]
                                  [--out REPRODUCTION_REPORT.md]

Each bench writes its table(s) to ``benchmarks/results/<name>.md``; this
script stitches them into a single document ordered by paper item, with a
table of contents — handy for sharing a full reproduction run.
"""

from __future__ import annotations

import argparse
from datetime import datetime, timezone
from pathlib import Path

#: Presentation order: paper items first, extras after.
SECTION_ORDER = [
    ("fig1a_fi_curve", "Fig. 1a — LIF f-I curve"),
    ("fig1c_stdp_probabilities", "Fig. 1b/c — stochastic STDP probabilities"),
    ("fig1d_intensity_frequency", "Fig. 1d — rate coding"),
    ("table1_presets", "Table I — learning-option parameters"),
    ("fig4_engine_comparison", "Fig. 4 — engine validation & performance"),
    ("fig5a_maps_mnist", "Fig. 5a — conductance maps (MNIST)"),
    ("fig5a_maps_fashion", "Fig. 5a — conductance maps (Fashion)"),
    ("fig5b_frequency_maps", "Fig. 5b — frequency effect on maps"),
    ("fig6a_rasters", "Fig. 6a — input rasters"),
    ("fig6b_q17_distribution", "Fig. 6b — Q1.7 conductance distribution"),
    ("fig7_frequency_sweep", "Fig. 7 — frequency sweep"),
    ("table2_precision_grid", "Table II — precision grid"),
    ("table2_rounding_options", "Table II — rounding options"),
    ("fig8_summary", "Fig. 8 — summary"),
    ("seed_study_float", "Seed study — IV-B comparison"),
    ("robustness_corruption", "Robustness — input corruption"),
    ("ablation_homeostasis", "Ablation — homeostasis"),
    ("ablation_ltd_mode", "Ablation — LTD schedule"),
    ("ablation_encoder", "Ablation — encoder kind"),
    ("ablation_t_inh", "Ablation — inhibition duration"),
    ("ablation_single_winner", "Ablation — winner arbitration"),
    ("ablation_synapse_model", "Ablation — synapse model"),
    ("engine_batched_speedup", "Engine — batched inference"),
    ("engine_event_driven_oracle", "Engine — event-driven oracle"),
]


def build_report(results_dir: Path) -> str:
    known = {name for name, _ in SECTION_ORDER}
    sections = []
    toc = []
    for name, title in SECTION_ORDER:
        path = results_dir / f"{name}.md"
        if path.exists():
            toc.append(f"- {title}")
            sections.append(f"## {title}\n\n{path.read_text().strip()}")
    # Anything a new bench wrote that this script does not know yet.
    for path in sorted(results_dir.glob("*.md")):
        if path.stem not in known:
            toc.append(f"- (extra) {path.stem}")
            sections.append(f"## {path.stem}\n\n{path.read_text().strip()}")

    stamp = datetime.now(timezone.utc).strftime("%Y-%m-%d %H:%M UTC")
    header = (
        "# Reproduction report — ParallelSpikeSim (DATE 2019)\n\n"
        f"Generated {stamp} from `benchmarks/results/`.  See EXPERIMENTS.md "
        "for the paper-vs-measured discussion.\n\n" + "\n".join(toc)
    )
    return header + "\n\n" + "\n\n".join(sections) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--results", default="benchmarks/results")
    parser.add_argument("--out", default="REPRODUCTION_REPORT.md")
    args = parser.parse_args(argv)

    results_dir = Path(args.results)
    if not results_dir.is_dir():
        print(f"error: no results directory at {results_dir} "
              "(run `pytest benchmarks/ --benchmark-only` first)")
        return 1
    report = build_report(results_dir)
    Path(args.out).write_text(report)
    print(f"wrote {args.out} ({len(report.splitlines())} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
