"""Fig. 5 — learned conductance-map visualisation and quality.

(a) baseline (deterministic) vs stochastic STDP on the simple (MNIST
surrogate) and complex (Fashion surrogate) datasets; (b) effect of the
input-frequency window on stochastic-STDP maps.

The paper judges maps visually; this harness prints ASCII maps for the
first neurons and quantifies what the figure shows with two metrics:
per-map contrast (crisp feature vs grey blur) and population selectivity
(do different neurons learn different features, or does everyone learn the
shared blob — the deterministic failure mode on Fashion).
"""

import os

import pytest

from benchmarks.conftest import publish, scaled_preset
from repro.analysis.conductance_maps import (
    ascii_map,
    map_contrast,
    neuron_maps,
    population_selectivity,
)
from repro.analysis.report import format_table
from repro.config.parameters import STDPKind
from repro.encoding.frequency_control import FrequencyControl
from repro.pipeline.experiment import run_experiment


@pytest.mark.parametrize("dataset_name", ["mnist", "fashion"])
def test_fig5a_maps_baseline_vs_stochastic(benchmark, scale, mnist, fashion, dataset_name):
    dataset = mnist if dataset_name == "mnist" else fashion
    results = {}
    for kind in (STDPKind.DETERMINISTIC, STDPKind.STOCHASTIC):
        cfg = scaled_preset("float32", scale, stdp_kind=kind)
        results[kind] = run_experiment(
            cfg, dataset, n_labeling=scale.n_labeling, epochs=scale.epochs, eval_engine="batched"
        )

    rows = []
    art_blocks = []
    for kind, result in results.items():
        g = result.conductances
        rows.append(
            [
                kind.value,
                float(map_contrast(g).mean()),
                float(population_selectivity(g)),
                result.accuracy,
            ]
        )
        maps = neuron_maps(g)
        art = "\n\n".join(
            f"{kind.value} neuron {i}:\n" + ascii_map(maps[i], g_max=float(g.max()))
            for i in range(min(3, maps.shape[0]))
        )
        art_blocks.append(art)

    table = format_table(
        ["STDP", "map contrast", "population selectivity", "accuracy"],
        rows,
        title=f"Fig. 5a ({dataset_name}): learned conductance-map quality",
    )
    publish(f"fig5a_maps_{dataset_name}", table + "\n\n```\n" + "\n\n".join(art_blocks) + "\n```")

    if os.environ.get("REPRO_SAVE_IMAGES"):
        from benchmarks.conftest import RESULTS_DIR
        from repro.analysis.visualization import save_conductance_grid

        for kind, result in results.items():
            save_conductance_grid(
                RESULTS_DIR / f"fig5a_{dataset_name}_{kind.value}.pgm",
                result.conductances,
            )

    for result in results.values():
        assert map_contrast(result.conductances).mean() > 0.1  # features, not flat grey

    benchmark.pedantic(
        lambda: map_contrast(results[STDPKind.STOCHASTIC].conductances),
        rounds=5,
        iterations=1,
    )


def test_fig5b_frequency_effect_on_maps(benchmark, scale, mnist):
    """Stochastic-STDP maps across four frequency windows (Fig. 5b)."""
    base = scaled_preset("float32", scale, stdp_kind=STDPKind.STOCHASTIC)
    control = FrequencyControl(base_encoding=base.encoding, base_simulation=base.simulation)
    rows = []
    for factor in (1.0, 2.0, 3.5, 6.0):
        cfg = control.boosted_config(base, factor)
        result = run_experiment(cfg, mnist, n_labeling=scale.n_labeling, epochs=scale.epochs, eval_engine="batched")
        rows.append(
            [
                f"{cfg.encoding.f_min_hz:g}-{cfg.encoding.f_max_hz:g} Hz",
                cfg.simulation.t_learn_ms,
                float(map_contrast(result.conductances).mean()),
                float(population_selectivity(result.conductances)),
                result.accuracy,
            ]
        )
    publish(
        "fig5b_frequency_maps",
        format_table(
            ["frequency window", "t_learn (ms)", "map contrast", "selectivity", "accuracy"],
            rows,
            title=(
                "Fig. 5b: effect of the input-frequency window on stochastic-STDP "
                "maps (quality degrades gracefully, collapsing only at extreme boosts)"
            ),
        ),
    )
    # The paper's shape: very high boosts drift toward chaotic maps, i.e.
    # accuracy at the most extreme window must not beat the base window.
    assert rows[-1][4] <= rows[0][4] + 0.05

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
