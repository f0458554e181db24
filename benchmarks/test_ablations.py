"""Ablations of the design choices DESIGN.md calls out.

Each ablation flips one mechanism and measures the end-to-end effect on the
standard scaled MNIST run:

- adaptive-threshold homeostasis on/off (WTA feature diversity);
- post-event vs pair-based LTD scheduling for the stochastic rule;
- Poisson vs strictly periodic input spike trains;
- WTA inhibition duration sweep;
- single-winner tie arbitration on/off.
"""

from dataclasses import replace

from benchmarks.conftest import publish, scaled_preset
from repro.analysis.conductance_maps import population_selectivity
from repro.analysis.report import format_table
from repro.config.parameters import AdaptiveThresholdParameters
from repro.learning.stochastic import LTDMode
from repro.pipeline.experiment import run_experiment


def _run(cfg, dataset, scale, **kwargs):
    return run_experiment(cfg, dataset, n_labeling=scale.n_labeling, epochs=scale.epochs, **kwargs)


def test_ablation_homeostasis(benchmark, scale, mnist):
    base = scaled_preset("float32", scale)
    off = replace(
        base, wta=replace(base.wta, adaptive_threshold=AdaptiveThresholdParameters(enabled=False))
    )
    with_theta = _run(base, mnist, scale)
    without_theta = _run(off, mnist, scale)
    rows = [
        ["adaptive threshold ON", with_theta.accuracy, with_theta.evaluation.labeled_fraction],
        ["adaptive threshold OFF", without_theta.accuracy, without_theta.evaluation.labeled_fraction],
    ]
    publish(
        "ablation_homeostasis",
        format_table(
            ["variant", "accuracy", "labeled fraction"],
            rows,
            title="Ablation: homeostatic adaptive threshold (WTA diversity)",
        ),
    )
    # Without homeostasis a few neurons hog the WTA and fewer get labeled.
    assert without_theta.evaluation.labeled_fraction <= with_theta.evaluation.labeled_fraction + 0.1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_ltd_mode(benchmark, scale, mnist):
    base = scaled_preset("float32", scale)
    rows = []
    for mode in (LTDMode.POST_EVENT, LTDMode.PAIR, LTDMode.BOTH):
        cfg = replace(base, stochastic_stdp=replace(base.stochastic_stdp, ltd_mode=mode))
        result = _run(cfg, mnist, scale)
        rows.append(
            [mode.value, result.accuracy, float(population_selectivity(result.conductances))]
        )
    publish(
        "ablation_ltd_mode",
        format_table(
            ["LTD schedule", "accuracy", "selectivity"],
            rows,
            title=(
                "Ablation: stochastic-STDP depression schedule — pair-only LTD "
                "cannot depress silent afferents, weakening contrast"
            ),
        ),
    )
    accs = {row[0]: row[1] for row in rows}
    assert accs["post_event"] >= accs["pair"] - 0.1
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_encoder_kind(benchmark, scale, mnist):
    base = scaled_preset("float32", scale)
    rows = []
    for kind in ("poisson", "periodic"):
        cfg = replace(base, encoding=replace(base.encoding, kind=kind))
        result = _run(cfg, mnist, scale)
        rows.append([kind, result.accuracy])
    publish(
        "ablation_encoder",
        format_table(
            ["spike-train encoder", "accuracy"],
            rows,
            title="Ablation: Poisson vs strictly periodic input spike trains",
        ),
    )
    assert all(row[1] > 0.1 for row in rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_inhibition_duration(benchmark, scale, mnist):
    base = scaled_preset("float32", scale)
    rows = []
    for t_inh in (0.0, 10.0, 50.0, 200.0):
        cfg = replace(base, wta=replace(base.wta, t_inh_ms=t_inh))
        result = _run(cfg, mnist, scale)
        rows.append([t_inh, result.accuracy])
    publish(
        "ablation_t_inh",
        format_table(
            ["t_inh (ms)", "accuracy"],
            rows,
            title="Ablation: WTA inhibition duration",
        ),
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_single_winner(benchmark, scale, mnist):
    base = scaled_preset("float32", scale)
    multi = replace(base, wta=replace(base.wta, single_winner=False))
    strict = _run(base, mnist, scale)
    loose = _run(multi, mnist, scale)
    rows = [
        ["single winner per step", strict.accuracy, float(population_selectivity(strict.conductances))],
        ["simultaneous winners allowed", loose.accuracy, float(population_selectivity(loose.conductances))],
    ]
    publish(
        "ablation_single_winner",
        format_table(
            ["variant", "accuracy", "selectivity"],
            rows,
            title=(
                "Ablation: same-step tie arbitration (the paper's 'preventing "
                "more than one neuron to learn one specific pattern')"
            ),
        ),
    )
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_ablation_synapse_model(benchmark, scale, mnist):
    base = scaled_preset("float32", scale)
    rows = []
    for model in ("current", "conductance"):
        cfg = replace(base, wta=replace(base.wta, synapse_model=model))
        result = _run(cfg, mnist, scale)
        rows.append([model, result.accuracy])
    publish(
        "ablation_synapse_model",
        format_table(
            ["synaptic transmission", "accuracy"],
            rows,
            title="Ablation: current-based vs conductance-based synapses",
        ),
    )
    assert all(row[1] > 0.1 for row in rows)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
