"""Table II — accuracy for rounding options across precisions.

The paper's central quantitative claim: deterministic STDP collapses at low
fixed-point precision (92.2 % float -> 9.6 % at Q0.2) while stochastic STDP
degrades gracefully (96.1 % -> 64.6 %), and bit truncation is the weakest
rounding option while stochastic rounding is strongest at low precision.

The full grid at paper scale takes hours; this bench runs the precision x
STDP-kind grid with stochastic rounding (the paper's headline column) plus
the rounding-option comparison at the lowest and highest fixed-point
precisions for stochastic STDP.
"""

from benchmarks.conftest import publish, scaled_preset
from repro.analysis.report import format_table
from repro.config.parameters import RoundingMode, STDPKind
from repro.pipeline.experiment import run_experiment

#: Paper numbers for reference columns (Table II, stochastic rounding).
PAPER_STOCHASTIC = {"2bit": 64.6, "4bit": 79.0, "8bit": 90.1, "16bit": 94.7, "float32": 96.1}
PAPER_DETERMINISTIC = {"2bit": 16.8, "4bit": 21.3, "8bit": 33.7, "16bit": 55.2, "float32": 92.2}

PRECISIONS = ("float32", "16bit", "8bit", "4bit", "2bit")

#: Epoch multiplier per precision.  The stochastic gate passes a fraction
#: gamma of events (Table I: 0.2 at 2-bit ... 0.9 at 16-bit), so low-gamma
#: options need proportionally more presentations for the same number of
#: effective synaptic updates — the role the paper's 60k-image training set
#: plays.  Both rules get the same budget at a given precision, as in the
#: paper.
_EPOCH_SCALE = {"float32": 1, "16bit": 1, "8bit": 2, "4bit": 3, "2bit": 4}


def _accuracy(preset, scale, dataset, kind, rounding, epochs=None):
    cfg = scaled_preset(preset, scale, stdp_kind=kind, rounding=rounding)
    result = run_experiment(
        cfg, dataset, n_labeling=scale.n_labeling,
        epochs=epochs if epochs is not None else scale.epochs,
        eval_engine="batched",
    )
    return result.accuracy


def test_table2_precision_grid(benchmark, scale, mnist):
    rows = []
    grid = {}
    for preset in PRECISIONS:
        for kind in (STDPKind.STOCHASTIC, STDPKind.DETERMINISTIC):
            epochs = scale.epochs * _EPOCH_SCALE[preset]
            acc = _accuracy(preset, scale, mnist, kind, RoundingMode.STOCHASTIC, epochs)
            grid[(preset, kind)] = acc
            paper = (PAPER_STOCHASTIC if kind is STDPKind.STOCHASTIC else PAPER_DETERMINISTIC)[preset]
            rows.append([preset, kind.value, acc * 100, paper])

    publish(
        "table2_precision_grid",
        format_table(
            ["precision", "STDP", "measured accuracy (%)", "paper accuracy (%)"],
            rows,
            precision=1,
            title=(
                "Table II (precision x STDP kind, stochastic rounding): "
                "deterministic collapses at the lowest precision, stochastic "
                "degrades gracefully"
            ),
        ),
    )

    # Paper shape: at the lowest precision stochastic STDP clearly beats
    # deterministic (64.6 vs 16.8 in the paper).
    assert grid[("2bit", STDPKind.STOCHASTIC)] > grid[("2bit", STDPKind.DETERMINISTIC)]
    # Both rules must be functional at float precision.
    assert grid[("float32", STDPKind.STOCHASTIC)] > 0.3
    assert grid[("float32", STDPKind.DETERMINISTIC)] > 0.3
    # Stochastic STDP's 2-bit accuracy stays well above chance (the
    # abstract's "enables learning even with 2 bits" claim).
    assert grid[("2bit", STDPKind.STOCHASTIC)] > 0.2

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)


def test_table2_rounding_options(benchmark, scale, mnist):
    rows = []
    accs = {}
    for preset in ("2bit", "16bit"):
        for rounding in (RoundingMode.TRUNCATE, RoundingMode.NEAREST, RoundingMode.STOCHASTIC):
            epochs = scale.epochs * _EPOCH_SCALE[preset]
            acc = _accuracy(preset, scale, mnist, STDPKind.STOCHASTIC, rounding, epochs)
            accs[(preset, rounding)] = acc
            rows.append([preset, rounding.value, acc * 100])

    publish(
        "table2_rounding_options",
        format_table(
            ["precision", "rounding", "measured accuracy (%)"],
            rows,
            precision=1,
            title=(
                "Table II (rounding options, stochastic STDP): differences are "
                "largest at the lowest precisions and shrink with bit width"
            ),
        ),
    )
    # All rounding modes must leave a functional learner at 16 bits.
    for rounding in RoundingMode:
        assert accs[("16bit", rounding)] > 0.2

    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
