"""Full-matrix passes over the conductances run in row blocks.

Building, quantising, saving, loading and the ``qbatched`` drive process
the ``(n_pre, n_post)`` matrix :data:`ENCODE_BLOCK_ROWS` rows at a time,
with no full-matrix float64 or int64 temporary.  Each test pins a blocked
pass against the whole-matrix formulation it replaced, bit for bit:

- ``quantize_into`` against ``quantize``, including the generator's end
  state (a C-order draw over the matrix is the concatenation of its row
  blocks' draws) and ``values is out``;
- the conductance matrix's initialisation, ``normalize_columns`` and
  ``set_conductances`` against ``quantize`` of the whole matrix;
- the traced allocation peak of ``build_network`` and ``load_checkpoint``
  at the paper's 784 x 1000 size, against 1.5x the float64 matrix;
- v1 checkpoints storing Q-format codes, against old-layout v1 files that
  store float64 ``conductances``, and the loader's rounding-stream draws;
- ``QCodec.batched_drive`` summed over row blocks, against one int64
  matmul, and ``qbatched`` responses against ``batched``.
"""

import json
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from repro.cli import main
from repro.config.parameters import RoundingMode
from repro.config.presets import get_preset
from repro.config.serialize import config_to_dict
from repro.datasets.dataset import load_dataset
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.experiment import build_network
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.quantization import ENCODE_BLOCK_ROWS, QCodec
from repro.quantization.qformat import parse_qformat
from repro.quantization.quantizer import FloatQuantizer, Quantizer
from repro.synapses.conductance import ConductanceMatrix

#: Row counts around the block edges, and the paper's input size.
ROWS = [1, ENCODE_BLOCK_ROWS - 1, ENCODE_BLOCK_ROWS, ENCODE_BLOCK_ROWS + 1, 784]


def _values(rows, cols=7):
    """Off-grid values on both sides of the range, plus non-finite ones."""
    values = np.random.default_rng(rows).uniform(-0.3, 1.4, size=(rows, cols))
    values.flat[:4] = [np.nan, np.inf, -np.inf, -0.0][: values.size]
    return values


# ----------------------------------------------------------------------
# quantize_into
# ----------------------------------------------------------------------


class TestQuantizeInto:
    @staticmethod
    def _check(quantizer, rows, in_place):
        values = _values(rows)
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        out = values if in_place else np.full_like(values, 0.5)
        with np.errstate(invalid="ignore"):  # inf - inf, in both formulations
            want = quantizer.quantize(values, want_rng)
            got = quantizer.quantize_into(values, out, got_rng)
        assert got is out
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("rounding", list(RoundingMode))
    @pytest.mark.parametrize("fmt", ["Q0.2", "Q1.7", "Q1.15"])
    def test_fixed_point_equals_quantize(self, fmt, rounding, rows, in_place):
        self._check(Quantizer(parse_qformat(fmt), rounding), rows, in_place)

    @pytest.mark.parametrize("in_place", [False, True])
    @pytest.mark.parametrize("rows", ROWS)
    def test_float_equals_quantize(self, rows, in_place):
        self._check(FloatQuantizer(), rows, in_place)


# ----------------------------------------------------------------------
# the conductance matrix's full-matrix writes
# ----------------------------------------------------------------------

STOCHASTIC_FORMATS = ["Q1.7", "Q1.15"]


def _stochastic(fmt):
    return Quantizer(parse_qformat(fmt), RoundingMode.STOCHASTIC)


class TestConductanceMatrix:
    @pytest.mark.parametrize("fmt", STOCHASTIC_FORMATS)
    def test_init_equals_quantize_of_the_uniform_draw(self, fmt):
        quantizer = _stochastic(fmt)
        want_rng, got_rng = np.random.default_rng(4), np.random.default_rng(4)
        want = quantizer.quantize(want_rng.uniform(0.2, 0.6, size=(150, 30)), want_rng)
        got = ConductanceMatrix(150, 30, quantizer, 0.2, 0.6, got_rng).g
        assert got.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("fmt", STOCHASTIC_FORMATS)
    def test_normalize_columns_equals_quantize_of_the_rescaled_matrix(self, fmt):
        matrix = ConductanceMatrix(150, 30, _stochastic(fmt), rng=np.random.default_rng(4))
        g = matrix.g.copy()
        sums = g.sum(axis=0)
        scale = np.where(sums > 0.0, 40.0 / np.maximum(sums, 1e-12), 1.0)
        want_rng, got_rng = np.random.default_rng(5), np.random.default_rng(5)
        want = matrix.quantizer.quantize(g * scale, want_rng)
        storage = matrix.g
        matrix.normalize_columns(40.0, got_rng)
        assert matrix.g is storage
        assert matrix.g.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("fmt", STOCHASTIC_FORMATS)
    def test_set_conductances_from_the_storage_itself(self, fmt):
        matrix = ConductanceMatrix(150, 30, _stochastic(fmt), rng=np.random.default_rng(4))
        off_grid = np.random.default_rng(6).uniform(-0.1, 1.1, size=(150, 30))
        want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
        want = matrix.quantizer.quantize(off_grid, want_rng)
        matrix.g[...] = off_grid
        matrix.set_conductances(matrix.g, got_rng)
        assert matrix.g.tobytes() == want.tobytes()
        assert got_rng.bit_generator.state == want_rng.bit_generator.state


# ----------------------------------------------------------------------
# traced allocation peaks at 784 x 1000
# ----------------------------------------------------------------------

#: The float64 conductance matrix at the paper's 784 x 1000 size (6.27 MB).
MATRIX_BYTES = 784 * 1000 * 8
#: A pass may hold the matrix and block-sized work arrays, not a second matrix.
PEAK_BUDGET = 1.5 * MATRIX_BYTES


def _traced_peak(fn):
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


class TestAllocationPeaks:
    @pytest.fixture(params=["8bit", "16bit"])
    def config(self, request):
        return get_preset(request.param, n_neurons=1000, seed=1)

    def test_build_network(self, config):
        build_network(config, 4)  # first-call costs are not the matrix's
        _, peak = _traced_peak(lambda: build_network(config, 784))
        assert peak <= PEAK_BUDGET, f"{peak / 1e6:.1f} MB"

    def test_load_checkpoint(self, config, tmp_path):
        path = tmp_path / "net.npz"
        save_checkpoint(path, build_network(config, 784))
        load_checkpoint(path)
        (network, _), peak = _traced_peak(lambda: load_checkpoint(path))
        assert network.conductances.shape == (784, 1000)
        assert peak <= PEAK_BUDGET, f"{peak / 1e6:.1f} MB"


# ----------------------------------------------------------------------
# v1 checkpoints store codes
# ----------------------------------------------------------------------


def _trained(preset, seed=3):
    config = get_preset(preset, n_neurons=10, seed=seed)
    config = replace(config, simulation=replace(config.simulation, t_learn_ms=60.0))
    network = build_network(config, 64)
    images = load_dataset("mnist", n_train=4, n_test=1, size=8, seed=seed).train_images
    UnsupervisedTrainer(network).train(images)
    return network


def _save_old_layout(path, network, labels):
    """A v1 file as written before codes were stored: float64 conductances."""
    np.savez(
        path,
        magic=np.array("repro-wta-checkpoint-v1"),
        config_json=np.array(json.dumps(config_to_dict(network.config))),
        n_pixels=np.array(network.n_pixels),
        conductances=network.conductances,
        theta=network.neurons.theta,
        neuron_labels=labels,
    )


class TestV1Format:
    @pytest.mark.parametrize("preset, dtype, frac_bits", [
        ("8bit", np.uint8, 7), ("16bit", np.uint16, 15), ("2bit", np.uint8, 2),
    ])
    def test_fixed_point_saves_codes(self, tmp_path, preset, dtype, frac_bits):
        network = _trained(preset)
        path = tmp_path / "net.npz"
        save_checkpoint(path, network)
        with np.load(path) as data:
            assert "conductances" not in data.files
            assert data["g_codes"].dtype == dtype
            assert int(data["g_frac_bits"]) == frac_bits
        restored, _ = load_checkpoint(path)
        assert restored.conductances.tobytes() == network.conductances.tobytes()

    @pytest.mark.parametrize("preset", ["float32", "high_frequency"])
    def test_float_configs_keep_conductances(self, tmp_path, preset):
        network = _trained(preset)
        path = tmp_path / "net.npz"
        save_checkpoint(path, network)
        with np.load(path) as data:
            assert "g_codes" not in data.files
            assert data["conductances"].dtype == np.float64
        restored, _ = load_checkpoint(path)
        assert restored.conductances.tobytes() == network.conductances.tobytes()

    @pytest.mark.parametrize("preset", ["8bit", "16bit", "float32"])
    def test_old_layout_file_loads_bit_identically(self, tmp_path, preset):
        network = _trained(preset)
        labels = np.arange(10) % 3
        old, new = tmp_path / "old.npz", tmp_path / "new.npz"
        _save_old_layout(old, network, labels)
        save_checkpoint(new, network, neuron_labels=labels)
        (from_old, old_labels), (from_new, new_labels) = (
            load_checkpoint(old), load_checkpoint(new)
        )
        for restored in (from_old, from_new):
            assert restored.conductances.tobytes() == network.conductances.tobytes()
            assert restored.neurons.theta.tobytes() == network.neurons.theta.tobytes()
        assert np.array_equal(old_labels, new_labels)
        # Both layouts leave every stream at the same position.
        assert from_old.rngs.state_dict() == from_new.rngs.state_dict()

    def test_load_makes_the_rounding_draws_of_set_conductances(self, tmp_path):
        network = _trained("8bit")
        path = tmp_path / "net.npz"
        save_checkpoint(path, network)
        restored, _ = load_checkpoint(path)
        expected = build_network(network.config, network.n_pixels)
        expected.synapses.set_conductances(network.conductances, expected.rngs.rounding)
        assert restored.rngs.state_dict() == expected.rngs.state_dict()
        assert restored.rngs.state_dict() != build_network(
            network.config, network.n_pixels
        ).rngs.state_dict()

    def test_repro_evaluate_round_trips(self, capsys, tmp_path):
        path = tmp_path / "net.npz"
        assert main(["run", "--n-train", "6", "--n-test", "12", "--n-labeling", "4",
                     "--neurons", "4", "--size", "8", "--epochs", "1", "--quiet",
                     "--preset", "8bit", "--engine", "qfused",
                     "--save", str(path)]) == 0
        with np.load(path) as data:
            assert data["g_codes"].dtype == np.uint8
        network, labels = load_checkpoint(path)
        old = tmp_path / "old.npz"
        _save_old_layout(old, network, labels)
        printed = []
        for checkpoint in (path, old):
            capsys.readouterr()
            assert main(["evaluate", str(checkpoint), "--n-test", "12", "--size", "8"]) == 0
            printed.append(capsys.readouterr().out)
        assert "accuracy on 12 images" in printed[0]
        assert printed[0] == printed[1]


# ----------------------------------------------------------------------
# the qbatched drive
# ----------------------------------------------------------------------


class TestBatchedDrive:
    @pytest.mark.parametrize("rows", ROWS)
    @pytest.mark.parametrize("fmt", ["Q1.7", "Q1.15"])
    def test_block_sums_equal_one_matmul(self, fmt, rows):
        codec = QCodec.from_quantizer(Quantizer(parse_qformat(fmt), RoundingMode.NEAREST))
        rng = np.random.default_rng(rows)
        codes = rng.integers(0, codec.max_code + 1, size=(rows, 30)).astype(codec.dtype)
        spikes = rng.random((10, rows)) < 0.3
        scale = codec.resolution * 0.37
        want = np.multiply(spikes.astype(np.int64) @ codes.astype(np.int64), scale)
        got = codec.batched_drive(spikes, codes, scale)
        assert got.dtype == np.float64
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_images", [6, 10])
    def test_qbatched_responses_equal_batched(self, n_images):
        # 12 x 12 inputs: 144 rows, two full blocks and a partial one.
        config = get_preset("8bit", n_neurons=20, seed=2)
        dataset = load_dataset("mnist", n_train=3, n_test=n_images, size=12, seed=2)
        network = build_network(config, dataset.n_pixels)
        UnsupervisedTrainer(network).train(dataset.train_images, engine="qfused")
        network.freeze()
        responses = {
            engine: Evaluator(network, t_present_ms=100.0, engine=engine)
            .collect_responses(dataset.test_images)
            for engine in ("batched", "qbatched")
        }
        assert responses["qbatched"].shape == (n_images, 20)
        assert responses["qbatched"].sum() > 0
        assert np.array_equal(responses["qbatched"], responses["batched"])
