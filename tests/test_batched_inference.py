"""Tests for the image-parallel batched inference engine."""

import itertools
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from repro.config.presets import get_preset
from repro.engine.batched import BatchedInference
from repro.errors import ConfigurationError, SimulationError
from repro.io.checkpoint import save_checkpoint
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer


@pytest.fixture
def trained(tiny_config, tiny_dataset):
    net = WTANetwork(tiny_config, 64)
    UnsupervisedTrainer(net).train(tiny_dataset.train_images[:10])
    return net


class TestCorrectness:
    def test_shapes(self, trained, tiny_dataset):
        counts = BatchedInference(trained).collect_responses(
            tiny_dataset.test_images[:6], rng=np.random.default_rng(0)
        )
        assert counts.shape == (6, 8)
        assert counts.dtype == np.int64
        assert (counts >= 0).all()

    def test_single_image_2d_input(self, trained, tiny_dataset):
        counts = BatchedInference(trained).collect_responses(
            tiny_dataset.test_images[0], rng=np.random.default_rng(0)
        )
        assert counts.shape == (1, 8)

    def test_deterministic_given_rng(self, trained, tiny_dataset):
        a = BatchedInference(trained).collect_responses(
            tiny_dataset.test_images[:4], rng=np.random.default_rng(7)
        )
        b = BatchedInference(trained).collect_responses(
            tiny_dataset.test_images[:4], rng=np.random.default_rng(7)
        )
        assert np.array_equal(a, b)

    def test_batch_rows_independent(self, trained, tiny_dataset):
        """An image's response must not depend on its batch neighbours.

        A blank image must stay silent even when batched with bright ones
        (cross-row leakage would excite it), and bright rows must spike.
        """
        bright = tiny_dataset.test_images[:3]
        blank = np.zeros((1,) + bright.shape[1:], dtype=bright.dtype)
        batch = np.concatenate([blank, bright])
        counts = BatchedInference(trained).collect_responses(
            batch, t_present_ms=200.0, rng=np.random.default_rng(3)
        )
        # Blank row: only f_min-rate background drive, far below the bright rows.
        assert counts[0].sum() <= counts[1:].sum(axis=1).min()

    def test_statistical_agreement_with_sequential(self, trained, tiny_dataset):
        """Batched responses are statistically equivalent to sequential ones.

        The WTA winner races are intrinsically stochastic (two sequential
        runs with different input-spike draws agree only partially with each
        other), so the criterion is aggregate: total activity in the same
        ballpark and the population's overall response profile correlated.
        """
        images = tiny_dataset.test_images[:10]
        sequential = Evaluator(trained, t_present_ms=150.0).collect_responses(images)
        batched = BatchedInference(trained).collect_responses(
            images, t_present_ms=150.0, rng=np.random.default_rng(0)
        )
        assert batched.sum() == pytest.approx(sequential.sum(), rel=0.5)
        seq_profile = sequential.sum(axis=0).astype(float)
        bat_profile = batched.sum(axis=0).astype(float)
        if seq_profile.std() > 0 and bat_profile.std() > 0:
            corr = np.corrcoef(seq_profile, bat_profile)[0, 1]
            assert corr > 0.3

    def test_single_winner_respected(self, trained, tiny_dataset):
        """With single_winner the per-step winner cap bounds total counts."""
        steps = 50
        counts = BatchedInference(trained).collect_responses(
            tiny_dataset.test_images[:4], t_present_ms=float(steps),
            rng=np.random.default_rng(0),
        )
        assert (counts.sum(axis=1) <= steps).all()

    def test_wrong_pixel_count_rejected(self, trained):
        with pytest.raises(SimulationError):
            BatchedInference(trained).collect_responses(np.zeros((2, 5, 5)))


class TestPerformance:
    def test_faster_than_sequential(self, trained, tiny_dataset):
        images = np.repeat(tiny_dataset.test_images[:10], 3, axis=0)  # 30 images
        t0 = time.perf_counter()
        Evaluator(trained, t_present_ms=100.0).collect_responses(images)
        sequential_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        BatchedInference(trained).collect_responses(
            images, t_present_ms=100.0, rng=np.random.default_rng(0)
        )
        batched_s = time.perf_counter() - t0
        assert batched_s < sequential_s


class TestFreshWeights:
    """Regression: the engine must serve the network's *current* learned state.

    An earlier revision captured ``network.conductances`` and ``theta`` at
    construction time; any later training or weight overwrite that replaced
    the underlying buffers left the engine silently answering from stale
    weights.  ``collect_responses`` now re-reads both at call time.
    """

    def test_engine_sees_weights_changed_after_construction(
        self, trained, tiny_dataset
    ):
        engine = BatchedInference(trained)  # built *before* the change
        images = tiny_dataset.test_images[:5]
        before = engine.collect_responses(images, rng=np.random.default_rng(5))

        # Overwrite the learned weights through the public API.
        trained.synapses.set_conductances(
            np.full((trained.n_pixels, trained.config.wta.n_neurons), trained.synapses.g_max)
        )

        after = engine.collect_responses(images, rng=np.random.default_rng(5))
        fresh = BatchedInference(trained).collect_responses(
            images, rng=np.random.default_rng(5)
        )
        assert np.array_equal(after, fresh)
        # Saturated weights drive far more strongly than the learned ones.
        assert not np.array_equal(before, after)

    def test_engine_sees_continued_training(self, trained, tiny_dataset):
        engine = BatchedInference(trained)
        images = tiny_dataset.test_images[:5]
        engine.collect_responses(images, rng=np.random.default_rng(5))

        UnsupervisedTrainer(trained).train(tiny_dataset.train_images[10:20])

        after = engine.collect_responses(images, rng=np.random.default_rng(5))
        fresh = BatchedInference(trained).collect_responses(
            images, rng=np.random.default_rng(5)
        )
        assert np.array_equal(after, fresh)


class TestEvaluatorIntegration:
    def test_batched_flag(self, trained, tiny_dataset):
        ev = Evaluator(trained, t_present_ms=100.0, engine="batched")
        counts = ev.collect_responses(tiny_dataset.test_images[:5])
        assert counts.shape == (5, 8)

    def test_batched_evaluate_protocol(self, trained, tiny_dataset):
        ev = Evaluator(trained, n_classes=10, t_present_ms=100.0, engine="batched")
        result = ev.evaluate(
            tiny_dataset.test_images[:10],
            tiny_dataset.test_labels[:10],
            tiny_dataset.test_images[10:],
            tiny_dataset.test_labels[10:],
        )
        assert 0.0 <= result.accuracy <= 1.0


def _decided_config(strength, t_inh_ms, amplitude, single_winner, refractory_ms):
    """8bit, 20 neurons, 8x8 input, and rates of 0 or 1 spike per 1 ms step."""
    config = get_preset("8bit", n_neurons=20, seed=0)
    return replace(
        config,
        wta=replace(
            config.wta,
            inhibition_strength=strength,
            t_inh_ms=t_inh_ms,
            input_spike_amplitude=amplitude,
            single_winner=single_winner,
        ),
        lif=replace(config.lif, refractory_ms=refractory_ms),
        encoding=replace(config.encoding, f_min_hz=0.0, f_max_hz=1000.0),
    )


class TestMatchesReferenceOnDecidedInput:
    """With every input draw decided, ``batched`` must equal ``reference``.

    Pixels of 0 or 255 at ``f_min_hz=0``, ``f_max_hz=1000`` and dt = 1 ms
    give spike probabilities of exactly 0 or 1, so the batched engines and
    the reference loop see the same input spikes although they draw from
    different streams.  Q1.7 conductance sums are exact in any order, so
    every response must then match bit for bit — including how long the
    WTA losers stay inhibited (the reference inhibits them after the
    per-step timer decrement, for the full ``t_inh``).
    """

    @pytest.mark.parametrize("engine", ["batched", "qbatched"])
    @pytest.mark.parametrize("strength", [0.0, 8.0], ids=["hard", "subtractive"])
    @pytest.mark.parametrize("t_inh_ms", [5.0, 50.0])
    def test_responses_equal_reference(self, engine, strength, t_inh_ms):
        images = (np.random.default_rng(1).random((4, 8, 8)) < 0.3) * 255.0
        mismatches = []
        for amplitude, single_winner, refractory_ms in itertools.product(
            (0.002, 0.03), (True, False), (2.0, t_inh_ms)
        ):
            config = _decided_config(
                strength, t_inh_ms, amplitude, single_winner, refractory_ms
            )
            net = WTANetwork(config, 64)
            expected = Evaluator(net, engine="reference").collect_responses(images)
            got = Evaluator(net, engine=engine).collect_responses(images)
            if not np.array_equal(got, expected):
                mismatches.append(
                    (amplitude, single_winner, refractory_ms,
                     expected.sum(axis=1).tolist(), got.sum(axis=1).tolist())
                )
        assert mismatches == []


class TestPeriodicEncodingRejected:
    """The batched engines draw Bernoulli trains, so periodic configs are refused."""

    @staticmethod
    def _periodic(config):
        return replace(config, encoding=replace(config.encoding, kind="periodic"))

    @pytest.mark.parametrize("engine", ["batched", "qbatched"])
    def test_evaluator_raises(self, engine, tiny_dataset):
        config = self._periodic(get_preset("8bit", n_neurons=6, seed=0))
        net = WTANetwork(config, 64)
        with pytest.raises(ConfigurationError, match="'fused'.*'qfused'"):
            Evaluator(net, engine=engine).collect_responses(tiny_dataset.test_images[:2])

    def test_exact_evaluator_still_serves_periodic_configs(self, tiny_config, tiny_dataset):
        net = WTANetwork(self._periodic(tiny_config), 64)
        responses = Evaluator(net, engine="fused").collect_responses(
            tiny_dataset.test_images[:2]
        )
        assert responses.shape == (2, 8)

    def test_cli_evaluate_exits_1_with_the_error(self, tiny_config, tmp_path):
        path = tmp_path / "periodic.npz"
        save_checkpoint(path, WTANetwork(self._periodic(tiny_config), 64))
        done = subprocess.run(
            [sys.executable, "-m", "repro", "evaluate", str(path),
             "--n-test", "6", "--n-labeling", "2", "--size", "8",
             "--engine", "batched"],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 1
        assert "encoding.kind='periodic'" in done.stderr
        assert "'fused'" in done.stderr
