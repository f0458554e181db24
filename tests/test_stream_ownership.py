"""Each phase of a run advances only the RNG streams its modules own.

Lint rule R9 checks every draw site against the ``STREAM_CONSUMERS``
manifest of ``engine/rng.py``.  These tests pin the same ownership at run
time, engine by engine.  A stray draw (a ``learning`` draw during
evaluation, say) shifts that stream for every later consumer, and the
equivalence suites do not see it: they compare engines that all make it.
"""

from dataclasses import replace

import pytest

from repro.config.presets import get_preset
from repro.datasets import load_dataset
from repro.engine.rng import STREAM_NAMES, RngStreams
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer

#: The streams each phase may advance; no other stream may move.
BUILD = {"init"}
TRAIN = {"encoding", "learning", "rounding"}
EVALUATE = {"encoding", "misc"}
CHECKPOINT_LOAD = {"init", "rounding"}

PRESETS = ("float32", "8bit", "16bit")


def _cases(engines):
    """(preset, engine) pairs; the integer engines need a fixed-point preset."""
    return [
        (preset, engine)
        for preset in PRESETS
        for engine in engines
        if not (preset == "float32" and engine.startswith("q"))
    ]


def _config(preset):
    config = get_preset(preset, n_neurons=6, seed=1)
    return replace(config, simulation=replace(config.simulation, t_learn_ms=100.0))


def _moved(rngs, phase):
    """The names of the streams *phase* advanced."""
    before = rngs.state_dict()["streams"]
    phase()
    after = rngs.state_dict()["streams"]
    return {name for name in STREAM_NAMES if before[name] != after[name]}


@pytest.fixture(scope="module")
def digits():
    return load_dataset("mnist", n_train=6, n_test=12, size=8, seed=3)


@pytest.fixture(scope="module")
def trained(digits):
    """One network per preset, trained on the float gather kernel."""
    networks = {}
    for preset in PRESETS:
        network = WTANetwork(_config(preset), digits.n_pixels)
        UnsupervisedTrainer(network, engine="fused").train(digits.train_images)
        networks[preset] = network
    return networks


@pytest.mark.parametrize("preset", PRESETS)
def test_building_draws_only_init(digits, preset):
    rngs = RngStreams(1)
    moved = _moved(rngs, lambda: WTANetwork(_config(preset), digits.n_pixels, rngs=rngs))
    assert moved == BUILD


@pytest.mark.parametrize("preset, engine", _cases(("reference", "fused", "qfused")))
def test_training_draws_only_its_streams(digits, preset, engine):
    network = WTANetwork(_config(preset), digits.n_pixels)
    trainer = UnsupervisedTrainer(network, engine=engine)
    moved = _moved(network.rngs, lambda: trainer.train(digits.train_images))
    assert moved <= TRAIN
    assert {"encoding", "learning"} <= moved


@pytest.mark.parametrize(
    "preset, engine", _cases(("reference", "fused", "qfused", "batched", "qbatched"))
)
def test_evaluation_draws_only_its_streams(digits, trained, preset, engine):
    network = trained[preset]
    evaluator = Evaluator(network, n_classes=10, engine=engine)
    images, labels = digits.test_images, digits.test_labels
    moved = _moved(
        network.rngs,
        lambda: evaluator.evaluate(images[:6], labels[:6], images[6:], labels[6:]),
    )
    assert moved <= EVALUATE
    if engine.endswith("batched"):
        # The image-parallel engines draw their own salted stream.
        assert "encoding" not in moved
    else:
        assert "encoding" in moved


@pytest.mark.parametrize("preset", PRESETS)
def test_checkpoints_draw_only_the_loader_streams(tmp_path, trained, preset):
    network = trained[preset]
    path = tmp_path / "net.npz"
    assert _moved(network.rngs, lambda: save_checkpoint(path, network)) == set()
    loaded, _ = load_checkpoint(path)
    fresh = RngStreams(network.config.simulation.seed).state_dict()["streams"]
    after = loaded.rngs.state_dict()["streams"]
    moved = {name for name in STREAM_NAMES if fresh[name] != after[name]}
    assert "init" in moved and moved <= CHECKPOINT_LOAD
