"""Tests for network checkpointing."""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import LTDMode
from repro.config.presets import get_preset
from repro.errors import CheckpointError, DatasetError
from repro.io.checkpoint import (
    load_checkpoint,
    load_run_checkpoint,
    save_checkpoint,
    save_run_checkpoint,
)
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import TrainingLog, UnsupervisedTrainer
from repro.resilience.run_state import TrainingRunState


@pytest.fixture
def trained(tiny_config, tiny_dataset):
    net = WTANetwork(tiny_config, 64)
    UnsupervisedTrainer(net).train(tiny_dataset.train_images[:8])
    return net


class TestRoundTrip:
    def test_state_restored(self, tmp_path, trained):
        path = tmp_path / "net.npz"
        save_checkpoint(path, trained)
        restored, labels = load_checkpoint(path)
        assert labels is None
        assert np.array_equal(restored.conductances, trained.conductances)
        assert np.array_equal(restored.neurons.theta, trained.neurons.theta)
        assert restored.config == trained.config

    def test_labels_round_trip(self, tmp_path, trained):
        path = tmp_path / "net.npz"
        labels = np.arange(8) % 3
        save_checkpoint(path, trained, neuron_labels=labels)
        _, restored_labels = load_checkpoint(path)
        assert np.array_equal(restored_labels, labels)

    def test_restored_network_infers(self, tmp_path, trained, tiny_dataset):
        path = tmp_path / "net.npz"
        save_checkpoint(path, trained)
        restored, _ = load_checkpoint(path)
        restored.freeze()
        counts = Evaluator(restored, t_present_ms=50.0).collect_responses(
            tiny_dataset.test_images[:3]
        )
        assert counts.shape == (3, 8)

    def test_fixed_point_checkpoint(self, tmp_path, tiny_dataset):
        from repro.config.presets import get_preset
        from dataclasses import replace
        from repro.config.parameters import SimulationParameters

        cfg = get_preset("4bit", n_neurons=6, seed=0)
        cfg = replace(cfg, simulation=SimulationParameters(t_learn_ms=30.0, seed=0))
        net = WTANetwork(cfg, 64)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:4])
        path = tmp_path / "q.npz"
        save_checkpoint(path, net)
        restored, _ = load_checkpoint(path)
        assert np.array_equal(restored.conductances, net.conductances)

    @pytest.mark.parametrize("ltd_mode", [LTDMode.PAIR, LTDMode.BOTH], ids=lambda m: m.value)
    def test_ltd_mode_survives_save_and_load(self, tmp_path, tiny_config, ltd_mode):
        """The LTD schedule lives in the config, so a reloaded PAIR or BOTH
        network learns with its own schedule, not the POST_EVENT default."""
        cfg = replace(
            tiny_config,
            stochastic_stdp=replace(tiny_config.stochastic_stdp, ltd_mode=ltd_mode),
        )
        net = WTANetwork(cfg, 64)
        assert net.rule.ltd_mode is ltd_mode
        path = tmp_path / "ltd.npz"
        save_checkpoint(path, net)
        restored, _ = load_checkpoint(path)
        assert restored.config == cfg
        assert restored.rule.ltd_mode is ltd_mode

    def test_checkpoint_without_ltd_mode_loads_as_post_event(self, tmp_path, trained):
        """A checkpoint whose stored config predates the ``ltd_mode`` field
        loads with the POST_EVENT schedule every such network learned with."""
        path = tmp_path / "old.npz"
        save_checkpoint(path, trained)
        with np.load(path, allow_pickle=False) as archive:
            payload = {name: archive[name] for name in archive.files}
        config = json.loads(str(payload["config_json"]))
        del config["stochastic_stdp"]["ltd_mode"]
        payload["config_json"] = np.array(json.dumps(config))
        np.savez(path, **payload)

        restored, _ = load_checkpoint(path)
        assert restored.config == trained.config
        assert restored.rule.ltd_mode is LTDMode.POST_EVENT
        assert np.array_equal(restored.conductances, trained.conductances)


class TestValidation:
    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_foreign_npz_rejected(self, tmp_path):
        path = tmp_path / "other.npz"
        np.savez(path, stuff=np.zeros(3))
        with pytest.raises(DatasetError):
            load_checkpoint(path)

    def test_wrong_label_shape_rejected(self, tmp_path, trained):
        with pytest.raises(DatasetError):
            save_checkpoint(tmp_path / "x.npz", trained, neuron_labels=np.zeros(3, dtype=int))

    @staticmethod
    def _with_stored_labels(tmp_path, labels):
        """A 6-neuron v2 checkpoint whose ``neuron_labels`` are *labels*."""
        net = WTANetwork(get_preset("float32", n_neurons=6, seed=2), 16)
        state = TrainingRunState.capture(
            net, TrainingLog(), t_ms=0.0, presentation_index=0, epochs=1, n_images=1
        )
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, state)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["neuron_labels"] = labels
        np.savez(path, **payload)
        return path

    @pytest.mark.parametrize(
        "labels",
        [
            np.array([1.5, 7.0, -3.0]),
            np.array([0.0, 1.0, 2.0, 3.0, 1.5, -1.0]),
            np.array([0, 1, 2, -3, 1, -1]),
            np.arange(3),
        ],
        ids=["float-short-negative", "float", "below-unlabeled", "short"],
    )
    @pytest.mark.parametrize("load", [load_checkpoint, load_run_checkpoint])
    def test_malformed_stored_labels_rejected(self, tmp_path, labels, load):
        path = self._with_stored_labels(tmp_path, labels)
        with pytest.raises(CheckpointError, match="neuron_labels"):
            load(path)

    @pytest.mark.parametrize("load", [load_checkpoint, load_run_checkpoint])
    def test_stored_labels_with_unlabeled_neurons_load(self, tmp_path, load):
        labels = np.array([0, -1, 9, 3, -1, 0])
        loaded = load(self._with_stored_labels(tmp_path, labels))
        stored = loaded[1] if isinstance(loaded, tuple) else loaded.neuron_labels
        assert np.array_equal(stored, labels)
