"""Tests for the v2 (resumable) checkpoint format and atomic writes."""

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.io.checkpoint import (
    KNOWN_MAGICS,
    atomic_savez,
    checkpoint_magic,
    load_checkpoint,
    load_run_checkpoint,
    save_checkpoint,
    save_run_checkpoint,
)
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience.faults import corrupt_file, truncate_file
from repro.resilience.run_state import RUN_STATE_VERSION, TrainingRunState


@pytest.fixture
def run_state(tiny_config, tiny_dataset):
    """A mid-run state captured at presentation boundary 6."""
    net = WTANetwork(tiny_config, 64)
    trainer = UnsupervisedTrainer(net)
    log = trainer.train(tiny_dataset.train_images[:6])
    return TrainingRunState.capture(
        net,
        log,
        t_ms=6 * 55.0,
        presentation_index=6,
        epochs=2,
        n_images=6,
        normalizer=trainer.normalizer,
        extra={"dataset": "mnist", "n_train": 6},
    )


class TestV2RoundTrip:
    def test_full_state_round_trips(self, tmp_path, run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        loaded = load_run_checkpoint(path)
        assert np.array_equal(loaded.conductances, run_state.conductances)
        assert np.array_equal(loaded.theta, run_state.theta)
        assert loaded.rng_state == run_state.rng_state
        assert loaded.presentation_index == 6
        assert loaded.epochs == 2
        assert loaded.n_images == 6
        assert loaded.t_ms == run_state.t_ms
        assert loaded.normalizer_images_seen == run_state.normalizer_images_seen
        assert loaded.total_steps == run_state.total_steps
        assert loaded.spikes_per_image == run_state.spikes_per_image
        assert loaded.extra == {"dataset": "mnist", "n_train": 6}
        assert loaded.source == str(path)

    def test_magic_is_v2(self, tmp_path, run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        magic = checkpoint_magic(path)
        assert magic.endswith("-v2")
        assert magic in KNOWN_MAGICS

    def test_v2_readable_by_plain_loader(self, tmp_path, run_state):
        """A run checkpoint doubles as a learned-state checkpoint."""
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        net, labels = load_checkpoint(path)
        assert labels is None
        assert np.array_equal(net.conductances, run_state.conductances)
        assert np.array_equal(net.neurons.theta, run_state.theta)

    def test_labels_travel(self, tmp_path, run_state):
        run_state.neuron_labels = np.arange(8) % 3
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        loaded = load_run_checkpoint(path)
        assert np.array_equal(loaded.neuron_labels, run_state.neuron_labels)

    def test_to_log_restores_counters(self, run_state):
        log = run_state.to_log()
        assert log.images_seen == 6
        assert log.total_steps == run_state.total_steps
        assert log.spikes_per_image == run_state.spikes_per_image


@pytest.fixture
def quantized_run_state(tiny_config, tiny_dataset):
    """A mid-run state under the Q1.7 fixed-point config (uint8 codes)."""
    from dataclasses import replace

    from repro.config.parameters import QuantizationConfig, RoundingMode

    config = replace(
        tiny_config,
        quantization=QuantizationConfig(
            fmt="Q1.7", rounding=RoundingMode.STOCHASTIC
        ),
    )
    net = WTANetwork(config, 64)
    trainer = UnsupervisedTrainer(net)
    log = trainer.train(tiny_dataset.train_images[:4], engine="qfused")
    return TrainingRunState.capture(
        net, log, t_ms=4 * 55.0, presentation_index=4, epochs=1, n_images=4,
        normalizer=trainer.normalizer,
    )


class TestIntegerCodeStorage:
    def test_fixed_point_checkpoints_store_codes_not_floats(
        self, tmp_path, quantized_run_state
    ):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, quantized_run_state)
        with np.load(path) as data:
            assert "conductances" not in data.files
            assert data["g_codes"].dtype == np.uint8
            assert int(data["g_frac_bits"]) == 7

    def test_codes_round_trip_bit_identically(self, tmp_path, quantized_run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, quantized_run_state)
        loaded = load_run_checkpoint(path)
        assert np.array_equal(loaded.conductances, quantized_run_state.conductances)
        assert loaded.rng_state == quantized_run_state.rng_state

    def test_code_checkpoint_readable_by_plain_loader(
        self, tmp_path, quantized_run_state
    ):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, quantized_run_state)
        net, _ = load_checkpoint(path)
        assert np.array_equal(net.conductances, quantized_run_state.conductances)

    def test_float_config_keeps_float_storage(self, tmp_path, run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        with np.load(path) as data:
            assert "conductances" in data.files
            assert "g_codes" not in data.files

    def test_malformed_code_dtype_rejected(self, tmp_path, quantized_run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, quantized_run_state)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["g_codes"] = payload["g_codes"].astype(np.int32)
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="uint8/uint16"):
            load_run_checkpoint(path)

    def test_out_of_range_frac_bits_rejected(self, tmp_path, quantized_run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, quantized_run_state)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        payload["g_frac_bits"] = np.array(40)
        np.savez(path, **payload)
        with pytest.raises(CheckpointError, match="g_frac_bits"):
            load_run_checkpoint(path)

    def test_checkpoint_predating_qrounding_stream_loads(
        self, tmp_path, run_state
    ):
        """v2 files written before the qrounding stream existed must stay
        loadable: the stream is optional and reseeds from the run seed."""
        import json

        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        with np.load(path) as data:
            payload = {name: data[name] for name in data.files}
        rng_state = json.loads(str(payload["rng_json"]))
        del rng_state["streams"]["qrounding"]
        payload["rng_json"] = np.array(json.dumps(rng_state))
        np.savez(path, **payload)
        loaded = load_run_checkpoint(path)
        net = loaded.build_network()
        assert "qrounding" not in loaded.rng_state["streams"]
        assert np.array_equal(net.conductances, run_state.conductances)


class TestRejection:
    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_run_checkpoint(tmp_path / "nope.npz")

    def test_v1_cannot_resume(self, tmp_path, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:3])
        path = tmp_path / "v1.npz"
        save_checkpoint(path, net)
        loaded, _ = load_checkpoint(path)  # v1 stays loadable
        assert np.array_equal(loaded.conductances, net.conductances)
        with pytest.raises(CheckpointError, match="learned state only"):
            load_run_checkpoint(path)

    def test_truncated_file(self, tmp_path, run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_run_checkpoint(path)

    def test_corrupted_file(self, tmp_path, run_state):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        corrupt_file(path, n_bytes=64, seed=0)
        with pytest.raises(CheckpointError):
            load_run_checkpoint(path)

    def test_damaged_zip_version_field(self, tmp_path, run_state):
        """A flipped "version needed to extract" byte makes zipfile raise
        NotImplementedError; the loader reports a corrupt archive."""
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        data = bytearray(path.read_bytes())
        data[data.index(b"PK\x01\x02") + 6] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="truncated or corrupt"):
            load_run_checkpoint(path)

    def test_unknown_magic(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, magic=np.array("repro-wta-checkpoint-v99"))
        with pytest.raises(CheckpointError, match="unknown checkpoint magic"):
            load_run_checkpoint(path)

    def test_foreign_archive(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(CheckpointError, match="no format marker"):
            load_run_checkpoint(path)

    def test_unsupported_run_state_version(self):
        with pytest.raises(CheckpointError, match="version"):
            TrainingRunState.from_payload(
                config=None,
                n_pixels=4,
                conductances=np.zeros((4, 2)),
                theta=np.zeros(2),
                rng_state={},
                run={"version": RUN_STATE_VERSION + 1},
                spikes_per_image=[],
            )


class TestMagic:
    """`checkpoint_magic` tells the formats apart from the marker alone."""

    def test_v1_marker(self, tmp_path, tiny_config):
        path = tmp_path / "v1.npz"
        save_checkpoint(path, WTANetwork(tiny_config, 64))
        assert checkpoint_magic(path) == KNOWN_MAGICS[0]

    def test_reads_only_the_marker(self, tmp_path, run_state, monkeypatch):
        path = tmp_path / "run.npz"
        save_run_checkpoint(path, run_state)
        read = []
        getitem = np.lib.npyio.NpzFile.__getitem__

        def recording(self, key):
            read.append(key)
            return getitem(self, key)

        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", recording)
        assert checkpoint_magic(path) == KNOWN_MAGICS[1]
        assert read == ["magic"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            checkpoint_magic(tmp_path / "nope.npz")

    def test_foreign_archive(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.zeros(3))
        with pytest.raises(CheckpointError, match="no format marker"):
            checkpoint_magic(path)

    def test_unknown_marker(self, tmp_path):
        path = tmp_path / "future.npz"
        np.savez(path, magic=np.array("repro-wta-checkpoint-v99"))
        with pytest.raises(CheckpointError, match="unknown checkpoint magic"):
            checkpoint_magic(path)


class TestAtomicity:
    def test_failed_write_leaves_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "state.npz"
        atomic_savez(path, magic=np.array("x"), value=np.arange(3))
        before = path.read_bytes()

        def boom(handle, **payload):
            handle.write(b"partial garbage")
            raise OSError("disk full")

        monkeypatch.setattr("repro.io.checkpoint.np.savez", boom)
        with pytest.raises(OSError):
            atomic_savez(path, magic=np.array("x"), value=np.arange(4))
        assert path.read_bytes() == before
        assert not list(tmp_path.glob("*.tmp"))

    def test_no_temp_residue_on_success(self, tmp_path):
        path = tmp_path / "state.npz"
        atomic_savez(path, magic=np.array("x"), value=np.arange(3))
        assert path.exists()
        assert not list(tmp_path.glob("*.tmp"))


class TestRestoreValidation:
    def test_pixel_mismatch(self, run_state, tiny_config):
        other = WTANetwork(tiny_config, 16)
        with pytest.raises(CheckpointError, match="input pixels"):
            run_state.restore_into(other)

    def test_build_network_carries_state(self, run_state):
        net = run_state.build_network()
        assert np.array_equal(net.conductances, run_state.conductances)
        assert np.array_equal(net.neurons.theta, run_state.theta)
        assert net.rngs.state_dict() == run_state.rng_state
        assert net.learning_enabled
