"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.config.parameters import RoundingMode, STDPKind
from repro.config.presets import get_preset
from repro.datasets import load_dataset
from repro.io import checkpoint
from repro.network.wta import WTANetwork
from repro.pipeline.experiment import build_network
from repro.pipeline.trainer import TrainingLog, UnsupervisedTrainer
from repro.resilience.run_state import TrainingRunState


class TestPresets:
    def test_lists_all_options(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in ("2bit", "4bit", "8bit", "16bit", "high_frequency"):
            assert name in out


class TestFICurve:
    def test_prints_curve(self, capsys):
        assert main(["fi-curve", "--points", "4"]) == 0
        out = capsys.readouterr().out
        assert "rheobase" in out
        assert "frequency" in out


class TestRun:
    def test_tiny_run(self, capsys, tmp_path):
        code = main(
            [
                "run",
                "--n-train", "10",
                "--n-test", "20",
                "--n-labeling", "5",
                "--neurons", "6",
                "--size", "8",
                "--epochs", "1",
                "--quiet",
                "--eval-engine", "batched",
                "--save", str(tmp_path / "net.npz"),
                "--save-config", str(tmp_path / "cfg.json"),
                "--show-maps", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert (tmp_path / "net.npz").exists()
        assert (tmp_path / "cfg.json").exists()
        assert "neuron" in out  # the map block

    def test_run_writes_loadable_checkpoint(self, capsys, tmp_path):
        path = tmp_path / "net.npz"
        main(
            ["run", "--n-train", "6", "--n-test", "12", "--n-labeling", "4",
             "--neurons", "4", "--size", "8", "--epochs", "1", "--quiet",
             "--save", str(path)]
        )
        capsys.readouterr()
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "neurons" in out
        assert "labeled" in out

    def test_run_save_keeps_the_trained_state(self, capsys, tmp_path):
        """The checkpoint holds the network the run trained and scored: its
        adapted thresholds and its conductances, not a rebuilt network's."""
        path = tmp_path / "net.npz"
        assert main(
            ["run", "--preset", "8bit", "--neurons", "10", "--size", "8",
             "--n-train", "20", "--n-test", "20", "--n-labeling", "10",
             "--epochs", "1", "--seed", "1", "--quiet", "--save", str(path)]
        ) == 0
        capsys.readouterr()
        dataset = load_dataset("mnist", n_train=20, n_test=20, size=8, seed=1)
        config = get_preset(
            "8bit", stdp_kind=STDPKind.STOCHASTIC, rounding=RoundingMode.STOCHASTIC,
            n_neurons=10, seed=1,
        )
        trained = build_network(config, dataset.n_pixels)
        UnsupervisedTrainer(trained).train(dataset.train_images)
        assert np.all(trained.neurons.theta > 0.0)

        loaded, labels = checkpoint.load_checkpoint(path)
        assert np.array_equal(loaded.neurons.theta, trained.neurons.theta)
        assert np.array_equal(loaded.conductances, trained.conductances)
        assert labels.shape == (10,)


class TestInfo:
    """`repro info` reads the archive in full once and prints the same table
    as when it loaded the file once per loader."""

    V1_ROWS = [
        "| format            | repro-wta-checkpoint-v1                                                               |",
        "| config            | 8bit-stochastic: stochastic STDP, Q1.7 (stochastic), 1-22 Hz, 500 ms/image, 6 neurons |",
        "| pixels            | 16                                                                                    |",
        "| neurons           | 6                                                                                     |",
        "| conductance range | [0.203, 0.602]                                                                        |",
        "| labeled           | yes                                                                                   |",
    ]
    V2_ROWS = [
        "| format                | repro-wta-checkpoint-v2                                                                     |",
        "| config                | float32-stochastic: stochastic STDP, float32 (stochastic), 1-22 Hz, 500 ms/image, 6 neurons |",
        "| pixels                | 16                                                                                          |",
        "| neurons               | 6                                                                                           |",
        "| conductance range     | [0.203, 0.596]                                                                              |",
        "| labeled               | no                                                                                          |",
        "| presentation          | 2/6                                                                                         |",
        "| simulation clock (ms) | 110.000                                                                                     |",
        "| epochs                | 2                                                                                           |",
    ]

    @staticmethod
    def _write(tmp_path, fmt):
        path = tmp_path / f"{fmt}.npz"
        if fmt == "v1":
            net = WTANetwork(get_preset("8bit", n_neurons=6, seed=2), 16)
            checkpoint.save_checkpoint(path, net, neuron_labels=np.arange(6) % 3)
        else:
            net = WTANetwork(get_preset("float32", n_neurons=6, seed=2), 16)
            state = TrainingRunState.capture(
                net, TrainingLog(), t_ms=110.0, presentation_index=2, epochs=2, n_images=3
            )
            checkpoint.save_run_checkpoint(path, state)
        return path

    @pytest.mark.parametrize("fmt", ["v1", "v2"])
    def test_one_full_read_and_unchanged_table(self, capsys, monkeypatch, tmp_path, fmt):
        path = self._write(tmp_path, fmt)
        full_reads = []
        read = checkpoint._open_payload

        def counting(p, names=None):
            if names is None:
                full_reads.append(p)
            return read(p) if names is None else read(p, names)

        monkeypatch.setattr(checkpoint, "_open_payload", counting)
        assert main(["info", str(path)]) == 0
        assert len(full_reads) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == f"### Checkpoint {path}"
        assert lines[4:] == (self.V1_ROWS if fmt == "v1" else self.V2_ROWS)


class TestEvaluate:
    def test_checkpoint_round_trip(self, capsys, tmp_path):
        path = tmp_path / "net.npz"
        main(
            ["run", "--n-train", "6", "--n-test", "12", "--n-labeling", "4",
             "--neurons", "4", "--size", "8", "--epochs", "1", "--quiet",
             "--save", str(path)]
        )
        capsys.readouterr()
        code = main(["evaluate", str(path), "--n-test", "10", "--size", "8"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_pixel_mismatch_fails_cleanly(self, capsys, tmp_path):
        path = tmp_path / "net.npz"
        main(
            ["run", "--n-train", "6", "--n-test", "12", "--n-labeling", "4",
             "--neurons", "4", "--size", "8", "--epochs", "1", "--quiet",
             "--save", str(path)]
        )
        capsys.readouterr()
        code = main(["evaluate", str(path), "--n-test", "10", "--size", "16"])
        assert code == 2
        assert "pixels" in capsys.readouterr().err


class TestErrors:
    def test_missing_checkpoint_is_an_error_exit(self, capsys):
        assert main(["info", "/nonexistent/x.npz"]) == 1
        assert "error" in capsys.readouterr().err

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    @pytest.mark.parametrize(
        "anchor, offset, mask",
        [
            pytest.param(b"{'descr'", 0, 0x01, id="tokenize-error"),  # '{' -> 'z'
            pytest.param(b"'descr': '<", 10, 0x10, id="syntax-error"),  # '<' -> ','
        ],
    )
    @pytest.mark.parametrize("command", ["info", "resume", "evaluate"])
    def test_damaged_npy_header_is_one_error_line(
        self, capsys, tmp_path, command, anchor, offset, mask
    ):
        """numpy reads an npy header as a Python literal; a flipped byte in
        the config member's header reaches each checkpoint reader as one
        ``error:`` line and exit 1, not a traceback."""
        net = WTANetwork(get_preset("float32", n_neurons=6, seed=2), 16)
        state = TrainingRunState.capture(
            net, TrainingLog(), t_ms=110.0, presentation_index=2, epochs=2, n_images=3
        )
        path = tmp_path / "run.npz"
        checkpoint.save_run_checkpoint(path, state)
        data = bytearray(path.read_bytes())
        data[data.index(anchor, data.index(b"config_json.npy")) + offset] ^= mask
        path.write_bytes(bytes(data))

        assert main([command, str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "truncated or corrupt" in err
        assert err.count("\n") == 1


class TestEngines:
    _TINY = ["run", "--n-train", "6", "--n-test", "12", "--n-labeling", "4",
             "--neurons", "4", "--size", "8", "--epochs", "1", "--quiet"]

    def test_engines_command_lists_capability_table(self, capsys):
        assert main(["engines"]) == 0
        out = capsys.readouterr().out
        for name in ("reference", "fused", "qfused", "batched", "qbatched"):
            assert name in out
        for tier in ("bit_exact", "statistical"):
            assert tier in out
        qfused_row = next(line for line in out.splitlines() if "| qfused " in line)
        assert "bit_exact" in qfused_row
        assert "precision" in out
        assert "uint8+uint16" in out

    def test_run_accepts_engine_flags(self, capsys):
        code = main(self._TINY + ["--engine", "reference", "--eval-engine", "batched"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_run_quantized_preset_with_qfused_engine(self, capsys):
        code = main(self._TINY + ["--preset", "8bit", "--engine", "qfused"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out

    def test_run_quantized_preset_saves_loadable_checkpoint(self, capsys, tmp_path):
        """--save must work under stochastic rounding (the quantizer needs
        an RNG to re-snap the trained, already-on-grid conductances)."""
        ckpt = tmp_path / "qfused.npz"
        code = main(self._TINY + [
            "--preset", "8bit", "--engine", "qfused", "--save", str(ckpt),
        ])
        assert code == 0
        assert ckpt.exists()
        capsys.readouterr()
        assert main(["evaluate", str(ckpt), "--n-test", "12",
                     "--n-labeling", "4", "--size", "8"]) == 0
        assert "accuracy" in capsys.readouterr().out

    def test_run_rejects_unregistered_engine_name(self):
        with pytest.raises(SystemExit):  # argparse choices
            main(self._TINY + ["--engine", "warp"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--epochs", "0"], "epochs must be >= 1, got 0"),
            (["--epochs", "-1"], "epochs must be >= 1, got -1"),
            (["--seed", "-1"], "seed must be non-negative, got -1"),
        ],
    )
    def test_run_rejects_bad_schedule_with_one_error_line(self, capsys, flags, message):
        assert main(self._TINY + flags) == 1
        err = capsys.readouterr().err
        assert err == f"error: {message}\n"

    def test_evaluate_accepts_engine_flag(self, capsys, tmp_path):
        path = tmp_path / "net.npz"
        main(self._TINY + ["--save", str(path)])
        capsys.readouterr()
        code = main(["evaluate", str(path), "--n-test", "10", "--size", "8",
                     "--engine", "reference"])
        assert code == 0
        assert "accuracy" in capsys.readouterr().out
