"""Kill-and-resume bit-identity: the contract of the v2 checkpoint.

A run killed after any presentation (the worst case: immediately after the
boundary's autosave) and resumed from the checkpoint in a *fresh process*
(modelled by a fresh network) must produce bit-identical final weights,
thresholds and spike counts to the uninterrupted run — for every learning
engine.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.errors import CheckpointError
from repro.io.checkpoint import load_run_checkpoint
from repro.learning.stochastic import LTDMode
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience import AutosavePolicy
from repro.resilience.faults import CrashFault, SimulatedCrash
from repro.resilience.run_state import RUN_STATE_VERSION


def _train_full(config, images, engine, epochs=1):
    net = WTANetwork(config, images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine, epochs=epochs)
    return net, log


def _crash_then_resume(config, images, engine, crash_at, path, epochs=1):
    """Run with per-boundary autosave, crash, resume from the checkpoint."""
    net = WTANetwork(config, images[0].size)
    policy = AutosavePolicy(path, every_images=1)
    fault = CrashFault(at_presentation=crash_at)
    with pytest.raises(SimulatedCrash):
        UnsupervisedTrainer(net).train(
            images, engine=engine, epochs=epochs,
            autosave=policy, on_image_end=fault,
        )
    assert fault.fired
    assert policy.saves_written == crash_at

    resumed = WTANetwork(config, images[0].size)  # fresh process stand-in
    log = UnsupervisedTrainer(resumed).train(
        images, engine=engine, epochs=epochs, resume_from=str(path)
    )
    return resumed, log


class TestBitIdenticalResume:
    @pytest.mark.parametrize("engine", ["fused"])
    @pytest.mark.parametrize("crash_at", [1, 4, 7])
    def test_weights_and_log_match(
        self, tmp_path, tiny_config, tiny_dataset, engine, crash_at
    ):
        images = tiny_dataset.train_images[:8]
        baseline, base_log = _train_full(tiny_config, images, engine)
        resumed, log = _crash_then_resume(
            tiny_config, images, engine, crash_at, tmp_path / "auto.npz"
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image
        assert log.simulated_ms == base_log.simulated_ms
        assert log.images_seen == base_log.images_seen

    @pytest.mark.parametrize(
        "fields",
        [
            pytest.param({"steps_skipped": 57}, id="steps_skipped"),
            pytest.param(
                {"total_steps": 150, "normalizations": 3,
                 "raster_cells": 9600, "raster_active_cells": 212},
                id="retired_log_counters",
            ),
        ],
    )
    def test_older_autosave_with_extra_run_field_resumes(
        self, tmp_path, tiny_config, tiny_dataset, fields
    ):
        """Autosaves of earlier builds carry run fields this build does not
        read: a ``steps_skipped`` count from event kernels that jumped over
        quiet steps, and the retired step, normalisation and raster
        occupancy counters.  The loader ignores them at the same run-state
        version, and the run resumes bit-identically."""
        images = tiny_dataset.train_images[:6]
        baseline, base_log = _train_full(tiny_config, images, "fused")
        path = tmp_path / "auto.npz"
        net = WTANetwork(tiny_config, images[0].size)
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(net).train(
                images, engine="fused",
                autosave=AutosavePolicy(path, every_images=1),
                on_image_end=CrashFault(at_presentation=3),
            )
        with np.load(path) as archive:
            payload = dict(archive)
        run = json.loads(str(payload["run_json"]))
        assert run["version"] == RUN_STATE_VERSION == 1
        run.update(fields)
        payload["run_json"] = np.array(json.dumps(run))
        np.savez(path, **payload)

        state = load_run_checkpoint(path)
        assert not set(fields) & set(state.run_fields())
        resumed = WTANetwork(tiny_config, images[0].size)
        log = UnsupervisedTrainer(resumed).train(
            images, engine="fused", resume_from=str(path)
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image
        assert log.simulated_ms == base_log.simulated_ms

    @pytest.mark.parametrize("ltd_mode", [LTDMode.PAIR, LTDMode.BOTH], ids=lambda m: m.value)
    def test_ltd_mode_survives_crash_and_resume(
        self, tmp_path, tiny_config, tiny_dataset, ltd_mode
    ):
        """The LTD schedule travels in the autosave's config: a network
        rebuilt from the checkpoint alone continues with its own schedule
        and matches the uninterrupted run."""
        images = tiny_dataset.train_images[:6]
        config = replace(
            tiny_config,
            stochastic_stdp=replace(tiny_config.stochastic_stdp, ltd_mode=ltd_mode),
        )
        baseline, base_log = _train_full(config, images, "fused")
        post_event, _ = _train_full(tiny_config, images, "fused")
        assert not np.array_equal(baseline.conductances, post_event.conductances)

        path = tmp_path / "auto.npz"
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(WTANetwork(config, images[0].size)).train(
                images, engine="fused",
                autosave=AutosavePolicy(path, every_images=1),
                on_image_end=CrashFault(at_presentation=3),
            )
        resumed = load_run_checkpoint(path).build_network()
        assert resumed.rule.ltd_mode is ltd_mode
        log = UnsupervisedTrainer(resumed).train(
            images, engine="fused", resume_from=str(path)
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image

    def test_run_experiment_resumes_with_the_checkpoints_ltd_mode(
        self, tmp_path, tiny_config, tiny_dataset
    ):
        """``run_experiment(state.config, ..., resume_from=state)``, the
        call ``repro resume`` makes, continues a PAIR autosave with PAIR and
        lands on the uninterrupted PAIR run."""
        from repro.pipeline.experiment import run_experiment

        pair = replace(
            tiny_config,
            stochastic_stdp=replace(tiny_config.stochastic_stdp, ltd_mode=LTDMode.PAIR),
        )
        images = tiny_dataset.train_images
        baseline = run_experiment(pair, tiny_dataset, n_labeling=10)

        path = tmp_path / "auto.npz"
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(WTANetwork(pair, images[0].size)).train(
                images, autosave=AutosavePolicy(path, every_images=4),
                on_image_end=CrashFault(at_presentation=9),
            )
        state = load_run_checkpoint(path)
        assert state.presentation_index == 8
        resumed = run_experiment(state.config, tiny_dataset, n_labeling=10, resume_from=state)
        assert resumed.network.rule.ltd_mode is LTDMode.PAIR
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert np.array_equal(resumed.network.neurons.theta, baseline.network.neurons.theta)
        assert resumed.accuracy == baseline.accuracy

    def test_resume_across_epoch_boundary(self, tmp_path, tiny_config, tiny_dataset):
        """Crash in the second epoch: the flat presentation index resumes
        at the right image of the right epoch."""
        images = tiny_dataset.train_images[:5]
        baseline, base_log = _train_full(tiny_config, images, "fused", epochs=2)
        resumed, log = _crash_then_resume(
            tiny_config, images, "fused", 7, tmp_path / "auto.npz", epochs=2
        )
        assert np.array_equal(resumed.conductances, baseline.conductances)
        assert log.spikes_per_image == base_log.spikes_per_image
        assert log.images_seen == 10

    def test_resume_from_in_memory_state(self, tmp_path, tiny_config, tiny_dataset):
        images = tiny_dataset.train_images[:6]
        baseline, _ = _train_full(tiny_config, images, "fused")

        net = WTANetwork(tiny_config, 64)
        policy = AutosavePolicy(tmp_path / "auto.npz", every_images=1)
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(net).train(
                images, engine="fused", autosave=policy,
                on_image_end=CrashFault(at_presentation=3),
            )
        state = load_run_checkpoint(tmp_path / "auto.npz")
        resumed = WTANetwork(tiny_config, 64)
        UnsupervisedTrainer(resumed).train(images, engine="fused", resume_from=state)
        assert np.array_equal(resumed.conductances, baseline.conductances)

    def test_resumed_run_keeps_the_simulation_clock(
        self, tmp_path, tiny_config, tiny_dataset
    ):
        """The resumed segment continues the stored clock, so its autosaves
        record the uninterrupted run's simulation time (weights alone would
        not show a clock restarted at zero)."""
        images = tiny_dataset.train_images[:6]
        clean = tmp_path / "clean.npz"
        UnsupervisedTrainer(WTANetwork(tiny_config, 64)).train(
            images, engine="fused", autosave=AutosavePolicy(clean, every_images=6)
        )
        path = tmp_path / "auto.npz"
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(WTANetwork(tiny_config, 64)).train(
                images, engine="fused",
                autosave=AutosavePolicy(path, every_images=1),
                on_image_end=CrashFault(at_presentation=3),
            )
        UnsupervisedTrainer(WTANetwork(tiny_config, 64)).train(
            images, engine="fused", resume_from=str(path),
            autosave=AutosavePolicy(path, every_images=1),
        )
        sim = tiny_config.simulation
        assert load_run_checkpoint(path).t_ms == load_run_checkpoint(clean).t_ms
        assert load_run_checkpoint(path).t_ms == 6 * (sim.t_learn_ms + sim.t_rest_ms)

    def test_resumed_segment_counts_only_its_own_wall_time(
        self, tmp_path, tiny_config, tiny_dataset
    ):
        images = tiny_dataset.train_images[:6]
        _, log = _crash_then_resume(
            tiny_config, images, "fused", 3, tmp_path / "auto.npz"
        )
        assert log.wall_seconds > 0.0


class TestResumeValidation:
    def test_wrong_image_count_rejected(self, tmp_path, tiny_config, tiny_dataset):
        images = tiny_dataset.train_images[:6]
        net = WTANetwork(tiny_config, 64)
        policy = AutosavePolicy(tmp_path / "auto.npz", every_images=1)
        with pytest.raises(SimulatedCrash):
            UnsupervisedTrainer(net).train(
                images, engine="fused", autosave=policy,
                on_image_end=CrashFault(at_presentation=2),
            )
        fresh = WTANetwork(tiny_config, 64)
        with pytest.raises(CheckpointError, match="images per epoch"):
            UnsupervisedTrainer(fresh).train(
                tiny_dataset.train_images[:4], engine="fused",
                resume_from=str(tmp_path / "auto.npz"),
            )

    def test_checkpoint_past_schedule_rejected(
        self, tmp_path, tiny_config, tiny_dataset
    ):
        images = tiny_dataset.train_images[:6]
        net = WTANetwork(tiny_config, 64)
        trainer = UnsupervisedTrainer(net)
        policy = AutosavePolicy(tmp_path / "auto.npz", every_images=1)
        log = trainer.train(images, engine="fused", epochs=2, autosave=policy)
        assert log.images_seen == 12
        fresh = WTANetwork(tiny_config, 64)
        with pytest.raises(CheckpointError, match="only 6"):
            UnsupervisedTrainer(fresh).train(
                images, engine="fused", epochs=1,
                resume_from=str(tmp_path / "auto.npz"),
            )

    def test_completed_run_resumes_to_noop(self, tmp_path, tiny_config, tiny_dataset):
        """Resuming a finished run trains zero further presentations."""
        images = tiny_dataset.train_images[:4]
        net = WTANetwork(tiny_config, 64)
        policy = AutosavePolicy(tmp_path / "auto.npz", every_images=1)
        UnsupervisedTrainer(net).train(images, engine="fused", autosave=policy)
        g_before = net.conductances.copy()
        fresh = WTANetwork(tiny_config, 64)
        log = UnsupervisedTrainer(fresh).train(
            images, engine="fused", resume_from=str(tmp_path / "auto.npz")
        )
        assert log.images_seen == 4
        assert np.array_equal(fresh.conductances, g_before)


class TestAutosavePolicy:
    def test_cadence(self, tmp_path, tiny_config, tiny_dataset):
        images = tiny_dataset.train_images[:6]
        net = WTANetwork(tiny_config, 64)
        policy = AutosavePolicy(tmp_path / "auto.npz", every_images=3)
        UnsupervisedTrainer(net).train(images, engine="fused", autosave=policy)
        assert policy.saves_written == 2  # boundaries 3 and 6
        assert load_run_checkpoint(tmp_path / "auto.npz").presentation_index == 6

    def test_invalid_cadence_rejected(self, tmp_path):
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="every_images"):
            AutosavePolicy(tmp_path / "x.npz", every_images=0)

    def test_extra_metadata_travels(self, tmp_path, tiny_config, tiny_dataset):
        images = tiny_dataset.train_images[:3]
        net = WTANetwork(tiny_config, 64)
        policy = AutosavePolicy(
            tmp_path / "auto.npz", every_images=1, extra={"dataset": "mnist"}
        )
        UnsupervisedTrainer(net).train(images, engine="fused", autosave=policy)
        assert load_run_checkpoint(tmp_path / "auto.npz").extra == {
            "dataset": "mnist"
        }


class TestCliResume:
    def test_run_autosave_then_resume_matches(self, tmp_path, capsys):
        """`repro run --autosave` then `repro resume` round-trips end to end."""
        from repro.cli import main

        ckpt = tmp_path / "cli.npz"
        common = [
            "--preset", "float32", "--dataset", "mnist",
            "--n-train", "6", "--n-test", "6", "--n-labeling", "4",
            "--neurons", "8", "--size", "8", "--epochs", "1",
            "--seed", "0", "--quiet",
        ]
        assert main(["run", *common, "--autosave", str(ckpt),
                     "--autosave-every", "2"]) == 0
        first = capsys.readouterr().out
        assert ckpt.exists()

        assert main(["resume", str(ckpt), "--quiet", "--no-autosave"]) == 0
        second = capsys.readouterr().out
        # The checkpoint sits at the last boundary, so the resumed run
        # replays nothing new and must land on the identical accuracy.
        def accuracy_line(out):
            return next(line for line in out.splitlines() if "accuracy" in line)

        assert accuracy_line(first).split()[-1] == accuracy_line(second).split()[-1]

    def test_resume_rejects_v1_checkpoint(
        self, tmp_path, tiny_config, tiny_dataset, capsys
    ):
        from repro.cli import main
        from repro.io.checkpoint import save_checkpoint

        net = WTANetwork(tiny_config, 64)
        UnsupervisedTrainer(net).train(tiny_dataset.train_images[:3])
        path = tmp_path / "v1.npz"
        save_checkpoint(path, net)
        assert main(["resume", str(path), "--quiet"]) != 0
        err = capsys.readouterr().err
        assert "learned state only" in err
