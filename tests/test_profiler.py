"""Tests for the step profiler."""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.config.presets import get_preset
from repro.engine.presentation import ReferenceEngine
from repro.engine.profiler import StepProfiler, profile_wta_step
from repro.errors import SimulationError
from repro.network.wta import WTANetwork


class TestStepProfiler:
    def test_sections_accumulate(self):
        profiler = StepProfiler()
        for _ in range(3):
            with profiler.section("work"):
                time.sleep(0.001)
        assert profiler.totals["work"] >= 0.003
        rows = profiler.rows()
        assert rows[0][0] == "work"
        assert rows[0][3] == 3

    def test_shares_sum_to_one(self, monkeypatch):
        # A scripted clock: "a" lasts 2 ticks and "b" 1, whatever the load.
        ticks = iter([0.0, 2.0, 2.0, 3.0])
        monkeypatch.setattr("repro.engine.profiler.time.perf_counter", lambda: next(ticks))
        profiler = StepProfiler()
        with profiler.section("a"):
            pass
        with profiler.section("b"):
            pass
        shares = [row[2] for row in profiler.rows()]
        assert sum(shares) == pytest.approx(1.0)
        assert profiler.rows()[0][0] == "a"  # largest first

    def test_exception_still_recorded(self):
        profiler = StepProfiler()
        with pytest.raises(ValueError):
            with profiler.section("boom"):
                raise ValueError("x")
        assert "boom" in profiler.totals

    def test_table_and_reset(self):
        profiler = StepProfiler()
        with profiler.section("x"):
            pass
        assert "x" in profiler.table(title="T")
        profiler.reset()
        with pytest.raises(SimulationError):
            profiler.table()


class TestWtaProfile:
    def test_profiles_all_phases(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        profiler = profile_wta_step(net, tiny_dataset.train_images[0], n_steps=50)
        assert set(profiler.totals) == {"encode", "propagate", "neurons", "learning"}
        assert profiler.total_seconds() > 0

    def test_network_state_consistent_afterwards(self, tiny_config, tiny_dataset):
        """Profiling mirrors advance(): learning actually happens."""
        net = WTANetwork(tiny_config, 64)
        before = net.conductances.copy()
        profile_wta_step(net, np.full((8, 8), 255, dtype=np.uint8), n_steps=200)
        assert not np.array_equal(net.conductances, before)

    def test_invalid_steps(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(SimulationError):
            profile_wta_step(net, tiny_dataset.train_images[0], n_steps=0)

    @pytest.mark.parametrize("synapse_model", ["current", "conductance"])
    def test_reference_profile_matches_reference_engine(self, tiny_dataset, synapse_model):
        """The profiled presentation is the reference engine's, driving
        force included: same conductances and thresholds."""
        cfg = get_preset("high_frequency", n_neurons=16, seed=3)
        cfg = replace(cfg, wta=replace(cfg.wta, synapse_model=synapse_model))
        image = tiny_dataset.train_images[0]
        profiled = WTANetwork(cfg, 64)
        profile_wta_step(profiled, image, n_steps=100)
        stepped = WTANetwork(cfg, 64)
        ReferenceEngine(stepped).run(image, 0.0, 100, 1.0)
        stepped.rest()
        assert not np.array_equal(stepped.conductances, WTANetwork(cfg, 64).conductances)
        assert np.array_equal(profiled.conductances, stepped.conductances)
        assert np.array_equal(profiled.neurons.theta, stepped.neurons.theta)
