"""Tests for the step profiler."""

import time
from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig
from repro.config.presets import get_preset
from repro.engine.presentation import ReferenceEngine
from repro.engine.profiler import StepProfiler, profile_presentation, profile_wta_step
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

    def test_shares_sum_to_one(self):
        profiler = StepProfiler()
        with profiler.section("a"):
            time.sleep(0.002)
        with profiler.section("b"):
            time.sleep(0.001)
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

    def test_add_accumulates_raw_spans(self):
        profiler = StepProfiler()
        profiler.add("stdp", 0.25)
        profiler.add("stdp", 0.75, calls=2)
        assert profiler.totals["stdp"] == pytest.approx(1.0)
        assert profiler.rows()[0][3] == 3

    def test_add_mixes_with_sections(self):
        profiler = StepProfiler()
        with profiler.section("mixed"):
            pass
        profiler.add("mixed", 1.0, calls=0)
        assert profiler.totals["mixed"] >= 1.0
        assert profiler.rows()[0][3] == 1  # calls=0 span added no call

    def test_add_rejects_negative_time(self):
        with pytest.raises(SimulationError):
            StepProfiler().add("x", -0.1)


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


class TestPresentationProfile:
    KERNEL_SECTIONS = {"encode", "integrate", "stdp", "wta"}

    @pytest.mark.parametrize("engine", ["fused", "qfused"])
    def test_kernel_sections(self, tiny_config, tiny_dataset, engine):
        config = tiny_config
        if engine == "qfused":
            config = replace(config, quantization=QuantizationConfig(fmt="Q1.7"))
        net = WTANetwork(config, 64)
        profiler = profile_presentation(
            net, tiny_dataset.train_images[0], engine=engine, n_steps=50
        )
        assert set(profiler.totals) == self.KERNEL_SECTIONS
        assert profiler.total_seconds() > 0

    def test_presentation_really_trains(self, tiny_config):
        net = WTANetwork(tiny_config, 64)
        before = net.conductances.copy()
        profile_presentation(
            net, np.full((8, 8), 255, dtype=np.uint8), engine="fused", n_steps=200
        )
        assert not np.array_equal(net.conductances, before)

    @pytest.mark.parametrize("synapse_model", ["current", "conductance"])
    def test_reference_profile_matches_reference_engine(self, tiny_dataset, synapse_model):
        """The profiled reference presentation is the reference engine's,
        driving force included: same conductances and thresholds."""
        cfg = get_preset("high_frequency", n_neurons=16, seed=3)
        cfg = replace(cfg, wta=replace(cfg.wta, synapse_model=synapse_model))
        image = tiny_dataset.train_images[0]
        profiled = WTANetwork(cfg, 64)
        profile_presentation(profiled, image, engine="reference", n_steps=100)
        stepped = WTANetwork(cfg, 64)
        ReferenceEngine(stepped).run(image, 0.0, 100, 1.0)
        stepped.rest()
        assert not np.array_equal(stepped.conductances, WTANetwork(cfg, 64).conductances)
        assert np.array_equal(profiled.conductances, stepped.conductances)
        assert np.array_equal(profiled.neurons.theta, stepped.neurons.theta)

    def test_reference_engine_delegates(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        profiler = profile_presentation(
            net, tiny_dataset.train_images[0], engine="reference", n_steps=50
        )
        assert set(profiler.totals) == {"encode", "propagate", "neurons", "learning"}

    def test_unknown_engine_rejected(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(SimulationError):
            profile_presentation(net, tiny_dataset.train_images[0], engine="warp")

    def test_invalid_steps(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(SimulationError):
            profile_presentation(net, tiny_dataset.train_images[0], n_steps=0)
