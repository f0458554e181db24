"""Numeric-health sentinel: silent corruption becomes a loud, typed error."""

import numpy as np
import pytest

from repro.engine.registry import create_engine
from repro.errors import ConfigurationError, NumericHealthError
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience import NumericHealthSentinel
from repro.resilience.faults import install_faulty_engine, uninstall_faulty_engine


@pytest.fixture
def net(tiny_config):
    return WTANetwork(tiny_config, 64)


class TestConstruction:
    def test_cadence_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="cadence"):
            NumericHealthSentinel(cadence=0)

    def test_theta_ceiling_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="theta_ceiling"):
            NumericHealthSentinel(theta_ceiling=0.0)


class TestInvariants:
    def test_clean_network_passes(self, net):
        sentinel = NumericHealthSentinel()
        sentinel.check(net)
        assert sentinel.checks_run == 1

    def test_nan_membrane_potential(self, net):
        net.neurons.v[0] = np.nan
        with pytest.raises(NumericHealthError, match="finite-membrane"):
            NumericHealthSentinel().check(net)

    def test_inf_synaptic_current(self, net):
        net._current[1] = np.inf
        with pytest.raises(NumericHealthError, match="finite-membrane"):
            NumericHealthSentinel().check(net)

    def test_conductance_above_range(self, net):
        net.synapses.g[0, 0] = net.synapses.g_max + 1e3
        with pytest.raises(NumericHealthError, match="conductance-range"):
            NumericHealthSentinel().check(net)

    def test_nan_conductance(self, net):
        net.synapses.g[2, 1] = np.nan
        with pytest.raises(NumericHealthError, match="conductance-range"):
            NumericHealthSentinel().check(net)

    def test_nan_theta(self, net):
        net.neurons.theta[0] = np.nan
        with pytest.raises(NumericHealthError, match="theta-health"):
            NumericHealthSentinel().check(net)

    def test_negative_theta(self, net):
        net.neurons.theta[3] = -0.5
        with pytest.raises(NumericHealthError, match="theta-health"):
            NumericHealthSentinel().check(net)

    def test_theta_above_ceiling(self, net):
        net.neurons.theta[0] = 2.0
        with pytest.raises(NumericHealthError, match="degeneracy"):
            NumericHealthSentinel(theta_ceiling=1.0).check(net)
        # The same state is healthy under the default ceiling.
        NumericHealthSentinel().check(net)


class TestSnapshot:
    def test_snapshot_carries_diagnostics(self, net):
        net.neurons.theta[0] = np.nan
        net.neurons.v[1] = np.inf
        with pytest.raises(NumericHealthError) as exc:
            NumericHealthSentinel().check(net, t_ms=123.0, presentation_index=4)
        snap = exc.value.snapshot
        assert len(snap["violations"]) == 2
        assert snap["t_ms"] == 123.0
        assert snap["presentation_index"] == 4
        assert snap["stats"]["theta"]["n_nonfinite"] == 1
        assert snap["stats"]["v"]["n_nonfinite"] == 1
        assert set(snap["arrays"]) == {"theta", "v"}
        assert np.isnan(snap["arrays"]["theta"][0])

    def test_arrays_omitted_when_disabled(self, net):
        net.neurons.theta[0] = np.nan
        with pytest.raises(NumericHealthError) as exc:
            NumericHealthSentinel(snapshot_arrays=False).check(net)
        assert "arrays" not in exc.value.snapshot
        assert "stats" in exc.value.snapshot


class TestCadence:
    def test_checks_every_nth_boundary(self, net):
        sentinel = NumericHealthSentinel(cadence=3)
        for i in range(7):
            sentinel.after_presentation(net, t_ms=float(i), presentation_index=i)
        assert sentinel.presentations_seen == 7
        assert sentinel.checks_run == 2  # boundaries 3 and 6

    def test_violation_caught_within_one_window(self, net):
        sentinel = NumericHealthSentinel(cadence=2)
        sentinel.after_presentation(net, 0.0, 0)  # boundary 1: no check yet
        net.neurons.theta[0] = np.nan
        with pytest.raises(NumericHealthError):
            sentinel.after_presentation(net, 1.0, 1)


class TestIntegration:
    def test_trainer_surfaces_poisoned_run(self, tiny_config, tiny_dataset):
        """A fault poisoning theta mid-run is caught at the next boundary."""
        install_faulty_engine(inner="fused", fail_at=2, mode="nan")
        try:
            net = WTANetwork(tiny_config, 64)
            with pytest.raises(NumericHealthError) as exc:
                UnsupervisedTrainer(net).train(
                    tiny_dataset.train_images[:4],
                    engine="faulty",
                    sentinel=NumericHealthSentinel(cadence=1),
                )
            assert exc.value.snapshot["presentation_index"] == 1
        finally:
            uninstall_faulty_engine()

    @pytest.mark.parametrize("engine_name", ["reference", "fused"])
    def test_evaluation_loop_checks_boundaries(
        self, tiny_config, tiny_dataset, engine_name
    ):
        net = WTANetwork(tiny_config, 64)
        engine = create_engine(engine_name, net).attach_sentinel(
            NumericHealthSentinel(cadence=1)
        )
        net.neurons.theta[0] = np.nan
        with pytest.raises(NumericHealthError):
            engine.collect_responses(
                tiny_dataset.train_images[:2],
                t_present_ms=tiny_config.simulation.t_learn_ms,
            )

    def test_batched_engine_checks_after_batch(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        engine = create_engine("batched", net).attach_sentinel(
            NumericHealthSentinel()
        )
        net.neurons.theta[0] = np.nan
        with pytest.raises(NumericHealthError):
            engine.collect_responses(
                tiny_dataset.train_images[:2],
                t_present_ms=tiny_config.simulation.t_learn_ms,
            )

    def test_detached_sentinel_is_inert(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        engine = create_engine("fused", net)
        engine.attach_sentinel(NumericHealthSentinel()).attach_sentinel(None)
        net.neurons.theta[0] = 0.0  # healthy; just proving the loop runs
        responses = engine.collect_responses(
            tiny_dataset.train_images[:2],
            t_present_ms=tiny_config.simulation.t_learn_ms,
        )
        assert responses.shape == (2, tiny_config.wta.n_neurons)
