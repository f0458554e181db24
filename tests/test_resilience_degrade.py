"""Graceful engine degradation: qfused -> fused -> reference.

A faulting accelerated engine must not take the run down with it: the
trainer rolls the network back to the presentation boundary, drops one
tier, re-presents the image, and warns loudly.  Because the qfused and
fused kernels are both bit-identical to the reference kernel, under every
rounding option, a degraded run must land on exactly the weights an
undegraded run would have produced.
"""

import warnings
from dataclasses import replace

import numpy as np
import pytest

from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.engine.registry import create_training_engine
from repro.errors import NumericHealthError, SimulationError
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import Evaluator
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience import (
    DEGRADATION_CHAIN,
    EngineDegradedWarning,
    NumericHealthSentinel,
    degradation_path,
    next_tier,
)
from repro.resilience.explore import scenario_config, scenario_images
from repro.resilience.faults import (
    InjectedFault,
    install_faulty_chain,
    uninstall_faulty_chain,
    install_faulty_engine,
    uninstall_faulty_engine,
)


class TestNextTier:
    def test_chain(self):
        assert DEGRADATION_CHAIN == {
            "qfused": "fused",
            "fused": "reference",
            # Retired engine names, walked to the engines that replaced them.
            "qevent": "qfused",
            "event": "fused",
        }
        assert next_tier("qevent") == "qfused"
        assert next_tier("qfused") == "fused"
        assert next_tier("event") == "fused"
        assert next_tier("fused") == "reference"
        assert next_tier("reference") is None
        assert next_tier("nonexistent") is None

    def test_engine_override_wins(self):
        class _Stub:
            degrade_to = "reference"

        assert next_tier("qfused", _Stub()) == "reference"

    def test_engine_without_override_falls_back_to_chain(self):
        class _Stub:
            pass

        assert next_tier("qfused", _Stub()) == "fused"

    def test_degradation_path_walks_the_chain_inclusively(self):
        assert degradation_path("qfused") == ["qfused", "fused", "reference"]
        assert degradation_path("qevent") == [
            "qevent", "qfused", "fused", "reference",
        ]
        assert degradation_path("reference") == ["reference"]
        assert degradation_path("nonexistent") == ["nonexistent"]


def _train_plain(config, images, engine):
    net = WTANetwork(config, images[0].size)
    log = UnsupervisedTrainer(net).train(images, engine=engine)
    return net, log


def _train_degraded(config, images, inner, fail_at):
    install_faulty_engine(inner=inner, fail_at=fail_at, mode="raise")
    try:
        net = WTANetwork(config, images[0].size)
        with pytest.warns(EngineDegradedWarning, match="degrading to"):
            log = UnsupervisedTrainer(net).train(
                images, engine="faulty", on_engine_fault="degrade"
            )
        return net, log
    finally:
        uninstall_faulty_engine()


class TestDegradedRuns:
    def test_fused_degrades_to_reference_bit_identically(
        self, tiny_config, tiny_dataset
    ):
        images = tiny_dataset.train_images[:6]
        baseline, base_log = _train_plain(tiny_config, images, "fused")
        degraded, log = _train_degraded(tiny_config, images, "fused", fail_at=3)
        assert np.array_equal(degraded.conductances, baseline.conductances)
        assert np.array_equal(degraded.neurons.theta, baseline.neurons.theta)
        assert log.spikes_per_image == base_log.spikes_per_image
        assert log.images_seen == base_log.images_seen

    def test_qfused_degrades_to_fused(self, tiny_config, tiny_dataset):
        config = replace(
            tiny_config,
            quantization=QuantizationConfig(fmt="Q1.7", rounding=RoundingMode.NEAREST),
        )
        images = tiny_dataset.train_images[:6]
        baseline, base_log = _train_plain(config, images, "fused")
        degraded, log = _train_degraded(config, images, "qfused", fail_at=2)
        # Under nearest rounding qfused steps the same arithmetic as fused,
        # so the degraded run lands on the clean fused run bit for bit.
        assert log.spikes_per_image == base_log.spikes_per_image
        assert np.array_equal(degraded.conductances, baseline.conductances)
        assert np.array_equal(degraded.neurons.theta, baseline.neurons.theta)

    def test_qfused_degrades_to_fused_under_16_bit_stochastic_rounding(
        self, tiny_config, tiny_dataset
    ):
        """At Q1.15 eq. 8 draws from ``learning``, in qfused and fused alike,
        so the rolled-back stream replays the same draws on the fused tier."""
        config = replace(
            tiny_config,
            quantization=QuantizationConfig(fmt="Q1.15", rounding=RoundingMode.STOCHASTIC),
        )
        images = tiny_dataset.train_images[:6]
        baseline, base_log = _train_plain(config, images, "fused")
        degraded, log = _train_degraded(config, images, "qfused", fail_at=2)
        assert log.spikes_per_image == base_log.spikes_per_image
        assert np.array_equal(degraded.conductances, baseline.conductances)
        assert np.array_equal(degraded.neurons.theta, baseline.neurons.theta)
        assert degraded.rngs.state_dict() == baseline.rngs.state_dict()

    def test_fault_on_first_presentation(self, tiny_config, tiny_dataset):
        images = tiny_dataset.train_images[:4]
        baseline, _ = _train_plain(tiny_config, images, "fused")
        degraded, _ = _train_degraded(tiny_config, images, "fused", fail_at=1)
        assert np.array_equal(degraded.conductances, baseline.conductances)


class _FaultAfterLearning:
    """A kernel wrapper that presents the image — moving conductances,
    thresholds, membranes and RNG streams — and only then raises, once, at
    presentation *fail_at*.  The injected engines fault before the kernel
    runs; this one leaves the rollback something to undo."""

    name = "faults-after-learning"
    degrade_to = "reference"

    def __init__(self, network, inner, fail_at):
        self._kernel = create_training_engine(inner, network)
        self._fail_at = fail_at
        self._runs = 0

    def run(self, image, t_ms, n_steps, dt_ms):
        self._runs += 1
        result = self._kernel.run(image, t_ms, n_steps, dt_ms)
        if self._runs == self._fail_at:
            raise InjectedFault("engine fault after the presentation learned")
        return result


class TestRollback:
    @pytest.mark.parametrize("inner,quantized", [("fused", False), ("qfused", True)])
    def test_fault_after_learning_rolls_back_to_the_boundary(
        self, tiny_config, tiny_dataset, inner, quantized
    ):
        config = tiny_config
        if quantized:
            config = replace(
                tiny_config,
                quantization=QuantizationConfig(
                    fmt="Q1.7", rounding=RoundingMode.STOCHASTIC
                ),
            )
        images = tiny_dataset.train_images[:6]
        baseline, base_log = _train_plain(config, images, "reference")
        net = WTANetwork(config, images[0].size)
        kernel = _FaultAfterLearning(net, inner, fail_at=3)
        with pytest.warns(EngineDegradedWarning, match="degrading to 'reference'"):
            log = UnsupervisedTrainer(net).train(
                images, engine=kernel, on_engine_fault="degrade"
            )
        assert log.spikes_per_image == base_log.spikes_per_image
        assert np.array_equal(net.conductances, baseline.conductances)
        assert np.array_equal(net.neurons.theta, baseline.neurons.theta)
        assert net.rngs.state_dict() == baseline.rngs.state_dict()


class TestFullChainWalk:
    def test_qfused_cascades_to_reference_bit_identically(self):
        """One run walks the entire ladder qfused → fused → reference: each
        tier faults on the boundary replay, emitting one
        :class:`EngineDegradedWarning` per hop, and the survivor run lands
        on exactly the clean reference trajectory — weights, thresholds,
        spike log and final inference responses all bit for bit.

        The workload trains Q1.7 with stochastic rounding, the fixed-point
        presets' default; every tier rounds eq. 8 on the same ``learning``
        draws, so the quantized tiers stay code-exact.
        """
        images = scenario_images()
        config = scenario_config("qfused")

        clean = WTANetwork(config, images[0].size)
        clean_log = UnsupervisedTrainer(clean).train(images, engine="reference")
        clean_responses = Evaluator(
            clean, engine="reference"
        ).collect_responses(images)

        chain = ["qfused", "fused"]
        names = install_faulty_chain(chain, fail_at=3)
        try:
            net = WTANetwork(config, images[0].size)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                log = UnsupervisedTrainer(net).train(
                    images, engine=names[0], on_engine_fault="degrade"
                )
        finally:
            uninstall_faulty_chain(chain)

        hops = [
            w for w in caught if issubclass(w.category, EngineDegradedWarning)
        ]
        assert len(hops) == 2  # one warning per tier dropped
        assert np.array_equal(net.conductances, clean.conductances)
        assert np.array_equal(net.neurons.theta, clean.neurons.theta)
        assert log.spikes_per_image == clean_log.spikes_per_image
        responses = Evaluator(net, engine="reference").collect_responses(images)
        assert np.array_equal(responses, clean_responses)


class TestNoDegradationCases:
    def test_reference_has_no_fallback(self, tiny_config, tiny_dataset):
        install_faulty_engine(inner="reference", fail_at=2, mode="raise")
        try:
            net = WTANetwork(tiny_config, 64)
            with pytest.raises(InjectedFault):
                UnsupervisedTrainer(net).train(
                    tiny_dataset.train_images[:4],
                    engine="faulty",
                    on_engine_fault="degrade",
                )
        finally:
            uninstall_faulty_engine()

    def test_default_mode_propagates(self, tiny_config, tiny_dataset):
        install_faulty_engine(inner="fused", fail_at=2, mode="raise")
        try:
            net = WTANetwork(tiny_config, 64)
            with pytest.raises(InjectedFault):
                UnsupervisedTrainer(net).train(
                    tiny_dataset.train_images[:4], engine="faulty"
                )
        finally:
            uninstall_faulty_engine()

    def test_numeric_health_error_is_never_degraded(
        self, tiny_config, tiny_dataset
    ):
        """Poisoned numerics mean suspect state — degrading would hide it."""
        install_faulty_engine(inner="fused", fail_at=2, mode="nan")
        try:
            net = WTANetwork(tiny_config, 64)
            with warnings.catch_warnings():
                warnings.simplefilter("error", EngineDegradedWarning)
                with pytest.raises(NumericHealthError):
                    UnsupervisedTrainer(net).train(
                        tiny_dataset.train_images[:4],
                        engine="faulty",
                        on_engine_fault="degrade",
                        sentinel=NumericHealthSentinel(cadence=1),
                    )
        finally:
            uninstall_faulty_engine()

    def test_invalid_mode_rejected(self, tiny_config, tiny_dataset):
        net = WTANetwork(tiny_config, 64)
        with pytest.raises(SimulationError, match="on_engine_fault"):
            UnsupervisedTrainer(net).train(
                tiny_dataset.train_images[:2], on_engine_fault="retry"
            )
