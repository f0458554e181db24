"""Lock-step evaluation of the gather kernels (``LockstepEvaluation``).

``fused`` and ``qfused`` evaluate a chunk of images at a time.  The
contract is bit-identity with the per-image loop of
:meth:`PresentationEngine.collect_responses` on the same engine class: the
same responses, the same RNG stream positions and network state after the
call, and the sentinel and progress sink called once per presentation with
the same arguments.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.backend import asnumpy, use_backend
from repro.backend.guard import reset_counters, transfer_stats
from repro.config.parameters import QuantizationConfig, RoundingMode
from repro.config.presets import get_preset
from repro.datasets.dataset import load_dataset
from repro.encoding.events import sparsify
from repro.engine.event_train import LOCKSTEP_IMAGES, EventPresentation, LockstepChunk
from repro.engine.presentation import FusedEngine, PresentationEngine, QFusedEngine
from repro.errors import NumericHealthError
from repro.network.wta import WTANetwork
from repro.pipeline.progress import NullProgress
from repro.pipeline.trainer import UnsupervisedTrainer
from repro.resilience.sentinel import NumericHealthSentinel

ENGINES = {"fused": FusedEngine, "qfused": QFusedEngine}


@pytest.fixture(scope="module")
def digits():
    """8x8 digits: a few to train on, more test images than one chunk."""
    return load_dataset("mnist", n_train=4, n_test=LOCKSTEP_IMAGES + 5, size=8, seed=5)


def _config(**wta):
    cfg = get_preset("float32", n_neurons=16, seed=2)
    cfg = replace(cfg, simulation=replace(cfg.simulation, t_learn_ms=50.0, t_rest_ms=5.0))
    return replace(cfg, wta=replace(cfg.wta, **wta)) if wta else cfg


def _trained(config, images, engine):
    net = WTANetwork(config, n_pixels=images[0].size)
    UnsupervisedTrainer(net).train(images, engine=engine)
    return net


def _state(net):
    """Everything an evaluation could leave behind in the network."""
    return {
        "rngs": net.rngs.state_dict(),
        "v": net.neurons.v.copy(),
        "current": net._current.copy(),
        "refractory": net.neurons._refractory_left.copy(),
        "inhibited": net.neurons._inhibited_left.copy(),
        "last_pre": net.timers.last_pre.copy(),
        "last_post": net.timers.last_post.copy(),
        "theta": net.neurons.theta.copy(),
        "conductances": net.conductances.copy(),
        "learning": net.learning_enabled,
        "adaptation": net.neurons.adaptation,
    }


def _assert_same_state(a, b):
    assert a.keys() == b.keys()
    for key in a:
        if isinstance(a[key], np.ndarray):
            assert np.array_equal(a[key], b[key], equal_nan=True), key
        else:
            assert a[key] == b[key], key


def _loop_and_lockstep(net, engine, images, t_present_ms=50.0):
    """Responses and after-state of the per-image loop, then of lock-step, from one start."""
    start = net.rngs.state_dict()
    kernel = ENGINES[engine](net)
    loop = PresentationEngine.collect_responses(kernel, images, t_present_ms)
    loop_state = _state(net)
    net.rngs.load_state_dict(start)
    lockstep = kernel.collect_responses(images, t_present_ms)
    _assert_same_state(loop_state, _state(net))
    return loop, lockstep


def _assert_bit_identical(config, digits, engine, train_engine=None, images=None):
    net = _trained(config, digits.train_images, train_engine or engine)
    images = digits.test_images[:6] if images is None else images
    loop, lockstep = _loop_and_lockstep(net, engine, images)
    assert loop.sum() > 0  # the comparison is not vacuous
    assert np.array_equal(loop, lockstep)


class TestBitIdenticalToPerImageLoop:
    def test_row_order_sums_on_high_frequency_input(self):
        """Float high-frequency input at 16x16: most image-steps gather two or
        more rows.  The chunk sums them in the kernel's row order, so its
        membranes and currents at the end of every presentation equal the
        gather kernel's bit for bit, and so do the responses."""
        data = load_dataset("mnist", n_train=3, n_test=5, size=16, seed=5)
        cfg = get_preset("high_frequency", n_neurons=16, seed=2)
        net = _trained(cfg, data.train_images, "fused")
        start = net.rngs.state_dict()
        dt = cfg.simulation.dt_ms
        n_steps = int(round(cfg.simulation.t_learn_ms / dt))

        kernel = EventPresentation(net)
        expected = []
        with net.evaluation_mode():
            for image in data.test_images:
                kernel.run(image, 0.0, n_steps, dt)
                expected.append((net.neurons.v.copy(), net._current.copy()))
                net.rest()
        net.rngs.load_state_dict(start)
        with net.evaluation_mode():
            events = []
            for image in data.test_images:
                net.present_image(image)
                raster = net.encoder.generate_train(n_steps, dt, net.rngs.encoding)
                events.append(sparsify(raster))
                net.rest()
            chunk = LockstepChunk(net, len(events), dt)
            chunk.run(events)
        gathered = np.concatenate([np.diff(e.offsets) for e in events])
        assert np.mean(gathered >= 2) >= 0.8
        for i, (v, current) in enumerate(expected):
            assert np.array_equal(asnumpy(chunk._v[i]), v)
            assert np.array_equal(asnumpy(chunk._current[i]), current)

        net.rngs.load_state_dict(start)
        loop, lockstep = _loop_and_lockstep(
            net, "fused", data.test_images, cfg.simulation.t_learn_ms
        )
        assert loop.sum() > 0
        assert np.array_equal(loop, lockstep)

    @pytest.mark.parametrize("engine", ["fused", "qfused"])
    @pytest.mark.parametrize(
        "fmt, rounding",
        [("Q1.7", RoundingMode.STOCHASTIC), ("Q8.8", RoundingMode.NEAREST)],
        ids=["Q1.7-stochastic", "Q8.8-nearest"],
    )
    def test_fixed_point_formats(self, digits, engine, fmt, rounding):
        cfg = replace(_config(), quantization=QuantizationConfig(fmt=fmt, rounding=rounding))
        _assert_bit_identical(cfg, digits, engine, train_engine="qfused")

    @pytest.mark.parametrize(
        "wta",
        [
            {},
            {"synapse_model": "conductance"},
            {"inhibition_strength": 0.0},
            {"single_winner": False},
            {"single_winner": False, "inhibition_strength": 0.0},
            {"t_inh_ms": 0.0},
        ],
        ids=["subtractive", "conductance", "blocking", "all-winners",
             "all-winners-blocking", "no-inhibition"],
    )
    def test_network_variants(self, digits, wta):
        _assert_bit_identical(_config(**wta), digits, "fused")

    def test_tied_contenders_go_to_the_lowest_index(self, digits):
        """Identical neurons cross together with equal currents: the
        single winner is the first contender, as in the kernels."""
        net = _trained(_config(), digits.train_images, "fused")
        net.conductances[:] = net.conductances[:, :1]
        net.neurons.theta[:] = net.neurons.theta[0]
        loop, lockstep = _loop_and_lockstep(net, "fused", digits.test_images[:4])
        assert loop[:, 0].sum() > 0 and not loop[:, 1:].any()
        assert np.array_equal(loop, lockstep)

    @pytest.mark.parametrize("engine", ["fused", "qfused"])
    def test_zero_background_with_a_black_image(self, digits, engine):
        """At f_min=0 an all-black image draws no input events at all."""
        cfg = _config()
        cfg = replace(cfg, encoding=replace(cfg.encoding, f_min_hz=0.0, f_max_hz=10.0))
        if engine == "qfused":
            cfg = replace(cfg, quantization=QuantizationConfig(fmt="Q1.7"))
        images = digits.test_images[:5].copy()
        images[2] = 0
        _assert_bit_identical(cfg, digits, engine, images=images)

    def test_batch_larger_than_the_chunk(self, digits):
        images = digits.test_images
        assert images.shape[0] > LOCKSTEP_IMAGES
        _assert_bit_identical(_config(), digits, "fused", images=images)

    def test_evaluation_does_not_present_through_run(self, digits, monkeypatch):
        net = _trained(_config(), digits.train_images, "fused")

        def refuse(*args, **kwargs):
            raise AssertionError("lock-step evaluation called run()")

        monkeypatch.setattr(FusedEngine, "run", refuse)
        responses = FusedEngine(net).collect_responses(digits.test_images[:3], 50.0)
        assert responses.sum() > 0


class _RecordingProgress(NullProgress):
    def __init__(self):
        self.calls = []

    def start(self, total, label):
        self.calls.append(("start", total, label))

    def update(self, done, note=""):
        self.calls.append(("update", done, note))

    def finish(self):
        self.calls.append(("finish",))


class _RecordingSentinel:
    """Logs its arguments and the membranes and currents it is shown."""

    def __init__(self):
        self.calls = []

    def after_presentation(self, network, t_ms, presentation_index):
        self.calls.append(
            (t_ms, presentation_index, network.neurons.v.copy(), network._current.copy())
        )


def _collect(engine, lockstep, *args, **kwargs):
    """The engine's own evaluation (lock-step) or the base-class per-image loop."""
    collect = type(engine).collect_responses if lockstep else PresentationEngine.collect_responses
    return collect(engine, *args, **kwargs)


class TestCallbacks:
    def test_sentinel_and_progress_see_the_same_calls(self, digits):
        net = _trained(_config(), digits.train_images, "fused")
        images = digits.test_images[: LOCKSTEP_IMAGES + 2]
        start = net.rngs.state_dict()
        seen = []
        for lockstep in (False, True):
            net.rngs.load_state_dict(start)
            progress, sentinel = _RecordingProgress(), _RecordingSentinel()
            engine = FusedEngine(net).attach_sentinel(sentinel)
            _collect(engine, lockstep, images, 50.0, progress=progress, label="probe")
            seen.append((progress.calls, sentinel.calls))
        (progress_loop, sentinel_loop), (progress_lockstep, sentinel_lockstep) = seen
        assert progress_loop == progress_lockstep
        assert len(progress_loop) == images.shape[0] + 2  # start, updates, finish
        assert len(sentinel_loop) == len(sentinel_lockstep) == images.shape[0]
        for a, b in zip(sentinel_loop, sentinel_lockstep):
            assert a[:2] == b[:2]
            assert np.array_equal(a[2], b[2]) and np.array_equal(a[3], b[3])

    def test_sentinel_trip_leaves_streams_where_the_loop_does(self, digits):
        net = _trained(_config(), digits.train_images, "fused")
        net.neurons.theta[0] = np.nan
        start = net.rngs.state_dict()
        tripped = []
        for lockstep in (False, True):
            net.rngs.load_state_dict(start)
            engine = FusedEngine(net).attach_sentinel(NumericHealthSentinel(cadence=3))
            with pytest.raises(NumericHealthError) as trip:
                _collect(engine, lockstep, digits.test_images, 50.0)
            tripped.append((trip.value.snapshot["presentation_index"], _state(net)))
        (index_loop, loop), (index_lockstep, lockstep) = tripped
        assert index_loop == index_lockstep == 2
        _assert_same_state(loop, lockstep)


class TestGuardBackend:
    @pytest.mark.parametrize("engine", ["fused", "qfused"])
    def test_bit_identical_clean_and_transfers_independent_of_steps(self, digits, engine):
        cfg = _config()
        if engine == "qfused":
            cfg = replace(cfg, quantization=QuantizationConfig(fmt="Q1.7"))
        net = _trained(cfg, digits.train_images, engine)
        start = net.rngs.state_dict()
        images = digits.test_images

        def collect(backend, t_present_ms):
            net.rngs.load_state_dict(start)
            with use_backend(backend):
                kernel = ENGINES[engine](net)
                reset_counters()
                responses = kernel.collect_responses(images, t_present_ms)
                return responses, transfer_stats()

        host, _ = collect("numpy", 50.0)
        device, stats = collect("guard", 50.0)
        _, longer = collect("guard", 100.0)
        assert host.sum() > 0
        assert np.array_equal(host, device)
        assert stats.violations == 0 and longer.violations == 0
        assert stats.h2d > 0 and stats.d2h > 0
        assert stats.h2d == longer.h2d
