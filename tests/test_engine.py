"""Tests for the named RNG streams."""

import numpy as np
import pytest

from repro.engine.rng import STREAM_NAMES, RngStreams
from repro.errors import SimulationError


class TestRngStreams:
    def test_all_streams_exist(self):
        streams = RngStreams(0)
        for name in STREAM_NAMES:
            assert isinstance(streams.get(name), np.random.Generator)

    def test_streams_independent(self):
        streams = RngStreams(0)
        a = streams.encoding.random(5)
        b = streams.learning.random(5)
        assert not np.allclose(a, b)

    def test_same_seed_same_streams(self):
        a = RngStreams(7).learning.random(10)
        b = RngStreams(7).learning.random(10)
        assert np.array_equal(a, b)

    def test_different_seed_different_streams(self):
        a = RngStreams(7).learning.random(10)
        b = RngStreams(8).learning.random(10)
        assert not np.array_equal(a, b)

    def test_consuming_one_stream_leaves_others_untouched(self):
        ref = RngStreams(3).learning.random(4)
        streams = RngStreams(3)
        streams.encoding.random(1000)  # burn the encoding stream
        assert np.array_equal(streams.learning.random(4), ref)

    def test_unknown_stream_rejected(self):
        with pytest.raises(SimulationError):
            RngStreams(0).get("nope")
        with pytest.raises(AttributeError):
            RngStreams(0).nope

    def test_non_integer_seed_rejected(self):
        with pytest.raises(SimulationError):
            RngStreams(1.5)

    def test_negative_seed_rejected(self):
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            RngStreams(-1)

    def test_negative_reseed_rejected(self):
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            RngStreams(0).reseed(-1)

    def test_negative_seed_in_state_dict_rejected(self):
        state = RngStreams(0).state_dict()
        state["seed"] = -1
        with pytest.raises(SimulationError, match="non-negative, got -1"):
            RngStreams(0).load_state_dict(state)

    def test_state_dict_covers_every_stream(self):
        state = RngStreams(0).state_dict()
        assert sorted(state["streams"]) == sorted(STREAM_NAMES)

    def test_six_streams_are_the_first_spawn_children_of_seven(self):
        """Retiring the last of seven streams re-seeds none of the others."""
        children = np.random.SeedSequence(11).spawn(7)[:6]
        streams = RngStreams(11)
        assert len(STREAM_NAMES) == 6
        for name, child in zip(STREAM_NAMES, children):
            assert np.array_equal(
                streams.get(name).random(4), np.random.default_rng(child).random(4)
            )

    def test_load_ignores_the_retired_qrounding_entry(self):
        """v2 checkpoints of earlier versions also hold a ``qrounding``
        stream; they still load, and the six streams resume exactly."""
        streams = RngStreams(5)
        streams.learning.random(3)
        state = streams.state_dict()
        retired = np.random.default_rng(np.random.SeedSequence(5).spawn(7)[6])
        state["streams"]["qrounding"] = retired.bit_generator.state
        restored = RngStreams(0)
        restored.load_state_dict(state)
        assert restored.state_dict() == streams.state_dict()
        assert np.array_equal(restored.learning.random(4), streams.learning.random(4))

    def test_retired_qrounding_stream_is_unknown(self):
        streams = RngStreams(0)
        with pytest.raises(SimulationError, match="qrounding"):
            streams.get("qrounding")
        with pytest.raises(AttributeError):
            streams.qrounding

    def test_load_still_requires_the_mandatory_streams(self):
        state = RngStreams(5).state_dict()
        del state["streams"]["learning"]
        with pytest.raises(SimulationError, match="learning"):
            RngStreams(0).load_state_dict(state)
