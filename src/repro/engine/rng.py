"""Named, independently-seeded random streams.

The paper "performs stochastic process on-board the GPU to leverage the
fast CUDA random number generator"; our substitute is a set of
:class:`numpy.random.Generator` streams derived from one master seed via
``SeedSequence.spawn``.  Each consumer (input encoding, stochastic STDP and
the eq.-8 rounding of its updates, full-matrix rounding, weight
initialisation, dataset generation) gets its own stream, so e.g. switching
the rounding mode does not perturb the input spike trains — runs stay
comparable across configurations, which the trend benches rely on.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np

from repro.backend.ops import Ops
from repro.errors import SimulationError

#: Stream names handed out in a fixed order so seeding is reproducible.
#: Eq.-8 rounding of STDP updates draws from ``learning`` in every engine;
#: ``rounding`` serves the full-matrix passes (normalisation, loading).
#: Checkpoints of earlier versions also hold a seventh, retired stream,
#: ``qrounding``, spawned after ``misc``; :meth:`RngStreams.load_state_dict`
#: ignores it, and since ``SeedSequence.spawn`` children are prefix-stable,
#: these six draw exactly what they drew beside it.
STREAM_NAMES = ("init", "encoding", "learning", "rounding", "dataset", "misc")

#: Decorrelation salt mixed with the master seed to derive the batched
#: evaluation stream (see :meth:`RngStreams.batched_eval`).  Previously an
#: inline magic number in ``Evaluator.collect_responses``; the value is
#: arbitrary ("BATC4") but load-bearing for reproducibility, so it lives
#: here as a named constant rather than at a call site.
BATCHED_EVAL_SALT = 0xBA7C4

#: The RNG-provenance manifest (lint rule R9).  Ground truth for *who may
#: draw which stream*: ``repro.lint.flow`` parses these literals from this
#: module's AST and checks every ``rngs.<stream>`` /
#: ``rngs.get(...)`` site in the tree against them.  Adding a
#: consumer module without listing it here is a lint error — deliberately,
#: because an undocumented draw changes draw counts and silently breaks
#: bit-identity between runs that should be comparable.
STREAM_CONSUMERS = {
    "init": ("network/wta.py",),
    "encoding": (
        "engine/event_train.py",
        "engine/presentation.py",
        "network/wta.py",
    ),
    "learning": (
        "engine/event_train.py",
        "engine/qevent.py",
        "network/wta.py",
    ),
    "rounding": ("io/checkpoint.py", "pipeline/trainer.py"),
    "misc": ("cli.py", "pipeline/evaluator.py", "pipeline/experiment.py"),
    "batched_eval": ("engine/batched.py", "engine/presentation.py"),
}

#: Streams intentionally without consumers, with the reason.  Removing a
#: name from ``STREAM_NAMES`` would shift every later spawn child and
#: re-seed unrelated streams, so retired streams are reserved, not
#: deleted.
RESERVED_STREAMS = {
    "dataset": (
        "reserved for synthetic dataset generation; currently datasets "
        "are deterministic files, but the spawn slot must keep its "
        "position for seed stability"
    ),
}


class DeviceRng:
    """A host stream whose draws are uploaded to a device backend.

    The multi-backend RNG strategy: **all randomness is drawn on the host**
    from the owning :class:`numpy.random.Generator` (so every backend
    consumes exactly the same sequence — spike trajectories stay
    bit-identical across numpy/guard/cupy), then the resulting array is
    uploaded through the backend's explicit ``to_device`` seam.  The
    bit-generator state also stays host-side, so checkpoint capture/resume
    is backend-agnostic.
    """

    def __init__(self, rng: np.random.Generator, ops: Ops) -> None:
        self.rng = rng
        self.ops = ops

    def random(
        self, size: Optional[Union[int, Tuple[int, ...]]] = None
    ) -> Any:
        """Uniform [0, 1) draws: host-drawn, device-uploaded.

        A ``size=None`` call returns the plain Python float the underlying
        generator yields — scalars need no device residency.
        """
        if size is None:
            return self.rng.random()
        return self.ops.to_device(self.rng.random(size))


def on_backend(
    rng: np.random.Generator, ops: Optional[Ops] = None
) -> Union[np.random.Generator, DeviceRng]:
    """*rng* adapted to *ops*' backend.

    On the host backend (or with no ops) this is *rng* itself, at zero
    overhead; on a device backend it is wrapped in :class:`DeviceRng`, so
    draws are host-identical but land in device memory.
    """
    if ops is None or ops.is_host:
        return rng
    return DeviceRng(rng, ops)


class RngStreams:
    """A bundle of named RNG streams derived from one master seed."""

    def __init__(self, seed: int = 0) -> None:
        self._build(seed)

    def _build(self, seed: int) -> None:
        if int(seed) != seed:
            raise SimulationError(f"seed must be an integer, got {seed!r}")
        if seed < 0:
            raise SimulationError(f"seed must be non-negative, got {seed!r}")
        self.seed = int(seed)
        root = np.random.SeedSequence(self.seed)
        children = root.spawn(len(STREAM_NAMES))
        self._streams: Dict[str, np.random.Generator] = {
            name: np.random.default_rng(child)
            for name, child in zip(STREAM_NAMES, children)
        }

    def __getattr__(self, name: str) -> np.random.Generator:
        streams = object.__getattribute__(self, "_streams")
        if name in streams:
            return streams[name]
        raise AttributeError(f"no RNG stream named {name!r}; have {tuple(streams)}")

    def get(self, name: str) -> np.random.Generator:
        """Fetch a stream by name, raising for unknown names."""
        if name not in self._streams:
            raise SimulationError(
                f"no RNG stream named {name!r}; have {STREAM_NAMES}"
            )
        return self._streams[name]

    def batched_eval(
        self, ops: Optional[Ops] = None
    ) -> Union[np.random.Generator, DeviceRng]:
        """A fresh stream for the image-parallel batched evaluation engine.

        Seeding contract: the generator is derived from ``(seed,
        BATCHED_EVAL_SALT)``, so it is decorrelated from the six sequential
        streams spawned from the bare master seed, and **every call returns
        a generator at the same initial position**.  Each
        ``collect_responses`` call on the batched engine therefore draws
        identical spike trains for identical inputs — labeling and
        inference phases stay reproducible regardless of how many
        evaluations (or how much training) ran before, unlike the
        sequential engines, whose draws continue the shared ``encoding``
        stream.

        With a non-host *ops*, the generator is wrapped in
        :class:`DeviceRng` (host-drawn, device-uploaded) so batched
        responses stay bit-identical across backends.
        """
        rng = np.random.default_rng(
            np.random.SeedSequence((self.seed, BATCHED_EVAL_SALT))
        )
        return on_backend(rng, ops)

    def reseed(self, seed: int) -> None:
        """Replace every stream with fresh ones derived from *seed*."""
        self._build(seed)

    # ------------------------------------------------------------------
    # resumable-run support (checkpoint v2)
    # ------------------------------------------------------------------

    def state_dict(self) -> Dict[str, Any]:
        """The exact bit-generator state of every stream, JSON-serialisable.

        Together with :meth:`load_state_dict` this is what makes training
        runs *resumable*: a run restored from ``(seed, state_dict())``
        continues every stream from precisely the draw it would have made
        next, so a killed-and-resumed run is bit-identical to an
        uninterrupted one.  Values are plain ints/strings (numpy's
        ``bit_generator.state`` mapping), so the dict survives a JSON
        round-trip inside a checkpoint file.
        """
        return {
            "seed": self.seed,
            "streams": {
                name: self._streams[name].bit_generator.state
                for name in STREAM_NAMES
            },
        }

    def load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Restore every stream to the positions captured by :meth:`state_dict`."""
        try:
            seed = state["seed"]
            streams = state["streams"]
        except (KeyError, TypeError) as exc:
            raise SimulationError(
                f"malformed RngStreams state: expected keys 'seed' and "
                f"'streams', got {state!r}"
            ) from exc
        self._build(int(seed))
        missing = [name for name in STREAM_NAMES if name not in streams]
        if missing:
            raise SimulationError(
                f"RngStreams state is missing streams {missing}; have "
                f"{sorted(streams)}"
            )
        for name in STREAM_NAMES:
            self._streams[name].bit_generator.state = streams[name]
