"""Presentation engines: one interface spanning training and evaluation.

:class:`PresentationEngine` is the protocol the registry
(:mod:`repro.engine.registry`) resolves names to.  An engine wraps a
network and exposes two operations:

- :meth:`PresentationEngine.run` — present one image with the network in
  whatever mode it is in (plasticity on for training, off inside
  ``evaluation_mode``), returning the spike count and advanced clock.
  Only engines declaring ``supports_learning`` implement it.
- :meth:`PresentationEngine.collect_responses` — the evaluation protocol:
  per-image output spike counts over a batch, run inside
  :meth:`~repro.network.wta.WTANetwork.evaluation_mode` so plasticity and
  threshold adaptation are untouched.

The base class implements ``collect_responses`` as the canonical
image-at-a-time loop *on top of* ``run`` with an ``out_counts``
accumulator; the reference engine evaluates through it.  The ``fused``
and ``qfused`` gather kernels override it with :class:`LockstepEvaluation`,
which steps a chunk of independent frozen presentations at a time and is
**bit-identical** to that per-image loop — the same responses and the same
``encoding`` stream positions — so fast evaluation is a free replacement,
not a statistical approximation.  (The ``batched`` engine overrides it
wholesale: it draws from a batch-shaped stream and is statistically, not
bit-, equivalent.)
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.pipeline.progress import NullProgress

if TYPE_CHECKING:
    from repro.engine.registry import EngineSpec
    from repro.network.wta import WTANetwork
    from repro.resilience.sentinel import NumericHealthSentinel


def image_batch(images: np.ndarray) -> np.ndarray:
    """*images* as an ``(n_images, height, width)`` batch; a 2-D image is a batch of one."""
    batch = np.asarray(images)
    if batch.ndim == 2:
        batch = batch[None]
    if batch.ndim != 3:
        raise SimulationError(f"images must be 2-D or 3-D, got shape {batch.shape}")
    return batch


class PresentationEngine:
    """Base engine: wraps a network; subclasses define the execution path."""

    #: Registry name; set by each subclass (must match its EngineSpec).
    name = ""

    def __init__(self, network: WTANetwork) -> None:
        self.network = network
        #: Optional numeric-health monitor checked at presentation
        #: boundaries inside :meth:`collect_responses`.
        self.sentinel: Optional[NumericHealthSentinel] = None

    def attach_sentinel(
        self, sentinel: Optional[NumericHealthSentinel]
    ) -> PresentationEngine:
        """Monitor evaluation loops with *sentinel* (``None`` detaches)."""
        self.sentinel = sentinel
        return self

    @property
    def spec(self) -> EngineSpec:
        """The engine's registered capability record."""
        from repro.engine.registry import get_engine_spec

        return get_engine_spec(self.name)

    # ------------------------------------------------------------------
    # training protocol
    # ------------------------------------------------------------------

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        """Present *image* for *n_steps* of *dt_ms* starting at *t_ms*.

        Returns ``(total_output_spikes, t_ms_after)``.  When *out_counts*
        (an int64 vector of length ``n_neurons``) is given, each neuron's
        spike count over the presentation is accumulated into it — the
        evaluation loop's per-image response vector.
        """
        raise ConfigurationError(
            f"engine {self.name!r} does not support per-image presentations"
        )

    # ------------------------------------------------------------------
    # evaluation protocol
    # ------------------------------------------------------------------

    def collect_responses(
        self,
        images: np.ndarray,
        t_present_ms: float,
        progress: Optional[NullProgress] = None,
        label: str = "responses",
    ) -> np.ndarray:
        """Per-image output spike counts, shape ``(n_images, n_neurons)``.

        Runs inside ``evaluation_mode`` (plasticity and threshold
        adaptation frozen, rest phases at the boundaries), presenting each
        image through :meth:`run` — the same clock accumulation and
        encoding-stream consumption as the reference evaluation loop.
        """
        progress = progress if progress is not None else NullProgress()
        network = self.network
        batch = image_batch(images)
        sim = network.config.simulation
        dt = sim.dt_ms
        steps = int(round(t_present_ms / dt))
        n_neurons = network.config.wta.n_neurons
        responses = np.zeros((batch.shape[0], n_neurons), dtype=np.int64)

        progress.start(batch.shape[0], label)
        with network.evaluation_mode() as net:
            t_ms = 0.0
            for idx, image in enumerate(batch):
                _, t_ms = self.run(image, t_ms, steps, dt, out_counts=responses[idx])
                net.rest()
                t_ms += sim.t_rest_ms
                if self.sentinel is not None:
                    self.sentinel.after_presentation(net, t_ms, idx)
                progress.update(idx + 1)
        progress.finish()
        return responses


class ReferenceEngine(PresentationEngine):
    """The per-step oracle loop (``WTANetwork.advance``), adapted.

    This is the correctness baseline every other engine's equivalence tier
    is declared against; the trainer's and evaluator's historic inline
    loops both reduce to :meth:`run`.
    """

    name = "reference"

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        if n_steps < 0:
            raise SimulationError(f"n_steps must be >= 0, got {n_steps}")
        net = self.network
        total_spikes = 0
        net.present_image(image)
        for _ in range(n_steps):
            result = net.advance(t_ms, dt_ms)
            out = result.spikes["output"]
            n_fired = int(np.count_nonzero(out))
            total_spikes += n_fired
            if out_counts is not None and n_fired:
                out_counts[out] += 1
            t_ms += dt_ms
        return total_spikes, t_ms


class LockstepEvaluation(PresentationEngine):
    """Evaluation that steps a chunk of images at a time (the gather kernels).

    Bit-identical to the base-class per-image loop, which the reference
    engine keeps and the tests use as the oracle: the same
    responses, RNG stream positions, network state, sentinel calls and
    progress calls.  Each image's raster comes from the same
    ``present_image`` + ``generate_train`` calls, in the same order, as the
    per-image loop; :class:`~repro.engine.event_train.LockstepChunk` then
    advances :data:`~repro.engine.event_train.LOCKSTEP_IMAGES` images at a
    time on arrays of its own, so the network's state stays as
    ``evaluation_mode`` rested it.  That rested and frozen state is all the
    sentinel reads, so each image's check runs as soon as its raster is
    drawn: a trip raises at the same presentation with the RNG streams
    where the per-image loop leaves them.  Progress is reported once per
    image after its chunk is stepped.
    """

    def collect_responses(
        self,
        images: np.ndarray,
        t_present_ms: float,
        progress: Optional[NullProgress] = None,
        label: str = "responses",
    ) -> np.ndarray:
        from repro.encoding.events import sparsify
        from repro.engine.event_train import LOCKSTEP_IMAGES, LockstepChunk

        progress = progress if progress is not None else NullProgress()
        network = self.network
        batch = image_batch(images)
        sim = network.config.simulation
        dt = sim.dt_ms
        steps = int(round(t_present_ms / dt))
        n_images = batch.shape[0]
        responses = np.zeros((n_images, network.config.wta.n_neurons), dtype=np.int64)

        progress.start(n_images, label)
        with network.evaluation_mode() as net:
            if n_images and steps < 0:
                raise SimulationError(f"n_steps must be >= 0, got {steps}")
            chunk = LockstepChunk(net, min(n_images, LOCKSTEP_IMAGES), dt)
            t_ms = 0.0
            for start in range(0, n_images, LOCKSTEP_IMAGES):
                stop = min(start + LOCKSTEP_IMAGES, n_images)
                events = []
                for idx in range(start, stop):
                    net.present_image(batch[idx])
                    events.append(
                        sparsify(net.encoder.generate_train(steps, dt, net.rngs.encoding))
                    )
                    if self.sentinel is not None:
                        for _ in range(steps):
                            t_ms += dt
                        t_ms += sim.t_rest_ms
                        self.sentinel.after_presentation(net, t_ms, idx)
                responses[start:stop] = chunk.run(events)
                for idx in range(start, stop):
                    progress.update(idx + 1)
        progress.finish()
        return responses


class FusedEngine(LockstepEvaluation):
    """The gather loop over float conductances (:class:`~repro.engine.event_train.EventPresentation`).

    Bit-identical to the reference engine under pinned seeds: it steps
    every step with the reference arithmetic and sums eq. 3 over the
    active input rows in the same row order as
    :meth:`~repro.network.wta.WTANetwork.drive`.  Evaluates images in
    lock-step (:class:`LockstepEvaluation`).
    """

    name = "fused"

    def __init__(self, network: WTANetwork) -> None:
        super().__init__(network)
        from repro.engine.event_train import EventPresentation

        self._kernel = EventPresentation(network)

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        return self._kernel.run(image, t_ms, n_steps, dt_ms, out_counts=out_counts)


class QFusedEngine(LockstepEvaluation):
    """The gather loop over Q-format codes (:class:`~repro.engine.qevent.QEventPresentation`).

    Runs the same presentation loop as ``fused`` with conductances held as
    uint8/uint16 Q-format codes (requires a fixed-point quantization
    config of at most 16 total bits).  Bit-identical to the reference
    engine under every rounding option and in evaluation: eq.-8 rounding
    draws one ``learning`` uniform per changed synapse in every tier.
    Evaluates images in lock-step over the frozen float view
    (:class:`LockstepEvaluation`).
    """

    name = "qfused"

    def __init__(self, network: WTANetwork) -> None:
        super().__init__(network)
        from repro.engine.qevent import QEventPresentation

        self._kernel = QEventPresentation(network)

    @property
    def codes(self) -> np.ndarray:
        """The live Q-format code matrix of the underlying kernel."""
        return self._kernel.codes

    def run(
        self,
        image: np.ndarray,
        t_ms: float,
        n_steps: int,
        dt_ms: float,
        out_counts: Optional[np.ndarray] = None,
    ) -> Tuple[int, float]:
        return self._kernel.run(image, t_ms, n_steps, dt_ms, out_counts=out_counts)


class BatchedEngine(PresentationEngine):
    """Image-parallel frozen inference (:class:`~repro.engine.batched.BatchedInference`).

    Evaluation only (``supports_learning`` is false): all images advance in
    lock-step, randomness comes from the batch-shaped stream documented in
    :meth:`repro.engine.rng.RngStreams.batched_eval`, so results are
    statistically — not bit- — equivalent to the sequential engines.
    """

    name = "batched"

    #: Conductance storage handed to :class:`BatchedInference` — the
    #: ``qbatched`` subclass selects the integer code path.
    storage = "float"

    def __init__(self, network: WTANetwork) -> None:
        from repro.engine.batched import BatchedInference

        super().__init__(network)
        # Built here so an unsupported config (a periodic encoder, or a
        # float config on qbatched) is rejected when the engine is built;
        # it re-reads the learned state on every call.
        self._inference = BatchedInference(network, storage=self.storage)

    def collect_responses(
        self,
        images: np.ndarray,
        t_present_ms: float,
        progress: Optional[NullProgress] = None,
        label: str = "responses",
    ) -> np.ndarray:
        responses = self._inference.collect_responses(
            images,
            t_present_ms=t_present_ms,
            rng=self.network.rngs.batched_eval(),
        )
        if self.sentinel is not None:
            # All images advance in lock-step, so there is one boundary:
            # a single post-batch invariant check.
            self.sentinel.check(self.network)
        return responses


class QBatchedEngine(BatchedEngine):
    """Code-native image-parallel inference (``qbatched``).

    :class:`BatchedEngine` with integer conductance storage: the frozen
    weights are encoded once into uint8/uint16 Q-format codes and the
    per-step batched matmul accumulates in int64 with a single
    ``resolution * amplitude`` scale.  Responses — and hence predicted
    labels — are **bit-identical** to the float ``batched`` engine under
    the same ``batched_eval`` draws (both draw from the restarted salted
    stream, so the pairing is automatic); versus the *sequential* engines
    the tier remains statistical, exactly like ``batched``.  Requires a
    fixed-point quantization config and the numpy backend.
    """

    name = "qbatched"

    storage = "int"
