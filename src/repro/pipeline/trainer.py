"""Unsupervised training loop (the learning half of Fig. 2).

Each training image is presented to the network for ``t_learn`` ms of
simulated time (the paper's 500 ms baseline / 100 ms high-frequency
schedule) followed by a short rest that relaxes fast state.  At every image
boundary the optional :class:`~repro.learning.homeostasis.WeightNormalizer`
runs.  The trainer records per-image output spike counts, simulated time and
wall-clock time — the raw material of the run-time comparisons in Figs. 7b
and 8b.

The presentation itself is delegated to an engine resolved by name through
:mod:`repro.engine.registry` (``"reference"``, ``"fused"``, ``"qfused"``, or
anything registered later); the config's
:class:`~repro.config.parameters.EngineConfig` supplies the default.

Resilience hooks (all opt-in, zero cost when unused; see
:mod:`repro.resilience`):

- ``resume_from`` — continue a run bit-identically from a v2 checkpoint or
  an in-memory :class:`~repro.resilience.run_state.TrainingRunState`;
- ``autosave`` — an :class:`~repro.resilience.autosave.AutosavePolicy`
  writing a v2 checkpoint every N presentation boundaries;
- ``sentinel`` — a
  :class:`~repro.resilience.sentinel.NumericHealthSentinel` checked at
  boundaries *before* the autosave, so a poisoned state is never persisted;
- ``on_engine_fault="degrade"`` — on an engine exception, roll back to the
  boundary snapshot, fall down the engine ladder
  (:data:`~repro.resilience.degrade.DEGRADATION_CHAIN`) and re-present.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Union

import numpy as np

from repro.backend import use_backend
from repro.engine.registry import create_training_engine
from repro.errors import NumericHealthError, SimulationError
from repro.learning.homeostasis import WeightNormalizer
from repro.network.wta import WTANetwork
from repro.pipeline.progress import NullProgress

if TYPE_CHECKING:
    from repro.resilience.autosave import AutosavePolicy
    from repro.resilience.run_state import TrainingRunState
    from repro.resilience.sentinel import NumericHealthSentinel


@dataclass
class TrainingLog:
    """What one training run produced."""

    images_seen: int = 0
    simulated_ms: float = 0.0
    wall_seconds: float = 0.0
    #: Output spikes per presented image.
    spikes_per_image: List[int] = field(default_factory=list)

    @property
    def mean_spikes_per_image(self) -> float:
        if not self.spikes_per_image:
            return 0.0
        return float(np.mean(self.spikes_per_image))

    @property
    def simulated_minutes(self) -> float:
        """The paper's "simulation time" axis, in minutes of network time."""
        return self.simulated_ms / 60_000.0


class UnsupervisedTrainer:
    """Presents images to a :class:`WTANetwork` and drives plasticity."""

    def __init__(
        self,
        network: WTANetwork,
        normalizer: Optional[WeightNormalizer] = None,
        progress=None,
        engine: Optional[str] = None,
    ) -> None:
        self.network = network
        self.normalizer = normalizer if normalizer is not None else WeightNormalizer()
        self.progress = progress if progress is not None else NullProgress()
        #: Default engine name for :meth:`train`; ``None`` defers to the
        #: config's ``engine.train`` selection.
        self.engine = engine

    def train(
        self,
        images: np.ndarray,
        epochs: int = 1,
        on_image_end: Optional[Callable[[int, TrainingLog], None]] = None,
        engine: Optional[Union[str, Any]] = None,
        resume_from: Optional[Union[str, "TrainingRunState"]] = None,
        autosave: Optional["AutosavePolicy"] = None,
        sentinel: Optional["NumericHealthSentinel"] = None,
        on_engine_fault: str = "raise",
    ) -> TrainingLog:
        """Learn from *images* (``(n, h, w)`` or ``(n, pixels)``).

        ``on_image_end(image_index, log)`` fires after each presentation —
        the hook the moving-error-rate probe (Fig. 8c) uses.  It fires
        *after* any autosave at the same boundary, so a crash inside the
        hook never loses the checkpoint that boundary wrote.

        ``engine`` names the presentation engine, resolved through
        :mod:`repro.engine.registry` (the engine must declare
        ``supports_learning``); precedence is this argument, then the
        trainer's ``engine``, then the config's ``engine.train`` (default
        ``"fused"`` — bit-identical to ``"reference"`` under the same
        seeds, several times faster; see the registry's capability table).
        A pre-built engine *instance* (anything with the
        ``run(image, t_ms, n_steps, dt_ms)`` presentation protocol) is also
        accepted and used as-is, bypassing registry resolution.

        ``resume_from`` is a v2 checkpoint path (or an in-memory
        :class:`~repro.resilience.run_state.TrainingRunState`): the
        trainer restores the network's learned state and RNG streams in
        place and continues at the stored presentation index, producing
        final weights bit-identical to the uninterrupted run.  The images
        and ``epochs`` must describe the same schedule the checkpoint came
        from.  ``log.wall_seconds`` counts this process's segment only.

        ``on_engine_fault`` — ``"raise"`` propagates engine exceptions
        (default); ``"degrade"`` rolls the network back to the boundary
        snapshot, rebuilds the next engine down the degradation chain
        (``qfused`` → ``fused`` → ``reference``), re-presents the image and
        emits an :class:`~repro.resilience.degrade.EngineDegradedWarning`.
        :class:`~repro.errors.NumericHealthError` is never degraded away —
        a failed invariant means the state itself is suspect.
        """
        if on_engine_fault not in ("raise", "degrade"):
            raise SimulationError(
                f"on_engine_fault must be 'raise' or 'degrade', "
                f"got {on_engine_fault!r}"
            )
        if epochs < 1:
            raise SimulationError(f"epochs must be >= 1, got {epochs}")

        batch = np.asarray(images)
        if batch.ndim == 2:
            batch = batch[:, None, :]  # treat rows as flat images
        if batch.ndim != 3:
            raise SimulationError(f"images must be 2-D or 3-D, got shape {batch.shape}")

        # The config's backend selection scopes engine *construction*: every
        # kernel binds its Ops handle (array module + transfer seams) in
        # __init__, so no further backend state is consulted mid-run.
        backend = self.network.config.engine.backend
        engine_choice = engine or self.engine or self.network.config.engine.train
        if isinstance(engine_choice, str):
            engine_name = engine_choice
            with use_backend(backend):
                kernel = create_training_engine(engine_name, self.network)
        else:
            # A pre-built engine instance (anything implementing run()):
            # a kernel whose internals the caller inspects afterwards, or
            # a wrapper with no registry name of its own.
            kernel = engine_choice
            engine_name = getattr(kernel, "name", "") or type(kernel).__name__

        sim = self.network.config.simulation
        steps_per_image = sim.steps_per_image
        dt = sim.dt_ms
        n_images = batch.shape[0]
        total = n_images * epochs

        log = TrainingLog()
        t_ms = 0.0
        seen = 0
        if resume_from is not None:
            from repro.errors import CheckpointError
            from repro.resilience.run_state import load_run_state

            state = load_run_state(resume_from)
            if state.n_images != n_images:
                raise CheckpointError(
                    f"checkpoint was taken from a run over {state.n_images} "
                    f"images per epoch; got {n_images}"
                )
            if state.presentation_index > total:
                raise CheckpointError(
                    f"checkpoint is at presentation {state.presentation_index} "
                    f"but this run has only {total} "
                    f"({n_images} images x {epochs} epochs)"
                )
            state.restore_into(self.network, self.normalizer)
            log = state.to_log()
            t_ms = state.t_ms
            seen = state.presentation_index

        snapshot: Optional[Any] = None
        self.progress.start(total, "train")
        start = time.perf_counter()
        while seen < total:
            image = batch[seen % n_images]
            if on_engine_fault == "degrade":
                snapshot = (
                    self.network.conductances.copy(),
                    self.network.neurons.theta.copy(),
                    self.network.rngs.state_dict(),
                )
            try:
                spikes_this_image, t_ms = kernel.run(image, t_ms, steps_per_image, dt)
            except Exception as exc:  # lint-ok: R5 — degradation must catch anything
                if on_engine_fault != "degrade" or isinstance(exc, NumericHealthError):
                    raise
                from repro.resilience.degrade import EngineDegradedWarning, next_tier

                fallback = next_tier(engine_name, kernel)
                if fallback is None:
                    raise
                warnings.warn(
                    f"engine {engine_name!r} faulted at presentation {seen} "
                    f"({type(exc).__name__}: {exc}); degrading to {fallback!r} "
                    f"and re-presenting",
                    EngineDegradedWarning,
                    stacklevel=2,
                )
                # Roll back to the boundary: the failed presentation may
                # have mutated learned state and consumed stream draws.
                snap_g, snap_theta, snap_rng = snapshot
                np.copyto(self.network.synapses.g, snap_g)
                np.copyto(self.network.neurons.theta, snap_theta)
                self.network.rngs.load_state_dict(snap_rng)
                self.network.rest()
                engine_name = fallback
                with use_backend(backend):
                    kernel = create_training_engine(engine_name, self.network)
                continue
            self.network.rest()
            t_ms += sim.t_rest_ms
            if sentinel is not None:
                sentinel.after_presentation(self.network, t_ms, seen)

            self.normalizer.after_image(self.network.synapses, self.network.rngs.rounding)

            seen += 1
            log.images_seen = seen
            log.simulated_ms = seen * (sim.t_learn_ms + sim.t_rest_ms)
            log.spikes_per_image.append(spikes_this_image)
            log.wall_seconds = time.perf_counter() - start
            if autosave is not None:
                autosave.maybe_save(
                    self.network, log, t_ms, seen, epochs, n_images,
                    normalizer=self.normalizer,
                )
            self.progress.update(seen, f"{spikes_this_image} spikes")
            if on_image_end is not None:
                on_image_end(seen - 1, log)
        log.wall_seconds = time.perf_counter() - start
        self.progress.finish()
        return log
