"""Full training-run state: what a v2 checkpoint captures and restores.

A training run is a deterministic function of ``(config, dataset, seed)``
once the network's learned state, the positions of every RNG stream and the
run position (presentation index, simulation clock, log counters) are
fixed.  :class:`TrainingRunState` is exactly that tuple, captured at a
*presentation boundary* — the point in the trainer loop where all fast
state (membranes, currents, timers) has just been reset by
:meth:`~repro.network.wta.WTANetwork.rest`, so it does not need to be
stored: a freshly built network is bit-identical to a just-rested one.

The resulting contract, pinned by ``tests/test_resilience_resume.py``: a
run killed after any presentation and resumed from the state captured at
that boundary produces bit-identical conductances, thresholds and neuron
labels to the uninterrupted run, for every sequential engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from repro.config.parameters import ExperimentConfig
from repro.errors import CheckpointError
from repro.learning.homeostasis import WeightNormalizer
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import TrainingLog

#: Version of the ``run_json`` field layout inside a v2 checkpoint.
RUN_STATE_VERSION = 1


@dataclass
class TrainingRunState:
    """Everything needed to continue a training run bit-identically."""

    config: ExperimentConfig
    n_pixels: int
    #: Learned state (already on the quantiser's storage grid).
    conductances: np.ndarray
    theta: np.ndarray
    #: ``RngStreams.state_dict()`` — exact bit-generator positions.
    rng_state: Dict[str, Any]
    #: Presentations completed so far (flat index across epochs).
    presentation_index: int
    #: Total epochs the run was started with.
    epochs: int
    #: Images per epoch (validates the dataset handed to the resume).
    n_images: int
    #: Simulation clock at the boundary (ms).
    t_ms: float
    #: Weight-normaliser schedule position (``_images_seen``).
    normalizer_images_seen: int
    #: TrainingLog counters at the boundary.
    simulated_ms: float = 0.0
    spikes_per_image: List[int] = field(default_factory=list)
    #: Optional post-training neuron labels (v1 parity).
    neuron_labels: Optional[np.ndarray] = None
    #: Free-form metadata (dataset generation parameters, engine name...).
    extra: Dict[str, Any] = field(default_factory=dict)
    #: Where this state was loaded from, if anywhere (not persisted).
    source: Optional[str] = None

    # ------------------------------------------------------------------
    # capture
    # ------------------------------------------------------------------

    @classmethod
    def capture(
        cls,
        network: WTANetwork,
        log: TrainingLog,
        t_ms: float,
        presentation_index: int,
        epochs: int,
        n_images: int,
        normalizer: Optional[WeightNormalizer] = None,
        extra: Optional[Dict[str, Any]] = None,
    ) -> "TrainingRunState":
        """Snapshot *network* and run position at a presentation boundary.

        Arrays are copied, so the snapshot stays valid while the run
        continues mutating the live network.
        """
        return cls(
            config=network.config,
            n_pixels=network.n_pixels,
            conductances=network.conductances.copy(),
            theta=network.neurons.theta.copy(),
            rng_state=network.rngs.state_dict(),
            presentation_index=int(presentation_index),
            epochs=int(epochs),
            n_images=int(n_images),
            t_ms=float(t_ms),
            normalizer_images_seen=(
                normalizer._images_seen if normalizer is not None else 0
            ),
            simulated_ms=log.simulated_ms,
            spikes_per_image=list(log.spikes_per_image),
            extra=dict(extra) if extra else {},
        )

    # ------------------------------------------------------------------
    # (de)serialisation helpers used by repro.io.checkpoint
    # ------------------------------------------------------------------

    def run_fields(self) -> Dict[str, Any]:
        """The scalar run-position fields, as one JSON-serialisable dict."""
        return {
            "version": RUN_STATE_VERSION,
            "presentation_index": self.presentation_index,
            "epochs": self.epochs,
            "n_images": self.n_images,
            "t_ms": self.t_ms,
            "normalizer_images_seen": self.normalizer_images_seen,
            "simulated_ms": self.simulated_ms,
            "extra": self.extra,
        }

    @classmethod
    def from_payload(
        cls,
        config: ExperimentConfig,
        n_pixels: int,
        conductances: np.ndarray,
        theta: np.ndarray,
        rng_state: Dict[str, Any],
        run: Dict[str, Any],
        spikes_per_image: Sequence[int],
        neuron_labels: Optional[np.ndarray] = None,
        source: Optional[str] = None,
    ) -> "TrainingRunState":
        """Rebuild a state from decoded checkpoint fields (validating them).

        Run keys this build does not read — counters older builds stored —
        are ignored, so their autosaves still resume.
        """
        version = run.get("version")
        if version != RUN_STATE_VERSION:
            raise CheckpointError(
                f"unsupported run-state version {version!r} "
                f"(this build reads version {RUN_STATE_VERSION})"
            )
        try:
            return cls(
                config=config,
                n_pixels=int(n_pixels),
                conductances=np.asarray(conductances, dtype=np.float64),
                theta=np.asarray(theta, dtype=np.float64),
                rng_state=dict(rng_state),
                presentation_index=int(run["presentation_index"]),
                epochs=int(run["epochs"]),
                n_images=int(run["n_images"]),
                t_ms=float(run["t_ms"]),
                normalizer_images_seen=int(run["normalizer_images_seen"]),
                simulated_ms=float(run["simulated_ms"]),
                spikes_per_image=[int(s) for s in spikes_per_image],
                neuron_labels=neuron_labels,
                extra=dict(run.get("extra", {})),
                source=source,
            )
        except (KeyError, ValueError, TypeError) as exc:
            raise CheckpointError(
                f"malformed run-state fields in checkpoint: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    # restore
    # ------------------------------------------------------------------

    def to_log(self) -> TrainingLog:
        """A :class:`TrainingLog` primed with the counters at the boundary."""
        log = TrainingLog(
            images_seen=self.presentation_index,
            simulated_ms=self.simulated_ms,
        )
        log.spikes_per_image = list(self.spikes_per_image)
        return log

    def restore_into(
        self,
        network: WTANetwork,
        normalizer: Optional[WeightNormalizer] = None,
    ) -> None:
        """Overwrite *network*'s learned state and RNG streams in place.

        Conductances are copied **directly** into the storage buffer rather
        than through ``set_conductances``: the stored values came off a live
        run, so they are already on the quantiser grid, and re-quantising
        would advance the rounding stream — breaking the bit-identical
        resume contract.  Fast state is cleared to the post-rest values the
        boundary guarantees.
        """
        if network.n_pixels != self.n_pixels:
            raise CheckpointError(
                f"cannot restore run state for {self.n_pixels} input pixels "
                f"into a network with {network.n_pixels}"
            )
        if network.conductances.shape != self.conductances.shape:
            raise CheckpointError(
                f"stored conductances {self.conductances.shape} do not match "
                f"the network shape {network.conductances.shape}"
            )
        if network.neurons.theta.shape != self.theta.shape:
            raise CheckpointError(
                f"stored theta {self.theta.shape} does not match the network "
                f"neuron count {network.neurons.theta.shape}"
            )
        np.copyto(network.synapses.g, self.conductances)
        np.copyto(network.neurons.theta, self.theta)
        network.rngs.load_state_dict(self.rng_state)
        network.learning_enabled = True
        network.rest()
        if normalizer is not None:
            normalizer._images_seen = self.normalizer_images_seen

    def build_network(self) -> WTANetwork:
        """A fresh network carrying this state (the resume entry point)."""
        network = WTANetwork(self.config, self.n_pixels)
        self.restore_into(network)
        return network


def load_run_state(
    source: Union[str, "TrainingRunState", Any]
) -> "TrainingRunState":
    """Coerce a path or an in-memory state into a ``TrainingRunState``.

    The trainer's ``resume_from`` accepts either; this keeps the
    pipeline-side import of :mod:`repro.io.checkpoint` in one place (and
    lazy, which breaks the io ↔ resilience import cycle).
    """
    if isinstance(source, TrainingRunState):
        return source
    from repro.io.checkpoint import load_run_checkpoint

    return load_run_checkpoint(source)
