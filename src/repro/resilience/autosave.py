"""Periodic checkpoint autosave for long training runs.

The paper's headline runs train on the full MNIST set for hours; a SIGKILL
anywhere in that window must not cost the whole run.  :class:`AutosavePolicy`
is the trainer-side hook: every ``every_images`` presentation boundaries it
captures a :class:`~repro.resilience.run_state.TrainingRunState` and writes
it to one v2 checkpoint path with the atomic write-temp-then-rename
protocol of :mod:`repro.io.checkpoint` — the file on disk is always a
complete, loadable checkpoint, no matter when the process dies.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro.errors import ConfigurationError
from repro.learning.homeostasis import WeightNormalizer
from repro.network.wta import WTANetwork
from repro.pipeline.trainer import TrainingLog
from repro.resilience.run_state import TrainingRunState


class AutosavePolicy:
    """Write a v2 run checkpoint every *every_images* presentations.

    ``extra`` metadata (e.g. the dataset generation parameters the CLI
    stores) travels inside every checkpoint, so ``python -m repro resume``
    can rebuild the run without re-specifying flags.
    """

    def __init__(
        self,
        path: Union[str, Path],
        every_images: int = 50,
        extra: Optional[Dict[str, Any]] = None,
    ) -> None:
        if every_images < 1:
            raise ConfigurationError(
                f"autosave every_images must be >= 1, got {every_images}"
            )
        self.path = Path(path)
        self.every_images = int(every_images)
        self.extra: Dict[str, Any] = dict(extra) if extra else {}
        #: Checkpoints written so far.
        self.saves_written = 0

    def due(self, presentation_index: int) -> bool:
        """Whether the boundary after presentation *presentation_index* saves."""
        return presentation_index % self.every_images == 0

    def maybe_save(
        self,
        network: WTANetwork,
        log: TrainingLog,
        t_ms: float,
        presentation_index: int,
        epochs: int,
        n_images: int,
        normalizer: Optional[WeightNormalizer] = None,
    ) -> bool:
        """Checkpoint if this boundary is on the schedule; returns True if saved."""
        if not self.due(presentation_index):
            return False
        self.save(
            network, log, t_ms, presentation_index, epochs, n_images, normalizer
        )
        return True

    def save(
        self,
        network: WTANetwork,
        log: TrainingLog,
        t_ms: float,
        presentation_index: int,
        epochs: int,
        n_images: int,
        normalizer: Optional[WeightNormalizer] = None,
    ) -> TrainingRunState:
        """Capture and persist the run state unconditionally."""
        from repro.io.checkpoint import save_run_checkpoint

        state = TrainingRunState.capture(
            network,
            log,
            t_ms,
            presentation_index,
            epochs,
            n_images,
            normalizer=normalizer,
            extra=self.extra,
        )
        save_run_checkpoint(self.path, state)
        self.saves_written += 1
        return state
