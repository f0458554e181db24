"""One self-contained experiment: config + dataset in, results out.

:func:`run_experiment` is the unit every bench and example is built from.
It wires a :class:`WTANetwork` from an :class:`ExperimentConfig`, trains on
the dataset's training split, runs the label-then-infer protocol on the test
split, and returns an :class:`ExperimentResult` with accuracy, run-time
bookkeeping and the trained network.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

import numpy as np

from repro.analysis.accuracy import moving_error_rate
from repro.config.parameters import ExperimentConfig
from repro.datasets.dataset import Dataset
from repro.engine.rng import RngStreams
from repro.learning.homeostasis import WeightNormalizer
from repro.network.inference import classify_batch
from repro.network.wta import WTANetwork
from repro.pipeline.evaluator import EvaluationResult, Evaluator
from repro.pipeline.trainer import TrainingLog, UnsupervisedTrainer


@dataclass
class ExperimentResult:
    """Everything one experiment produced."""

    config: ExperimentConfig
    evaluation: EvaluationResult
    training: TrainingLog
    #: The trained network (learned conductances and thresholds), as
    #: evaluated: what ``repro run --save`` checkpoints.
    network: WTANetwork
    #: Optional (image_index, moving_error) samples collected during training.
    moving_error: Optional[Tuple[np.ndarray, np.ndarray]] = None

    @property
    def accuracy(self) -> float:
        return self.evaluation.accuracy

    @property
    def conductances(self) -> np.ndarray:
        """The learned ``(n_pixels, n_neurons)`` conductances."""
        return self.network.conductances

    def summary_row(self) -> List[object]:
        """A row for the Fig. 8b-style comparison tables."""
        return [
            self.config.name,
            self.config.quantization.fmt or "float32",
            self.accuracy,
            self.training.simulated_minutes,
            self.training.wall_seconds,
        ]


def build_network(config: ExperimentConfig, n_pixels: int) -> WTANetwork:
    """Construct the Fig. 3 network for *config* (seeded from the config)."""
    rngs = RngStreams(config.simulation.seed)
    return WTANetwork(config, n_pixels, rngs=rngs)


def run_experiment(
    config: ExperimentConfig,
    dataset: Dataset,
    n_labeling: Optional[int] = None,
    epochs: int = 1,
    normalizer: Optional[WeightNormalizer] = None,
    track_moving_error: bool = False,
    probe_every: int = 25,
    probe_size: int = 30,
    progress=None,
    eval_t_present_ms: Optional[float] = None,
    train_engine: Optional[str] = None,
    eval_engine: Optional[str] = None,
    resume_from=None,
    autosave=None,
    sentinel=None,
    on_engine_fault: str = "raise",
) -> ExperimentResult:
    """Train + evaluate one configuration on one dataset.

    ``n_labeling`` defaults to 1/10 of the test set (the paper's 1000 of
    10000).  With ``track_moving_error`` a small accuracy probe runs every
    ``probe_every`` training images — plasticity is suspended during the
    probe — producing the Fig. 8c learning curve.

    ``train_engine`` / ``eval_engine`` name presentation engines from
    :mod:`repro.engine.registry`; when ``None`` the config's
    :class:`~repro.config.parameters.EngineConfig` decides (default
    ``"fused"`` for both — bit-identical to the reference loop under the
    config's seed).

    ``resume_from`` / ``autosave`` / ``sentinel`` / ``on_engine_fault``
    forward to :meth:`~repro.pipeline.trainer.UnsupervisedTrainer.train` —
    the resilience hooks (v2 checkpoint resume, periodic autosave, numeric
    invariant monitoring, graceful engine degradation); see
    :mod:`repro.resilience`.
    """
    if n_labeling is None:
        n_labeling = max(dataset.test_images.shape[0] // 10, dataset.n_classes)
    label_imgs, label_lbls, infer_imgs, infer_lbls = dataset.labeling_split(n_labeling)

    network = build_network(config, dataset.n_pixels)
    trainer = UnsupervisedTrainer(
        network, normalizer=normalizer, progress=progress, engine=train_engine
    )
    evaluator = Evaluator(
        network,
        n_classes=dataset.n_classes,
        t_present_ms=eval_t_present_ms,
        progress=progress,
        engine=eval_engine,
    )

    probe_positions: List[int] = []
    probe_errors: List[float] = []
    on_image_end: Optional[Callable[[int, TrainingLog], None]] = None
    if track_moving_error:
        probe_imgs = label_imgs[:probe_size]
        probe_lbls = label_lbls[:probe_size]

        def on_image_end(image_index: int, _log: TrainingLog) -> None:
            if (image_index + 1) % probe_every:
                return
            neuron_labels = evaluator.label_neurons(probe_imgs, probe_lbls)
            responses = evaluator.collect_responses(probe_imgs, label="probe")
            predictions = classify_batch(
                responses, neuron_labels, dataset.n_classes, network.rngs.misc
            )
            error = 1.0 - float(np.mean(predictions == probe_lbls))
            probe_positions.append(image_index + 1)
            probe_errors.append(error)

    log = trainer.train(
        dataset.train_images,
        epochs=epochs,
        on_image_end=on_image_end,
        resume_from=resume_from,
        autosave=autosave,
        sentinel=sentinel,
        on_engine_fault=on_engine_fault,
    )
    evaluation = evaluator.evaluate(label_imgs, label_lbls, infer_imgs, infer_lbls)

    moving = None
    if track_moving_error and probe_positions:
        moving = (np.asarray(probe_positions), np.asarray(probe_errors))

    return ExperimentResult(
        config=config,
        evaluation=evaluation,
        training=log,
        network=network,
        moving_error=moving,
    )


def moving_error_from_predictions(
    true_labels: np.ndarray, predictions: np.ndarray, window: int = 50
) -> Tuple[np.ndarray, np.ndarray]:
    """Fig. 8c helper: sliding-window error over an inference stream."""
    flags = np.asarray(predictions) == np.asarray(true_labels)
    return moving_error_rate(flags, window=window)
