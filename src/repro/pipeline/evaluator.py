"""Evaluation protocol (Section III-B): label neurons, then classify.

The paper's procedure after training:

1. freeze plasticity;
2. present the first ``n_labeling`` test images (1000 in the paper); each
   neuron is labeled with the class it responded to most;
3. present the remaining test images; each is classified by the
   labeled-neuron vote of :mod:`repro.network.inference`.

``Evaluator`` runs the whole protocol and also exposes
:meth:`Evaluator.collect_responses` for reuse (labeling, inference and the
mid-training accuracy probe all need per-image response vectors).  The
response collection itself is delegated to a presentation engine resolved
by name through :mod:`repro.engine.registry`.  ``"fused"`` and
``"qfused"`` step a chunk of plasticity-frozen presentations in lock-step,
bit-identical to the ``"reference"`` per-image loop under pinned seeds and
several times faster, which is why ``"fused"`` is the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.analysis.accuracy import accuracy_score, confusion_matrix
from repro.backend import use_backend
from repro.engine.registry import create_engine
from repro.errors import LabelingError
from repro.network.inference import classify_batch
from repro.network.labeling import NeuronLabeler
from repro.network.wta import WTANetwork
from repro.pipeline.progress import NullProgress


@dataclass
class EvaluationResult:
    """Outcome of the label-then-infer protocol."""

    accuracy: float
    predictions: np.ndarray
    true_labels: np.ndarray
    neuron_labels: np.ndarray
    confusion: np.ndarray
    labeled_fraction: float

    @property
    def error_rate(self) -> float:
        return 1.0 - self.accuracy


class Evaluator:
    """Runs labeling and inference against a trained network."""

    def __init__(
        self,
        network: WTANetwork,
        n_classes: int = 10,
        t_present_ms: Optional[float] = None,
        progress=None,
        engine: Optional[str] = None,
    ) -> None:
        self.network = network
        self.n_classes = n_classes
        # Presentation time for labeling/inference; defaults to the training
        # schedule's t_learn.
        self.t_present_ms = (
            t_present_ms
            if t_present_ms is not None
            else network.config.simulation.t_learn_ms
        )
        self.progress = progress if progress is not None else NullProgress()
        #: Engine name for :meth:`collect_responses`; ``None`` defers to the
        #: config's ``engine.eval`` selection (default ``"fused"``).
        self.engine = engine

    def collect_responses(self, images: np.ndarray, label: str = "responses") -> np.ndarray:
        """Per-image output spike counts, shape ``(n_images, n_neurons)``.

        Runs inside :meth:`WTANetwork.evaluation_mode`, so plasticity and
        threshold adaptation are untouched.  The presentation loop is the
        evaluator's engine (falling back to the config's ``engine.eval``),
        resolved through the registry; see
        :meth:`repro.engine.presentation.PresentationEngine.collect_responses`
        for the shared loop and each engine's equivalence tier.
        """
        engine_name = self.engine or self.network.config.engine.eval
        # Sequential kernels bind their array backend at construction, but
        # the batched engine resolves it per collect_responses call — keep
        # both inside the scope so ``engine.backend`` governs either path.
        with use_backend(self.network.config.engine.backend):
            kernel = create_engine(engine_name, self.network)
            return kernel.collect_responses(
                images, self.t_present_ms, progress=self.progress, label=label
            )

    def label_neurons(self, images: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Assign a class to every neuron from its labeling-set responses."""
        labels = np.asarray(labels, dtype=np.int64)
        responses = self.collect_responses(images, label="labeling")
        if responses.shape[0] != labels.shape[0]:
            raise LabelingError(
                f"{responses.shape[0]} responses but {labels.shape[0]} labels"
            )
        labeler = NeuronLabeler(self.n_classes, responses.shape[1])
        for lbl, counts in zip(labels, responses):
            labeler.add(int(lbl), counts)
        return labeler.labels()

    def evaluate(
        self,
        labeling_images: np.ndarray,
        labeling_labels: np.ndarray,
        test_images: np.ndarray,
        test_labels: np.ndarray,
    ) -> EvaluationResult:
        """The full protocol; returns accuracy and diagnostics."""
        neuron_labels = self.label_neurons(labeling_images, labeling_labels)
        responses = self.collect_responses(test_images, label="inference")
        predictions = classify_batch(
            responses, neuron_labels, self.n_classes, self.network.rngs.misc
        )
        true = np.asarray(test_labels, dtype=np.int64)
        return EvaluationResult(
            accuracy=accuracy_score(true, predictions),
            predictions=predictions,
            true_labels=true,
            neuron_labels=neuron_labels,
            confusion=confusion_matrix(true, predictions, self.n_classes),
            labeled_fraction=float(np.mean(neuron_labels >= 0)),
        )
