"""Network architectures (Section III-B).

- :mod:`repro.network.wta` — the paper's Fig. 3 architecture: input spike
  trains all-to-all connected to a first layer of LIF neurons, with a
  second-layer winner-take-all inhibition loop.
- :mod:`repro.network.labeling` — post-training neuron labeling with the
  first chunk of the test set.
- :mod:`repro.network.inference` — classification by labeled-neuron votes.
"""

from repro.network.inference import classify_batch, predict_label, vote_scores
from repro.network.labeling import NeuronLabeler, assign_labels
from repro.network.wta import WTANetwork, recommended_amplitude

__all__ = [
    "classify_batch",
    "predict_label",
    "vote_scores",
    "NeuronLabeler",
    "assign_labels",
    "WTANetwork",
    "recommended_amplitude",
]
