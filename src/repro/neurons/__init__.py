"""Spiking neuron models (Section II-A).

- :mod:`repro.neurons.lif` — the paper's leaky integrate-and-fire model,
  eqs. (1)-(2), vectorised over a whole population.
- :mod:`repro.neurons.adaptive_lif` — LIF plus the homeostatic adaptive
  threshold used by the WTA network.
- :mod:`repro.neurons.analysis` — frequency-vs-current curves (Fig. 1a).
"""

from repro.neurons.adaptive_lif import AdaptiveLIFPopulation
from repro.neurons.lif import LIFPopulation
from repro.neurons.analysis import fi_curve, spiking_frequency

__all__ = [
    "AdaptiveLIFPopulation",
    "LIFPopulation",
    "fi_curve",
    "spiking_frequency",
]
