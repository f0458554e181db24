"""Synapse models (Section II-B).

- :mod:`repro.synapses.conductance` — the plastic all-to-all conductance
  matrix connecting input spike trains to the first neuron layer.  Learning
  is "achieved through modulating the conductance of synapses"; this class
  owns the storage (float or fixed point) and range clamping.
- :mod:`repro.synapses.traces` — spike timers tracking the most recent pre-
  and post-synaptic spike per channel, the quantity the STDP rules turn into
  the time difference Δt.
"""

from repro.synapses.conductance import ConductanceMatrix
from repro.synapses.traces import SpikeTimers

__all__ = ["ConductanceMatrix", "SpikeTimers"]
