"""Configuration objects and Table I presets for ParallelSpikeSim.

The public surface of this package:

- :mod:`repro.config.parameters` — validated dataclasses for every tunable
  part of the simulator (neuron model, STDP rules, quantisation, input
  encoding, network architecture, simulation schedule).
- :mod:`repro.config.presets` — the named learning options of Table I of the
  paper (``"2bit"``, ``"4bit"``, ``"8bit"``, ``"16bit"``,
  ``"high_frequency"``) plus the floating-point baseline rows.
- :mod:`repro.config.serialize` — round-trip of any config to/from plain
  dictionaries and JSON.
"""

from repro.config.parameters import (
    AdaptiveThresholdParameters,
    DeterministicSTDPParameters,
    EncodingParameters,
    EngineConfig,
    ExperimentConfig,
    LIFParameters,
    LTDMode,
    QuantizationConfig,
    RoundingMode,
    SimulationParameters,
    StochasticSTDPParameters,
    STDPKind,
    WTAParameters,
)
from repro.config.presets import (
    PAPER_LIF,
    available_presets,
    baseline_preset,
    get_preset,
    high_frequency_preset,
)
from repro.config.serialize import config_from_dict, config_to_dict, load_json, save_json

__all__ = [
    "AdaptiveThresholdParameters",
    "DeterministicSTDPParameters",
    "EncodingParameters",
    "EngineConfig",
    "ExperimentConfig",
    "LIFParameters",
    "LTDMode",
    "QuantizationConfig",
    "RoundingMode",
    "SimulationParameters",
    "StochasticSTDPParameters",
    "STDPKind",
    "WTAParameters",
    "PAPER_LIF",
    "available_presets",
    "baseline_preset",
    "get_preset",
    "high_frequency_preset",
    "config_from_dict",
    "config_to_dict",
    "load_json",
    "save_json",
]
