"""ParallelSpikeSim reproduction: stochastic STDP for fast, low-precision
unsupervised learning in spiking neural networks.

Reproduces She, Long & Mukhopadhyay, "Fast and Low-Precision Learning in
GPU-Accelerated Spiking Neural Network" (DATE 2019).  See DESIGN.md for the
system inventory and EXPERIMENTS.md for paper-vs-measured results.

Quickstart::

    from repro import get_preset, load_dataset, run_experiment, STDPKind

    dataset = load_dataset("mnist", n_train=200, n_test=100, size=16)
    config = get_preset("float32", stdp_kind=STDPKind.STOCHASTIC, n_neurons=64)
    result = run_experiment(config, dataset)
    print(f"accuracy: {result.accuracy:.1%}")
"""

from repro.config import (
    AdaptiveThresholdParameters,
    DeterministicSTDPParameters,
    EncodingParameters,
    EngineConfig,
    ExperimentConfig,
    LIFParameters,
    QuantizationConfig,
    RoundingMode,
    SimulationParameters,
    STDPKind,
    StochasticSTDPParameters,
    WTAParameters,
    available_presets,
    baseline_preset,
    get_preset,
    high_frequency_preset,
)
from repro.datasets import Dataset, load_dataset
from repro.engine import (
    BatchedInference,
    EngineSpec,
    Equivalence,
    RngStreams,
    available_engines,
    register_engine,
)
from repro.learning import DeterministicSTDP, LTDMode, StochasticSTDP, WeightNormalizer
from repro.io.checkpoint import load_checkpoint, save_checkpoint
from repro.network import WTANetwork
from repro.pipeline import (
    EvaluationResult,
    ParameterSweep,
    Evaluator,
    ExperimentResult,
    TrainingLog,
    UnsupervisedTrainer,
    run_experiment,
)
from repro.quantization import QFormat, make_quantizer, parse_qformat
from repro.version import __version__

__all__ = [
    "AdaptiveThresholdParameters",
    "DeterministicSTDPParameters",
    "EncodingParameters",
    "EngineConfig",
    "ExperimentConfig",
    "LIFParameters",
    "QuantizationConfig",
    "RoundingMode",
    "SimulationParameters",
    "STDPKind",
    "StochasticSTDPParameters",
    "WTAParameters",
    "available_presets",
    "baseline_preset",
    "get_preset",
    "high_frequency_preset",
    "Dataset",
    "load_dataset",
    "BatchedInference",
    "EngineSpec",
    "Equivalence",
    "RngStreams",
    "available_engines",
    "register_engine",
    "load_checkpoint",
    "save_checkpoint",
    "ParameterSweep",
    "DeterministicSTDP",
    "LTDMode",
    "StochasticSTDP",
    "WeightNormalizer",
    "WTANetwork",
    "EvaluationResult",
    "Evaluator",
    "ExperimentResult",
    "TrainingLog",
    "UnsupervisedTrainer",
    "run_experiment",
    "QFormat",
    "make_quantizer",
    "parse_qformat",
    "__version__",
]
