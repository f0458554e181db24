"""Analysis and reporting: the quantities the paper's figures plot.

- :mod:`repro.analysis.accuracy` — accuracy, confusion matrices and the
  moving error rate (Fig. 8c).
- :mod:`repro.analysis.conductance_maps` — per-neuron learned-feature maps
  and contrast/selectivity metrics (Fig. 5).
- :mod:`repro.analysis.distributions` — conductance histograms and
  saturation statistics (Fig. 6b).
- :mod:`repro.analysis.rasters` — spike-raster extraction and ASCII
  rendering (Fig. 6a).
- :mod:`repro.analysis.runtime` — wall-clock/simulated-time bookkeeping and
  speedup ratios (Figs. 4, 7b, 8b).
- :mod:`repro.analysis.report` — plain-text table formatting for benches and
  EXPERIMENTS.md.
"""

from repro.analysis.accuracy import (
    accuracy_score,
    confusion_matrix,
    moving_error_rate,
    per_class_accuracy,
)
from repro.analysis.conductance_maps import (
    ascii_map,
    map_contrast,
    neuron_maps,
    population_selectivity,
)
from repro.analysis.distributions import conductance_histogram, saturation_fractions
from repro.analysis.rasters import ascii_raster, spike_density
from repro.analysis.report import format_table
from repro.analysis.spiketrains import (
    fano_factor,
    isi_cv,
    raster_train_statistics,
    synchrony_index,
)
from repro.analysis.statistics import SeedStudy, bootstrap_ci, summarize
from repro.analysis.visualization import save_conductance_grid, save_raster_image, write_pgm
from repro.analysis.runtime import RuntimeComparison, time_callable

__all__ = [
    "accuracy_score",
    "confusion_matrix",
    "moving_error_rate",
    "per_class_accuracy",
    "ascii_map",
    "map_contrast",
    "neuron_maps",
    "population_selectivity",
    "conductance_histogram",
    "saturation_fractions",
    "ascii_raster",
    "spike_density",
    "format_table",
    "fano_factor",
    "isi_cv",
    "raster_train_statistics",
    "synchrony_index",
    "SeedStudy",
    "bootstrap_ci",
    "summarize",
    "save_conductance_grid",
    "save_raster_image",
    "write_pgm",
    "RuntimeComparison",
    "time_callable",
]
