"""Twin-beam counting statistics and interferometer visibility toolkit."""

__version__ = "0.1.0"

from .analysis import (
    AnalysisParams,
    BinnedCounts,
    CellGrid,
    bin_events,
    bootstrap_std,
    cell_histograms,
    cell_means,
    filter_cells,
    pooled_counts_histogram,
    sum_histograms,
)
from .distributions import (
    DetectorModel,
    Pmf,
    TmsvParams,
    binomial_thin,
    multimode_pmf,
    poisson_pmf,
    thermal_pmf,
)
from .fitting import (
    DegeneracyFit,
    DipFit,
    FitFailureError,
    VisibilityParams,
    VisibilityPrediction,
    fit_degeneracy,
    fit_gaussian_dip,
    predict_visibility,
    propagate_visibility_uncertainty,
)
from .fock import (
    OverlapModel,
    UndefinedVisibilityError,
    cross_correlation,
    hom_joint_pmf,
    thermal_input_visibility,
    visibility_oracle,
)
from .simulate import (
    EventTable,
    HomRun,
    HomScanConfig,
    SourceConfig,
    correlation_scan,
    derive_shot_seed,
    read_event_table,
    simulate_counting_run,
    simulate_hom_run,
    write_event_table,
    write_hom_events,
)

__all__ = [name for name in dir() if not name.startswith("_")]
