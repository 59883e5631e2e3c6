"""Power-law correlated time series toolkit.

Generation of long-memory series and correlated pairs, detrended and
spectral exponent estimation, scale-specific correlation and regression
coefficients, power-law coherency with regime classification, and a seeded
Monte Carlo harness. The ``plcc`` command line exposes the same operations
on CSV files.
"""

from .arfima import (
    GAUSSIAN,
    STUDENT_T,
    BivariateSeries,
    McArfimaSpec,
    arfima_weights,
    correlated_innovations,
    filter_mc_arfima,
    generate_arfima,
    generate_mc_arfima,
)
from .core import (
    FluctuationCurve,
    ScalingFit,
    TimeSeries,
    fit_loglog,
    partial_sum_scaling,
    profile,
    sample_ccf,
    series_values,
)
from .detrended import (
    DetrendConfig,
    JointFluctuations,
    beta_dcca,
    dcca_fluctuation,
    default_scale_grid,
    dfa_fluctuation,
    estimate_hurst_dfa,
    estimate_hxy_dcca,
    min_scale_for_order,
    rho_dcca,
)
from .errors import (
    DegenerateInput,
    EstimationFailed,
    InvalidInput,
    InvalidParameter,
    NonPositiveOrdinate,
    PlccError,
    SeriesTooShort,
    TruncationWarning,
)
from .montecarlo import (
    ESTIMATORS,
    CellStats,
    ExperimentConfig,
    ExperimentResult,
    feasibility_sweep,
    run_experiment,
    split_seed,
    standard_regimes,
    theoretical_exponents,
)
from .powerlaw import (
    REGIME_ANTI_COINTEGRATION,
    REGIME_INFEASIBLE,
    REGIME_STANDARD,
    CoherencyReport,
    CoherencySettings,
    classify,
    coherency_report,
    h_rho_frequency,
    h_rho_time,
    rho_decay,
)
from .spectral import (
    SpectralEstimate,
    coherency,
    cross_periodogram,
    default_n_freqs,
    estimate_h_logperiodogram,
    estimate_hxy_logcross,
    periodogram,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PlccError",
    "InvalidInput",
    "DegenerateInput",
    "InvalidParameter",
    "NonPositiveOrdinate",
    "SeriesTooShort",
    "EstimationFailed",
    "TruncationWarning",
    # core
    "TimeSeries",
    "ScalingFit",
    "FluctuationCurve",
    "series_values",
    "profile",
    "sample_ccf",
    "partial_sum_scaling",
    "fit_loglog",
    # generation
    "GAUSSIAN",
    "STUDENT_T",
    "McArfimaSpec",
    "BivariateSeries",
    "arfima_weights",
    "correlated_innovations",
    "filter_mc_arfima",
    "generate_mc_arfima",
    "generate_arfima",
    # detrended
    "DetrendConfig",
    "JointFluctuations",
    "min_scale_for_order",
    "default_scale_grid",
    "dfa_fluctuation",
    "dcca_fluctuation",
    "estimate_hurst_dfa",
    "estimate_hxy_dcca",
    "rho_dcca",
    "beta_dcca",
    # spectral
    "SpectralEstimate",
    "periodogram",
    "cross_periodogram",
    "coherency",
    "estimate_h_logperiodogram",
    "estimate_hxy_logcross",
    "default_n_freqs",
    # power-law coherency
    "REGIME_STANDARD",
    "REGIME_ANTI_COINTEGRATION",
    "REGIME_INFEASIBLE",
    "CoherencySettings",
    "CoherencyReport",
    "h_rho_frequency",
    "h_rho_time",
    "rho_decay",
    "classify",
    "coherency_report",
    # Monte Carlo harness
    "ESTIMATORS",
    "ExperimentConfig",
    "CellStats",
    "ExperimentResult",
    "split_seed",
    "theoretical_exponents",
    "run_experiment",
    "feasibility_sweep",
    "standard_regimes",
]
