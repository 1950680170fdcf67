"""Block-maxima extreme value analysis toolkit.

Fit Gumbel, Frechet, Weibull, and GEV distributions to block-maxima series
by maximum likelihood, test fit quality with the Anderson-Darling statistic
and Q-Q / probability-difference diagnostics, select the best family, and
compute T-year return levels.
"""

from . import errors
from .diagnostics import (
    AD_CRITICAL_VALUES,
    DescriptiveStats,
    DiffSeries,
    GofResult,
    QqSeries,
    anderson_darling,
    describe,
    plotting_positions,
    probability_difference,
    qq_series,
    select_best,
)
from .distributions import (
    EULER_GAMMA,
    FAMILIES,
    FAMILY_LABELS,
    GEV,
    Distribution,
    Frechet,
    Gumbel,
    Weibull,
    clamp_probability,
    make_params,
    params_from_sequence,
    params_to_dict,
)
from .fitting import (
    FitOutcome,
    FitResult,
    fit_all,
    fit_mle,
    initial_params,
    log_likelihood,
)
from .io import Dataset, load_csv, simulate_to_csv
from .pipeline import (
    AnalysisReport,
    emit_plot_data,
    emit_report,
    report_to_dict,
    run_pipeline,
)
from .returns import (
    DEFAULT_RETURN_PERIODS,
    ReturnLevelTable,
    ReturnSpec,
    return_curve,
    return_level,
    return_level_table,
)
from .sample import Sample
from .simplex import SimplexResult, nelder_mead

__version__ = "0.1.0"

__all__ = [
    "AD_CRITICAL_VALUES",
    "AnalysisReport",
    "Dataset",
    "DEFAULT_RETURN_PERIODS",
    "DescriptiveStats",
    "DiffSeries",
    "Distribution",
    "EULER_GAMMA",
    "FAMILIES",
    "FAMILY_LABELS",
    "FitOutcome",
    "FitResult",
    "Frechet",
    "GEV",
    "GofResult",
    "Gumbel",
    "QqSeries",
    "ReturnLevelTable",
    "ReturnSpec",
    "Sample",
    "SimplexResult",
    "Weibull",
    "anderson_darling",
    "clamp_probability",
    "describe",
    "emit_plot_data",
    "emit_report",
    "errors",
    "fit_all",
    "fit_mle",
    "initial_params",
    "load_csv",
    "log_likelihood",
    "make_params",
    "nelder_mead",
    "params_from_sequence",
    "params_to_dict",
    "plotting_positions",
    "probability_difference",
    "qq_series",
    "report_to_dict",
    "return_curve",
    "return_level",
    "return_level_table",
    "run_pipeline",
    "select_best",
    "simulate_to_csv",
]
