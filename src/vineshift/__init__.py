"""Non-parametric vine copula density estimation with domain adaptation.

The package factors a joint density into kernel marginals and a
regular-vine pair-copula decomposition, supports conditional-density
regression on the fitted model, and adapts fitted models to new tasks
by testing each factor with an MMD two-sample test and refitting only
the factors that changed.
"""

from .adapt import AdaptationInput, AdaptationReport, FactorDecision, adapt_vine
from .bench import ExperimentConfig, adaptation_experiment, density_bench
from .bicopula import GaussianCopula, IndependenceCopula, KernelCopula
from .dataio import Dataset, read_csv, write_csv
from .errors import (DegenerateDataError, InsufficientDataError, ParseError,
                     SchemaError, StructureError)
from .mmd import MmdConfig, TestResult, mmd_statistic, permutation_test
from .modelfile import load, save
from .regress import (RegressionMetrics, YGrid, conditional_density,
                      conditional_density_batch, default_grid, evaluate, predict_means)
from .rvine import VineModel, fit_vine
from .statcore import (GaussianKernel1D, kendall_tau, rank_pseudo_observations,
                       silverman_bandwidth)

__version__ = "0.1.0"

__all__ = [
    "AdaptationInput",
    "AdaptationReport",
    "Dataset",
    "DegenerateDataError",
    "ExperimentConfig",
    "FactorDecision",
    "GaussianCopula",
    "GaussianKernel1D",
    "IndependenceCopula",
    "InsufficientDataError",
    "KernelCopula",
    "MmdConfig",
    "ParseError",
    "RegressionMetrics",
    "SchemaError",
    "StructureError",
    "TestResult",
    "VineModel",
    "YGrid",
    "adapt_vine",
    "adaptation_experiment",
    "conditional_density",
    "conditional_density_batch",
    "default_grid",
    "density_bench",
    "evaluate",
    "fit_vine",
    "kendall_tau",
    "load",
    "mmd_statistic",
    "permutation_test",
    "predict_means",
    "rank_pseudo_observations",
    "read_csv",
    "save",
    "silverman_bandwidth",
    "write_csv",
]
