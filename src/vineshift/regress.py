"""Conditional-density regression on top of a fitted vine.

The conditional density of the target given features keeps only the
factors that involve the target variable; feature-only factors are
constant in y and cancel when the product is normalized over a grid:

    p(y | x)  ~  p_y(y) * prod_{edges e with y in N(e)} c_e(...)

The grid spans the target marginal's [0.001, 0.999] quantile range
expanded by 10 percent, and normalization is trapezoidal; one
evaluation gives the grid densities and, at observed targets, log
p(y | x) under the grid's normaliser. Test rows match variables by name.
The target is the model's own: each function that reads it refuses a
model without one through VineModel.require_target (a SchemaError).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError, require_integer
from .rvine import VineModel


@dataclass(frozen=True)
class YGrid:
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float).ravel())
        if self.points.size < 33:
            raise ValueError("grid needs at least 33 points")
        if not (np.isfinite(self.points).all() and np.all(np.diff(self.points) > 0.0)):
            raise ValueError("grid points must be finite and strictly increasing")

    def mean(self, densities: np.ndarray) -> np.ndarray:
        """Mean of each row of densities over the points, by the trapezoid rule."""
        return np.trapezoid(densities * self.points, self.points, axis=1)


@dataclass(frozen=True)
class RegressionMetrics:
    nmse: float
    tll: float


def default_grid(vine: VineModel, n_points: int = 257) -> YGrid:
    """Grid over the target marginal's expanded quantile range."""
    require_integer("n_points", n_points)
    marg = vine.marginals[vine.require_target()]
    lo, hi = marg.quantile([0.001, 0.999])
    pad = 0.05 * (hi - lo)
    return YGrid(np.linspace(lo - pad, hi + pad, n_points))


def feature_indices(vine: VineModel) -> list:
    y = vine.require_target()
    return [i for i in range(vine.dim) if i != y]


def conditional_densities(vine: VineModel, X_feat, grid: YGrid, y=None):
    """Normalized conditional densities over grid, and log p(y | x) at observed y.

    X_feat columns follow the model's variable order with the target
    column removed. Row r of the densities integrates to 1 over
    grid.points by the trapezoid rule. Given y, one observed target per
    row, the second result is the model's log conditional density at
    each y, evaluated there and normalised like the densities, so it is
    finite past the grid's ends too; without y it is None.
    """
    t = vine.require_target()
    feats = feature_indices(vine)
    Xf = np.atleast_2d(np.asarray(X_feat, dtype=float))
    if Xf.shape[1] != len(feats):
        raise ValueError(f"expected {len(feats)} feature columns, got {Xf.shape[1]}")

    # The vine's sum of the log factors over the target, with the features
    # as (m, 1) columns and the grid as a (1, g) row: a factor over the
    # target runs on the (m, g) cross product, and feature-only
    # h-functions run on m rows.
    columns = [x[:, None] for x in Xf.T]
    columns.insert(t, grid.points[None, :])
    logd = vine._log_factors(columns, involving=t)

    shift = logd.max(axis=1, keepdims=True)
    logd -= shift
    dens = np.exp(logd)
    mass = np.trapezoid(dens, grid.points, axis=1)[:, None]
    dens /= mass
    if y is None:
        return dens, None
    # the same sum at each observed y, an (m, 1) column, under the grid's normaliser
    columns[t] = np.asarray(y, dtype=float)[:, None]
    return dens, (vine._log_factors(columns, involving=t) - shift - np.log(mass))[:, 0]


def conditional_density_batch(vine: VineModel, X_feat, grid: YGrid) -> np.ndarray:
    """Normalized conditional densities, one row per feature vector."""
    return conditional_densities(vine, X_feat, grid)[0]


def conditional_density(vine: VineModel, x_feat, grid: YGrid) -> np.ndarray:
    """Normalized conditional density of the target for one feature vector."""
    return conditional_density_batch(vine, np.asarray(x_feat, dtype=float)[None, :], grid)[0]


def predict_means(vine: VineModel, X_feat, grid: YGrid | None = None) -> np.ndarray:
    """Conditional-mean predictions, one per feature vector."""
    if grid is None:
        grid = default_grid(vine)
    return grid.mean(conditional_density_batch(vine, X_feat, grid))


def nmse(predictions, truth) -> float:
    """Mean squared error over the population variance of the truth."""
    p = np.asarray(predictions, dtype=float).ravel()
    t = np.asarray(truth, dtype=float).ravel()
    if p.size != t.size or p.size < 2:
        raise ValueError("predictions and truth must have equal length >= 2")
    var = float(np.var(t))
    if var == 0.0:
        raise DegenerateDataError("truth has zero variance; NMSE undefined")
    return float(np.mean((p - t) ** 2) / var)


def test_log_likelihood(vine: VineModel, test) -> float:
    """Mean log density over test rows: a Dataset, matched by name, or an array."""
    X = test.aligned(vine.variable_names) if isinstance(test, Dataset) else test
    return float(np.mean(vine.log_density(X)))


def evaluate(vine: VineModel, test: Dataset,
             grid: YGrid | None = None) -> RegressionMetrics:
    """NMSE of conditional-mean predictions plus mean test log density, columns by name."""
    y = vine.require_target()
    X = test.aligned(vine.variable_names)
    if grid is None:
        grid = default_grid(vine)
    preds = predict_means(vine, X[:, feature_indices(vine)], grid)
    return RegressionMetrics(nmse=nmse(preds, X[:, y]), tll=test_log_likelihood(vine, X))


__all__ = [
    "RegressionMetrics",
    "YGrid",
    "conditional_densities",
    "conditional_density",
    "conditional_density_batch",
    "default_grid",
    "evaluate",
    "feature_indices",
    "nmse",
    "predict_means",
    "test_log_likelihood",
]
