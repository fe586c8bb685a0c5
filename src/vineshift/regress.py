"""Conditional-density regression on top of a fitted vine.

The conditional density of the target given features keeps only the
factors that involve the target variable; feature-only factors are
constant in y and cancel when the product is normalized over a grid:

    p(y | x)  ~  p_y(y) * prod_{edges e with y in N(e)} c_e(...)

The grid spans the target marginal's [0.001, 0.999] quantile range
expanded by 10 percent, and normalization is trapezoidal.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .errors import DegenerateDataError, SchemaError
from .rvine import VineModel


@dataclass(frozen=True)
class YGrid:
    points: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "points", np.asarray(self.points, dtype=float).ravel())
        if self.points.size < 33:
            raise ValueError("grid needs at least 33 points")
        if np.any(np.diff(self.points) <= 0.0):
            raise ValueError("grid points must be strictly increasing")


@dataclass(frozen=True)
class RegressionMetrics:
    nmse: float
    tll: float


def _require_target(vine: VineModel) -> int:
    if vine.target_index is None:
        raise ValueError("model has no target variable configured")
    return int(vine.target_index)


def default_grid(vine: VineModel, n_points: int = 257) -> YGrid:
    """Grid over the target marginal's expanded quantile range."""
    y = _require_target(vine)
    marg = vine.marginals[y]
    lo, hi = marg.quantile([0.001, 0.999])
    pad = 0.05 * (hi - lo)
    return YGrid(np.linspace(lo - pad, hi + pad, n_points))


def feature_indices(vine: VineModel) -> list:
    y = _require_target(vine)
    return [i for i in range(vine.dim) if i != y]


def conditional_density_batch(vine: VineModel, X_feat, grid: YGrid) -> np.ndarray:
    """Normalized conditional densities, one row per feature vector.

    X_feat columns follow the model's variable order with the target
    column removed. Output row r integrates to 1 over grid.points by the
    trapezoid rule.
    """
    y = _require_target(vine)
    feats = feature_indices(vine)
    Xf = np.atleast_2d(np.asarray(X_feat, dtype=float))
    if Xf.shape[1] != len(feats):
        raise ValueError(f"expected {len(feats)} feature columns, got {Xf.shape[1]}")

    # The vine's sum of the log factors over y, with the features as (m, 1)
    # columns and the grid as a (1, g) row: a factor over y runs on the
    # (m, g) cross product, and feature-only h-functions run on m rows.
    columns = [x[:, None] for x in Xf.T]
    columns.insert(y, grid.points[None, :])
    logd = vine._log_factors(columns, involving=y)

    logd -= logd.max(axis=1, keepdims=True)
    dens = np.exp(logd)
    dens /= np.trapezoid(dens, grid.points, axis=1)[:, None]
    return dens


def conditional_density(vine: VineModel, x_feat, grid: YGrid) -> np.ndarray:
    """Normalized conditional density of the target for one feature vector."""
    return conditional_density_batch(vine, np.asarray(x_feat, dtype=float)[None, :], grid)[0]


def predict_means(vine: VineModel, X_feat, grid: YGrid | None = None,
                  point: str = "mean") -> np.ndarray:
    """Point predictions from the conditional density (mean or median)."""
    if grid is None:
        grid = default_grid(vine)
    return _point_predictions(conditional_density_batch(vine, X_feat, grid), grid, point)


def _point_predictions(dens: np.ndarray, grid: YGrid, point: str) -> np.ndarray:
    """Mean or median of each row of conditional densities over grid."""
    if point == "mean":
        return np.trapezoid(dens * grid.points, grid.points, axis=1)
    if point == "median":
        half = np.concatenate([np.zeros((dens.shape[0], 1)),
                               np.cumsum((dens[:, 1:] + dens[:, :-1]) * 0.5
                                         * np.diff(grid.points), axis=1)], axis=1)
        out = np.empty(dens.shape[0])
        for r in range(dens.shape[0]):
            out[r] = np.interp(0.5, half[r], grid.points)
        return out
    raise ValueError("point must be 'mean' or 'median'")


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


def _test_rows(vine: VineModel, test) -> np.ndarray:
    """Rows of a Dataset whose columns are the model's variables, or of an array."""
    if isinstance(test, Dataset):
        if test.names != vine.variable_names:
            raise SchemaError("test columns do not match the model's variables")
        return test.X
    return np.asarray(test, dtype=float)


def test_log_likelihood(vine: VineModel, test) -> float:
    """Mean log density over test rows."""
    return float(np.mean(vine.log_density(_test_rows(vine, test))))


def evaluate(vine: VineModel, test: Dataset,
             grid: YGrid | None = None) -> RegressionMetrics:
    """NMSE of conditional-mean predictions plus mean test log density."""
    y = _require_target(vine)
    X = _test_rows(vine, test)
    if grid is None:
        grid = default_grid(vine)
    preds = predict_means(vine, X[:, feature_indices(vine)], grid)
    return RegressionMetrics(nmse=nmse(preds, X[:, y]), tll=test_log_likelihood(vine, X))


__all__ = [
    "RegressionMetrics",
    "YGrid",
    "conditional_density",
    "conditional_density_batch",
    "default_grid",
    "evaluate",
    "feature_indices",
    "nmse",
    "predict_means",
    "test_log_likelihood",
]
