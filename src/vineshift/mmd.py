"""Maximum Mean Discrepancy two-sample test.

Unbiased MMD^2 with an RBF kernel and permutation p-values. The
permutation loop is expressed as one matrix product against a bank of
relabeling indicator vectors, which keeps 200 permutations at n=1000
within a fraction of a second while remaining exactly equal to the
naive per-permutation evaluation. A test forms one pooled distance
matrix: the median-heuristic bandwidth is read from it, and the kernel
is then built in its memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError

# Most pooled rows the median heuristic forms distances between.
_MEDIAN_ROWS = 1000


@dataclass(frozen=True)
class MmdConfig:
    permutations: int = 200
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.permutations < 50:
            raise ValueError("permutations must be >= 50")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    rejected: bool


def _as_matrix(sample) -> np.ndarray:
    arr = np.asarray(sample, dtype=float)
    if arr.ndim == 1:
        arr = arr[:, None]
    if arr.ndim != 2:
        raise ValueError("samples must be 1-d or 2-d arrays")
    if not np.isfinite(arr).all():
        raise ValueError("samples must not contain nan or inf")
    return arr


def _check_pair(X: np.ndarray, Y: np.ndarray):
    if X.shape[1] != Y.shape[1]:
        raise ValueError("samples must have the same number of columns")
    if X.shape[0] < 2 or Y.shape[0] < 2:
        raise InsufficientDataError("each sample needs at least 2 rows")


def _sq_dists(Z: np.ndarray) -> np.ndarray:
    """Squared Euclidean distances between the rows of Z, clipped at 0.

    The rows are centred first. A shift changes no distance, but
    |a|^2 + |b|^2 - 2 a.b loses digits in proportion to |a|^2: a column
    of spread 1e3 at 1e12 would keep nothing of its spread.
    """
    Z = Z - Z.mean(axis=0)
    sq = (Z * Z).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * Z @ Z.T
    np.maximum(d2, 0.0, out=d2)
    return d2


def _kernel_from(d2: np.ndarray, bandwidth: float):
    """RBF kernel with a zero diagonal, built in d2's memory, and its row sums."""
    d2 /= -2.0 * bandwidth * bandwidth
    K = np.exp(d2, out=d2)
    np.fill_diagonal(K, 0.0)
    return K, K.sum(axis=1)


def _median_distance(d2: np.ndarray) -> float:
    """Median of the distances above d2's diagonal, or 1.0 when it is zero."""
    med = float(np.median(np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)])))
    return med if med > 0.0 else 1.0


def median_heuristic(X, Y) -> float:
    """Median pairwise Euclidean distance of the pooled sample.

    Subsamples to at most 1000 points (evenly strided) before forming
    the distance matrix. Falls back to 1.0 when the median is zero.
    """
    Z = np.vstack([_as_matrix(X), _as_matrix(Y)])
    if Z.shape[0] < 2:
        raise InsufficientDataError("pooled sample needs at least 2 rows")
    if Z.shape[0] > _MEDIAN_ROWS:
        idx = np.linspace(0, Z.shape[0] - 1, _MEDIAN_ROWS).astype(int)
        Z = Z[idx]
    return _median_distance(_sq_dists(Z))


def _stat_from_parts(quad, r_dot, total: float, n: int, m: int):
    """Unbiased MMD^2 from the X-indicator aggregates of a pooled kernel.

    quad  = s' K0 s      (sum of within-X off-diagonal kernel values)
    r_dot = s' K0 1      (X rows against everything)
    total = 1' K0 1      (all off-diagonal kernel values)

    quad and r_dot may be arrays holding one labeling each.
    """
    within_x = quad / (n * (n - 1))
    within_y = (total - 2.0 * r_dot + quad) / (m * (m - 1))
    cross = (r_dot - quad) / (n * m)
    return within_x + within_y - 2.0 * cross


def _observed(K: np.ndarray, r: np.ndarray, n: int, m: int) -> float:
    """MMD^2 of the labeling that puts the first n pooled rows in X."""
    s = np.zeros(n + m)
    s[:n] = 1.0
    return _stat_from_parts(float(s @ K @ s), float(r @ s), float(r.sum()), n, m)


def mmd_statistic(X, Y, bandwidth: float) -> float:
    """Unbiased MMD^2 with the RBF kernel exp(-|a-b|^2 / (2 bw^2))."""
    Xa, Ya = _as_matrix(X), _as_matrix(Y)
    _check_pair(Xa, Ya)
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    K, r = _kernel_from(_sq_dists(np.vstack([Xa, Ya])), bandwidth)
    return _observed(K, r, Xa.shape[0], Ya.shape[0])


def permutation_test(X, Y, config: MmdConfig) -> TestResult:
    """Permutation two-sample test; deterministic given config.seed."""
    Xa, Ya = _as_matrix(X), _as_matrix(Y)
    _check_pair(Xa, Ya)
    n, m = Xa.shape[0], Ya.shape[0]
    N = n + m
    d2 = _sq_dists(np.vstack([Xa, Ya]))
    # median_heuristic's distances are d2's unless it subsamples
    bw = _median_distance(d2) if N <= _MEDIAN_ROWS else median_heuristic(Xa, Ya)
    K, r = _kernel_from(d2, bw)
    observed = _observed(K, r, n, m)

    rng = np.random.default_rng(config.seed)
    B = config.permutations
    S = np.zeros((N, B))
    for b in range(B):
        S[rng.permutation(N)[:n], b] = 1.0
    quad = np.einsum("ib,ib->b", S, K @ S)
    permuted = _stat_from_parts(quad, r @ S, float(r.sum()), n, m)

    count = int((permuted >= observed).sum())
    p_value = (1.0 + count) / (1.0 + B)
    return TestResult(statistic=float(observed), p_value=float(p_value),
                      rejected=bool(p_value < config.alpha))


__all__ = ["MmdConfig", "TestResult", "median_heuristic", "mmd_statistic", "permutation_test"]
