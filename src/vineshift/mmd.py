"""Maximum Mean Discrepancy two-sample test.

Unbiased MMD^2 with an RBF kernel and permutation p-values. The
permutation loop is expressed as one matrix product against a bank of
relabeling indicator vectors, which keeps 200 permutations at n=1000
within a fraction of a second while remaining exactly equal to the
naive per-permutation evaluation. A test forms one pooled distance
matrix, built in place: the cross products are computed into it, and
each block of rows is then overwritten with its distances. The
median-heuristic bandwidth is read from it, through one copy of its
upper triangle, and the kernel is then built in its memory. Above 1000
pooled rows the bandwidth comes from a strided subsample's own
distances, computed and freed before the pooled matrix is formed, so
the peak stays at one pooled matrix plus the median's copy.

The pooled rows are scaled by 2^-e, with e the binary exponent of their
largest magnitude, before they are centred and squared, so that squared
distances neither overflow nor underflow at any scale (Blue 1978).
Multiplying by a power of two is exact away from overflow and
subnormals, so distances, bandwidths and kernel values are those of the
unscaled rows bit for bit wherever those were finite; results in data
units are scaled back. The median distance is read from the squared
distances: one copy of the upper triangle is partitioned in place, and
only its one or two middle values get square roots. The square root is
monotone and correctly rounded, so this is the median of the distances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InsufficientDataError, require_integer
from .statcore import row_blocks

# Most pooled rows the median heuristic forms distances between.
_MEDIAN_ROWS = 1000


@dataclass(frozen=True)
class MmdConfig:
    permutations: int = 200
    alpha: float = 0.05
    seed: int = 0

    def __post_init__(self):
        require_integer("permutations", self.permutations)
        require_integer("seed", self.seed)
        if self.permutations < 50:
            raise ValueError("permutations must be >= 50")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    rejected: bool
    bandwidth: float  # the median-heuristic kernel bandwidth, in data units


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


def _ldexp(x, e: int) -> float:
    """x * 2^e as a float; inf, without a warning, where that overflows."""
    with np.errstate(over="ignore"):
        return float(np.ldexp(x, e))


def _sq_dists(Z: np.ndarray):
    """Squared Euclidean distances between the rows of Z * 2^-e, clipped at 0, and e.

    e is the binary exponent of Z's largest magnitude, so the scaled
    rows lie in (-1, 1). The rows are centred after scaling. A shift
    changes no distance, but |a|^2 + |b|^2 - 2 a.b loses digits in
    proportion to |a|^2: a column of spread 1e3 at 1e12 would keep
    nothing of its spread.
    """
    e = int(np.frexp(np.abs(Z).max())[1])
    Z = np.ldexp(Z, -e)
    Z -= Z.mean(axis=0)
    sq = (Z * Z).sum(axis=1)
    d2 = np.matmul(2.0 * Z, Z.T)  # a product of 2Z and Z.T; 2 * (Z @ Z.T) rounds differently
    # each block of rows becomes fl(sq_i + sq_j) - 2 z_i.z_j in the product's memory
    for blk in row_blocks(*d2.shape):
        rows = d2[blk]
        np.subtract(sq[blk, None] + sq[None, :], rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return d2, e


def _kernel_from(d2: np.ndarray, bandwidth: float):
    """RBF kernel with a zero diagonal, built in d2's memory, and its row sums.

    A bandwidth whose square underflows to zero gets the kernel's limit,
    1 at distance zero and 0 elsewhere, where 0 / 0 would give nan.
    """
    scale = -2.0 * bandwidth * bandwidth
    if scale == 0.0:
        d2[...] = d2 == 0.0
    else:
        d2 /= scale
        np.exp(d2, out=d2)
    K = d2
    np.fill_diagonal(K, 0.0)
    return K, K.sum(axis=1)


def _median_distance(d2: np.ndarray, e: int) -> float:
    """Median of the distances above d2's diagonal, for d2 from rows scaled by 2^-e.

    Falls back to 2^-e, which is 1.0 in data units, when the median is zero.
    """
    N = d2.shape[0]
    upper = np.concatenate([d2[i, i + 1:] for i in range(N - 1)])
    mid = upper.size // 2
    if upper.size % 2:
        upper.partition(mid)
        med = float(np.sqrt(upper[mid]))
    else:
        upper.partition([mid - 1, mid])
        med = float(np.mean(np.sqrt(upper[mid - 1:mid + 1])))
    return med if med > 0.0 else _ldexp(1.0, -e)


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
    d2, e = _sq_dists(Z)
    return _ldexp(_median_distance(d2, e), e)


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


def _relabelings(N: int, n: int, B: int, seed: int) -> np.ndarray:
    """(N, B) bank whose column b marks the rows relabeling b puts in X.

    Column b is the first n entries of the b-th of B calls of
    rng.permutation(N), drawn as one batch.
    """
    rng = np.random.default_rng(seed)
    x_rows = rng.permuted(np.tile(np.arange(N), (B, 1)), axis=1)[:, :n]
    S = np.zeros((N, B))
    S[x_rows, np.arange(B)[:, None]] = 1.0
    return S


def mmd_statistic(X, Y, bandwidth: float) -> float:
    """Unbiased MMD^2 with the RBF kernel exp(-|a-b|^2 / (2 bw^2))."""
    Xa, Ya = _as_matrix(X), _as_matrix(Y)
    _check_pair(Xa, Ya)
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    d2, e = _sq_dists(np.vstack([Xa, Ya]))
    K, r = _kernel_from(d2, _ldexp(bandwidth, -e))
    return _observed(K, r, Xa.shape[0], Ya.shape[0])


def permutation_test(X, Y, config: MmdConfig) -> TestResult:
    """Permutation two-sample test; deterministic given config.seed."""
    Xa, Ya = _as_matrix(X), _as_matrix(Y)
    _check_pair(Xa, Ya)
    n, m = Xa.shape[0], Ya.shape[0]
    N = n + m
    # median_heuristic's distances are the pooled matrix's unless it
    # subsamples; then its own matrix is formed and freed first, so the
    # two never coexist
    subsampled = median_heuristic(Xa, Ya) if N > _MEDIAN_ROWS else None
    d2, e = _sq_dists(np.vstack([Xa, Ya]))
    bw = _median_distance(d2, e) if subsampled is None else _ldexp(subsampled, -e)
    K, r = _kernel_from(d2, bw)
    observed = _observed(K, r, n, m)

    B = config.permutations
    S = _relabelings(N, n, B, config.seed)
    quad = np.einsum("ib,ib->b", S, K @ S)
    permuted = _stat_from_parts(quad, r @ S, float(r.sum()), n, m)

    count = int((permuted >= observed).sum())
    p_value = (1.0 + count) / (1.0 + B)
    return TestResult(statistic=float(observed), p_value=float(p_value),
                      rejected=bool(p_value < config.alpha), bandwidth=_ldexp(bw, e))


__all__ = ["MmdConfig", "TestResult", "median_heuristic", "mmd_statistic", "permutation_test"]
