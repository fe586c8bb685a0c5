"""Scalar statistical primitives.

Standard-normal special functions, one-dimensional Gaussian kernel
density models with Silverman bandwidths, rank transforms, and an exact
O(n log n) Kendall rank correlation. All of it is vectorised numpy:
Kendall tau counts its discordant pairs as the inversions of a rank
sequence, one rank bit per step, and the kernel quantile bisects all
points at once. Everything here is a pure function of its inputs;
fitted kernel models are immutable after construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateDataError, InsufficientDataError

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Matrix entries per block of every (points x centers) kernel sum in the
# package: 2^16 doubles, 512 KB per temporary. Blocks this small stay in
# cache and reuse freed memory; multi-megabyte ones page-fault afresh.
BLOCK_ENTRIES = 1 << 16


def row_blocks(rows: int, width: int):
    """Slices covering range(rows), about BLOCK_ENTRIES / width rows each.

    Every kernel sum reduces each row on its own, so the block size sets
    how much memory a call touches, never a bit of its result.
    """
    step = max(1, BLOCK_ENTRIES // max(width, 1))
    return map(slice, range(0, rows, step), range(step, rows + step, step))


def _as_float_array(x) -> tuple[np.ndarray, bool]:
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def std_normal_pdf(x):
    """Standard Gaussian density exp(-x^2/2)/sqrt(2*pi)."""
    arr, scalar = _as_float_array(x)
    out = np.exp(-0.5 * arr * arr) / _SQRT_2PI
    return float(out) if scalar else out


def std_normal_cdf(x):
    """Standard Gaussian cdf. Accepts +-inf, mapping to 1/0."""
    arr, scalar = _as_float_array(x)
    out = ndtr(arr)
    return float(out) if scalar else out


def std_normal_quantile(p):
    """Inverse standard Gaussian cdf on the open interval (0, 1)."""
    arr, scalar = _as_float_array(p)
    if np.any(arr <= 0.0) or np.any(arr >= 1.0):
        raise ValueError("quantile argument must lie strictly in (0, 1)")
    out = ndtri(arr)
    return float(out) if scalar else out


def silverman_bandwidth(sample, dim: int = 1) -> float:
    """Rule-of-thumb bandwidth sigma * (4/(dim+2))^(1/(dim+4)) * n^(-1/(dim+4)).

    dim is the dimension of the estimation space the kernel lives in:
    1 for marginal densities, 2 when the coordinate belongs to a
    bivariate copula estimate. sigma is the sample standard deviation
    (ddof=1).
    """
    arr = np.asarray(sample, dtype=float).ravel()
    n = arr.size
    if n < 2:
        raise InsufficientDataError("silverman_bandwidth needs at least 2 points")
    if dim < 1:
        raise ValueError("dim must be a positive integer")
    sigma = float(np.std(arr, ddof=1))
    if sigma == 0.0:
        raise DegenerateDataError("zero-variance sample has no usable bandwidth")
    return sigma * (4.0 / (dim + 2.0)) ** (1.0 / (dim + 4.0)) * n ** (-1.0 / (dim + 4.0))


@dataclass(frozen=True)
class GaussianKernel1D:
    """Gaussian kernel mixture with one common bandwidth.

    pdf(x)  = (1/(n h)) sum_i phi((x - c_i)/h)
    cdf(x)  = (1/n) sum_i Phi((x - c_i)/h)
    """

    centers: np.ndarray
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float).ravel())
        if self.centers.size == 0:
            raise ValueError("centers must be non-empty")
        if not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive")

    @classmethod
    def fit(cls, data) -> "GaussianKernel1D":
        """Fit with the Silverman dim=1 bandwidth."""
        arr = np.asarray(data, dtype=float).ravel()
        return cls(arr, silverman_bandwidth(arr, dim=1))

    def _std_resid(self, x: np.ndarray) -> np.ndarray:
        t = x[..., None] - self.centers
        t /= self.bandwidth
        return t

    def _row_sums(self, x, row_sum):
        """row_sum of each point's standardised residuals, block by block."""
        arr, scalar = _as_float_array(x)
        out = np.empty(arr.shape, dtype=float)
        flat_in = arr.reshape(-1)
        flat_out = out.reshape(-1)
        for blk in row_blocks(flat_in.size, self.centers.size):
            flat_out[blk] = row_sum(self._std_resid(flat_in[blk]))
        return out, scalar

    def pdf(self, x):
        out, scalar = self._row_sums(x, lambda t: np.exp(-0.5 * t * t).sum(axis=-1))
        out /= self.centers.size * self.bandwidth * _SQRT_2PI
        return float(out) if scalar else out

    def logpdf(self, x):
        """log pdf via the max-shift trick; finite for any finite x."""
        def log_sum(t):
            t *= t
            t *= -0.5
            m = t.max(axis=-1)
            t -= m[..., None]
            return m + np.log(np.exp(t, out=t).sum(axis=-1))

        out, scalar = self._row_sums(x, log_sum)
        out -= np.log(self.centers.size * self.bandwidth * _SQRT_2PI)
        return float(out) if scalar else out

    def cdf(self, x):
        out, scalar = self._row_sums(x, lambda t: ndtr(t, out=t).sum(axis=-1))
        out /= self.centers.size
        return float(out) if scalar else out

    def quantile(self, p):
        """Inverse cdf by vectorised bisection, accurate to ~1e-12 in x.

        Each point stops once its bracket is narrower than
        1e-12 + 4 eps |x|, so a point's result does not depend on the
        other points it is solved with.
        """
        arr, scalar = _as_float_array(p)
        if np.any(arr <= 0.0) or np.any(arr >= 1.0):
            raise ValueError("quantile argument must lie strictly in (0, 1)")
        target = arr.reshape(-1)
        step = 10.0 * self.bandwidth
        lo = np.full(target.shape, float(self.centers.min()) - step)
        hi = np.full(target.shape, float(self.centers.max()) + step)
        while (low := self.cdf(lo) > target).any():
            lo[low] -= step
        while (high := self.cdf(hi) < target).any():
            hi[high] += step
        active = np.arange(target.size)
        while active.size:
            mid = 0.5 * (lo[active] + hi[active])
            left = self.cdf(mid) < target[active]
            lo[active[left]] = mid[left]
            hi[active[~left]] = mid[~left]
            width = hi[active] - lo[active]
            active = active[width > 1e-12 + 4.0 * np.finfo(float).eps * np.abs(mid)]
        out = (0.5 * (lo + hi)).reshape(arr.shape)
        return float(out) if scalar else out


def _change_points(values: np.ndarray) -> np.ndarray:
    """True where an element differs from the one before it (always at 0)."""
    change = np.empty(values.size, dtype=bool)
    change[0] = True
    np.not_equal(values[1:], values[:-1], out=change[1:])
    return change


def _tied_pairs(change: np.ndarray) -> int:
    """Pairs within the runs of equal values that change points delimit."""
    runs = np.diff(np.flatnonzero(np.append(change, True)))
    return int((runs * (runs - 1) // 2).sum())


def _count_inversions(ranks: np.ndarray) -> int:
    """Number of pairs i < j with ranks[i] > ranks[j], for integer ranks >= 0.

    One rank bit per step, most significant first. Before the step for
    bit b the sequence is stably grouped by rank >> (b + 1), so each group
    is contiguous and starts at below[base], the count of ranks under the
    group's smallest possible rank base. A pair in one group whose
    earlier element has bit b set and whose later one has it clear is an
    inversion decided at this bit; every inversion is decided at exactly
    one bit. The step counts, for each clear element, the set elements
    before it in its group, then stably moves the clear elements of each
    group ahead of the set ones. O(n) per bit, O(n log n) in all.
    """
    seq = ranks.copy()
    n = seq.size
    top = int(seq.max())
    levels = top.bit_length()
    below = np.full((1 << levels) + 1, n, dtype=np.int64)
    below[0] = 0
    np.cumsum(np.bincount(seq), out=below[1:top + 2])
    pos = np.arange(n)
    ones = np.zeros(n + 1, dtype=np.int64)
    moved = np.empty_like(seq)
    total = 0
    for b in range(levels - 1, -1, -1):
        half = 1 << b
        one = (seq & half) > 0
        np.cumsum(one, out=ones[1:])
        base = seq & -(half << 1)
        ones_before = ones[:-1] - ones[below[base]]
        total += int(np.dot(ones_before, ~one))
        moved[np.where(one, below[base + half] + ones_before, pos - ones_before)] = seq
        seq, moved = moved, seq
    return total


def _check_finite(name: str, *arrays: np.ndarray):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{name} needs finite values; got nan or inf")


def kendall_tau(x, y) -> float:
    """Kendall tau-a in O(n log n), exact.

    tau_a = (concordant - discordant) / (n(n-1)/2); tied pairs add zero
    to the numerator while the denominator stays at the full pair count.
    Sorting by (x, y) leaves each run of tied x with its y ascending, so
    the discordant count is the number of strict inversions of the y
    sequence in that order, counted on its dense ranks by
    _count_inversions. Tie corrections come from run lengths:

        num = N - 2*discordant - T_x - T_y + T_xy

    with N = n(n-1)/2 and T_* the numbers of pairs tied in x, in y, and
    in both: runs of x in the sorted order, runs of y after sorting y,
    and runs of (x, y) where neither changes from one element to the
    next. All counts are exact integers, so the result equals the
    O(n^2) sign-count definition bit for bit. Raises ValueError on nan
    or inf.
    """
    xa = np.asarray(x, dtype=float).ravel()
    ya = np.asarray(y, dtype=float).ravel()
    if xa.size != ya.size:
        raise ValueError("x and y must have the same length")
    n = xa.size
    if n < 2:
        raise InsufficientDataError("kendall_tau needs at least 2 observations")
    _check_finite("kendall_tau", xa, ya)
    npairs = n * (n - 1) // 2
    order = np.lexsort((ya, xa))
    xs, ys = xa[order], ya[order]
    x_change = _change_points(xs)
    xy_change = x_change | _change_points(ys)
    by_y = np.argsort(ys)
    y_change = _change_points(ys[by_y])
    y_ranks = np.empty(n, dtype=np.int64)
    y_ranks[by_y] = np.cumsum(y_change) - 1
    discordant = _count_inversions(y_ranks)
    t_x = _tied_pairs(x_change)
    t_y = _tied_pairs(y_change)
    t_xy = _tied_pairs(xy_change)
    numerator = npairs - 2 * discordant - t_x - t_y + t_xy
    return numerator / npairs


def pseudo_observations(column) -> np.ndarray:
    """Map a raw column through its own fitted kernel cdf.

    Returns values strictly inside (0, 1). Raises DegenerateDataError
    for zero-variance input.
    """
    arr = np.asarray(column, dtype=float).ravel()
    if arr.size < 2:
        raise InsufficientDataError("pseudo_observations needs at least 2 rows")
    model = GaussianKernel1D.fit(arr)
    return model.cdf(arr)


def rank_pseudo_observations(column) -> np.ndarray:
    """Map a raw column to r_i/(n+1) with average ranks for ties.

    Exactly invariant under strictly increasing transforms of the input,
    which makes copula fits independent of the marginal scale. A run of
    ties at sorted positions start..end-1 shares the rank
    (start + 1 + end) / 2, a half-integer and so exact in float.
    Raises ValueError on nan or inf.
    """
    arr = np.asarray(column, dtype=float).ravel()
    if arr.size < 2:
        raise InsufficientDataError("rank_pseudo_observations needs at least 2 rows")
    _check_finite("rank_pseudo_observations", arr)
    if np.all(arr == arr[0]):
        raise DegenerateDataError("zero-variance column has no ranks to spread")
    order = np.argsort(arr)
    starts = np.flatnonzero(_change_points(arr[order]))
    ends = np.append(starts[1:], arr.size)
    ranks = np.empty(arr.size)
    ranks[order] = np.repeat((starts + 1 + ends) / 2.0, ends - starts)
    return ranks / (arr.size + 1.0)


__all__ = [
    "GaussianKernel1D",
    "kendall_tau",
    "pseudo_observations",
    "rank_pseudo_observations",
    "silverman_bandwidth",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
]
