"""Scalar statistical primitives.

One-dimensional Gaussian kernel density models with Silverman
bandwidths, the Gaussian kernel terms they share with the kernel
copulas in bicopula, rank transforms, and an exact O(n log n)
Kendall rank correlation. All of it is vectorised numpy:
Kendall tau counts its discordant pairs as the inversions of a rank
sequence, one rank bit per step, for one sample pair or for a whole
(P, n) batch of row pairs in one bit loop, block by block; the kernel
quantile bisects all points at once. Everything here is a pure function of its inputs.
A fitted kernel model's centres and bandwidth never change; a marginal
builds one derived table, of its normal score, on first use and keeps
it, so a cdf query costs O(1) rather than one Gaussian cdf per centre
(GaussianKernel1D says what is tabulated, what is exact, and how far
they differ). The table is not stored in model files. Every
elementwise function here, and every copula method in bicopula, takes
its argument shapes through one decorator, elementwise.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import DegenerateDataError, InsufficientDataError

_SQRT_2PI = np.sqrt(2.0 * np.pi)

# Matrix entries per block of every (points x centers) kernel sum in the
# package: 2^16 doubles, 512 KB per temporary. Blocks this small stay in
# cache and reuse freed memory; multi-megabyte ones page-fault afresh.
BLOCK_ENTRIES = 1 << 16

# Entries per block of rows in one kendall_tau call. A block holds about
# a dozen int64 and float temporaries of this size; at 2^13 entries they
# stay near 1 MB, where 2^16 grew a deep vine fit's peak RSS by 14%.
TAU_BLOCK_ENTRIES = 1 << 13

# A marginal's normal-score table: nodes _NODES_PER_BANDWIDTH per bandwidth
# over the centres +- _PAD_BANDWIDTHS bandwidths; queries past them take the
# exact sum. At 3 nodes per bandwidth the cubic's error reached 5.8e-5 of F
# in the lower tail of a normal sample (n=2438), next to an isolated extreme
# centre; at 4 the worst over 100 normal, exponential, t3, bimodal and
# lognormal samples (n=150-4000) was 1.2e-5 relative and 6.2e-7 absolute.
# A node step of _MIN_STEP_ULPS ulps of the grid's ends keeps the rounded
# nodes strictly increasing; a marginal with a smaller step sums exactly.
_NODES_PER_BANDWIDTH = 4
_PAD_BANDWIDTHS = 8
_MIN_STEP_ULPS = 4


def row_blocks(rows: int, width: int, entries: int | None = None):
    """Slices covering range(rows), about entries / width rows each.

    entries defaults to BLOCK_ENTRIES. Every kernel sum reduces each row
    on its own, so the block size sets how much memory a call touches,
    never a bit of its result.
    """
    step = max(1, (entries or BLOCK_ENTRIES) // max(width, 1))
    return map(slice, range(0, rows, step), range(step, rows + step, step))


def log_sum_exp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, max-shifted; overwrites a."""
    m = a.max(axis=-1)
    a -= m[..., None]
    return m + np.log(np.exp(a, out=a).sum(axis=-1))


def elementwise(body):
    """Decorator for a numeric function applied element by element.

    The decorated function takes positional arguments, broadcasts them
    against each other and calls body with each one flattened to a 1-d
    float array; body returns one value per element, flat. The result
    takes the broadcast shape, or is a Python float when every argument
    is a scalar. A method's self (a first parameter named self) is passed
    through as is.
    """
    skip = int(body.__code__.co_varnames[:1] == ("self",))

    @functools.wraps(body)
    def apply(*args):
        arrays = [np.asarray(a, dtype=float) for a in args[skip:]]
        shape = np.broadcast(*arrays).shape
        out = body(*args[:skip], *(a.reshape(-1) if a.shape == shape
                                   else np.broadcast_to(a, shape).reshape(-1) for a in arrays))
        return out.reshape(shape) if shape else float(out[0])

    return apply


def _check_open_unit(name: str, values: np.ndarray):
    if not np.all((values > 0.0) & (values < 1.0)):
        raise ValueError(f"{name} must lie strictly in (0, 1)")


def _log_kernel(x: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """-((x_i - c_k) / sigma)^2 / 2 as a fresh (x.size, centers.shape[-1]) array."""
    t = x[:, None] - centers
    t /= sigma
    t *= t
    t *= -0.5
    return t


def _kernel_cdfs(x: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """Phi((x_i - c_k) / sigma) as a fresh (x.size, centers.size) array."""
    t = x[:, None] - centers
    t /= sigma
    return ndtr(t, out=t)


def _kernel_sfs(x: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """Phi((c_k - x_i) / sigma), the survival terms, as a fresh (x.size, centers.size) array."""
    t = centers - x[:, None]
    t /= sigma
    return ndtr(t, out=t)


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
    # the std of arr * 2^-e, scaled back: the squares neither overflow nor
    # underflow, and a power of two changes no bits in between
    e = int(np.frexp(np.abs(arr).max())[1])
    with np.errstate(over="ignore"):  # a spread past the float range is inf, refused by the caller
        sigma = float(np.ldexp(np.std(np.ldexp(arr, -e), ddof=1), e))
    if sigma == 0.0:
        raise DegenerateDataError("zero-variance sample has no usable bandwidth")
    return sigma * (4.0 / (dim + 2.0)) ** (1.0 / (dim + 4.0)) * n ** (-1.0 / (dim + 4.0))


@dataclass(frozen=True, eq=False)
class GaussianKernel1D:
    """Gaussian kernel mixture with one common bandwidth.

    pdf(x)  = (1/(n h)) sum_i phi((x - c_i)/h)
    cdf(x)  = (1/n) sum_i Phi((x - c_i)/h)

    The centres c_i must be finite. Equality and hashing are by identity.

    pdf and logpdf are the exact sums. cdf answers from a table of the
    normal score s(x) = Phi^-1(cdf(x)), built on first use: nodes h/4
    apart over the centres +- 8h, each holding the exact sum (right of the
    median centre, the exact survival sum, so both tails keep their
    relative precision) and the exact slope s' = pdf(x) / phi(s(x)). A
    query in the grid is Phi of the cubic Hermite interpolant of s, within
    2e-6 of the exact sum, and within 5e-5 of it relative to cdf(x) where
    cdf(x) < 0.5. Queries off the grid, +-inf and nan take the exact sum,
    _exact_cdf, and so does every query of a marginal whose table would
    need as many nodes as it has centres, or whose node step is below a
    few ulps of its centres. Both are properties of the model, so a
    query's value never depends on its batch. The table is derived, never
    stored in a model file.
    """

    centers: np.ndarray
    bandwidth: float

    def __post_init__(self):
        object.__setattr__(self, "centers", np.asarray(self.centers, dtype=float).ravel())
        if self.centers.size == 0:
            raise ValueError("centers must be non-empty")
        if not np.isfinite(self.centers).all():
            raise ValueError("centers must be finite")
        if not 0.0 < self.bandwidth < np.inf:
            raise ValueError(f"bandwidth must be positive and finite, got {float(self.bandwidth)}")

    @classmethod
    def fit(cls, data) -> "GaussianKernel1D":
        """Fit with the Silverman dim=1 bandwidth."""
        arr = np.asarray(data, dtype=float).ravel()
        return cls(arr, silverman_bandwidth(arr, dim=1))

    def _row_sums(self, x: np.ndarray, terms, row_sum) -> np.ndarray:
        """row_sum of terms(points, centers, bandwidth), block by block."""
        out = np.empty(x.size)
        for blk in row_blocks(x.size, self.centers.size):
            out[blk] = row_sum(terms(x[blk], self.centers, self.bandwidth))
        return out

    @elementwise
    def pdf(self, x):
        row_sums = self._row_sums(x, _log_kernel, lambda t: np.exp(t, out=t).sum(axis=-1))
        return row_sums / (self.centers.size * self.bandwidth * _SQRT_2PI)

    @elementwise
    def logpdf(self, x):
        """log pdf via the max-shift trick; finite for any finite x."""
        return (self._row_sums(x, _log_kernel, log_sum_exp)
                - np.log(self.centers.size * self.bandwidth * _SQRT_2PI))

    @functools.cached_property
    def _score_table(self):
        """(nodes, per-interval cubic coefficients) of s, or None to sum exactly."""
        return _normal_score_table(self)

    @elementwise
    def cdf(self, x):
        """Phi of the tabulated normal score; the exact sum off the grid (see the class)."""
        if self._score_table is None:
            return self._exact_cdf(x)
        nodes, coef = self._score_table
        inside = (x >= nodes[0]) & (x <= nodes[-1])
        q = x[inside]
        i = np.minimum(np.searchsorted(nodes, q, side="right") - 1, coef.shape[0] - 1)
        t = (q - nodes[i]) / (nodes[i + 1] - nodes[i])
        a, b, c, d = coef[i].T
        out = np.empty(x.size)
        out[inside] = ndtr(a + t * (b + t * (c + t * d)))
        if not inside.all():
            out[~inside] = self._exact_cdf(x[~inside])
        return out

    @elementwise
    def _exact_cdf(self, x):
        return self._row_sums(x, _kernel_cdfs, lambda t: t.sum(axis=-1)) / self.centers.size

    @elementwise
    def quantile(self, p):
        """Inverse of cdf by vectorised bisection, accurate to ~1e-12 bandwidths in x.

        It inverts cdf as evaluated, so the tabulated one where the
        marginal has a table: cdf(quantile(p)) returns p, and quantile
        differs from the exact sum's inverse by that table's error.
        Each point stops once its bracket is narrower than
        1e-12 h + 4 eps |x| (h the bandwidth): a point's result does not
        depend on the other points it is solved with, and the stop scales
        with the data as the quantile does.
        """
        _check_open_unit("quantile argument", p)
        step = 10.0 * self.bandwidth
        lo = np.full(p.shape, float(self.centers.min()) - step)
        hi = np.full(p.shape, float(self.centers.max()) + step)
        # each widening moves at least one ulp, also where step is below it
        while (low := self.cdf(lo) > p).any():
            lo[low] = np.minimum(lo[low] - step, np.nextafter(lo[low], -np.inf))
        while (high := self.cdf(hi) < p).any():
            hi[high] = np.maximum(hi[high] + step, np.nextafter(hi[high], np.inf))
        tol = 1e-12 * self.bandwidth
        active = np.arange(p.size)
        while active.size:
            mid = 0.5 * (lo[active] + hi[active])
            left = self.cdf(mid) < p[active]
            lo[active[left]] = mid[left]
            hi[active[~left]] = mid[~left]
            width = hi[active] - lo[active]
            active = active[width > tol + 4.0 * np.finfo(float).eps * np.abs(mid)]
        return 0.5 * (lo + hi)


def _normal_score_table(kern: GaussianKernel1D):
    """The table behind kern.cdf, or None where kern sums exactly.

    Nodes x_k = lo + k h/4 from lo = min(c) - 8h to past max(c) + 8h.
    Interval k holds the coefficients (a, b, c, d) of
    s(x_k + t w) = a + t (b + t (c + t d)) for t in [0, 1], w its width
    as the nodes were rounded: the cubic through s(x_k), s(x_k+1) with
    slopes s'(x_k), s'(x_k+1).
    """
    h, centers = kern.bandwidth, kern.centers
    step = h / _NODES_PER_BANDWIDTH
    lo = centers.min() - _PAD_BANDWIDTHS * h
    count = np.ceil((centers.max() + _PAD_BANDWIDTHS * h - lo) / step) + 1
    if not count < centers.size:  # also where the span overflows to inf
        return None
    x = lo + step * np.arange(int(count))
    if step < _MIN_STEP_ULPS * np.spacing(max(abs(x[0]), abs(x[-1]))):
        return None
    upper = x > np.median(centers)
    s = np.empty(x.size)
    s[~upper] = ndtri(kern._exact_cdf(x[~upper]))
    s[upper] = -ndtri(kern._row_sums(x[upper], _kernel_sfs, lambda t: t.sum(axis=-1))
                      / centers.size)
    # s' = pdf / phi(s), from the max-shifted log pdf sums
    slope = np.exp(kern._row_sums(x, _log_kernel, log_sum_exp) - np.log(centers.size * h)
                   + 0.5 * s * s)
    w, ds = np.diff(x), np.diff(s)
    d0, d1 = w * slope[:-1], w * slope[1:]
    coef = np.stack([s[:-1], d0, 3.0 * ds - 2.0 * d0 - d1, d0 + d1 - 2.0 * ds], axis=1)
    x.flags.writeable = coef.flags.writeable = False
    return x, coef


def _change_points(values: np.ndarray) -> np.ndarray:
    """True where an element differs from the one before it in its row.

    Rows are the last axis; the first element of every row is a change.
    """
    change = np.empty(values.shape, dtype=bool)
    change[..., 0] = True
    np.not_equal(values[..., 1:], values[..., :-1], out=change[..., 1:])
    return change


def _tied_pairs(change: np.ndarray) -> np.ndarray:
    """Per row of a (P, n) change array: pairs within its runs of equal values.

    An element ties with the elements of its run before it, as many as
    its distance from the run's last change point.
    """
    pos = np.arange(change.shape[-1])
    start = np.maximum.accumulate(np.where(change, pos, 0), axis=-1)
    return (pos - start).sum(axis=-1)


def _count_inversions(ranks: np.ndarray) -> np.ndarray:
    """Per row of a (P, n) array of integer ranks >= 0: pairs i < j with ranks[i] > ranks[j].

    One rank bit per step, most significant first. Before the step for
    bit b the sequence is stably grouped by rank >> (b + 1), so each group
    is contiguous and starts at below[base], the count of ranks under the
    group's smallest possible rank base. A pair in one group whose
    earlier element has bit b set and whose later one has it clear is an
    inversion decided at this bit; every inversion is decided at exactly
    one bit. The step counts, for each clear element, the set elements
    before it in its group, then stably moves the clear elements of each
    group ahead of the set ones. O(n) per bit, O(n log n) in all.

    All rows run through one bit loop: row r's ranks are offset by
    r << levels (levels the bit length of the largest rank), above every
    bit the loop reads, so no group spans two rows and no element leaves
    its row's stretch of the flattened sequence.
    """
    rows, n = ranks.shape
    levels = int(ranks.max()).bit_length()
    seq = (ranks + (np.arange(rows) << levels)[:, None]).ravel()
    below = np.zeros((rows << levels) + 1, dtype=np.int64)
    np.cumsum(np.bincount(seq, minlength=rows << levels), out=below[1:])
    pos = np.arange(seq.size)
    ones = np.zeros(seq.size + 1, dtype=np.int64)
    moved = np.empty_like(seq)
    found = np.zeros(seq.size, dtype=np.int64)
    for b in range(levels - 1, -1, -1):
        half = 1 << b
        one = (seq & half) > 0
        np.cumsum(one, out=ones[1:])
        base = seq & -(half << 1)
        ones_before = ones[:-1] - ones[below[base]]
        found += ones_before * ~one
        moved[np.where(one, below[base + half] + ones_before, pos - ones_before)] = seq
        seq, moved = moved, seq
    return found.reshape(rows, n).sum(axis=1)


def _check_finite(name: str, *arrays: np.ndarray):
    if not all(np.isfinite(a).all() for a in arrays):
        raise ValueError(f"{name} needs finite values; got nan or inf")


def _dense_ranks(values: np.ndarray, flat: np.ndarray):
    """Per row: dense ranks of values (0 for the smallest), and the change
    points of the row in sorted order.

    flat offsets each row's sort order to index the flattened array, so
    one gather or scatter serves every row.
    """
    by = np.argsort(values, axis=-1) + flat
    change = _change_points(np.take(values, by))
    ranks = np.empty(values.shape, dtype=np.int64)
    ranks.put(by, np.cumsum(change, axis=-1) - 1)
    return ranks, change


def _tau_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kendall_tau of each row of two finite (P, n) arrays, n >= 2."""
    rows, n = x.shape
    npairs = n * (n - 1) // 2
    flat = np.arange(0, rows * n, n)[:, None]
    x_ranks, x_change = _dense_ranks(x, flat)
    y_ranks, y_change = _dense_ranks(y, flat)
    key = x_ranks * n + y_ranks
    order = np.argsort(key, axis=-1) + flat
    xy_change = _change_points(np.take(key, order))
    discordant = _count_inversions(np.take(y_ranks, order))
    t_x, t_y, t_xy = _tied_pairs(np.concatenate((x_change, y_change, xy_change))).reshape(3, rows)
    return (npairs - 2 * discordant - t_x - t_y + t_xy) / npairs


def kendall_tau(x, y) -> float | np.ndarray:
    """Kendall tau-a in O(n log n), exact.

    tau_a = (concordant - discordant) / (n(n-1)/2); tied pairs add zero
    to the numerator while the denominator stays at the full pair count.
    x and y are replaced by their dense ranks, and sorting by the integer
    key (rank of x, rank of y) leaves each run of tied x with its y
    ascending, so the discordant count is the number of strict
    inversions of the y ranks in that order, counted by
    _count_inversions. Tie corrections come from run lengths:

        num = N - 2*discordant - T_x - T_y + T_xy

    with N = n(n-1)/2 and T_* the numbers of pairs tied in x, in y, and
    in both: runs of x after sorting x, runs of y after sorting y, and
    runs of the key in its sorted order. All counts are exact integers,
    so the result equals the O(n^2) sign-count definition bit for bit.

    x and y of shape (n,) give a float. Of shape (P, n), they give the P
    taus of their row pairs, each equal bit for bit to the call on that
    row pair alone; a 2-d input is no longer flattened into one sample.
    The rows are counted a block of about TAU_BLOCK_ENTRIES entries at a
    time, so the working memory does not grow with P. Raises ValueError
    when the shapes differ, on more than 2 dimensions, and on nan or inf
    in any row.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if xa.shape != ya.shape:
        raise ValueError(f"x and y must have the same shape; got {xa.shape} and {ya.shape}")
    if xa.ndim > 2:
        raise ValueError("kendall_tau takes samples of shape (n,) or rows of shape (P, n)")
    x2, y2 = np.atleast_2d(xa, ya)
    rows, n = x2.shape
    if n < 2:
        raise InsufficientDataError("kendall_tau needs at least 2 observations")
    _check_finite("kendall_tau", x2, y2)
    taus = np.empty(rows)
    for blk in row_blocks(rows, n, TAU_BLOCK_ENTRIES):
        taus[blk] = _tau_rows(x2[blk], y2[blk])
    return taus if xa.ndim == 2 else float(taus[0])


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
    "log_sum_exp",
    "rank_pseudo_observations",
    "silverman_bandwidth",
]
