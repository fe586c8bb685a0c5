"""Bivariate copula models.

Three families share one small interface:

  fit(u, v)               classmethod: the copula estimated from the
                          pseudo-observation samples u, v
  log_density(u, v)       log copula density
  cdf_u_given_v(u, v)     conditional cdf P(U <= u | V = v), the h-function
  cdf_v_given_u(u, v)     conditional cdf P(V <= v | U = u)

and inherit density(u, v) = exp(log_density(u, v)) from one base class.
The Gaussian and independence copulas also take normal scores
z = Phi^-1(u), w = Phi^-1(v):

  log_density_scores(z, w)   log c(Phi(z), Phi(w))
  score_u_given_v(z, w)      Phi^-1 of cdf_u_given_v, as a score
  score_v_given_u(z, w)      Phi^-1 of cdf_v_given_u

which clip their arguments to +-Phi^-1(1 - EPS) as the u-methods clamp
theirs to [EPS, 1 - EPS]. For these two families the h-function is
linear in scores, so a vine of them walks on scores (rvine) and never
turns a value into a probability and back at an edge; the Gaussian
u-methods are Phi^-1 and Phi wrapped around the score forms, so they
compute the closed forms on clamped u in the same operations. The
kernel copula has no score methods: its h tables interpolate
probabilities, and a vine that holds one walks on probabilities. Every
method takes its argument shapes through statcore.elementwise:
arguments broadcast, the result has their shape, and all-scalar
arguments give a float.

KernelCopula is the non-parametric estimator: pseudo-observations are
mapped to the Gaussian z-scale, a bivariate Gaussian mixture is placed
on the transformed points, and dividing by the standard-normal density
of each coordinate turns the mixture back into a copula density:

    c(u, v) = (1/n) sum_i N2(z, w | z_i, w_i, S) / (phi(z) phi(w))

with z = Phi^-1(u), w = Phi^-1(v) and the diagonal bandwidth matrix
S = diag(sz^2, sw^2), so each kernel is a product of two 1-d Gaussians.

The h-function of that mixture has a closed form. Conditioning kernel i
on w leaves its z-coordinate at mean z_i with variance sz^2, so

    raw(u | v) = (1/(n phi(w))) sum_i N(w | w_i, sw^2) Phi((z - z_i)/sz)

which is divided by its u -> 1 limit so the conditional cdf reaches
exactly 1. That normalized form is a convex combination of Gaussian
cdfs with softmax weights proportional to N(w | w_i, sw^2).

Evaluation. A copula tabulates each of the three functions on a grid
of node pairs (z_i, w_j), with nodes at the integer multiples of
sigma/3 on each axis that cover the clamped range +-Phi^-1(EPS) with
two nodes to spare on each side. Every sum over centres is then
sum_k A[i, k] B[j, k], a matrix product of per-axis factors: Gaussian
cdfs or max-shifted Gaussian weights. A factor depends only on its
axis (centres and bandwidth) and kind, and tables of the same walk
often share an axis: tree-1 edges at one variable have equal centres,
and so do a fitted vine and its reloaded copy. A cdf factor's columns
are one per centre, so it is built once on the sorted centres and each
axis gathers its columns in its own order; every tree-1 axis holds the
normal scores of the ranks 1..n in some order, so all of them share
one sorted cdf factor unless their variable has ties or their
bandwidths differ. One factor memo keeps the three most recently read
factors of either kind, so such a run of tables builds each factor
once. Queries are answered by cubic
B-spline interpolation of the table, and interpolated h-values are
clipped to [0, 1]; they differ from the exact sums by about 1e-5. The
spline is scipy.ndimage's (spline_filter for the coefficients,
map_coordinates for the queries, mirror boundaries), imported when a
table is first built or read so that importing the package does not
load it. A node where the weight product of log c underflows takes
the exact log-sum-exp, so log densities stay finite. Tables are not
stored on the copula, which keeps a fitted vine's memory at its
centres: a memo holds the most recently read tables, up to _MEMO_BYTES
in all, so a walk reuses the tables an earlier walk over the same vine
built (score after predict, predict after fit or adapt). A table
depends on the copula only, so a query's value depends neither on the
batch it comes in nor on whether its table or factors were memoised;
both memos share one least-recently-used helper, _memoised. A copula
whose bandwidth would need more than _MAX_NODES nodes on an axis
evaluates the exact sums instead, one statcore.row_blocks block of
queries at a time; those stay as the reference the tables are tested
against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .statcore import (_check_open_unit, _kernel_cdfs, _log_kernel, elementwise, kendall_tau,
                       log_sum_exp, row_blocks, silverman_bandwidth)

# Evaluation-time clamp for pseudo-observations touching 0 or 1.
EPS = 1e-10

# Table grid: nodes per bandwidth, spare nodes past +-_Z_MAX on each side,
# and the most nodes an axis may have before the exact sums take over.
_NODES_PER_SIGMA = 3
_PAD_NODES = 2
_MAX_NODES = 512
_Z_MAX = float(-ndtri(EPS))

# Bytes of tables the memo keeps. A walk over a d=10 vine truncated at 2
# (17 edges) reads 33 tables of 90-190 KB, always in the same order, and
# scalar loops cycle too: row by row, a d=3 vine truncated at 2 reads
# five. A least-recently-used memo smaller than such a cycle rebuilds
# every table of it on every pass. 3 MiB holds what consecutive walks
# share (the 18 tables of a predict, 1.6-1.9 MiB, which the score after
# it reads again), but not a whole scoring walk at n=300 (3.1 MiB) or
# n=600 (3.7 MiB); 4 MiB would, for about 1 MB more peak memory.
# Counting bytes also bounds the worst case, tables of _MAX_NODES^2
# nodes (2 MB each).
_MEMO_BYTES = 3 << 20

# Axis factors the factor memo keeps: the three most recently read, of
# either kind, none over _FACTOR_BYTES (a factor is nodes x n doubles,
# 1.26 MB at n=1200). An h table reads a cdf and a weight factor, a log c
# table two weight factors. All tree-1 axes share one sorted cdf factor,
# which nearly every h table of a walk reads, so three slots keep it
# through a fit and score of a d=16 vine at n=1200 (one cdf build, where
# a factor per axis took 32) and hold that run's weight builds to 70; two
# slots would build 42 cdf and 98 weight factors.
_FACTOR_SLOTS = 3
_FACTOR_BYTES = 2 << 20

# Below this a weight product of log c has lost its precision to underflow.
_UNDERFLOW = 1e-250


def _clamp(u) -> np.ndarray:
    return np.clip(np.asarray(u, dtype=float), EPS, 1.0 - EPS)


def _clip_scores(z: np.ndarray) -> np.ndarray:
    """z clipped to +-_Z_MAX, which holds Phi^-1 of every clamped u."""
    return np.clip(z, -_Z_MAX, _Z_MAX)


def _half_width(sigma: float) -> float:
    """k such that the nodes of an axis with bandwidth sigma are step * (-k..k)."""
    return np.ceil(_Z_MAX * _NODES_PER_SIGMA / sigma) + _PAD_NODES


def _nodes(sigma: float) -> np.ndarray:
    k = int(_half_width(sigma))
    return (sigma / _NODES_PER_SIGMA) * np.arange(-k, k + 1)


def _peak(x: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """Row maxima of _log_kernel(x, centers, sigma), from each x's neighbours among the centres."""
    c = np.sort(centers)
    i = np.searchsorted(c, x)
    near = np.stack([c[np.maximum(i - 1, 0)], c[np.minimum(i, c.size - 1)]], axis=1)
    return _log_kernel(x, near, sigma).max(axis=1)


# One lock guards every memo in this module.
_memo_lock = threading.Lock()


def _memoised(memo: OrderedDict, key, build, args: tuple, limit: float, cost,
              reserve: float = 0):
    """memo[key], made the most recently used, or on a miss what build(*args) returns.

    The kept values' costs (cost(value) each) total at most limit; the
    least recently used are dropped first. A miss drops before the build
    until reserve more fits, so that a value is not built beside one it
    displaces, and again after it, so that a value over limit on its own
    is returned but not kept. Values are built outside the lock, so two
    threads may build the same one; both are the same bits, and the one
    kept first is returned.
    """
    with _memo_lock:
        value = memo.get(key)
        if value is not None:
            memo.move_to_end(key)
            return value
        _drop(memo, limit - reserve, cost)
    value = build(*args)
    with _memo_lock:
        value = memo.setdefault(key, value)
        memo.move_to_end(key)
        _drop(memo, limit, cost)
    return value


def _drop(memo: OrderedDict, limit: float, cost):
    kept = sum(map(cost, memo.values()))
    while memo and kept > limit:
        kept -= cost(memo.popitem(last=False)[1])


def _build_factor(nodes: np.ndarray, centers: np.ndarray, sigma: float, kind: str):
    """kind's factor of one axis as (blocks, peak), its blocks computed as they are read.

    Each block is nodes x _MAX_NODES centres. A "cdf" block holds
    Phi((node - centre) / sigma), and peak is None. A "weight" block holds
    exp(-((node - centre) / sigma)^2 / 2 - peak[node]), so that each node's
    largest weight is 1.
    """
    peak = _peak(nodes, centers, sigma) if kind == "weight" else None

    def block(start):
        blk = centers[start:start + _MAX_NODES]
        if peak is None:
            return _kernel_cdfs(nodes, blk, sigma)
        f = _log_kernel(nodes, blk, sigma)
        f -= peak[:, None]
        return np.exp(f, out=f)

    return map(block, range(0, centers.size, _MAX_NODES)), peak


def _kept_factor(nodes: np.ndarray, centers: np.ndarray, sigma: float, kind: str):
    """_build_factor's factor with every block computed, all of it read-only.

    A cdf factor's blocks are joined into one block of all the centres,
    which _axis_factor gathers each axis's columns from.
    """
    blocks, peak = _build_factor(nodes, centers, sigma, kind)
    blocks = tuple(blocks) if peak is not None else (np.concatenate(tuple(blocks), axis=1),)
    for a in (*blocks, peak):
        if a is not None:
            a.flags.writeable = False
    return blocks, peak


# (kind, centre bytes, sigma) -> (blocks, peak), least recently read first.
_factors: OrderedDict = OrderedDict()


def _axis_factor(nodes: np.ndarray, centers: np.ndarray, sigma: float, kind: str):
    """kind's (blocks, peak) of one axis, from the factor memo unless it is too large to keep.

    A weight factor is keyed by the centres' bytes and sigma, so copulas
    that share an axis (tree-1 edges at one variable, a fitted vine and
    its reloaded copy) share it, whichever role the axis has in each. A
    cdf factor is keyed by the sorted centres and sigma, and built once on
    them: every tree-1 axis holds the normal scores of the ranks 1..n in
    some order unless its variable has ties, so all of them share one.
    Each axis gets its cdf columns back in its own order, gathered into
    C-contiguous blocks of _MAX_NODES centres: bit for bit and in layout
    the blocks a build on its own centres gives, so the products that read
    them keep their bits. A factor over _FACTOR_BYTES is computed block
    by block in the axis's order as it is read and never held whole, so
    memory does not grow with n.
    """
    if nodes.size * centers.size * 8 > _FACTOR_BYTES:
        return _build_factor(nodes, centers, sigma, kind)
    if kind == "weight":
        return _memoised(_factors, (kind, centers.tobytes(), sigma), _kept_factor,
                         (nodes, centers, sigma, kind), _FACTOR_SLOTS, _one, reserve=1)
    order = np.argsort(centers)
    ordered = centers[order]
    (full,), _ = _memoised(_factors, (kind, ordered.tobytes(), sigma), _kept_factor,
                           (nodes, ordered, sigma, kind), _FACTOR_SLOTS, _one, reserve=1)
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    return (full.take(rank[start:start + _MAX_NODES], axis=1)
            for start in range(0, centers.size, _MAX_NODES)), None


def _one(factor) -> int:
    return 1


def _node_values(cop: "KernelCopula", kind: str) -> np.ndarray:
    """Exact values of method kind at every node pair (z_i, w_j).

    Kernel k is a product of a z-factor and a w-factor, so each sum over
    centres is (A @ B.T)[i, j] for per-axis factor matrices: Gaussian
    cdfs on the axis an h-function is a cdf of, Gaussian weights shifted
    so that each node's largest is 1 elsewhere; an h-function divides by
    the row sums of its weights. Each factor comes from _axis_factor. Both
    sums run over blocks of _MAX_NODES centres in order, so the values
    depend on the copula only, whether or not a factor was memoised.
    """
    z, w = _nodes(cop.sigma_z), _nodes(cop.sigma_w)
    a, peak_z = _axis_factor(z, cop.z_centers, cop.sigma_z,
                             "cdf" if kind == "cdf_u_given_v" else "weight")
    b, peak_w = _axis_factor(w, cop.w_centers, cop.sigma_w,
                             "cdf" if kind == "cdf_v_given_u" else "weight")
    prod = np.zeros((z.size, w.size))
    norm = 0.0
    for a_blk, b_blk in zip(a, b):
        prod += a_blk @ b_blk.T
        if kind != "log_density":
            norm += (b_blk if kind == "cdf_u_given_v" else a_blk).sum(axis=1)
    if kind == "cdf_u_given_v":
        return prod / norm
    if kind == "cdf_v_given_u":
        return prod / norm[:, None]
    out = np.log(np.maximum(prod, _UNDERFLOW))
    out += (peak_z + 0.5 * z * z)[:, None]
    out += peak_w + 0.5 * w * w
    out -= np.log(cop.n) + np.log(cop.sigma_z * cop.sigma_w)
    lost = np.nonzero(prod <= _UNDERFLOW)
    out[lost] = cop._log_density_z(z[lost[0]], w[lost[1]])
    return out


# (copula, kind) -> table, least recently read first.
_tables: OrderedDict = OrderedDict()


def _spline_table(cop: "KernelCopula", kind: str) -> np.ndarray:
    """Read-only cubic B-spline coefficients interpolating kind on cop's nodes.

    Tables are memoised, up to _MEMO_BYTES in all; a table built now is
    returned even when it alone is over.
    """
    key = (cop, kind)
    return _memoised(_tables, key, _build_table, key, _MEMO_BYTES, _nbytes)


def _nbytes(table: np.ndarray) -> int:
    return table.nbytes


def _build_table(cop: "KernelCopula", kind: str) -> np.ndarray:
    from scipy.ndimage import spline_filter

    coef = spline_filter(_node_values(cop, kind), order=3, mode="mirror")
    coef.flags.writeable = False
    return coef


def _interpolate(coef: np.ndarray, z: np.ndarray, w: np.ndarray, sigma_z: float, sigma_w: float):
    """Tensor-product cubic B-spline with coefficients coef at each pair (z, w).

    Each query is interpolated on its own, so its value does not depend
    on the other queries. Every clamped query lies at least two nodes
    inside the grid, and a nan query gives nan.
    """
    from scipy.ndimage import map_coordinates

    t = np.stack([z * (_NODES_PER_SIGMA / sigma_z), w * (_NODES_PER_SIGMA / sigma_w)])
    t += ((np.array(coef.shape) - 1) // 2)[:, None]
    return map_coordinates(coef, t, order=3, mode="mirror", cval=np.nan, prefilter=False)


class _Copula:
    """The copula density, shared by every family through log_density."""

    @elementwise
    def density(self, u, v):
        return np.exp(self.log_density(u, v))


@dataclass(frozen=True, eq=False)
class KernelCopula(_Copula):
    """Gaussian-transform kernel copula.

    z_centers, w_centers are the transformed pseudo-observations, which
    must be finite, and sigma_z/sigma_w the per-coordinate bandwidths.
    Equality and hashing are by identity.
    """

    z_centers: np.ndarray
    w_centers: np.ndarray
    sigma_z: float
    sigma_w: float

    def __post_init__(self):
        object.__setattr__(self, "z_centers", np.asarray(self.z_centers, dtype=float).ravel())
        object.__setattr__(self, "w_centers", np.asarray(self.w_centers, dtype=float).ravel())
        if self.z_centers.size != self.w_centers.size or self.z_centers.size < 1:
            raise ValueError("center vectors must be non-empty and of equal length")
        for name in ("z_centers", "w_centers"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if not (0.0 < self.sigma_z < np.inf and 0.0 < self.sigma_w < np.inf):
            raise ValueError("bandwidths must be positive and finite")

    @classmethod
    def fit(cls, u, v) -> "KernelCopula":
        """Fit from pseudo-observations strictly inside (0, 1).

        Bandwidths follow the dim=2 Silverman rule on the transformed
        coordinates.
        """
        ua = np.asarray(u, dtype=float).ravel()
        va = np.asarray(v, dtype=float).ravel()
        if ua.size != va.size or ua.size < 2:
            raise ValueError("u and v must have equal length >= 2")
        _check_open_unit("u", ua)
        _check_open_unit("v", va)
        z = ndtri(ua)
        w = ndtri(va)
        return cls(z, w, silverman_bandwidth(z, dim=2), silverman_bandwidth(w, dim=2))

    @property
    def n(self) -> int:
        return self.z_centers.size

    @property
    def _tabulated(self) -> bool:
        """Whether evaluation interpolates tables rather than summing exactly."""
        return 2 * _half_width(min(self.sigma_z, self.sigma_w)) + 1 <= _MAX_NODES

    def _evaluate(self, kind: str, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        if not self._tabulated:
            return getattr(self, "_exact_" + kind)(u, v)
        out = _interpolate(_spline_table(self, kind), ndtri(_clamp(u)), ndtri(_clamp(v)),
                           self.sigma_z, self.sigma_w)
        return out if kind == "log_density" else np.clip(out, 0.0, 1.0, out=out)

    @elementwise
    def log_density(self, u, v):
        return self._evaluate("log_density", u, v)

    @elementwise
    def cdf_u_given_v(self, u, v):
        return self._evaluate("cdf_u_given_v", u, v)

    @elementwise
    def cdf_v_given_u(self, u, v):
        return self._evaluate("cdf_v_given_u", u, v)

    @elementwise
    def _exact_log_density(self, u, v):
        return self._log_density_z(ndtri(_clamp(u)), ndtri(_clamp(v)))

    def _log_density_z(self, z: np.ndarray, w: np.ndarray) -> np.ndarray:
        """Exact log c at transformed points, one block of rows at a time."""
        sz2, sw2 = self.sigma_z**2, self.sigma_w**2
        det = sz2 * sw2

        def part(x, centers, s2):
            d = x[:, None] - centers
            sq = s2 * d
            sq *= d
            return sq

        out = np.empty(z.shape, dtype=float)
        for blk in row_blocks(z.size, self.n):
            quad = part(z[blk], self.z_centers, sw2) + part(w[blk], self.w_centers, sz2)
            quad /= det
            quad *= -0.5
            out[blk] = log_sum_exp(quad)
        out += 0.5 * (z * z + w * w) - np.log(self.n) - 0.5 * np.log(det)
        return out

    def _exact_h(self, q, c, q_centers, c_centers, sigma_q, sigma_c):
        """Exact conditional cdf P(Q <= q | C = c), one block of rows at a time."""
        qa = ndtri(_clamp(q))
        ca = ndtri(_clamp(c))
        out = np.empty(qa.shape, dtype=float)
        for blk in row_blocks(qa.size, self.n):
            logw = _log_kernel(ca[blk], c_centers, sigma_c)
            logw -= logw.max(axis=1, keepdims=True)
            weights = np.exp(logw, out=logw)
            weights /= weights.sum(axis=1, keepdims=True)
            terms = _kernel_cdfs(qa[blk], q_centers, sigma_q)
            terms *= weights
            out[blk] = terms.sum(axis=1)
        return out

    @elementwise
    def _exact_cdf_u_given_v(self, u, v):
        return self._exact_h(u, v, self.z_centers, self.w_centers, self.sigma_z, self.sigma_w)

    @elementwise
    def _exact_cdf_v_given_u(self, u, v):
        return self._exact_h(v, u, self.w_centers, self.z_centers, self.sigma_w, self.sigma_z)

    def h_inverse(self, p: float, v: float) -> float:
        """Solve cdf_u_given_v(u, v) = p for u by bracketed root search.

        An independent oracle for tests and demos; scipy.optimize is
        imported here so that importing the package does not load it.
        """
        from scipy.optimize import brentq

        lo, hi = EPS, 1.0 - EPS
        flo = self.cdf_u_given_v(lo, v)
        fhi = self.cdf_u_given_v(hi, v)
        if p <= flo:
            return lo
        if p >= fhi:
            return hi
        return brentq(lambda t: self.cdf_u_given_v(t, v) - p, lo, hi, xtol=1e-12)

@dataclass(frozen=True)
class GaussianCopula(_Copula):
    """Closed-form Gaussian copula with correlation rho.

    On normal scores z = Phi^-1(u), w = Phi^-1(v) its h-function is
    linear, h = (z - rho w) / sqrt(1 - rho^2) as a score, and log c is a
    quadratic form; the u-methods are Phi and Phi^-1 wrapped around them.
    """

    rho: float

    def __post_init__(self):
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")

    @classmethod
    def fit(cls, u, v) -> "GaussianCopula":
        """Moment-match through Kendall tau: rho = sin(pi * tau / 2)."""
        tau = kendall_tau(u, v)
        rho = float(np.clip(np.sin(0.5 * np.pi * tau), -0.999, 0.999))
        return cls(rho)

    @elementwise
    def log_density(self, u, v):
        return self.log_density_scores(ndtri(_clamp(u)), ndtri(_clamp(v)))

    @elementwise
    def cdf_u_given_v(self, u, v):
        return ndtr(self.score_u_given_v(ndtri(_clamp(u)), ndtri(_clamp(v))))

    def cdf_v_given_u(self, u, v):
        return self.cdf_u_given_v(v, u)

    @elementwise
    def log_density_scores(self, z, w):
        z, w = _clip_scores(z), _clip_scores(w)
        r = self.rho
        one_m = 1.0 - r * r
        return -0.5 * np.log(one_m) - (r * r * (z * z + w * w) - 2.0 * r * z * w) / (2.0 * one_m)

    @elementwise
    def score_u_given_v(self, z, w):
        return (_clip_scores(z) - self.rho * _clip_scores(w)) / np.sqrt(1.0 - self.rho**2)

    def score_v_given_u(self, z, w):
        return self.score_u_given_v(w, z)


@dataclass(frozen=True)
class IndependenceCopula(_Copula):
    """Copula with density identically 1; h(u|v) = u."""

    @classmethod
    def fit(cls, u, v) -> "IndependenceCopula":
        """Nothing to estimate: the independence copula whatever the data."""
        return cls()

    @elementwise
    def log_density(self, u, v):
        return np.zeros(u.shape)

    @elementwise
    def cdf_u_given_v(self, u, v):
        return _clamp(u)

    @elementwise
    def cdf_v_given_u(self, u, v):
        return _clamp(v)

    @elementwise
    def log_density_scores(self, z, w):
        return np.zeros(z.shape)

    @elementwise
    def score_u_given_v(self, z, w):
        return _clip_scores(z)

    @elementwise
    def score_v_given_u(self, z, w):
        return _clip_scores(w)


__all__ = ["EPS", "GaussianCopula", "IndependenceCopula", "KernelCopula"]
