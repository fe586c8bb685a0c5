"""Bivariate copula models.

Three families share one small interface:

  log_density(u, v)       log copula density
  cdf_u_given_v(u, v)     conditional cdf P(U <= u | V = v), the h-function
  cdf_v_given_u(u, v)     conditional cdf P(V <= v | U = u)

and inherit density(u, v) = exp(log_density(u, v)) from one base class.
Each method takes its argument shapes through statcore.elementwise:
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
cdfs or max-shifted Gaussian weights. Queries are answered by cubic
B-spline interpolation of the table, and interpolated h-values are
clipped to [0, 1]; they differ from the exact sums by about 1e-5. The
coefficients are P_z V P_w', with V the node values and P the inverse
of an axis's collocation matrix (mirror boundaries). P depends only on
the axis's node count, so a small memo of inverses serves every table.
A node where the weight product of log c underflows takes the exact
log-sum-exp, so log densities stay finite. Tables are not stored on
the copula: a small memo holds the last few built, which keeps a
fitted vine's memory at its centres. A table depends on the copula
only, so a query's value does not depend on the batch it comes in. A
copula whose bandwidth would need more than _MAX_NODES nodes on an axis
evaluates the exact sums instead, one statcore.row_blocks block of
queries at a time; those stay as the reference the tables are tested
against.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .statcore import (_check_open_unit, elementwise, kendall_tau, row_blocks,
                       silverman_bandwidth)

# Evaluation-time clamp for pseudo-observations touching 0 or 1.
EPS = 1e-10

# Table grid: nodes per bandwidth, spare nodes past +-_Z_MAX on each side,
# and the most nodes an axis may have before the exact sums take over.
_NODES_PER_SIGMA = 3
_PAD_NODES = 2
_MAX_NODES = 512
_Z_MAX = float(-ndtri(EPS))

# Tables kept at once (141 KB each at n=1200). A vine walk reads each
# table once, but scalar loops cycle through several: row by row, the log
# density of a d=3 vine truncated at 2 reads five, and a least-recently-
# used memo smaller than the cycle rebuilds a table on every call.
_MEMO_TABLES = 8

# Below this a weight product of log c has lost its precision to underflow.
_UNDERFLOW = 1e-250

# Offsets of the four nodes each cubic B-spline evaluation reads per axis.
_SPAN = np.arange(4)


def _clamp(u) -> np.ndarray:
    return np.clip(np.asarray(u, dtype=float), EPS, 1.0 - EPS)


def _half_width(sigma: float) -> float:
    """k such that the nodes of an axis with bandwidth sigma are step * (-k..k)."""
    return np.ceil(_Z_MAX * _NODES_PER_SIGMA / sigma) + _PAD_NODES


def _nodes(sigma: float) -> np.ndarray:
    k = int(_half_width(sigma))
    return (sigma / _NODES_PER_SIGMA) * np.arange(-k, k + 1)


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


def _peak(x: np.ndarray, centers: np.ndarray, sigma: float) -> np.ndarray:
    """Row maxima of _log_kernel(x, centers, sigma), from each x's neighbours among the centres."""
    c = np.sort(centers)
    i = np.searchsorted(c, x)
    near = np.stack([c[np.maximum(i - 1, 0)], c[np.minimum(i, c.size - 1)]], axis=1)
    return _log_kernel(x, near, sigma).max(axis=1)


def _node_values(cop: "KernelCopula", kind: str) -> np.ndarray:
    """Exact values of method kind at every node pair (z_i, w_j).

    Kernel k is a product of a z-factor and a w-factor, so each sum over
    centres is (A @ B.T)[i, j] for per-axis factor matrices: Gaussian
    cdfs on the axis an h-function is a cdf of, Gaussian weights shifted
    so that each node's largest is 1 elsewhere. Centres are taken
    _MAX_NODES at a time, so a factor matrix holds at most _MAX_NODES^2
    entries (2 MB) whatever n is, and the values depend on the copula only.
    """
    z, w = _nodes(cop.sigma_z), _nodes(cop.sigma_w)
    peak_z = _peak(z, cop.z_centers, cop.sigma_z)
    peak_w = _peak(w, cop.w_centers, cop.sigma_w)
    prod = np.zeros((z.size, w.size))
    norm_z, norm_w = np.zeros(z.size), np.zeros(w.size)
    for start in range(0, cop.n, _MAX_NODES):
        blk = slice(start, start + _MAX_NODES)
        if kind == "cdf_u_given_v":
            a = _kernel_cdfs(z, cop.z_centers[blk], cop.sigma_z)
        else:
            a = _log_kernel(z, cop.z_centers[blk], cop.sigma_z)
            a -= peak_z[:, None]
            norm_z += np.exp(a, out=a).sum(axis=1)
        if kind == "cdf_v_given_u":
            b = _kernel_cdfs(w, cop.w_centers[blk], cop.sigma_w)
        else:
            b = _log_kernel(w, cop.w_centers[blk], cop.sigma_w)
            b -= peak_w[:, None]
            norm_w += np.exp(b, out=b).sum(axis=1)
        prod += a @ b.T
    if kind == "cdf_u_given_v":
        return prod / norm_w
    if kind == "cdf_v_given_u":
        return prod / norm_z[:, None]
    out = np.log(np.maximum(prod, _UNDERFLOW))
    out += (peak_z + 0.5 * z * z)[:, None]
    out += peak_w + 0.5 * w * w
    out -= np.log(cop.n) + np.log(cop.sigma_z * cop.sigma_w)
    lost = np.nonzero(prod <= _UNDERFLOW)
    out[lost] = cop._log_density_z(z[lost[0]], w[lost[1]])
    return out


def _collocation(size: int) -> np.ndarray:
    """Node values of the cubic B-splines at the nodes, mirror boundaries."""
    m = np.diag(np.full(size, 4.0 / 6.0))
    i = np.arange(size - 1)
    m[i, i + 1] = m[i + 1, i] = 1.0 / 6.0
    m[0, 1] = m[-1, -2] = 2.0 / 6.0
    return m


@functools.lru_cache(maxsize=_MEMO_TABLES)
def _prefilter(size: int) -> np.ndarray:
    """Read-only inverse of _collocation(size).

    An axis's size depends only on its bandwidth, and rank-based centres
    give every copula fitted on n rows the same bandwidth, so a handful
    of sizes serve every table of a vine.
    """
    inv = np.linalg.inv(_collocation(size))
    inv.flags.writeable = False
    return inv


@functools.lru_cache(maxsize=_MEMO_TABLES)
def _spline_table(cop: "KernelCopula", kind: str) -> np.ndarray:
    """Read-only cubic B-spline coefficients interpolating kind on cop's nodes."""
    values = _node_values(cop, kind)
    coef = _prefilter(values.shape[0]) @ values @ _prefilter(values.shape[1]).T
    coef.flags.writeable = False
    return coef


def _interpolate(coef: np.ndarray, z: np.ndarray, w: np.ndarray, sigma_z: float, sigma_w: float):
    """Tensor-product cubic B-spline with coefficients coef at each pair (z, w).

    Only elementwise operations and gathers touch a query, so its value
    does not depend on the other queries. Every clamped query lies at
    least two nodes inside the grid; fmin and fmax keep a nan's nodes in
    range, and its value is nan.
    """
    size = np.array(coef.shape)[:, None]
    t = np.stack([z * (_NODES_PER_SIGMA / sigma_z), w * (_NODES_PER_SIGMA / sigma_w)])
    t += (size - 1) // 2
    i = np.fmax(np.fmin(np.floor(t), size - 3), 1)
    f = t - i
    g = 1.0 - f
    f2 = f * f
    f3 = f2 * f
    # weights of nodes i-1 .. i+2 on each axis: (axis, query, node)
    weights = np.stack([g * g * g, 4.0 - 6.0 * f2 + 3.0 * f3,
                        1.0 + 3.0 * (f + f2 - f3), f3], axis=-1)
    weights /= 6.0
    first = i.astype(np.intp) - 1
    rows = (first[0][:, None] + _SPAN) * coef.shape[1] + first[1][:, None]
    terms = coef.ravel()[rows[:, :, None] + _SPAN]
    terms *= weights[1][:, None, :]
    cols = terms[..., 0] + terms[..., 1] + terms[..., 2] + terms[..., 3]
    cols *= weights[0]
    return cols[:, 0] + cols[:, 1] + cols[:, 2] + cols[:, 3]


class _Copula:
    """The copula density, shared by every family through log_density."""

    @elementwise
    def density(self, u, v):
        return np.exp(self.log_density(u, v))


@dataclass(frozen=True, eq=False)
class KernelCopula(_Copula):
    """Gaussian-transform kernel copula.

    z_centers, w_centers are the transformed pseudo-observations and
    sigma_z/sigma_w the per-coordinate bandwidths. Equality and hashing
    are by identity.
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
            m = quad.max(axis=1)
            quad -= m[:, None]
            out[blk] = m + np.log(np.exp(quad, out=quad).sum(axis=1))
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
    """Closed-form Gaussian copula with correlation rho."""

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
        z = ndtri(_clamp(u))
        w = ndtri(_clamp(v))
        r = self.rho
        one_m = 1.0 - r * r
        return -0.5 * np.log(one_m) - (r * r * (z * z + w * w) - 2.0 * r * z * w) / (2.0 * one_m)

    @elementwise
    def cdf_u_given_v(self, u, v):
        z = ndtri(_clamp(u))
        w = ndtri(_clamp(v))
        return ndtr((z - self.rho * w) / np.sqrt(1.0 - self.rho**2))

    def cdf_v_given_u(self, u, v):
        return self.cdf_u_given_v(v, u)


@dataclass(frozen=True)
class IndependenceCopula(_Copula):
    """Copula with density identically 1; h(u|v) = u."""

    @elementwise
    def log_density(self, u, v):
        return np.zeros(u.shape)

    @elementwise
    def cdf_u_given_v(self, u, v):
        return _clamp(u)

    @elementwise
    def cdf_v_given_u(self, u, v):
        return _clamp(v)


__all__ = ["EPS", "GaussianCopula", "IndependenceCopula", "KernelCopula"]
