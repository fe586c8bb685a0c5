"""Bivariate copula models.

Three families share one small interface:

  log_density(u, v)       log copula density
  cdf_u_given_v(u, v)     conditional cdf P(U <= u | V = v), the h-function
  cdf_v_given_u(u, v)     conditional cdf P(V <= v | U = u)

KernelCopula is the non-parametric estimator: pseudo-observations are
mapped to the Gaussian z-scale, a bivariate Gaussian mixture is placed
on the transformed points, and dividing by the standard-normal density
of each coordinate turns the mixture back into a copula density:

    c(u, v) = (1/n) sum_i N2(z, w | z_i, w_i, S) / (phi(z) phi(w))

with z = Phi^-1(u), w = Phi^-1(v) and bandwidth matrix
S = [[sz^2, g], [g, sw^2]].

The h-function of that mixture has a closed form. Conditioning the
bivariate Gaussian kernel i on w gives mean m_i = z_i + (g/sw^2)(w - w_i)
and variance sc^2 = sz^2 - g^2/sw^2, so

    raw(u | v) = (1/(n phi(w))) sum_i N(w | w_i, sw^2) Phi((z - m_i)/sc)

which is divided by its u -> 1 limit so the conditional cdf reaches
exactly 1. That normalized form is a convex combination of Gaussian
cdfs with softmax weights proportional to N(w | w_i, sw^2).

Evaluation. Both sums form a (queries x centers) matrix, one block of
statcore.row_blocks rows at a time, and reduce each row on its own. A
matrix row that depends on one argument only is computed once per
distinct value of that argument and gathered per block: the softmax
weights always (they depend on the conditioning value), and, when
g == 0, the Gaussian-cdf factor and the two halves sw^2 dz^2 and
sz^2 dw^2 of the quadratic form. With g == 0 the dropped terms
(g/sw^2) dc and 2 g dz dw are +-0, so leaving them out is exact. Only
arguments with at least 64 entries, at most half of them distinct, are
tabulated; the others run row by row. Either way every row holds the
same bits, so the results do not depend on the block size or on which
arguments were tabulated.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .statcore import kendall_tau, row_blocks, silverman_bandwidth

# Evaluation-time clamp for pseudo-observations touching 0 or 1.
EPS = 1e-10

# Smallest argument worth tabulating per distinct value (np.unique sorts it).
_TABLE_MIN_ENTRIES = 64


def _clamp(u) -> np.ndarray:
    return np.clip(np.asarray(u, dtype=float), EPS, 1.0 - EPS)


def _check_open_unit(name: str, values: np.ndarray):
    if np.any(values <= 0.0) or np.any(values >= 1.0):
        raise ValueError(f"{name} must lie strictly inside (0, 1)")


def _pair(u, v) -> tuple[np.ndarray, np.ndarray, bool]:
    ua = np.asarray(u, dtype=float)
    va = np.asarray(v, dtype=float)
    scalar = ua.ndim == 0 and va.ndim == 0
    ua, va = np.broadcast_arrays(np.atleast_1d(ua), np.atleast_1d(va))
    return ua.astype(float).ravel(), va.astype(float).ravel(), scalar


def _rows_of(x: np.ndarray, width: int, rows):
    """Block slice -> rows(x[block]), a fresh (block, width) array.

    An x of at least _TABLE_MIN_ENTRIES entries, at most half of them
    distinct, runs rows once per distinct value, and blocks gather from
    that table; the gathered rows hold the bits rows would return.
    """
    if x.size >= _TABLE_MIN_ENTRIES:
        values, inverse = np.unique(x, return_inverse=True)
        if 2 * values.size <= x.size:
            table = np.empty((values.size, width))
            for blk in row_blocks(values.size, width):
                table[blk] = rows(values[blk])
            return lambda blk: table[inverse[blk]]
    return lambda blk: rows(x[blk])


@dataclass(frozen=True)
class KernelCopula:
    """Gaussian-transform kernel copula.

    z_centers, w_centers are the transformed pseudo-observations,
    sigma_z/sigma_w the per-coordinate bandwidths, gamma the
    off-diagonal of the bandwidth matrix (0 by default).
    """

    z_centers: np.ndarray
    w_centers: np.ndarray
    sigma_z: float
    sigma_w: float
    gamma: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "z_centers", np.asarray(self.z_centers, dtype=float).ravel())
        object.__setattr__(self, "w_centers", np.asarray(self.w_centers, dtype=float).ravel())
        if self.z_centers.size != self.w_centers.size or self.z_centers.size < 1:
            raise ValueError("center vectors must be non-empty and of equal length")
        if not (self.sigma_z > 0.0 and self.sigma_w > 0.0):
            raise ValueError("bandwidths must be positive")
        if not self.gamma**2 < self.sigma_z**2 * self.sigma_w**2:
            raise ValueError("bandwidth matrix must be positive definite (gamma^2 < sz^2 sw^2)")

    @classmethod
    def fit(cls, u, v, gamma: float = 0.0) -> "KernelCopula":
        """Fit from pseudo-observations strictly inside (0, 1).

        Bandwidths follow the dim=2 Silverman rule on the transformed
        coordinates; gamma defaults to a diagonal bandwidth matrix.
        """
        ua = np.asarray(u, dtype=float).ravel()
        va = np.asarray(v, dtype=float).ravel()
        if ua.size != va.size or ua.size < 2:
            raise ValueError("u and v must have equal length >= 2")
        _check_open_unit("u", ua)
        _check_open_unit("v", va)
        z = ndtri(ua)
        w = ndtri(va)
        return cls(z, w, silverman_bandwidth(z, dim=2), silverman_bandwidth(w, dim=2), gamma)

    @property
    def n(self) -> int:
        return self.z_centers.size

    def log_density(self, u, v):
        ua, va, scalar = _pair(u, v)
        z = ndtri(_clamp(ua))
        w = ndtri(_clamp(va))
        sz2, sw2, g = self.sigma_z**2, self.sigma_w**2, self.gamma
        det = sz2 * sw2 - g**2
        zc, wc = self.z_centers, self.w_centers
        if g == 0.0:
            # the cross term 2 g dz dw is +-0: leaving it out is exact
            def part(x, centers, s2):
                d = x[:, None] - centers
                sq = s2 * d
                sq *= d
                return sq

            z_part = _rows_of(z, self.n, lambda zb: part(zb, zc, sw2))
            w_part = _rows_of(w, self.n, lambda wb: part(wb, wc, sz2))

            def quad_form(blk):
                return z_part(blk) + w_part(blk)
        else:
            def quad_form(blk):
                dz = z[blk, None] - zc
                dw = w[blk, None] - wc
                return sw2 * dz * dz - 2.0 * g * dz * dw + sz2 * dw * dw

        out = np.empty(z.shape, dtype=float)
        for blk in row_blocks(z.size, self.n):
            quad = quad_form(blk)
            quad /= det
            quad *= -0.5
            m = quad.max(axis=1)
            quad -= m[:, None]
            out[blk] = m + np.log(np.exp(quad, out=quad).sum(axis=1))
        out += 0.5 * (z * z + w * w) - np.log(self.n) - 0.5 * np.log(det)
        return float(out[0]) if scalar else out

    def density(self, u, v):
        result = self.log_density(u, v)
        return float(np.exp(result)) if np.ndim(result) == 0 else np.exp(result)

    def _h(self, q, c, q_centers, c_centers, sigma_q, sigma_c_marg):
        """Shared conditional cdf: P(Q <= q | C = c)."""
        qa = ndtri(_clamp(q))
        ca = ndtri(_clamp(c))
        cond_var = sigma_q**2 - self.gamma**2 / sigma_c_marg**2
        sc = np.sqrt(cond_var)
        slope = self.gamma / sigma_c_marg**2

        def softmax_weights(cb):
            logw = cb[:, None] - c_centers
            logw /= sigma_c_marg
            logw *= logw
            logw *= -0.5
            logw -= logw.max(axis=1, keepdims=True)
            weights = np.exp(logw, out=logw)
            weights /= weights.sum(axis=1, keepdims=True)
            return weights

        def cdfs(qb, mu):
            t = qb[:, None] - mu
            t /= sc
            return ndtr(t, out=t)

        weights_of = _rows_of(ca, self.n, softmax_weights)
        if self.gamma == 0.0:
            # slope * dc is +-0: the means are the centers, exactly
            cdfs_of = _rows_of(qa, self.n, lambda qb: cdfs(qb, q_centers))
        else:
            def cdfs_of(blk):
                return cdfs(qa[blk], q_centers + slope * (ca[blk, None] - c_centers))

        out = np.empty(qa.shape, dtype=float)
        for blk in row_blocks(qa.size, self.n):
            terms = cdfs_of(blk)
            terms *= weights_of(blk)
            out[blk] = terms.sum(axis=1)
        return out

    def cdf_u_given_v(self, u, v):
        ua, va, scalar = _pair(u, v)
        out = self._h(ua, va, self.z_centers, self.w_centers, self.sigma_z, self.sigma_w)
        return float(out[0]) if scalar else out

    def cdf_v_given_u(self, u, v):
        ua, va, scalar = _pair(u, v)
        out = self._h(va, ua, self.w_centers, self.z_centers, self.sigma_w, self.sigma_z)
        return float(out[0]) if scalar else out

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
class GaussianCopula:
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

    def log_density(self, u, v):
        ua, va, scalar = _pair(u, v)
        z = ndtri(_clamp(ua))
        w = ndtri(_clamp(va))
        r = self.rho
        one_m = 1.0 - r * r
        out = -0.5 * np.log(one_m) - (r * r * (z * z + w * w) - 2.0 * r * z * w) / (2.0 * one_m)
        return float(out[0]) if scalar else out

    def density(self, u, v):
        result = self.log_density(u, v)
        return float(np.exp(result)) if np.ndim(result) == 0 else np.exp(result)

    def cdf_u_given_v(self, u, v):
        ua, va, scalar = _pair(u, v)
        z = ndtri(_clamp(ua))
        w = ndtri(_clamp(va))
        out = ndtr((z - self.rho * w) / np.sqrt(1.0 - self.rho**2))
        return float(out[0]) if scalar else out

    def cdf_v_given_u(self, u, v):
        return self.cdf_u_given_v(v, u)


@dataclass(frozen=True)
class IndependenceCopula:
    """Copula with density identically 1; h(u|v) = u."""

    def log_density(self, u, v):
        ua, va, scalar = _pair(u, v)
        out = np.zeros(ua.shape, dtype=float)
        return float(out[0]) if scalar else out

    def density(self, u, v):
        result = self.log_density(u, v)
        return float(np.exp(result)) if np.ndim(result) == 0 else np.exp(result)

    def cdf_u_given_v(self, u, v):
        ua, va, scalar = _pair(u, v)
        out = _clamp(ua)
        return float(out[0]) if scalar else out

    def cdf_v_given_u(self, u, v):
        ua, va, scalar = _pair(u, v)
        out = _clamp(va)
        return float(out[0]) if scalar else out


__all__ = ["EPS", "GaussianCopula", "IndependenceCopula", "KernelCopula"]
