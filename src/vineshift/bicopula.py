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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .statcore import kendall_tau, silverman_bandwidth

# Evaluation-time clamp for pseudo-observations touching 0 or 1.
EPS = 1e-10

_CHUNK_ENTRIES = 4_000_000


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
        det = self.sigma_z**2 * self.sigma_w**2 - self.gamma**2
        out = np.empty(z.shape, dtype=float)
        step = max(1, _CHUNK_ENTRIES // self.n)
        for lo in range(0, z.size, step):
            dz = z[lo:lo + step, None] - self.z_centers
            dw = w[lo:lo + step, None] - self.w_centers
            quad = (self.sigma_w**2 * dz * dz - 2.0 * self.gamma * dz * dw
                    + self.sigma_z**2 * dw * dw) / det
            quad *= -0.5
            m = quad.max(axis=1)
            out[lo:lo + step] = m + np.log(np.exp(quad - m[:, None]).sum(axis=1))
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
        out = np.empty(qa.shape, dtype=float)
        step = max(1, _CHUNK_ENTRIES // self.n)
        for lo in range(0, qa.size, step):
            dc = ca[lo:lo + step, None] - c_centers
            logw = -0.5 * (dc / sigma_c_marg) ** 2
            logw -= logw.max(axis=1, keepdims=True)
            weights = np.exp(logw)
            weights /= weights.sum(axis=1, keepdims=True)
            mu = q_centers + slope * dc
            out[lo:lo + step] = (weights * ndtr((qa[lo:lo + step, None] - mu) / sc)).sum(axis=1)
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
