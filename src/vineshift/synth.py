"""Synthetic data generators used by the test harnesses and the CLI.

All generators draw from a first-order dependence chain: correlated
standard normals z_1 -> z_2 -> ... mapped through Phi to the unit cube
and then through chosen marginal quantile functions. Dependence strength
is controlled by the link correlation rho; the bimodal variant flips the
sign of each link per row, producing X-shaped pair copulas a Gaussian
copula cannot represent. Everything is deterministic given the supplied
generator.
"""

from __future__ import annotations

import numpy as np
from scipy.special import ndtr, ndtri

from .dataio import Dataset
from .errors import ParseError

def _chain_normals(n: int, d: int, rho: float, rng,
                   flip_links=(), mix_weight: float | None = None) -> np.ndarray:
    if d < 1:
        raise ValueError(f"the chain needs at least one variable, got {d}")
    if not abs(rho) <= 1.0:
        raise ValueError(f"rho must lie in [-1, 1], got {rho}")
    if mix_weight is not None and not 0.0 <= mix_weight <= 1.0:
        raise ValueError(f"mix_weight must lie in [0, 1], got {mix_weight}")
    Z = np.empty((n, d))
    Z[:, 0] = rng.standard_normal(n)
    noise_scale = np.sqrt(1.0 - rho * rho)
    for j in range(1, d):
        r = -rho if j in flip_links else rho
        if mix_weight is not None:
            signs = np.where(rng.random(n) < mix_weight, 1.0, -1.0)
            r = r * signs
        Z[:, j] = r * Z[:, j - 1] + noise_scale * rng.standard_normal(n)
    return Z


def _apply_marginal(u: np.ndarray, spec: str) -> np.ndarray:
    if spec == "gauss":
        return ndtri(u)
    if spec == "exp":
        return -np.log1p(-u)
    if spec == "lognormal":
        return np.exp(ndtri(u))
    if spec == "uniform":
        return u.copy()
    raise ParseError(f"unknown marginal '{spec}'")


def gaussian_copula_chain(n: int, d: int, rho: float, rng,
                          marginals=("gauss",)) -> Dataset:
    """Chain-dependent sample with the given marginal specs (cycled)."""
    Z = _chain_normals(n, d, rho, rng)
    U = ndtr(Z)
    cols = [_apply_marginal(U[:, j], marginals[j % len(marginals)]) for j in range(d)]
    return Dataset([f"x{j}" for j in range(d)], np.column_stack(cols))


def bimodal_copula_chain(n: int, d: int, rho: float, rng,
                         mix_weight: float = 0.7) -> Dataset:
    """Chain whose links mix +rho and -rho dependence per row.

    Marginals stay exactly standard normal; each pair copula is a
    two-mode mixture.
    """
    Z = _chain_normals(n, d, rho, rng, mix_weight=mix_weight)
    return Dataset([f"x{j}" for j in range(d)], Z)


def marginal_shift_pair(n: int, d: int, rho: float, rng,
                        shift_col: int = 2, shift: float = 3.0):
    """Source and target differing only in one marginal (location shift)."""
    source = gaussian_copula_chain(n, d, rho, rng)
    target = gaussian_copula_chain(n, d, rho, rng)
    target.X[:, shift_col] = target.X[:, shift_col] + shift
    return source, target


def copula_flip_pair(n: int, d: int, rho: float, rng, flip_link: int = 1):
    """Source and target differing only in the sign of one chain link.

    Marginals are standard normal in both domains; the (flip_link-1,
    flip_link) pair copula reverses its dependence direction.
    """
    source = gaussian_copula_chain(n, d, rho, rng)
    Z = _chain_normals(n, d, rho, rng, flip_links=(flip_link,))
    target = Dataset([f"x{j}" for j in range(d)], Z)
    return source, target


def regression_task(n: int, rng, d: int = 10, noise: float = 0.4,
                    rho: float = 0.6, shifts: dict | None = None) -> Dataset:
    """Non-linear regression sample with d-1 chained features.

    y = 2 tanh(1.2 z0) + noise * eps, where z0 is the latent chain
    coordinate behind the first feature. shifts maps a feature index in
    0..d-2 to (add, scale) applied after y is drawn: the feature's
    marginal moves while every rank dependence, including the one to y,
    stays put. A model carrying the source marginals mislocates shifted
    features on the copula scale; re-estimating just the flagged
    marginals repairs it without touching any pair copula.
    """
    if d < 2:
        raise ValueError(f"regression_task needs d >= 2 (a feature and the target), got {d}")
    if not 0.0 <= noise < np.inf:
        raise ValueError(f"noise must be finite and non-negative, got {noise}")
    for col in shifts or {}:
        if not 0 <= col <= d - 2:
            raise ValueError(f"shift column {col} is not a feature: features are 0..{d - 2}")
    k = d - 1
    X = _chain_normals(n, k, rho, rng)
    y = 2.0 * np.tanh(1.2 * X[:, 0]) + noise * rng.standard_normal(n)
    if shifts:
        for col, (add, scale) in shifts.items():
            X[:, col] = add + scale * X[:, col]
    names = [f"x{j}" for j in range(k)] + ["y"]
    return Dataset(names, np.column_stack([X, y]))


# Marginal-only shift used by the regression adaptation experiments: the
# feature driving y moves by one standard deviation and an unrelated
# feature widens. Ranks, and with them every pair copula, are preserved,
# so a source-only model is broken exactly through its stale marginals.
REGRESSION_SHIFTS = {0: (1.0, 1.0), 3: (0.0, 1.6)}


# Each generator's function and the parameters it takes, with their defaults.
GENERATORS = {
    "gaussian-chain": (gaussian_copula_chain, {"d": 8, "rho": 0.6, "marginals": ("gauss",)}),
    "bimodal-chain": (bimodal_copula_chain, {"d": 8, "rho": 0.9, "mix_weight": 0.7}),
    "regression": (regression_task, {"d": 10, "rho": 0.6, "noise": 0.4}),
    "regression-shifted": (lambda n, **kw: regression_task(n, shifts=REGRESSION_SHIFTS, **kw),
                           {"d": 10, "rho": 0.6, "noise": 0.4}),
}


def get_generator(name: str, **params):
    """Resolve a generator spec string to a callable(n, rng) -> Dataset.

    A parameter the generator does not take is refused with a ValueError.
    """
    name = {"gaussian-copula-chain": "gaussian-chain",
            "bimodal-copula-chain": "bimodal-chain"}.get(name, name)
    if name not in GENERATORS:
        raise ParseError(f"unknown generator '{name}'")
    make, defaults = GENERATORS[name]
    unread = sorted(set(params) - set(defaults))
    if unread:
        raise ValueError(f"generator '{name}' takes no {', '.join(unread)}; "
                         f"it takes {', '.join(defaults)}")
    kwargs = {**defaults, **params}
    return lambda n, rng: make(n, rng=rng, **kwargs)


__all__ = [
    "REGRESSION_SHIFTS",
    "bimodal_copula_chain",
    "copula_flip_pair",
    "gaussian_copula_chain",
    "get_generator",
    "marginal_shift_pair",
    "regression_task",
]
