"""Experiment harnesses for the two synthetic studies.

density_bench fits three density estimators per repetition (kernel vine,
Gaussian-copula vine, product-kernel KDE) on a train split and scores
mean test log-likelihood on the rest. adaptation_experiment runs the
shifted regression protocol: fit on source, adapt with a small labeled
target fraction, compare NMSE of source-only vs adapted predictions.

Repetitions derive their seeds from (master seed, repetition index), so
results do not depend on execution order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .adapt import AdaptationInput, adapt_vine
from .dataio import Dataset
from .errors import require_integer
from .mmd import MmdConfig
from .regress import default_grid, evaluate
from .rvine import fit_vine
from .statcore import _SQRT_2PI, log_sum_exp, row_blocks, silverman_bandwidth
from .synth import REGRESSION_SHIFTS, regression_task

METHODS = ("NPRV", "GRV", "KDE")


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_samples: int = 1000
    train_fraction: float = 0.3
    target_labeled_fraction: float = 0.05
    repetitions: int = 50
    truncation: int = 3
    mmd: MmdConfig = field(default_factory=MmdConfig)

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")
        if not 0.0 < self.target_labeled_fraction < 1.0:
            raise ValueError("target_labeled_fraction must be in (0, 1)")
        require_integer("repetitions", self.repetitions)
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        require_integer("n_samples", self.n_samples)
        if self.n_samples < 20:
            raise ValueError("n_samples must be >= 20")


def _rep_rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key)))


def _rep_seed(master_seed: int, *key: int) -> int:
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=tuple(key))
    return int(ss.generate_state(1)[0])


@dataclass(frozen=True)
class ProductKernelKDE:
    """Plain multivariate KDE with a diagonal Gaussian kernel."""

    centers: np.ndarray
    bandwidths: np.ndarray

    @classmethod
    def fit(cls, X) -> "ProductKernelKDE":
        X = np.asarray(X, dtype=float)
        n, d = X.shape
        h = np.array([silverman_bandwidth(X[:, j], dim=d) for j in range(d)])
        return cls(X.copy(), h)

    def log_density(self, X) -> np.ndarray | float:
        arr = np.asarray(X, dtype=float)
        scalar = arr.ndim == 1
        rows = np.atleast_2d(arr)
        n, d = self.centers.shape
        if rows.shape[1] != d:
            raise ValueError(f"expected {d} columns, got {rows.shape[1]}")
        const = -np.log(n) - np.log(self.bandwidths).sum() - d * np.log(_SQRT_2PI)
        out = np.empty(rows.shape[0])
        for blk in row_blocks(rows.shape[0], n * d):
            D = (rows[blk, None, :] - self.centers[None, :, :]) / self.bandwidths
            out[blk] = log_sum_exp(-0.5 * np.einsum("rkd,rkd->rk", D, D))
        out += const
        return float(out[0]) if scalar else out


def density_bench(generators: dict, config: ExperimentConfig) -> dict:
    """Per-repetition test log-likelihoods, {dataset: {method: array}}.

    generators maps a dataset name to a callable (n, rng) -> Dataset.
    Each repetition draws a fresh sample, splits train_fraction of it for
    fitting and scores mean log density on the held-out rows.
    """
    out = {}
    for di, (name, gen) in enumerate(generators.items()):
        reps = {m: np.empty(config.repetitions) for m in METHODS}
        for r in range(config.repetitions):
            rng = _rep_rng(config.seed, di, r)
            ds = gen(config.n_samples, rng)
            n_train = int(round(config.train_fraction * ds.n))
            perm = rng.permutation(ds.n)
            train, test = ds.X[perm[:n_train]], ds.X[perm[n_train:]]
            models = (fit_vine(train, truncation=config.truncation, family="kernel"),
                      fit_vine(train, truncation=config.truncation, family="gaussian"),
                      ProductKernelKDE.fit(train))
            for method, model in zip(METHODS, models):
                reps[method][r] = float(np.mean(model.log_density(test)))
        out[name] = reps
    return out


def format_density_table(results: dict) -> str:
    """Aligned text table: one method row, one dataset column."""
    names = list(results)
    cells = {(m, n): f"{results[n][m].mean():.3f} +- {results[n][m].std(ddof=1):.3f}"
             for n in names for m in METHODS}
    width = {n: max(len(n), *(len(cells[m, n]) for m in METHODS)) for n in names}
    head = "method  " + "  ".join(n.rjust(width[n]) for n in names)
    lines = [head, "-" * len(head)]
    for m in METHODS:
        lines.append(f"{m:<6}  " + "  ".join(cells[m, n].rjust(width[n]) for n in names))
    return "\n".join(lines)


def density_csv_rows(results: dict) -> list:
    """Machine-readable rows: dataset,method,repetition,tll."""
    rows = ["dataset,method,repetition,tll"]
    for name, reps in results.items():
        for m in METHODS:
            for r, v in enumerate(reps[m]):
                rows.append(f"{name},{m},{r},{float(v)!r}")
    return rows


@dataclass(frozen=True)
class AdaptationRun:
    nmse_source: float
    nmse_semi: float
    nmse_unsupervised: float
    semi_flags: tuple
    unsupervised_flags: tuple


def adaptation_experiment(config: ExperimentConfig, n_target: int = 500,
                          n_test: int = 300, grid_points: int = 129,
                          shifts: dict | None = None) -> list:
    """Shifted-regression study; one AdaptationRun per repetition.

    Source sample is clean; target and test carry the marginal-only
    covariate shift. The semi-supervised run sees target_labeled_fraction
    of the target rows with labels, the unsupervised run sees none.
    """
    if shifts is None:
        shifts = REGRESSION_SHIFTS
    runs = []
    for r in range(config.repetitions):
        rng = _rep_rng(config.seed, r)
        src = regression_task(config.n_samples, rng)
        tgt = regression_task(n_target, rng, shifts=shifts)
        test = regression_task(n_test, rng, shifts=shifts)
        n_lab = max(int(round(config.target_labeled_fraction * n_target)), 1)
        lab = Dataset(tgt.names, tgt.X[:n_lab])
        unl = Dataset(tgt.names[:-1], tgt.X[n_lab:, :-1])
        vine = fit_vine(src.X, truncation=config.truncation,
                        variable_names=src.names, target_index=src.d - 1,
                        seed=_rep_seed(config.seed, r))
        cfg = replace(config.mmd, seed=_rep_seed(config.seed, r, 1))
        nmse = {}
        flags = {}
        nmse["source"] = evaluate(vine, test, default_grid(vine, grid_points)).nmse
        for mode, labeled in (("semi_supervised", lab), ("unsupervised", None)):
            inp = AdaptationInput(source=src, target_labeled=labeled,
                                  target_unlabeled=unl, target_index=src.d - 1,
                                  mode=mode, mmd_config=cfg)
            adapted, report = adapt_vine(vine, inp)
            nmse[mode] = evaluate(adapted, test, default_grid(adapted, grid_points)).nmse
            flags[mode] = tuple(d.factor_id for d in report.decisions if d.changed)
        runs.append(AdaptationRun(nmse_source=nmse["source"],
                                  nmse_semi=nmse["semi_supervised"],
                                  nmse_unsupervised=nmse["unsupervised"],
                                  semi_flags=flags["semi_supervised"],
                                  unsupervised_flags=flags["unsupervised"]))
    return runs


__all__ = [
    "METHODS",
    "AdaptationRun",
    "ExperimentConfig",
    "ProductKernelKDE",
    "adaptation_experiment",
    "density_bench",
    "density_csv_rows",
    "format_density_table",
]
