"""Release acceptance gate.

Eleven numbered criteria, one test each, covering oracle equivalence,
normalization, structural consistency, statistical calibration, the two
directional benchmark reproductions, scaling, and persistence. Each test
prints a single PASS/FAIL line straight to the terminal (bypassing
pytest capture) so a full run doubles as a release checklist:

    python3 -m pytest tests/test_acceptance.py -q
"""

import itertools
import time

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy import integrate

from vineshift.adapt import AdaptationInput, adapt_vine
from vineshift.bench import ExperimentConfig, adaptation_experiment, density_bench
from vineshift.bicopula import KernelCopula
from vineshift.mmd import MmdConfig, permutation_test
from vineshift.modelfile import load, save
from vineshift.rvine import fit_vine
from vineshift.statcore import kendall_tau, rank_pseudo_observations
from vineshift.synth import (copula_flip_pair, gaussian_copula_chain,
                             get_generator, marginal_shift_pair)

from spanning_trees import dense_prim


_CAPTURE = None


@pytest.fixture(autouse=True)
def _terminal_channel(capfd):
    """Keep a handle on the capture manager so PASS/FAIL lines can
    escape pytest's fd-level capture and reach the real terminal."""
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def report(num: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {num:2d} {status} - {detail}"
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert ok, f"criterion {num} failed: {detail}"


def correlated_pair(rng, n: int, rho: float):
    z1 = rng.standard_normal(n)
    z2 = rho * z1 + np.sqrt(1.0 - rho * rho) * rng.standard_normal(n)
    return z1, z2


def test_c01_kendall_tau_oracle():
    """Fast tau equals the O(n^2) sign-count definition, bit for bit."""

    def brute(x, y):
        dx = np.sign(x[:, None] - x[None, :])
        dy = np.sign(y[:, None] - y[None, :])
        iu = np.triu_indices(x.size, 1)
        return float((dx[iu] * dy[iu]).sum()) / (x.size * (x.size - 1) / 2)

    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    mismatches = 0
    for case in range(200):
        n = int(rng.integers(5, 501))
        if case % 2:
            lim = max(n // 4, 2)
            x = rng.integers(0, lim, size=n).astype(float)
            y = rng.integers(0, lim, size=n).astype(float)
        else:
            x, y = correlated_pair(rng, n, 0.5)
        if kendall_tau(x, y) != brute(x, y):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    report(1, mismatches == 0 and elapsed < 10.0,
           f"kendall tau exact on 200/200 random cases with ties in {elapsed:.1f}s")


def test_c02_copula_normalization():
    """20 fitted kernel copulas integrate to 1 on a 200-point GL grid."""
    nodes, gl_w = leggauss(200)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * gl_w
    UU, VV = np.meshgrid(u, u, indexing="ij")
    rng = np.random.default_rng(7)
    rhos = (0.0, 0.3, 0.6, 0.85)
    worst = 0.0
    for i in range(20):
        n = 200 + (800 * i) // 19
        z1, z2 = correlated_pair(rng, n, rhos[i % len(rhos)])
        cop = KernelCopula.fit(rank_pseudo_observations(z1),
                               rank_pseudo_observations(z2))
        C = cop.density(UU.ravel(), VV.ravel()).reshape(200, 200)
        total = float(w @ C @ w)
        worst = max(worst, abs(total - 1.0))
    report(2, worst <= 0.02,
           f"20 copula mass integrals within {worst:.4f} of 1 (limit 0.02)")


def test_c03_h_function_quadrature():
    """Conditional cdf equals the normalized partial integral of the density."""
    rng = np.random.default_rng(300)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(100, 400))
        z1, z2 = correlated_pair(rng, n, float(rng.uniform(-0.8, 0.8)))
        cop = KernelCopula.fit(rank_pseudo_observations(z1),
                               rank_pseudo_observations(z2))
        for _ in range(25):
            uv = rng.uniform(0.02, 0.98, size=2)
            u, v = float(uv[0]), float(uv[1])
            num, _ = integrate.quad(lambda s: cop.density(s, v), 0.0, u, limit=200)
            den, _ = integrate.quad(lambda s: cop.density(s, v), 0.0, 1.0, limit=200)
            worst = max(worst, abs(cop.cdf_u_given_v(u, v) - num / den))
    report(3, worst <= 1e-3,
           f"h-function vs adaptive quadrature, max abs error {worst:.2e} (limit 1e-3)")


def test_c04_vine_consistency():
    """d=2 density composes exactly; d=3 conditional matches 2-d quadrature."""
    rng = np.random.default_rng(4)
    z1, z2 = correlated_pair(rng, 300, 0.6)
    X = np.column_stack([z1, z2])
    model = fit_vine(X, truncation=1)
    edge = model.trees[0].edges[0]
    probes = np.column_stack(correlated_pair(rng, 50, 0.6))
    worst2 = 0.0
    for x0, x1 in probes:
        u = model.marginals[0].cdf(x0)
        v = model.marginals[1].cdf(x1)
        j, _ = edge.conditioned
        cop_term = (edge.copula.log_density(u, v) if j == 0
                    else edge.copula.log_density(v, u))
        direct = (model.marginals[0].logpdf(x0) + model.marginals[1].logpdf(x1)
                  + cop_term)
        worst2 = max(worst2, abs(model.log_density(np.array([x0, x1])) - direct))

    # d=3: P(x2 <= q | x1) against brute 2-d integration over (x0, x2).
    # The identity is exact when copula margins are exactly uniform, so
    # the deep-tree case runs with the gaussian family; the kernel case
    # runs truncated where the nuisance integral cancels in the ratio.
    ds = gaussian_copula_chain(300, 3, rho=0.7, rng=np.random.default_rng(5))
    worst3 = 0.0
    for family, trunc in (("kernel", 1), ("gaussian", 2)):
        model3 = fit_vine(ds.X, truncation=trunc, family=family)
        for x1v, q in ((0.3, 0.8), (-0.6, -0.2)):
            def joint(x2, x0):
                return float(np.exp(model3.log_density(np.array([x0, x1v, x2]))))

            num, _ = integrate.dblquad(joint, -9, 9, -9, q, epsabs=1e-5, epsrel=1e-5)
            den, _ = integrate.dblquad(joint, -9, 9, -9, 9, epsabs=1e-5, epsrel=1e-5)
            got = model3.conditional_cdf(2, q, {1: x1v})
            worst3 = max(worst3, abs(got - num / den))
    report(4, worst2 <= 1e-12 and worst3 <= 5e-3,
           f"d=2 composition error {worst2:.1e} (limit 1e-12), "
           f"d=3 conditional error {worst3:.1e} (limit 5e-3)")


def test_c05_mst_oracle():
    """Prim equals exhaustive spanning-tree enumeration on 100 matrices."""

    def exhaustive(W):
        m = W.shape[0]
        all_edges = list(itertools.combinations(range(m), 2))
        best, best_w = None, -np.inf
        for subset in itertools.combinations(all_edges, m - 1):
            parent = list(range(m))

            def find(a):
                while parent[a] != a:
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                return a

            spanning = True
            for i, j in subset:
                ri, rj = find(i), find(j)
                if ri == rj:
                    spanning = False
                    break
                parent[ri] = rj
            if spanning:
                total = sum(W[i, j] for i, j in subset)
                if total > best_w:
                    best_w, best = total, set(subset)
        return best

    rng = np.random.default_rng(55)
    agree = 0
    for case in range(100):
        m = int(rng.integers(3, 7))
        W = rng.uniform(size=(m, m))
        W = 0.5 * (W + W.T)
        np.fill_diagonal(W, 0.0)
        if set(dense_prim(W)) == exhaustive(W):
            agree += 1
    report(5, agree == 100,
           f"prim matched exhaustive enumeration on {agree}/100 matrices, d <= 6")


def test_c06_mmd_calibration_and_power():
    """Type-I rate in [0.01, 0.10] at alpha 0.05; saturated power at 3 sigma."""
    reps = 200
    rejections_h0 = 0
    rejections_h1 = 0
    for r in range(reps):
        rng = np.random.default_rng(6000 + r)
        X = rng.standard_normal((200, 1))
        Y = rng.standard_normal((200, 1))
        cfg = MmdConfig(permutations=100, alpha=0.05, seed=r)
        rejections_h0 += permutation_test(X, Y, cfg).rejected
        rejections_h1 += permutation_test(X, Y + 3.0, cfg).rejected
    rate = rejections_h0 / reps
    power = rejections_h1 / reps
    report(6, 0.01 <= rate <= 0.10 and power >= 0.99,
           f"type-I rate {rate:.3f} in [0.01, 0.10], power {power:.3f} at 3 sigma shift")


def test_c07_density_estimation_benchmark():
    """NPRV leads both baselines on 8-d bimodal-dependence data."""
    t0 = time.perf_counter()
    gen = get_generator("bimodal-chain", d=8, rho=0.9, mix_weight=0.7)
    cfg = ExperimentConfig(seed=0, n_samples=1000, train_fraction=0.3,
                           repetitions=30, truncation=1)
    res = density_bench({"bimodal": gen}, cfg)["bimodal"]
    beats_kde = float(np.mean(res["NPRV"] > res["KDE"]))
    beats_grv = float(np.mean(res["NPRV"] > res["GRV"]))
    elapsed = time.perf_counter() - t0
    report(7, beats_kde >= 0.90 and beats_grv >= 0.80 and elapsed < 300.0,
           f"NPRV > KDE in {beats_kde:.0%}, NPRV > GRV in {beats_grv:.0%} "
           f"of 30 seeds ({elapsed:.0f}s)")


def test_c08_adaptation_detection():
    """Single-marginal shift and copula flip are flagged at the right factor."""
    exact_marginal = 0
    flip_found = 0
    for s in range(50):
        cfg = MmdConfig(permutations=500, alpha=0.002, seed=s)

        rng = np.random.default_rng(8000 + s)
        src, tgt = marginal_shift_pair(400, 5, 0.6, rng, shift_col=2, shift=3.0)
        model = fit_vine(src.X, truncation=1, variable_names=src.names,
                         target_index=4)
        _, rep = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=4, mode="supervised", mmd_config=cfg))
        flags = [d.factor_id for d in rep.decisions if d.changed]
        exact_marginal += flags == ["marginal(2)"]

        rng = np.random.default_rng(8500 + s)
        src, tgt = copula_flip_pair(400, 5, 0.6, rng, flip_link=1)
        model = fit_vine(src.X, truncation=1, variable_names=src.names,
                         target_index=4)
        _, rep = adapt_vine(model, AdaptationInput(
            source=src, target_labeled=tgt, target_unlabeled=None,
            target_index=4, mode="supervised", mmd_config=cfg))
        flags = [d.factor_id for d in rep.decisions if d.changed]
        flip_found += "edge(0,1)" in flags
    report(8, exact_marginal >= 45 and flip_found >= 40,
           f"marginal shift flagged alone in {exact_marginal}/50 seeds (need 45), "
           f"copula flip flagged in {flip_found}/50 (need 40)")


def test_c09_regression_adaptation():
    """Adapted vines beat the stale source model on shifted regression."""
    t0 = time.perf_counter()
    cfg = ExperimentConfig(seed=0, n_samples=600, repetitions=30, truncation=2,
                           target_labeled_fraction=0.05,
                           mmd=MmdConfig(permutations=100))
    runs = adaptation_experiment(cfg, n_target=500, n_test=300, grid_points=129)
    semi = float(np.mean([r.nmse_semi < r.nmse_source for r in runs]))
    unsup = float(np.mean([r.nmse_unsupervised < r.nmse_source for r in runs]))
    elapsed = time.perf_counter() - t0
    report(9, semi >= 0.80 and unsup >= 0.70 and elapsed < 600.0,
           f"semi-supervised wins {semi:.0%} of 30 reps (need 80%), "
           f"unsupervised {unsup:.0%} (need 70%), {elapsed:.0f}s")


def test_c10_fit_time_scaling():
    """Fit cost grows like d^2 n log n: doubling d or quadrupling n stays cheap."""

    def fit_seconds(n, d):
        # the fastest of 5 fits: host load only ever adds time
        ds = gaussian_copula_chain(n, d, 0.6, np.random.default_rng(0))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            fit_vine(ds.X, truncation=1)
            times.append(time.perf_counter() - t0)
        return min(times)

    base = fit_seconds(1000, 8)
    ratio_d = fit_seconds(1000, 16) / base
    ratio_n = fit_seconds(4000, 8) / base
    report(10, ratio_d <= 5.0 and ratio_n <= 6.0,
           f"fit time ratios d16/d8 = {ratio_d:.2f} (limit 5), "
           f"n4000/n1000 = {ratio_n:.2f} (limit 6)")


def test_c11_persistence(tmp_path):
    """Round-trip leaves densities unchanged and re-saves byte-identically."""
    ds = gaussian_copula_chain(200, 4, 0.6, np.random.default_rng(11))
    model = fit_vine(ds.X, truncation=2, variable_names=ds.names, target_index=3)
    probes = gaussian_copula_chain(100, 4, 0.6, np.random.default_rng(12)).X
    before = model.log_density(probes)
    p1, p2 = tmp_path / "m1.json", tmp_path / "m2.json"
    save(model, p1)
    restored = load(p1)
    after = restored.log_density(probes)
    save(restored, p2)
    worst = float(np.max(np.abs(after - before)))
    identical = p1.read_bytes() == p2.read_bytes()
    report(11, worst <= 1e-12 and identical,
           f"round-trip density drift {worst:.1e} over 100 probes (limit 1e-12), "
           f"re-save byte-identical: {identical}")
