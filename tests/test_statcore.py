import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats

import vineshift
from vineshift import statcore
from vineshift.bench import ProductKernelKDE
from vineshift.bicopula import KernelCopula
from vineshift.errors import DegenerateDataError, InsufficientDataError
from vineshift.statcore import (GaussianKernel1D, kendall_tau,
                                pseudo_observations,
                                rank_pseudo_observations,
                                silverman_bandwidth, std_normal_cdf,
                                std_normal_pdf, std_normal_quantile)

# mpmath 50-digit references:
#   npdf(0)   = 0.39894228040143267793994605993438186847585863116493
#   npdf(1)   = 0.24197072451914334980049666330425750590925521761614
#   ncdf(1)   = 0.84134474606854294859337880785606868894593668137229
PHI_0 = 0.3989422804014327
PHI_1 = 0.24197072451914335
NCDF_1 = 0.8413447460685429


class TestNormalFunctions:
    def test_pdf_reference_values(self):
        assert_allclose(std_normal_pdf(0.0), PHI_0, rtol=1e-15)
        assert_allclose(std_normal_pdf(1.0), PHI_1, rtol=1e-15)
        assert_allclose(std_normal_pdf(-1.0), PHI_1, rtol=1e-15)

    def test_cdf_reference_values(self):
        assert_allclose(std_normal_cdf(0.0), 0.5, rtol=1e-15)
        assert_allclose(std_normal_cdf(1.0), NCDF_1, rtol=1e-15)
        assert_allclose(std_normal_cdf(-1.0), 1.0 - NCDF_1, rtol=1e-12)
        assert std_normal_cdf(np.inf) == 1.0
        assert std_normal_cdf(-np.inf) == 0.0

    def test_quantile_inverts_cdf(self):
        p = np.linspace(0.001, 0.999, 41)
        assert_allclose(std_normal_cdf(std_normal_quantile(p)), p, atol=1e-13)

    def test_quantile_rejects_boundary(self):
        with pytest.raises(ValueError):
            std_normal_quantile(0.0)
        with pytest.raises(ValueError):
            std_normal_quantile(1.0)

    def test_vector_shapes(self):
        x = np.zeros((3, 2))
        assert std_normal_pdf(x).shape == (3, 2)
        assert isinstance(std_normal_pdf(0.5), float)


class TestSilvermanBandwidth:
    def test_unit_sigma_formula(self):
        # sample engineered to sigma=1 exactly; constants checked with
        # mpmath: (4/3)^(1/5)*1000^(-1/5) = 0.26606499942619717...
        #         (4/4)^(1/6)*1000^(-1/6) = 0.31622776601683793...
        n = 1000
        base = np.arange(n, dtype=float)
        base = (base - base.mean()) / base.std(ddof=1)
        assert_allclose(silverman_bandwidth(base, dim=1),
                        0.26606499942619717, rtol=1e-14)
        assert_allclose(silverman_bandwidth(base, dim=2),
                        0.31622776601683793, rtol=1e-14)

    def test_scale_equivariance(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(200)
        assert_allclose(silverman_bandwidth(3.0 * x),
                        3.0 * silverman_bandwidth(x), rtol=1e-12)

    def test_degenerate_input(self):
        with pytest.raises(DegenerateDataError):
            silverman_bandwidth(np.ones(50))
        with pytest.raises(InsufficientDataError):
            silverman_bandwidth([1.0])


class TestGaussianKernel1D:
    def test_single_center_is_gaussian(self):
        m = GaussianKernel1D(centers=[2.0], bandwidth=1.5)
        x = np.linspace(-3, 7, 31)
        assert_allclose(m.pdf(x), stats.norm.pdf(x, loc=2.0, scale=1.5), rtol=1e-12)
        assert_allclose(m.cdf(x), stats.norm.cdf(x, loc=2.0, scale=1.5), rtol=1e-12)

    def test_two_center_mixture_by_hand(self):
        # 0.5*phi(x) + 0.5*phi(x-1) at x=0: (PHI_0 + PHI_1)/2
        m = GaussianKernel1D(centers=[0.0, 1.0], bandwidth=1.0)
        assert_allclose(m.pdf(0.0), 0.5 * (PHI_0 + PHI_1), rtol=1e-14)
        assert_allclose(m.cdf(0.0), 0.5 * (0.5 + (1.0 - NCDF_1)), rtol=1e-12)

    def test_pdf_integrates_to_one(self):
        rng = np.random.default_rng(4)
        m = GaussianKernel1D.fit(rng.standard_normal(80))
        total, _ = integrate.quad(m.pdf, -12, 12, limit=200)
        assert_allclose(total, 1.0, atol=1e-9)

    def test_logpdf_matches_log_of_pdf(self):
        rng = np.random.default_rng(5)
        m = GaussianKernel1D.fit(rng.standard_normal(60))
        x = np.linspace(-4, 4, 17)
        assert_allclose(m.logpdf(x), np.log(m.pdf(x)), rtol=1e-12)

    def test_logpdf_finite_in_far_tail(self):
        m = GaussianKernel1D(centers=[0.0], bandwidth=1.0)
        v = m.logpdf(40.0)
        assert np.isfinite(v)
        assert_allclose(v, -0.5 * 1600 - np.log(np.sqrt(2 * np.pi)), rtol=1e-12)

    def test_quantile_roundtrip(self):
        rng = np.random.default_rng(6)
        m = GaussianKernel1D.fit(rng.standard_normal(40) * 2.0 + 1.0)
        p = np.array([0.01, 0.1, 0.5, 0.9, 0.99])
        assert_allclose(m.cdf(m.quantile(p)), p, atol=1e-10)

    def test_quantile_array_matches_points_and_far_tails(self):
        rng = np.random.default_rng(12)
        m = GaussianKernel1D.fit(rng.standard_normal(300) * 3.0 - 2.0)
        p = np.array([[1e-6, 0.001, 0.25], [0.5, 0.999, 1.0 - 1e-6]])
        q = m.quantile(p)
        assert q.shape == p.shape
        assert_array_equal(q, [[m.quantile(float(pi)) for pi in row] for row in p])
        assert_allclose(m.cdf(q), p, rtol=1e-10, atol=0.0)
        assert isinstance(m.quantile(0.5), float)

    def test_quantile_rejects_boundary(self):
        m = GaussianKernel1D(centers=[0.0, 1.0], bandwidth=1.0)
        for p in (0.0, 1.0, [0.5, 1.0]):
            with pytest.raises(ValueError):
                m.quantile(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianKernel1D(centers=[], bandwidth=1.0)
        with pytest.raises(ValueError):
            GaussianKernel1D(centers=[1.0], bandwidth=0.0)


class TestKernelSumBlocks:
    """Every kernel sum reduces rows on their own: no block size moves a bit."""

    @pytest.mark.parametrize("entries", [1, 10**8])
    def test_block_size_does_not_change_results(self, entries, monkeypatch):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(300)
        kern = GaussianKernel1D.fit(x)
        cop = KernelCopula.fit(rank_pseudo_observations(x),
                               rank_pseudo_observations(x + rng.standard_normal(300)))
        skew = replace(cop, gamma=0.05)
        kde = ProductKernelKDE.fit(rng.standard_normal((200, 4)))
        pts = rng.normal(size=(23, 13))
        grid, rows = np.tile(np.linspace(0.01, 0.99, 50), 8), np.repeat(rng.uniform(size=8), 50)
        u, v = rng.uniform(size=400), rng.uniform(size=400)
        X = rng.standard_normal((90, 4))

        def outputs():
            out = [kern.pdf(pts), kern.logpdf(pts), kern.cdf(pts), kern.cdf(0.2),
                   kde.log_density(X), kde.log_density(X[0])]
            for c in (cop, skew):
                for a, b in ((grid, rows), (u, v), (0.3, 0.6)):
                    out += [c.log_density(a, b), c.cdf_u_given_v(a, b),
                            c.cdf_v_given_u(a, b)]
            return out

        default = outputs()
        monkeypatch.setattr(statcore, "BLOCK_ENTRIES", entries)
        for got, expect in zip(outputs(), default, strict=True):
            assert np.shape(got) == np.shape(expect)
            assert np.array_equal(got, expect)

    def test_row_blocks_cover_every_row_once(self, monkeypatch):
        monkeypatch.setattr(statcore, "BLOCK_ENTRIES", 100)
        blocks = list(statcore.row_blocks(25, 30))
        assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 6), (6, 9), (9, 12),
                                                       (12, 15), (15, 18), (18, 21),
                                                       (21, 24), (24, 27)]
        assert [(b.start, b.stop) for b in statcore.row_blocks(3, 500)] == [(0, 1), (1, 2), (2, 3)]
        assert list(statcore.row_blocks(0, 5)) == []


def brute_tau(x, y):
    n = len(x)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            s += np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
    return s / (n * (n - 1) / 2)


class TestKendallTau:
    def test_perfect_orderings(self):
        x = np.arange(10.0)
        assert kendall_tau(x, x) == 1.0
        assert kendall_tau(x, -x) == -1.0

    def test_matches_brute_force_continuous(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            n = int(rng.integers(2, 40))
            x = rng.standard_normal(n)
            y = rng.standard_normal(n)
            assert_allclose(kendall_tau(x, y), brute_tau(x, y), atol=1e-12)

    def test_matches_brute_force_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(150):
            n = int(rng.integers(2, 30))
            x = rng.integers(0, 5, n).astype(float)
            y = rng.integers(0, 4, n).astype(float)
            assert_allclose(kendall_tau(x, y), brute_tau(x, y), atol=1e-12)

    def test_gaussian_population_value(self):
        # tau = 2/pi * arcsin(rho); rho=0.8 gives 0.5903344706017331
        rng = np.random.default_rng(9)
        n = 40000
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = 0.8 * z[:, 0] + np.sqrt(1 - 0.64) * z[:, 1]
        assert abs(kendall_tau(x, y) - 0.5903344706017331) < 0.02

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kendall_tau([1, 2], [1, 2, 3])
        with pytest.raises(InsufficientDataError):
            kendall_tau([1.0], [2.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        x = np.arange(6.0)
        y = np.array([0.0, 2.0, 1.0, 4.0, 3.0, 5.0])
        y_bad = y.copy()
        y_bad[2] = bad
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(x, y_bad)
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(y_bad, x)

    def test_symmetric_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for case in range(100):
            n = int(rng.integers(2, 400))
            if case % 2:
                x, y = rng.integers(0, max(2, n // 5), (2, n)).astype(float)
            else:
                x, y = rng.standard_normal((2, n))
            assert kendall_tau(x, y) == kendall_tau(y, x)

    def test_exact_on_large_tied_sample(self):
        # dense y ranks well past a power of two, many ties in both
        rng = np.random.default_rng(14)
        x = rng.integers(0, 40, 1500).astype(float)
        y = rng.integers(0, 1100, 1500).astype(float)
        assert kendall_tau(x, y) == brute_tau(x, y)

    @given(st.lists(st.integers(-3, 3), min_size=2, max_size=25),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_property_matches_brute(self, xs, data):
        ys = data.draw(st.lists(st.integers(-3, 3),
                                min_size=len(xs), max_size=len(xs)))
        x = np.array(xs, dtype=float)
        y = np.array(ys, dtype=float)
        assert_allclose(kendall_tau(x, y), brute_tau(x, y), atol=1e-12)


class TestPseudoObservations:
    def test_rank_values_small_case(self):
        u = rank_pseudo_observations([3.0, 1.0, 2.0])
        assert_allclose(u, [3 / 4, 1 / 4, 2 / 4])

    def test_rank_average_ties(self):
        u = rank_pseudo_observations([5.0, 5.0, 1.0])
        assert_allclose(u, [2.5 / 4, 2.5 / 4, 1 / 4])

    def test_rank_open_interval(self):
        rng = np.random.default_rng(10)
        u = rank_pseudo_observations(rng.standard_normal(200))
        assert u.min() > 0.0 and u.max() < 1.0

    def test_kernel_pseudo_open_interval(self):
        rng = np.random.default_rng(11)
        u = pseudo_observations(rng.exponential(size=300))
        assert u.min() > 0.0 and u.max() < 1.0

    def test_kernel_pseudo_three_point_oracle(self):
        # centers (0,1,2), h = silverman; u_0 = mean_i Phi((0-c_i)/h)
        x = np.array([0.0, 1.0, 2.0])
        h = silverman_bandwidth(x)
        u = pseudo_observations(x)
        expect0 = np.mean(stats.norm.cdf((0.0 - x) / h))
        assert_allclose(u[0], expect0, rtol=1e-12)

    def test_degenerate(self):
        with pytest.raises(DegenerateDataError):
            rank_pseudo_observations(np.full(9, 2.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rank_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            rank_pseudo_observations([1.0, bad, 3.0, 2.0])

    # small integer ranges force ties; a wide range gives (almost) none
    @given(st.one_of(st.lists(st.integers(-3, 3), min_size=2, max_size=60),
                     st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=60)))
    @settings(max_examples=80, deadline=None)
    def test_rank_equals_scipy_average_ranks(self, xs):
        x = np.array(xs, dtype=float)
        if np.all(x == x[0]):
            return
        expect = stats.rankdata(x, method="average") / (x.size + 1.0)
        assert_array_equal(rank_pseudo_observations(x), expect)

    # integer grids keep exp() values exactly distinct in float
    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=40,
                    unique=True))
    @settings(max_examples=60, deadline=None)
    def test_rank_invariant_under_monotone_transform(self, xs):
        x = np.array(xs, dtype=float) / 20.0
        assert_allclose(rank_pseudo_observations(x),
                        rank_pseudo_observations(np.exp(x / 25.0)), atol=1e-12)

    @given(st.lists(st.integers(-1000, 1000), min_size=2, max_size=40,
                    unique=True))
    @settings(max_examples=40, deadline=None)
    def test_tau_invariant_under_monotone_transform(self, xs):
        x = np.array(xs, dtype=float) / 20.0
        rng = np.random.default_rng(len(xs))
        y = rng.standard_normal(x.size)
        assert_allclose(kendall_tau(x, y),
                        kendall_tau(np.exp(x / 25.0), y), atol=1e-12)


def test_import_leaves_scipy_stats_and_optimize_unloaded():
    """`import vineshift` stays cheap: scipy.stats and scipy.optimize load lazily."""
    src = str(Path(vineshift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, vineshift; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
