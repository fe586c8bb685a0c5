import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

import vineshift
from vineshift import statcore
from vineshift.bench import ProductKernelKDE
from vineshift.bicopula import GaussianCopula, IndependenceCopula, KernelCopula
from vineshift.errors import DegenerateDataError, InsufficientDataError
from vineshift.statcore import (GaussianKernel1D, kendall_tau,
                                rank_pseudo_observations, silverman_bandwidth)

# mpmath 50-digit references:
#   npdf(0)   = 0.39894228040143267793994605993438186847585863116493
#   npdf(1)   = 0.24197072451914334980049666330425750590925521761614
#   ncdf(1)   = 0.84134474606854294859337880785606868894593668137229
PHI_0 = 0.3989422804014327
PHI_1 = 0.24197072451914335
NCDF_1 = 0.8413447460685429


def exact_cdf(m, x):
    """Phi of the exact normal score: the cdf of a query that takes no table."""
    return ndtr(m._exact_score(x))


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

    @pytest.mark.parametrize("scale", [1e-18, 1e-13, 1e6])
    def test_quantile_scales_with_the_data(self, scale):
        # the bisection stops at a width in bandwidths, not in data units
        c = np.random.default_rng(13).standard_normal(200) * 3.0 - 2.0
        p = np.array([1e-6, 0.001, 0.5, 0.999])
        assert_allclose(GaussianKernel1D.fit(scale * c).quantile(p),
                        scale * GaussianKernel1D.fit(c).quantile(p), rtol=1e-10)

    def test_quantile_widens_the_bracket_past_ten_bandwidths(self):
        # the start bracket is 10 bandwidths past the outermost centres:
        # p = 1e-300 needs about 37 of them, so the low end moves out
        m = GaussianKernel1D(centers=[0.0, 1.0, 2.0], bandwidth=0.5)
        q = m.quantile([1e-300, 0.5])
        assert q[0] < -10 * 0.5
        assert_allclose(m.cdf(q[0]), 1e-300, rtol=1e-6)
        assert q[1] == pytest.approx(1.0, abs=1e-12)

    def test_quantile_returns_where_a_bandwidth_is_below_an_ulp(self):
        # 1e6 +- 10 bandwidths rounds to 1e6: each widening used to leave
        # the bracket where it was, and both loops ran forever
        m = GaussianKernel1D(centers=[1e6], bandwidth=1e-12)
        q = m.quantile([0.1, 0.9])
        assert np.all(np.abs(q - 1e6) <= 4 * np.spacing(1e6))

    def test_cdf_sums_exactly_where_the_node_step_is_below_an_ulp(self):
        # 1000 centres on 10 values 1e-9 apart near 1e6, h = 1e-10: a table
        # would need 425 nodes, but the step h/4 is a fifth of 1e6's ulp, so
        # lo + step * k collapses; such a marginal must sum exactly
        m = GaussianKernel1D(centers=1e6 + 1e-9 * (np.arange(1000) % 10), bandwidth=1e-10)
        assert m._score_table is None
        x = 1e6 + np.linspace(-2e-9, 11e-9, 201)
        assert_array_equal(m.cdf(x), exact_cdf(m, x))
        q = m.quantile([0.05, 0.5, 0.95])
        assert np.all((q > 1e6 - 1e-9) & (q < 1e6 + 1e-8))

    def test_quantile_rejects_boundary(self):
        m = GaussianKernel1D(centers=[0.0, 1.0], bandwidth=1.0)
        for p in (0.0, 1.0, [0.5, 1.0]):
            with pytest.raises(ValueError):
                m.quantile(p)

    def test_quantile_rejects_nan(self):
        # nan <= 0 and nan >= 1 are both false: nan once came back as -5.0
        m = GaussianKernel1D(centers=[0.0, 1.0, 2.0], bandwidth=0.5)
        for p in (np.nan, [0.5, np.nan]):
            with pytest.raises(ValueError, match="^quantile argument must lie strictly in"):
                m.quantile(p)

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianKernel1D(centers=[], bandwidth=1.0)
        for h in (0.0, -1.0, np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                GaussianKernel1D(centers=[1.0], bandwidth=h)
        # a nan centre made every cdf nan, an inf one gave finite log densities
        for c in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^centers must be finite$"):
                GaussianKernel1D(centers=[c, 1.0, 2.0], bandwidth=0.5)

    def test_equality_and_hash_are_by_identity(self):
        a, b = GaussianKernel1D.fit([0.1, 0.4, 0.9]), GaussianKernel1D.fit([0.1, 0.4, 0.9])
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert a in [b, a] and b not in [a]


class TestNormalScoreTable:
    """cdf interpolates a table of Phi^-1(F); Phi of the exact score is the reference."""

    @pytest.mark.parametrize("n", [150, 600, 4000])
    @pytest.mark.parametrize("kind", ["normal", "exponential"])
    def test_table_agrees_with_the_exact_sum(self, kind, n):
        rng = np.random.default_rng(n)
        c = rng.standard_normal(n) if kind == "normal" else rng.exponential(size=n)
        m = GaussianKernel1D.fit(c)
        assert m._score_table is not None
        h = m.bandwidth
        x = np.concatenate([np.linspace(c.min() - 12 * h, c.max() + 12 * h, 6001), c[:500]])
        got, exact = m.cdf(x), exact_cdf(m, x)
        err = np.abs(got - exact)
        assert err.max() <= 2e-6
        lower = exact < 0.5
        assert (err[lower] / exact[lower]).max() <= 5e-5
        # past the grid the exact sum answers
        outside = (x < m._score_table[0][0]) | (x > m._score_table[0][-1])
        assert outside.sum() > 100
        assert_array_equal(got[outside], exact[outside])

    def test_a_query_does_not_depend_on_its_batch(self):
        rng = np.random.default_rng(51)
        m = GaussianKernel1D.fit(rng.standard_normal(500))
        assert m._score_table is not None
        nodes = m._score_table[0]
        x = np.concatenate([rng.normal(scale=3.0, size=300), nodes[[0, 1, -2, -1]],
                            [nodes[0] - 1e-9, nodes[-1] + 1e-9, np.inf, -np.inf, np.nan]])
        batch = m.cdf(x)
        single = np.array([m.cdf(xi) for xi in x])
        assert batch.tobytes() == single.tobytes()
        assert_array_equal(m.cdf(x.reshape(-1, 3)), batch.reshape(-1, 3))

    @pytest.mark.parametrize("centers,bandwidth", [
        ([0.7], 0.3),
        ([0.0, 1.0, 2.0], 0.5),
        # 40 centres: a table over them +- 8h needs more than 40 nodes
        (np.linspace(-1.0, 1.0, 40), 0.4),
        # a far outlier: 199 centres, but thousands of nodes h/4 apart
        (np.r_[np.random.default_rng(52).standard_normal(198), 500.0], 0.3),
    ], ids=["1-centre", "3-centre", "40-centre", "outlier"])
    def test_marginals_without_a_table_sum_exactly(self, centers, bandwidth):
        m = GaussianKernel1D(centers=centers, bandwidth=bandwidth)
        assert m._score_table is None
        x = np.concatenate([np.linspace(-8.0, 8.0, 401), [np.inf, -np.inf, np.nan, 500.1]])
        assert m.cdf(x).tobytes() == exact_cdf(m, x).tobytes()
        assert m.cdf(0.25) == exact_cdf(m, 0.25)

    @pytest.mark.parametrize("n", [3, 300])
    def test_infinities_and_nan(self, n):
        m = GaussianKernel1D.fit(np.random.default_rng(53).standard_normal(n))
        assert (m._score_table is None) == (n == 3)
        assert m.cdf(np.inf) == 1.0 and m.cdf(-np.inf) == 0.0
        assert np.isnan(m.cdf(np.nan))
        assert_array_equal(m.cdf([-np.inf, 0.0, np.nan, np.inf])[[0, 2, 3]], [0.0, np.nan, 1.0])

    def test_each_marginal_builds_its_table_once(self, monkeypatch):
        builds = []
        build = statcore._normal_score_table

        def counted(kern):
            builds.append(kern)
            return build(kern)

        monkeypatch.setattr(statcore, "_normal_score_table", counted)
        rng = np.random.default_rng(54)
        a = GaussianKernel1D.fit(rng.standard_normal(300))
        b = GaussianKernel1D.fit(rng.exponential(size=300))
        for m in (a, b, a, b):
            m.cdf(rng.standard_normal(50))
            m.cdf(0.1)
            m.quantile([0.2, 0.7])
        m.logpdf([0.0, 1.0])
        assert builds == [a, b]


class TestNormalScore:
    """score is Phi^-1 of the cdf, and cdf is Phi of score, bit for bit."""

    @pytest.fixture(params=["table", "no-table"])
    def marginal(self, request):
        rng = np.random.default_rng(55)
        if request.param == "table":
            m = GaussianKernel1D.fit(rng.exponential(size=400))
            assert m._score_table is not None
        else:
            m = GaussianKernel1D.fit(rng.standard_normal(30))
            assert m._score_table is None
        return m

    def queries(self, m):
        h, c = m.bandwidth, m.centers
        return np.concatenate([np.linspace(c.min() - 20 * h, c.max() + 20 * h, 3001), c,
                               [np.inf, -np.inf, np.nan]])

    def test_cdf_is_phi_of_the_score_on_the_grid_and_off_it(self, marginal):
        x = self.queries(marginal)
        if marginal._score_table is not None:
            nodes = marginal._score_table[0]
            outside = (x < nodes[0]) | (x > nodes[-1])
            assert 100 < outside.sum() < x.size - 100
        assert ndtr(marginal.score(x)).tobytes() == marginal.cdf(x).tobytes()
        assert float(ndtr(marginal.score(0.3))) == marginal.cdf(0.3)

    def test_exact_score_reads_the_survival_sum_right_of_the_median(self, marginal):
        x = self.queries(marginal)
        x = x[np.isfinite(x)]
        c, h = marginal.centers, marginal.bandwidth
        upper = x > np.median(c)
        sf = ndtr((c - x[upper, None]) / h).sum(axis=1) / c.size
        cdf = ndtr((x[~upper, None] - c) / h).sum(axis=1) / c.size
        exact = marginal._exact_score(x)
        assert_array_equal(exact[upper], -ndtri(sf))
        assert_array_equal(exact[~upper], ndtri(cdf))
        # far right the cdf rounds to 1, but the score keeps the tail
        far = c.max() + 12 * h
        assert marginal.cdf(far) == 1.0
        assert marginal._exact_score(far) == -ndtri(ndtr((c - far) / h).sum() / c.size) > 8.0
        if marginal._score_table is None:
            assert_array_equal(marginal.score(x), exact)

    def test_a_query_does_not_depend_on_its_batch(self, marginal):
        x = self.queries(marginal)[:-3:7]
        x = np.concatenate([x[:x.size // 3 * 3], [np.inf, -np.inf, np.nan]])
        batch = marginal.score(x)
        assert batch.tobytes() == np.array([marginal.score(xi) for xi in x]).tobytes()
        assert_array_equal(marginal.score(x.reshape(-1, 3)), batch.reshape(-1, 3))


class TestKernelSumBlocks:
    """Every kernel sum reduces rows on their own: no block size moves a bit."""

    @pytest.mark.parametrize("entries", [1, 10**8])
    def test_block_size_does_not_change_results(self, entries, monkeypatch):
        rng = np.random.default_rng(31)
        x = rng.standard_normal(300)
        kern = GaussianKernel1D.fit(x)
        cop = KernelCopula.fit(rank_pseudo_observations(x),
                               rank_pseudo_observations(x + rng.standard_normal(300)))
        kde = ProductKernelKDE.fit(rng.standard_normal((200, 4)))
        pts = rng.normal(size=(23, 13))
        grid, rows = np.tile(np.linspace(0.01, 0.99, 50), 8), np.repeat(rng.uniform(size=8), 50)
        u, v = rng.uniform(size=400), rng.uniform(size=400)
        X = rng.standard_normal((90, 4))

        def outputs():
            out = [kern.pdf(pts), kern.logpdf(pts), kern.cdf(pts), kern.cdf(0.2),
                   kde.log_density(X), kde.log_density(X[0])]
            for a, b in ((grid, rows), (u, v), (0.3, 0.6)):
                out += [cop.log_density(a, b), cop.cdf_u_given_v(a, b),
                        cop.cdf_v_given_u(a, b)]
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


def _elementwise_methods():
    """(function, arity) for every function that goes through statcore.elementwise."""
    rng = np.random.default_rng(41)
    x = rng.standard_normal(80)
    u, v = rank_pseudo_observations(x), rank_pseudo_observations(x + rng.standard_normal(80))
    kern = GaussianKernel1D.fit(x)
    out = [pytest.param(getattr(kern, name), 1, id=f"GaussianKernel1D.{name}")
           for name in ("pdf", "logpdf", "score", "cdf", "quantile")]
    scores = ("log_density_scores", "score_u_given_v", "score_v_given_u")
    for cop in (KernelCopula.fit(u, v), GaussianCopula.fit(u, v), IndependenceCopula()):
        out += [pytest.param(getattr(cop, name), 2, id=f"{type(cop).__name__}.{name}")
                for name in ("log_density", "density", "cdf_u_given_v", "cdf_v_given_u",
                             *(scores if hasattr(cop, scores[0]) else ()))]
    return out


@pytest.mark.parametrize("f,arity", _elementwise_methods())
def test_elementwise_shape_contract(f, arity):
    # scalars give a float, arrays keep their (broadcast) shape, and every
    # element equals the flat evaluation of the broadcast arguments
    assert type(f(*[0.3, 0.6][:arity])) is float
    flat = [np.linspace(0.1, 0.9, 7), np.linspace(0.8, 0.2, 7)][:arity]
    assert f(*flat).shape == (7,)
    if arity == 1:
        grid = np.linspace(0.05, 0.95, 12).reshape(4, 3)
        args = (grid,)
    else:
        args = (np.linspace(0.05, 0.95, 4)[:, None], np.linspace(0.1, 0.9, 3)[None, :])
        assert f(0.4, flat[1]).shape == (7,)
    got = f(*args)
    assert got.shape == (4, 3)
    expect = f(*(a.ravel() for a in np.broadcast_arrays(*args))).reshape(4, 3)
    assert np.array_equal(got, expect)


def brute_tau(x, y):
    n = len(x)
    s = 0
    for i in range(n):
        for j in range(i + 1, n):
            s += np.sign(x[i] - x[j]) * np.sign(y[i] - y[j])
    return s / (n * (n - 1) / 2)


def row_taus(x, y):
    """The 1-d kendall_tau of each row pair: the oracle for batched calls."""
    return np.array([kendall_tau(a, b) for a, b in zip(x, y, strict=True)])


def batch_rows(case, rng):
    """(x, y) of shape (P, n) for one kind of batch."""
    if case == "continuous":
        return rng.standard_normal((2, 40, 300))
    if case == "tied":
        return rng.integers(0, 6, (2, 25, 200)).astype(float)
    if case == "constant_y_row":
        # a row with no y rank bits among rows that have them
        x, y = rng.standard_normal((2, 7, 150))
        y[3] = 0.25
        return x, y
    if case == "one_row":
        return rng.standard_normal((2, 1, 500))
    if case == "past_power_of_two":
        # dense ranks up to 1024 need an eleventh bit; a few ties in x
        x, y = rng.standard_normal((2, 9, 1025))
        x[:, ::7] = 0.0
        return x, y
    raise ValueError(case)


BATCH_CASES = ["continuous", "tied", "constant_y_row", "one_row", "past_power_of_two"]


class TestKendallTau:
    def test_perfect_orderings(self):
        x = np.arange(10.0)
        assert kendall_tau(x, x) == 1.0
        assert kendall_tau(x, -x) == -1.0
        assert type(kendall_tau(x, x)) is float
        assert_array_equal(kendall_tau(np.stack([x, x]), np.stack([x, -x])), [1.0, -1.0])

    @pytest.mark.parametrize("case", BATCH_CASES)
    def test_batch_equals_row_calls(self, case, monkeypatch):
        x, y = batch_rows(case, np.random.default_rng(BATCH_CASES.index(case)))
        expect = row_taus(x, y)
        got = kendall_tau(x, y)
        assert got.shape == (x.shape[0],)
        assert np.array_equal(got, expect)
        # 700 entries: one to four rows per block, so most batches span blocks
        monkeypatch.setattr(statcore, "TAU_BLOCK_ENTRIES", 700)
        assert np.array_equal(kendall_tau(x, y), expect)

    def test_batch_working_memory_is_bounded(self):
        # a whole tree of candidate pairs (d=30: 435 rows at n=600, 2 MB
        # per input) is counted one block of rows at a time
        x, y = np.random.default_rng(19).standard_normal((2, 435, 600))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            kendall_tau(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 2 * 2**20

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
        with pytest.raises(InsufficientDataError):
            kendall_tau(np.ones((3, 1)), np.ones((3, 1)))
        # shapes must match exactly: a 2-d input is rows, never flattened
        for xs, ys in (((2, 5), (3, 5)), ((2, 5), (2, 6)), ((5,), (1, 5)), ((1, 5), (5,)),
                       ((2, 5), (10,))):
            with pytest.raises(ValueError, match="same shape"):
                kendall_tau(np.zeros(xs), np.zeros(ys))
        with pytest.raises(ValueError):
            kendall_tau(np.zeros((2, 2, 5)), np.zeros((2, 2, 5)))

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
        # in a batch, one bad row fails the whole call
        rows = np.tile(y, (4, 1))
        rows[2] = y_bad
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(np.tile(x, (4, 1)), rows)
        with pytest.raises(ValueError, match="finite"):
            kendall_tau(rows, np.tile(x, (4, 1)))

    def test_symmetric_bit_for_bit(self):
        rng = np.random.default_rng(13)
        for case in range(100):
            n = int(rng.integers(2, 400))
            if case % 2:
                x, y = rng.integers(0, max(2, n // 5), (2, n)).astype(float)
            else:
                x, y = rng.standard_normal((2, n))
            assert kendall_tau(x, y) == kendall_tau(y, x)
        x, y = rng.integers(0, 30, (2, 12, 150)).astype(float)
        assert np.array_equal(kendall_tau(x, y), kendall_tau(y, x))

    def test_exact_on_large_tied_sample(self):
        # dense y ranks well past a power of two, many ties in both
        rng = np.random.default_rng(14)
        x = rng.integers(0, 40, 1500).astype(float)
        y = rng.integers(0, 1100, 1500).astype(float)
        assert kendall_tau(x, y) == brute_tau(x, y)
        # the same row in a batch beside a constant-y row and a continuous one
        xs = np.stack([x, x, rng.standard_normal(1500)])
        ys = np.stack([y, np.full(1500, 3.0), rng.standard_normal(1500)])
        assert np.array_equal(kendall_tau(xs, ys), row_taus(xs, ys))
        assert kendall_tau(xs, ys)[0] == brute_tau(x, y)

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

    # kernel pseudo-observations: a column through its own fitted kernel
    # cdf, as adapt maps each domain's rows for the first-tree tests
    def test_kernel_pseudo_open_interval(self):
        rng = np.random.default_rng(11)
        x = rng.exponential(size=300)
        u = GaussianKernel1D.fit(x).cdf(x)
        assert u.min() > 0.0 and u.max() < 1.0

    def test_kernel_pseudo_three_point_oracle(self):
        # centers (0,1,2), h = silverman; u_0 = mean_i Phi((0-c_i)/h)
        x = np.array([0.0, 1.0, 2.0])
        h = silverman_bandwidth(x)
        u = GaussianKernel1D.fit(x).cdf(x)
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
    """`import vineshift` stays cheap: these scipy modules load lazily, if at all."""
    src = str(Path(vineshift.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, vineshift; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.optimize', 'scipy.interpolate', "
            "'scipy.ndimage', 'scipy.linalg') if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"


def test_silverman_bandwidth_refuses_dim_0():
    with pytest.raises(ValueError, match="^dim must be a positive integer$"):
        silverman_bandwidth([0.0, 1.0, 2.0], dim=0)


def test_rank_pseudo_observations_refuses_one_row():
    with pytest.raises(InsufficientDataError, match="needs at least 2 rows"):
        rank_pseudo_observations([1.0])
