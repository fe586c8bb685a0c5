import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from vineshift import adapt, bicopula, modelfile, regress
from vineshift.bicopula import EPS, GaussianCopula, IndependenceCopula, KernelCopula
from vineshift.dataio import Dataset
from vineshift.mmd import MmdConfig
from vineshift.rvine import fit_vine
from vineshift.statcore import _kernel_cdfs, _log_kernel, rank_pseudo_observations
from vineshift.synth import REGRESSION_SHIFTS, regression_task


def gauss_legendre_integral(cop, order=200):
    """Integral of density over the unit square, mapped GL nodes."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    U, V = np.meshgrid(t, t)
    dens = cop.density(U.ravel(), V.ravel()).reshape(order, order)
    return float(w @ dens @ w)


class TestKernelCopulaBasics:
    def test_single_center_at_median_point(self):
        # one kernel at the origin of the transformed plane with unit
        # bandwidths: c(0.5, 0.5) = phi2(0)/[phi(0)^2] evaluated through
        # the mixture formula = 1/(2*pi*1*1) * 2*pi = 1
        cop = KernelCopula(z_centers=[0.0], w_centers=[0.0],
                           sigma_z=1.0, sigma_w=1.0)
        assert_allclose(cop.density(0.5, 0.5), 1.0, rtol=1e-12)

    def test_single_center_offset_value(self):
        # c(u,v) = exp(-(z-1)^2/2 - (w-1)^2/2 + (z^2+w^2)/2) for a unit
        # kernel at (1,1); at u=v=0.5 (z=w=0) this is exp(-1)
        cop = KernelCopula(z_centers=[1.0], w_centers=[1.0],
                           sigma_z=1.0, sigma_w=1.0)
        assert_allclose(cop.density(0.5, 0.5), np.exp(-1.0), rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            KernelCopula([0.0], [0.0, 1.0], 1.0, 1.0)
        with pytest.raises(ValueError):
            KernelCopula([0.0], [0.0], -1.0, 1.0)
        with pytest.raises(ValueError):
            KernelCopula([0.0], [0.0], 1.0, np.inf)
        for c in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="^z_centers must be finite$"):
                KernelCopula([c, 1.0, 2.0], [0.0, 1.0, 2.0], 0.5, 0.5)
            with pytest.raises(ValueError, match="^w_centers must be finite$"):
                KernelCopula([0.0, 1.0, 2.0], [0.0, c, 2.0], 0.5, 0.5)
        with pytest.raises(ValueError):
            KernelCopula.fit([0.0, 0.5], [0.5, 0.5])

    def test_fit_refuses_unequal_lengths(self):
        with pytest.raises(ValueError, match="^u and v must have equal length >= 2$"):
            KernelCopula.fit([0.2, 0.5, 0.8], [0.3, 0.6])

    def test_h_inverse_clamps_at_both_ends(self):
        cop = KernelCopula([-1.0, 0.0, 1.0], [0.5, 0.0, -0.5], 0.4, 0.4)
        assert cop.h_inverse(0.0, 0.3) == EPS
        assert cop.h_inverse(1.0, 0.3) == 1.0 - EPS
        u = cop.h_inverse(0.4, 0.3)
        assert EPS < u < 1.0 - EPS and abs(cop.cdf_u_given_v(u, 0.3) - 0.4) < 1e-9

    def test_fit_refuses_nan_by_its_argument(self):
        # a nan pseudo-observation was refused only as "z_centers must be finite"
        with pytest.raises(ValueError, match="^u must lie strictly in"):
            KernelCopula.fit([np.nan, 0.5, 0.2], [0.3, 0.6, 0.1])
        with pytest.raises(ValueError, match="^v must lie strictly in"):
            KernelCopula.fit([0.3, 0.6, 0.1], [0.5, np.nan, 0.2])

    def test_fit_stores_transformed_points(self):
        u = np.array([0.2, 0.5, 0.9])
        v = np.array([0.4, 0.6, 0.3])
        cop = KernelCopula.fit(u, v)
        assert_allclose(cop.z_centers, ndtri(u), rtol=1e-14)
        assert_allclose(cop.w_centers, ndtri(v), rtol=1e-14)

    def test_fit_invariant_to_plain_rank_source(self):
        # fitting on pseudo-observations of x and of exp(x) is identical
        rng = np.random.default_rng(12)
        x = rng.standard_normal(60)
        y = rng.standard_normal(60)
        a = KernelCopula.fit(rank_pseudo_observations(x),
                             rank_pseudo_observations(y))
        b = KernelCopula.fit(rank_pseudo_observations(np.exp(x)),
                             rank_pseudo_observations(y))
        assert_allclose(a.z_centers, b.z_centers, atol=1e-12)
        assert_allclose(a.sigma_z, b.sigma_z, rtol=1e-12)


class TestKernelCopulaNormalization:
    def test_integrates_to_one(self):
        rng = np.random.default_rng(13)
        n = 150
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = 0.6 * z[:, 0] + 0.8 * z[:, 1]
        cop = KernelCopula.fit(rank_pseudo_observations(x),
                               rank_pseudo_observations(y))
        assert_allclose(gauss_legendre_integral(cop), 1.0, atol=5e-3)

    def test_margin_integral_closed_form(self):
        # int_0^1 c(u0, t) dt of the exact sums equals the z-margin of the
        # kernel mixture over the standard normal density at z0 = ndtri(u0);
        # margins are near-uniform but not exactly so
        rng = np.random.default_rng(14)
        u = rank_pseudo_observations(rng.standard_normal(100))
        v = rank_pseudo_observations(rng.standard_normal(100))
        cop = KernelCopula.fit(u, v)
        for u0 in (0.2, 0.5, 0.8):
            total, _ = integrate.quad(lambda t: np.exp(cop._exact_log_density(u0, t)),
                                      1e-10, 1 - 1e-10, limit=300)
            z0 = ndtri(u0)
            mix = np.mean(stats.norm.pdf((z0 - cop.z_centers) / cop.sigma_z)
                          ) / cop.sigma_z
            expect = mix / stats.norm.pdf(z0)
            assert_allclose(total, expect, rtol=1e-8)
            assert abs(total - 1.0) < 0.1


class TestKernelHFunction:
    def test_h_is_normalized_cdf_of_density_slice(self):
        # h(u|v) = int_0^u c(s, v) ds / int_0^1 c(s, v) ds for the exact
        # sums; the slice must be renormalized because the mixture
        # margins are not exactly uniform
        rng = np.random.default_rng(15)
        z = rng.standard_normal((80, 2))
        x, y = z[:, 0], 0.7 * z[:, 0] + np.sqrt(0.51) * z[:, 1]
        cop = KernelCopula.fit(rank_pseudo_observations(x),
                               rank_pseudo_observations(y))
        density = lambda s, v0: np.exp(cop._exact_log_density(s, v0))
        for u0, v0 in [(0.3, 0.5), (0.7, 0.2), (0.5, 0.9)]:
            num, _ = integrate.quad(density, 1e-12, u0, args=(v0,), limit=400)
            den, _ = integrate.quad(density, 1e-12, 1 - 1e-12, args=(v0,), limit=400)
            assert_allclose(cop._exact_cdf_u_given_v(u0, v0), num / den, atol=1e-6)

    def test_h_monotone_and_bounded(self):
        rng = np.random.default_rng(16)
        u = rank_pseudo_observations(rng.standard_normal(60))
        v = rank_pseudo_observations(rng.standard_normal(60))
        cop = KernelCopula.fit(u, v)
        grid = np.linspace(0.01, 0.99, 50)
        h = cop.cdf_u_given_v(grid, np.full_like(grid, 0.4))
        assert np.all(np.diff(h) > 0)
        assert h.min() >= 0.0 and h.max() <= 1.0

    def test_gamma_zero_weights_are_marginal(self):
        # with a diagonal bandwidth matrix the conditional mean of each
        # kernel is its own center; changing v only reweights kernels
        cop = KernelCopula([0.0], [0.0], 1.0, 1.0)
        # single kernel: weights are 1 regardless of v, so h(u|v) is
        # independent of v entirely
        for v0 in (0.1, 0.5, 0.9):
            assert_allclose(cop._exact_cdf_u_given_v(0.3, v0),
                            stats.norm.cdf(ndtri(0.3)), rtol=1e-12)

    def test_h_inverse_roundtrip(self):
        rng = np.random.default_rng(17)
        u = rank_pseudo_observations(rng.standard_normal(40))
        v = rank_pseudo_observations(rng.standard_normal(40))
        cop = KernelCopula.fit(u, v)
        for p, v0 in [(0.25, 0.6), (0.8, 0.3)]:
            u0 = cop.h_inverse(p, v0)
            assert_allclose(cop.cdf_u_given_v(u0, v0), p, atol=1e-10)


def row_by_row(cop, u, v):
    """(log density, h(u|v), h(v|u)) of each query on its own, from the formulas."""
    z = ndtri(np.clip(u, EPS, 1 - EPS))
    w = ndtri(np.clip(v, EPS, 1 - EPS))
    sz2, sw2 = cop.sigma_z**2, cop.sigma_w**2
    det = sz2 * sw2

    def h(q, c, qc, cc, sq, scm):
        logw = -0.5 * ((c - cc) / scm) ** 2
        weights = np.exp(logw - logw.max())
        weights /= weights.sum()
        return (weights * ndtr((q - qc) / sq)).sum()

    ld, hu, hv = [], [], []
    for zi, wi in zip(z, w):
        dz, dw = zi - cop.z_centers, wi - cop.w_centers
        quad = -0.5 * ((sw2 * dz * dz + sz2 * dw * dw) / det)
        m = quad.max()
        ld.append(m + np.log(np.exp(quad - m).sum())
                  + (0.5 * (zi * zi + wi * wi) - np.log(cop.n) - 0.5 * np.log(det)))
        hu.append(h(zi, wi, cop.z_centers, cop.w_centers, cop.sigma_z, cop.sigma_w))
        hv.append(h(wi, zi, cop.w_centers, cop.z_centers, cop.sigma_w, cop.sigma_z))
    return np.array(ld), np.array(hu), np.array(hv)


def query_sets(rng, u, v):
    grid = np.linspace(0.001, 0.999, 40)
    rows = rng.uniform(0.01, 0.99, 9)
    return {
        "cross product": (np.tile(grid, 9), np.repeat(rows, 40)),
        "cross product, roles swapped": (np.repeat(rows, 40), np.tile(grid, 9)),
        "one argument repeated": (np.tile(grid, 9), rng.uniform(size=360)),
        "repeated pairs": (np.repeat(u[:30], 4), np.repeat(v[:30], 4)),
        "paired, all distinct": (u, v),
        "seven rows": (u[:7], v[:7]),
        "clamped ends": (np.array([0.0, 1.0, 0.5, 1e-300] * 20),
                         np.array([0.5, 0.5, 1.0, 0.0] * 20)),
    }


def fitted(n, seed):
    """A kernel copula fitted to n rows of a correlated Gaussian pair, and n held-out rows."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((2 * n, 2))
    x, y = z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]
    u, v = rank_pseudo_observations(x), rank_pseudo_observations(y)
    return KernelCopula.fit(u[:n], v[:n]), (u[:n], v[:n]), (u[n:], v[n:])


METHODS = ("log_density", "cdf_u_given_v", "cdf_v_given_u")


def _collocation(size: int) -> np.ndarray:
    """Node values of the cubic B-splines at the nodes, mirror boundaries."""
    m = np.diag(np.full(size, 4.0 / 6.0))
    i = np.arange(size - 1)
    m[i, i + 1] = m[i + 1, i] = 1.0 / 6.0
    m[0, 1] = m[-1, -2] = 2.0 / 6.0
    return m


def record_builds(monkeypatch) -> list:
    """(copula, kind) of every table built from now on, in order."""
    builds = []
    node_values = bicopula._node_values
    monkeypatch.setattr(bicopula, "_node_values",
                        lambda c, kind: builds.append((c, kind)) or node_values(c, kind))
    return builds


def record_factor_builds(monkeypatch) -> list:
    """(kind, centre bytes, sigma) of every axis factor built from now on, in order."""
    builds = []
    build = bicopula._build_factor
    monkeypatch.setattr(bicopula, "_build_factor",
                        lambda nodes, centers, sigma, kind:
                        builds.append((kind, centers.tobytes(), sigma))
                        or build(nodes, centers, sigma, kind))
    return builds


def oracle_node_values(cop, kind):
    """Reference node values: both factors computed block by block, no memo."""
    z, w = bicopula._nodes(cop.sigma_z), bicopula._nodes(cop.sigma_w)
    peak_z = bicopula._peak(z, cop.z_centers, cop.sigma_z)
    peak_w = bicopula._peak(w, cop.w_centers, cop.sigma_w)
    prod = np.zeros((z.size, w.size))
    norm_z, norm_w = np.zeros(z.size), np.zeros(w.size)
    for start in range(0, cop.n, bicopula._MAX_NODES):
        blk = slice(start, start + bicopula._MAX_NODES)
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
    out = np.log(np.maximum(prod, bicopula._UNDERFLOW))
    out += (peak_z + 0.5 * z * z)[:, None]
    out += peak_w + 0.5 * w * w
    out -= np.log(cop.n) + np.log(cop.sigma_z * cop.sigma_w)
    lost = np.nonzero(prod <= bicopula._UNDERFLOW)
    out[lost] = cop._log_density_z(z[lost[0]], w[lost[1]])
    return out


def empty_factor_memos(monkeypatch):
    monkeypatch.setattr(bicopula, "_factors", OrderedDict())


def cdf_axis(cop, kind, key=np.sort):
    """(key(centres) bytes, sigma) of the axis an h table kind of cop is a cdf of.

    By default the centres are sorted, as the factor memo keys a cdf axis.
    """
    if kind == "cdf_u_given_v":
        return key(cop.z_centers).tobytes(), cop.sigma_z
    return key(cop.w_centers).tobytes(), cop.sigma_w


def shares_tree1_axes(model) -> bool:
    """Whether two tree-1 copula axes of model have equal centres and bandwidth."""
    axes = [(c.tobytes(), s) for e in model.trees[0].edges
            for c, s in ((e.copula.z_centers, e.copula.sigma_z),
                         (e.copula.w_centers, e.copula.sigma_w))]
    return len(set(axes)) < len(axes)


class TestKernelCopulaEvaluation:
    """The exact sums, their tables, and what a query's value may depend on."""

    @pytest.fixture
    def cop(self):
        rng = np.random.default_rng(21)
        z = rng.standard_normal((150, 2))
        x, y = z[:, 0], 0.6 * z[:, 0] + 0.8 * z[:, 1]
        return KernelCopula.fit(rank_pseudo_observations(x), rank_pseudo_observations(y))

    def test_equals_row_by_row_formulas(self, cop):
        rng = np.random.default_rng(22)
        u, v = rng.uniform(size=150), rng.uniform(size=150)
        for name, (a, b) in query_sets(rng, u, v).items():
            ld, hu, hv = row_by_row(cop, a, b)
            assert np.array_equal(cop._exact_log_density(a, b), ld), name
            assert np.array_equal(cop._exact_cdf_u_given_v(a, b), hu), name
            assert np.array_equal(cop._exact_cdf_v_given_u(a, b), hv), name

    def test_query_value_does_not_depend_on_batch(self, cop):
        rng = np.random.default_rng(23)
        u, v = rng.uniform(size=150), rng.uniform(size=150)
        cases = dict(query_sets(rng, u, v), scalar=(0.3, 0.7))
        for name, (a, b) in cases.items():
            for method in METHODS:
                f = getattr(cop, method)
                got = f(a, b)
                alone = [f(x, y) for x, y in zip(np.ravel(a), np.ravel(b))]
                assert type(got) is (float if np.ndim(a) == 0 else np.ndarray), name
                assert np.array_equal(np.ravel(got), alone), (name, method)

    @pytest.mark.parametrize("n", [60, 300, 1200])
    def test_tables_match_exact_sums(self, n):
        cop, sample, held_out = fitted(n, n)
        assert cop._tabulated
        g = np.linspace(0.001, 0.999, 40)
        grid = (np.repeat(g, 40), np.tile(g, 40))
        for (a, b), log_c_tol in ((sample, 5e-4), (held_out, 5e-4), (grid, 5e-2)):
            for method, tol in zip(METHODS, (log_c_tol, 5e-5, 5e-5)):
                got = getattr(cop, method)(a, b)
                expect = getattr(cop, "_exact_" + method)(a, b)
                assert np.abs(got - expect).max() <= tol, method
            assert np.isfinite(cop.log_density(a, b)).all()

    def test_coefficients_match_dense_solve(self, cop):
        for method in METHODS:
            values = bicopula._node_values(cop, method)
            expect = np.linalg.solve(_collocation(values.shape[0]), values)
            expect = np.linalg.solve(_collocation(values.shape[1]), expect.T).T
            got = bicopula._spline_table(cop, method)
            assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max(), method

    def test_interpolant_reproduces_node_values(self, cop):
        # the outermost node of each axis is never read: queries are clamped
        # at least two nodes inside it
        z, w = bicopula._nodes(cop.sigma_z)[1:-1], bicopula._nodes(cop.sigma_w)[1:-1]
        for method in METHODS:
            values = bicopula._node_values(cop, method)[1:-1, 1:-1]
            got = bicopula._interpolate(bicopula._spline_table(cop, method),
                                        np.repeat(z, w.size), np.tile(w, z.size),
                                        cop.sigma_z, cop.sigma_w)
            assert np.abs(got - values.ravel()).max() <= 1e-12, method

    @pytest.mark.parametrize("prefix", ["", "_exact_"], ids=["tables", "exact"])
    def test_nan_query_gives_nan(self, cop, prefix):
        assert cop._tabulated
        for method in METHODS:
            f = getattr(cop, prefix + method)
            for a, b in ((np.nan, 0.4), (0.4, np.nan)):
                got = f(a, b)
                assert type(got) is float and np.isnan(got), (method, a, b)
                got = f(np.array([0.3, a, 0.7]), np.array([0.6, b, 0.2]))
                assert np.isnan(got[1]) and np.isfinite(got[[0, 2]]).all(), (method, a, b)

    def test_underflowed_nodes_take_exact_log_sum_exp(self):
        # centres on the diagonal: at (z, w) = (6, -6) each axis has centres
        # near, but no centre is near both, and the weight product underflows
        t = np.linspace(-3.0, 3.0, 200)
        cop = KernelCopula(t, t, 0.08, 0.08)
        assert cop._tabulated
        u, v = ndtr(np.array([6.0, 5.0, -6.0, 2.0])), ndtr(np.array([-6.0, -5.5, 6.0, -2.0]))
        got = cop.log_density(u, v)
        assert np.isfinite(got).all() and got.max() < -500.0
        assert_allclose(got, cop._exact_log_density(u, v), rtol=1e-8)

    def test_memo_holds_a_five_table_cycle(self, cop, monkeypatch):
        # row by row, a d=3 vine truncated at 2 reads five tables per row
        builds = record_builds(monkeypatch)
        bicopula._tables.clear()
        other = KernelCopula(cop.w_centers, cop.z_centers, cop.sigma_w, cop.sigma_z)
        reads = [(cop, m) for m in METHODS] + [(other, m) for m in METHODS[:2]]
        for _ in range(3):
            for c, method in reads:
                getattr(c, method)(0.3, 0.6)
        assert len(builds) == len(reads)

    def test_tiny_bandwidth_sums_exactly(self, monkeypatch):
        # sigma_z = 1e-4 would need about 4e5 nodes on the z axis
        def no_table(cop, kind):
            raise AssertionError("table built")

        monkeypatch.setattr(bicopula, "_spline_table", no_table)
        cop = KernelCopula([-1.0, 0.0, 0.5], [0.2, -0.3, 1.0], sigma_z=1e-4, sigma_w=0.5)
        assert not cop._tabulated
        rng = np.random.default_rng(24)
        u = np.append(rng.uniform(size=50), [0.0, 1.0])
        v = np.append(rng.uniform(size=50), [0.5, 0.0])
        for method in METHODS:
            got = getattr(cop, method)(u, v)
            assert np.isfinite(got).all()
            assert np.array_equal(got, getattr(cop, "_exact_" + method)(u, v))

    def test_node_cap_switches_to_exact_sums(self, cop, monkeypatch):
        rng = np.random.default_rng(25)
        u, v = rng.uniform(size=50), rng.uniform(size=50)
        tabulated = [getattr(cop, m)(u, v) for m in METHODS]
        exact = [getattr(cop, "_exact_" + m)(u, v) for m in METHODS]
        assert not any(np.array_equal(t, e) for t, e in zip(tabulated, exact))
        nodes = 2 * int(bicopula._half_width(min(cop.sigma_z, cop.sigma_w))) + 1
        monkeypatch.setattr(bicopula, "_MAX_NODES", nodes)
        assert cop._tabulated
        monkeypatch.setattr(bicopula, "_MAX_NODES", nodes - 1)
        assert not cop._tabulated
        for m, e in zip(METHODS, exact):
            assert np.array_equal(getattr(cop, m)(u, v), e)

    def test_equality_and_hash_are_by_identity(self):
        u = np.array([0.2, 0.5, 0.9])
        v = np.array([0.4, 0.6, 0.3])
        a, b = KernelCopula.fit(u, v), KernelCopula.fit(u, v)
        assert a == a and a != b
        assert hash(a) == hash(a)
        assert a in [b, a] and b not in [a]


class TestTableMemo:
    """Tables are memoised within a byte budget and reused across walks of a vine."""

    @pytest.fixture(autouse=True)
    def empty_memo(self, monkeypatch):
        monkeypatch.setattr(bicopula, "_tables", OrderedDict())
        empty_factor_memos(monkeypatch)

    @pytest.fixture(scope="class")
    def vine(self):
        # the size of the shift-adapt benchmark's source vine: n=300, d=10,
        # truncation 2, 17 kernel edges
        rng = np.random.default_rng(31)
        train, test = regression_task(300, rng), regression_task(100, rng)
        model = fit_vine(train.X, truncation=2, variable_names=train.names,
                         target_index=9, seed=31)
        return model, test.X

    @pytest.fixture(scope="class")
    def deep_vine(self):
        # d=16, truncation 2: tree 1's 15 edges meet at variables of degree
        # up to 4, so several tables share an axis
        rng = np.random.default_rng(42)
        train, test = regression_task(150, rng, d=16), regression_task(80, rng, d=16)
        return fit_vine(train.X, truncation=2, target_index=15, seed=42), test.X

    def test_predict_then_score_builds_each_table_once(self, vine, monkeypatch):
        model, X = vine
        builds = record_builds(monkeypatch)
        regress.predict_means(model, X[:, :-1], regress.default_grid(model, 33))
        predicted = len(builds)
        model.log_density(X)
        assert 0 < predicted < len(builds)
        assert len(set(builds)) == len(builds)

    def test_a_budget_holding_one_walk_rebuilds_nothing(self, vine, monkeypatch):
        # successive walks read the same tables in the same order, so a
        # least-recently-used memo one byte short of them rebuilds them all
        model, X = vine
        monkeypatch.setattr(bicopula, "_MEMO_BYTES", 1 << 30)
        model.log_density(X)
        walk = len(bicopula._tables)
        walk_bytes = sum(t.nbytes for t in bicopula._tables.values())
        builds = record_builds(monkeypatch)
        for budget, rebuilt in ((walk_bytes, 0), (walk_bytes - 1, walk)):
            monkeypatch.setattr(bicopula, "_MEMO_BYTES", budget)
            bicopula._tables.clear()
            model.log_density(X)
            builds.clear()
            model.log_density(X)
            assert len(builds) == rebuilt, budget

    def test_memoised_value_equals_a_rebuilt_one(self):
        cop, (u, v), _ = fitted(300, 32)
        first = [getattr(cop, m)(u, v) for m in METHODS]
        memoised = [getattr(cop, m)(u, v) for m in METHODS]
        bicopula._tables.clear()
        rebuilt = [getattr(cop, m)(u, v) for m in METHODS]
        for a, b, c, m in zip(first, memoised, rebuilt, METHODS):
            assert np.array_equal(a, b) and np.array_equal(a, c), m

    def test_retained_bytes_stay_within_the_budget(self, monkeypatch):
        cops = [fitted(60, seed)[0] for seed in range(33, 37)]
        size = bicopula._spline_table(cops[0], "log_density").nbytes
        monkeypatch.setattr(bicopula, "_MEMO_BYTES", int(2.5 * size))
        bicopula._tables.clear()
        builds = record_builds(monkeypatch)
        for _ in range(2):
            for cop in cops:
                for m in METHODS:
                    getattr(cop, m)(0.3, 0.6)
                    kept = sum(t.nbytes for t in bicopula._tables.values())
                    assert 0 < kept <= bicopula._MEMO_BYTES
        # a cycle of 12 tables through a memo of about 2 rebuilds every one
        assert len(builds) == 2 * len(cops) * len(METHODS)

    def test_least_recently_read_table_is_dropped_first(self, monkeypatch):
        # the three tables of one copula have the same size; two fit
        cop = fitted(60, 38)[0]
        size = bicopula._spline_table(cop, "log_density").nbytes
        monkeypatch.setattr(bicopula, "_MEMO_BYTES", 2 * size)
        for m in ("cdf_u_given_v", "log_density", "cdf_v_given_u"):
            getattr(cop, m)(0.3, 0.6)
        assert list(bicopula._tables) == [(cop, "log_density"), (cop, "cdf_v_given_u")]

    def test_table_over_the_budget_is_still_returned(self, monkeypatch):
        cop, (u, v), _ = fitted(60, 37)
        expect = [getattr(cop, m)(u, v) for m in METHODS]
        bicopula._tables.clear()
        monkeypatch.setattr(bicopula, "_MEMO_BYTES", 1000)
        builds = record_builds(monkeypatch)
        for m, e in zip(METHODS, expect):
            assert bicopula._spline_table(cop, m).nbytes > 1000
            assert np.array_equal(getattr(cop, m)(u, v), e), m
            assert not bicopula._tables
        assert len(builds) == 2 * len(METHODS)

    def test_threads_scoring_one_vine_agree(self, vine):
        self.score_in_threads(*vine)

    def test_threads_scoring_a_vine_with_shared_axes_agree(self, deep_vine):
        self.score_in_threads(*deep_vine)

    @staticmethod
    def score_in_threads(model, X):
        """Four threads score model from cold memos and agree with one scoring bit for bit."""
        assert shares_tree1_axes(model)
        expect = model.log_density(X)
        bicopula._tables.clear()
        bicopula._factors.clear()
        start = threading.Barrier(4, timeout=60)
        results = [None] * 4

        def score(i):
            start.wait()
            results[i] = model.log_density(X)

        threads = [threading.Thread(target=score, args=(i,)) for i in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for got in results:
            assert np.array_equal(got, expect)
        assert sum(t.nbytes for t in bicopula._tables.values()) <= bicopula._MEMO_BYTES
        assert 0 < len(bicopula._factors) <= bicopula._FACTOR_SLOTS
        for blocks, _ in bicopula._factors.values():
            assert sum(blk.nbytes for blk in blocks) <= bicopula._FACTOR_BYTES


class TestAxisFactors:
    """Each axis's factor matrix is built once while the tables that share it are built."""

    @pytest.fixture(autouse=True)
    def empty_memos(self, monkeypatch):
        monkeypatch.setattr(bicopula, "_tables", OrderedDict())
        empty_factor_memos(monkeypatch)

    @staticmethod
    def neighbours(n, seed):
        """Copulas fitted to (u, v1) and to a copy of u with v2: equal z axes, distinct objects."""
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((n, 3))
        u, v1, v2 = (rank_pseudo_observations(c) for c in
                     (x[:, 0], x[:, 0] + x[:, 1], x[:, 0] - x[:, 2]))
        return KernelCopula.fit(u, v1), KernelCopula.fit(u.copy(), v2)

    @pytest.mark.parametrize("n, blocks", [(300, 1), (1200, 3)])
    def test_tables_equal_the_oracle(self, n, blocks):
        a, b = self.neighbours(n, 50)
        assert -(-n // bicopula._MAX_NODES) == blocks
        swapped = KernelCopula(a.w_centers, a.z_centers, a.sigma_w, a.sigma_z)
        others = [fitted(n, seed)[0] for seed in (51, 52)]
        # cold; warmed by a copula sharing one axis; roles swapped; after eviction
        reads = [a, b, swapped, *others, a]
        assert b.z_centers is not a.z_centers and np.array_equal(b.z_centers, a.z_centers)
        for cop in reads:
            for kind in METHODS:
                assert np.array_equal(bicopula._node_values(cop, kind),
                                      oracle_node_values(cop, kind)), kind

    def test_equal_centres_share_a_build_unlike_another_sigma(self, monkeypatch):
        a, b = self.neighbours(200, 53)
        wider = KernelCopula(a.z_centers, b.w_centers, 1.5 * a.sigma_z, b.sigma_w)
        builds = record_factor_builds(monkeypatch)
        bicopula._node_values(a, "cdf_u_given_v")
        bicopula._node_values(b, "cdf_u_given_v")
        assert [k for k, *_ in builds] == ["cdf", "weight", "weight"]
        # the cdf factor is built on the sorted centres, once for both copulas
        assert builds[0][1:] == cdf_axis(a, "cdf_u_given_v") == cdf_axis(b, "cdf_u_given_v")
        bicopula._node_values(wider, "cdf_u_given_v")
        assert [k for k, *_ in builds[3:]] == ["cdf"]
        assert builds[3][1:] == (np.sort(a.z_centers).tobytes(), 1.5 * a.sigma_z)

    def test_slots_hold_the_three_most_recently_read_factors(self, monkeypatch):
        cops = [fitted(60, seed)[0] for seed in range(54, 58)]
        builds = record_factor_builds(monkeypatch)
        for cop in cops:
            for kind in METHODS:
                bicopula._node_values(cop, kind)
                assert len(bicopula._factors) <= bicopula._FACTOR_SLOTS
        assert len(bicopula._factors) == 3
        # per copula: log c builds both weights; the h tables add the two cdfs
        assert len(builds) == 4 * len(cops)
        # the last reads were h(u|v) (cdf of z, weights of w), then h(v|u)
        # (weights of z, cdf of w)
        last = cops[-1]
        z, w = (last.z_centers.tobytes(), last.sigma_z), (last.w_centers.tobytes(), last.sigma_w)
        assert list(bicopula._factors) == [("weight", *w), ("weight", *z),
                                           ("cdf", *cdf_axis(last, "cdf_v_given_u"))]
        # a kept factor is a read-only (blocks, peak) pair; a cdf factor has
        # no peak and one block, of all its centres in ascending order
        for (kind, centers, sigma), (blocks, peak) in bicopula._factors.items():
            assert (peak is None) == (kind == "cdf")
            arrays = blocks if peak is None else (*blocks, peak)
            assert not any(a.flags.writeable for a in arrays)
            if kind == "cdf":
                centers = np.frombuffer(centers)
                assert np.all(np.diff(centers) >= 0)
                assert [blk.shape for blk in blocks] == [(bicopula._nodes(sigma).size, 60)]

    def test_oldest_entry_is_dropped_before_a_build(self, monkeypatch):
        cops = [fitted(60, seed)[0] for seed in (58, 59)]
        kept = []
        build = bicopula._build_factor

        def watch(nodes, centers, sigma, kind):
            kept.append((kind, list(bicopula._factors)))
            return build(nodes, centers, sigma, kind)

        monkeypatch.setattr(bicopula, "_build_factor", watch)
        for cop in cops:
            bicopula._node_values(cop, "cdf_u_given_v")
        (cdf_z0, weight_w0), (cdf_z1, weight_w1) = (
            (("cdf", *cdf_axis(c, "cdf_u_given_v")),
             ("weight", c.w_centers.tobytes(), c.sigma_w)) for c in cops)
        # the cdf of z0, the least recently read, is gone before w1's weights are built
        assert kept == [("cdf", []), ("weight", [cdf_z0]),
                        ("cdf", [cdf_z0, weight_w0]), ("weight", [weight_w0, cdf_z1])]
        bicopula._node_values(cops[1], "log_density")
        # z1's weight factor is built after w0's, the least recently read, was dropped
        weight_z1 = ("weight", cops[1].z_centers.tobytes(), cops[1].sigma_z)
        assert kept[4:] == [("weight", [cdf_z1, weight_w1])]
        assert list(bicopula._factors) == [cdf_z1, weight_z1, weight_w1]

    @pytest.mark.parametrize("n, blocks", [(300, 1), (1200, 3)])
    def test_shuffled_centres_share_one_cdf_build(self, n, blocks, monkeypatch):
        # each axis gets its cdf columns back in its own order; at n=1200 a
        # block of the shuffled axis gathers columns from all three blocks
        a, b = self.neighbours(n, 61)
        assert -(-n // bicopula._MAX_NODES) == blocks
        perm = np.random.default_rng(61).permutation(n)
        shuffled = KernelCopula(a.z_centers[perm], b.w_centers, a.sigma_z, b.sigma_w)
        # the shuffled axis as the w axis, of which h(v|u) is a cdf
        swapped = KernelCopula(a.w_centers, shuffled.z_centers, a.sigma_w, a.sigma_z)
        builds = record_factor_builds(monkeypatch)
        for cop, kind in ((a, "cdf_u_given_v"), (shuffled, "cdf_u_given_v"),
                          (swapped, "cdf_v_given_u")):
            assert np.array_equal(bicopula._node_values(cop, kind),
                                  oracle_node_values(cop, kind)), kind
        assert [k for k, *_ in builds].count("cdf") == 1
        assert builds[0] == ("cdf", *cdf_axis(a, "cdf_u_given_v"))

    def test_tied_column_builds_its_own_cdf_factor(self, monkeypatch):
        # average ranks of ties are another centre set, so nothing is shared
        rng = np.random.default_rng(62)
        x = rng.standard_normal((300, 2))
        v = rank_pseudo_observations(x[:, 0] + x[:, 1])
        plain = KernelCopula.fit(rank_pseudo_observations(x[:, 0]), v)
        tied = KernelCopula.fit(rank_pseudo_observations(np.round(x[:, 0], 1)), v)
        assert np.unique(tied.z_centers).size < tied.n
        builds = record_factor_builds(monkeypatch)
        for cop in (plain, tied):
            assert np.array_equal(bicopula._node_values(cop, "cdf_u_given_v"),
                                  oracle_node_values(cop, "cdf_u_given_v"))
        # tied shares plain's w axis, and so its weight factor
        assert builds == [("cdf", *cdf_axis(plain, "cdf_u_given_v")),
                          ("weight", plain.w_centers.tobytes(), plain.sigma_w),
                          ("cdf", *cdf_axis(tied, "cdf_u_given_v"))]
        for kind in METHODS:
            assert np.array_equal(bicopula._node_values(tied, kind),
                                  oracle_node_values(tied, kind)), kind

    def test_adapt_builds_fewer_cdf_factors_than_tree1_axes(self, monkeypatch):
        # adapt's pooled tree-1 refits rank whole columns too, so their axes
        # share centre sets; keys by each axis's own order would build one
        # cdf factor per distinct axis
        rng = np.random.default_rng(63)
        src = regression_task(150, rng)
        tgt = regression_task(100, rng, shifts=REGRESSION_SHIFTS)
        model = fit_vine(src.X, truncation=2, variable_names=src.names, target_index=9,
                         seed=63)
        builds, tables = record_factor_builds(monkeypatch), record_builds(monkeypatch)
        bicopula._tables.clear()
        bicopula._factors.clear()
        adapted, _ = adapt.adapt_vine(model, adapt.AdaptationInput(
            source=src, target_labeled=Dataset(tgt.names, tgt.X[:20]),
            target_unlabeled=Dataset(tgt.names[:-1], tgt.X[20:, :-1]), target_index=9,
            mode="semi_supervised", mmd_config=MmdConfig(permutations=50, seed=63)))
        tree1 = {e.copula for m in (model, adapted) for e in m.trees[0].edges}
        h_tables = [(c, k) for c, k in tables if k != "log_density"]
        assert h_tables and all(c in tree1 for c, _ in h_tables)
        axes = {cdf_axis(c, k, key=np.asarray) for c, k in h_tables}
        # 10 distinct axes over two centre sets: the ranks of the 250 pooled
        # feature rows, and of the 170 pooled rows that carry y
        assert ([k for k, *_ in builds].count("cdf"), len(axes)) == (2, 10)

    def test_factor_over_the_limit_is_returned_not_kept(self, monkeypatch):
        cop = fitted(3000, 60)[0]
        nodes = bicopula._nodes(cop.sigma_z).size
        assert nodes * cop.n * 8 > bicopula._FACTOR_BYTES
        builds = record_factor_builds(monkeypatch)
        for _ in range(2):
            for kind in METHODS:
                assert np.array_equal(bicopula._node_values(cop, kind),
                                      oracle_node_values(cop, kind)), kind
                assert not bicopula._factors
        assert len(builds) == 2 * 2 * len(METHODS)

    def test_fit_and_score_build_each_cdf_axis_once_per_walk(self, monkeypatch):
        # fit-large's pipeline at small n: fit a d=16, truncation-2 vine, then
        # score a reloaded copy, whose copulas are new objects with equal axes
        rng = np.random.default_rng(41)
        train, test = regression_task(120, rng, d=16), regression_task(60, rng, d=16)
        builds, tables = record_factor_builds(monkeypatch), record_builds(monkeypatch)
        counts = []

        def walked():
            kinds = [k for k, *_ in builds]
            axes = {cdf_axis(c, k) for c, k in tables if k != "log_density"}
            counts.append((kinds.count("cdf"), len(axes), kinds.count("weight"), len(tables)))
            builds.clear()
            tables.clear()

        model = fit_vine(train.X, truncation=2, target_index=15, seed=41)
        walked()
        modelfile.model_from_doc(modelfile.model_to_doc(model)).log_density(test.X)
        walked()
        # 28 h tables read 16 distinct tree-1 axes, which hold the normal
        # scores of the ranks 1..120 in different orders. They make two cdf
        # factors: one variable's bandwidth differs from the others' in its
        # last bits, because the standard deviation sums in data order. The
        # odd axis's two tables push the shared factor out of the three
        # slots, so each walk builds it again after them; scoring starts
        # with it still kept from fit. Scoring adds 29 log c tables (58
        # weight factors).
        assert counts == [(3, 2, 26, 28), (2, 2, 44, 57)]


class TestGaussianCopula:
    def test_independence_limit(self):
        cop = GaussianCopula(rho=0.0)
        assert_allclose(cop.density(0.3, 0.8), 1.0, rtol=1e-14)

    def test_reference_density_value(self):
        # rho=0.8 at (0.5, 0.5): 1/sqrt(1-rho^2) = 5/3
        cop = GaussianCopula(rho=0.8)
        assert_allclose(cop.density(0.5, 0.5), 1.6666666666666667, rtol=1e-14)

    def test_matches_transformed_gaussian_density(self):
        rho = 0.55
        cop = GaussianCopula(rho=rho)
        cov = np.array([[1.0, rho], [rho, 1.0]])
        mvn = stats.multivariate_normal(mean=[0.0, 0.0], cov=cov)
        for u0, v0 in [(0.2, 0.7), (0.45, 0.1), (0.85, 0.9)]:
            z, w = ndtri(u0), ndtri(v0)
            expect = mvn.pdf([z, w]) / (stats.norm.pdf(z) * stats.norm.pdf(w))
            assert_allclose(cop.density(u0, v0), expect, rtol=1e-12)

    def test_h_function_closed_form(self):
        rho = -0.4
        cop = GaussianCopula(rho=rho)
        for u0, v0 in [(0.3, 0.6), (0.9, 0.1)]:
            z, w = ndtri(u0), ndtri(v0)
            expect = stats.norm.cdf((z - rho * w) / np.sqrt(1 - rho * rho))
            assert_allclose(cop.cdf_u_given_v(u0, v0), expect, rtol=1e-12)

    def test_fit_recovers_rho_through_tau(self):
        # moment fit through tau: rho_hat = sin(pi * tau_hat / 2)
        rng = np.random.default_rng(18)
        n = 8000
        rho = 0.6
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]
        cop = GaussianCopula.fit(rank_pseudo_observations(x),
                                 rank_pseudo_observations(y))
        assert abs(cop.rho - rho) < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            GaussianCopula(rho=1.0)

    def test_integrates_to_one(self):
        assert_allclose(gauss_legendre_integral(GaussianCopula(rho=0.7)),
                        1.0, atol=5e-3)


class TestIndependenceCopula:
    def test_density_is_one(self):
        cop = IndependenceCopula()
        u = np.linspace(0.05, 0.95, 7)
        assert_allclose(cop.density(u, u[::-1]), np.ones(7), rtol=1e-15)
        assert_allclose(cop.log_density(0.4, 0.9), 0.0, atol=1e-15)

    def test_h_is_identity_in_conditioned_argument(self):
        cop = IndependenceCopula()
        u = np.linspace(0.05, 0.95, 7)
        assert_allclose(cop.cdf_u_given_v(u, np.full_like(u, 0.3)), u, rtol=1e-15)
        assert_allclose(cop.cdf_v_given_u(np.full_like(u, 0.3), u), u, rtol=1e-15)


class TestConsistencyAcrossFamilies:
    def test_kernel_approaches_gaussian_truth(self):
        # a kernel fit on many Gaussian-copula draws should give densities
        # close to the closed form away from the corners
        rng = np.random.default_rng(19)
        n = 4000
        rho = 0.5
        z = rng.standard_normal((n, 2))
        x = z[:, 0]
        y = rho * z[:, 0] + np.sqrt(1 - rho * rho) * z[:, 1]
        kern = KernelCopula.fit(rank_pseudo_observations(x),
                                rank_pseudo_observations(y))
        truth = GaussianCopula(rho=rho)
        pts = [(0.3, 0.3), (0.5, 0.5), (0.7, 0.4), (0.2, 0.8)]
        for u0, v0 in pts:
            assert_allclose(kern.density(u0, v0), truth.density(u0, v0),
                            rtol=0.15)

    def test_symmetric_roles(self):
        rng = np.random.default_rng(20)
        u = rank_pseudo_observations(rng.standard_normal(50))
        v = rank_pseudo_observations(rng.standard_normal(50))
        cop = KernelCopula.fit(u, v)
        swapped = KernelCopula.fit(v, u)
        assert_allclose(cop.density(0.3, 0.7), swapped.density(0.7, 0.3),
                        rtol=1e-12)
        assert_allclose(cop.cdf_u_given_v(0.3, 0.7),
                        swapped.cdf_v_given_u(0.7, 0.3), rtol=1e-12)
