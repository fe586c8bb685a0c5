import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import integrate, stats
from scipy.special import ndtr, ndtri

from vineshift import bicopula
from vineshift.bicopula import EPS, GaussianCopula, IndependenceCopula, KernelCopula
from vineshift.statcore import rank_pseudo_observations


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
        with pytest.raises(ValueError):
            KernelCopula.fit([0.0, 0.5], [0.5, 0.5])

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
    """(log density, h(u|v), h(v|u)) of each query on its own, from the formulas.

    The formulas are those of a full bandwidth matrix [[sz^2, g], [g, sw^2]]
    at g = 0, so equality also shows that the terms the diagonal form
    leaves out are +-0.
    """
    z = ndtri(np.clip(u, EPS, 1 - EPS))
    w = ndtri(np.clip(v, EPS, 1 - EPS))
    sz2, sw2, g = cop.sigma_z**2, cop.sigma_w**2, 0.0
    det = sz2 * sw2 - g**2

    def h(q, c, qc, cc, sq, scm):
        dc = c - cc
        logw = -0.5 * (dc / scm) ** 2
        weights = np.exp(logw - logw.max())
        weights /= weights.sum()
        mu = qc + (g / scm**2) * dc
        return (weights * ndtr((q - mu) / np.sqrt(sq**2 - g**2 / scm**2))).sum()

    ld, hu, hv = [], [], []
    for zi, wi in zip(z, w):
        dz, dw = zi - cop.z_centers, wi - cop.w_centers
        quad = -0.5 * ((sw2 * dz * dz - 2.0 * g * dz * dw + sz2 * dw * dw) / det)
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

    @pytest.mark.parametrize("size", [5, 107, 512])
    def test_prefilter_inverts_collocation(self, size):
        inv = bicopula._prefilter(size)
        assert np.abs(inv @ bicopula._collocation(size) - np.eye(size)).max() <= 1e-13
        assert not inv.flags.writeable

    def test_coefficients_match_dense_solve(self, cop):
        for method in METHODS:
            values = bicopula._node_values(cop, method)
            expect = np.linalg.solve(bicopula._collocation(values.shape[0]), values)
            expect = np.linalg.solve(bicopula._collocation(values.shape[1]), expect.T).T
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
        builds = []
        node_values = bicopula._node_values
        monkeypatch.setattr(bicopula, "_node_values",
                            lambda c, kind: builds.append(kind) or node_values(c, kind))
        bicopula._spline_table.cache_clear()
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
