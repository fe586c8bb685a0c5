import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift.errors import InsufficientDataError
from vineshift.mmd import (MmdConfig, median_heuristic, mmd_statistic,
                           permutation_test)


def brute_mmd2(X, Y, bw):
    """Direct double-loop unbiased MMD^2."""
    def k(a, b):
        return np.exp(-np.sum((a - b) ** 2) / (2.0 * bw * bw))

    n, m = len(X), len(Y)
    xx = sum(k(X[i], X[j]) for i in range(n) for j in range(n) if i != j)
    yy = sum(k(Y[i], Y[j]) for i in range(m) for j in range(m) if i != j)
    xy = sum(k(X[i], Y[j]) for i in range(n) for j in range(m))
    return xx / (n * (n - 1)) + yy / (m * (m - 1)) - 2.0 * xy / (n * m)


class TestStatistic:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 15))
            m = int(rng.integers(2, 15))
            d = int(rng.integers(1, 4))
            X = rng.standard_normal((n, d))
            Y = rng.standard_normal((m, d)) + 0.5
            bw = float(rng.uniform(0.5, 3.0))
            assert_allclose(mmd_statistic(X, Y, bw), brute_mmd2(X, Y, bw),
                            rtol=1e-10, atol=1e-12)

    def test_symmetric_in_samples(self):
        rng = np.random.default_rng(44)
        X = rng.standard_normal((20, 3))
        Y = rng.standard_normal((25, 3)) + 1.0
        assert_allclose(mmd_statistic(X, Y, 1.5), mmd_statistic(Y, X, 1.5),
                        rtol=1e-12)

    def test_unbiased_near_zero_under_null(self):
        rng = np.random.default_rng(45)
        vals = [mmd_statistic(rng.standard_normal((100, 2)),
                              rng.standard_normal((100, 2)), 1.0)
                for _ in range(200)]
        # unbiased estimator: mean over repetitions is ~0, can be negative
        assert abs(np.mean(vals)) < 5e-4
        assert min(vals) < 0.0

    def test_one_dim_input_accepted(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal(30)
        y = rng.standard_normal(40)
        v = mmd_statistic(x, y, 1.0)
        assert np.isfinite(v)

    def test_validation(self):
        with pytest.raises(ValueError):
            mmd_statistic(np.zeros((5, 2)), np.zeros((5, 3)), 1.0)
        with pytest.raises(InsufficientDataError):
            mmd_statistic(np.zeros((1, 2)), np.zeros((5, 2)), 1.0)
        with pytest.raises(ValueError):
            mmd_statistic(np.zeros((5, 2)), np.zeros((5, 2)), 0.0)


class TestMedianHeuristic:
    def test_two_point_distance(self):
        X = np.array([[0.0, 0.0]])
        Y = np.array([[3.0, 4.0]])
        assert_allclose(median_heuristic(X, Y), 5.0, rtol=1e-12)

    def test_zero_distance_fallback(self):
        X = np.zeros((10, 2))
        Y = np.zeros((10, 2))
        assert median_heuristic(X, Y) == 1.0

    def test_scales_with_data(self):
        rng = np.random.default_rng(47)
        X = rng.standard_normal((100, 3))
        Y = rng.standard_normal((100, 3))
        a = median_heuristic(X, Y)
        b = median_heuristic(10.0 * X, 10.0 * Y)
        assert_allclose(b, 10.0 * a, rtol=1e-9)


class TestPermutationTest:
    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(48)
        X = rng.standard_normal((60, 2))
        Y = rng.standard_normal((60, 2)) + 0.3
        cfg = MmdConfig(permutations=100, seed=7)
        r1 = permutation_test(X, Y, cfg)
        r2 = permutation_test(X, Y, cfg)
        assert r1 == r2
        r3 = permutation_test(X, Y, MmdConfig(permutations=100, seed=8))
        assert r3.statistic == r1.statistic  # statistic ignores the seed

    def test_p_value_bounds(self):
        rng = np.random.default_rng(49)
        X = rng.standard_normal((40, 2))
        Y = rng.standard_normal((40, 2))
        res = permutation_test(X, Y, MmdConfig(permutations=99, seed=0))
        # add-one rule: p in [1/(B+1), 1]
        assert 1.0 / 100.0 <= res.p_value <= 1.0

    def test_detects_mean_shift(self):
        rng = np.random.default_rng(50)
        X = rng.standard_normal((200, 3))
        Y = rng.standard_normal((200, 3))
        Y[:, 1] += 3.0
        res = permutation_test(X, Y, MmdConfig(permutations=200, seed=1))
        assert res.rejected
        assert res.p_value == 1.0 / 201.0  # statistic beats every relabeling

    def test_detects_dependence_change(self):
        rng = np.random.default_rng(51)
        Z = rng.standard_normal((300, 2))
        X = np.column_stack([Z[:, 0], 0.9 * Z[:, 0] + np.sqrt(0.19) * Z[:, 1]])
        W = rng.standard_normal((300, 2))
        Y = np.column_stack([W[:, 0], -0.9 * W[:, 0] + np.sqrt(0.19) * W[:, 1]])
        res = permutation_test(X, Y, MmdConfig(permutations=200, seed=2))
        assert res.rejected

    def test_level_roughly_alpha(self):
        # 120 null repetitions at alpha=0.1: rejection count within a
        # generous binomial band
        rng = np.random.default_rng(52)
        cfg = MmdConfig(permutations=60, alpha=0.1, seed=3)
        hits = 0
        for _ in range(120):
            X = rng.standard_normal((30, 2))
            Y = rng.standard_normal((30, 2))
            hits += permutation_test(X, Y, cfg).rejected
        assert 2 <= hits <= 26

    def test_config_validation(self):
        with pytest.raises(ValueError):
            MmdConfig(permutations=10)
        with pytest.raises(ValueError):
            MmdConfig(alpha=0.0)
        with pytest.raises(ValueError):
            MmdConfig(kernel_bandwidth=-1.0)
        with pytest.raises(ValueError):
            MmdConfig(kernel_bandwidth="not-a-rule")

    def test_fixed_bandwidth_used(self):
        rng = np.random.default_rng(53)
        X = rng.standard_normal((50, 2))
        Y = rng.standard_normal((50, 2)) + 1.0
        res = permutation_test(X, Y, MmdConfig(kernel_bandwidth=2.0,
                                               permutations=60, seed=4))
        assert_allclose(res.statistic, mmd_statistic(X, Y, 2.0), rtol=1e-12)


def two_matrix_test(X, Y, config):
    """(statistic, p-value) with the bandwidth and the kernel each from its own distance matrix."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n, m = len(X), len(Y)
    Z = np.vstack([X, Y])
    sq = (Z * Z).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * Z @ Z.T
    np.maximum(d2, 0.0, out=d2)
    bw = median_heuristic(X, Y)
    K = np.exp(d2 / (-2.0 * bw * bw))
    np.fill_diagonal(K, 0.0)
    r = K.sum(axis=1)

    def stat(quad, r_dot):
        total = float(r.sum())
        within_y = (total - 2.0 * r_dot + quad) / (m * (m - 1))
        return quad / (n * (n - 1)) + within_y - 2.0 * (r_dot - quad) / (n * m)

    s = np.zeros(n + m)
    s[:n] = 1.0
    observed = stat(float(s @ K @ s), float(r @ s))
    rng = np.random.default_rng(config.seed)
    S = np.zeros((n + m, config.permutations))
    for b in range(config.permutations):
        S[rng.permutation(n + m)[:n], b] = 1.0
    permuted = stat(np.einsum("ib,ib->b", S, K @ S), r @ S)
    return observed, (1.0 + int((permuted >= observed).sum())) / (1.0 + config.permutations)


def awkward_pair(rng, kind):
    """Samples with tied rows, all-equal rows, or more pooled rows than the heuristic reads."""
    d = int(rng.integers(1, 4))
    if kind == "subsampled":
        n = int(rng.integers(400, 700))
        return rng.standard_normal((n, d)), rng.standard_normal((1001 - n, d)) + 0.2
    n, m = int(rng.integers(2, 80)), int(rng.integers(2, 80))
    X, Y = rng.standard_normal((n, d)), rng.standard_normal((m, d)) + rng.uniform(0.0, 1.0)
    if kind == "all equal":
        return np.full((n, d), 0.7), np.full((m, d), 0.7)
    return np.round(X), np.round(Y)


class TestOneDistanceMatrix:
    """permutation_test takes the bandwidth from the matrix its kernel is built from."""

    @pytest.mark.parametrize("kind", ["tied", "all equal", "subsampled"])
    def test_statistic_is_mmd_at_median_heuristic(self, kind):
        rng = np.random.default_rng(60)
        X, Y = awkward_pair(rng, kind)
        if kind == "all equal":
            assert median_heuristic(X, Y) == 1.0
        res = permutation_test(X, Y, MmdConfig(permutations=50, seed=0))
        assert res.statistic == mmd_statistic(X, Y, median_heuristic(X, Y))

    def test_p_values_equal_two_matrix_algorithm(self):
        rng = np.random.default_rng(61)
        kinds = ["tied"] * 40 + ["all equal"] * 8 + ["subsampled"] * 2
        for case, kind in enumerate(kinds):
            X, Y = awkward_pair(rng, kind)
            cfg = MmdConfig(permutations=int(rng.integers(50, 120)), seed=case)
            res = permutation_test(X, Y, cfg)
            assert (res.statistic, res.p_value) == two_matrix_test(X, Y, cfg), (case, kind)
