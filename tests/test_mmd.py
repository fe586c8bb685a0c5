import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift import cli, statcore
from vineshift.dataio import Dataset
from vineshift.errors import InsufficientDataError
from vineshift.mmd import (MmdConfig, _relabelings, _sq_dists, median_heuristic,
                           mmd_statistic, permutation_test)


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

    @pytest.mark.parametrize("offset", [1e9, 1e12])
    def test_shift_far_from_zero_is_detected(self, offset):
        # a 0.4 sd shift of a column of spread 1e3; moving both samples
        # together changes no distance, so neither the verdict nor the p-value
        rng = np.random.default_rng(80)
        X = 1e3 * rng.standard_normal((150, 1))
        Y = 1e3 * (rng.standard_normal((150, 1)) + 0.4)
        cfg = MmdConfig(seed=0)
        near, far = permutation_test(X, Y, cfg), permutation_test(X + offset, Y + offset, cfg)
        assert near.rejected
        assert far.p_value == near.p_value
        assert_allclose(far.statistic, near.statistic, rtol=1e-6)

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

    @pytest.mark.parametrize("field, value", [("permutations", 60.5), ("seed", 1.7)])
    def test_fractional_settings_refused(self, field, value):
        # 60.5 passed the >= 50 check and failed in the draw; seed 1.7 ran as seed 1
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            MmdConfig(**{field: value})


def unscaled_distances(Z):
    """Clipped squared distances of the centred rows, in data units."""
    Z = Z - Z.mean(axis=0)
    sq = (Z * Z).sum(axis=1)
    d2 = sq[:, None] + sq[None, :] - 2.0 * Z @ Z.T
    return np.maximum(d2, 0.0)


def two_matrix_test(X, Y, config):
    """(statistic, p-value) with the bandwidth and the kernel each from its own distance matrix.

    Distances are formed from the centred pooled rows, unscaled. The
    bandwidth is the median of the square roots of the whole upper
    triangle, of at most 1000 evenly strided rows, and the relabelings
    are drawn one rng.permutation call at a time.
    """
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    n, m = len(X), len(Y)
    Z = np.vstack([X, Y])
    d2 = unscaled_distances(Z)
    R = Z if len(Z) <= 1000 else Z[np.linspace(0, len(Z) - 1, 1000).astype(int)]
    med = float(np.median(np.sqrt(unscaled_distances(R)[np.triu_indices(len(R), k=1)])))
    bw = med if med > 0.0 else 1.0
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


# (pooled rows, columns) of the tests shift-adapt runs: 300 source rows
# against 250 target rows, or against 13 labeled ones. 313 * 312 / 2
# distances is an even count, so their median is a mean of two.
ADAPT_SIZES = [(550, 1), (550, 2), (313, 1), (313, 2)]


def awkward_pair(rng, kind, size=None):
    """Samples with tied rows, all-equal rows, more pooled rows than the heuristic reads,
    or (kind "sized") the pooled rows and columns given by size."""
    d = int(rng.integers(1, 4))
    if kind == "subsampled":
        n = int(rng.integers(400, 700))
        return rng.standard_normal((n, d)), rng.standard_normal((1001 - n, d)) + 0.2
    if kind == "sized":
        N, d = size
        return rng.standard_normal((300, d)), rng.standard_normal((N - 300, d)) + 0.2
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
        assert res.bandwidth == median_heuristic(X, Y)

    def test_p_values_equal_two_matrix_algorithm(self):
        rng = np.random.default_rng(61)
        cases = ([("tied", None)] * 40 + [("all equal", None)] * 8 + [("subsampled", None)] * 2
                 + [("sized", size) for size in ADAPT_SIZES])
        for case, (kind, size) in enumerate(cases):
            X, Y = awkward_pair(rng, kind, size)
            cfg = MmdConfig(permutations=int(rng.integers(50, 120)), seed=case)
            res = permutation_test(X, Y, cfg)
            assert (res.statistic, res.p_value) == two_matrix_test(X, Y, cfg), (case, kind)

    @pytest.mark.parametrize("N, B, seed", [(2, 50, 0), (5, 50, 3), (313, 100, 7), (550, 100, 11)])
    def test_relabeling_bank_equals_one_permutation_per_column(self, N, B, seed):
        # the bank draws in one batch what B rng.permutation(N) calls draw;
        # a numpy release that changes either stream must fail here
        n = N // 2
        rng = np.random.default_rng(seed)
        S = np.zeros((N, B))
        for b in range(B):
            S[rng.permutation(N)[:n], b] = 1.0
        assert np.array_equal(_relabelings(N, n, B, seed), S)

    @staticmethod
    def warm_peak(X, Y, cfg):
        """tracemalloc's peak over a second permutation_test, and its result."""
        res = permutation_test(X, Y, cfg)
        tracemalloc.start()
        try:
            assert permutation_test(X, Y, cfg) == res
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return peak, res

    def test_warm_test_peak_allocation(self):
        # the distances are finished in the product's memory, the kernel is
        # built in theirs, and the median reads one copy of the upper
        # triangle: 1.5 N x N buffers at the peak, where a full matrix of
        # row sums beside the product made it 2.0
        rng = np.random.default_rng(62)
        X, Y = rng.standard_normal((300, 2)), rng.standard_normal((250, 2)) + 0.2
        peak, _ = self.warm_peak(X, Y, MmdConfig(permutations=100, seed=0))
        assert peak <= 1.6 * 550 * 550 * 8

    def test_warm_test_peak_allocation_against_labeled_rows(self):
        # 300 source rows against 13 labeled ones: a block of row sums holds
        # statcore.BLOCK_ENTRIES entries, two thirds of this matrix, so the
        # peak is the product plus one block, where a full matrix made it 2.0
        rng = np.random.default_rng(64)
        X, Y = rng.standard_normal((300, 1)), rng.standard_normal((13, 1)) + 0.2
        peak, _ = self.warm_peak(X, Y, MmdConfig(permutations=100, seed=0))
        assert peak <= 1.95 * 313 * 313 * 8

    def test_subsampled_bandwidth_does_not_raise_the_peak(self):
        # above 1000 pooled rows the median heuristic forms the distances of
        # 1000 strided rows and copies their upper triangle; both are freed
        # before the pooled matrix is built, so the peak is theirs, about
        # 1.25 N x N buffers, where a full matrix of row sums made it 2.0
        rng = np.random.default_rng(63)
        X, Y = rng.standard_normal((600, 2)), rng.standard_normal((500, 2)) + 0.2
        peak, res = self.warm_peak(X, Y, MmdConfig(permutations=100, seed=0))
        assert res.bandwidth == median_heuristic(X, Y)
        assert peak <= 1.35 * 1100 * 1100 * 8

    @pytest.mark.parametrize("N", [313, 550, 1100])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_block_size_does_not_change_results(self, d, N, monkeypatch):
        # each block of rows is finished on its own, so no block size moves a
        # bit, and every entry is fl(fl(sq_i + sq_j) - 2 z_i.z_j) as when
        # the sums and the product were two full matrices
        rng = np.random.default_rng(65)
        X, Y = rng.standard_normal((300, d)), rng.standard_normal((N - 300, d)) + 0.2
        Z = np.vstack([X, Y])
        e = int(np.frexp(np.abs(Z).max())[1])
        W = np.ldexp(Z, -e)
        W -= W.mean(axis=0)
        sq = (W * W).sum(axis=1)
        two_matrices = np.maximum(sq[:, None] + sq[None, :] - 2.0 * W @ W.T, 0.0)
        cfg = MmdConfig(permutations=100, seed=d)
        default = permutation_test(X, Y, cfg)
        for entries in (1, statcore.BLOCK_ENTRIES, 10**8):
            monkeypatch.setattr(statcore, "BLOCK_ENTRIES", entries)
            d2, got_e = _sq_dists(Z)
            assert got_e == e and np.array_equal(d2, two_matrices), entries
            assert permutation_test(X, Y, cfg) == default, entries


class TestScaleInvariance:
    """Rows scaled by a power of two give the same test, at any finite scale."""

    @pytest.mark.parametrize("d", [1, 2])
    def test_p_values_identical_across_powers_of_two(self, d):
        rng = np.random.default_rng(90)
        X, Y = rng.standard_normal((50, d)), rng.standard_normal((50, d)) + 0.8
        cfg = MmdConfig(permutations=100, seed=0)
        base = permutation_test(X, Y, cfg)
        assert base.rejected
        for k in (-1000, -990, -531, -100, 100, 531, 600, 990, 1000):
            res = permutation_test(np.ldexp(X, k), np.ldexp(Y, k), cfg)
            assert (res.statistic, res.p_value) == (base.statistic, base.p_value), k
            assert res.bandwidth == np.ldexp(base.bandwidth, k), k
            assert median_heuristic(np.ldexp(X, k), np.ldexp(Y, k)) == res.bandwidth, k
            assert mmd_statistic(np.ldexp(X, k), np.ldexp(Y, k), res.bandwidth) == base.statistic, k

    @pytest.mark.parametrize("scale", [2.0 ** -1000, 2.0 ** 1000])
    def test_zero_median_falls_back_to_one_in_data_units(self, scale):
        X, Y = np.zeros((10, 2)), np.zeros((10, 2))
        Y[0] = scale  # 19 of the 190 pooled distances are nonzero
        assert median_heuristic(X, Y) == 1.0
        res = permutation_test(X, Y, MmdConfig(permutations=50, seed=0))
        assert res.bandwidth == 1.0
        # at 2^1000 the square of that bandwidth in scaled units underflows:
        # the kernel is then 1 on ties and 0 elsewhere, never nan
        assert np.isfinite(res.statistic) and not res.rejected


class TestNonFiniteSamples:
    """A nan or inf cell is refused, never read as a shift."""

    @staticmethod
    def poisoned(value, side):
        rng = np.random.default_rng(60)
        X, Y = rng.standard_normal((30, 2)), rng.standard_normal((25, 2))
        (X if side == "X" else Y)[7, 1] = value
        return X, Y

    @pytest.mark.parametrize("side", ["X", "Y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_permutation_test_refuses(self, value, side):
        X, Y = self.poisoned(value, side)
        with pytest.raises(ValueError, match="nan or inf"):
            permutation_test(X, Y, MmdConfig(permutations=50, seed=0))

    @pytest.mark.parametrize("side", ["X", "Y"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_statistic_and_median_heuristic_refuse(self, value, side):
        X, Y = self.poisoned(value, side)
        with pytest.raises(ValueError, match="nan or inf"):
            mmd_statistic(X, Y, 1.0)
        with pytest.raises(ValueError, match="nan or inf"):
            median_heuristic(X, Y)

    def test_refused_past_the_subsampled_heuristic(self):
        # more pooled rows than the heuristic reads: the nan row is one it skips
        rng = np.random.default_rng(61)
        X, Y = rng.standard_normal((700, 1)), rng.standard_normal((700, 1))
        X[3, 0] = np.nan
        with pytest.raises(ValueError, match="nan or inf"):
            median_heuristic(X, Y)
        with pytest.raises(ValueError, match="nan or inf"):
            permutation_test(X, Y, MmdConfig(permutations=50, seed=0))

    def test_cli_exits_3_with_one_line(self, monkeypatch, capsys):
        # the CSV reader refuses nan itself; a sample that reaches the test
        # some other way exits as invalid data, not as a rejection
        X, Y = self.poisoned(np.nan, "Y")
        samples = iter([Dataset(["a", "b"], X), Dataset(["a", "b"], Y)])
        monkeypatch.setattr(cli, "read_csv", lambda path: next(samples))
        assert cli.main(["mmd-test", "a.csv", "b.csv", "--permutations", "50"]) == 3
        out, err = capsys.readouterr()
        assert "verdict" not in out
        assert err.count("error:") == 1 and "nan or inf" in err


def test_three_dimensional_sample_is_refused():
    with pytest.raises(ValueError, match="^samples must be 1-d or 2-d arrays$"):
        mmd_statistic(np.zeros((4, 2, 2)), np.zeros((4, 2)), 1.0)


def test_median_heuristic_needs_two_pooled_rows():
    with pytest.raises(InsufficientDataError, match="^pooled sample needs at least 2 rows$"):
        median_heuristic(np.zeros((1, 2)), np.zeros((0, 2)))
