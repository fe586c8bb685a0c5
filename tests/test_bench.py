import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy import stats

from vineshift.bench import (METHODS, ExperimentConfig, ProductKernelKDE,
                             adaptation_experiment, density_bench,
                             density_csv_rows, format_density_table)
from vineshift.mmd import MmdConfig
from vineshift.synth import gaussian_copula_chain


def brute_kde_logpdf(model, x):
    n, d = model.centers.shape
    h = model.bandwidths
    vals = [np.prod(stats.norm.pdf((x - model.centers[i]) / h) / h)
            for i in range(n)]
    return np.log(np.sum(vals) / n)


class TestProductKernelKDE:
    def test_matches_brute_force(self):
        rng = np.random.default_rng(80)
        X = rng.standard_normal((30, 3))
        model = ProductKernelKDE.fit(X)
        pts = rng.standard_normal((5, 3))
        for p in pts:
            assert_allclose(model.log_density(p), brute_kde_logpdf(model, p),
                            rtol=1e-10)

    def test_bandwidths_use_joint_dimension(self):
        rng = np.random.default_rng(81)
        X = rng.standard_normal((100, 4))
        model = ProductKernelKDE.fit(X)
        from vineshift.statcore import silverman_bandwidth
        expect = [silverman_bandwidth(X[:, j], dim=4) for j in range(4)]
        assert_allclose(model.bandwidths, expect, rtol=1e-14)

    def test_single_gaussian_center(self):
        model = ProductKernelKDE(centers=np.zeros((1, 2)),
                                 bandwidths=np.array([1.0, 2.0]))
        x = np.array([1.0, 2.0])
        expect = stats.norm.logpdf(1.0, scale=1.0) + \
            stats.norm.logpdf(2.0, scale=2.0)
        assert_allclose(model.log_density(x), expect, rtol=1e-12)

    def test_batch_equals_loop(self):
        rng = np.random.default_rng(82)
        X = rng.standard_normal((50, 2))
        model = ProductKernelKDE.fit(X)
        pts = rng.standard_normal((7, 2))
        batch = model.log_density(pts)
        single = [model.log_density(p) for p in pts]
        assert_allclose(batch, single, rtol=1e-12)

    def test_column_mismatch(self):
        model = ProductKernelKDE(centers=np.zeros((5, 2)),
                                 bandwidths=np.ones(2))
        with pytest.raises(ValueError):
            model.log_density(np.zeros((3, 4)))


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig()
        assert cfg.n_samples == 1000
        assert cfg.train_fraction == 0.3
        assert cfg.target_labeled_fraction == 0.05
        assert cfg.repetitions == 50

    def test_validation(self):
        with pytest.raises(ValueError):
            ExperimentConfig(train_fraction=0.0)
        with pytest.raises(ValueError):
            ExperimentConfig(target_labeled_fraction=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(repetitions=0)
        with pytest.raises(ValueError):
            ExperimentConfig(n_samples=10)

    @pytest.mark.parametrize("field, value", [("repetitions", 1.5), ("n_samples", 100.5)])
    def test_fractional_counts_refused(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            ExperimentConfig(**{field: value})


class TestDensityBench:
    def make_results(self):
        cfg = ExperimentConfig(seed=5, n_samples=120, repetitions=3,
                               truncation=1)
        gens = {"chain": lambda n, rng: gaussian_copula_chain(n, 3, 0.7, rng)}
        return density_bench(gens, cfg)

    def test_shapes_and_methods(self):
        results = self.make_results()
        assert set(results) == {"chain"}
        assert set(results["chain"]) == set(METHODS)
        for m in METHODS:
            assert results["chain"][m].shape == (3,)
            assert np.all(np.isfinite(results["chain"][m]))

    def test_deterministic_in_seed(self):
        a = self.make_results()
        b = self.make_results()
        for m in METHODS:
            assert np.array_equal(a["chain"][m], b["chain"][m])

    def test_table_contains_all_cells(self):
        results = self.make_results()
        table = format_density_table(results)
        lines = table.splitlines()
        assert lines[0].startswith("method")
        assert "chain" in lines[0]
        assert len(lines) == 2 + len(METHODS)
        for m in METHODS:
            row = [l for l in lines if l.startswith(m)]
            assert len(row) == 1
            assert "+-" in row[0]

    def test_csv_rows(self):
        results = self.make_results()
        rows = density_csv_rows(results)
        assert rows[0] == "dataset,method,repetition,tll"
        assert len(rows) == 1 + len(METHODS) * 3
        for row in rows[1:]:
            name, method, rep, val = row.split(",")
            assert name == "chain"
            assert method in METHODS
            assert 0 <= int(rep) < 3
            float(val)


class TestAdaptationExperiment:
    def test_single_repetition_shape(self):
        cfg = ExperimentConfig(seed=3, n_samples=300, repetitions=1,
                               truncation=1,
                               mmd=MmdConfig(permutations=60, seed=0))
        runs = adaptation_experiment(cfg, n_target=200, n_test=150,
                                     grid_points=65)
        assert len(runs) == 1
        run = runs[0]
        assert np.isfinite(run.nmse_source)
        assert np.isfinite(run.nmse_semi)
        assert np.isfinite(run.nmse_unsupervised)
        assert isinstance(run.semi_flags, tuple)
        # the canonical shift moves marginals 0 and 3
        assert any("marginal" in f for f in run.semi_flags)

    def test_deterministic_in_seed(self):
        cfg = ExperimentConfig(seed=4, n_samples=250, repetitions=1,
                               truncation=1,
                               mmd=MmdConfig(permutations=60, seed=0))
        a = adaptation_experiment(cfg, n_target=150, n_test=100,
                                  grid_points=65)
        b = adaptation_experiment(cfg, n_target=150, n_test=100,
                                  grid_points=65)
        assert a == b
