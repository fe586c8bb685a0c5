import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift.dataio import Dataset
from vineshift.errors import DegenerateDataError, SchemaError
from vineshift.regress import (RegressionMetrics, YGrid, conditional_density,
                               conditional_density_batch, default_grid,
                               evaluate, feature_indices, nmse, predict_mean,
                               predict_means)
from vineshift.regress import test_log_likelihood as mean_log_density
from vineshift.rvine import fit_vine
from vineshift.synth import regression_task


def linear_pair_model(n=800, slope=2.0, noise=0.25, seed=60, truncation=1):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = slope * x + noise * rng.standard_normal(n)
    X = np.column_stack([x, y])
    return fit_vine(X, truncation=truncation, variable_names=["x", "y"],
                    target_index=1), X


class TestYGrid:
    def test_minimum_size(self):
        with pytest.raises(ValueError):
            YGrid(np.linspace(0, 1, 32))
        YGrid(np.linspace(0, 1, 33))

    def test_strictly_increasing(self):
        pts = np.linspace(0, 1, 40)
        pts[5] = pts[4]
        with pytest.raises(ValueError):
            YGrid(pts)

    def test_default_grid_covers_marginal(self):
        model, X = linear_pair_model()
        grid = default_grid(model)
        assert grid.points.size == 257
        assert grid.points[0] < np.quantile(X[:, 1], 0.005)
        assert grid.points[-1] > np.quantile(X[:, 1], 0.995)


class TestConditionalDensity:
    def test_rows_integrate_to_one(self):
        model, X = linear_pair_model()
        grid = default_grid(model)
        dens = conditional_density_batch(model, X[:15, [0]], grid)
        integrals = np.trapezoid(dens, grid.points, axis=1)
        assert_allclose(integrals, np.ones(15), rtol=1e-12)

    def test_single_row_helper(self):
        model, X = linear_pair_model()
        grid = default_grid(model)
        batch = conditional_density_batch(model, X[:3, [0]], grid)
        single = conditional_density(model, X[0, [0]], grid)
        assert_allclose(single, batch[0], rtol=1e-12)

    def test_independence_gives_marginal(self):
        # independent x, y: conditional density equals the y marginal
        # (renormalized on the grid) no matter the conditioning value
        rng = np.random.default_rng(61)
        X = rng.standard_normal((600, 2))
        model = fit_vine(X, truncation=1, target_index=1)
        grid = default_grid(model)
        dens = conditional_density_batch(model, np.array([[0.0], [1.5]]),
                                         grid)
        marg = model.marginals[1].pdf(grid.points)
        marg = marg / np.trapezoid(marg, grid.points)
        # the fitted copula is not exactly independence, hence the band
        assert np.max(np.abs(dens[0] - marg)) < 0.05
        assert np.max(np.abs(dens[1] - marg)) < 0.05

    def test_density_tracks_conditioning_value(self):
        model, X = linear_pair_model()
        grid = default_grid(model)
        dens = conditional_density_batch(model,
                                         np.array([[-1.0], [0.0], [1.0]]),
                                         grid)
        peaks = grid.points[np.argmax(dens, axis=1)]
        assert peaks[0] < peaks[1] < peaks[2]
        assert abs(peaks[0] - (-2.0)) < 0.4
        assert abs(peaks[2] - 2.0) < 0.4

    def test_wrong_column_count(self):
        model, _ = linear_pair_model()
        with pytest.raises(ValueError):
            conditional_density_batch(model, np.zeros((3, 2)),
                                      default_grid(model))

    def test_target_required(self):
        rng = np.random.default_rng(62)
        model = fit_vine(rng.standard_normal((60, 2)), truncation=1)
        with pytest.raises(ValueError):
            default_grid(model)

    def test_deep_vine_batch_matches_row_loop(self):
        # the grid-expansion bookkeeping across three tree levels must
        # agree with evaluating each test row separately
        rng = np.random.default_rng(63)
        ds = regression_task(300, rng, d=5, rho=0.6)
        model = fit_vine(ds.X, truncation=3, variable_names=ds.names,
                         target_index=4)
        grid = default_grid(model, 65)
        Xf = ds.X[:6, :4]
        batch = conditional_density_batch(model, Xf, grid)
        for r in range(6):
            row = conditional_density_batch(model, Xf[r:r + 1], grid)
            assert_allclose(batch[r], row[0], rtol=1e-10)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_batch_matches_joint_density_on_grid(self, normalize):
        # independent oracle: the joint density of (x, y) for y on the
        # grid, through VineModel.log_density and propagate_arguments,
        # normalized over the grid; feature-only factors cancel
        rng = np.random.default_rng(64)
        ds = regression_task(250, rng, d=6, rho=0.6)
        model = fit_vine(ds.X, truncation=3, variable_names=ds.names,
                         target_index=5, normalize=normalize)
        grid = default_grid(model, 65)
        Xf = regression_task(8, rng, d=6, rho=0.6).X[:, :5]
        batch = conditional_density_batch(model, Xf, grid)
        g = grid.points.size
        rows = np.column_stack([np.repeat(Xf, g, axis=0), np.tile(grid.points, len(Xf))])
        logd = model.log_density(rows).reshape(len(Xf), g)
        dens = np.exp(logd - logd.max(axis=1, keepdims=True))
        dens /= np.trapezoid(dens, grid.points, axis=1)[:, None]
        assert_allclose(batch, dens, rtol=1e-10)


class TestPrediction:
    def test_recovers_linear_response(self):
        model, X = linear_pair_model(n=1500, slope=2.0, noise=0.2)
        xs = np.array([[-1.5], [-0.5], [0.5], [1.5]])
        preds = predict_means(model, xs)
        assert_allclose(preds, 2.0 * xs[:, 0], atol=0.25)

    def test_mean_median_close_for_symmetric_noise(self):
        model, _ = linear_pair_model(n=1000)
        xs = np.array([[0.3]])
        mean = predict_means(model, xs, point="mean")[0]
        med = predict_means(model, xs, point="median")[0]
        assert abs(mean - med) < 0.1

    def test_scalar_helper(self):
        model, _ = linear_pair_model()
        grid = default_grid(model)
        assert_allclose(predict_mean(model, np.array([0.7]), grid),
                        predict_means(model, np.array([[0.7]]), grid)[0],
                        rtol=1e-12)

    def test_unknown_point_rule(self):
        model, _ = linear_pair_model()
        with pytest.raises(ValueError):
            predict_means(model, np.array([[0.0]]), point="mode")


class TestMetrics:
    def test_nmse_hand_cases(self):
        assert_allclose(nmse([1.0, -1.0], [1.0, -1.0]), 0.0, atol=1e-15)
        # predicting zero: mse = var, nmse = 1 exactly (population var)
        truth = np.array([3.0, -1.0, 2.0, 0.0])
        assert_allclose(nmse(np.zeros(4), truth),
                        np.mean(truth**2) / np.var(truth), rtol=1e-14)
        assert_allclose(nmse([0.0, 0.0], [1.0, -1.0]), 1.0, rtol=1e-14)

    def test_nmse_validation(self):
        with pytest.raises(ValueError):
            nmse([1.0], [1.0])
        with pytest.raises(ValueError):
            nmse([1.0, 2.0], [1.0, 2.0, 3.0])
        with pytest.raises(DegenerateDataError):
            nmse([1.0, 2.0], [5.0, 5.0])

    def test_tll_matches_log_density_mean(self):
        model, X = linear_pair_model(n=400)
        test = X[:50]
        assert_allclose(mean_log_density(model, test),
                        float(np.mean(model.log_density(test))), rtol=1e-12)

    def test_tll_schema_check(self):
        model, X = linear_pair_model(n=200)
        bad = Dataset(["a", "b"], X[:30])
        with pytest.raises(SchemaError):
            mean_log_density(model, bad)

    def test_evaluate_bundles_both(self):
        model, X = linear_pair_model(n=600)
        test = Dataset(["x", "y"], X[:100])
        m = evaluate(model, test)
        assert isinstance(m, RegressionMetrics)
        assert 0.0 < m.nmse < 0.1  # strong linear signal
        assert m.tll > -3.0

    def test_feature_indices_excludes_target(self):
        model, _ = linear_pair_model()
        assert feature_indices(model) == [0]


class TestRegressionEndToEnd:
    def test_nonlinear_response_recovered(self):
        rng = np.random.default_rng(64)
        train = regression_task(1200, rng, d=4, noise=0.3, rho=0.6)
        test = regression_task(400, rng, d=4, noise=0.3, rho=0.6)
        model = fit_vine(train.X, truncation=2, variable_names=train.names,
                         target_index=3)
        metrics = evaluate(model, test)
        # y = 2 tanh(1.2 x0) + 0.3 eps: var(y) ~ 1.1, noise var 0.09,
        # so an oracle sits near nmse ~ 0.08
        assert metrics.nmse < 0.2
