import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift.dataio import Dataset
from vineshift.errors import DegenerateDataError, SchemaError
from vineshift.modelfile import load, save
from vineshift.regress import (RegressionMetrics, YGrid, conditional_densities,
                               conditional_density, conditional_density_batch, default_grid,
                               evaluate, feature_indices, nmse, predict_means)
from vineshift.regress import test_log_likelihood as mean_log_density
from vineshift.rvine import VineModel, fit_vine
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_point_refused(self, bad):
        # nan fails no "diff <= 0" test, and inf at an end keeps diff positive
        for at in (0, 20, -1):
            pts = np.linspace(0, 1, 40)
            pts[at] = bad
            with pytest.raises(ValueError, match="finite"):
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

    @pytest.mark.parametrize("call", [
        default_grid, feature_indices,
        lambda m: evaluate(m, Dataset(["x0", "x1"], np.zeros((4, 2))))])
    def test_no_target_is_the_models_schema_error(self, call):
        # it was a plain ValueError, "model has no target variable configured"
        model = fit_vine(np.random.default_rng(62).standard_normal((60, 2)), truncation=1)
        with pytest.raises(SchemaError,
                           match="^model has no target variable; refit with --target$"):
            call(model)

    def test_fractional_grid_size_refused(self):
        model, _ = linear_pair_model(n=200)
        with pytest.raises(ValueError, match="^n_points must be an integer, got 100.5$"):
            default_grid(model, 100.5)

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

    @pytest.mark.parametrize("rescaled", [False, True])
    def test_batch_matches_joint_density_on_grid(self, rescaled):
        # independent oracle: the joint density of (x, y) for y on the
        # grid, through VineModel.log_density, normalized over the grid;
        # feature-only factors cancel
        rng = np.random.default_rng(64)
        scale, shift = (0.37, -42.0) if rescaled else (1.0, 0.0)
        ds = regression_task(250, rng, d=6, rho=0.6)
        model = fit_vine(ds.X * scale + shift, truncation=3, variable_names=ds.names,
                         target_index=5)
        grid = default_grid(model, 65)
        Xf = regression_task(8, rng, d=6, rho=0.6).X[:, :5] * scale + shift
        batch = conditional_density_batch(model, Xf, grid)
        g = grid.points.size
        rows = np.column_stack([np.repeat(Xf, g, axis=0), np.tile(grid.points, len(Xf))])
        logd = model.log_density(rows).reshape(len(Xf), g)
        dens = np.exp(logd - logd.max(axis=1, keepdims=True))
        dens /= np.trapezoid(dens, grid.points, axis=1)[:, None]
        assert_allclose(batch, dens, rtol=1e-10)


class TestObservedTargetLogDensity:
    @pytest.mark.parametrize("family", ["kernel", "gaussian"])
    def test_observed_targets_leave_the_grid_densities_bit_identical(self, family):
        rng = np.random.default_rng(65)
        ds = regression_task(200, rng, d=4)
        model = fit_vine(ds.X, truncation=2, family=family, target_index=3)
        grid = default_grid(model, 65)
        dens, none = conditional_densities(model, ds.X[:7, :3], grid)
        with_y, logp = conditional_densities(model, ds.X[:7, :3], grid, ds.X[:7, 3])
        assert none is None
        assert np.array_equal(dens, with_y)
        assert np.array_equal(dens, conditional_density_batch(model, ds.X[:7, :3], grid))
        assert logp.shape == (7,) and np.all(np.isfinite(logp))

    def test_the_grid_is_evaluated_once(self, monkeypatch):
        # the observed y are evaluated as an (m, 1) column, not with the grid
        shapes = []

        def recorded(self, columns, involving=None):
            shapes.append(np.shape(columns[involving]))
            return log_factors(self, columns, involving)

        log_factors = VineModel._log_factors
        monkeypatch.setattr(VineModel, "_log_factors", recorded)
        model, X = linear_pair_model()
        conditional_densities(model, X[:6, [0]], default_grid(model, 65), X[:6, 1])
        assert shapes == [(1, 65), (6, 1)]

    def test_on_a_grid_point_equals_the_log_grid_density(self):
        model, X = linear_pair_model()
        grid = default_grid(model, 65)
        cols = np.array([3, 20, 32, 50, 64])
        dens, logp = conditional_densities(model, X[:5, [0]], grid, grid.points[cols])
        assert_allclose(logp, np.log(dens[np.arange(5), cols]), rtol=1e-12)

    def test_matches_the_joint_density_normalised_over_the_grid(self):
        # independent oracle: log p(x, y) minus the log of the grid's
        # trapezoid mass of p(x, .), both through VineModel.log_density
        rng = np.random.default_rng(66)
        ds = regression_task(250, rng, d=5)
        model = fit_vine(ds.X, truncation=3, target_index=4)
        grid = default_grid(model, 65)
        test = regression_task(6, rng, d=5).X
        _, logp = conditional_densities(model, test[:, :4], grid, test[:, 4])
        g = grid.points.size
        rows = np.column_stack([np.repeat(test[:, :4], g, axis=0), np.tile(grid.points, 6)])
        logd = model.log_density(rows).reshape(6, g)
        top = logd.max(axis=1)
        mass = np.trapezoid(np.exp(logd - top[:, None]), grid.points, axis=1)
        assert_allclose(logp, model.log_density(test) - top - np.log(mass), rtol=1e-10)

    def test_targets_past_the_grid_are_finite_and_decreasing(self):
        model, X = linear_pair_model()
        grid = default_grid(model, 65)
        x = np.repeat(X[:1, [0]], 4, axis=0)
        y = grid.points[-1] + np.array([0.0, 5.0, 50.0, 500.0])
        _, logp = conditional_densities(model, x, grid, y)
        assert np.all(np.isfinite(logp))
        assert np.all(np.diff(logp) < 0.0)


class TestPrediction:
    def test_recovers_linear_response(self):
        model, X = linear_pair_model(n=1500, slope=2.0, noise=0.2)
        xs = np.array([[-1.5], [-0.5], [0.5], [1.5]])
        preds = predict_means(model, xs)
        assert_allclose(preds, 2.0 * xs[:, 0], atol=0.25)


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

    def test_evaluate_matches_columns_by_name(self):
        rng = np.random.default_rng(67)
        ds = regression_task(200, rng, d=4)
        model = fit_vine(ds.X, truncation=2, variable_names=ds.names, target_index=3)
        test = regression_task(40, rng, d=4)
        reversed_ = Dataset(test.names[::-1], test.X[:, ::-1])
        assert evaluate(model, reversed_) == evaluate(model, test)
        assert mean_log_density(model, reversed_) == mean_log_density(model, test)
        with pytest.raises(SchemaError, match="missing column 'x1'"):
            evaluate(model, test.drop("x1"))
        extra = Dataset(test.names + ["z"], np.column_stack([test.X, test.X[:, 0]]))
        with pytest.raises(SchemaError, match="unexpected columns"):
            evaluate(model, extra)

    def test_integer_names_evaluate_as_the_loaded_copy(self, tmp_path):
        # integer names were kept as integers in memory, so a fit refused the
        # string-named columns its own saved copy evaluates
        rng = np.random.default_rng(68)
        X = regression_task(120, rng, d=3).X
        model = fit_vine(X, variable_names=[0, 1, 2], target_index=2)
        save(model, tmp_path / "m.json")
        test = Dataset(["0", "1", "2"], X[:40])
        assert model.variable_names == ["0", "1", "2"]
        assert evaluate(model, test) == evaluate(load(tmp_path / "m.json"), test)

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
