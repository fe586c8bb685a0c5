import numpy as np
import pytest
from numpy.testing import assert_allclose

from vineshift.errors import ParseError
from vineshift.synth import REGRESSION_SHIFTS, gaussian_copula_chain, regression_task


class TestMarginals:
    def test_each_marginal_maps_the_same_uniforms(self):
        # one draw of the chain, pushed through each quantile function
        cols = {spec: gaussian_copula_chain(200, 1, 0.6, np.random.default_rng(1),
                                            marginals=(spec,)).X[:, 0]
                for spec in ("gauss", "exp", "lognormal", "uniform")}
        assert np.all((cols["uniform"] > 0.0) & (cols["uniform"] < 1.0))
        assert_allclose(cols["lognormal"], np.exp(cols["gauss"]), rtol=1e-12)
        assert_allclose(cols["exp"], -np.log1p(-cols["uniform"]), rtol=1e-12)

    def test_unknown_marginal_is_a_parse_error(self):
        with pytest.raises(ParseError, match="unknown marginal 'cauchy'"):
            gaussian_copula_chain(10, 2, 0.6, np.random.default_rng(0),
                                  marginals=("gauss", "cauchy"))


class TestRegressionTaskShifts:
    @pytest.mark.parametrize("d,shifts,col", [
        (2, REGRESSION_SHIFTS, 3), (3, REGRESSION_SHIFTS, 3), (4, REGRESSION_SHIFTS, 3),
        (10, {-1: (1.0, 1.0)}, -1), (10, {9: (1.0, 1.0)}, 9),
    ])
    def test_column_outside_the_features_is_refused_before_drawing(self, d, shifts, col):
        # column d-1 is the target y, and -1 used to shift the last feature
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^shift column {col} is not a feature: "
                                             rf"features are 0\.\.{d - 2}$"):
            regression_task(20, rng, d=d, shifts=shifts)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("d", [5, 10])
    def test_shift_maps_the_unshifted_draw(self, d):
        plain = regression_task(50, np.random.default_rng(3), d=d)
        shifted = regression_task(50, np.random.default_rng(3), d=d, shifts=REGRESSION_SHIFTS)
        expect = plain.X.copy()
        for col, (add, scale) in REGRESSION_SHIFTS.items():
            expect[:, col] = add + scale * expect[:, col]
        assert np.array_equal(shifted.X, expect)
