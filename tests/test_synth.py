import numpy as np
import pytest

from vineshift.synth import REGRESSION_SHIFTS, regression_task


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
