"""Unit tests for the power-law fitting helper."""

import numpy as np
import pytest

from repro.experiments.fits import fit_power_law


class TestFitPowerLaw:
    def test_recovers_exact_law(self):
        x = np.array([1, 2, 4, 8, 16], dtype=float)
        y = 3.5 * x**-2
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(-2.0)
        assert fit.coefficient == pytest.approx(3.5)
        assert fit.r_squared == pytest.approx(1.0)

    def test_recovers_noisy_law(self):
        rng = np.random.default_rng(0)
        x = np.geomspace(1, 100, 20)
        y = 2.0 * x**1.5 * np.exp(0.05 * rng.standard_normal(20))
        fit = fit_power_law(x, y)
        assert fit.exponent == pytest.approx(1.5, abs=0.1)
        assert fit.r_squared > 0.98

    def test_constant_data(self):
        fit = fit_power_law([1, 2, 4], [7, 7, 7])
        assert fit.exponent == pytest.approx(0.0, abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2], [0, 1])
        with pytest.raises(ValueError):
            fit_power_law([-1, 2], [1, 1])

    def test_rejects_single_point(self):
        with pytest.raises(ValueError):
            fit_power_law([1], [1])

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3], [1, 2])
