"""Darkening and gamma-correction contracts."""

import numpy as np
import pytest

from multikd import darken, gamma_correct
from multikd.errors import ValidationError

RNG = np.random.default_rng(11)


class TestGammaCorrect:
    def test_identity_at_gamma_one(self):
        grid = np.linspace(0.0, 1.0, 257)
        assert np.array_equal(gamma_correct(grid, 1.0), grid)

    def test_fixed_points(self):
        for gamma in (0.5, 1.0, 3.0, 10.0):
            out = gamma_correct([0.0, 1.0], gamma)
            assert out[0] == 0.0 and out[1] == 1.0

    def test_cube_root_value(self):
        assert gamma_correct([0.125], 3.0)[0] == pytest.approx(0.5, abs=1e-12)

    def test_monotone_on_grid(self):
        grid = np.linspace(0.0, 1.0, 1024)
        for gamma in (1.0, 2.2, 3.0):
            out = gamma_correct(grid, gamma)
            assert (np.diff(out) >= 0.0).all()

    def test_inverse_pair(self):
        xs = np.geomspace(1e-6, 1.0, 500)
        for gamma in (2.0, 3.0, 7.5):
            back = gamma_correct(gamma_correct(xs, gamma), 1.0 / gamma)
            assert np.max(np.abs(back - xs)) < 1e-9

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            gamma_correct([1.2], 3.0)
        with pytest.raises(ValidationError):
            gamma_correct([-0.1], 3.0)
        with pytest.raises(ValidationError):
            gamma_correct([0.5], 0.0)

    @pytest.mark.parametrize("gamma", [0.0, -1.0, float("nan"), float("inf")])
    def test_rejects_gamma_not_positive_and_finite(self, gamma):
        with pytest.raises(ValidationError) as info:
            gamma_correct([0.5], gamma)
        assert str(info.value) == f"gamma must be positive and finite, got {gamma}"


class TestDarken:
    def test_near_identity_with_fine_quantization(self):
        xs = RNG.random(1000)
        out = darken(xs, factor=1.0, quant_levels=1 << 30)
        assert np.max(np.abs(out - xs)) < 1e-9

    def test_forced_quantization_value(self):
        assert darken([1.0], factor=0.2, quant_levels=256)[0] == pytest.approx(51.0 / 255.0, abs=0)

    def test_non_expansive(self):
        xs = RNG.random(5000)
        for factor, levels in ((0.2, 256), (0.7, 16), (1.0, 4)):
            out = darken(xs, factor, levels)
            assert out.max() <= factor + 1.0 / (2.0 * (levels - 1)) + 1e-15

    def test_quantization_level_count(self):
        xs = np.linspace(0.0, 1.0, 10000)
        out = darken(xs, factor=0.2, quant_levels=256)
        assert len(np.unique(out)) == 52  # round(0.2 * 255) + 1 levels reachable

    def test_darken_then_gamma_raises_mean(self):
        grid = np.linspace(0.0, 1.0, 1001)
        dark = darken(grid, 0.2, 256)
        corrected = gamma_correct(dark, 3.0)
        assert corrected.mean() > dark.mean()

    def test_rejects_bad_params(self):
        with pytest.raises(ValidationError):
            darken([0.5], factor=0.0)
        with pytest.raises(ValidationError):
            darken([0.5], factor=1.5)
        with pytest.raises(ValidationError):
            darken([0.5], quant_levels=1)
