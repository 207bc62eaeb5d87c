import math

import numpy as np
import pytest

from activeflow import (
    ConstantData,
    Field3,
    RandomBandlimitedData,
    SingleModeData,
    check_admissible,
    make_grid,
    make_initial,
)
from activeflow.errors import AdmissibilityViolation
from activeflow.spectral import forward

TWO_PI = 2.0 * math.pi


class TestMakeGrid:
    def test_dx_32(self):
        assert make_grid(32, 32).dx == pytest.approx(TWO_PI / 32, rel=0, abs=0)

    def test_dx_4(self):
        assert make_grid(4, 4).dx == pytest.approx(math.pi / 2)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            make_grid(7, 8)
        with pytest.raises(ValueError):
            make_grid(8, 7)

    def test_too_small_rejected(self):
        with pytest.raises(ValueError):
            make_grid(2, 8)

    def test_endpoint_excluded(self):
        x = make_grid(8, 8).x_values()
        assert x[0] == 0.0
        assert x[-1] < TWO_PI


class TestField3:
    def test_rejects_nan(self, grid8):
        values = np.zeros(grid8.shape)
        values[1, 2, 3] = np.nan
        with pytest.raises(ValueError):
            Field3(grid=grid8, values=values)

    def test_rejects_wrong_shape(self, grid8):
        with pytest.raises(ValueError):
            Field3(grid=grid8, values=np.zeros((8, 8, 4)))

    def test_values_frozen(self, grid8):
        f = Field3(grid=grid8, values=np.zeros(grid8.shape))
        with pytest.raises(ValueError):
            f.values[0, 0, 0] = 1.0


class TestMakeInitial:
    def test_constant_entries(self, grid32):
        f0 = make_initial(ConstantData(m=1.0), grid32)
        assert np.allclose(f0.values, 1.0 / TWO_PI**3, rtol=0, atol=1e-18)

    def test_single_mode_closed_form(self, grid32):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.1, mode=(1, 0, 0)), grid32)
        x = grid32.x_values()
        expected = (1.0 + 0.1 * np.cos(x))[:, None, None] / TWO_PI**3
        assert np.allclose(f0.values, expected * np.ones(grid32.shape), atol=1e-17)
        assert f0.values.min() == pytest.approx(0.9 / TWO_PI**3, rel=1e-12)

    def test_single_mode_too_deep_rejected(self, grid32):
        with pytest.raises(AdmissibilityViolation):
            make_initial(SingleModeData(m=1.0, epsilon=1.5, mode=(1, 0, 0)), grid32)

    @pytest.mark.parametrize(
        "spec",
        [
            ConstantData(m=1.0),
            SingleModeData(m=2.5, epsilon=0.3, mode=(2, 1, 1)),
            RandomBandlimitedData(m=0.7, epsilon=0.4, max_mode=4, seed=9),
        ],
    )
    def test_requested_mass_is_exact(self, grid16, spec):
        f0 = make_initial(spec, grid16)
        assert f0.values.sum() * grid16.cell_volume == pytest.approx(spec.m, rel=1e-12)

    def test_random_deterministic_in_seed(self, grid16):
        a = make_initial(RandomBandlimitedData(m=1.0, epsilon=0.4, max_mode=4, seed=5), grid16)
        b = make_initial(RandomBandlimitedData(m=1.0, epsilon=0.4, max_mode=4, seed=5), grid16)
        c = make_initial(RandomBandlimitedData(m=1.0, epsilon=0.4, max_mode=4, seed=6), grid16)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_random_is_bandlimited(self, grid16):
        f0 = make_initial(RandomBandlimitedData(m=1.0, epsilon=0.4, max_mode=3, seed=5), grid16)
        coeffs = forward(f0)
        kx = np.fft.fftfreq(16, d=1.0 / 16).astype(int)
        kth = np.arange(9)
        outside = (
            (np.abs(kx)[:, None, None] > 3)
            | (np.abs(kx)[None, :, None] > 3)
            | (kth[None, None, :] > 3)
        )
        assert np.abs(coeffs[outside]).max() < 1e-16

    def test_random_epsilon_rescaled_to_floor(self, grid16):
        # epsilon too large to keep positivity: the draw is rescaled so the
        # minimum sits at one percent of the constant level.
        spec = RandomBandlimitedData(m=1.0, epsilon=50.0, max_mode=4, seed=3)
        f0 = make_initial(spec, grid16)
        floor = 0.01 * 1.0 / TWO_PI**3
        assert f0.values.min() == pytest.approx(floor, rel=1e-9)

    def test_random_max_mode_beyond_nyquist_rejected(self, grid16):
        with pytest.raises(ValueError):
            make_initial(
                RandomBandlimitedData(m=1.0, epsilon=0.1, max_mode=9, seed=1), grid16
            )


class TestCheckAdmissible:
    def test_constant_reference_density(self, grid16):
        f = Field3(grid=grid16, values=np.full(grid16.shape, 1.0 / TWO_PI**3))
        rep = check_admissible(f)
        assert rep.ok
        assert rep.max_rho == pytest.approx(1.0 / TWO_PI**2, rel=1e-13)

    def test_density_exactly_one_is_admissible(self, grid16):
        f = Field3(grid=grid16, values=np.full(grid16.shape, 1.0 / TWO_PI))
        rep = check_admissible(f)
        assert rep.max_rho == pytest.approx(1.0, rel=1e-13)
        assert rep.ok

    def test_single_negative_entry_fails(self, grid16):
        values = np.full(grid16.shape, 1.0 / TWO_PI**3)
        values[3, 4, 5] = -1e-6
        rep = check_admissible(Field3(grid=grid16, values=values))
        assert not rep.ok
        assert rep.min_f == pytest.approx(-1e-6)

    def test_constant_mass_boundary(self, grid16):
        ok_edge = make_initial(ConstantData(m=TWO_PI**2), grid16)
        assert check_admissible(ok_edge).ok
        with pytest.raises(AdmissibilityViolation):
            make_initial(ConstantData(m=TWO_PI**2 + 0.01), grid16)
