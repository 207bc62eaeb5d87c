import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from activeflow import (
    Field3,
    SingleModeData,
    forward,
    inverse,
    make_grid,
    make_initial,
    poincare_constant,
)
from activeflow.diagnostics import _spectral_grads
from activeflow.spectral import _cache, forward_band, synthesize
from conftest import field_from, random_field
from moment_reference import polarization
from spectral_reference import grad_l2, l2_norm, mode_energy

TWO_PI = 2.0 * math.pi


def grads(f):
    """The spectral gradient of f from its half spectrum, as the diagnostics take it."""
    return _spectral_grads(forward(f), f.grid)


class TestTransforms:
    def test_constant_concentrates_at_zero_mode(self, grid8):
        s = forward(Field3(grid=grid8, values=np.full(grid8.shape, 2.5)))
        assert s[0, 0, 0] == pytest.approx(2.5, rel=1e-14)
        rest = np.abs(s).sum() - abs(s[0, 0, 0])
        assert rest < 1e-13

    def test_cosine_splits_into_conjugate_pair(self, grid32):
        f = field_from(grid32, lambda x1, x2, th: np.cos(x1))
        s = forward(f)
        assert s[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert s[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_zero_mode_is_grid_mean(self, grid8):
        f = random_field(grid8, seed=1)
        assert forward(f)[0, 0, 0].real == pytest.approx(f.mean(), abs=1e-15)

    def test_round_trip_random(self, grid8):
        f = random_field(grid8, seed=7)
        g = inverse(forward(f), grid8)
        scale = np.abs(f.values).max()
        assert np.abs(g.values - f.values).max() <= 1e-12 * scale

    def test_parseval(self, grid16):
        f = random_field(grid16, seed=3)
        grid_norm_sq = l2_norm(f) ** 2
        mode_norm_sq = float(mode_energy(forward(f), grid16).sum())
        assert mode_norm_sq == pytest.approx(grid_norm_sq, rel=1e-12)


class TestDeriv:
    """The spectral partial derivatives the diagnostics use."""

    def test_sin_x1(self, grid32):
        f = field_from(grid32, lambda x1, x2, th: np.sin(x1))
        expected = field_from(grid32, lambda x1, x2, th: np.cos(x1))
        assert np.abs(grads(f)[0] - expected.values).max() < 1e-12

    def test_theta_axis(self, grid32):
        f = field_from(grid32, lambda x1, x2, th: np.sin(2 * th))
        expected = field_from(grid32, lambda x1, x2, th: 2 * np.cos(2 * th))
        assert np.abs(grads(f)[2] - expected.values).max() < 1e-12

    def test_nyquist_mode_derivative_is_zero(self, grid8):
        f = field_from(grid8, lambda x1, x2, th: np.cos(4 * x1))
        assert np.abs(grads(f)[0]).max() < 1e-13

    def test_product_rule_bandlimited(self, grid32):
        f = field_from(grid32, lambda x1, x2, th: np.sin(3 * x1) + np.cos(2 * th))
        g = field_from(grid32, lambda x1, x2, th: np.cos(4 * x2 + 2 * x1))
        prod = Field3(grid=grid32, values=f.values * g.values)
        lhs = grads(prod)[0]
        rhs = f.values * grads(g)[0] + g.values * grads(f)[0]
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_rho_commutes_with_spatial_derivative(self, grid16):
        f = random_field(grid16, seed=11)
        lhs = Field3(grid=grid16, values=grads(f)[0]).rho
        k = np.fft.fftfreq(16, d=1.0 / 16)
        ik1 = 1j * np.where(np.abs(k) == 8, 0.0, k)[:, None]
        rhs = np.fft.ifft2(ik1 * np.fft.fft2(f.rho)).real
        assert np.abs(lhs - rhs).max() < 1e-12


class TestDealias:
    """The 2/3 band that the advection's x forward transform computes."""

    @staticmethod
    def band(f):
        keep, planes = _cache(f.grid.n_x, f.grid.n_theta)["band"]
        mixed = np.fft.rfft(f.values, axis=2)[:, :, :planes]
        return forward_band(mixed, keep) / f.values.size

    def test_threshold_strict_floor(self, grid32):
        keep, planes = _cache(32, 32)["band"]
        kx = np.fft.fftfreq(32, d=1.0 / 32)[keep]
        assert sorted(np.abs(kx)) == sorted([0] + 2 * list(range(1, 11)))
        assert planes == 11
        kept = field_from(grid32, lambda x1, x2, th: np.cos(10 * x1))
        zeroed = field_from(grid32, lambda x1, x2, th: np.cos(11 * x1))
        assert self.band(kept)[kx == 10, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert np.abs(self.band(zeroed)).max() < 1e-13

    def test_constant_unchanged(self, grid8):
        band = self.band(Field3(grid=grid8, values=np.full(grid8.shape, 3.0)))
        assert band[0, 0, 0] == pytest.approx(3.0, rel=1e-14)
        assert np.abs(band).sum() - abs(band[0, 0, 0]) < 1e-13

    def test_idempotent(self, grid16):
        # the band of a field that holds only band modes is that field's spectrum
        keep, planes = _cache(16, 16)["band"]
        once = self.band(random_field(grid16, seed=2))
        full = np.zeros((16, 16, 9), dtype=complex)
        full[:, :, :planes][np.ix_(keep, keep)] = once
        twice = self.band(Field3(grid=grid16, values=synthesize(full, grid16)))
        assert np.abs(twice - once).max() < 1e-14


class TestAngleMoments:
    def test_rho_of_constant(self, grid16):
        f = Field3(grid=grid16, values=np.full(grid16.shape, 1.0 / TWO_PI**3))
        rho = f.rho
        assert np.allclose(rho, 1.0 / TWO_PI**2, rtol=1e-13)

    def test_rho_kills_pure_cosine(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: np.sin(x1) * np.cos(th))
        assert np.abs(f.rho).max() < 1e-14

    def test_rho_single_mode_closed_form(self, grid32):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.1, mode=(1, 0, 0)), grid32)
        x = grid32.x_values()
        expected = (1.0 + 0.1 * np.cos(x))[:, None] / TWO_PI**2 * np.ones((32, 32))
        assert np.abs(f0.rho - expected).max() < 1e-15

    def test_p_of_theta_independent_field(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: 1.0 + 0.3 * np.cos(x1))
        p1, p2 = polarization(f)
        assert np.abs(p1).max() < 1e-14
        assert np.abs(p2).max() < 1e-14

    def test_p_of_lifted_cosine(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: (1.0 + np.cos(th)) / TWO_PI)
        p1, p2 = polarization(f)
        assert np.allclose(p1, 0.5, atol=1e-14)
        assert np.abs(p2).max() < 1e-14

    def test_polarization_bounded_by_density(self, grid8):
        for seed in range(10):
            f = random_field(grid8, seed=seed, positive=True)
            p_norm = np.hypot(*polarization(f))
            assert (p_norm <= f.rho * (1 + 1e-13)).all()


class TestPoincare:
    def test_value_is_one(self):
        for nx, nt in ((4, 4), (8, 8), (32, 16)):
            assert poincare_constant(make_grid(nx, nt)) == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(n_x=st.integers(2, 32).map(lambda h: 2 * h),
           n_theta=st.integers(2, 32).map(lambda h: 2 * h))
    def test_equals_the_full_spectrum_minimum(self, n_x, n_theta):
        # the 1-D tables give exactly what a mask over the whole k_sq table gives
        k_sq = _cache(n_x, n_theta)["k_sq"]
        want = 1.0 / math.sqrt(float(k_sq[k_sq > 0].min()))
        assert poincare_constant(make_grid(n_x, n_theta)) == want

    def test_lowest_mode_ratio(self, grid32):
        u = field_from(grid32, lambda x1, x2, th: np.cos(x1))
        assert l2_norm(u) / grad_l2(u) == pytest.approx(1.0, rel=1e-12)

    def test_higher_mode_ratio_smaller(self, grid32):
        u = field_from(grid32, lambda x1, x2, th: np.cos(2 * x1))
        ratio = l2_norm(u) / grad_l2(u)
        assert ratio == pytest.approx(0.5, rel=1e-12)
        assert ratio <= poincare_constant(grid32)
