import math

import numpy as np
import pytest

from activeflow import (
    ConstantData,
    Field3,
    Params,
    SingleModeData,
    make_grid,
    make_initial,
)
from activeflow.oracle import (
    dense_poincare,
    exact_linear_solution,
    fd_rhs,
    fd_run,
    _dense_neg_laplacian,
)
from conftest import field_from
from spectral_reference import euler_run_spectral

TWO_PI = 2.0 * math.pi


class TestFdRhs:
    def test_constant_exactly_zero(self, grid8):
        f = make_initial(ConstantData(m=1.0), grid8)
        out = fd_rhs(f, Params(pe=0.5, de=1.0, dt=0.1))
        assert np.abs(out.values).max() == 0.0

    def test_discrete_eigenvalue(self, grid8):
        # 3-point stencil symbol: cos(x1) maps to -(2 - 2 cos dx)/dx^2 cos(x1)
        f = field_from(grid8, lambda x1, x2, th: np.cos(x1))
        out = fd_rhs(f, Params(pe=0.0, de=1.0, dt=0.1))
        dx = grid8.dx
        lam = (2.0 - 2.0 * math.cos(dx)) / dx**2
        assert np.abs(out.values + lam * f.values).max() < 1e-12

    def test_mass_of_rhs_is_zero(self, grid8):
        rng = np.random.default_rng(4)
        f = Field3(grid=grid8, values=np.abs(rng.standard_normal(grid8.shape)) * 0.001)
        out = fd_rhs(f, Params(pe=0.7, de=1.2, dt=0.1))
        # flux form telescopes: the discrete sum vanishes to rounding
        assert abs(out.values.sum()) <= 1e-13 * np.abs(out.values).sum()


class TestFdRun:
    def test_zero_horizon_identity(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        out = fd_run(f0, Params(pe=0.1, de=1.0, dt=0.1), 0.0, 0.01)
        assert np.array_equal(out.values, f0.values)

    def test_discrete_linear_decay(self, grid8):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid8)
        params = Params(pe=0.0, de=1.0, dt=0.1)
        out = fd_run(f0, params, 0.5, 0.001)
        dx = grid8.dx
        lam = (2.0 - 2.0 * math.cos(dx)) / dx**2
        base = 1.0 / TWO_PI**3
        expected = field_from(
            grid8,
            lambda x1, x2, th: base * (1.0 + 0.5 * math.exp(-lam * 0.5) * np.cos(x1)),
        )
        assert np.abs(out.values - expected.values).max() <= 1e-6

    def test_exact_mass_conservation(self, grid8):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 1, 1)), grid8)
        out = fd_run(f0, Params(pe=0.3, de=1.0, dt=0.1), 0.5, 0.01)
        assert out.values.sum() == pytest.approx(f0.values.sum(), rel=1e-13)

    def test_stability_bound_enforced(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        with pytest.raises(ValueError):
            fd_run(f0, Params(pe=0.0, de=1.0, dt=0.1), 0.5, 1.0)

    def test_oracle_grid_capped(self):
        f0 = make_initial(ConstantData(m=1.0), make_grid(32, 32))
        with pytest.raises(ValueError):
            fd_run(f0, Params(pe=0.0, de=1.0, dt=0.1), 0.5, 0.001)


class TestEulerSpectral:
    """The time reference of tests/spectral_reference.py against the exact solution."""

    def test_small_step_tracks_exact_linear(self, grid8):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid8)
        out = euler_run_spectral(f0, Params(pe=0.0, de=1.0, dt=1.0), 0.2, 1e-4)
        exact = exact_linear_solution(f0, 1.0, 0.2)
        assert np.abs(out.values - exact.values).max() < 1e-7


class TestExactLinearSolution:
    def test_identity_at_zero_time(self, grid8):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.3, mode=(1, 2, 1)), grid8)
        out = exact_linear_solution(f0, 2.0, 0.0)
        assert np.abs(out.values - f0.values).max() < 1e-15

    def test_angle_mode_rate(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: np.cos(th))
        out = exact_linear_solution(f, 7.0, 1.0)
        assert np.abs(out.values - math.exp(-1.0) * f.values).max() < 1e-14

    def test_mixed_mode_exponent(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: np.cos(x1 + x2 + 2 * th))
        out = exact_linear_solution(f, 2.0, 0.5)
        # exponent: (2 * (1 + 1) + 4) * 0.5 = 4
        assert np.abs(out.values - math.exp(-4.0) * f.values).max() < 1e-14


class TestDensePoincare:
    def test_eight_cubed(self):
        assert dense_poincare(make_grid(8, 8)) == pytest.approx(1.0, abs=1e-8)

    def test_four_cubed(self):
        assert dense_poincare(make_grid(4, 4)) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("n_x, n_theta", [(4, 4), (8, 8), (4, 8), (8, 4)])
    def test_dense_spectrum_is_the_symbol(self, n_x, n_theta):
        # the dense matrix's whole spectrum is k1^2 + k2^2 + k_theta^2 over
        # every fftfreq wavenumber triple, zero mode included
        grid = make_grid(n_x, n_theta)
        kx = np.fft.fftfreq(n_x, 1.0 / n_x)
        kt = np.fft.fftfreq(n_theta, 1.0 / n_theta)
        symbol = (kx[:, None, None] ** 2 + kx[None, :, None] ** 2
                  + kt[None, None, :] ** 2)
        eigs = np.linalg.eigvalsh(_dense_neg_laplacian(grid))
        assert np.abs(np.sort(eigs) - np.sort(symbol.ravel())).max() <= 1e-10

    def test_anisotropic_grid(self):
        assert dense_poincare(make_grid(4, 8)) == pytest.approx(1.0, abs=1e-8)

    def test_grid_cap(self):
        with pytest.raises(ValueError):
            dense_poincare(make_grid(16, 16))
