import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from activeflow import (
    ConstantData,
    Field3,
    Params,
    SingleModeData,
    kappa,
    make_initial,
    peclet_threshold,
    rhs,
    run,
    solve_stationary,
    spatial_average_decay,
    stationary_residual,
    verify_small_pe_decay,
)
from activeflow.dynamics import states, step_count
from activeflow.equilibrium import marginal_deviation
from activeflow.errors import NotConverged, TooFewPoints, ValidationError
from activeflow.spectral import forward
from checks_reference import spatial_average_decay as trajectory_average_decay
from conftest import field_from, random_field
from spectral_reference import l2_norm

TWO_PI = 2.0 * math.pi


def _p(pe, de=1.0, dt=0.01):
    return Params(pe=pe, de=de, dt=dt)


def _residual(f, params):
    return stationary_residual(forward(f), f.grid, params)


def marginal_series(f0, params, t_end, stride):
    """(times, devs) at every stride-th step of states and the last, as
    criterion 5 takes them."""
    n = step_count(t_end, params.dt)
    kept = [(s * params.dt, marginal_deviation(c, f0.grid))
            for s, c, _ in states(f0, params, n) if s % stride == 0 or s == n]
    return [t for t, _ in kept], [d for _, d in kept]


class TestKappa:
    def test_zero_peclet(self):
        assert kappa(_p(0.0), m=0.3, c_p=1.0) == pytest.approx(0.25, rel=1e-15)

    def test_closed_form_at_small_peclet(self):
        # high-precision reference for pe=0.01, de=1, m=0, c_p=1
        import mpmath

        mpmath.mp.dps = 40
        expected = 0.5 * (
            mpmath.mpf("0.5")
            - (2 * mpmath.pi) ** 2 * mpmath.mpf("0.01") ** 2 * 1
        )
        assert kappa(_p(0.01), m=0.0, c_p=1.0) == pytest.approx(
            float(expected), rel=1e-14
        )
        assert kappa(_p(0.01), m=0.0, c_p=1.0) == pytest.approx(0.248026, abs=5e-7)

    def test_diffusion_clamped_at_one(self):
        assert kappa(_p(0.02, de=4.0), m=0.1, c_p=1.0) == pytest.approx(
            kappa(_p(0.02, de=1.0), m=0.1, c_p=1.0), rel=1e-15
        )

    @pytest.mark.parametrize("pe", [1e154, -1e154, 1e200])
    def test_overflow_names_pe(self, pe):
        # pe**2 * (2 pi)^2 is inf at 1e154; pe**2 raises OverflowError at 1e200
        with pytest.raises(ValidationError, match=r"^params\.pe: "):
            kappa(_p(pe), m=1.0, c_p=1.0)


class TestPecletThreshold:
    def test_reference_value(self):
        import mpmath

        mpmath.mp.dps = 40
        expected = 1 / (2 * mpmath.sqrt(2) * mpmath.pi)
        assert peclet_threshold(_p(0.0), m=0.0, c_p=1.0) == pytest.approx(
            float(expected), rel=1e-14
        )
        assert peclet_threshold(_p(0.0), m=0.0, c_p=1.0) == pytest.approx(
            0.112540, abs=5e-7
        )

    def test_mass_halves(self):
        t0 = peclet_threshold(_p(0.0), m=0.0, c_p=1.0)
        t1 = peclet_threshold(_p(0.0), m=1.0, c_p=1.0)
        assert t1 == pytest.approx(t0 / 2, rel=1e-14)

    def test_small_diffusion_scales_linearly(self):
        t1 = peclet_threshold(_p(0.0, de=1.0), m=0.0, c_p=1.0)
        t2 = peclet_threshold(_p(0.0, de=0.5), m=0.0, c_p=1.0)
        assert t2 == pytest.approx(t1 / 2, rel=1e-14)

    @given(
        pe=st.floats(-0.5, 0.5),
        de=st.floats(0.05, 4.0),
        m=st.floats(0.0, 3.0),
        c_p=st.floats(0.5, 2.0),
    )
    def test_positive_kappa_iff_below_threshold(self, pe, de, m, c_p):
        params = Params(pe=pe, de=de, dt=0.01)
        thr = peclet_threshold(params, m, c_p)
        if abs(abs(pe) - thr) < 1e-12:
            return  # boundary: both sides are zero up to rounding
        assert (kappa(params, m, c_p) > 0) == (abs(pe) < thr)


class TestVerifySmallPeDecay:
    def test_zero_peclet_single_mode(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        rep = verify_small_pe_decay(f0, _p(0.0), t_end=6.0)
        assert rep.is_small_pe
        assert rep.kappa == pytest.approx(0.25, rel=1e-12)
        assert rep.measured_rate == pytest.approx(1.0, abs=1e-4)
        assert rep.measured_rate >= rep.kappa
        assert rep.bound_satisfied

    def test_above_threshold_gated(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        rep = verify_small_pe_decay(f0, _p(0.2), t_end=0.5)
        assert not rep.is_small_pe
        assert math.isnan(rep.measured_rate)

    def test_constant_data_vacuous_bound(self, grid16):
        f0 = make_initial(ConstantData(m=1.0), grid16)
        rep = verify_small_pe_decay(f0, _p(0.05), t_end=0.5)
        assert rep.bound_satisfied
        assert math.isinf(rep.measured_rate)


class TestStationaryResidual:
    def test_constants_vanish(self, grid16):
        for m in (0.5, 1.0, 20.0):
            f = make_initial(ConstantData(m=m), grid16)
            assert _residual(f, _p(0.8)) <= 1e-13

    def test_pure_mode_at_zero_peclet(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: 0.01 + 0.001 * np.cos(x1))
        res = _residual(f, _p(0.0, de=2.0))
        cos_field = field_from(grid16, lambda x1, x2, th: 0.001 * np.cos(x1))
        assert res == pytest.approx(2.0 * l2_norm(cos_field), rel=1e-12)

    def test_constant_shift_invariance_at_zero_peclet(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: 0.02 + 0.002 * np.sin(x2 + th))
        g = Field3(grid=grid16, values=f.values + 0.013)
        r_f = _residual(f, _p(0.0))
        r_g = _residual(g, _p(0.0))
        assert r_f == pytest.approx(r_g, rel=1e-12)

    @pytest.mark.parametrize("pe", [0.0, 0.3])
    def test_parseval_norm_of_the_field_rhs(self, grid16, pe):
        # the norm of the spectrum equals the grid norm of the field rhs
        f = random_field(grid16, seed=5, positive=True)
        want = l2_norm(rhs(f, _p(pe)))
        assert _residual(f, _p(pe)) == pytest.approx(want, rel=1e-12)


class TestSolveStationary:
    def test_constant_guess_immediate(self, grid16):
        f0 = make_initial(ConstantData(m=1.0), grid16)
        sol, res = solve_stationary(f0, _p(0.3), tol=1e-8, t_max=1.0)
        assert res <= 1e-13
        assert np.array_equal(sol.values, f0.values)

    def test_small_pe_lands_on_constant(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        tol = 1e-8
        sol, res = solve_stationary(f0, _p(0.05), tol=tol, t_max=60.0)
        assert res < tol
        assert np.abs(sol.values - f0.mean()).max() <= 10 * tol
        assert sol.mean() == pytest.approx(f0.mean(), rel=1e-12)

    def test_large_pe_not_converged(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        with pytest.raises(NotConverged) as excinfo:
            solve_stationary(f0, _p(5.0, dt=0.005), tol=1e-12, t_max=0.05)
        assert excinfo.value.residual > 0


class TestSpatialAverageDecay:
    def test_heat_mode_rate(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(0, 0, 1)), grid16)
        rate, bound_ok = spatial_average_decay(*marginal_series(f0, _p(0.0), 3.0, 10))
        assert bound_ok
        assert rate == pytest.approx(1.0, abs=1e-4)

    def test_holds_above_threshold(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(0, 0, 1)), grid16)
        rate, bound_ok = spatial_average_decay(*marginal_series(f0, _p(0.3), 3.0, 10))
        assert bound_ok
        assert rate >= 1.0 - 1e-3

    def test_degenerate_data(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        rate, bound_ok = spatial_average_decay(*marginal_series(f0, _p(0.05), 1.0, 5))
        assert bound_ok
        assert math.isinf(rate)

    def test_spectral_deviation_matches_the_grid_sum(self, grid16):
        # the k_x = 0 row by Parseval against h summed on the grid, on the
        # snapshots of the trajectory reference; the two forms agree on rate
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(0, 0, 1)), grid16)
        noise = random_field(grid16, seed=2, positive=True).values
        f0 = Field3(grid=grid16, values=f0.values + 2e-4 * noise)
        traj = run(f0, _p(0.3), 1.0, snapshot_stride=10)
        times, devs = marginal_series(f0, _p(0.3), 1.0, 10)
        assert times == traj.times
        for snap, dev in zip(traj.snapshots, devs):
            h = snap.values.sum(axis=(0, 1)) * grid16.dx**2
            want = math.sqrt(float(((h - h.mean()) ** 2).sum()) * grid16.dtheta)
            assert dev == pytest.approx(want, rel=1e-12)
        rate, bound_ok = spatial_average_decay(times, devs)
        want_rate, want_ok = trajectory_average_decay(traj)
        assert bound_ok == want_ok
        assert rate == pytest.approx(want_rate, rel=1e-9)

    def test_needs_ten_points(self):
        with pytest.raises(TooFewPoints):
            spatial_average_decay([0.1 * i for i in range(9)], [1.0] * 9)
