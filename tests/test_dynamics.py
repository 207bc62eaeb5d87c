import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from activeflow import (
    ConstantData,
    Field3,
    Params,
    SingleModeData,
    cfl_dt,
    make_grid,
    make_initial,
    rescale_field,
    rhs,
    run,
    stationary_residual,
    step_imex,
    verify_small_pe_decay,
)
from activeflow.dynamics import _advection_hat, march, rescale_ell
from activeflow.errors import (
    AdmissibilityViolation,
    NumericalBlowup,
    RadiusTooLarge,
)
from activeflow.oracle import exact_linear_solution, fd_rhs, fd_run
from activeflow import dynamics, spectral
from activeflow.spectral import _cache, forward, inverse, synthesize, x_inverse
from advection_reference import (
    dealias_mask,
    embed,
    reference_mixed_advection_hat,
    reference_mixed_step,
    reference_step_spectral,
)
from conftest import field_from
from spectral_reference import euler_run_spectral

TWO_PI = 2.0 * math.pi


class TestRhs:
    def test_constants_are_stationary(self, grid16):
        f = Field3(grid=grid16, values=np.full(grid16.shape, 0.02))
        out = rhs(f, Params(pe=0.7, de=1.5, dt=0.01))
        assert np.abs(out.values).max() <= 1e-14

    def test_pure_diffusion_eigenfunction(self, grid16):
        f = field_from(grid16, lambda x1, x2, th: np.cos(x1))
        out = rhs(f, Params(pe=0.0, de=3.0, dt=0.01))
        assert np.abs(out.values + 3.0 * f.values).max() < 1e-11

    def test_agrees_with_finite_difference_oracle_at_order_two(self):
        # Same smooth continuum data sampled on a coarse and a fine grid; the
        # finite-difference right-hand side must approach the spectral one at
        # second order.
        def data(x1, x2, th):
            return 0.02 * (1.0 + 0.4 * np.cos(x1) + 0.2 * np.sin(x2 + th))

        params = Params(pe=0.3, de=1.0, dt=0.01, dealias=False)
        errs = []
        for n in (8, 16, 32):
            g = make_grid(n, n)
            f = field_from(g, data)
            diff = fd_rhs(f, params).values - rhs(f, params).values
            errs.append(np.abs(diff).max())
        ratios = [errs[i] / errs[i + 1] for i in range(2)]
        assert all(3.7 <= r <= 4.3 for r in ratios)
        assert min(math.log2(r) for r in ratios) >= 1.9


class TestAdvectionShift:
    """One transform and a theta-index shift give the two-transform product."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_x=st.integers(2, 8).map(lambda k: 2 * k),
        n_theta=st.integers(2, 8).map(lambda k: 2 * k),
        dealias=st.booleans(),
        pe=st.floats(-3.0, -0.01) | st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_x=8, n_theta=4, dealias=True, pe=0.7, seed=0)
    @example(n_x=4, n_theta=16, dealias=False, pe=-1.3, seed=1)
    @example(n_x=16, n_theta=6, dealias=False, pe=0.4, seed=2)
    def test_matches_two_transform_reference(self, n_x, n_theta, dealias, pe, seed):
        grid = make_grid(n_x, n_theta)
        values = 0.01 + 0.02 * np.random.default_rng(seed).random(grid.shape)
        params = Params(pe=pe, de=1.0, dt=0.01, dealias=dealias)
        c = _cache(n_x, n_theta)
        blocked = (1.0 - values.sum(axis=2) * grid.dtheta)[:, :, None] * values
        g1 = np.fft.rfftn(blocked * c["cos_theta"]) / values.size
        g2 = np.fft.rfftn(blocked * c["sin_theta"]) / values.size
        ref = -1j * pe * (c["d1"] * g1 + c["d2"] * g2)
        if dealias:
            ref = ref * dealias_mask(grid)
        mixed = np.fft.rfft(values, axis=2)
        out = embed(_advection_hat(mixed, grid, params), grid, dealias)
        assert out[0, 0, 0] == 0.0
        assert np.abs(out - ref).max() <= 1e-13 * np.abs(ref).max()


FFT_CALLS = ("fft", "ifft", "rfft", "irfft", "fftn", "ifftn", "rfftn", "irfftn")


def _count_ffts(monkeypatch, fn) -> dict:
    """Calls fn() makes to each numpy.fft transform, which every activeflow
    module reaches through np.fft: one call is one pass along its axes."""
    calls = dict.fromkeys(FFT_CALLS, 0)
    for name in FFT_CALLS:
        def counted(*args, _name=name, _orig=getattr(np.fft, name), **kwargs):
            calls[_name] += 1
            return _orig(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    fn()
    monkeypatch.undo()
    return calls


def _passes(calls: dict) -> tuple[int, int]:
    """(numpy FFT calls, passes along theta): rfft/irfft, and the n-D real ones."""
    theta = sum(calls[n] for n in ("rfft", "irfft", "rfftn", "irfftn"))
    return sum(calls.values()), theta


class TestBandForward:
    """The band-limited transform keeps rfftn's bits on the modes it computes."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_x=st.integers(2, 8).map(lambda k: 2 * k),
        n_theta=st.integers(2, 8).map(lambda k: 2 * k),
        dealias=st.booleans(),
        pe=st.floats(-3.0, -0.01) | st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_x=8, n_theta=4, dealias=True, pe=0.7, seed=0)
    @example(n_x=4, n_theta=4, dealias=False, pe=0.7, seed=3)
    @example(n_x=4, n_theta=16, dealias=True, pe=-1.3, seed=1)
    @example(n_x=16, n_theta=6, dealias=False, pe=0.4, seed=2)
    def test_advection_equals_full_transform_reference(
        self, n_x, n_theta, dealias, pe, seed
    ):
        # mixed space as rhs makes it (rfft along theta) and as march does (x inverse)
        grid = make_grid(n_x, n_theta)
        values = 0.01 + 0.02 * np.random.default_rng(seed).random(grid.shape)
        params = Params(pe=pe, de=1.0, dt=0.01, dealias=dealias)
        coeffs = forward(Field3(grid=grid, values=values))
        for mixed in (np.fft.rfft(values, axis=2), x_inverse(coeffs, grid)):
            out = embed(_advection_hat(mixed, grid, params), grid, dealias)
            assert out[0, 0, 0] == 0.0
            assert np.array_equal(out, reference_mixed_advection_hat(mixed, grid, params))

    @settings(max_examples=30, deadline=None)
    @given(
        n_x=st.integers(2, 8).map(lambda k: 2 * k),
        n_theta=st.integers(2, 8).map(lambda k: 2 * k),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_kept_modes_are_rfftn_bits(self, n_x, n_theta, seed):
        values = np.random.default_rng(seed).random((n_x, n_x, n_theta))
        keep, planes = _cache(n_x, n_theta)["band"]
        band = spectral.forward_band(np.fft.rfft(values, axis=2)[:, :, :planes], keep)
        full = np.fft.rfftn(values)[:, :, :planes][np.ix_(keep, keep)]
        assert np.array_equal(band.view(np.uint64), full.view(np.uint64))


class TestTransformCount:
    """The transform count per step is the solver's figure of merit.

    A step makes 9 numpy FFT calls, one of them along theta: the x inverse
    (2) and x forward (2) of the stage-2 midpoint, the new state's x inverse
    (2) and irfft (1), and the x forward of the next step's stage 1 (2),
    which the last step skips. A march starts with the x inverse and x
    forward of its first stage 1 (4), after forward(f) (1 rfftn) when it is
    given no spectrum.
    """

    @pytest.fixture
    def desk(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 1)), grid16)
        return f0, Params(pe=0.3, de=1.0, dt=0.01)

    def test_march_makes_nine_per_step_one_along_theta(self, desk, monkeypatch):
        f0, params = desk
        counts = [_passes(_count_ffts(monkeypatch, lambda: list(march(f0, params, n))))
                  for n in (4, 5)]
        assert counts[1][0] - counts[0][0] == 9
        assert counts[1][1] - counts[0][1] == 1
        assert counts[1] == (1 + 4 + 9 * 5 - 2, 1 + 5)

    def test_carried_spectrum_skips_the_startup_transform(self, desk, monkeypatch):
        f0, params = desk
        coeffs = forward(f0)
        calls = _count_ffts(monkeypatch, lambda: list(march(f0, params, 5, coeffs=coeffs)))
        assert _passes(calls) == (4 + 9 * 5 - 2, 5)

    def test_run_transforms_the_initial_field_once(self, desk, monkeypatch):
        # one forward for the step-0 record and march both
        f0, params = desk
        calls = _count_ffts(monkeypatch, lambda: run(f0, params, 0.05, snapshot_stride=10**9))
        assert calls["rfftn"] == 1
        assert _passes(calls) == (1 + 4 + 9 * 5 - 2, 1 + 5)

    def test_decay_check_transforms_as_run_does(self, desk, monkeypatch):
        # verify_small_pe_decay reads l2_to_const off states: 3 + 9n over n
        # steps (Pe 0.3 lies above the threshold, so no rate is fitted)
        f0, params = desk
        for n in (5, 6):
            decay = functools.partial(verify_small_pe_decay, f0, params, n * params.dt)
            assert _passes(_count_ffts(monkeypatch, decay)) == (3 + 9 * n, 1 + n)

    def test_rhs_makes_eight_two_along_theta(self, desk, monkeypatch):
        # one rfft along theta for both terms (1), its x transforms for the
        # diffusion (2), the band x forward (2), inverse (3)
        f, params = desk
        assert _passes(_count_ffts(monkeypatch, lambda: rhs(f, params))) == (8, 2)

    def test_stationary_residual_makes_four_none_along_theta(self, desk, monkeypatch):
        # on a carried spectrum the residual transforms only the advection's
        # x axes: its x inverse (2) and band x forward (2)
        f, params = desk
        coeffs = forward(f)
        residual = functools.partial(stationary_residual, coeffs, f.grid, params)
        assert _passes(_count_ffts(monkeypatch, residual)) == (4, 0)

    def test_rhs_diffusion_spectrum_is_the_forward_transform(self, desk):
        # at Pe = 0 rhs is the diffusion alone: its spectrum, derived from the
        # rfft along theta, must be forward(f)'s bits times the symbol
        f, params = desk
        c = _cache(f.grid.n_x, f.grid.n_theta)
        want = inverse(-(params.de * c["kx_sq"] + c["k3"] ** 2) * forward(f), f.grid)
        got = rhs(f, dataclasses.replace(params, pe=0.0))
        assert np.array_equal(got.values, want.values)


class TestMarchResume:
    def test_restart_from_carried_spectrum_is_bit_identical(self, grid16):
        # a resume holds only the spectrum at step k; its field is rebuilt by
        # the same expression march uses, so the continuation is exact
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 1, 1)), grid16)
        params = Params(pe=0.3, de=1.0, dt=0.01)
        whole = list(march(f0, params, 8))
        _, coeffs, f = whole[2]
        rebuilt = Field3(grid=grid16, values=synthesize(coeffs, grid16))
        assert np.array_equal(rebuilt.values, f.values)
        resumed = list(march(rebuilt, params, 8, start_step=3, coeffs=coeffs))
        assert [s for s, _, _ in resumed] == list(range(4, 9))
        for (_, c_a, f_a), (_, c_b, f_b) in zip(whole[3:], resumed):
            assert np.array_equal(c_a, c_b)
            assert np.array_equal(f_a.values, f_b.values)


class TestMixedSpaceStep:
    """march's mixed-space product agrees with the physical one to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_x=st.integers(2, 8).map(lambda k: 2 * k),
        n_theta=st.integers(2, 8).map(lambda k: 2 * k),
        dealias=st.booleans(),
        pe=st.floats(-3.0, -0.01) | st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_x=8, n_theta=4, dealias=True, pe=0.7, seed=0)
    @example(n_x=4, n_theta=4, dealias=False, pe=-0.7, seed=3)
    @example(n_x=16, n_theta=6, dealias=True, pe=-1.3, seed=1)
    @example(n_x=6, n_theta=16, dealias=False, pe=0.4, seed=2)
    def test_march_matches_physical_product_reference(self, n_x, n_theta, dealias, pe, seed):
        grid = make_grid(n_x, n_theta)
        values = 0.01 + 0.02 * np.random.default_rng(seed).random(grid.shape)
        params = Params(pe=pe, de=1.0, dt=0.01, dealias=dealias)
        coeffs = forward(Field3(grid=grid, values=values))
        mean = coeffs[0, 0, 0]
        for _, c_step, _ in march(Field3(grid=grid, values=values), params, 4,
                                  coeffs=coeffs.copy()):
            coeffs = reference_step_spectral(coeffs, grid, params)
            assert np.abs(c_step - coeffs).max() <= 1e-13 * np.abs(coeffs).max()
            assert c_step[0, 0, 0].tobytes() == coeffs[0, 0, 0].tobytes() == mean.tobytes()


class TestBandResidentStep:
    """march equals the whole-array mixed-space step bit for bit, zero signs included."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_x=st.integers(2, 8).map(lambda k: 2 * k),
        n_theta=st.integers(2, 8).map(lambda k: 2 * k),
        dealias=st.booleans(),
        pe=st.floats(-3.0, -0.01) | st.floats(0.01, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_x=8, n_theta=4, dealias=True, pe=0.7, seed=0)
    @example(n_x=4, n_theta=4, dealias=False, pe=0.7, seed=3)
    @example(n_x=16, n_theta=6, dealias=True, pe=-1.3, seed=1)
    @example(n_x=6, n_theta=16, dealias=False, pe=0.4, seed=2)
    def test_march_matches_full_spectrum_reference(self, n_x, n_theta, dealias, pe, seed):
        grid = make_grid(n_x, n_theta)
        values = 0.01 + 0.02 * np.random.default_rng(seed).random(grid.shape)
        params = Params(pe=pe, de=1.0, dt=0.01, dealias=dealias)
        coeffs = forward(Field3(grid=grid, values=values))
        coeffs[n_x // 2] = -0.0  # negative zeros on the x1-Nyquist plane, off the 2/3 band
        f0 = Field3(grid=grid, values=synthesize(coeffs, grid))
        for step, c_step, f in march(f0, params, 4, coeffs=coeffs.copy()):
            coeffs = reference_mixed_step(coeffs, grid, params)
            values = synthesize(coeffs, grid)
            assert np.array_equal(c_step.view(np.uint64), coeffs.view(np.uint64))
            assert np.array_equal(f.values.view(np.uint64), values.view(np.uint64))

    def test_yielded_field_is_the_synthesized_array(self, grid16, monkeypatch):
        # march hands the post-step theta inverse to the field without a copy
        inverted = []

        def recorded(mixed, grid):
            inverted.append(spectral.theta_inverse(mixed, grid))
            return inverted[-1]

        monkeypatch.setattr(dynamics, "theta_inverse", recorded)
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 1)), grid16)
        for step, _, f in march(f0, Params(pe=0.3, de=1.0, dt=0.01), 3):
            assert f.values is inverted[-1]
            assert not f.values.flags.writeable
            with pytest.raises(ValueError):
                f.values[0, 0, 0] = 1.0
        assert len(inverted) == 3


class TestCfl:
    def test_no_advection_is_unconstrained(self, grid16):
        f = make_initial(ConstantData(m=1.0), grid16)
        assert cfl_dt(f, Params(pe=0.0, de=1.0, dt=0.1)) > 1e9

    def test_unit_blocking_factor(self):
        grid = make_grid(32, 32)
        f = Field3(grid=grid, values=np.zeros(grid.shape))  # rho = 0
        dt = cfl_dt(f, Params(pe=1.0, de=1.0, dt=0.1))
        assert dt == pytest.approx(0.25 * TWO_PI / 32, rel=1e-12)

    def test_linear_in_peclet(self):
        grid = make_grid(32, 32)
        f = Field3(grid=grid, values=np.zeros(grid.shape))
        dt1 = cfl_dt(f, Params(pe=1.0, de=1.0, dt=0.1))
        dt2 = cfl_dt(f, Params(pe=2.0, de=1.0, dt=0.1))
        assert dt2 == pytest.approx(dt1 / 2, rel=1e-12)


class TestStepImex:
    def test_constant_is_fixed_point(self, grid16):
        f = make_initial(ConstantData(m=1.0), grid16)
        out = step_imex(f, Params(pe=0.4, de=1.0, dt=0.05))
        assert np.abs(out.values - f.values).max() <= 1e-14 * f.values.max()

    def test_linear_single_step_is_exact(self, grid16):
        base = 1.0 / TWO_PI**3
        f = field_from(grid16, lambda x1, x2, th: base * (1.0 + 0.1 * np.cos(x1)))
        out = step_imex(f, Params(pe=0.0, de=2.0, dt=0.01))
        expected = field_from(
            grid16,
            lambda x1, x2, th: base * (1.0 + 0.1 * math.exp(-0.02) * np.cos(x1)),
        )
        assert np.abs(out.values - expected.values).max() < 1e-10 * base

    def test_matches_fine_step_euler_oracle(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        params = Params(pe=0.05, de=1.0, dt=0.01)
        traj = run(f0, params, 1.0, snapshot_stride=10**9)
        oracle = fd_run(f0, params, 1.0, params.dt / 50.0)
        diff = np.abs(traj.snapshots[-1].values - oracle.values).max()
        assert diff <= 1e-4

    def test_second_order_in_time(self, grid16):
        # Reference: Richardson-extrapolated explicit Euler on the spectral
        # right-hand side (its own error is O(dt_fine^2) with a much larger
        # constant than the scheme under test, at 50x smaller dt).
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.2, mode=(1, 0, 1)), grid16)
        p_ref = Params(pe=0.05, de=1.0, dt=1.0)
        coarse = euler_run_spectral(f0, p_ref, 0.5, 2e-4)
        fine = euler_run_spectral(f0, p_ref, 0.5, 1e-4)
        reference = 2.0 * fine.values - coarse.values
        errs = []
        for dt in (0.1, 0.05, 0.025):
            params = Params(pe=0.05, de=1.0, dt=dt)
            final = run(f0, params, 0.5, snapshot_stride=10**9).snapshots[-1]
            errs.append(np.abs(final.values - reference).max())
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_blowup_detected(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.9, mode=(1, 0, 0)), grid16)
        params = Params(pe=80.0, de=0.01, dt=5.0)
        with pytest.raises(NumericalBlowup), pytest.warns(RuntimeWarning):
            f = f0
            for _ in range(50):
                f = step_imex(f, params)

    def test_cfl_warning(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        with pytest.warns(RuntimeWarning):
            step_imex(f0, Params(pe=1.0, de=1.0, dt=1.0))


class TestRun:
    def test_zero_horizon_keeps_initial_record_only(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        traj = run(f0, Params(pe=0.1, de=1.0, dt=0.01), 0.0)
        assert len(traj.diagnostics) == 1
        assert len(traj.snapshots) == 1
        assert traj.times == [0.0]

    def test_constant_data_constant_diagnostics(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        traj = run(f0, Params(pe=0.3, de=1.0, dt=0.02), 0.2)
        first = traj.diagnostics[0]
        for rec in traj.diagnostics[1:]:
            assert rec.mass == pytest.approx(first.mass, rel=1e-14)
            assert rec.linf == pytest.approx(first.linf, rel=1e-14)
            assert rec.l2_to_const <= 1e-14

    def test_linear_decay_factor(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        traj = run(f0, Params(pe=0.0, de=1.0, dt=0.01), 1.0, snapshot_stride=10**9)
        ratio = traj.diagnostics[-1].l2_to_const / traj.diagnostics[0].l2_to_const
        assert ratio == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_mass_invariant_every_step(self, grid16):
        f0 = make_initial(
            SingleModeData(m=2.0, epsilon=0.4, mode=(1, 1, 1)), grid16
        )
        traj = run(f0, Params(pe=0.1, de=1.0, dt=0.01), 0.5, snapshot_stride=10**9)
        m0 = traj.mean0
        for rec in traj.diagnostics:
            assert abs(rec.mass - m0) <= 1e-13 * abs(m0)

    def test_linear_regime_modewise_exactness(self, grid16):
        from activeflow import RandomBandlimitedData

        f0 = make_initial(
            RandomBandlimitedData(m=1.0, epsilon=0.5, max_mode=4, seed=21), grid16
        )
        traj = run(f0, Params(pe=0.0, de=1.3, dt=0.01), 1.0, snapshot_stride=10**9)
        exact = exact_linear_solution(f0, 1.3, traj.times[-1])
        scale = np.abs(f0.values).max()
        assert np.abs(traj.snapshots[-1].values - exact.values).max() <= 1e-10 * scale

    def test_rejects_inadmissible_data(self, grid8):
        values = np.full(grid8.shape, -0.1)
        f0 = Field3(grid=grid8, values=values)
        with pytest.raises(AdmissibilityViolation):
            run(f0, Params(pe=0.1, de=1.0, dt=0.01), 1.0)

    def test_blowup_carries_step_index(self, grid8):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.9, mode=(1, 0, 0)), grid8)
        with pytest.raises(NumericalBlowup) as excinfo, pytest.warns(RuntimeWarning):
            run(f0, Params(pe=100.0, de=0.01, dt=5.0), 100.0)
        assert excinfo.value.step is not None

    def test_snapshot_stride_schedule(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        traj = run(f0, Params(pe=0.0, de=1.0, dt=0.1), 1.0, snapshot_stride=3)
        # steps 0..10; snapshots at 0, 3, 6, 9 and the final step 10
        assert traj.times == pytest.approx([0.0, 0.3, 0.6, 0.9, 1.0])


class TestAnisotropicGrid:
    """Unequal spatial and angular resolutions must not scramble the axes."""

    def test_mixed_mode_linear_decay(self):
        grid = make_grid(16, 8)
        f = field_from(grid, lambda x1, x2, th: np.cos(x1 + 2 * x2 + 3 * th))
        out = exact_linear_solution(f, 2.0, 0.1)
        # exponent: de * (1 + 4) + 9
        factor = math.exp(-(2.0 * 5 + 9) * 0.1)
        assert np.abs(out.values - factor * f.values).max() < 1e-14

    def test_run_matches_exact_solution(self):
        from activeflow import RandomBandlimitedData

        grid = make_grid(16, 8)
        f0 = make_initial(
            RandomBandlimitedData(m=1.0, epsilon=0.4, max_mode=3, seed=2), grid
        )
        traj = run(f0, Params(pe=0.0, de=1.7, dt=0.01), 0.5, snapshot_stride=10**9)
        exact = exact_linear_solution(f0, 1.7, traj.times[-1])
        scale = np.abs(f0.values).max()
        assert np.abs(traj.snapshots[-1].values - exact.values).max() <= 1e-12 * scale

    def test_mass_conserved_with_advection(self):
        from activeflow import RandomBandlimitedData

        grid = make_grid(16, 8)
        f0 = make_initial(
            RandomBandlimitedData(m=1.0, epsilon=0.4, max_mode=3, seed=2), grid
        )
        traj = run(f0, Params(pe=0.1, de=1.0, dt=0.01), 0.5, snapshot_stride=10**9)
        drift = max(abs(r.mass - traj.mean0) for r in traj.diagnostics)
        assert drift <= 1e-13 * traj.mean0


class TestRescaleField:
    def test_ell_formula(self):
        assert rescale_ell(1.0, 1.0, p_norm=2.0, v_norm=0.0) == pytest.approx(0.5)
        assert rescale_ell(0.25, 0.04, p_norm=1.0, v_norm=0.0) == pytest.approx(0.025)

    def test_radius_precondition(self, grid8):
        f = make_initial(ConstantData(m=1.0), grid8)
        with pytest.raises(RadiusTooLarge):
            rescale_field(f, 0.9, (1.0, (0.0, 0.0, 0.0)), 1.0, 0.04, 0.0, 1.0)
        with pytest.raises(RadiusTooLarge):
            # r below 1 but above sqrt(t0/2)
            rescale_field(f, 0.9, (1.0, (0.0, 0.0, 0.0)), 0.8, 0.04, 0.0, 1.0)

    def test_constant_field_scales_uniformly(self, grid8):
        f = make_initial(ConstantData(m=1.0), grid8)
        s = rescale_field(f, 0.9, (1.0, (0.0, 0.0, 0.0)), 0.5, 0.04, 0.0, 2.0)
        expected = s.ell * f.values[0, 0, 0]
        assert np.allclose(s.values, expected, rtol=1e-12)
        for g in s.grads:
            assert np.abs(g).max() < 1e-13

    def test_tau_and_interpolated_values(self, grid32):
        base = 1.0 / TWO_PI**3
        f = field_from(grid32, lambda x1, x2, th: base * (1.0 + 0.5 * np.cos(x1)))
        t0, xi0, r = 1.0, (0.3, 1.1, 2.0), 0.5
        s = rescale_field(f, 0.875, (t0, xi0), r, 0.04, 0.0, 1.0)
        assert s.tau == pytest.approx((0.875 - t0) / r**2)
        zeta = -1.0 + 2.0 * np.arange(32) / 32
        expected = s.ell * base * (1.0 + 0.5 * np.cos(xi0[0] + r * zeta))
        assert np.abs(s.values - expected[:, None, None]).max() < 1e-14
        # stretched-coordinate gradient picks up the factor ell * r
        expected_g = -s.ell * r * base * 0.5 * np.sin(xi0[0] + r * zeta)
        assert np.abs(s.grads[0] - expected_g[:, None, None]).max() < 1e-14
