import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from activeflow import diagnostics
from activeflow import (
    ConstantData,
    Field3,
    Params,
    SingleModeData,
    fit_decay_rate,
    lp_ladder,
    make_initial,
    run,
    truncation_energy,
)
from activeflow.diagnostics import (
    TruncationReducer,
    _spectral_grads,
    compute_record,
    truncation_energy_rescaled,
    truncation_levels,
)
from activeflow.dynamics import Trajectory, march, rescale_field
from activeflow.errors import NegativeField, NonpositiveValue, TooFewPoints, WindowTooShort
from activeflow.grid import make_grid
from activeflow.spectral import forward
from checks_reference import parabolic_norm
from conftest import field_from, random_field
from ladder_reference import reference_ladder
from moment_reference import moment_residual
from spectral_reference import grad_l2, spectral_tail

TWO_PI = 2.0 * math.pi


def constant_trajectory(grid, value, times):
    """Hand-built trajectory of identical constant snapshots."""
    snap = Field3(grid=grid, values=np.full(grid.shape, value))
    return Trajectory(
        grid=grid,
        mean0=value,
        times=list(times),
        snapshots=[snap] * len(times),
        diagnostics=[],
    )


def record(f):
    """The diagnostics record of f from a fresh transform."""
    return compute_record(f, forward(f), 0.0, f.mean())


class TestMass:
    """The record's mass column: the space-angle average <f>."""

    def test_constant(self, grid8):
        f = Field3(grid=grid8, values=np.full(grid8.shape, 3.7))
        assert record(f).mass == pytest.approx(3.7, rel=1e-15)

    def test_zero_mean_mode(self, grid16):
        # the cosine adds nothing; the record needs f >= 0, hence the offset
        f = field_from(grid16, lambda x1, x2, th: 1.0 + np.cos(x1))
        assert abs(record(f).mass - 1.0) < 1e-15

    def test_single_mode_mass(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.1, mode=(1, 0, 0)), grid16)
        assert record(f0).mass == pytest.approx(1.0 / TWO_PI**3, rel=1e-13)


def _reference_lp_ladder(f, k_max):
    """lp_ladder as it was before squaring in place: v = v * v per level."""
    dv = f.grid.cell_volume
    v = np.clip(f.values, 0.0, None)
    out = []
    for k in range(k_max + 1):
        out.append((float(v.sum()) * dv) ** (1.0 / 2**k))
        if k < k_max:
            v = v * v
    return out


class TestLpLadder:
    def test_constant_closed_form(self, grid8):
        c = 0.37
        f = Field3(grid=grid8, values=np.full(grid8.shape, c))
        ladder = lp_ladder(f, 6)
        for k, value in enumerate(ladder):
            assert value == pytest.approx(c * TWO_PI ** (3.0 / 2**k), rel=1e-12)

    def test_spike_increases_toward_sup(self, grid8):
        values = np.full(grid8.shape, 1e-6)
        values[0, 0, 0] = 5.0
        f = Field3(grid=grid8, values=values)
        ladder = lp_ladder(f, 6)
        assert all(b > a for a, b in zip(ladder, ladder[1:]))
        assert ladder[-1] <= 5.0

    def test_negative_rejected(self, grid8):
        values = np.full(grid8.shape, 1.0)
        values[1, 1, 1] = -1e-6
        with pytest.raises(NegativeField):
            lp_ladder(Field3(grid=grid8, values=values), 3)

    def test_tiny_negative_clipped(self, grid8):
        values = np.full(grid8.shape, 1.0)
        values[1, 1, 1] = -5e-11
        ladder = lp_ladder(Field3(grid=grid8, values=values), 2)
        assert all(np.isfinite(ladder))

    @settings(max_examples=40, deadline=None)
    @given(
        n_x=st.integers(2, 6).map(lambda k: 2 * k),
        n_theta=st.integers(2, 6).map(lambda k: 2 * k),
        k_max=st.integers(0, 8),
        scale=st.floats(0.05, 3.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_in_place_squaring_matches_repeated_squaring(
        self, n_x, n_theta, k_max, scale, seed
    ):
        grid = make_grid(n_x, n_theta)
        values = scale * np.random.default_rng(seed).random(grid.shape)
        values[0, 0, 0] = -5e-11  # clipped to zero
        f = Field3(grid=grid, values=values)
        before = f.values.copy()
        assert lp_ladder(f, k_max) == _reference_lp_ladder(f, k_max)
        assert np.array_equal(f.values, before)

    def test_normalized_monotonicity_random_fields(self, grid8):
        rng = np.random.default_rng(17)
        for _ in range(100):
            f = Field3(grid=grid8, values=np.abs(rng.standard_normal(grid8.shape)))
            ladder = lp_ladder(f, 6)
            normalized = [
                v / TWO_PI ** (3.0 / 2**k) for k, v in enumerate(ladder)
            ]
            assert all(
                b >= a * (1 - 1e-12) for a, b in zip(normalized, normalized[1:])
            )


class TestSpectralTail:
    """The record's spectral_tail column, at the default fraction 0.25."""

    def test_constant_is_zero(self, grid32):
        f = Field3(grid=grid32, values=np.full(grid32.shape, 2.0))
        assert record(f).spectral_tail == 0.0

    def test_low_mode_is_zero(self, grid32):
        f = field_from(grid32, lambda x1, x2, th: 1.0 + np.cos(x1))
        assert record(f).spectral_tail < 1e-25

    def test_high_mode_is_one(self, grid32):
        f = field_from(grid32, lambda x1, x2, th: 1.0 + np.cos(9 * x1))
        assert record(f).spectral_tail == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("delta", [1e-5, 1e-6, 1e-7, 1e-8])
    def test_small_high_mode_on_a_constant_is_one(self, grid16, delta):
        # the constant mode's energy is zeroed, not subtracted from the sum,
        # where it cancels the tail's to noise (0.0 at delta 1e-8 if it were)
        f = field_from(grid16, lambda x1, x2, th: 1.0 + delta * np.cos(7 * x1))
        assert record(f).spectral_tail == pytest.approx(1.0, rel=1e-12)
        assert spectral_tail(f) == record(f).spectral_tail


class TestParabolicNorm:
    """The record-based parabolic norm of checks_reference, which criterion
    9's streamed norm equals bit for bit (tests/test_verification.py)."""

    def test_constant_trajectory(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        traj = run(f0, Params(pe=0.0, de=1.0, dt=0.1), 1.0)
        c = 1.0 / TWO_PI**3
        assert parabolic_norm(traj) == pytest.approx(c * TWO_PI**1.5, rel=1e-12)

    def test_linear_run_closed_form(self, grid16):
        # Zero-advection single mode: the sup term is the initial L2 norm and
        # the gradient term is a geometric series over the exact decay.
        eps, de, dt, t_end = 0.5, 1.0, 0.01, 0.5
        f0 = make_initial(SingleModeData(m=1.0, epsilon=eps, mode=(1, 0, 0)), grid16)
        traj = run(f0, Params(pe=0.0, de=de, dt=dt), t_end, snapshot_stride=10**9)
        base = 1.0 / TWO_PI**3
        l2_sq = base**2 * TWO_PI**3 * (1 + eps**2 / 2)
        grad0_sq = base**2 * eps**2 / 2 * TWO_PI**3
        n = len(traj.diagnostics) - 1
        q = math.exp(-2 * de * dt)
        grad_term = grad0_sq * dt * (1 - q**n) / (1 - q)
        expected = math.sqrt(l2_sq + grad_term)
        assert parabolic_norm(traj) == pytest.approx(expected, rel=1e-8)

    def test_dominates_sup_norm(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.3, mode=(1, 1, 0)), grid16)
        traj = run(f0, Params(pe=0.05, de=1.0, dt=0.01), 0.2)
        sup = max(
            math.sqrt(r.l2_to_const**2 + traj.mean0**2 * TWO_PI**3)
            for r in traj.diagnostics
        )
        assert parabolic_norm(traj) >= sup


class TestTruncationEnergy:
    def test_levels(self):
        levels = truncation_levels(3)
        assert levels == pytest.approx([0.0, 0.25, 0.375, 0.4375])

    def test_constant_below_half(self, grid8):
        traj = constant_trajectory(grid8, 0.4, np.linspace(0.0, 1.0, 9))
        ladder = truncation_energy(traj, (0.0, 1.0), 6)
        for k, energy in enumerate(ladder.energies):
            if ladder.levels[k] >= 0.4:
                assert energy == 0.0
            else:
                expected = (0.4 - ladder.levels[k]) ** 2 * TWO_PI**3
                assert energy == pytest.approx(expected, rel=1e-12)

    def test_constant_one_energy_formula(self, grid8):
        traj = constant_trajectory(grid8, 1.0, np.linspace(0.0, 1.0, 9))
        ladder = truncation_energy(traj, (0.0, 1.0), 6)
        for c_k, energy in zip(ladder.levels, ladder.energies):
            assert energy == pytest.approx((1.0 - c_k) ** 2 * TWO_PI**3, rel=1e-12)

    def test_window_too_short(self, grid8):
        traj = constant_trajectory(grid8, 0.4, np.linspace(0.0, 1.0, 4))
        with pytest.raises(WindowTooShort):
            truncation_energy(traj, (0.0, 1.0), 6)

    def test_vanishes_above_sup(self, grid8):
        traj = constant_trajectory(grid8, 0.3, np.linspace(0.0, 1.0, 9))
        ladder = truncation_energy(traj, (0.0, 1.0), 6)
        for c_k, energy in zip(ladder.levels, ladder.energies):
            if c_k >= 0.3:
                assert energy == 0.0

    def test_gradient_term_closed_form(self, grid16):
        # f = 0.6 + 0.1 cos(x1) sits entirely above C_0 = 0 and C_1 = 1/4, so
        # the truncation gradient is the full spectral gradient there:
        # integral |grad T_k f|^2 = 0.01/2 * (2 pi)^3.
        snap = field_from(grid16, lambda x1, x2, th: 0.6 + 0.1 * np.cos(x1))
        times = list(np.linspace(0.0, 1.0, 5))
        traj = Trajectory(
            grid=grid16,
            mean0=0.6,
            times=times,
            snapshots=[snap] * len(times),
            diagnostics=[],
        )
        ladder = truncation_energy(traj, (0.0, 1.0), 1)
        grad_sq = 0.005 * TWO_PI**3
        for k, c_k in enumerate(ladder.levels):
            # sup term: max over the window of the truncated square integral
            sup = float(((np.clip(snap.values - c_k, 0.0, None)) ** 2).sum())
            sup *= grid16.cell_volume
            span = 1.0 - ladder.window_times[k]
            assert ladder.energies[k] == pytest.approx(sup + span * grad_sq, rel=1e-10)

    def test_rescaled_constant_slices(self, grid8):
        f = Field3(grid=grid8, values=np.full(grid8.shape, 0.3))
        slices = [
            rescale_field(f, 1.0 + 0.25 * tau, (1.0, (0.0, 0.0, 0.0)), 0.5, 1.0, 0.0, 0.1)
            for tau in np.linspace(-1.0, 0.0, 9)
        ]
        ladder = truncation_energy_rescaled(slices, 4)
        ell = slices[0].ell
        value = ell * 0.3
        # unit-cube measure: volume 8 instead of (2 pi)^3
        for c_k, energy in zip(ladder.levels, ladder.energies):
            expected = max(value - c_k, 0.0) ** 2 * 8.0
            assert energy == pytest.approx(expected, rel=1e-10, abs=1e-30)


CELL = 0.3  # not a power of two, so the order of the products shows


def ladder_inputs(seed, n_snap, amplitude):
    """Increasing times, fields in [0, amplitude) and random gradients on 4^3."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(0.05, 0.2, n_snap)).tolist()
    fields = [amplitude * rng.random((4, 4, 4)) for _ in times]
    grads = [tuple(rng.standard_normal((4, 4, 4)) for _ in range(3)) for _ in times]
    return times, fields, grads


def reduce_all(window, k_max, times, fields, grads, state=None):
    ladder = TruncationReducer(window, k_max, CELL, state)
    for t, values, g in zip(times, fields, grads):
        ladder.add(t, values, g)
    return ladder


class TestTruncationReducer:
    """The streaming reducer against the list-based reference, float for float."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_snap=st.integers(1, 14),
        k_max=st.integers(0, 6),
        t_a=st.floats(0.0, 0.8),
        width=st.floats(0.1, 2.5),
    )
    def test_matches_reference(self, seed, n_snap, k_max, t_a, width):
        times, fields, grads = ladder_inputs(seed, n_snap, amplitude=1.2)
        window = (t_a, t_a + width)
        ladder = reduce_all(window, k_max, times, fields, grads)
        try:
            want = reference_ladder(times, fields, grads, CELL, window, k_max)
        except WindowTooShort as exc:
            with pytest.raises(WindowTooShort) as info:
                ladder.finish(require_span=False)
            assert str(info.value) == str(exc)
            return
        got = ladder.finish(require_span=False)
        assert (got.window_times, got.energies) == want

    def test_high_amplitude_upper_rungs(self):
        # fields reach 1.2 > C_k for every k, so no rung is trivially zero
        times, fields, grads = ladder_inputs(3, 12, amplitude=1.2)
        window = (times[0], times[-1])
        got = reduce_all(window, 6, times, fields, grads).finish()
        want = reference_ladder(times, fields, grads, CELL, window, 6)
        assert all(e > 0.0 for e in got.energies)
        assert (got.window_times, got.energies) == want

    def test_leaves_the_callers_arrays_alone(self):
        # RescaledSlice.grads are shared with the caller: read-only here, so
        # any write into them raises, and their bits must come back unchanged
        times, fields, grads = ladder_inputs(5, 8, amplitude=1.2)
        before = [(v.copy(), tuple(g.copy() for g in gs)) for v, gs in zip(fields, grads)]
        for v, gs in zip(fields, grads):
            for a in (v, *gs):
                a.setflags(write=False)
        got = reduce_all((times[0], times[-1]), 6, times, fields, grads).finish()
        for (v0, gs0), v, gs in zip(before, fields, grads):
            assert np.array_equal(v0.view(np.uint64), v.view(np.uint64))
            for g0, g in zip(gs0, gs):
                assert np.array_equal(g0.view(np.uint64), g.view(np.uint64))
        want = reference_ladder(times, fields, grads, CELL, (times[0], times[-1]), 6)
        assert (got.window_times, got.energies) == want

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), cut=st.integers(0, 12))
    def test_state_resumes_through_json(self, seed, cut):
        times, fields, grads = ladder_inputs(seed, 12, amplitude=1.2)
        window = (times[1], times[-2])
        whole = reduce_all(window, 4, times, fields, grads)
        head = reduce_all(window, 4, times[:cut], fields[:cut], grads[:cut])
        state = json.loads(json.dumps(head.state()))
        tail = reduce_all(window, 4, times[cut:], fields[cut:], grads[cut:], state)
        assert tail.finish() == whole.finish()

    def test_trajectory_feed_matches_reference(self, grid8):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 1)), grid8)
        traj = run(f0, Params(pe=0.3, de=1.0, dt=0.02), 0.4, snapshot_stride=2)
        fields = [s.values for s in traj.snapshots]
        grads = [_spectral_grads(forward(s), grid8) for s in traj.snapshots]
        want = reference_ladder(
            traj.times, fields, grads, grid8.cell_volume, (0.1, 0.4), 3
        )
        got = truncation_energy(traj, (0.1, 0.4), 3)
        assert (got.window_times, got.energies) == want

    def test_span_errors_keep_their_text(self, grid8):
        traj = constant_trajectory(grid8, 0.4, [0.12, 0.2, 0.3, 0.4])
        with pytest.raises(ValueError) as info:
            truncation_energy(traj, (0.1, 0.4), 2)
        assert str(info.value) == (
            "window (0.1, 0.4) outside trajectory span [0.12, 0.4]"
        )
        empty = constant_trajectory(grid8, 0.4, [])
        with pytest.raises(WindowTooShort, match="trajectory holds no snapshots"):
            truncation_energy(empty, (0.1, 0.4), 2)


class TestTruncationLevelKinds:
    """add classes each held level by the snapshot's range. A snapshot given
    as a half spectrum takes a whole-grid level's gradient term by Parseval
    and synthesizes gradients only for a level that cuts the field; every
    other number is the eager gradients' bit for bit."""

    @settings(max_examples=40, deadline=None)
    @given(
        n_x=st.integers(2, 8).map(lambda k: 2 * k),
        n_theta=st.integers(2, 10).map(lambda k: 2 * k),
        lo=st.floats(0.01, 0.45),
        span=st.floats(0.02, 0.6),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n_x=8, n_theta=8, lo=0.2, span=0.3, seed=0)  # C_0 whole, C_1..C_6 partial
    @example(n_x=16, n_theta=6, lo=0.3, span=0.1, seed=1)  # C_0, C_1 whole, C_2 partial
    def test_spectrum_snapshots_match_eager_gradients(self, n_x, n_theta, lo, span, seed):
        grid = make_grid(n_x, n_theta)
        rng = np.random.default_rng(seed)
        eager, spectral = (TruncationReducer((0.0, 1.0), 6, grid.cell_volume)
                           for _ in range(2))
        for t in np.linspace(0.0, 1.0, 6):
            values = lo + span * rng.random(grid.shape)
            coeffs = forward(Field3(grid=grid, values=values))
            eager.add(t, values, _spectral_grads(coeffs, grid))
            spectral.add(t, values, coeffs=coeffs, grid=grid)
            assert spectral.sup == eager.sup
            for c_k, want, got in zip(eager.levels, eager.pending, spectral.pending):
                if want is None:  # not held yet
                    assert got is None
                elif c_k >= values.max():
                    assert want == got == 0.0
                elif c_k < values.min():
                    assert got == pytest.approx(want, rel=1e-13, abs=0.0)
                else:
                    assert got == want

    def test_gradients_only_for_a_cutting_level(self, grid8, monkeypatch):
        calls = []
        monkeypatch.setattr(diagnostics, "_spectral_grads",
                            lambda *a: calls.append(1) or _spectral_grads(*a))
        ladder = TruncationReducer((0.0, 1.0), 3, grid8.cell_volume)
        for t, (lo, hi) in zip((0.0, 0.5, 0.75, 1.0), [(0.1, 0.2), (0.1, 0.2),
                                                        (0.3, 0.35), (0.2, 0.3)]):
            values = np.linspace(lo, hi, math.prod(grid8.shape)).reshape(grid8.shape)
            ladder.add(t, values, coeffs=forward(Field3(grid=grid8, values=values)),
                       grid=grid8)
        # every level is held from t = 0.5 on; C_1 = 1/4 lies above the field
        # there, below it at 0.75 (C_2 = 3/8 above), and only at t = 1 inside
        assert len(calls) == 1
        assert ladder.sup[2] == 0.0 and ladder.pending[1] > 0.0


class TestMomentResidual:
    """Trajectories satisfy the density moment equation (tests/moment_reference.py)."""

    def test_constant_run_is_zero(self, grid8):
        f0 = make_initial(ConstantData(m=1.0), grid8)
        params = Params(pe=0.3, de=1.0, dt=0.05)
        traj = run(f0, params, 0.5, snapshot_stride=2)
        residuals = [r for _, r in moment_residual(traj.times, traj.snapshots, params)]
        assert max(residuals) <= 1e-12

    def test_second_order_in_snapshot_spacing(self, grid16):
        # Pe = 0 pure-mode run: the only residual source is the centered time
        # difference, so halving the snapshot spacing divides it by 4.
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        maxima = []
        for dt in (0.04, 0.02, 0.01):
            params = Params(pe=0.0, de=1.0, dt=dt)
            traj = run(f0, params, 0.4, snapshot_stride=1)
            maxima.append(max(r for _, r in moment_residual(traj.times, traj.snapshots, params)))
        orders = [math.log2(maxima[i] / maxima[i + 1]) for i in range(2)]
        assert min(orders) >= 1.9

    def test_small_pe_residual_refines(self, grid16):
        # With advection on, the residual still collapses at second order in
        # the snapshot spacing (spatial terms are spectrally exact).
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.3, mode=(1, 1, 0)), grid16)
        maxima = []
        for dt in (0.04, 0.02):
            params = Params(pe=0.05, de=1.0, dt=dt)
            traj = run(f0, params, 0.4, snapshot_stride=1)
            maxima.append(max(r for _, r in moment_residual(traj.times, traj.snapshots, params)))
        assert math.log2(maxima[0] / maxima[1]) >= 1.9


class TestFitDecayRate:
    def test_exact_exponential(self):
        ts = np.linspace(0.0, 2.0, 40)
        series = [(t, math.exp(-3.0 * t)) for t in ts]
        assert fit_decay_rate(series, (0.0, 2.0)) == pytest.approx(3.0, abs=1e-10)

    def test_constant_series(self):
        series = [(t, 0.7) for t in np.linspace(0.0, 1.0, 20)]
        assert fit_decay_rate(series, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-12)

    def test_amplitude_scaling_invariance(self):
        ts = np.linspace(0.0, 2.0, 25)
        a = fit_decay_rate([(t, math.exp(-2.0 * t)) for t in ts], (0.0, 2.0))
        b = fit_decay_rate([(t, 1e6 * math.exp(-2.0 * t)) for t in ts], (0.0, 2.0))
        assert a == pytest.approx(b, abs=1e-10)

    def test_linear_run_rate(self, grid16):
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
        traj = run(f0, Params(pe=0.0, de=1.0, dt=0.01), 1.0, snapshot_stride=10**9)
        series = [(r.t, r.l2_to_const) for r in traj.diagnostics]
        rate = fit_decay_rate(series, (0.0, 1.0))
        assert rate == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_rejected(self):
        series = [(t, 1.0 - t) for t in np.linspace(0.0, 2.0, 30)]
        with pytest.raises(NonpositiveValue):
            fit_decay_rate(series, (0.0, 2.0))

    def test_too_few_points(self):
        series = [(t, math.exp(-t)) for t in np.linspace(0.0, 1.0, 5)]
        with pytest.raises(TooFewPoints):
            fit_decay_rate(series, (0.0, 1.0))


class TestRecordFromSpectrum:
    """Records read the spectrum march carries instead of a fresh transform."""

    @pytest.mark.parametrize("dealias", [True, False])
    def test_carried_density_and_sup_norm_match_a_fresh_field(self, grid16, dealias):
        f0 = Field3(grid=grid16, values=0.01 * random_field(grid16, 4, True).values)
        params = Params(pe=0.5, de=0.2, dt=0.002, dealias=dealias)
        steps = list(march(f0, params, 6))
        for step, coeffs, f in steps:
            # march computed the sup norm; the advection reads the density
            # off the mixed-space array, so the record computes Field3.rho
            assert "linf" in vars(f)
            assert "rho" not in vars(f)
            carried = compute_record(f, coeffs, 0.002 * step, f0.mean())
            fresh = compute_record(Field3(grid=grid16, values=f.values), coeffs,
                                   0.002 * step, f0.mean())
            assert dataclasses.astuple(carried) == dataclasses.astuple(fresh)

    @pytest.mark.parametrize("kind", ["desk", "random"])
    def test_carried_matches_fresh_transform(self, grid16, kind):
        if kind == "desk":
            f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid16)
            params = Params(pe=0.05, de=1.0, dt=0.01)
        else:
            f0 = Field3(grid=grid16, values=0.01 * random_field(grid16, 4, True).values)
            params = Params(pe=0.5, de=0.2, dt=0.002)
        for _, coeffs, f in march(f0, params, 10):
            pass
        carried = compute_record(f, coeffs, 0.1, f0.mean())
        fresh = compute_record(f, forward(f), 0.1, f0.mean())
        for name in ("t", "mass", "l2_to_const", "linf", "rho_min", "rho_max", "lp_ladder"):
            assert getattr(carried, name) == getattr(fresh, name)
        assert carried.grad_l2 == pytest.approx(fresh.grad_l2, rel=1e-12, abs=0.0)
        assert abs(carried.spectral_tail - fresh.spectral_tail) <= 1e-12
        # one |coeffs|^2 for both, in the stand-alone forms' operation order
        assert fresh.grad_l2 == grad_l2(f)
        assert fresh.spectral_tail == spectral_tail(f)
        dev_sq = float(((f.values - f0.mean()) ** 2).sum())
        assert fresh.l2_to_const == math.sqrt(dev_sq * f.grid.cell_volume)
        if kind == "random":
            assert fresh.spectral_tail > 1e-6  # the tail carries real energy here
