"""Trajectory-based acceptance checks: the reference the state-reading ones must match.

These are criteria 1-9 as they read per-step DiagnosticsRecords and strided
snapshots from dynamics.run (for 1-4 and 6-8 with a snapshot stride past the
run's end), with the trajectory forms of the angle-marginal decay and the
parabolic norm that criteria 5 and 9 used. The checks in
activeflow.verification compute only the observables they read from
dynamics.states; each detail string here must equal theirs.
"""

import math

import numpy as np

from activeflow.diagnostics import fit_decay_rate, truncation_energy_rescaled
from activeflow.dynamics import rescale_field, run, step_count
from activeflow.equilibrium import kappa, peclet_threshold
from activeflow.grid import TWO_PI, Params, RandomBandlimitedData, SingleModeData, make_grid, make_initial
from activeflow.oracle import OracleConfig, exact_linear_solution, fd_run
from activeflow.spectral import poincare_constant

END_ONLY = 10**9


def _linf(a):
    return float(np.abs(a).max())


def mass_detail(grid, params):
    spec = RandomBandlimitedData(m=1.0, epsilon=0.5, max_mode=max(2, grid.n_x // 4), seed=11)
    records = run(make_initial(spec, grid), params, 2000 * params.dt, END_ONLY).diagnostics
    m0 = records[0].mass
    drift = max(abs(r.mass - m0) for r in records) / abs(m0)
    return f"relative mass drift {drift:.3e} over 2000 steps (tol 1e-12)"


def pe0_detail(grid, params):
    p = Params(pe=0.0, de=2.0, dt=0.01, dealias=params.dealias)
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid)
    traj = run(f0, p, 1.0, END_ONLY)
    exact = exact_linear_solution(f0, p.de, traj.times[-1])
    amp = _linf(exact.values - exact.values.mean())
    rel = _linf(traj.snapshots[-1].values - exact.values) / amp
    return f"relative Linf error {rel:.3e} at t=1, de=2 (tol 1e-8)"


def oracle_detail(grid, params):
    diffs = []
    n_steps = max(1, round(0.1 / params.dt))
    t_cmp = n_steps * params.dt
    for n in (4, 8, 16):
        g = make_grid(n, n)
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.2, mode=(1, 0, 1)), g)
        p = Params(pe=params.pe, de=params.de, dt=params.dt, dealias=False)
        spec_final = run(f0, p, t_cmp, END_ONLY).snapshots[-1]
        bound = g.dx**2 / (6.0 * max(p.de, 1.0))
        n_fine = int(math.ceil(t_cmp / (bound / 50.0)))
        fd_final = fd_run(f0, p, t_cmp, OracleConfig(grid=g, dt_fine=t_cmp / n_fine))
        diffs.append(_linf(spec_final.values - fd_final.values))
    orders = [math.log2(diffs[i] / diffs[i + 1]) for i in range(2)]
    return (
        f"Linf diff at 8^3 = {diffs[1]:.3e} (tol 1e-3), "
        f"orders {', '.join(f'{o:.2f}' for o in orders)} (need >= 1.8)"
    )


def decay_detail(grid, params):
    """The small-Peclet branch only: the tested configs lie below the threshold."""
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid)
    c_p, m, tol, t_end = poincare_constant(grid), f0.mean(), 1e-3, 10.0
    kap, thr = kappa(params, m, c_p), peclet_threshold(params, m, c_p)
    assert abs(params.pe) < thr
    records = run(f0, params, t_end, END_ONLY).diagnostics
    dev0 = records[0].l2_to_const
    pointwise_ok = all(
        r.l2_to_const <= math.exp(-(kap - tol) * r.t) * dev0 + 1e-14 for r in records
    )
    rate = fit_decay_rate([(r.t, r.l2_to_const) for r in records], (t_end / 2.0, t_end))
    ok = pointwise_ok and rate >= kap  # the check's bound, rate >= kap - tol, and rate >= kap
    return (
        f"kappa={kap:.6f}, fitted rate={rate:.4f}, "
        f"threshold={thr:.6f}, pointwise+rate bound "
        f"{'held' if ok else 'violated'}"
    )


def rho_detail(grid, params):
    pe_eff = math.copysign(min(abs(params.pe), 0.1), params.pe)
    p = Params(pe=pe_eff, de=params.de, dt=params.dt, dealias=True)
    stress = SingleModeData(m=30.0, epsilon=0.3, mode=(1, 1, 0))
    noise = RandomBandlimitedData(m=30.0, epsilon=0.25, max_mode=max(2, grid.n_x // 4), seed=5)
    rho_min, rho_max = math.inf, -math.inf
    for spec in (stress, noise):
        records = run(make_initial(spec, grid), p, 5.0, END_ONLY).diagnostics
        rho_min = min(rho_min, min(r.rho_min for r in records))
        rho_max = max(rho_max, max(r.rho_max for r in records))
    return (
        f"rho in [{rho_min:.6f}, {rho_max:.6f}] to t=5 at pe={pe_eff:g} "
        "(tol 1e-6 beyond [0, 1])"
    )


def lp_detail(grid, params):
    spec = RandomBandlimitedData(m=1.0, epsilon=0.8, max_mode=max(2, grid.n_x // 4), seed=7)
    records = run(make_initial(spec, grid), params, 10.0, END_ONLY).diagnostics
    linf0 = records[0].linf
    sup_l64 = max(r.lp_ladder[6] for r in records)
    return f"sup_t ||f||_L64 = {sup_l64:.4f} vs 2*||f0||_inf = {2 * linf0:.4f} to t=10"


def tail_detail(grid, params):
    spec = RandomBandlimitedData(m=1.0, epsilon=0.5, max_mode=grid.n_x // 2, seed=13)
    records = run(make_initial(spec, grid), params, 1.0, END_ONLY).diagnostics
    tail0, tail1 = records[0].spectral_tail, records[-1].spectral_tail
    return f"tail fraction {tail0:.4f} -> {tail1:.3e} at t=1 (need 100x collapse)"


def spatial_average_decay(traj):
    """Heat-equation decay of the spatial averages h(t, theta) of a trajectory.

    h is the x-integral of f per snapshot, by the rectangle rule; its
    deviation from the angle mean must decay like exp(-t) at every Peclet
    number. Returns the fitted rate and whether the pairwise bounds
    exp(-(1 - 1e-3)(t - t0)) hold for all snapshot pairs; +inf and True for
    angle-independent data.
    """
    if len(traj.snapshots) < 10:
        raise ValueError(f"need >= 10 snapshots, got {len(traj.snapshots)}")
    da = traj.grid.dx * traj.grid.dx
    dth = traj.grid.dtheta
    devs = []
    for snap in traj.snapshots:
        h = snap.values.sum(axis=(0, 1)) * da
        h_mean = h.mean()
        devs.append(math.sqrt(float(((h - h_mean) ** 2).sum()) * dth))
    if devs[0] < 1e-14:
        return float("inf"), True
    bound_ok = True
    for i in range(len(devs)):
        if devs[i] < 1e-13:
            continue  # below measurement precision; bound vacuous onward
        for j in range(i + 1, len(devs)):
            gap = traj.times[j] - traj.times[i]
            if devs[j] > math.exp(-(1.0 - 1e-3) * gap) * devs[i] + 1e-14:
                bound_ok = False
    rate = fit_decay_rate(list(zip(traj.times, devs)), (traj.times[0], traj.times[-1]))
    return rate, bound_ok


def parabolic_norm(traj):
    """sqrt(max_t ||f||_L2^2 + sum_steps dt * ||grad f||_L2^2) over the records.

    The time integral of the gradient energy uses the left-endpoint rectangle
    rule. ||f||^2 is reconstructed from the distance-to-constant record and
    the conserved mean (they are orthogonal).
    """
    records = traj.diagnostics
    if not records:
        raise ValueError("trajectory has no diagnostics records")
    const_sq = traj.mean0**2 * TWO_PI**3
    sup_sq = max(r.l2_to_const**2 + const_sq for r in records)
    grad_sq = 0.0
    for a, b in zip(records[:-1], records[1:]):
        grad_sq += (b.t - a.t) * a.grad_l2**2
    return math.sqrt(sup_sq + grad_sq)


def average_detail(grid, params):
    details = []
    for pe in (0.0, 0.05, 0.3):
        p = Params(pe=pe, de=params.de, dt=params.dt, dealias=params.dealias)
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(0, 0, 1)), grid)
        traj = run(f0, p, 5.0, snapshot_stride=max(1, step_count(5.0, p.dt) // 40))
        rate, bound_ok = spatial_average_decay(traj)
        details.append(f"pe={pe:g}: rate={rate:.5f} bound={'ok' if bound_ok else 'BAD'}")
    return "; ".join(details) + " (need rate >= 0.999)"


def degiorgi_run(grid, params):
    """Criterion 9's trajectory and its parabolic norm."""
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 1, 1)), grid)
    p = Params(pe=params.pe, de=params.de, dt=min(params.dt, 0.025), dealias=params.dealias)
    traj = run(f0, p, 1.0, snapshot_stride=max(1, step_count(1.0, p.dt) // 33))
    return traj, parabolic_norm(traj)


def degiorgi_detail(grid, params):
    traj, p_norm = degiorgi_run(grid, params)
    t0, r, delta = traj.times[-1], 0.5, 0.04
    slices = [
        rescale_field(snap, t, (t0, (0.0, 0.0, 0.0)), r, delta, v_norm=0.0, p_norm=p_norm)
        for t, snap in zip(traj.times, traj.snapshots)
        if t >= t0 - r**2 - 1e-12
    ]
    e = truncation_energy_rescaled(slices, k_max=6).energies
    nonincreasing = all(e[i + 1] <= e[i] + 1e-15 for i in range(len(e) - 1))
    return (
        f"E_0={e[0]:.3e}, E_6={e[6]:.3e}, "
        f"{'nonincreasing' if nonincreasing else 'NOT monotone'} "
        f"(delta={delta}, r={r})"
    )


DETAILS = {1: mass_detail, 2: pe0_detail, 3: oracle_detail, 4: decay_detail,
           5: average_detail, 6: rho_detail, 7: lp_detail, 8: tail_detail,
           9: degiorgi_detail}
