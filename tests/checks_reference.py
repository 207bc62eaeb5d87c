"""Record-based acceptance checks: the reference the state-reading ones must match.

These are criteria 1-4 and 6-8 as they read per-step DiagnosticsRecords from
dynamics.run (with a snapshot stride past the run's end). The checks in
activeflow.verification compute only the observables they read from
dynamics.states; each detail string here must equal theirs.
"""

import math

import numpy as np

from activeflow.diagnostics import fit_decay_rate
from activeflow.dynamics import run
from activeflow.equilibrium import kappa, peclet_threshold
from activeflow.grid import Params, RandomBandlimitedData, SingleModeData, make_grid, make_initial
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


DETAILS = {1: mass_detail, 2: pe0_detail, 3: oracle_detail, 4: decay_detail,
           6: rho_detail, 7: lp_detail, 8: tail_detail}
