"""The acceptance checks: analytic exactness, oracle equivalence, and rate bounds.

Each check encodes one acceptance criterion at its pinned tolerance. The
configuration supplies the working scale (grid, pe, de, dt, dealias); the
desk-scale defaults reproduce the criteria as stated. Checks whose meaning
requires advection report SKIP when the configured Peclet number is zero.

A check that reads observables along a trajectory iterates dynamics.states
and computes only those from each (step, coeffs, field), from the carried
spectrum where it can: criterion 5 reads the angle marginal off its k_x = 0
row, criterion 9 streams the parabolic norm and keeps only the fields its
cylinder needs, and criterion 10 takes the residual of the spectrum. No
check builds a dynamics.Trajectory.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .diagnostics import (compute_record, grad_l2, l2_to_const, lp_ladder,
                          truncation_energy_rescaled)
from .dynamics import rescale_field, states, step_count
from .equilibrium import (marginal_deviation, solve_stationary, spatial_average_decay,
                          stationary_residual, verify_small_pe_decay)
from .errors import ActiveFlowError
from .grid import (TWO_PI, ConstantData, GridSpec, Params, RandomBandlimitedData,
                   SingleModeData, make_grid, make_initial)
from .oracle import dense_poincare, exact_linear_solution, fd_run, stability_bound
from .spectral import forward

PASS, FAIL, SKIP = "PASS", "FAIL", "SKIP"


@dataclass(frozen=True)
class CheckResult:
    criterion: int
    name: str
    status: str
    detail: str
    elapsed: float


def _linf(a: np.ndarray) -> float:
    return float(np.abs(a).max())


def check_mass_conservation(grid: GridSpec, params: Params):
    """Relative mass drift over 2000 steps stays below 1e-12."""
    spec = RandomBandlimitedData(
        m=1.0, epsilon=0.5, max_mode=max(2, grid.n_x // 4), seed=11
    )
    f0 = make_initial(spec, grid)
    m0 = f0.mean()
    drift = max(abs(f.mean() - m0) for _, _, f in states(f0, params, 2000)) / abs(m0)
    status = PASS if drift <= 1e-12 else FAIL
    return status, f"relative mass drift {drift:.3e} over 2000 steps (tol 1e-12)"


def check_pe0_exactness(grid: GridSpec, params: Params):
    """Zero-advection single mode decays exactly through the semigroup."""
    p = Params(pe=0.0, de=2.0, dt=0.01, dealias=params.dealias)
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid)
    n_steps = step_count(1.0, p.dt)
    for _, _, f1 in states(f0, p, n_steps):
        pass
    exact = exact_linear_solution(f0, p.de, n_steps * p.dt)
    amp = _linf(exact.values - exact.values.mean())
    rel = _linf(f1.values - exact.values) / amp
    status = PASS if rel <= 1e-8 else FAIL
    return status, f"relative Linf error {rel:.3e} at t=1, de=2 (tol 1e-8)"


def oracle_equivalence(params: Params) -> dict:
    """Spectral stepping against the flux-form finite-difference oracle.

    Runs both to t_compare on the 4^3, 8^3 and 16^3 grids and passes when the
    8^3 Linf difference is at most 1e-3 and every mutual convergence order
    is at least 1.8.
    """
    diffs = []
    levels = (4, 8, 16)
    n_steps = max(1, round(0.1 / params.dt))
    t_cmp = n_steps * params.dt
    for n in levels:
        g = make_grid(n, n)
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.2, mode=(1, 0, 1)), g)
        p = Params(pe=params.pe, de=params.de, dt=params.dt, dealias=False)
        for _, _, spec_final in states(f0, p, n_steps):
            pass
        # Keep the oracle's own time error well below its spatial error.
        n_fine = int(math.ceil(t_cmp / (stability_bound(g, p.de) / 50.0)))
        fd_final = fd_run(f0, p, t_cmp, t_cmp / n_fine)
        diffs.append(_linf(spec_final.values - fd_final.values))
    orders = [
        math.log2(diffs[i] / diffs[i + 1]) for i in range(len(diffs) - 1)
    ]
    return {
        "levels": list(levels),
        "t_compare": t_cmp,
        "linf_diffs": diffs,
        "orders": orders,
        "pass": diffs[1] <= 1e-3 and all(o >= 1.8 for o in orders),
    }


def check_oracle_equivalence(grid: GridSpec, params: Params):
    """Spectral stepping matches the flux-form finite-difference oracle."""
    rep = oracle_equivalence(params)
    status = PASS if rep["pass"] else FAIL
    return status, (
        f"Linf diff at 8^3 = {rep['linf_diffs'][1]:.3e} (tol 1e-3), "
        f"orders {', '.join(f'{o:.2f}' for o in rep['orders'])} (need >= 1.8)"
    )


def check_decay_bound(grid: GridSpec, params: Params):
    """Distance to the constant state decays at least at rate kappa."""
    c_dense = dense_poincare(make_grid(8, 8))
    if abs(c_dense - 1.0) > 1e-8:
        return FAIL, f"dense Poincare constant {c_dense!r} != 1 (tol 1e-8)"
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid)
    rep = verify_small_pe_decay(f0, params, t_end=10.0)
    if not rep.is_small_pe:
        return SKIP, (
            f"|pe|={abs(params.pe):g} at or above threshold {rep.threshold:.6f}; "
            "no decay claim"
        )
    ok = rep.bound_satisfied and rep.measured_rate >= rep.kappa
    status = PASS if ok else FAIL
    return status, (
        f"kappa={rep.kappa:.6f}, fitted rate={rep.measured_rate:.4f}, "
        f"threshold={rep.threshold:.6f}, pointwise+rate bound "
        f"{'held' if ok else 'violated'}"
    )


def check_spatial_average_decay(grid: GridSpec, params: Params):
    """Angle marginal decays like the heat equation at every Peclet number."""
    details = []
    ok = True
    for pe in (0.0, 0.05, 0.3):
        p = Params(pe=pe, de=params.de, dt=params.dt, dealias=params.dealias)
        f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(0, 0, 1)), grid)
        n = step_count(5.0, p.dt)
        series = [(s * p.dt, marginal_deviation(c, grid))  # at every (n // 40)th step and n
                  for s, c, _ in states(f0, p, n) if s % max(1, n // 40) == 0 or s == n]
        rate, bound_ok = spatial_average_decay(*zip(*series))
        ok = ok and bound_ok and rate >= 1.0 - 1e-3
        details.append(f"pe={pe:g}: rate={rate:.5f} bound={'ok' if bound_ok else 'BAD'}")
    return (PASS if ok else FAIL), "; ".join(details) + " (need rate >= 0.999)"


def check_rho_bounds(grid: GridSpec, params: Params):
    """Density stays within [0, 1] up to 1e-6 for admissible data."""
    pe_eff = math.copysign(min(abs(params.pe), 0.1), params.pe)
    p = Params(pe=pe_eff, de=params.de, dt=params.dt, dealias=True)
    # Two data sets: one starting within 1.3% of the rho = 1 ceiling, one
    # broadband random draw.
    stress = SingleModeData(m=30.0, epsilon=0.3, mode=(1, 1, 0))
    noise = RandomBandlimitedData(
        m=30.0, epsilon=0.25, max_mode=max(2, grid.n_x // 4), seed=5
    )
    rho_min, rho_max = math.inf, -math.inf
    for spec in (stress, noise):
        for _, _, f in states(make_initial(spec, grid), p, step_count(5.0, p.dt)):
            rho_min = min(rho_min, float(f.rho.min()))
            rho_max = max(rho_max, float(f.rho.max()))
    ok = rho_min >= -1e-6 and rho_max <= 1.0 + 1e-6
    return (PASS if ok else FAIL), (
        f"rho in [{rho_min:.6f}, {rho_max:.6f}] to t=5 at pe={pe_eff:g} "
        "(tol 1e-6 beyond [0, 1])"
    )


def check_lp_ladder_bound(grid: GridSpec, params: Params):
    """Top of the L^(2^k) ladder stays within twice the initial sup norm."""
    spec = RandomBandlimitedData(
        m=1.0, epsilon=0.8, max_mode=max(2, grid.n_x // 4), seed=7
    )
    f0 = make_initial(spec, grid)
    n_steps = step_count(10.0, params.dt)
    sup_l64 = max(lp_ladder(f, 6)[6] for _, _, f in states(f0, params, n_steps))
    ok = sup_l64 <= 2.0 * f0.linf
    return (PASS if ok else FAIL), (
        f"sup_t ||f||_L64 = {sup_l64:.4f} vs 2*||f0||_inf = {2 * f0.linf:.4f} to t=10"
    )


def check_smoothing_tail(grid: GridSpec, params: Params):
    """High-mode energy fraction collapses by 100x within unit time."""
    spec = RandomBandlimitedData(
        m=1.0, epsilon=0.5, max_mode=grid.n_x // 2, seed=13
    )
    f0 = make_initial(spec, grid)
    n = step_count(1.0, params.dt)
    tail0, tail1 = (compute_record(f, c, s * params.dt, f0.mean()).spectral_tail
                    for s, c, f in states(f0, params, n) if s in (0, n))
    if tail0 <= 0.0:
        return FAIL, "initial data carries no tail energy; check is vacuous"
    ok = tail1 <= 0.01 * tail0
    return (PASS if ok else FAIL), (
        f"tail fraction {tail0:.4f} -> {tail1:.3e} at t=1 (need 100x collapse)"
    )


def check_degiorgi_ladder(grid: GridSpec, params: Params):
    """Truncation energies of the rescaled solution collapse up the ladder."""
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 1, 1)), grid)
    # The ladder needs k_max + 1 snapshots inside the rescaled window; cap dt
    # so coarse configs still sample it densely enough.
    p = Params(
        pe=params.pe, de=params.de, dt=min(params.dt, 0.025), dealias=params.dealias
    )
    n = step_count(1.0, p.dt)
    stride = max(1, n // 33)
    t0, r, delta = n * p.dt, 0.5, 0.04
    # the parabolic norm sqrt(max_t ||f||^2 + sum_steps dt ||grad f||^2), the
    # gradient term by the left-endpoint rule; ||f||^2 is the distance to the
    # conserved mean squared plus the mean's part (they are orthogonal)
    m = f0.mean()
    const_sq = m**2 * TWO_PI**3
    sup_sq, grad_sq, kept = 0.0, 0.0, []
    for s, c, f in states(f0, p, n):
        t = s * p.dt
        sup_sq = max(sup_sq, l2_to_const(f, m) ** 2 + const_sq)
        if s < n:
            grad_sq += ((s + 1) * p.dt - t) * grad_l2(np.abs(c) ** 2, grid) ** 2
        if (s % stride == 0 or s == n) and t >= t0 - r**2 - 1e-12:
            kept.append((t, f))
    p_norm = math.sqrt(sup_sq + grad_sq)
    slices = [
        rescale_field(f, t, (t0, (0.0, 0.0, 0.0)), r, delta, v_norm=0.0, p_norm=p_norm)
        for t, f in kept
    ]
    ladder = truncation_energy_rescaled(slices, k_max=6)
    e = ladder.energies
    nonincreasing = all(e[i + 1] <= e[i] + 1e-15 for i in range(len(e) - 1))
    ok = e[0] > 0.0 and nonincreasing and e[6] <= 0.1 * e[0]
    return (PASS if ok else FAIL), (
        f"E_0={e[0]:.3e}, E_6={e[6]:.3e}, "
        f"{'nonincreasing' if nonincreasing else 'NOT monotone'} "
        f"(delta={delta}, r={r})"
    )


def check_stationary_states(grid: GridSpec, params: Params):
    """Constants are stationary; small-Pe marching lands on the constant."""
    const = make_initial(ConstantData(m=1.0), grid)
    res_const = stationary_residual(forward(const), grid, params)
    if res_const > 1e-13:
        return FAIL, f"constant-state residual {res_const:.3e} above 1e-13"
    f0 = make_initial(SingleModeData(m=1.0, epsilon=0.5, mode=(1, 0, 0)), grid)
    sol, res = solve_stationary(f0, params, tol=1e-8, t_max=100.0)
    dev = _linf(sol.values - f0.mean())
    mass_err = abs(sol.mean() - f0.mean()) / abs(f0.mean())
    ok = dev <= 1e-6 and mass_err <= 1e-12
    return (PASS if ok else FAIL), (
        f"constant residual {res_const:.2e}; marched residual {res:.2e}, "
        f"Linf distance to constant {dev:.3e} (tol 1e-6), mass drift {mass_err:.1e}"
    )


# (criterion number, name, needs advection, callable)
CHECKS = (
    (1, "mass-conservation", False, check_mass_conservation),
    (2, "pe0-analytic-exactness", False, check_pe0_exactness),
    (3, "oracle-equivalence", True, check_oracle_equivalence),
    (4, "small-pe-decay-bound", False, check_decay_bound),
    (5, "spatial-average-decay", False, check_spatial_average_decay),
    (6, "rho-bounds", True, check_rho_bounds),
    (7, "lp-ladder-bound", True, check_lp_ladder_bound),
    (8, "smoothing-tail", True, check_smoothing_tail),
    (9, "degiorgi-ladder", True, check_degiorgi_ladder),
    (10, "stationary-states", False, check_stationary_states),
)


def run_check(criterion: int, config: RunConfig) -> CheckResult:
    """Run a single acceptance check by criterion number."""
    for num, name, needs_advection, fn in CHECKS:
        if num != criterion:
            continue
        started = time.perf_counter()
        if needs_advection and config.params.pe == 0.0:
            return CheckResult(
                num, name, SKIP, "requires a nonzero Peclet number", 0.0
            )
        try:
            status, detail = fn(config.grid, config.params)
        except ActiveFlowError as exc:
            status, detail = FAIL, f"{type(exc).__name__}: {exc}"
        return CheckResult(num, name, status, detail, time.perf_counter() - started)
    raise ValueError(f"unknown criterion number {criterion}")


def run_all(config: RunConfig) -> list[CheckResult]:
    return [run_check(num, config) for num, _, _, _ in CHECKS]
