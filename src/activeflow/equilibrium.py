"""Stationary states and long-time behavior.

Covers the small-Peclet exponential convergence rate kappa and its validity
threshold, decay measurement against that rate, stationary residuals with a
time-marching stationary solver, and the angle-marginal heat-decay check
that holds at every Peclet number. Each reads the stepping core's carried
half spectrum: the residual is the Parseval norm of dynamics.rhs_hat on it,
and the angle marginal's deviation comes from its k_x = 0 row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diagnostics import fit_decay_rate, l2_to_const
from .dynamics import rhs_hat, states, step_count
from .errors import AdmissibilityViolation, NotConverged
from .grid import TWO_PI, Field3, GridSpec, Params, check_admissible
from .spectral import _cache, poincare_constant


@dataclass(frozen=True)
class EquilibriumReport:
    """Outcome of the small-Peclet decay verification."""

    kappa: float
    threshold: float
    is_small_pe: bool
    measured_rate: float
    bound_satisfied: bool
    final_l2_to_const: float


def kappa(params: Params, m: float, c_p: float) -> float:
    """Decay-rate constant for the distance to the constant state.

    kappa = ((min(de,1) / (2 c_p^2)) - (2 pi)^2 pe^2 (1+m)^2 / min(de,1)) / 2.
    May be negative at large Peclet number; callers gate on the threshold.
    """
    if c_p <= 0:
        raise ValueError("c_p must be positive")
    dmin = min(params.de, 1.0)
    return 0.5 * (
        0.5 * dmin / c_p**2 - TWO_PI**2 * params.pe**2 * (1.0 + m) ** 2 / dmin
    )


def peclet_threshold(params: Params, m: float, c_p: float) -> float:
    """Largest |pe| for which the decay rate constant is positive."""
    if c_p <= 0:
        raise ValueError("c_p must be positive")
    if m < 0:
        raise ValueError("m must be >= 0")
    dmin = min(params.de, 1.0)
    return dmin / (2.0 * math.sqrt(2.0) * math.pi * c_p * (1.0 + m))


def verify_small_pe_decay(f0: Field3, params: Params, t_end: float) -> EquilibriumReport:
    """Run the solver and check the exponential decay bound to the constant.

    Below the Peclet threshold the distance to the constant state must decay
    at least like exp(-(kappa - tol) t), tol = 1e-3, at every recorded step,
    and the slope fitted over [t_end/2, t_end] must be at least kappa - tol.
    The series (step dt, l2_to_const) is taken from states, one scalar per
    step; no field or record is kept. Above the threshold the report carries
    is_small_pe=False and no bound is checked.
    """
    c_p = poincare_constant(f0.grid)
    m = f0.mean()
    kap = kappa(params, m, c_p)
    thr = peclet_threshold(params, m, c_p)
    is_small = abs(params.pe) < thr

    tol = 1e-3
    n_steps = step_count(t_end, params.dt)
    series = [(s * params.dt, l2_to_const(f, m)) for s, _, f in states(f0, params, n_steps)]
    dev0 = series[0][1]
    rate, ok = float("nan"), False
    if is_small and dev0 < 1e-14:
        rate, ok = float("inf"), True  # constant data: the bound is vacuous
    elif is_small:
        pointwise_ok = all(
            l2 <= math.exp(-(kap - tol) * t) * dev0 + 1e-14 for t, l2 in series
        )
        rate = fit_decay_rate(series, (t_end / 2.0, t_end))
        ok = pointwise_ok and rate >= kap - tol
    return EquilibriumReport(
        kappa=kap,
        threshold=thr,
        is_small_pe=is_small,
        measured_rate=rate,
        bound_satisfied=ok,
        final_l2_to_const=series[-1][1],
    )


def stationary_residual(coeffs: np.ndarray, grid: GridSpec, params: Params) -> float:
    """L2 norm of the right-hand side of the field with half spectrum coeffs,
    by Parseval from rhs_hat; zero exactly at stationary states."""
    mult = _cache(grid.n_x, grid.n_theta)["mult"]
    return math.sqrt(float((TWO_PI**3 * mult * np.abs(rhs_hat(coeffs, grid, params)) ** 2).sum()))


def solve_stationary(
    f_guess: Field3, params: Params, tol: float, t_max: float
) -> tuple[Field3, float]:
    """Time-march until the stationary residual drops below tol.

    Iterates states over step_count(t_max, dt) steps and checks the residual
    of the carried spectrum at step 0, every fifth step and the last. Returns
    the field and its residual. Raises NotConverged when t_max is reached
    first, which at large Peclet number is an informative outcome rather
    than a failure.
    """
    report = check_admissible(f_guess)
    if not report.ok:
        raise AdmissibilityViolation("stationary guess is not admissible")

    n_steps = step_count(t_max, params.dt)
    for step, coeffs, f in states(f_guess, params, n_steps):
        if step % 5 == 0 or step == n_steps:
            residual = stationary_residual(coeffs, f.grid, params)
            if residual < tol:
                return f, residual
    raise NotConverged(t_max, residual)


def marginal_deviation(coeffs: np.ndarray, grid: GridSpec) -> float:
    """L2 deviation from its angle mean of h(theta), the x-integral of the
    field with half spectrum coeffs, by Parseval on the k_x = 0 row:
    (2 pi)^2 sqrt(2 pi sum_{m >= 1} mult_m |c[0, 0, m]|^2)."""
    mult = _cache(grid.n_x, grid.n_theta)["mult"][0, 0, 1:]
    return TWO_PI**2 * math.sqrt(TWO_PI * float((mult * np.abs(coeffs[0, 0, 1:]) ** 2).sum()))


def spatial_average_decay(times: Sequence[float], devs: Sequence[float]) -> tuple[float, bool]:
    """Heat-equation decay of the spatial averages h(t, theta).

    devs holds the marginal_deviation of h from its angle mean at each of
    times; it must decay like exp(-t) at EVERY Peclet number (the spatial
    divergence integrates away over the torus). Returns the fitted rate and
    whether the pairwise bounds exp(-(1 - 1e-3)(t - t0)) hold for all pairs.

    Degenerate (angle-independent) data makes the bound vacuous; the rate is
    then reported as +inf with bound_ok=True.
    """
    if len(devs) < 10:
        raise ValueError(f"need >= 10 snapshots, got {len(devs)}")
    if devs[0] < 1e-14:
        return float("inf"), True

    bound_ok = True
    for i in range(len(devs)):
        if devs[i] < 1e-13:
            continue  # below measurement precision; bound vacuous onward
        for j in range(i + 1, len(devs)):
            gap = times[j] - times[i]
            if devs[j] > math.exp(-(1.0 - 1e-3) * gap) * devs[i] + 1e-14:
                bound_ok = False

    rate = fit_decay_rate(list(zip(times, devs)), (times[0], times[-1]))
    return rate, bound_ok
