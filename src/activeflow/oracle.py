"""Independent reference implementations used to validate the spectral solver.

Everything here is deliberately low-tech: centered finite differences in flux
form, explicit Euler stepping, exact linear (zero-advection) solutions, and a
dense symmetric eigen-solve for the Poincare constant. None of it
shares discretization machinery with the main scheme beyond the field types.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NumericalBlowup
from .grid import Field3, GridSpec, Params
from .spectral import _cache, forward, inverse


def stability_bound(grid: GridSpec, de: float) -> float:
    """Explicit Euler's stability bound dx^2 / (6 max(de, 1)) for fd_rhs."""
    return grid.dx**2 / (6.0 * max(de, 1.0))


def fd_rhs(f: Field3, params: Params) -> Field3:
    """Second-order centered-difference right-hand side in flux form.

    The advective flux (1 - rho) f e(theta) is differenced at cell faces
    (F_{i+1/2} = average of neighbor fluxes), so the discrete total mass is
    conserved exactly up to floating-point associativity.
    """
    g = f.grid
    v = f.values
    dx, dth = g.dx, g.dtheta
    c = _cache(g.n_x, g.n_theta)

    rho = v.sum(axis=2) * dth
    blocked = (1.0 - rho)[:, :, None] * v
    g1 = blocked * c["cos_theta"][None, None, :]
    g2 = blocked * c["sin_theta"][None, None, :]

    # (F_{i+1/2} - F_{i-1/2}) / dx with F_{i+1/2} = (g_i + g_{i+1}) / 2
    div = (np.roll(g1, -1, axis=0) - np.roll(g1, 1, axis=0)) / (2.0 * dx)
    div += (np.roll(g2, -1, axis=1) - np.roll(g2, 1, axis=1)) / (2.0 * dx)

    lap = (
        params.de
        * (np.roll(v, 1, axis=0) + np.roll(v, -1, axis=0) - 2.0 * v)
        / dx**2
    )
    lap += (
        params.de
        * (np.roll(v, 1, axis=1) + np.roll(v, -1, axis=1) - 2.0 * v)
        / dx**2
    )
    lap += (np.roll(v, 1, axis=2) + np.roll(v, -1, axis=2) - 2.0 * v) / dth**2

    return Field3(grid=g, values=lap - params.pe * div)


def fd_run(f0: Field3, params: Params, t_end: float, dt_fine: float) -> Field3:
    """Explicit Euler with fd_rhs up to t_end (whole number of fine steps).

    f0's grid has at most 16 points per axis, and dt_fine lies in
    (0, stability_bound]; a typical choice is the spectral time step / 50.
    """
    if f0.grid.n_x > 16 or f0.grid.n_theta > 16:
        raise ValueError("oracle grids are limited to 16 points per axis")
    bound = stability_bound(f0.grid, params.de)
    if not 0 < dt_fine <= bound:
        raise ValueError(f"dt_fine {dt_fine:g} is not in (0, {bound:g}], the stability bound")
    n_steps = int(round(t_end / dt_fine))
    v = f0.values.copy()
    f = f0
    for step in range(1, n_steps + 1):
        v = v + dt_fine * fd_rhs(f, params).values
        if not np.isfinite(v).all():
            raise NumericalBlowup("oracle run produced non-finite values", step=step)
        f = Field3(grid=f0.grid, values=v)
    return f


def exact_linear_solution(f0: Field3, de: float, t: float) -> Field3:
    """Zero-advection solution: mode-wise decay exp(-(de |k_x|^2 + k_th^2) t)."""
    c = _cache(f0.grid.n_x, f0.grid.n_theta)
    decay = np.exp(-(de * c["kx_sq"] + c["k3"] ** 2) * t)
    return inverse(decay * forward(f0), f0.grid)


def _dense_neg_laplacian(grid: GridSpec) -> np.ndarray:
    """Dense matrix of the negative spectral space-angle Laplacian."""
    c = _cache(grid.n_x, grid.n_theta)
    sym = c["k_sq"]
    n_total = grid.n_x * grid.n_x * grid.n_theta
    mat = np.empty((n_total, n_total))
    basis = np.zeros(grid.shape)
    flat = basis.reshape(-1)
    for j in range(n_total):
        flat[j] = 1.0
        col = np.fft.irfftn(sym * np.fft.rfftn(basis), s=grid.shape, axes=(0, 1, 2))
        mat[:, j] = col.reshape(-1)
        flat[j] = 0.0
    return mat


def dense_poincare(grid: GridSpec) -> float:
    """1/sqrt(lambda_1) from the dense operator, by a symmetric eigen-solve.

    lambda_1 is the smallest eigenvalue of the negative spectral Laplacian
    above 1e-9: the zero eigenvalue belongs to the constants. Grids are
    capped at 8 points per axis because the matrix is (n^3)^2.
    """
    if grid.n_x > 8 or grid.n_theta > 8:
        raise ValueError("dense_poincare grids are limited to 8 points per axis")
    eigs = np.linalg.eigvalsh(_dense_neg_laplacian(grid))
    return 1.0 / math.sqrt(float(eigs[eigs > 1e-9].min()))
