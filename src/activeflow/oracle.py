"""Independent reference implementations used to validate the spectral solver.

Everything here is deliberately low-tech: centered finite differences in flux
form, explicit Euler stepping, exact linear (zero-advection) solutions, and a
dense power-iteration eigenvalue check for the Poincare constant. None of it
shares discretization machinery with the main scheme beyond the field types.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IterationStall, NumericalBlowup
from .grid import Field3, GridSpec, Params
from .spectral import _cache, forward, inverse


@dataclass(frozen=True)
class OracleConfig:
    """Small-grid explicit-Euler configuration.

    dt_fine must respect the explicit stability bound dx^2 / (6 max(de, 1));
    a typical choice is the spectral time step divided by 50.
    """

    grid: GridSpec
    dt_fine: float

    def __post_init__(self):
        if self.grid.n_x > 16 or self.grid.n_theta > 16:
            raise ValueError("oracle grids are limited to 16 points per axis")
        if self.dt_fine <= 0:
            raise ValueError("dt_fine must be positive")

    def stability_bound(self, de: float) -> float:
        return self.grid.dx**2 / (6.0 * max(de, 1.0))


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


def fd_run(f0: Field3, params: Params, t_end: float, cfg: OracleConfig) -> Field3:
    """Explicit Euler with fd_rhs up to t_end (whole number of fine steps)."""
    if cfg.dt_fine > cfg.stability_bound(params.de):
        raise ValueError(
            f"dt_fine {cfg.dt_fine:g} exceeds the stability bound "
            f"{cfg.stability_bound(params.de):g}"
        )
    if f0.grid != cfg.grid:
        raise ValueError("initial data grid does not match the oracle grid")
    n_steps = int(round(t_end / cfg.dt_fine))
    v = f0.values.copy()
    f = f0
    for step in range(1, n_steps + 1):
        v = v + cfg.dt_fine * fd_rhs(f, params).values
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


def dense_poincare(grid: GridSpec, max_iter: int = 100_000) -> float:
    """1/sqrt(lambda_1) from the dense operator, by shifted power iteration.

    lambda_1 is the smallest nonzero eigenvalue of the negative spectral
    Laplacian restricted to zero-mean vectors. Grids are capped at 8 points
    per axis because the matrix is (n^3)^2.
    """
    if grid.n_x > 8 or grid.n_theta > 8:
        raise ValueError("dense_poincare grids are limited to 8 points per axis")
    mat = _dense_neg_laplacian(grid)
    n_total = mat.shape[0]
    sigma = 2.0 * (grid.n_x / 2) ** 2 + (grid.n_theta / 2) ** 2

    rng = np.random.default_rng(12345)
    v = rng.standard_normal(n_total)
    v -= v.mean()
    v /= np.linalg.norm(v)
    lam_prev = math.inf
    for _ in range(max_iter):
        w = sigma * v - mat @ v
        w -= w.mean()  # stay on the zero-mean subspace
        norm = np.linalg.norm(w)
        if norm == 0.0:
            raise IterationStall("power iteration collapsed to zero")
        v = w / norm
        mu = float(v @ (sigma * v - mat @ v))
        lam = sigma - mu
        if abs(lam - lam_prev) < 1e-13:
            return 1.0 / math.sqrt(lam)
        lam_prev = lam
    raise IterationStall(f"no convergence after {max_iter} iterations")
