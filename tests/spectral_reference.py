"""Spectral energies, a grid L2 norm and an explicit Euler time reference,
kept on the test side.

The solver computes its gradient norm and spectral tail inside
diagnostics.compute_record from the spectrum it carries. These are the
stand-alone forms they replaced, from a fresh transform, so the record can be
checked against them bit for bit; the rectangle-rule L2 norm of a field, the
physical-space side of the Parseval checks; and explicit Euler on the
spectral right-hand side, the time reference the stepper's order is measured
against.
"""

import math

import numpy as np

from activeflow import Field3, forward, rhs
from activeflow.spectral import _cache

TWO_PI = 2.0 * math.pi


def mode_energy(coeffs, grid):
    """Per-coefficient contribution to the integral of f^2 over the box (Parseval
    for the mean-normalized half spectrum): summing it gives that integral."""
    c = _cache(grid.n_x, grid.n_theta)
    return TWO_PI**3 * c["mult"] * np.abs(coeffs) ** 2


def l2_norm(f):
    """L2 norm over the box (rectangle rule)."""
    return math.sqrt(float((f.values**2).sum()) * f.grid.cell_volume)


def grad_l2(f):
    """L2 norm of the full space-angle gradient of f, evaluated spectrally."""
    c = _cache(f.grid.n_x, f.grid.n_theta)
    e = TWO_PI**3 * c["mult"] * c["k_sq"] * np.abs(forward(f)) ** 2
    return math.sqrt(float(e.sum()))


def spectral_tail(f, fraction=0.25):
    """Fraction of nonconstant L2 energy in modes beyond fraction * n on some axis."""
    n, nt = f.grid.n_x, f.grid.n_theta
    energy = mode_energy(forward(f), f.grid)
    kx = np.abs(np.fft.fftfreq(n, d=1.0 / n))
    kt = np.arange(nt // 2 + 1)
    tail = (
        (kx[:, None, None] > fraction * n)
        | (kx[None, :, None] > fraction * n)
        | (kt[None, None, :] > fraction * nt)
    )
    energy[0, 0, 0] = 0.0
    total = float(energy.sum())
    if total <= 1e-300:
        return 0.0
    return float(energy[tail].sum()) / total


def euler_run_spectral(f0, params, t_end, dt_fine):
    """Explicit Euler on the spectral right-hand side up to t_end.

    A time reference independent of the integrating-factor scheme, without
    the O(dx^2) bias the finite-difference oracle would add.
    """
    f = f0
    for _ in range(int(round(t_end / dt_fine))):
        f = Field3(grid=f0.grid, values=f.values + dt_fine * rhs(f, params).values)
    return f
