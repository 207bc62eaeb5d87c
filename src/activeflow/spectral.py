"""Real 3D Fourier transforms, the per-grid tables, and the Poincare constant.

Transforms are normalized so the zero-mode coefficient equals the grid mean
of the field; mass conservation then reduces to one coefficient staying put.
The angle axis is the real-transform (half-spectrum) axis. The inverse is
split as irfftn runs it, x_inverse then theta_inverse; between them lies
mixed space, physical in x and half-spectral in theta, where the advection
product is taken, and forward_band is the x-only way back on the 2/3 band.
The stepper's band tables are built from _cache's band, once per grid and
params, in dynamics._plan.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .grid import TWO_PI, Field3, GridSpec


@lru_cache(maxsize=32)
def _cache(n_x: int, n_theta: int):
    """Per-grid wavenumber arrays, the 2/3 band, and angle samples; the one
    mask table per grid, from which dynamics._plan takes its band tables."""
    kx = np.fft.fftfreq(n_x, d=1.0 / n_x).astype(np.float64)
    kth = np.arange(n_theta // 2 + 1, dtype=np.float64)

    k1 = kx[:, None, None]
    k2 = kx[None, :, None]
    k3 = kth[None, None, :]
    k_sq = k1**2 + k2**2 + k3**2

    # First derivatives zero the (signed-ambiguous) Nyquist mode.
    d1 = np.where(np.abs(kx) == n_x // 2, 0.0, kx)[:, None, None]
    d2 = np.where(np.abs(kx) == n_x // 2, 0.0, kx)[None, :, None]
    d3 = np.where(kth == n_theta // 2, 0.0, kth)[None, None, :]

    # The 2/3 band as x-wavenumber indices and a count of theta planes.
    band = (np.flatnonzero(np.abs(kx) <= n_x // 3), n_theta // 3 + 1)

    # Full-spectrum angle wavenumbers and their derivative symbol (off-grid sampling).
    kt = np.fft.fftfreq(n_theta, d=1.0 / n_theta)

    # Parseval multiplicity of the half-spectrum angle axis.
    mult = np.full(n_theta // 2 + 1, 2.0)
    mult[0] = 1.0
    mult[-1] = 1.0

    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    return {
        "k1": k1,
        "k2": k2,
        "k3": k3,
        "d1": d1,
        "d2": d2,
        "d3": d3,
        "k_sq": k_sq,
        "grad_weight": TWO_PI**3 * mult[None, None, :] * k_sq,  # Parseval's, for grad_l2
        "kx_sq": k1**2 + k2**2,
        "band": band,
        "k3_full": kt,
        "d3_full": np.where(np.abs(kt) == n_theta // 2, 0.0, kt),
        "mult": mult[None, None, :],
        "cos_theta": np.cos(theta),
        "sin_theta": np.sin(theta),
    }


def forward(f: Field3) -> np.ndarray:
    """Half-spectrum coefficients, shape (n_x, n_x, n_theta//2 + 1), normalized
    so the zero mode is the grid mean of f."""
    return np.fft.rfftn(f.values) / f.values.size


def forward_band(mixed: np.ndarray, keep: np.ndarray) -> np.ndarray:
    """Unnormalized x transform of a mixed-space array on the kept x modes only.

    fft along x2 (in place: mixed is overwritten), then along x1 on the kept
    x2-lines, one 1-D line at a time as rfftn runs them after its rfft along
    theta, so on the rfft of a field the kept modes are rfftn's bit for bit.
    keep lists x-wavenumber indices in fftfreq order.
    """
    np.fft.fft(mixed, axis=1, out=mixed)
    spec = mixed.take(keep, axis=1)
    np.fft.fft(spec, axis=0, out=spec)
    return spec.take(keep, axis=0)


def x_inverse(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mixed-space samples of every theta plane coeffs holds, scaled so their
    irfft along theta is the field: irfftn's x calls, in place on one copy."""
    scaled = coeffs * (grid.n_x * grid.n_x * grid.n_theta)
    np.fft.ifft(scaled, axis=0, out=scaled)
    np.fft.ifft(scaled, axis=1, out=scaled)
    return scaled


def theta_inverse(mixed: np.ndarray, grid: GridSpec) -> np.ndarray:
    """The field samples of a whole mixed-space array: irfftn's last call."""
    return np.fft.irfft(mixed, grid.n_theta, axis=2)


def synthesize(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples of a mean-normalized half spectrum; the one expression for it,
    so a run resumed from a checkpointed spectrum rebuilds its field bit for
    bit: irfftn's axis order and calls, without its two temporaries.
    """
    return theta_inverse(x_inverse(coeffs, grid), grid)


def inverse(coeffs: np.ndarray, grid: GridSpec) -> Field3:
    """Inverse of forward; exact round trip up to rounding."""
    return Field3(grid=grid, values=synthesize(coeffs, grid))


def poincare_constant(grid: GridSpec) -> float:
    """1/sqrt(lambda_1) with lambda_1 the smallest nonzero |k|^2 on the grid,
    which is one axis's smallest nonzero k^2: that axis's mode attains it.

    Every admissible grid represents the modes |k| = 1, so this is 1.0;
    oracle.dense_poincare, a dense symmetric eigen-solve, cross-checks the
    value on small grids.
    """
    c = _cache(grid.n_x, grid.n_theta)
    squares = np.concatenate([c["k1"].ravel(), c["k3"].ravel()]) ** 2
    return 1.0 / math.sqrt(float(squares[squares > 0].min()))
