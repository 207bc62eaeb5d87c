"""Real 3D Fourier transforms, spectral calculus, and angle moments.

Transforms are normalized so the zero-mode coefficient equals the grid mean
of the field; mass conservation then reduces to one coefficient staying put.
The angle axis is the real-transform (half-spectrum) axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import TWO_PI, Field2, Field3, GridSpec

AXES = ("x1", "x2", "theta")


@lru_cache(maxsize=32)
def _cache(n_x: int, n_theta: int):
    """Per-grid wavenumber arrays, masks, and angle samples."""
    kx = np.fft.fftfreq(n_x, d=1.0 / n_x).astype(np.float64)
    kth = np.arange(n_theta // 2 + 1, dtype=np.float64)

    k1 = kx[:, None, None]
    k2 = kx[None, :, None]
    k3 = kth[None, None, :]

    # First derivatives zero the (signed-ambiguous) Nyquist mode.
    d1 = np.where(np.abs(kx) == n_x // 2, 0.0, kx)[:, None, None]
    d2 = np.where(np.abs(kx) == n_x // 2, 0.0, kx)[None, :, None]
    d3 = np.where(kth == n_theta // 2, 0.0, kth)[None, None, :]

    cut_x = n_x // 3
    cut_t = n_theta // 3
    dealias_mask = (
        (np.abs(k1) <= cut_x) & (np.abs(k2) <= cut_x) & (k3 <= cut_t)
    )
    # The same 2/3 band as x-wavenumber indices and a count of theta planes.
    band = (np.flatnonzero(np.abs(kx) <= cut_x), cut_t + 1)

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
        "k_sq": k1**2 + k2**2 + k3**2,
        "kx_sq": k1**2 + k2**2,
        "dealias": dealias_mask,
        "band": band,
        "mult": mult[None, None, :],
        "cos_theta": np.cos(theta),
        "sin_theta": np.sin(theta),
    }


@dataclass(frozen=True)
class SpectrumView:
    """Half-spectrum complex coefficients of a real field.

    coeffs has shape (n_x, n_x, n_theta//2 + 1); coeffs[0, 0, 0] is the grid
    mean of the field.
    """

    grid: GridSpec
    coeffs: np.ndarray


def forward(f: Field3) -> SpectrumView:
    """Real-to-complex transform with mean-preserving normalization."""
    n_total = f.values.size
    return SpectrumView(grid=f.grid, coeffs=np.fft.rfftn(f.values) / n_total)


def forward_band(values: np.ndarray, keep: np.ndarray, planes: int) -> np.ndarray:
    """Unnormalized rfftn(values) on the modes keep x keep x [0, planes) only.

    rfftn's axis order and pocketfft calls, one 1-D line at a time: rfft along
    theta, fft along x2 on the first `planes` planes, fft along x1 on the kept
    x2-lines. The kept modes are therefore rfftn's bit for bit. keep lists
    x-wavenumber indices in fftfreq order.
    """
    spec = np.fft.rfft(values, axis=2)[:, :, :planes]
    spec = np.fft.fft(spec, axis=1).take(keep, axis=1)
    np.fft.fft(spec, axis=0, out=spec)
    return spec[keep]


def synthesize(coeffs: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Samples of a mean-normalized half spectrum; the one expression for it,
    so a run resumed from a checkpointed spectrum rebuilds its field bit for bit.

    irfftn's axis order and calls, with the x1 and x2 inverses run in place
    on the one scaled copy: the same bits without two spectrum-sized temporaries.
    """
    n_total = grid.n_x * grid.n_x * grid.n_theta
    scaled = coeffs * n_total
    np.fft.ifft(scaled, axis=0, out=scaled)
    np.fft.ifft(scaled, axis=1, out=scaled)
    return np.fft.irfft(scaled, grid.n_theta, axis=2)


def inverse(s: SpectrumView) -> Field3:
    """Inverse of forward; exact round trip up to rounding."""
    return Field3(grid=s.grid, values=synthesize(s.coeffs, s.grid))


def dealias(s: SpectrumView) -> SpectrumView:
    """2/3-rule projection: zero modes with |k_i| > floor(n_i/3) on any axis."""
    c = _cache(s.grid.n_x, s.grid.n_theta)
    return SpectrumView(grid=s.grid, coeffs=s.coeffs * c["dealias"])


def compute_rho(f: Field3) -> Field2:
    """Angle-independent density rho(x) = integral of f dtheta."""
    return Field2(grid=f.grid, values=f.values.sum(axis=2) * f.grid.dtheta)


def compute_p(f: Field3) -> tuple[Field2, Field2]:
    """Polarization components: angle integrals of f cos(theta), f sin(theta)."""
    c = _cache(f.grid.n_x, f.grid.n_theta)
    dth = f.grid.dtheta
    p1 = (f.values * c["cos_theta"][None, None, :]).sum(axis=2) * dth
    p2 = (f.values * c["sin_theta"][None, None, :]).sum(axis=2) * dth
    return (Field2(grid=f.grid, values=p1), Field2(grid=f.grid, values=p2))


def poincare_constant(grid: GridSpec) -> float:
    """1/sqrt(lambda_1) with lambda_1 the smallest nonzero |k|^2 on the grid.

    Every admissible grid represents the modes |k| = 1, so this is 1.0; the
    dense power-iteration oracle cross-checks the value on small grids.
    """
    c = _cache(grid.n_x, grid.n_theta)
    k_sq = c["k_sq"]
    lam1 = float(k_sq[k_sq > 0].min())
    return 1.0 / math.sqrt(lam1)


# --- norms and energies -------------------------------------------------------

def l2_norm(f: Field3) -> float:
    """L2 norm over the box (rectangle rule)."""
    return math.sqrt(float((f.values**2).sum()) * f.grid.cell_volume)


def l2_norm_2d(g: Field2) -> float:
    """L2 norm over the spatial square."""
    da = g.grid.dx * g.grid.dx
    return math.sqrt(float((g.values**2).sum()) * da)


def mode_energy(s: SpectrumView) -> np.ndarray:
    """Per-coefficient contribution to the L2 energy integral.

    Summing the returned array gives the integral of f^2 over the box
    (Parseval for the mean-normalized half spectrum).
    """
    c = _cache(s.grid.n_x, s.grid.n_theta)
    return TWO_PI**3 * c["mult"] * np.abs(s.coeffs) ** 2


def grad_l2(f: Field3, s: SpectrumView | None = None) -> float:
    """L2 norm of the full space-angle gradient, evaluated spectrally."""
    if s is None:
        s = forward(f)
    c = _cache(f.grid.n_x, f.grid.n_theta)
    e = TWO_PI**3 * c["mult"] * c["k_sq"] * np.abs(s.coeffs) ** 2
    return math.sqrt(float(e.sum()))


# --- 2D spectral calculus for density-level residuals --------------------------

def deriv2(g: Field2, axis: str) -> Field2:
    """Spectral partial derivative of a spatial field along "x1" or "x2"."""
    if axis not in ("x1", "x2"):
        raise ValueError(f"axis must be 'x1' or 'x2', got {axis!r}")
    c = _cache(g.grid.n_x, g.grid.n_theta)
    d = c["d1" if axis == "x1" else "d2"][:, :, 0]
    ghat = np.fft.fft2(g.values)
    out = np.fft.ifft2(1j * d * ghat).real
    return Field2(grid=g.grid, values=out)


def laplacian2(g: Field2) -> Field2:
    """Spatial spectral Laplacian of a 2D field."""
    sym = -_cache(g.grid.n_x, g.grid.n_theta)["kx_sq"][:, :, 0]
    out = np.fft.ifft2(sym * np.fft.fft2(g.values)).real
    return Field2(grid=g.grid, values=out)


# --- off-grid evaluation (trigonometric interpolation) -------------------------

def sample_on_axes(
    f: Field3,
    x1_points: np.ndarray,
    x2_points: np.ndarray,
    theta_points: np.ndarray,
    derivative_axis: str | None = None,
) -> np.ndarray:
    """Evaluate the trigonometric interpolant of f on a tensor grid of points.

    Points may lie off the sampling grid; periodicity is implied. When
    derivative_axis is given, evaluates that spectral partial derivative
    instead of f itself.
    """
    grid = f.grid
    n, nt = grid.n_x, grid.n_theta
    coeffs = np.fft.fftn(f.values) / f.values.size
    kx = np.fft.fftfreq(n, d=1.0 / n)
    kt = np.fft.fftfreq(nt, d=1.0 / nt)
    if derivative_axis is not None:
        if derivative_axis not in AXES:
            raise ValueError(f"unknown axis {derivative_axis!r}")
        dx1 = np.where(np.abs(kx) == n // 2, 0.0, kx)
        dth = np.where(np.abs(kt) == nt // 2, 0.0, kt)
        mul = {
            "x1": 1j * dx1[:, None, None],
            "x2": 1j * dx1[None, :, None],
            "theta": 1j * dth[None, None, :],
        }[derivative_axis]
        coeffs = coeffs * mul
    e1 = np.exp(1j * np.outer(np.asarray(x1_points, float), kx))
    e2 = np.exp(1j * np.outer(np.asarray(x2_points, float), kx))
    e3 = np.exp(1j * np.outer(np.asarray(theta_points, float), kt))
    out = np.tensordot(e1, coeffs, axes=(1, 0))  # (A, k2, k3)
    out = np.tensordot(e2, out, axes=(1, 1)).transpose(1, 0, 2)  # (A, B, k3)
    out = np.tensordot(out, e3, axes=(2, 1))  # (A, B, C)
    return out.real
