"""Residual of the density moment equation, an independent check on trajectories.

Integrating the model over theta gives, for rho = int f dtheta and the
polarization p = int f e(theta) dtheta,
    d rho/dt + Pe div_x((1 - rho) p) = de Lap_x rho.
The residual takes d rho/dt by centered differences over snapshot times and
the spatial terms spectrally with numpy's 2-D transforms, so it shares no code
with the stepper beyond the snapshots themselves.
"""

import math

import numpy as np


def polarization(f):
    """(p1, p2): the angle integrals of f cos(theta) and f sin(theta)."""
    theta = f.grid.theta_values()
    p1 = (f.values * np.cos(theta)).sum(axis=2) * f.grid.dtheta
    p2 = (f.values * np.sin(theta)).sum(axis=2) * f.grid.dtheta
    return p1, p2


def _spatial_symbols(n):
    """i k_1, i k_2 (Nyquist zeroed) and -|k|^2 on the n x n spatial grid."""
    k = np.fft.fftfreq(n, d=1.0 / n)
    d = np.where(np.abs(k) == n // 2, 0.0, k)
    return 1j * d[:, None], 1j * d[None, :], -(k[:, None] ** 2 + k[None, :] ** 2)


def moment_residual(times, snapshots, params):
    """(t, L2(Omega) residual) for each interior snapshot."""
    grid = snapshots[0].grid
    ik1, ik2, lap = _spatial_symbols(grid.n_x)
    rhos = [s.values.sum(axis=2) * grid.dtheta for s in snapshots]
    out = []
    for i in range(1, len(snapshots) - 1):
        h1 = times[i] - times[i - 1]
        h2 = times[i + 1] - times[i]
        a = -h2 / (h1 * (h1 + h2))
        b = (h2 - h1) / (h1 * h2)
        c = h1 / (h2 * (h1 + h2))
        drho_dt = a * rhos[i - 1] + b * rhos[i] + c * rhos[i + 1]
        p1, p2 = polarization(snapshots[i])
        blocked = 1.0 - rhos[i]
        divergence = np.fft.ifft2(
            ik1 * np.fft.fft2(blocked * p1) + ik2 * np.fft.fft2(blocked * p2)
        ).real
        laplacian = np.fft.ifft2(lap * np.fft.fft2(rhos[i])).real
        residual = drho_dt + params.pe * divergence - params.de * laplacian
        out.append((times[i], math.sqrt(float((residual**2).sum()) * grid.dx**2)))
    return out
