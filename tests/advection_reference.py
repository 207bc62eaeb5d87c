"""Full-spectrum advection transform: the reference the band-limited one must match.

This is the single-rfftn dynamics._advection_hat that the band-limited
version replaced, kept here so the kept modes can be checked against it bit
for bit. It transforms every mode and then applies the 2/3 mask.
"""

import numpy as np

from activeflow.spectral import _cache


def dealias_mask(grid):
    """The 2/3 rule on the half spectrum: |k_i| <= floor(n_i / 3) on every axis."""
    kx = np.abs(np.fft.fftfreq(grid.n_x, d=1.0 / grid.n_x))
    kt = np.arange(grid.n_theta // 2 + 1)
    cut = grid.n_x // 3
    return (
        (kx[:, None, None] <= cut)
        & (kx[None, :, None] <= cut)
        & (kt[None, None, :] <= grid.n_theta // 3)
    )


def reference_advection_hat(values, grid, params):
    """Half spectrum of -Pe div_x((1 - rho) f e(theta)) from one full rfftn."""
    c = _cache(grid.n_x, grid.n_theta)
    rho = values.sum(axis=2) * grid.dtheta
    spec = np.fft.rfftn((1.0 - rho)[:, :, None] * values)
    neg = -np.arange(grid.n_x) % grid.n_x
    edge_lo = spec[:, :, 1][neg][:, neg].conj()
    edge_hi = spec[:, :, grid.n_theta // 2 - 1][neg][:, neg].conj()
    scale = -0.5j * params.pe / values.size
    a_lo = scale * (c["d1"] - 1j * c["d2"])
    a_hi = scale * (c["d1"] + 1j * c["d2"])
    out = np.empty_like(spec)
    np.multiply(spec[:, :, :-1], a_lo, out=out[:, :, 1:])
    out[:, :, 0] = a_lo[:, :, 0] * edge_lo
    spec[:, :, 1:] *= a_hi
    out[:, :, :-1] += spec[:, :, 1:]
    out[:, :, -1] += a_hi[:, :, 0] * edge_hi
    if params.dealias:
        out *= dealias_mask(grid)
    return out
