"""Full-spectrum advection and step: the references the band-resident ones must match.

reference_advection_hat is a single-rfftn advection transform: it transforms
every mode and then applies the 2/3 mask, so the band block of
dynamics._advection_hat can be checked against it bit for bit.
reference_step_spectral is the integrating-factor midpoint step written over
whole half-spectrum arrays, the advection increments zero off the band.
"""

import numpy as np

from activeflow.spectral import _cache, synthesize


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


def embed(block, grid, dealias):
    """The half spectrum that holds an advection band block and zeros elsewhere."""
    full = np.zeros((grid.n_x, grid.n_x, grid.n_theta // 2 + 1), dtype=complex)
    if dealias:
        keep, planes = _cache(grid.n_x, grid.n_theta)["band"]
        full[:, :, :planes][np.ix_(keep, keep)] = block
    else:
        full[...] = block
    return full


def reference_step_spectral(coeffs, values, grid, params):
    """One integrating-factor midpoint step over whole half-spectrum arrays.

    The advection increments are +0.0 off the 2/3 band (not the signed zeros
    the mask multiply leaves), so the step's zero signs are the formula's.
    """
    c = _cache(grid.n_x, grid.n_theta)
    dt = params.dt
    e_half = np.exp(0.5 * dt * -(params.de * c["kx_sq"] + c["k3"] ** 2))
    e_full = e_half * e_half
    keep = dealias_mask(grid) if params.dealias else True

    def advection(v):
        return np.where(keep, reference_advection_hat(v, grid, params), 0.0)

    k1 = advection(values)
    mid = e_half * (coeffs + 0.5 * dt * k1)
    k2 = advection(synthesize(mid, grid))
    return e_full * coeffs + dt * e_half * k2
