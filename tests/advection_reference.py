"""Whole-array advection and step: the references the band-resident ones must match.

reference_advection_hat is the physical-product advection transform: one
full rfftn of (1 - rho) f, then the 2/3 mask. reference_mixed_advection_hat
takes the same product in mixed space (physical in x, half spectrum in theta)
over every mode, as dynamics._advection_hat does on the band, so the band
block can be checked against it bit for bit. reference_step_spectral and
reference_mixed_step are the integrating-factor midpoint step written over
whole half-spectrum arrays, the advection increments zero off the band: the
first with the physical product, which march must match to rounding, the
second with the mixed-space one, which march must match bit for bit.
reference_band, reference_semigroup and reference_advection_symbols are the
stepper's tables as three per-table builds, which dynamics._plan must equal.
"""

import numpy as np

from activeflow.spectral import _cache, synthesize, x_inverse


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


def _shifted(spec, grid, params):
    """-Pe div_x(B e(theta)) from the whole unnormalized half spectrum B:
    cos and sin shift the theta index by one, conjugates at -k_x past the edges."""
    c = _cache(grid.n_x, grid.n_theta)
    neg = -np.arange(grid.n_x) % grid.n_x
    edge_lo = spec[:, :, 1][neg][:, neg].conj()
    edge_hi = spec[:, :, grid.n_theta // 2 - 1][neg][:, neg].conj()
    scale = -0.5j * params.pe / (grid.n_x * grid.n_x * grid.n_theta)
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


def reference_advection_hat(values, grid, params):
    """Half spectrum of -Pe div_x((1 - rho) f e(theta)) from one full rfftn."""
    rho = values.sum(axis=2) * grid.dtheta
    return _shifted(np.fft.rfftn((1.0 - rho)[:, :, None] * values), grid, params)


def reference_mixed_advection_hat(mixed, grid, params):
    """The same from f in mixed space: rho from plane 0, (1 - rho) times every
    plane, planes 0 and n_theta/2 made real, then fft along x2 and x1."""
    rho = mixed[:, :, 0].real * grid.dtheta
    product = (1.0 - rho)[:, :, None] * mixed
    product[:, :, 0].imag = 0.0
    product[:, :, -1].imag = 0.0
    spec = np.fft.fft(np.fft.fft(product, axis=1), axis=0)
    return _shifted(spec, grid, params)


def embed(block, grid, dealias):
    """The half spectrum that holds an advection band block and zeros elsewhere."""
    full = np.zeros((grid.n_x, grid.n_x, grid.n_theta // 2 + 1), dtype=complex)
    if dealias:
        keep, planes = _cache(grid.n_x, grid.n_theta)["band"]
        full[:, :, :planes][np.ix_(keep, keep)] = block
    else:
        full[...] = block
    return full


def _midpoint_step(coeffs, grid, params, advection):
    """mid = e_half (c + dt/2 k1), then e_full c + dt e_half k2, with k the
    advection of a stage's spectrum, +0.0 off the 2/3 band (not the signed
    zeros the mask multiply leaves), so the step's zero signs are the formula's."""
    c = _cache(grid.n_x, grid.n_theta)
    dt = params.dt
    e_half = np.exp(0.5 * dt * -(params.de * c["kx_sq"] + c["k3"] ** 2))
    e_full = e_half * e_half
    keep = dealias_mask(grid) if params.dealias else True
    k1 = np.where(keep, advection(coeffs), 0.0)
    mid = e_half * (coeffs + 0.5 * dt * k1)
    k2 = np.where(keep, advection(mid), 0.0)
    return e_full * coeffs + dt * e_half * k2


def reference_step_spectral(coeffs, grid, params):
    """One midpoint step with the physical product: each stage synthesized."""
    return _midpoint_step(coeffs, grid, params, lambda spec: reference_advection_hat(
        synthesize(spec, grid), grid, params))


def reference_mixed_step(coeffs, grid, params):
    """One midpoint step with the mixed-space product: each stage x-inverted."""
    return _midpoint_step(coeffs, grid, params, lambda spec: reference_mixed_advection_hat(
        x_inverse(spec, grid), grid, params))


def reference_band(n_x, n_theta, dealias):
    """The advection's band tables, per grid and dealias setting: keep and
    planes span the band block keep x keep x [0, planes), flat and flat_mixed
    are its flat indices in the half spectrum and the mixed planes, neg sends
    each kept x-wavenumber pair to its negative."""
    c = _cache(n_x, n_theta)
    half = n_theta // 2 + 1
    keep, planes = c["band"] if dealias else (np.arange(n_x), half)
    mixed = min(planes + 1, half)
    neg = -np.arange(keep.size) % keep.size
    block = np.ix_(keep, keep, np.arange(planes))
    return dict(keep=keep, planes=planes, mixed=mixed, neg=np.ix_(neg, neg),
                flat=np.ravel_multi_index(block, (n_x, n_x, half)),
                flat_mixed=np.ravel_multi_index(block, (n_x, n_x, mixed)))


def reference_semigroup(n_x, n_theta, de, dt, dealias):
    """e_mixed, e_full, band_half, band_dt_half: exp(L dt/2) on the mixed
    planes and exp(L dt) for L = -(de |k_x|^2 + k_theta^2), then exp(L dt/2)
    and dt exp(L dt/2) on the advection band."""
    c = _cache(n_x, n_theta)
    sym = -(de * c["kx_sq"] + c["k3"] ** 2)
    half = np.exp(0.5 * dt * sym)
    b = reference_band(n_x, n_theta, dealias)
    flat = b["flat"]
    return (np.ascontiguousarray(half[:, :, : b["mixed"]]), half * half,
            half.take(flat), (dt * half).take(flat))


def reference_advection_symbols(n_x, n_theta, pe, dealias):
    """a_lo and a_hi, -Pe (d1 -/+ i d2) / (2 n_total) on the band."""
    c, keep = _cache(n_x, n_theta), reference_band(n_x, n_theta, dealias)["keep"]
    d1, d2 = c["d1"][keep], c["d2"][:, keep]
    scale = -0.5j * pe / (n_x * n_x * n_theta)
    return scale * (d1 - 1j * d2), scale * (d1 + 1j * d2)
