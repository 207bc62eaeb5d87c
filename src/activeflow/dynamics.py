"""Right-hand side assembly, IMEX time stepping, and trajectory generation.

The diffusion part is applied exactly in Fourier space through its semigroup;
the nonlinear advection term is advanced with a two-stage integrating-factor
midpoint rule. The advection is in divergence form, so its zero mode vanishes
identically and the stepper conserves mass to machine precision.

march is the one stepping core: it carries the half-spectrum state from step
to step and owns the CFL warning and the blowup checks. states puts step 0
in front of it and step_count gives the number of steps to a time, so every
command (simulate, the checks, the decay and stationary reports) shares one
trajectory loop; a resumed simulate continues with march alone, and
step_imex is its first step. rhs_hat is the right-hand side on a carried
spectrum. No command calls run, which collects a Trajectory of records and
snapshots, or the field form rhs: they serve the tests and the benchmark's
tracer.

The advection works in mixed space, physical in x and half-spectral in
theta: (1 - rho) does not depend on theta, so it multiplies the angle modes
directly and only the x axes are transformed around the product. A step
makes nine numpy FFT calls, one along theta: the x inverse and the 2/3-band
x forward of each stage, and the irfft that gives the new state its samples
(its x inverse is the next stage-1 input).

The advection increments stay band-resident: _advection_hat returns only the
band block, and the step applies it to the gathered band modes after one
semigroup multiply over the whole spectrum per stage. Their tables (band
indices, d1 -/+ i d2, the semigroup) are one plan, _plan, built once per grid
and params. Each new state is a Field3 over the theta inverse's array itself,
with no copy; its sup norm (the blowup check) is computed once, and the
diagnostics record reads it.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

import numpy as np

from . import diagnostics as diag
from .errors import AdmissibilityViolation, NumericalBlowup, RadiusTooLarge
from .grid import Field3, GridSpec, Params, check_admissible
from .spectral import _cache, forward, forward_band, inverse, theta_inverse, x_inverse


@dataclass(frozen=True)
class Trajectory:
    """Time series produced by the run loop.

    times/snapshots hold the strided full fields; diagnostics holds one
    record per step (including t = 0). mean0 is the conserved space-angle
    average of the initial data, used as the constant reference state.
    """

    grid: GridSpec
    mean0: float
    times: list[float]
    snapshots: list[Field3]
    diagnostics: list["diag.DiagnosticsRecord"]


@lru_cache(maxsize=16)
def _plan(grid: GridSpec, params: Params) -> dict:
    """The stepper's tables, built once per grid and params.

    keep (x-wavenumber indices, fftfreq order) and planes (theta planes) span
    the 2/3 band with dealias and the whole half spectrum without; the band
    block is keep x keep x [0, planes), and flat holds its flat indices in the
    half spectrum and flat_mixed in the advection's mixed planes (one more
    for the index shift, within the half spectrum). neg is the np.ix_ pair
    that sends each kept x-wavenumber pair to its negative. a_lo and a_hi are
    _advection_hat's symbols on the band; e_mixed is exp(L dt/2) on the mixed
    planes and e_full exp(L dt), for L = -(de |k_x|^2 + k_theta^2), and
    band_half and band_dt_half are exp(L dt/2) and dt exp(L dt/2) on the band.
    """
    n_x, n_theta, dt = grid.n_x, grid.n_theta, params.dt
    c, half = _cache(n_x, n_theta), n_theta // 2 + 1
    keep, planes = c["band"] if params.dealias else (np.arange(n_x), half)
    mixed = min(planes + 1, half)
    neg = -np.arange(keep.size) % keep.size
    block = np.ix_(keep, keep, np.arange(planes))
    flat = np.ravel_multi_index(block, (n_x, n_x, half))
    d1, d2 = c["d1"][keep], c["d2"][:, keep]
    scale = -0.5j * params.pe / (n_x * n_x * n_theta)
    sym = -(params.de * c["kx_sq"] + c["k3"] ** 2)
    e_half = np.exp(0.5 * dt * sym)
    return dict(keep=keep, planes=planes, mixed=mixed, neg=np.ix_(neg, neg), flat=flat,
                flat_mixed=np.ravel_multi_index(block, (n_x, n_x, mixed)),
                a_lo=scale * (d1 - 1j * d2), a_hi=scale * (d1 + 1j * d2),
                e_mixed=np.ascontiguousarray(e_half[:, :, :mixed]),
                e_full=e_half * e_half, band_half=e_half.take(flat),
                band_dt_half=(dt * e_half).take(flat))


def _advection_hat(mixed: np.ndarray, grid: GridSpec, params: Params) -> np.ndarray:
    """Band block of the half spectrum of -Pe * div_x((1 - rho) f e(theta)),
    from at least the first _plan(...)["mixed"] planes of f in mixed space.

    The block is keep x keep x [0, planes) of _plan: the 2/3 band
    with dealias, the whole half spectrum without; the advection is zero on
    every other mode, and at k = 0. rho is plane 0 times dtheta, and (1 - rho)
    times the planes, made real at theta modes 0 and n_theta/2, is the rfft
    along theta of (1 - rho) f; its band x transform is the half spectrum B
    of (1 - rho) f on the block's modes. A factor cos(theta) or sin(theta)
    shifts the theta index by one, so mode m is a_lo B[m-1] + a_hi B[m+1],
    a_lo/hi = -Pe (d1 -/+ i d2) / (2 n_total); past the edges, B[-1] and
    B[n_theta/2+1] are the conjugates at -k_x of planes 1 and n_theta/2 - 1.
    """
    p = _plan(grid, params)
    half = grid.n_theta // 2 + 1
    planes, n_mixed, a_lo, a_hi = p["planes"], p["mixed"], p["a_lo"], p["a_hi"]
    rho = mixed[:, :, 0].real * grid.dtheta
    product = (1.0 - rho)[:, :, None] * mixed[:, :, :n_mixed]
    product[:, :, 0].imag = 0.0
    if n_mixed == half:
        product[:, :, -1].imag = 0.0
    spec = forward_band(product, p["keep"])
    edge_lo = spec[:, :, 1][p["neg"]].conj()
    edge_hi = spec[:, :, half - 2][p["neg"]].conj() if planes == half else None
    out = np.empty(spec.shape[:2] + (planes,), dtype=spec.dtype)
    np.multiply(spec[:, :, : planes - 1], a_lo, out=out[:, :, 1:])
    out[:, :, 0] = a_lo[:, :, 0] * edge_lo
    spec[:, :, 1:] *= a_hi
    out[:, :, : spec.shape[2] - 1] += spec[:, :, 1:]
    if edge_hi is not None:
        out[:, :, -1] += a_hi[:, :, 0] * edge_hi
    return out


def rhs_hat(coeffs: np.ndarray, grid: GridSpec, params: Params) -> np.ndarray:
    """Half spectrum of de * Delta_x f + d^2f/dtheta^2 - Pe div_x((1 - rho) f
    e(theta)) for the f whose half spectrum is coeffs: the diffusion symbol
    times coeffs, plus the advection on its band from x_inverse(coeffs)."""
    c = _cache(grid.n_x, grid.n_theta)
    out = -(params.de * c["kx_sq"] + c["k3"] ** 2) * coeffs
    flat = _plan(grid, params)["flat"]
    np.put(out, flat, out.take(flat) + _advection_hat(x_inverse(coeffs, grid), grid, params))
    return out


def rhs(f: Field3, params: Params) -> Field3:
    """de * Delta_x f + d^2f/dtheta^2 - Pe div_x((1 - rho) f e(theta)), through
    rhs_hat on forward(f)."""
    return inverse(rhs_hat(forward(f), f.grid, params), f.grid)


def cfl_dt(f: Field3, params: Params) -> float:
    """Advection-only CFL bound; diffusion is integrated exactly."""
    speed = abs(params.pe) * float(np.abs(1.0 - f.rho).max())
    return 0.25 * f.grid.dx / max(speed, 1e-12)


def _step_spectral(coeffs: np.ndarray, k1: np.ndarray, grid: GridSpec,
                   params: Params) -> np.ndarray:
    """One integrating-factor midpoint step from coeffs, whose stage-1
    advection band block is k1: mid = e_half (c + dt/2 k1), then
    e_full c + dt e_half k2.

    The midpoint is built and x-inverted on the mixed planes only. k1 and k2
    live on the advection band, where they are added to the band block and
    put back; off it they are 0. The new spectrum there is e_full c + 0, and
    the + 0 turns a -0.0 part into +0.0, so every bit of it, and of a
    checkpoint that stores it, is the formula's. The midpoint needs no such
    pass: the sign of a zero changes no sum that has a nonzero term.
    """
    p, dt = _plan(grid, params), params.dt
    flat = p["flat"]
    mid = p["e_mixed"] * coeffs[:, :, : p["mixed"]]
    np.put(mid, p["flat_mixed"], p["band_half"] * (coeffs.take(flat) + 0.5 * dt * k1))
    k2 = _advection_hat(x_inverse(mid, grid), grid, params)
    out = p["e_full"] * coeffs
    band = out.take(flat) + p["band_dt_half"] * k2
    out += 0.0
    np.put(out, flat, band)
    return out


_CFL_WARNING = "time step exceeds the advective CFL bound"


def step_count(t_end: float, dt: float) -> int:
    """The number of steps of size dt that reach t_end: ceil(t_end/dt - 1e-9),
    so a t_end that is a multiple of dt up to rounding takes that many, and 0
    for t_end <= 0. The final time n dt lies within dt of t_end."""
    return int(math.ceil(t_end / dt - 1e-9)) if t_end > 0 else 0


def march(
    f: Field3, params: Params, n_steps: int, start_step: int = 0, coeffs=None
) -> Iterator[tuple[int, np.ndarray, Field3]]:
    """The stepping core: yield (step, coeffs, field) for each step after start_step.

    f is the field at start_step and coeffs its half spectrum (forward(f) when
    not given; every step derives from coeffs alone); the run ends after step
    n_steps, and a march with start_step >= n_steps yields nothing. Warns once
    (without rejecting) when dt exceeds the CFL bound of f, and raises
    NumericalBlowup on non-finite output or >10x sup-norm growth in one step.
    Each yielded field adopts the theta inverse's array (read-only, not
    copied); of its mixed-space array only the next stage-1 band block
    outlives the yield.
    """
    if params.dt > cfl_dt(f, params):
        warnings.warn(_CFL_WARNING, RuntimeWarning, stacklevel=2)
    grid = f.grid
    if coeffs is None:
        coeffs = forward(f)
    if start_step < n_steps:
        k1 = _advection_hat(x_inverse(coeffs, grid), grid, params)
    for step in range(start_step + 1, n_steps + 1):
        prev_linf = f.linf
        coeffs = _step_spectral(coeffs, k1, grid, params)
        mixed = x_inverse(coeffs, grid)
        f = Field3.adopt(grid, theta_inverse(mixed, grid))
        if not math.isfinite(f.linf):
            raise NumericalBlowup("non-finite values after step", step=step)
        if f.linf > 10.0 * prev_linf and prev_linf > 0.0:
            raise NumericalBlowup("sup norm grew more than 10x in one step", step=step)
        if step < n_steps:
            k1 = _advection_hat(mixed, grid, params)
        del mixed
        yield step, coeffs, f


def states(
    f0: Field3, params: Params, n_steps: int
) -> Iterator[tuple[int, np.ndarray, Field3]]:
    """A trajectory from its initial datum: yield (0, forward(f0), f0), then
    march's (step, coeffs, field) for steps 1..n_steps from that spectrum."""
    coeffs = forward(f0)
    yield 0, coeffs, f0
    steps = march(f0, params, n_steps, coeffs=coeffs)
    del coeffs  # march drops the step-0 spectrum once it has stepped past it
    yield from steps


def step_imex(f: Field3, params: Params) -> Field3:
    """Advance one step of size params.dt: the first step of march(f, ...)."""
    _, _, f_next = next(march(f, params, 1))
    return f_next


def run(f0: Field3, params: Params, t_end: float, snapshot_stride: int = 10) -> Trajectory:
    """Integrate from admissible initial data to (just past) t_end.

    Iterates states over step_count(t_end, dt) steps, so the final time lies
    within dt of t_end. Appends one DiagnosticsRecord (its L^(2^k) ladder to
    k = 6) per step, step 0 included, and a snapshot every snapshot_stride
    steps, step 0 and the final step included.
    """
    report = check_admissible(f0)
    if not report.ok:
        raise AdmissibilityViolation(
            f"initial data inadmissible: min_f={report.min_f:.3e}, "
            f"rho range [{report.min_rho:.3e}, {report.max_rho:.3e}]"
        )
    if snapshot_stride < 1:
        raise ValueError("snapshot_stride must be >= 1")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")

    mean0 = f0.mean()
    n_steps = step_count(t_end, params.dt)
    records, times, snapshots = [], [], []
    for step, coeffs, f in states(f0, params, n_steps):
        t = step * params.dt
        records.append(diag.compute_record(f, coeffs, t, mean0))
        if step % snapshot_stride == 0 or step == n_steps:
            times.append(t)
            snapshots.append(f)

    return Trajectory(
        grid=f0.grid,
        mean0=mean0,
        times=times,
        snapshots=snapshots,
        diagnostics=records,
    )


# --- parabolic cylinder rescaling ----------------------------------------------

def rescale_ell(r: float, delta: float, p_norm: float, v_norm: float) -> float:
    """Amplitude factor sqrt(delta) * r^(3/2) / (p_norm + v_norm)."""
    total = p_norm + v_norm
    if total <= 0.0:
        raise ValueError("p_norm + v_norm must be positive")
    if not 0.0 < delta:
        raise ValueError("delta must be positive")
    return math.sqrt(delta) * r**1.5 / total


@dataclass(frozen=True)
class RescaledSlice:
    """One time slice of a solution mapped onto the unit cylinder.

    values and grads are sampled on a uniform grid of the cube [-1, 1)^3 in
    the stretched coordinates; tau is the rescaled time in [-1, 0] when the
    source time lies inside the cylinder. grads holds the three stretched-
    coordinate partial derivatives of the rescaled field.
    """

    tau: float
    values: np.ndarray
    grads: tuple[np.ndarray, np.ndarray, np.ndarray]
    ell: float
    cell_volume: float


def sample_on_axes(
    f: Field3, x1_points: np.ndarray, x2_points: np.ndarray, theta_points: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """The trigonometric interpolant of f and its three spectral partial
    derivatives on a tensor grid of points, which may lie off the sampling grid.
    """
    c = _cache(f.grid.n_x, f.grid.n_theta)
    kx = c["k1"][:, 0, 0]
    coeffs = np.fft.fftn(f.values) / f.values.size
    e1 = np.exp(1j * np.outer(x1_points, kx))
    e2 = np.exp(1j * np.outer(x2_points, kx))
    e3 = np.exp(1j * np.outer(theta_points, c["k3_full"]))

    def at(a: np.ndarray) -> np.ndarray:
        out = np.tensordot(e1, a, axes=(1, 0))  # (A, k2, k3)
        out = np.tensordot(e2, out, axes=(1, 1)).transpose(1, 0, 2)  # (A, B, k3)
        return np.tensordot(out, e3, axes=(2, 1)).real  # (A, B, C)

    symbols = (c["d1"], c["d2"], c["d3_full"][None, None, :])
    return at(coeffs), tuple(at(coeffs * (1j * d)) for d in symbols)


def rescale_field(
    f: Field3,
    t: float,
    center: tuple[float, tuple[float, float, float]],
    r: float,
    delta: float,
    v_norm: float,
    p_norm: float,
) -> RescaledSlice:
    """Map a snapshot onto the unit cylinder around a space-time center.

    Returns the slice ell * f(t, xi0 + r zeta) on a uniform grid of the cube
    [-1, 1)^3 (trigonometric interpolation off-grid), together with its
    stretched-coordinate gradient and the rescaled time tau = (t - t0)/r^2.
    """
    t0, xi0 = center
    bound = min(1.0, math.sqrt(max(t0, 0.0) / 2.0))
    if not 0.0 < r < bound:
        raise RadiusTooLarge(
            f"need 0 < r < min(1, sqrt(t0/2)) = {bound:.6g}, got r={r}"
        )
    ell = rescale_ell(r, delta, p_norm, v_norm)
    tau = (t - t0) / r**2

    grid = f.grid
    zeta_x = -1.0 + 2.0 * np.arange(grid.n_x) / grid.n_x
    zeta_t = -1.0 + 2.0 * np.arange(grid.n_theta) / grid.n_theta
    x1p = xi0[0] + r * zeta_x
    x2p = xi0[1] + r * zeta_x
    thp = xi0[2] + r * zeta_t

    samples, derivatives = sample_on_axes(f, x1p, x2p, thp)
    values = ell * samples
    grads = tuple(ell * r * d for d in derivatives)
    cell = (2.0 / grid.n_x) ** 2 * (2.0 / grid.n_theta)
    return RescaledSlice(tau=tau, values=values, grads=grads, ell=ell, cell_volume=cell)
