"""Core domain types: grid, parameters, fields, and admissible initial data.

The computational domain is the periodic box (0, 2*pi)^3 with coordinates
(x1, x2, theta): two spatial axes sharing one resolution and an independent
angle axis. Fields are real arrays sampled at xi_j = j * delta per axis with
the endpoint 2*pi excluded (periodic identification).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import AdmissibilityViolation

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class GridSpec:
    """Uniform periodic grid: n_x points per spatial axis, n_theta in angle.

    Both counts must be even and at least 4 (real-transform mode layout).
    """

    n_x: int
    n_theta: int

    def __post_init__(self):
        for name, n in (("n_x", self.n_x), ("n_theta", self.n_theta)):
            if not isinstance(n, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {n!r}")
            if n < 4:
                raise ValueError(f"{name} must be >= 4, got {n}")
            if n % 2 != 0:
                raise ValueError(f"{name} must be even, got {n}")

    @property
    def dx(self) -> float:
        return TWO_PI / self.n_x

    @property
    def dtheta(self) -> float:
        return TWO_PI / self.n_theta

    @property
    def cell_volume(self) -> float:
        """Volume element dx * dx * dtheta of the rectangle rule."""
        return self.dx * self.dx * self.dtheta

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.n_x, self.n_x, self.n_theta)

    def x_values(self) -> np.ndarray:
        return np.arange(self.n_x) * self.dx

    def theta_values(self) -> np.ndarray:
        return np.arange(self.n_theta) * self.dtheta


def make_grid(n_x: int, n_theta: int) -> GridSpec:
    """Build a GridSpec; rejects odd or too-small point counts."""
    return GridSpec(int(n_x), int(n_theta))


@dataclass(frozen=True)
class Params:
    """Physical and numerical parameters of a run.

    pe is the Peclet number (any sign), de the spatial diffusion coefficient
    (> 0), dt the time step (> 0). dealias toggles the 2/3-rule truncation of
    the quadratic advection product.
    """

    pe: float
    de: float
    dt: float
    dealias: bool = True

    def __post_init__(self):
        for name, v in (("pe", self.pe), ("de", self.de), ("dt", self.dt)):
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")
        if self.de <= 0:
            raise ValueError(f"de must be > 0, got {self.de}")
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")


@dataclass(frozen=True)
class Field3:
    """Real scalar field f(x1, x2, theta) sampled on a GridSpec.

    values is indexed (i1, i2, i_theta), row-major with theta fastest.
    Entries must be finite; the array is frozen after construction, so the
    density and the sup norm are computed once, at first use, and kept.
    """

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if arr.shape != self.grid.shape:
            raise ValueError(f"Field3.values expected shape {self.grid.shape}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("Field3.values contains NaN or Inf entries")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def adopt(cls, grid: GridSpec, values: np.ndarray) -> "Field3":
        """A field over a C-contiguous float64 array of grid.shape that its
        caller made and hands over: no copy and no finiteness pass (the caller
        checks what it needs, for instance through linf); values is frozen in place.
        """
        values.setflags(write=False)
        f = object.__new__(cls)
        object.__setattr__(f, "grid", grid)
        object.__setattr__(f, "values", values)
        return f

    @cached_property
    def rho(self) -> np.ndarray:
        """Angle-independent density rho(x) = integral of f dtheta."""
        return self.values.sum(axis=2) * self.grid.dtheta

    @cached_property
    def linf(self) -> float:
        """Sup norm max |f|; NaN or inf if any value is."""
        return float(np.abs(self.values).max())

    def mean(self) -> float:
        """Space-angle average <f>."""
        return float(self.values.mean())


# --- initial data ------------------------------------------------------------

@dataclass(frozen=True)
class ConstantData:
    """f0 = m / (2*pi)^3; m is the total integral over the box."""

    m: float
    kind: str = field(default="constant", init=False)


@dataclass(frozen=True)
class SingleModeData:
    """f0 = m/(2*pi)^3 * (1 + epsilon * cos(k . xi)) for one integer mode k."""

    m: float
    epsilon: float
    mode: tuple[int, int, int]
    kind: str = field(default="single_mode", init=False)


@dataclass(frozen=True)
class RandomBandlimitedData:
    """Random superposition of modes with |k|_inf <= max_mode.

    Uniform amplitudes and phases per mode, normalized to unit sup norm;
    epsilon is clipped so min f0 >= 0.01 * m/(2*pi)^3. Deterministic in seed.
    """

    m: float
    epsilon: float
    max_mode: int
    seed: int
    kind: str = field(default="random_bandlimited", init=False)


InitialDataSpec = ConstantData | SingleModeData | RandomBandlimitedData


@dataclass(frozen=True)
class AdmissibilityReport:
    min_f: float
    min_rho: float
    max_rho: float
    ok: bool


# Boundary allowance: rho computed by the rectangle rule can land one ulp
# past an exact bound (e.g. f = 1/(2*pi) gives rho = 1 only up to rounding).
_ADMISSIBILITY_TOL = 1e-12


def check_admissible(f0: Field3) -> AdmissibilityReport:
    """Report min f, range of rho = integral of f dtheta, and admissibility.

    Admissible means f0 >= 0 and rho in [0, 1] pointwise, up to a 1e-12
    rounding allowance at the boundaries.
    """
    min_f = float(f0.values.min())
    min_rho = float(f0.rho.min())
    max_rho = float(f0.rho.max())
    ok = (
        min_f >= -_ADMISSIBILITY_TOL
        and min_rho >= -_ADMISSIBILITY_TOL
        and max_rho <= 1.0 + _ADMISSIBILITY_TOL
    )
    return AdmissibilityReport(min_f=min_f, min_rho=min_rho, max_rho=max_rho, ok=ok)


def _bandlimited_noise(grid: GridSpec, max_mode: int, seed: int) -> np.ndarray:
    """Zero-mean random field with modes |k|_inf <= max_mode, unit sup norm."""
    n, nt = grid.n_x, grid.n_theta
    if max_mode < 1:
        raise ValueError(f"max_mode must be >= 1, got {max_mode}")
    if max_mode > min(n, nt) // 2:
        raise ValueError(
            f"max_mode {max_mode} exceeds the Nyquist mode of grid "
            f"({n}, {n}, {nt})"
        )
    rng = np.random.default_rng(seed)
    half = nt // 2 + 1
    amp = rng.uniform(0.0, 1.0, size=(n, n, half))
    phase = rng.uniform(0.0, TWO_PI, size=(n, n, half))
    coeffs = amp * np.exp(1j * phase)

    kx = np.fft.fftfreq(n, d=1.0 / n).astype(int)
    kth = np.arange(half)
    keep = (
        (np.abs(kx)[:, None, None] <= max_mode)
        & (np.abs(kx)[None, :, None] <= max_mode)
        & (kth[None, None, :] <= max_mode)
    )
    coeffs[~keep] = 0.0
    coeffs[0, 0, 0] = 0.0

    # Hermitian symmetry on the self-conjugate theta planes (k_theta = 0 and
    # Nyquist) so the inverse real transform sees consistent data.
    rev = (-np.arange(n)) % n
    for p in (0, nt // 2):
        sl = coeffs[:, :, p]
        coeffs[:, :, p] = 0.5 * (sl + np.conj(sl[np.ix_(rev, rev)]))

    g = np.fft.irfftn(coeffs, s=grid.shape, axes=(0, 1, 2)) * (n * n * nt)
    sup = float(np.abs(g).max())
    if sup == 0.0:
        raise ValueError("random band-limited draw degenerated to zero")
    return g / sup


def make_initial(spec: InitialDataSpec, grid: GridSpec) -> Field3:
    """Sample initial data from its closed form and gate on admissibility.

    Raises AdmissibilityViolation if the generated field has negative values
    or a density outside [0, 1].
    """
    base = spec.m / TWO_PI**3
    if isinstance(spec, ConstantData):
        values = np.full(grid.shape, base)
    elif isinstance(spec, SingleModeData):
        k1, k2, kt = spec.mode
        x = grid.x_values()
        th = grid.theta_values()
        phase = (
            k1 * x[:, None, None]
            + k2 * x[None, :, None]
            + kt * th[None, None, :]
        )
        values = base * (1.0 + spec.epsilon * np.cos(phase))
    elif isinstance(spec, RandomBandlimitedData):
        g = _bandlimited_noise(grid, spec.max_mode, spec.seed)
        g_min = float(g.min())
        eps = spec.epsilon
        if g_min < 0.0 and 1.0 + eps * g_min < 0.01:
            eps = 0.99 / abs(g_min)
        values = base * (1.0 + eps * g)
    else:
        raise TypeError(f"unknown initial data spec: {spec!r}")

    f0 = Field3(grid=grid, values=values)
    report = check_admissible(f0)
    if not report.ok:
        raise AdmissibilityViolation(
            f"generated initial data inadmissible: min_f={report.min_f:.3e}, "
            f"rho range [{report.min_rho:.3e}, {report.max_rho:.3e}]"
        )
    return f0
