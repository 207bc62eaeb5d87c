"""Scalar observables per time step and post-hoc trajectory analyses."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import (NegativeField, NonpositiveValue, ParseError, TooFewPoints,
                     WindowTooShort, integer, number)
from .grid import TWO_PI, Field3, GridSpec
from .spectral import _cache, forward, synthesize

if TYPE_CHECKING:
    from .dynamics import RescaledSlice, Trajectory


@dataclass(frozen=True)
class DiagnosticsRecord:
    """Observables of one time step.

    l2_to_const measures the L2 distance to the conserved constant state
    (the initial space-angle average); lp_ladder holds the L^(2^k) norms for
    k = 0..k_max.
    """

    t: float
    mass: float
    l2_to_const: float
    linf: float
    rho_min: float
    rho_max: float
    grad_l2: float
    spectral_tail: float
    lp_ladder: tuple[float, ...]


def lp_ladder(f: Field3, k_max: int) -> list[float]:
    """L^(2^k) norms for k = 0..k_max, by repeated squaring in place.

    Tiny negative entries (>= -1e-10) are clipped to zero; anything more
    negative raises NegativeField.
    """
    min_f = float(f.values.min())
    if min_f < -1e-10:
        raise NegativeField(f"field minimum {min_f:.3e} below -1e-10")
    dv = f.grid.cell_volume
    v = np.clip(f.values, 0.0, None)
    out = []
    for k in range(k_max + 1):
        norm_pow = float(v.sum()) * dv  # integral of f^(2^k)
        out.append(norm_pow ** (1.0 / 2**k))
        if k < k_max:
            np.multiply(v, v, out=v)
    return out


def l2_to_const(f: Field3, m: float) -> float:
    """L2 distance from f to the constant state m, the conserved mean."""
    dev = f.values - m
    return math.sqrt(float(np.multiply(dev, dev, out=dev).sum()) * f.grid.cell_volume)


def grad_l2(abs_sq: np.ndarray, grid: GridSpec) -> float:
    """L2 norm of the space-angle gradient by Parseval, from the |coeffs|^2 of
    a mean-normalized half spectrum."""
    return math.sqrt(float((_cache(grid.n_x, grid.n_theta)["grad_weight"] * abs_sq).sum()))


@lru_cache(maxsize=32)
def _tail_mask(n: int, nt: int, fraction: float) -> np.ndarray:
    """Half-spectrum modes beyond fraction * n on some axis."""
    c = _cache(n, nt)
    return (
        (np.abs(c["k1"]) > fraction * n)
        | (np.abs(c["k2"]) > fraction * n)
        | (c["k3"] > fraction * nt)
    )


def compute_record(
    f: Field3,
    coeffs: np.ndarray,
    t: float,
    mean0: float,
    k_max: int = 6,
    tail_fraction: float = 0.25,
) -> DiagnosticsRecord:
    """Evaluate all per-step observables for f, whose half spectrum is coeffs.

    |coeffs|^2 is formed once for the gradient norm and the spectral tail, the
    fraction of nonconstant L2 energy (Parseval weights) in modes beyond
    tail_fraction * n on some axis. The density and sup norm are f.rho and
    f.linf: a field march yields already holds its sup norm.
    """
    c = _cache(f.grid.n_x, f.grid.n_theta)
    rho = f.rho
    abs_sq = np.abs(coeffs) ** 2
    energy = TWO_PI**3 * c["mult"] * abs_sq
    energy[0, 0, 0] = 0.0  # not subtracted after the sum: that cancels to noise
    nonconstant = float(energy.sum())
    tail = 0.0 if nonconstant <= 1e-300 else float(
        energy[_tail_mask(f.grid.n_x, f.grid.n_theta, tail_fraction)].sum()
    ) / nonconstant
    return DiagnosticsRecord(
        t=t,
        mass=f.mean(),
        l2_to_const=l2_to_const(f, mean0),
        linf=f.linf,
        rho_min=float(rho.min()),
        rho_max=float(rho.max()),
        grad_l2=grad_l2(abs_sq, f.grid),
        spectral_tail=tail,
        lp_ladder=tuple(lp_ladder(f, k_max)),
    )


# --- truncation-energy ladder ---------------------------------------------------

@dataclass(frozen=True)
class TruncationLadder:
    """Energies of the truncations (f - C_k)_+ over shrinking time windows."""

    k_max: int
    levels: tuple[float, ...]
    window_times: tuple[float, ...]
    energies: tuple[float, ...]


def truncation_levels(k_max: int) -> list[float]:
    """C_k = (1 - 2^-k) / 2, increasing to 1/2."""
    return [0.5 * (1.0 - 2.0**-k) for k in range(k_max + 1)]


class TruncationReducer:
    """The truncation ladder as a streaming reduction over snapshots.

    Snapshots and their gradients arrive in increasing time; the canonical
    windows T_k in [-1, -1/2] map affinely onto [t_a, t_b]. Only scalars are
    kept: the first and last time added, the in-window count and, per level,
    the sup of the truncated L2 energy, the left-endpoint time integral of the
    masked gradient energy, and the last snapshot's masked gradient energy,
    which waits for the next dt. state() is JSON-ready and resumes via `state`,
    which must hold its six keys as JSON loads them, every number finite,
    else ParseError.

    As grad (f - C_k)_+ = 1{f > C_k} grad f, add classes the held levels by
    the snapshot's range: one at or above max f adds 0.0 with no array work,
    one below min f the whole gradient energy (by Parseval from a spectrum),
    and only one in between masks gradient fields, synthesized only then.
    """

    def __init__(self, window, k_max: int, cell_volume: float, state=None):
        t_a, t_b = window
        self.window, self.k_max, self.cell_volume = window, k_max, cell_volume
        self.levels = truncation_levels(k_max)
        self.window_times = [
            t_a + (-0.5 * (1.0 + 2.0**-k) + 1.0) * (t_b - t_a) for k in range(k_max + 1)
        ]
        n = k_max + 1
        s = state if state is not None else dict(
            count=0, first=None, last=None, sup=[0.0] * n, grad=[0.0] * n, pending=[None] * n)
        _check_state(s, n)
        self.count, self.first, self.last = s["count"], s["first"], s["last"]
        self.sup, self.grad, self.pending = s["sup"][:], s["grad"][:], s["pending"][:]

    def state(self) -> dict:
        return {"count": self.count, "first": self.first, "last": self.last,
                "sup": self.sup, "grad": self.grad, "pending": self.pending}

    def covers(self, t: float) -> bool:
        t_a, t_b = self.window
        return t_a - 1e-12 <= t <= t_b + 1e-12

    def add(self, t: float, values=None, grads=None, coeffs=None, grid=None) -> None:
        """Take the snapshot at t; values and the gradients, grads or those of
        the half spectrum coeffs on grid, are read only inside the window."""
        self.first = t if self.first is None else self.first
        prev, self.last = self.last, t
        if not self.covers(t):
            return
        self.count += 1
        lo, hi = float(values.min()), float(values.max())
        whole, partial = [], []  # levels held at t; partial ones with their masks
        for k, (c_k, w_k) in enumerate(zip(self.levels, self.window_times)):
            if t < w_k - 1e-12:
                continue
            if self.pending[k] is not None:
                self.grad[k] += (t - prev) * self.pending[k] * self.cell_volume
            self.pending[k] = 0.0
            if c_k >= hi:
                continue
            cut = values - c_k
            if c_k < lo:
                whole.append(k)
            else:
                above = cut > 0.0
                cut = np.where(above, cut, 0.0)
                partial.append((k, above))
            self.sup[k] = max(self.sup[k], float((cut**2).sum()) * self.cell_volume)
        total = 0.0  # the unmasked gradient energy, for the whole levels
        if coeffs is not None:
            total = _gradient_energy(coeffs, grid) if whole else 0.0
            grads = _spectral_grads(coeffs, grid) if partial else ()
        elif not (whole or partial):
            grads = ()
        for g in grads:  # squared once per snapshot, into a new array: grads may be shared
            g_sq = g * g
            if coeffs is None and whole:
                total += float(g_sq.sum())
            for k, above in partial:  # cut is the last level's array, free now
                self.pending[k] += float(np.multiply(g_sq, above, out=cut).sum())
        for k in whole:
            self.pending[k] = total

    def finish(self, require_span: bool = True) -> TruncationLadder:
        """The ladder of k_max + 1 or more in-window snapshots; with require_span
        the times added must also span the window."""
        t_a, t_b = self.window
        if require_span and self.first is None:
            raise WindowTooShort("trajectory holds no snapshots")
        if self.count < self.k_max + 1:
            raise WindowTooShort(
                f"need at least {self.k_max + 1} snapshots in window, found {self.count}"
            )
        if require_span and not (self.first - 1e-12 <= t_a < t_b <= self.last + 1e-12):
            raise ValueError(
                f"window {self.window} outside trajectory span [{self.first}, {self.last}]"
            )
        energies = tuple(s + g for s, g in zip(self.sup, self.grad))
        return TruncationLadder(
            self.k_max, tuple(self.levels), tuple(self.window_times), energies
        )


def _check_state(s, n: int) -> None:
    """ParseError unless s is a state() of n levels as JSON loads it: a count
    >= 0 (errors.integer), first and last numbers or null, n numbers in sup
    and grad, n numbers or nulls in pending (errors.number: finite, no bool)."""
    levels = ("sup", "grad", "pending")
    if not (type(s) is dict and set(s) == {"count", "first", "last", *levels}
            and all(type(s[k]) is list and len(s[k]) == n for k in levels)):
        raise ParseError(f"truncation state is not a ladder state of {n} levels")
    integer(s["count"], "truncation.count", nonnegative=True)
    for key in ("first", "last", *levels):
        for x in s[key] if key in levels else (s[key],):
            if x is not None or key in ("sup", "grad"):
                number(x, f"truncation.{key}")


def _spectral_grads(coeffs: np.ndarray, grid: GridSpec) -> tuple[np.ndarray, ...]:
    """The three spectral partial derivatives of the field with half spectrum coeffs."""
    c = _cache(grid.n_x, grid.n_theta)
    return tuple(synthesize(1j * c[d] * coeffs, grid) for d in ("d1", "d2", "d3"))


def _gradient_energy(coeffs: np.ndarray, grid: GridSpec) -> float:
    """The grid sum of the squared _spectral_grads fields, by Parseval:
    n_x^2 n_theta sum mult (d1^2 + d2^2 + d3^2) |c|^2, one axis at a time."""
    c = _cache(grid.n_x, grid.n_theta)
    power = c["mult"] * (coeffs.real**2 + coeffs.imag**2)
    total = sum(float(power.sum(axis=axes) @ c[d].ravel() ** 2)
                for axes, d in (((1, 2), "d1"), ((0, 2), "d2"), ((0, 1), "d3")))
    return total * grid.n_x * grid.n_x * grid.n_theta


def truncation_energy(
    traj: "Trajectory", window: tuple[float, float], k_max: int
) -> TruncationLadder:
    """De Giorgi truncation energies over an analysis window of a trajectory.

    Truncation gradients are the indicator-masked spectral gradients; by
    space-angle periodicity the integrals run over the whole box.
    """
    ladder = TruncationReducer(window, k_max, traj.grid.cell_volume)
    for t, snap in zip(traj.times, traj.snapshots):
        if ladder.covers(t):
            ladder.add(t, snap.values, _spectral_grads(forward(snap), traj.grid))
        else:
            ladder.add(t)
    return ladder.finish()


def truncation_energy_rescaled(
    slices: Sequence["RescaledSlice"], k_max: int
) -> TruncationLadder:
    """Truncation energies of unit-cylinder slices over the window [-1, 0]."""
    ordered = sorted(slices, key=lambda s: s.tau)
    cell = ordered[0].cell_volume if ordered else 0.0
    ladder = TruncationReducer((-1.0, 0.0), k_max, cell)
    for s in ordered:
        ladder.add(s.tau, s.values, s.grads)
    return ladder.finish(require_span=False)


def fit_decay_rate(
    series: Sequence[tuple[float, float]], window: tuple[float, float]
) -> float:
    """Least-squares slope of -log(value) against t inside the window."""
    t_a, t_b = window
    pts = [(t, v) for t, v in series if t_a - 1e-12 <= t <= t_b + 1e-12]
    if len(pts) < 10:
        raise TooFewPoints(f"need >= 10 points in window, got {len(pts)}")
    ts = np.array([t for t, _ in pts])
    vs = np.array([v for _, v in pts])
    if (vs <= 0.0).any():
        raise NonpositiveValue("rate fitting needs strictly positive values")
    slope, _ = np.polyfit(ts, -np.log(vs), 1)
    return float(slope)
