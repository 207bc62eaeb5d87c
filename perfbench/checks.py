"""Correctness checks on the files the program writes, in plain numpy.

Every check returns a list of problems, empty when the output is correct.
The checks test properties the method must have (mass conservation, density
bounds, the closed-form decay rate, a non-increasing truncation ladder) or
compare the program's numbers with values computed here from its own
snapshot files. None of them compares with a stored copy of earlier output,
and none of them imports the program.
"""

from __future__ import annotations

import json
import math

import numpy as np

TWO_PI = 2.0 * math.pi

MASS_RTOL = 1e-12
RHO_TOL = 1e-6
DECAY_RATE_SLACK = 1e-3
DECAY_ATOL = 1e-14
ROW_RTOL = 1e-12
RESUME_RTOL = 1e-12


def read_csv(path: str) -> tuple[list[str], np.ndarray]:
    """Header names and the float rows of a diagnostics CSV."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    names = lines[0].split(",")
    rows = np.array([[float(c) for c in ln.split(",")] for ln in lines[1:]])
    return names, rows.reshape(len(lines) - 1, len(names))


def read_snapshot(path: str) -> tuple[dict, np.ndarray]:
    """Header and values of a snapshot file (JSON line + little-endian f8)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        payload = fh.read()
    shape = (header["n_x"], header["n_x"], header["n_theta"])
    values = np.frombuffer(payload, dtype="<f8")
    if values.size != shape[0] * shape[1] * shape[2]:
        raise ValueError(f"{path}: payload holds {values.size} values, not {shape}")
    return header, values.reshape(shape)


def closed_form_kappa(pe: float, de: float, mean: float) -> tuple[float, float]:
    """Decay rate kappa and Peclet threshold for space-angle average `mean`.

    The Poincare constant of the unit-period torus is 1 (the smallest nonzero
    |k|^2 is 1), so kappa = (min(de,1)/2 - (2 pi)^2 pe^2 (1+m)^2 / min(de,1)) / 2
    and the threshold is min(de,1) / (2 sqrt(2) pi (1+m)).
    """
    dmin = min(de, 1.0)
    kappa = 0.5 * (0.5 * dmin - TWO_PI**2 * pe**2 * (1.0 + mean) ** 2 / dmin)
    threshold = dmin / (2.0 * math.sqrt(2.0) * math.pi * (1.0 + mean))
    return kappa, threshold


def _col(names: list[str], rows: np.ndarray, name: str) -> np.ndarray:
    return rows[:, names.index(name)]


def check_mass(names, rows) -> list[str]:
    mass = _col(names, rows, "mass")
    drift = float(np.abs(mass - mass[0]).max()) / abs(mass[0])
    if not drift <= MASS_RTOL:
        return [f"mass drifts by {drift:.3e} relative (limit {MASS_RTOL:g})"]
    return []


def check_density(names, rows) -> list[str]:
    lo = float(_col(names, rows, "rho_min").min())
    hi = float(_col(names, rows, "rho_max").max())
    if not (lo >= -RHO_TOL and hi <= 1.0 + RHO_TOL):
        return [f"rho leaves [0, 1]: range [{lo!r}, {hi!r}] (tolerance {RHO_TOL:g})"]
    return []


def check_decay(names, rows, pe: float, de: float) -> list[str]:
    """l2_to_const(t) <= exp(-(kappa - 1e-3) t) l2_to_const(0) + 1e-14."""
    kappa, threshold = closed_form_kappa(pe, de, float(_col(names, rows, "mass")[0]))
    if not abs(pe) < threshold:
        return [f"pe {pe} is not below the threshold {threshold:.6f}; no decay claim"]
    t = _col(names, rows, "t")
    dev = _col(names, rows, "l2_to_const")
    bound = np.exp(-(kappa - DECAY_RATE_SLACK) * t) * dev[0] + DECAY_ATOL
    bad = np.flatnonzero(~(dev <= bound))
    if bad.size:
        i = int(bad[0])
        return [
            f"l2_to_const {dev[i]!r} at t={t[i]!r} exceeds the kappa={kappa:.6f} "
            f"bound {bound[i]!r}"
        ]
    return []


def reference_row(values: np.ndarray, mean0: float, k_max: int) -> dict[str, float]:
    """Observables of one snapshot computed directly from its values."""
    n_x, _, n_theta = values.shape
    dx, dth = TWO_PI / n_x, TWO_PI / n_theta
    dv = dx * dx * dth
    rho = values.sum(axis=2) * dth
    ref = {
        "mass": float(values.mean()),
        "l2_to_const": math.sqrt(float(((values - mean0) ** 2).sum()) * dv),
        "linf": float(np.abs(values).max()),
        "rho_min": float(rho.min()),
        "rho_max": float(rho.max()),
    }
    v = np.clip(values, 0.0, None)
    for k in range(k_max + 1):
        ref[f"lp_{k}"] = (float(v.sum()) * dv) ** (1.0 / 2**k)
        v = v * v
    return ref


def check_last_row(names, rows, final_values, mean0: float) -> list[str]:
    """The last CSV row matches the observables of the final snapshot."""
    k_max = sum(1 for n in names if n.startswith("lp_")) - 1
    ref = reference_row(final_values, mean0, k_max)
    last = rows[-1]
    problems = []
    for name, want in ref.items():
        got = float(last[names.index(name)])
        if not abs(got - want) <= ROW_RTOL * abs(want):
            problems.append(f"last row {name} = {got!r}, snapshot gives {want!r}")
    return problems


def _scales(names, rows) -> np.ndarray:
    """Per-column magnitude for relative comparison.

    spectral_tail is a fraction of the nonconstant energy, so its scale is 1;
    every other column is scaled by its largest magnitude over the run.
    """
    scale = np.abs(rows).max(axis=0)
    scale[names.index("spectral_tail")] = 1.0
    return np.maximum(scale, 1e-300)


def check_rows_agree(names, want_rows, got_rows, rtol: float = RESUME_RTOL) -> list[str]:
    if got_rows.shape != want_rows.shape:
        return [f"CSV has {got_rows.shape[0]} rows, expected {want_rows.shape[0]}"]
    err = np.abs(got_rows - want_rows) / _scales(names, want_rows)
    if not float(err.max(initial=0.0)) <= rtol:
        i, j = np.unravel_index(int(np.argmax(err)), err.shape)
        return [f"CSV row {i} column {names[j]} differs by {err[i, j]:.3e} relative"]
    return []


def check_snapshots_agree(want: np.ndarray, got: np.ndarray, rtol: float = RESUME_RTOL):
    if got.shape != want.shape:
        return [f"snapshot shape {got.shape} != {want.shape}"]
    err = float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)
    if not err <= rtol:
        return [f"snapshot differs by {err:.3e} relative"]
    return []


def check_truncation(summary: dict) -> list[str]:
    """Truncation energies are finite, positive at level 0 and never increase."""
    trunc = summary.get("truncation")
    if not isinstance(trunc, dict) or "energies" not in trunc:
        return [f"summary has no truncation ladder: {trunc!r}"]
    e = trunc["energies"]
    if not all(isinstance(x, (int, float)) and math.isfinite(x) for x in e):
        return [f"truncation energies are not all finite: {e!r}"]
    if not e or not e[0] > 0.0:
        return [f"truncation ladder is empty or vacuous: {e!r}"]
    if any(b > a for a, b in zip(e, e[1:])):
        return [f"truncation energies increase up the ladder: {e!r}"]
    return []


def check_final_l2(summary: dict) -> list[str]:
    value = summary.get("final_l2_to_const")
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return [f"summary final_l2_to_const is {value!r}, not a finite number"]
    return []


def verify_statuses(text: str) -> dict[int, str]:
    """Criterion number -> status from the `activeflow verify` report lines."""
    out = {}
    for line in text.splitlines():
        if line.startswith("[") and "]" in line:
            status, rest = line[1:].split("]", 1)
            out[int(rest.split()[0])] = status.strip()
    return out


def check_verify(text: str, exit_code: int) -> list[str]:
    """The report lists criteria 1..10 and the exit code is 0 exactly when all pass."""
    statuses = verify_statuses(text)
    problems = []
    if sorted(statuses) != list(range(1, 11)):
        problems.append(f"verify reported criteria {sorted(statuses)}, expected 1..10")
    all_pass = all(s == "PASS" for s in statuses.values())
    if (exit_code == 0) != all_pass:
        problems.append(f"verify exited with {exit_code} while statuses are {statuses}")
    return problems
