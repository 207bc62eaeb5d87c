"""Command-line entry point.

Subcommands: simulate, verify, decay, stationary, oracle-compare. All of them
take a single --config JSON path; the config owns every physical and numerical
setting so runs are reproducible artifacts. Exit codes: 0 ok, 1 verification
failure, 2 runtime error (machine-readable JSON on stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import diagnostics as diag
from .config import RunConfig, load_config
from .diagnostics import truncation_energy
from .dynamics import Trajectory, cfl_dt, march
from .equilibrium import (
    kappa,
    peclet_threshold,
    solve_stationary,
    verify_small_pe_decay,
)
from .errors import (
    ActiveFlowError,
    ConfigError,
    NotConverged,
    NumericalBlowup,
    ParseError,
    WindowTooShort,
)
from .grid import Field3, make_initial
from .spectral import forward, poincare_constant
from .storage import (
    SnapshotWriter,
    csv_header,
    csv_row,
    load_checkpoint,
    read_snapshot,
    write_checkpoint,
)
from .verification import FAIL, oracle_equivalence, run_all


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _emit_error(kind: str, message: str, **extra) -> None:
    payload = {"error": {"kind": kind, "message": message, **extra}}
    print(json.dumps(_json_safe(payload)), file=sys.stderr)


def cmd_simulate(config: RunConfig, stop_after_steps: int | None = None) -> int:
    """Run a simulation, streaming diagnostics and snapshots to output_dir.

    Consumes dynamics.march: every step appends one diagnostics.csv row, and
    strided steps write a snapshot and join the truncation window. The CSV is
    flushed before each checkpoint is written. Resumes automatically from
    output_dir/checkpoint.bin when present; it refuses a checkpoint of a
    different config, and raises ParseError (leaving the file as it is) when
    diagnostics.csv lacks the frozen header or a row up to the checkpoint's
    step. The stop_after_steps hook halts after writing a checkpoint at that
    step; it exists for interruption/resume testing and is not exposed on
    the CLI.
    """
    grid, params = config.grid, config.params
    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, "diagnostics.csv")

    f0 = make_initial(config.initial, grid)
    n_steps = (
        int(math.ceil(config.t_end / params.dt - 1e-9)) if config.t_end > 0 else 0
    )

    resume = load_checkpoint(config.output_dir, config.config_hash)
    if resume is not None:
        f_start, _, start_step = resume
        try:
            with open(csv_path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        except FileNotFoundError:
            lines = []
        if len(lines) < start_step + 2 or lines[0] != csv_header(config.k_max):
            raise ParseError(
                f"{csv_path}: needs the header and {start_step + 1} rows to resume "
                f"from checkpoint step {start_step}; found {len(lines)} lines"
            )
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines[: start_step + 2]) + "\n")  # header + rows
        csv_fh = open(csv_path, "a", encoding="utf-8")
    else:
        f_start, start_step = f0, 0
        csv_fh = open(csv_path, "w", encoding="utf-8")
        csv_fh.write(csv_header(config.k_max) + "\n")

    mean0 = f_start.mean()
    writer = SnapshotWriter()

    def snap_path(step: int) -> str:
        return os.path.join(config.output_dir, f"snap_{step:08d}.bin")

    def in_window(t: float) -> bool:
        if config.truncation_window is None:
            return False
        t_a, t_b = config.truncation_window
        return t_a - 1e-12 <= t <= t_b + 1e-12

    window_times: list[float] = []
    window_snaps: list[Field3] = []
    if resume is not None and config.truncation_window is not None:
        # recover the already-written window snapshots from disk
        for step in range(0, start_step + 1):
            if step % config.snapshot_stride and step != 0:
                continue
            t = step * params.dt
            if in_window(t) and os.path.exists(snap_path(step)):
                snap, _ = read_snapshot(snap_path(step))
                window_times.append(t)
                window_snaps.append(snap)

    try:
        if start_step == 0:
            record = diag.compute_record(
                f0, forward(f0).coeffs, 0.0, mean0, config.k_max, config.tail_fraction
            )
            csv_fh.write(csv_row(record) + "\n")
            writer.submit(snap_path(0), f0, 0.0, 0, params)
            if in_window(0.0):
                window_times.append(0.0)
                window_snaps.append(f0)
        final_record = None
        for step, coeffs, f in march(f_start, params, n_steps, start_step):
            t = step * params.dt
            record = diag.compute_record(
                f, coeffs, t, mean0, config.k_max, config.tail_fraction
            )
            final_record = record
            csv_fh.write(csv_row(record) + "\n")
            if step % config.snapshot_stride == 0 or step == n_steps:
                writer.submit(snap_path(step), f, t, step, params)
                if in_window(t):
                    window_times.append(t)
                    window_snaps.append(f)
            at_checkpoint = (
                config.checkpoint_every > 0 and step % config.checkpoint_every == 0
            )
            if at_checkpoint or step == stop_after_steps:
                csv_fh.flush()
                write_checkpoint(
                    config.output_dir, f, t, step, params, config.config_hash
                )
            if step == stop_after_steps:
                return 0
    finally:
        csv_fh.close()
        writer.close()

    c_p = poincare_constant(grid)
    m = mean0
    summary = {
        "t_final": n_steps * params.dt,
        "steps": n_steps,
        "mass": m,
        "kappa": kappa(params, m, c_p),
        "peclet_threshold": peclet_threshold(params, m, c_p),
        "is_small_pe": abs(params.pe) < peclet_threshold(params, m, c_p),
        "final_l2_to_const": final_record.l2_to_const if final_record else None,
        "cfl_dt_initial": cfl_dt(f0, params),
    }
    if config.truncation_window is not None:
        summary["truncation"] = _truncation_summary(
            config, grid, params, mean0, window_times, window_snaps
        )
    with open(
        os.path.join(config.output_dir, "summary.json"), "w", encoding="utf-8"
    ) as fh:
        json.dump(_json_safe(summary), fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def _truncation_summary(config, grid, params, mean0, times, snaps):
    """Truncation-energy ladder of the strided snapshots in the config window."""
    traj = Trajectory(
        grid=grid,
        params=params,
        mean0=mean0,
        times=times,
        snapshots=snaps,
        diagnostics=[],
    )
    try:
        ladder = truncation_energy(
            traj, config.truncation_window, config.truncation_k_max
        )
    except (WindowTooShort, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "window": list(config.truncation_window),
        "levels": list(ladder.levels),
        "window_times": list(ladder.window_times),
        "energies": list(ladder.energies),
    }


def cmd_verify(config: RunConfig) -> int:
    """Run the acceptance checks and print one PASS/FAIL/SKIP line each."""
    results = run_all(config)
    width = max(len(r.name) for r in results)
    for r in results:
        print(f"[{r.status:4s}] {r.criterion:2d} {r.name:<{width}s} "
              f"({r.elapsed:6.2f}s)  {r.detail}")
    n_fail = sum(1 for r in results if r.status == FAIL)
    n_skip = sum(1 for r in results if r.status == "SKIP")
    print(
        f"{len(results) - n_fail - n_skip} passed, {n_fail} failed, {n_skip} skipped"
    )
    return 1 if n_fail else 0


def cmd_decay(config: RunConfig) -> int:
    """Small-Peclet decay report as JSON on stdout."""
    f0 = make_initial(config.initial, config.grid)
    rep = verify_small_pe_decay(f0, config.params, config.t_end)
    print(
        json.dumps(
            _json_safe(
                {
                    "kappa": rep.kappa,
                    "threshold": rep.threshold,
                    "is_small_pe": rep.is_small_pe,
                    "measured_rate": rep.measured_rate,
                    "bound_satisfied": rep.bound_satisfied,
                    "final_l2_to_const": rep.final_l2_to_const,
                }
            ),
            indent=2,
            sort_keys=True,
        )
    )
    return 1 if rep.is_small_pe and not rep.bound_satisfied else 0


def cmd_stationary(config: RunConfig) -> int:
    """March toward a stationary state; report residual and endpoint as JSON."""
    f0 = make_initial(config.initial, config.grid)
    t_max = config.t_end if config.t_end > 0 else 100.0
    payload = {"t_max": t_max, "tol": 1e-8}
    try:
        sol, residual = solve_stationary(f0, config.params, tol=1e-8, t_max=t_max)
        payload.update(
            {
                "converged": True,
                "residual": residual,
                "mass": sol.mean(),
                "linf_to_constant": float(
                    np.abs(sol.values - f0.mean()).max()
                ),
            }
        )
    except NotConverged as exc:
        payload.update(
            {"converged": False, "residual": exc.residual, "mass": f0.mean()}
        )
    print(json.dumps(_json_safe(payload), indent=2, sort_keys=True))
    return 0


def cmd_oracle_compare(config: RunConfig) -> int:
    """Criterion 3's oracle comparison and gate, as JSON on stdout."""
    report = oracle_equivalence(config.params)
    print(json.dumps(_json_safe(report), indent=2, sort_keys=True))
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="activeflow",
        description="Pseudo-spectral solver and verification harness for the "
        "active-particle advection-diffusion model on the periodic box.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("simulate", "run a simulation from a JSON config"),
        ("verify", "run the acceptance checks at the configured scale"),
        ("decay", "measure decay to the constant state against the rate bound"),
        ("stationary", "time-march toward a stationary state"),
        ("oracle-compare", "compare against the finite-difference oracle"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
    args = parser.parse_args(argv)

    try:
        config = load_config(args.config)
    except ConfigError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2

    handlers = {
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "decay": cmd_decay,
        "stationary": cmd_stationary,
        "oracle-compare": cmd_oracle_compare,
    }
    try:
        return handlers[args.command](config)
    except NumericalBlowup as exc:
        _emit_error("NumericalBlowup", str(exc), step=exc.step)
        return 2
    except ActiveFlowError as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
