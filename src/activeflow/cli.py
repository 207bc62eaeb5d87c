"""Command-line entry point.

Subcommands: simulate, verify, decay, stationary, oracle-compare. All of them
take a single --config JSON path; the config owns every physical and numerical
setting so runs are reproducible artifacts. Exit codes: 0 ok, 1 verification
failure, 2 any other error (a config value out of range, an I/O failure such
as an output_dir that cannot be made, a blowup, a refused checkpoint), with a
machine-readable JSON error on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import re
import sys
from pathlib import Path

import numpy as np

from . import diagnostics as diag
from .config import RunConfig, load_config
from .dynamics import cfl_dt, march, states, step_count
from .equilibrium import (
    kappa,
    peclet_threshold,
    solve_stationary,
    verify_small_pe_decay,
)
from .errors import (
    ActiveFlowError,
    NotConverged,
    NumericalBlowup,
    ParseError,
    WindowTooShort,
    number,
)
from .grid import Field3, make_initial
from .spectral import poincare_constant, synthesize
from .storage import (
    CSV_SCALARS,
    SnapshotWriter,
    csv_header,
    csv_row,
    load_checkpoint,
    replace_file,
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

    A fresh run iterates dynamics.states, a resume continues dynamics.march
    from the checkpoint's spectrum, ladder state and step-0 constants (mass,
    cfl_dt_initial), byte-identically, and builds no initial data. One
    body serves every step, step 0 included: a diagnostics.csv row, and at
    strided steps a snapshot, fed to the truncation-ladder reducer. Every
    file is written on this thread, in step order: the CSV is flushed and the
    step's snapshot written before its checkpoint, so a checkpoint reaches
    disk only after every output up to its step. Checkpoints come after step
    0. A checkpoint of another format or config is refused, and so
    (ParseError, every file left as it is) are a header step or ladder state
    that does not fit the config and a diagnostics.csv without the header or
    a row up to its step. summary.json is written last, through
    storage.replace_file unless it already holds these bytes (so a final-step
    rerun writes nothing), and a fresh start removes the previous one and
    every snap_*.bin(.tmp), so each output is this run's and the summary
    whole or absent. The stop_after_steps hook halts after a checkpoint at
    that step; it exists for interruption/resume testing and is not exposed
    on the CLI.
    """
    grid, params = config.grid, config.params
    os.makedirs(config.output_dir, exist_ok=True)
    csv_path = os.path.join(config.output_dir, "diagnostics.csv")
    summary_path = os.path.join(config.output_dir, "summary.json")

    n_steps = step_count(config.t_end, params.dt)
    resume = load_checkpoint(config.output_dir, config.config_hash)
    if resume is None:  # a resume takes the step-0 constants from the checkpoint
        f0 = make_initial(config.initial, grid)
    coeffs, start_step, ladder_state, mean0, cfl0 = resume or (
        None, 0, None, f0.mean(), cfl_dt(f0, params))
    if resume is not None and (ladder_state is None) != (config.truncation_window is None):
        raise ParseError("checkpoint truncation state must be null exactly when "
                         "the config has no truncation window")
    ladder = None if config.truncation_window is None else diag.TruncationReducer(
        config.truncation_window, config.truncation_k_max, grid.cell_volume,
        ladder_state,
    )
    if resume is not None:  # the checks above come first: a refused resume edits no file
        final_l2 = _cut_csv(csv_path, config.k_max, start_step)
        csv_fh = open(csv_path, "a", encoding="utf-8")
    else:
        for name in os.listdir(config.output_dir):  # the previous run's outputs
            if name == "summary.json" or re.fullmatch(r"snap_.*\.bin(\.tmp)?", name):
                os.remove(os.path.join(config.output_dir, name))
        csv_fh = open(csv_path, "w", encoding="utf-8")
        csv_fh.write(csv_header(config.k_max) + "\n")
    writer = SnapshotWriter()

    try:
        if resume is None:
            steps = states(f0, params, n_steps)
        elif start_step < n_steps:
            f = Field3.adopt(grid, synthesize(coeffs, grid))  # the crc32 vouches for it
            steps = march(f, params, n_steps, start_step, coeffs)
        else:  # a final-step resume: no step is left to take
            steps = ()
        for step, coeffs, f in steps:
            t = step * params.dt
            record = diag.compute_record(
                f, coeffs, t, mean0, config.k_max, config.tail_fraction
            )
            csv_fh.write(csv_row(record) + "\n")
            final_l2 = record.l2_to_const
            if step % config.snapshot_stride == 0 or step == n_steps:
                snap_path = os.path.join(config.output_dir, f"snap_{step:08d}.bin")
                writer.submit(snap_path, f, t, step, params)
                if ladder is not None:
                    ladder.add(t, f.values, coeffs=coeffs, grid=grid)
            at_checkpoint = (
                config.checkpoint_every > 0 and step % config.checkpoint_every == 0
            )
            if step > 0 and (at_checkpoint or step == stop_after_steps):
                csv_fh.flush()
                write_checkpoint(
                    config.output_dir, coeffs, grid, t, step, params,
                    config.config_hash, None if ladder is None else ladder.state(),
                    mean0, cfl0,
                )
                if step == stop_after_steps:
                    return 0
    finally:
        csv_fh.close()
        writer.close()

    c_p = poincare_constant(grid)
    threshold = peclet_threshold(params, mean0, c_p)
    summary = {
        "t_final": n_steps * params.dt,
        "steps": n_steps,
        "mass": mean0,
        "kappa": kappa(params, mean0, c_p),
        "peclet_threshold": threshold,
        "is_small_pe": abs(params.pe) < threshold,
        "final_l2_to_const": final_l2,
        "cfl_dt_initial": cfl0,
    }
    if ladder is not None:
        summary["truncation"] = _truncation_summary(config, ladder)
    data = (json.dumps(_json_safe(summary), indent=2, sort_keys=True) + "\n").encode()
    if not os.path.exists(summary_path) or Path(summary_path).read_bytes() != data:
        replace_file(summary_path, data)
    return 0


def _cut_csv(csv_path: str, k_max: int, step: int) -> float:
    """Cut diagnostics.csv back to a checkpoint's step, unless it ends there,
    through replace_file (an interruption leaves the old rows or the cut
    ones); return its l2_to_const, a finite number (errors.number) or
    ParseError before any write."""
    try:
        with open(csv_path, "r", encoding="utf-8", newline="") as fh:
            text = fh.read()
    except FileNotFoundError:
        text = ""
    lines = text.splitlines()
    if len(lines) < step + 2 or lines[0] != csv_header(k_max):
        raise ParseError(
            f"{csv_path}: needs the header and {step + 1} rows to resume "
            f"from checkpoint step {step}; found {len(lines)} lines"
        )
    try:
        cell = lines[step + 1].split(",")[CSV_SCALARS.index("l2_to_const")]
        l2 = number(float(cell), f"{csv_path}: l2_to_const of step {step}")
    except (IndexError, ValueError) as exc:
        raise ParseError(f"{csv_path}: malformed row for step {step}") from exc
    kept = "\n".join(lines[: step + 2]) + "\n"  # header, rows
    if kept != text:
        replace_file(csv_path, kept.encode())
    return l2


def _truncation_summary(config, ladder):
    """The truncation-energy ladder of the strided snapshots in the config window."""
    try:
        result = ladder.finish()
    except (WindowTooShort, ValueError) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    return {
        "window": list(config.truncation_window),
        "levels": list(result.levels),
        "window_times": list(result.window_times),
        "energies": list(result.energies),
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
    print(json.dumps(_json_safe(dataclasses.asdict(rep)), indent=2, sort_keys=True))
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

    handlers = {
        "simulate": cmd_simulate,
        "verify": cmd_verify,
        "decay": cmd_decay,
        "stationary": cmd_stationary,
        "oracle-compare": cmd_oracle_compare,
    }
    try:
        return handlers[args.command](load_config(args.config))
    except NumericalBlowup as exc:
        _emit_error("NumericalBlowup", str(exc), step=exc.step)
        return 2
    except (ActiveFlowError, OSError) as exc:
        _emit_error(type(exc).__name__, str(exc))
        return 2


if __name__ == "__main__":
    sys.exit(main())
