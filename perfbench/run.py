"""Benchmark of activeflow: one workload per run, one JSON result line.

    python3 perfbench/run.py --workload simulate-64 --seed 1 --seconds 38 --trace 0

Run it from the root of a source tree: it imports activeflow from ./src and
exits with code 1, printing no result, when that is missing. With --trace 0
the last stdout line holds the end-to-end metrics of BENCHMARK.json; with
--trace 1 it holds the per-layer metrics, taken from spans the benchmark
records around the calls into each module (see tracer.py).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Linear algebra stays single-threaded so thread counts are the workload's
# own; these must be set before numpy is first imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

COLD_STARTS = 11
COLD_START_TIMEOUT_S = 60


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import activeflow from ./src, refusing any other copy."""
    if not os.path.isfile(os.path.join(SRC, "activeflow", "__init__.py")):
        raise SystemExit(f"perfbench: no activeflow sources under {SRC}")
    sys.path.insert(0, SRC)
    import activeflow
    from activeflow import cli, config

    if os.path.dirname(os.path.dirname(os.path.abspath(activeflow.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported activeflow from {activeflow.__file__}")
    return cli, config


class ColdStarts:
    """Fresh `activeflow simulate` processes on the workload's config cut to 0 steps.

    That is the cost a user pays once per command: interpreter, imports,
    config parse, initial data, the first diagnostics record and the step-0
    snapshot, up to where the first time step would start. They run between
    the rounds, a few at a time, so their median samples the whole run and
    not one moment of it.
    """

    def __init__(self, workload, threads: int):
        doc = workload.cold_start_config()
        self.out = doc["output_dir"]
        self.path = workload.write_config("cold", doc)
        self.env = dict(os.environ, PYTHONPATH=SRC, ACTIVEFLOW_THREADS=str(threads))
        self.times: list[float] = []
        self.problems: list[str] = []

    def run(self, count: int) -> None:
        for _ in range(count):
            shutil.rmtree(self.out, ignore_errors=True)
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "activeflow.cli", "simulate", "--config", self.path],
                env=self.env, cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                timeout=COLD_START_TIMEOUT_S, check=False,
            )
            self.times.append(time.perf_counter() - start)
            if proc.returncode != 0:
                self.problems.append(
                    f"cold start exited with {proc.returncode}: {proc.stderr[-300:]!r}")

    def median(self) -> float:
        return statistics.median(self.times)


def run_rounds(workload, seconds: float, cold: ColdStarts) -> list:
    """Whole rounds until the next one would end after `seconds`; at least one.

    After each round but the last, cold starts run, as many as spread
    COLD_STARTS evenly over the rounds the first one predicts; the rest run
    at the end. Their time is not counted in `seconds`.
    """
    rounds = []
    spent = 0.0
    per_gap = 1
    while True:
        began = time.perf_counter()
        rounds.append(workload.run_round())
        last = time.perf_counter() - began
        spent += last
        if spent + last > seconds:
            cold.run(COLD_STARTS - len(cold.times))
            return rounds
        if len(rounds) == 1:
            per_gap = math.ceil(COLD_STARTS * last / seconds)
        cold.run(min(per_gap, COLD_STARTS - len(cold.times)))


def run_traced_pairs(workload, seconds: float, tracer) -> tuple[list, list]:
    """Untraced and traced rounds in turn, so both see the same machine load."""
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        untraced.append(workload.run_round())
        tracer.install()
        try:
            traced.append(workload.run_round())
        finally:
            tracer.uninstall()
        last = time.perf_counter() - began
        if time.perf_counter() - start + last > seconds:
            return untraced, traced


def end_to_end(rounds, setup_s: float) -> dict[str, float]:
    return {
        "wall_s": statistics.median(r.wall_s for r in rounds),
        "setup_s": setup_s,
        "steps_per_s": statistics.median(r.steps / r.step_s for r in rounds),
        "resume_s": statistics.median(s for r in rounds for s in r.resume_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(tracer, traced, untraced) -> dict[str, float]:
    """Per-round means of the traced rounds, plus the tracing overhead."""
    from tracer import layer_totals

    n = len(traced)
    totals = layer_totals(tracer.spans)
    loop_ffts, loop_steps = totals.pop("spectral.loop_ffts"), totals.pop("spectral.loop_steps")
    out = {k: v / n for k, v in totals.items()}
    out["spectral.fft_calls_per_step"] = loop_ffts / loop_steps if loop_steps else 0.0
    out["storage.bytes_written_mb"] = sum(r.bytes_written for r in traced) / n / 2**20
    out["storage.bytes_read_mb"] = sum(r.bytes_read for r in traced) / n / 2**20
    for criterion in range(1, 11):
        elapsed = tracer.check_elapsed.get(criterion, [])
        out[f"verification.check_{criterion:02d}_s"] = sum(elapsed) / n
    traced_wall = statistics.median(r.wall_s for r in traced)
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - statistics.median(r.wall_s for r in untraced)
    return out


def result_line(spec: dict, kind: str, values: dict, rounds, problems) -> str:
    wanted = {m["name"]: m["unit"] for m in spec[kind]}
    if set(values) != set(wanted):
        raise RuntimeError(
            f"metrics {sorted(set(values) ^ set(wanted))} differ from BENCHMARK.json {kind}"
        )
    for name, value in values.items():
        if not math.isfinite(value):
            raise RuntimeError(f"metric {name} is {value}")
    return json.dumps({
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": {n: {"value": values[n], "unit": wanted[n]} for n in wanted},
    })


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, config_mod = import_program()
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    os.environ["ACTIVEFLOW_THREADS"] = str(cls.threads)
    os.makedirs(OUT, exist_ok=True)
    work = os.path.join(OUT, f"work-{args.workload}-{args.seed}-{os.getpid()}")
    try:
        workload = cls(cli, config_mod, work, args.seed)
        if args.trace:
            from tracer import Tracer

            problems = []
            tracer = Tracer()
            untraced, traced = run_traced_pairs(workload, args.seconds, tracer)
            rounds = untraced + traced
            tracer.write(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json.gz"))
            values, kind = per_layer(tracer, traced, untraced), "per_layer"
        else:
            cold = ColdStarts(workload, cls.threads)
            rounds = run_rounds(workload, args.seconds, cold)
            problems = cold.problems
            values, kind = end_to_end(rounds, cold.median()), "end_to_end"
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for r in rounds:
        problems += r.problems
    for p in dict.fromkeys(problems):
        print(f"perfbench: incorrect output: {p}", file=sys.stderr)
    for f in dict.fromkeys(f for r in rounds for f in r.failures):
        print(f"perfbench: failed operation: {f}", file=sys.stderr)
    print(result_line(spec, kind, values, rounds, problems))
    return 0


if __name__ == "__main__":
    sys.exit(main())
