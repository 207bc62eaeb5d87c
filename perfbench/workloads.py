"""The three benchmark workloads: inputs, rounds, operations and checks.

A run repeats whole rounds of one workload, so every run attempts the same
operations in the same proportions whatever its length or seed. Commands are
timed one by one; the benchmark's own checks run between them, untimed.

Each round ends with final-step resumes: `simulate` run again on a finished
output directory whose checkpoint sits at the last step. They give
`resume_s`. Their inputs never depend on the seed, because each of them fails
the same way on every run (the summary's `final_l2_to_const` is null).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import shutil
import time

import checks

PE, DE, DT = 0.05, 1.0, 0.01
DESK_DATA = {"kind": "single_mode", "m": 1.0, "epsilon": 0.5, "mode": [1, 0, 0]}
K_MAX = 6


def config_doc(n, steps, output_dir, initial, stride, checkpoint_every, window=None,
               dt=DT):
    diagnostics = {"k_max": K_MAX}
    if window is not None:
        diagnostics["truncation"] = {"window": list(window)}
    return {
        "grid": {"n_x": n, "n_theta": n},
        "params": {"pe": PE, "de": DE, "dt": dt, "dealias": True},
        "initial": initial,
        "t_end": steps * dt,
        "snapshot_stride": stride,
        "output_dir": output_dir,
        "diagnostics": diagnostics,
        "checkpoint_every": checkpoint_every,
    }


def _snap(out_dir: str, step: int) -> str:
    return os.path.join(out_dir, f"snap_{step:08d}.bin")


def _summary(out_dir: str) -> dict:
    with open(os.path.join(out_dir, "summary.json"), "r", encoding="utf-8") as fh:
        return json.load(fh)


def read_io() -> tuple[int, int]:
    """(rchar, wchar) of this process from /proc/self/io; zeros if absent."""
    try:
        with open("/proc/self/io", "r", encoding="ascii") as fh:
            fields = dict(line.split(":") for line in fh.read().splitlines())
    except OSError:
        return 0, 0
    return int(fields["rchar"]), int(fields["wchar"])


class Round:
    """Timings, operation counts and problems of one round."""

    def __init__(self):
        self.wall_s = 0.0
        self.step_s = 0.0
        self.steps = 0
        self.resume_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.problems: list[str] = []
        self.bytes_read = 0
        self.bytes_written = 0

    def op(self, failure: list[str]) -> None:
        self.attempted += 1
        if failure:
            self.failed += 1
            self.failures += failure


class Workload:
    """Base: work directory, config files and timed program commands."""

    name = ""
    threads = 1
    resumes_per_round = 3

    def __init__(self, cli, config_mod, work_dir: str, seed: int):
        self.cli = cli
        self.config_mod = config_mod
        self.work = work_dir
        self.seed = seed
        os.makedirs(work_dir, exist_ok=True)

    def write_config(self, name: str, doc: dict) -> str:
        path = os.path.join(self.work, f"{name}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
        return path

    def timed(self, rnd: Round, fn, *args, **kwargs):
        """Call one program command, adding its wall time and I/O to the round."""
        r0, w0 = read_io()
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink):
            result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        r1, w1 = read_io()
        rnd.wall_s += elapsed
        rnd.bytes_read += r1 - r0
        rnd.bytes_written += w1 - w0
        return result, elapsed, sink.getvalue()

    def simulate(self, rnd: Round, config_path: str):
        code, elapsed, _ = self.timed(rnd, self.cli.main, ["simulate", "--config", config_path])
        return code, elapsed

    def simulate_until(self, rnd: Round, config_path: str, stop: int):
        """One interrupted segment: simulate, halting after a checkpoint at `stop`."""
        def segment():
            return self.cli.cmd_simulate(self.config_mod.load_config(config_path),
                                         stop_after_steps=stop)
        code, elapsed, _ = self.timed(rnd, segment)
        return code, elapsed

    def final_resumes(self, rnd: Round, config_path: str, out_dir: str) -> None:
        """Resume a finished run at its final step; each is one operation."""
        for _ in range(self.resumes_per_round):
            code, elapsed = self.simulate(rnd, config_path)
            rnd.resume_s.append(elapsed)
            failure = [] if code == 0 else [f"final-step resume exited with {code}"]
            summary = _summary(out_dir)
            rnd.op(failure + checks.check_final_l2(summary))
            if "truncation" in summary:
                rnd.problems += checks.check_truncation(summary)

    def check_run(self, out_dir: str, steps: int) -> list[str]:
        """Method properties and the last-row recomputation of one full run."""
        names, rows = checks.read_csv(os.path.join(out_dir, "diagnostics.csv"))
        problems = []
        if rows.shape[0] != steps + 1:
            problems.append(f"{out_dir}: {rows.shape[0]} CSV rows, expected {steps + 1}")
        _, first = checks.read_snapshot(_snap(out_dir, 0))
        _, last = checks.read_snapshot(_snap(out_dir, steps))
        problems += checks.check_mass(names, rows)
        problems += checks.check_density(names, rows)
        problems += checks.check_decay(names, rows, PE, DE)
        problems += checks.check_last_row(names, rows, last, float(first.mean()))
        return problems

    def cold_start_config(self) -> dict:
        """The workload's main config, cut to zero steps, for `setup_s`."""
        raise NotImplementedError

    def run_round(self) -> Round:
        raise NotImplementedError


class Simulate64(Workload):
    """`simulate` at 64^3, seeded random band-limited data, one thread."""

    name = "simulate-64"
    steps = 40
    probe_steps = 2

    def __init__(self, *args):
        super().__init__(*args)
        rng = random.Random(self.seed)
        self.initial = {
            "kind": "random_bandlimited",
            "m": 1.0,
            "epsilon": round(rng.uniform(0.3, 0.8), 6),
            "max_mode": 8,
            "seed": rng.randrange(1, 2**31),
        }
        self.out = os.path.join(self.work, "sim64")
        self.main_cfg = self.write_config("sim64", config_doc(
            64, self.steps, self.out, self.initial, stride=20, checkpoint_every=0))
        self.probe_out = os.path.join(self.work, "probe64")
        self.probe_cfg = self.write_config("probe64", config_doc(
            64, self.probe_steps, self.probe_out, DESK_DATA, stride=self.probe_steps,
            checkpoint_every=self.probe_steps))

    def cold_start_config(self):
        return config_doc(64, 0, os.path.join(self.work, "cold"), self.initial,
                          stride=20, checkpoint_every=0)

    def run_round(self):
        rnd = Round()
        shutil.rmtree(self.out, ignore_errors=True)
        code, elapsed = self.simulate(rnd, self.main_cfg)
        rnd.step_s, rnd.steps = elapsed, self.steps
        rnd.op([] if code == 0 else [f"simulate exited with {code}"])
        rnd.problems += self.check_run(self.out, self.steps)

        shutil.rmtree(self.probe_out, ignore_errors=True)
        code, _ = self.simulate(rnd, self.probe_cfg)
        rnd.op([] if code == 0 else [f"probe simulate exited with {code}"])
        rnd.problems += self.check_run(self.probe_out, self.probe_steps)
        self.final_resumes(rnd, self.probe_cfg, self.probe_out)
        return rnd


class ResumeIO32(Workload):
    """Interrupted and resumed `simulate` at 32^3 with heavy per-step I/O."""

    name = "resume-io-32"
    threads = 2
    steps = 40
    stops = (10, 20, 30)
    window = (0.1, 0.4)

    def __init__(self, *args):
        super().__init__(*args)
        self.dir_a = os.path.join(self.work, "uninterrupted")
        self.dir_b = os.path.join(self.work, "resumed")
        self.cfg_a = self.write_config("uninterrupted", self._doc(self.dir_a))
        self.cfg_b = self.write_config("resumed", self._doc(self.dir_b))

    def _doc(self, out):
        return config_doc(32, self.steps, out, DESK_DATA, stride=1, checkpoint_every=1,
                          window=self.window)

    def cold_start_config(self):
        # No truncation window: a 0-step run holds no snapshot inside it.
        return config_doc(32, 0, os.path.join(self.work, "cold"), DESK_DATA, stride=1,
                          checkpoint_every=1)

    def _bytes_match(self, lo: int, hi: int) -> list[str]:
        """Rows and snapshots of steps lo..hi are byte-identical in both runs."""
        with open(os.path.join(self.dir_a, "diagnostics.csv"), "rb") as fh:
            want = fh.read().splitlines()
        with open(os.path.join(self.dir_b, "diagnostics.csv"), "rb") as fh:
            got = fh.read().splitlines()
        rows = [s for s in range(lo, hi + 1)
                if s + 1 >= len(got) or got[s + 1] != want[s + 1]]
        snaps = []
        for s in range(lo, hi + 1):
            with open(_snap(self.dir_a, s), "rb") as fa, open(_snap(self.dir_b, s), "rb") as fb:
                if fa.read() != fb.read():
                    snaps.append(s)
        if rows or snaps:
            return [f"steps {lo}..{hi}: CSV rows of steps {rows} and snapshots {snaps} "
                    "are not byte-identical to the uninterrupted run"]
        return []

    def _agree(self) -> list[str]:
        names, want = checks.read_csv(os.path.join(self.dir_a, "diagnostics.csv"))
        _, got = checks.read_csv(os.path.join(self.dir_b, "diagnostics.csv"))
        problems = checks.check_rows_agree(names, want, got)
        for s in range(self.steps + 1):
            _, a = checks.read_snapshot(_snap(self.dir_a, s))
            _, b = checks.read_snapshot(_snap(self.dir_b, s))
            problems += [f"step {s}: {p}" for p in checks.check_snapshots_agree(a, b)]
        return problems

    def run_round(self):
        rnd = Round()
        shutil.rmtree(self.dir_a, ignore_errors=True)
        shutil.rmtree(self.dir_b, ignore_errors=True)
        code, elapsed = self.simulate(rnd, self.cfg_a)
        step_s = elapsed
        if code != 0:
            rnd.problems.append(f"uninterrupted simulate exited with {code}")
        rnd.problems += self.check_run(self.dir_a, self.steps)
        rnd.problems += checks.check_truncation(_summary(self.dir_a))
        rnd.problems += checks.check_final_l2(_summary(self.dir_a))

        code, elapsed = self.simulate_until(rnd, self.cfg_b, self.stops[0])
        step_s += elapsed
        if code != 0:
            rnd.problems.append(f"first segment exited with {code}")
        rnd.problems += self._bytes_match(0, self.stops[0])
        bounds = list(self.stops) + [self.steps]
        for lo, hi in zip(bounds, bounds[1:]):
            if hi == self.steps:
                code, elapsed = self.simulate(rnd, self.cfg_b)
            else:
                code, elapsed = self.simulate_until(rnd, self.cfg_b, hi)
            step_s += elapsed
            rnd.op(([] if code == 0 else [f"resume exited with {code}"])
                   + self._bytes_match(lo + 1, hi))
        rnd.step_s, rnd.steps = step_s, 2 * self.steps
        rnd.problems += self._agree()
        self.final_resumes(rnd, self.cfg_b, self.dir_b)
        return rnd


class Verify16(Workload):
    """`activeflow verify` at 16^3, plus 16^3 `simulate` probes for steps and resume.

    `verify` runs with dt 0.025, the largest step its De Giorgi criterion
    takes, so a round lasts about 8 s and a run holds several of them. The
    probe and its final-step resumes run on both sides of `verify`, so the
    timings they give sample two moments of each round, not one.
    """

    name = "verify-16"
    verify_dt = 0.025
    probe_steps = 500
    probe_stride = 25
    resumes_per_round = 30
    window = (1.0, 4.0)

    def __init__(self, *args):
        super().__init__(*args)
        self.verify_cfg = self.write_config("verify16", config_doc(
            16, 40, os.path.join(self.work, "verify16"), DESK_DATA, stride=10,
            checkpoint_every=0, dt=self.verify_dt))
        self.probe_out = os.path.join(self.work, "probe16")
        self.probe_cfg = self.write_config("probe16", config_doc(
            16, self.probe_steps, self.probe_out, DESK_DATA, stride=self.probe_stride,
            checkpoint_every=self.probe_steps, window=self.window))

    def cold_start_config(self):
        return config_doc(16, 0, os.path.join(self.work, "cold"), DESK_DATA, stride=10,
                          checkpoint_every=0, dt=self.verify_dt)

    def probe(self, rnd: Round) -> None:
        """A fresh probe `simulate`, then its final-step resumes."""
        shutil.rmtree(self.probe_out, ignore_errors=True)
        code, elapsed = self.simulate(rnd, self.probe_cfg)
        rnd.step_s += elapsed
        rnd.steps += self.probe_steps
        rnd.op([] if code == 0 else [f"probe simulate exited with {code}"])
        rnd.problems += self.check_run(self.probe_out, self.probe_steps)
        rnd.problems += checks.check_truncation(_summary(self.probe_out))
        self.final_resumes(rnd, self.probe_cfg, self.probe_out)

    def run_round(self):
        rnd = Round()
        self.probe(rnd)
        code, _, text = self.timed(rnd, self.cli.main, ["verify", "--config", self.verify_cfg])
        statuses = checks.verify_statuses(text)
        for criterion in range(1, 11):
            status = statuses.get(criterion, "missing")
            rnd.op([] if status == "PASS" else [f"criterion {criterion}: {status}"])
        rnd.problems += checks.check_verify(text, code)
        self.probe(rnd)
        return rnd


WORKLOADS = {w.name: w for w in (Simulate64, ResumeIO32, Verify16)}
