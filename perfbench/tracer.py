"""Spans around the calls into each layer of activeflow, taken from outside.

The tracer replaces each entry point below at every place it is bound: in
the module that defines it and in every activeflow module that imported it
by name (`cli._step_spectral` is wrapped apart from `dynamics._step_spectral`,
`cli.forward` apart from `spectral.forward`). numpy's `rfftn`/`irfftn` are
wrapped on `numpy.fft` itself, which every module reaches through `np.fft`.
Spans are kept in memory and written out once, when the run ends.

A span's layer is the first part of its name. Transforms count as the
spectral layer wherever they are called from.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import threading
import time

# (module, attribute) entry points; "Class.method" patches the class.
ENTRY_POINTS = (
    ("cli", "main"),
    ("cli", "cmd_simulate"),
    ("cli", "cmd_verify"),
    ("config", "load_config"),
    ("grid", "make_initial"),
    ("grid", "Field3.__post_init__"),
    ("spectral", "forward"),
    ("spectral", "inverse"),
    ("dynamics", "run"),
    ("dynamics", "_step_spectral"),
    ("dynamics", "_advection_hat"),
    ("dynamics", "rhs"),
    ("dynamics", "step_imex"),
    ("dynamics", "cfl_dt"),
    ("diagnostics", "compute_record"),
    ("diagnostics", "lp_ladder"),
    ("diagnostics", "truncation_energy"),
    ("diagnostics", "truncation_energy_rescaled"),
    ("storage", "write_snapshot"),
    ("storage", "read_snapshot"),
    ("storage", "write_checkpoint"),
    ("storage", "load_checkpoint"),
    ("storage", "SnapshotWriter.close"),
    ("equilibrium", "solve_stationary"),
    ("equilibrium", "verify_small_pe_decay"),
    ("equilibrium", "stationary_residual"),
    ("oracle", "fd_run"),
    ("oracle", "dense_poincare"),
    ("oracle", "exact_linear_solution"),
    ("verification", "run_check"),
)
FFT_FUNCTIONS = ("rfftn", "irfftn")
LAYERS = (
    "cli", "config", "grid", "spectral", "dynamics", "diagnostics",
    "storage", "equilibrium", "oracle", "verification",
)


class Tracer:
    """Records one span per wrapped call: (name, thread, start, end, parent).

    A span is a tuple and its parent is the index of the enclosing span on
    the same thread (-1 at the top), so the records hold no references and
    the garbage collector stops scanning them; a long traced run therefore
    does not slow the rounds that follow it.
    """

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.check_elapsed: dict[int, list[float]] = {}
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, on_result=None):
        spans, local, lock = self.spans, self._local, self._lock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            with lock:
                index = len(spans)
                spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[index] = (name, threading.get_ident(), start, time.perf_counter(), parent)
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def _record_check(self, result) -> None:
        self.check_elapsed.setdefault(result.criterion, []).append(result.elapsed)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "activeflow" or n.startswith("activeflow.")]
        for mod_name, attr in ENTRY_POINTS:
            mod = importlib.import_module(f"activeflow.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                self._patch(cls, meth, self._wrap(f"{mod_name}.{attr}", getattr(cls, meth)))
                continue
            original = getattr(mod, attr)
            on_result = self._record_check if attr == "run_check" else None
            wrapper = self._wrap(f"{mod_name}.{attr}", original, on_result)
            for m in modules:
                for bound_name, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, bound_name, wrapper)
        import numpy.fft

        for attr in FFT_FUNCTIONS:
            self._patch(numpy.fft, attr, self._wrap(f"spectral.{attr}", getattr(numpy.fft, attr)))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        """Write all spans as gzipped JSON: a name table and index rows."""
        names, threads = {}, {}
        rows = [
            [names.setdefault(name, len(names)), threads.setdefault(tid, len(threads)),
             start, end, parent]
            for name, tid, start, end, parent in self.spans
        ]
        doc = {"names": list(names), "fields": ["name", "thread", "start", "end", "parent"],
               "spans": rows}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _ancestor(spans, index: int, name: str) -> int:
    """Index of the nearest enclosing span called `name`, or -1."""
    parent = spans[index][4]
    while parent >= 0:
        if spans[parent][0] == name:
            return parent
        parent = spans[parent][4]
    return -1


def layer_totals(spans) -> dict[str, float]:
    """Per-layer metrics summed over all spans (times in s, counts).

    Self time is a span's duration minus the durations of its direct
    children. `spectral.loop_ffts` and `spectral.loop_steps` count the
    transforms and steps inside each `simulate` from the start of its first
    step to the start of `SnapshotWriter.close`, which is the time-step loop;
    their ratio is the transform count per step.
    """
    out: dict[str, float] = {f"{layer}.self_s": 0.0 for layer in LAYERS}
    dur: dict[str, float] = {}
    calls: dict[str, int] = {}
    child_time: dict[int, float] = {}
    adv_in_step = 0.0
    ckpt_snap_s = 0.0
    ckpt_snap_n = 0
    ckpt_read_s = 0.0
    ckpt_read_n = 0
    loops: dict[int, dict] = {}
    for i, (name, _, start, end, parent) in enumerate(spans):
        d = end - start
        dur[name] = dur.get(name, 0.0) + d
        calls[name] = calls.get(name, 0) + 1
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + d
        if name == "dynamics._advection_hat" and parent >= 0 \
                and spans[parent][0] == "dynamics._step_spectral":
            adv_in_step += d
        elif name == "storage.write_snapshot" \
                and _ancestor(spans, i, "storage.write_checkpoint") >= 0:
            ckpt_snap_s += d
            ckpt_snap_n += 1
        elif name == "storage.read_snapshot" \
                and _ancestor(spans, i, "storage.load_checkpoint") >= 0:
            ckpt_read_s += d
            ckpt_read_n += 1
        if name in ("dynamics._step_spectral", "storage.SnapshotWriter.close") \
                or name.startswith("spectral.") and name.endswith("fftn"):
            sim = _ancestor(spans, i, "cli.cmd_simulate")
            if sim >= 0:
                loop = loops.setdefault(sim, {"first": None, "close": None, "steps": 0, "ffts": []})
                if name == "dynamics._step_spectral":
                    loop["steps"] += 1
                    if loop["first"] is None:
                        loop["first"] = start
                elif name == "storage.SnapshotWriter.close":
                    loop["close"] = start
                else:
                    loop["ffts"].append(start)
    for i, (name, _, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[f"{layer}.self_s"] += (end - start) - child_time.get(i, 0.0)

    steps = sum(loop["steps"] for loop in loops.values())
    loop_ffts = sum(
        sum(1 for s in loop["ffts"] if loop["first"] <= s < loop["close"])
        for loop in loops.values() if loop["first"] is not None and loop["close"] is not None
    )
    fft_names = [f"spectral.{f}" for f in FFT_FUNCTIONS]
    out.update({
        "spectral.fft_s": sum(dur.get(n, 0.0) for n in fft_names),
        "spectral.loop_ffts": float(loop_ffts),
        "spectral.loop_steps": float(steps),
        "dynamics.advection_s": dur.get("dynamics._advection_hat", 0.0),
        "dynamics.advection_calls": float(calls.get("dynamics._advection_hat", 0)),
        "dynamics.step_s": dur.get("dynamics._step_spectral", 0.0),
        "dynamics.step_self_s": dur.get("dynamics._step_spectral", 0.0) - adv_in_step,
        "diagnostics.record_s": dur.get("diagnostics.compute_record", 0.0),
        "diagnostics.record_calls": float(calls.get("diagnostics.compute_record", 0)),
        "diagnostics.lp_ladder_s": dur.get("diagnostics.lp_ladder", 0.0),
        "diagnostics.truncation_s": dur.get("diagnostics.truncation_energy", 0.0),
        "storage.snapshot_write_s": dur.get("storage.write_snapshot", 0.0) - ckpt_snap_s,
        "storage.snapshots_written": float(calls.get("storage.write_snapshot", 0) - ckpt_snap_n),
        "storage.checkpoint_write_s": dur.get("storage.write_checkpoint", 0.0),
        "storage.checkpoints_written": float(calls.get("storage.write_checkpoint", 0)),
        "storage.writer_drain_s": dur.get("storage.SnapshotWriter.close", 0.0),
        "storage.snapshot_read_s": dur.get("storage.read_snapshot", 0.0) - ckpt_read_s,
        "storage.snapshots_read": float(calls.get("storage.read_snapshot", 0) - ckpt_read_n),
        "grid.field_construct_s": dur.get("grid.Field3.__post_init__", 0.0),
        "grid.fields_constructed": float(calls.get("grid.Field3.__post_init__", 0)),
        "grid.make_initial_s": dur.get("grid.make_initial", 0.0),
        "config.load_s": dur.get("config.load_config", 0.0),
        "equilibrium.solve_stationary_s": dur.get("equilibrium.solve_stationary", 0.0),
        "equilibrium.rhs_calls": float(calls.get("dynamics.rhs", 0)),
        "oracle.fd_run_s": dur.get("oracle.fd_run", 0.0),
        "oracle.dense_poincare_s": dur.get("oracle.dense_poincare", 0.0),
    })
    return out
