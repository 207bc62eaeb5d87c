"""Every function in src/activeflow is reached by a command.

The five subcommands run in-process on 8^3 configs under sys.setprofile: a
fresh simulate, a resume of it at its final step, a run whose field crosses
a truncation level, a blowup and a bad config, then verify, decay,
stationary and oracle-compare. Functions are keyed on their code object's
file and first line. One that no run reaches is dead code: delete it, or
reach it from a command. The allow-list holds only names the benchmark's
tracer binds by name, and the test checks that it does.
"""

import ast
import contextlib
import inspect
import io
import json
import os
import sys
import types
import warnings

import activeflow
from activeflow import cli

# Bound by name in perfbench/tracer.py, which wraps them for its spans.
TRACER_BOUND = {"step_imex", "truncation_energy", "read_snapshot", "run", "rhs"}

PACKAGE = os.path.dirname(os.path.realpath(activeflow.__file__))
TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def tracer_entry_points():
    """The attribute names of perfbench/tracer.py's ENTRY_POINTS, read with ast."""
    with open(TRACER, "r", encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "ENTRY_POINTS" for t in node.targets):
            return {attr for _, attr in ast.literal_eval(node.value)}
    raise AssertionError(f"{TRACER} binds no ENTRY_POINTS")


def test_allow_list_is_bound_by_the_tracer():
    assert TRACER_BOUND <= tracer_entry_points()


def defined_functions():
    """(file, first line) -> name of every function and lambda in the package."""
    found = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, "r", encoding="utf-8") as fh:
            stack = [compile(fh.read(), path, "exec")]
        while stack:
            code = stack.pop()
            stack += [c for c in code.co_consts if isinstance(c, types.CodeType)]
            function = code.co_flags & inspect.CO_OPTIMIZED  # not a module or class body
            if function and (code.co_name == "<lambda>" or not code.co_name.startswith("<")):
                found[(path, code.co_firstlineno)] = code.co_name
    return found


def doc(out_dir, **overrides):
    base = {
        "grid": {"n_x": 8, "n_theta": 8},
        "params": {"pe": 0.3, "de": 1.0, "dt": 0.025},
        "initial": {"kind": "random_bandlimited", "m": 1.0, "epsilon": 0.3,
                    "max_mode": 2, "seed": 4},
        "t_end": 0.25,
        "snapshot_stride": 2,
        "output_dir": out_dir,
        "diagnostics": {"k_max": 4, "truncation": {"window": [0.05, 0.25], "k_max": 2}},
        "checkpoint_every": 5,
    }
    return dict(base, **overrides)


def run_commands(tmp_path):
    """(command, config document, expected exit code) for every run, in order."""
    sim = doc(str(tmp_path / "sim"))
    desk_mode = {"kind": "single_mode", "m": 1.0, "epsilon": 0.5, "mode": [1, 0, 0]}
    return [
        ("simulate", sim, 0),
        ("simulate", sim, 0),  # resumes from the checkpoint at the final step
        # max f above C_1 = 1/4: the ladder synthesizes gradients for that cut
        ("simulate", doc(str(tmp_path / "cross"), initial=dict(
            desk_mode, m=39.0, epsilon=0.9, mode=[0, 0, 1])), 0),
        ("simulate", doc(str(tmp_path / "blowup"), t_end=50.0,
                         params={"pe": 80.0, "de": 0.01, "dt": 5.0},
                         initial=dict(desk_mode, epsilon=0.9)), 2),
        ("simulate", doc(str(tmp_path / "bad"), grid={"n_x": 7, "n_theta": 8}), 2),
        ("verify", doc(str(tmp_path / "verify"), initial=desk_mode), 0),
        ("decay", doc(str(tmp_path / "decay"), initial=desk_mode, t_end=0.5), 0),
        # too short to converge, so the NotConverged report is reached too
        ("stationary", doc(str(tmp_path / "stat"), t_end=0.1), 0),
        ("oracle-compare", doc(str(tmp_path / "oracle")), 0),
    ]


def test_every_function_is_reached(tmp_path, monkeypatch):
    monkeypatch.delenv("ACTIVEFLOW_THREADS", raising=False)
    for name, module in list(sys.modules.items()):
        if name.startswith("activeflow"):  # a warm lru_cache skips its function
            for value in vars(module).values():
                getattr(value, "cache_clear", lambda: None)()
    runs = run_commands(tmp_path)
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    codes = []
    for i, (command, config, _) in enumerate(runs):
        path = tmp_path / f"config_{i}.json"
        path.write_text(json.dumps(config))
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink), \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys.setprofile(profile)
            try:
                codes.append(cli.main([command, "--config", str(path)]))
            finally:
                sys.setprofile(None)
    assert codes == [expected for _, _, expected in runs]

    reached = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in seen}
    unreached = {
        f"{os.path.basename(path)}:{line} {name}"
        for (path, line), name in defined_functions().items()
        if (path, line) not in reached and name not in TRACER_BOUND
    }
    assert not unreached, f"functions no command reaches: {sorted(unreached)}"
