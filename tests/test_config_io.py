import contextlib
import copy
import errno
import functools
import io
import itertools
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile
import zlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import activeflow
from activeflow import cli, config, dynamics, storage
from activeflow.cli import cmd_simulate, main
from activeflow.config import load_config, parse_config
from activeflow.diagnostics import _spectral_grads as spectral_grads
from activeflow.diagnostics import truncation_energy
from activeflow.dynamics import run, step_count
from activeflow.equilibrium import solve_stationary
from activeflow.errors import NotConverged, ParseError, ValidationError
from activeflow.grid import Params, make_grid, make_initial
from activeflow.storage import (
    CHECKPOINT_NAME,
    CSV_SCALARS,
    csv_header,
    csv_row,
    read_snapshot,
    write_snapshot,
)
from conftest import random_field, read_csv


def base_doc(**overrides):
    doc = {
        "grid": {"n_x": 16, "n_theta": 16},
        "params": {"pe": 0.05, "de": 1.0, "dt": 0.01},
        "initial": {"kind": "single_mode", "m": 1.0, "epsilon": 0.5, "mode": [1, 0, 0]},
        "t_end": 0.5,
        "output_dir": "out",
    }
    doc.update(overrides)
    return doc


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def output_files(out_dir):
    """Every output file but the checkpoint, name -> bytes."""
    return {
        path.name: path.read_bytes()
        for path in sorted(pathlib.Path(out_dir).iterdir())
        if path.name != CHECKPOINT_NAME
    }


def window_doc(out_dir, **overrides):
    """An 8^3 run of 12 steps, snapshots every 2, a truncation window."""
    doc = base_doc(
        output_dir=out_dir,
        grid={"n_x": 8, "n_theta": 8},
        params={"pe": 0.3, "de": 1.0, "dt": 0.01},
        t_end=0.12,
        snapshot_stride=2,
        checkpoint_every=5,
        diagnostics={"k_max": 4, "truncation": {"window": [0.02, 0.12], "k_max": 3}},
    )
    doc.update(overrides)
    return doc


def seal(header, payload):
    """A format-3 checkpoint's crc32: zlib.crc32 of the payload, seeded with
    that of the header's canonical JSON without the crc32 key."""
    head = json.dumps({k: v for k, v in header.items() if k != "crc32"}, sort_keys=True)
    return zlib.crc32(payload, zlib.crc32(head.encode()))


def header_edit(reseal=True, **fields):
    """A checkpoint damage that sets header fields and keeps the payload; with
    reseal the crc32 is recomputed, so only the field checks can refuse it."""
    def edited(data):
        line, payload = data.split(b"\n", 1)
        header = dict(json.loads(line), **fields)
        if reseal:
            header["crc32"] = seal(header, payload)
        return json.dumps(header, sort_keys=True).encode() + b"\n" + payload

    return edited


# JSON's NaN, Infinity and -Infinity, as json.loads reads them
NON_FINITE = (math.nan, math.inf, -math.inf)

# a well-formed ladder state of the window run's 4 levels (truncation k_max 3)
LADDER = {"count": 3, "first": 0.0, "last": 0.06, "sup": [0.1, 0.0, 0.0, 0.0],
          "grad": [0.2, 0.0, 0.0, 0.0], "pending": [0.3, None, None, None]}

# the keys of a checkpoint header
HEADER_KEYS = {"byte_order", "cfl_dt_initial", "checkpoint", "config_hash", "crc32",
               "element_type", "format_version", "layout", "mass", "n_theta", "n_x",
               "params", "step", "time", "truncation"}


@functools.lru_cache(maxsize=1)
def uninterrupted_window_run():
    with tempfile.TemporaryDirectory() as tmp:
        assert cmd_simulate(parse_config(window_doc(tmp))) == 0
        return output_files(tmp)


# initial data of the window run, by kind
INITIAL = {
    "single_mode": {"kind": "single_mode", "m": 1.0, "epsilon": 0.5, "mode": [1, 0, 0]},
    "random_bandlimited": {"kind": "random_bandlimited", "m": 1.0, "epsilon": 0.3,
                           "max_mode": 2, "seed": 4},
}


@functools.lru_cache(maxsize=2)
def uninterrupted_run_of(kind):
    with tempfile.TemporaryDirectory() as tmp:
        assert cmd_simulate(parse_config(window_doc(tmp, initial=INITIAL[kind]))) == 0
        return output_files(tmp)


def resealed(edit):
    """Like header_edit, for an edit that removes fields: apply edit to the
    loaded header, then reseal it."""
    def damaged(data):
        line, payload = data.split(b"\n", 1)
        header = json.loads(line)
        edit(header)
        header["crc32"] = seal(header, payload)
        return json.dumps(header, sort_keys=True).encode() + b"\n" + payload

    return damaged


# Run simulate on sys.argv[1] with each snapshot write slowed by 50 ms, and
# end the process with os._exit right after its first checkpoint.
KILL_AFTER_FIRST_CHECKPOINT = """
import os, sys, time
from activeflow import cli, storage

write_snapshot, write_checkpoint = storage.write_snapshot, cli.write_checkpoint

def slow_snapshot(*args):
    time.sleep(0.05)
    write_snapshot(*args)

def checkpoint_then_exit(*args):
    write_checkpoint(*args)
    os._exit(0)

storage.write_snapshot, cli.write_checkpoint = slow_snapshot, checkpoint_then_exit
cli.main(["simulate", "--config", sys.argv[1]])
"""


# The files a run writes, by the name it opens them under: each file
# storage.replace_file writes (as its ".tmp" sibling) and the CSV it appends to.
WRITTEN = {"snapshot": r"snap_\d+\.bin\.tmp", "checkpoint": r"checkpoint\.bin\.tmp",
           "csv cut": r"diagnostics\.csv\.tmp", "summary": r"summary\.json\.tmp",
           "csv append": r"diagnostics\.csv"}
# (target, how): a failed write, or for a replace_file target a failed os.replace
FAULTS = [*((target, "write") for target in WRITTEN),
          *((target, "replace") for target in WRITTEN if target != "csv append")]


class FailingFile:
    """A file whose write, when fails(its name) holds, puts down the chunk's
    first element and raises OSError."""

    def __init__(self, fh, fails):
        self.fh, self.fails = fh, fails

    def write(self, data):
        if not self.fails(self.fh.name):
            return self.fh.write(data)
        self.fh.write(data[:1])
        raise OSError(errno.ENOSPC, "no space left on device")

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@contextlib.contextmanager
def failing_write(target, how, index):
    """Fail the index-th write call to target's files (each chunk counts), or
    the index-th os.replace onto one; yields a list, non-empty once it has."""
    fired, calls = [], itertools.count()
    real_open, real_replace = open, os.replace

    def due(path, pattern):
        if re.fullmatch(pattern, os.path.basename(path)) and next(calls) == index:
            fired.append(path)
            return True
        return False

    def opened(path, mode="r", *args, **kwargs):
        fh = real_open(path, mode, *args, **kwargs)
        if how == "write" and "r" not in mode:
            return FailingFile(fh, lambda name: due(name, WRITTEN[target]))
        return fh

    def replaced(src, dst):
        if how == "replace" and due(dst, WRITTEN[target].removesuffix(r"\.tmp")):
            raise OSError(errno.EIO, "rename failed")
        real_replace(src, dst)

    with mock.patch.object(storage, "open", opened, create=True), \
            mock.patch.object(cli, "open", opened, create=True), \
            mock.patch.object(os, "replace", replaced):
        yield fired


class TestConfigParsing:
    def test_minimal_defaults(self):
        cfg = parse_config(base_doc())
        assert cfg.snapshot_stride == 10
        assert cfg.k_max == 6
        assert cfg.params.dealias is True
        assert cfg.checkpoint_every == 0

    def test_non_numeric_pe(self):
        doc = base_doc()
        doc["params"]["pe"] = "abc"
        with pytest.raises(ParseError):
            parse_config(doc)

    def test_odd_grid(self):
        doc = base_doc(grid={"n_x": 7, "n_theta": 8})
        with pytest.raises(ValidationError):
            parse_config(doc)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config(base_doc(tyop=1))
        doc = base_doc()
        doc["params"]["viscosity"] = 1.0
        with pytest.raises(ValidationError):
            parse_config(doc)

    def test_unknown_initial_kind(self):
        doc = base_doc(initial={"kind": "vortex", "m": 1.0})
        with pytest.raises(ValidationError):
            parse_config(doc)

    def test_auto_dt_capped(self):
        doc = base_doc()
        doc["params"] = {"pe": 0.0, "de": 1.0, "dt": "auto"}
        cfg = parse_config(doc)
        assert cfg.params.dt == 0.05  # advective bound is huge; cap applies

    def test_auto_dt_floored(self):
        doc = base_doc()
        doc["params"] = {"pe": 1e7, "de": 1.0, "dt": "auto"}
        doc["initial"] = {"kind": "constant", "m": 1.0}
        cfg = parse_config(doc)
        assert cfg.params.dt == pytest.approx(1e-5)

    def test_auto_dt_tracks_cfl(self):
        doc = base_doc()
        doc["params"] = {"pe": 10.0, "de": 1.0, "dt": "auto"}
        doc["initial"] = {"kind": "constant", "m": 1.0}
        cfg = parse_config(doc)
        # rho is constant m/(2 pi)^2, blocking factor 1 - rho
        rho = 1.0 / (2 * math.pi) ** 2
        expected = 0.5 * 0.25 * cfg.grid.dx / (10.0 * (1.0 - rho))
        assert cfg.params.dt == pytest.approx(expected, rel=1e-12)

    def test_malformed_json_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"grid": }')
        with pytest.raises(ParseError, match=r":1:"):
            load_config(str(path))

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"output_dir": "\xe9"}')
        with pytest.raises(ParseError, match="not UTF-8"):
            load_config(str(path))

    @pytest.mark.parametrize("de", [0.0, -1.0])
    def test_nonpositive_de(self, de):
        doc = base_doc()
        doc["params"]["de"] = de
        with pytest.raises(ValidationError, match=r"params\.de"):
            parse_config(doc)
        doc["params"]["dt"] = "auto"
        with pytest.raises(ValidationError, match=r"params\.de"):
            parse_config(doc)

    def test_missing_file(self):
        with pytest.raises(ParseError):
            load_config("/nonexistent/path.json")

    def test_hash_stable_under_key_order(self):
        a = parse_config(base_doc())
        shuffled = dict(reversed(list(base_doc().items())))
        b = parse_config(shuffled)
        assert a.config_hash == b.config_hash

    def test_initial_data_round_trips_through_json(self):
        from dataclasses import asdict

        from activeflow.config import _parse_initial
        from activeflow.grid import (
            ConstantData,
            RandomBandlimitedData,
            SingleModeData,
        )

        specs = [
            ConstantData(m=2.0),
            SingleModeData(m=1.0, epsilon=0.2, mode=(1, 0, 2)),
            RandomBandlimitedData(m=0.5, epsilon=0.3, max_mode=5, seed=8),
        ]
        for spec in specs:
            doc = json.loads(json.dumps(asdict(spec)))
            assert _parse_initial(doc, "initial", make_grid(16, 16)) == spec


class TestSnapshotFiles:
    def test_round_trip_bit_exact(self, tmp_path, grid8):
        f = random_field(grid8, seed=33)
        path = str(tmp_path / "snap.bin")
        params = Params(pe=0.1, de=1.0, dt=0.01)
        write_snapshot(path, f, time=1.25, step=125, params=params)
        g, header = read_snapshot(path)
        assert np.array_equal(g.values, f.values)
        assert header["time"] == 1.25
        assert header["step"] == 125
        assert header["byte_order"] == "little-endian"
        assert header["element_type"] == "float64"

    def test_payload_length_checked(self, tmp_path, grid8):
        f = random_field(grid8, seed=1)
        path = str(tmp_path / "snap.bin")
        write_snapshot(path, f, 0.0, 0, Params(pe=0, de=1, dt=1))
        with open(path, "rb") as fh:
            data = fh.read()
        with open(path, "wb") as fh:
            fh.write(data[:-8])
        with pytest.raises(ParseError):
            read_snapshot(path)

    def test_csv_header_frozen(self):
        assert csv_header(6) == (
            "t,mass,l2_to_const,linf,rho_min,rho_max,grad_l2,spectral_tail,"
            "lp_0,lp_1,lp_2,lp_3,lp_4,lp_5,lp_6"
        )


class TestSimulateCommand:
    def test_outputs_and_determinism(self, tmp_path):
        doc_a = base_doc(output_dir=str(tmp_path / "a"), snapshot_stride=10)
        doc_b = base_doc(output_dir=str(tmp_path / "b"), snapshot_stride=10)
        assert cmd_simulate(parse_config(doc_a)) == 0
        assert cmd_simulate(parse_config(doc_b)) == 0
        csv_a = (tmp_path / "a" / "diagnostics.csv").read_bytes()
        csv_b = (tmp_path / "b" / "diagnostics.csv").read_bytes()
        assert csv_a == csv_b
        rows = read_csv(str(tmp_path / "a" / "diagnostics.csv"))
        assert len(rows) == 51  # t = 0 plus 50 steps
        summary = json.loads((tmp_path / "a" / "summary.json").read_text())
        assert summary["steps"] == 50
        assert summary["is_small_pe"] is True

    def test_csv_matches_run_diagnostics(self, tmp_path):
        # simulate and run share one stepping core: same rows, byte for byte
        cfg = parse_config(base_doc(output_dir=str(tmp_path / "r"), t_end=0.2))
        assert cmd_simulate(cfg) == 0
        f0 = make_initial(cfg.initial, cfg.grid)
        traj = run(f0, cfg.params, cfg.t_end)
        lines = [csv_header(cfg.k_max)] + [csv_row(r) for r in traj.diagnostics]
        expected = ("\n".join(lines) + "\n").encode()
        assert (tmp_path / "r" / "diagnostics.csv").read_bytes() == expected

    def test_constant_rows_identical_except_time(self, tmp_path):
        doc = base_doc(
            output_dir=str(tmp_path / "c"),
            initial={"kind": "constant", "m": 1.0},
            t_end=0.1,
        )
        assert cmd_simulate(parse_config(doc)) == 0
        rows = read_csv(str(tmp_path / "c" / "diagnostics.csv"))
        for row in rows[1:]:
            for key in rows[0]:
                if key != "t":
                    assert row[key] == pytest.approx(rows[0][key], abs=1e-14)

    def test_resume_matches_uninterrupted(self, tmp_path):
        window = {"k_max": 6, "truncation": {"window": [0.2, 0.9]}}
        doc_full = base_doc(output_dir=str(tmp_path / "full"), t_end=1.0,
                            diagnostics=window)
        doc_res = base_doc(output_dir=str(tmp_path / "res"), t_end=1.0,
                           diagnostics=window)
        assert cmd_simulate(parse_config(doc_full)) == 0
        cfg_res = parse_config(doc_res)
        assert cmd_simulate(cfg_res, stop_after_steps=37) == 0
        assert (tmp_path / "res" / "checkpoint.bin").exists()
        assert cmd_simulate(cfg_res) == 0
        full = output_files(str(tmp_path / "full"))
        assert "energies" in json.loads(full["summary.json"])["truncation"]
        assert len(full) == 13  # CSV, summary and 11 snapshots
        assert output_files(str(tmp_path / "res")) == full

    @settings(max_examples=12, deadline=None)
    @given(stop=st.integers(1, 12))
    def test_resume_at_any_step_is_byte_identical(self, stop):
        # 12 steps: the final step is a stop too, which resumes with no step left
        with tempfile.TemporaryDirectory() as tmp:
            cfg = parse_config(window_doc(tmp))
            assert cmd_simulate(cfg, stop_after_steps=stop) == 0
            assert cmd_simulate(cfg) == 0
            assert output_files(tmp) == uninterrupted_window_run()

    @settings(max_examples=12, deadline=None)
    @given(stop=st.integers(1, 12), kind=st.sampled_from(sorted(INITIAL)))
    def test_resume_builds_no_initial_data(self, stop, kind):
        # the resume reads the step-0 mass and CFL bound from the checkpoint,
        # and a fixed dt makes loading the config build none either
        with tempfile.TemporaryDirectory() as tmp:
            doc = window_doc(tmp, initial=INITIAL[kind])
            assert cmd_simulate(parse_config(doc), stop_after_steps=stop) == 0
            path = write_config(pathlib.Path(tmp), doc)
            rebuilt = AssertionError("a resume rebuilt the initial data")
            with mock.patch.object(cli, "make_initial", side_effect=rebuilt), \
                    mock.patch.object(config, "make_initial", side_effect=rebuilt):
                assert main(["simulate", "--config", path]) == 0
            os.remove(path)
            assert output_files(tmp) == uninterrupted_run_of(kind)

    def test_final_step_rerun_rewrites_no_csv(self, tmp_path):
        # checkpoints at steps 4, 8 and 12 of 12: a rerun resumes at the final
        # step, with no step to take and no CSV row to cut
        out = tmp_path / "done"
        cfg = parse_config(window_doc(str(out), checkpoint_every=4))
        assert cmd_simulate(cfg) == 0
        summary = json.loads((out / "summary.json").read_text())
        header = json.loads((out / CHECKPOINT_NAME).read_bytes().split(b"\n", 1)[0])
        assert (header["step"], header["mass"], header["cfl_dt_initial"]) == (
            12, summary["mass"], summary["cfl_dt_initial"])
        csv_before, files = os.stat(out / "diagnostics.csv"), output_files(out)
        summary_ino = os.stat(out / "summary.json").st_ino
        assert cmd_simulate(cfg) == 0
        csv_after = os.stat(out / "diagnostics.csv")
        assert (csv_after.st_ino, csv_after.st_mtime_ns) == (
            csv_before.st_ino, csv_before.st_mtime_ns)
        assert os.stat(out / "summary.json").st_ino == summary_ino
        assert output_files(out) == files == uninterrupted_window_run()

    def test_zero_step_run_reports_final_l2(self, tmp_path):
        doc = base_doc(output_dir=str(tmp_path / "z"), t_end=0.0)
        assert cmd_simulate(parse_config(doc)) == 0
        summary = json.loads((tmp_path / "z" / "summary.json").read_text())
        row = read_csv(str(tmp_path / "z" / "diagnostics.csv"))[0]
        assert summary["final_l2_to_const"] == row["l2_to_const"]

    def test_interrupted_csv_cut_keeps_the_rows(self, tmp_path, monkeypatch, capsys):
        # checkpoint at step 40 of 50: a rerun resumes there and cuts the CSV
        doc = window_doc(str(tmp_path / "cut"), t_end=0.5, checkpoint_every=40)
        cfg = parse_config(doc)
        assert cmd_simulate(cfg) == 0
        done = output_files(doc["output_dir"])

        def killed(src, dst):
            raise KeyboardInterrupt("killed while cutting the CSV")

        monkeypatch.setattr(cli.os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            cmd_simulate(cfg)
        monkeypatch.undo()
        csv = (tmp_path / "cut" / "diagnostics.csv").read_bytes()
        assert csv == done["diagnostics.csv"]
        assert cmd_simulate(cfg) == 0
        assert output_files(doc["output_dir"]) == done

    def test_interrupted_snapshot_write_leaves_no_partial_file(self, tmp_path, monkeypatch):
        # a kill at the rename of the step-6 snapshot, after the checkpoint at
        # step 5: the snapshots on disk are whole, that one is absent, and the
        # rerun resumes from step 5 to the uninterrupted run's files
        doc = window_doc(str(tmp_path / "snap"))
        cfg = parse_config(doc)
        real_replace = os.replace

        def killed(src, dst):
            if os.path.basename(dst) == "snap_00000006.bin":
                raise KeyboardInterrupt("killed while renaming a snapshot")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", killed)
        with pytest.raises(KeyboardInterrupt):
            cmd_simulate(cfg)
        monkeypatch.undo()
        out = tmp_path / "snap"
        snaps = sorted(path.name for path in out.glob("snap_*.bin"))
        assert snaps == [f"snap_{step:08d}.bin" for step in (0, 2, 4)]
        for name in snaps:
            read_snapshot(str(out / name))
        assert cmd_simulate(cfg) == 0
        assert output_files(doc["output_dir"]) == uninterrupted_window_run()

    def test_kill_after_checkpoint_keeps_every_output_up_to_it(self, tmp_path):
        # a child process with slow snapshot writes dies right after its first
        # checkpoint: every snapshot up to that step is already on disk, and
        # the rerun ends with the uninterrupted run's files. ACTIVEFLOW_THREADS
        # is set, and must not move any write off the stepping thread.
        doc = base_doc(grid={"n_x": 8, "n_theta": 8}, t_end=0.12,
                       snapshot_stride=1, checkpoint_every=3)
        killed = dict(doc, output_dir=str(tmp_path / "killed"))
        full = dict(doc, output_dir=str(tmp_path / "full"))
        src = os.path.dirname(os.path.dirname(activeflow.__file__))
        env = dict(os.environ, ACTIVEFLOW_THREADS="2",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        child = subprocess.run(
            [sys.executable, "-c", KILL_AFTER_FIRST_CHECKPOINT,
             write_config(tmp_path, killed)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        out = tmp_path / "killed"
        step = json.loads((out / CHECKPOINT_NAME).read_bytes().split(b"\n", 1)[0])["step"]
        assert step == 3
        assert sorted(path.name for path in out.glob("snap_*.bin")) == [
            f"snap_{s:08d}.bin" for s in range(step + 1)
        ]
        assert cmd_simulate(parse_config(killed)) == 0
        assert cmd_simulate(parse_config(full)) == 0
        assert output_files(out) == output_files(tmp_path / "full")

    def test_blowup_rerun_leaves_no_success_summary(self, tmp_path, capsys):
        # a finished run, then one that blows up at step 1 in the same output_dir
        out = str(tmp_path / "stale")
        done = base_doc(output_dir=out, grid={"n_x": 8, "n_theta": 8}, t_end=0.1,
                        snapshot_stride=5)
        assert main(["simulate", "--config", write_config(tmp_path, done)]) == 0
        assert (tmp_path / "stale" / "summary.json").exists()
        blowup = dict(done, params={"pe": 500.0, "de": 1.0, "dt": 0.5})
        with pytest.warns(RuntimeWarning):
            rc = main(["simulate", "--config", write_config(tmp_path, blowup, "b.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "NumericalBlowup"
        assert not (tmp_path / "stale" / "summary.json").exists()

    def test_blowup_rerun_leaves_no_stale_snapshots(self, tmp_path, capsys):
        # config A writes snapshots 0, 5 and 10; B blows up at step 1 in the
        # same output_dir, after its fresh start removed A's snapshots and
        # a left-over tmp file, but no file of another name
        out = tmp_path / "stale"
        done = base_doc(output_dir=str(out), grid={"n_x": 8, "n_theta": 8}, t_end=0.1,
                        snapshot_stride=5)
        assert main(["simulate", "--config", write_config(tmp_path, done)]) == 0
        (out / "snap_00000007.bin.tmp").write_bytes(b"partial")
        (out / "snap_notes.txt").write_text("kept")
        blowup = dict(done, params={"pe": 500.0, "de": 1.0, "dt": 0.5})
        with pytest.warns(RuntimeWarning):
            rc = main(["simulate", "--config", write_config(tmp_path, blowup, "b.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "NumericalBlowup"
        assert sorted(path.name for path in out.iterdir()) == [
            "diagnostics.csv", "snap_00000000.bin", "snap_notes.txt"]
        _, header = read_snapshot(str(out / "snap_00000000.bin"))
        assert header["params"]["pe"] == 500.0

    def test_refused_checkpoint_leaves_the_snapshots(self, tmp_path, capsys):
        # the removal comes after the checkpoint check: a refused resume
        # leaves the previous run's files as they were
        doc = window_doc(str(tmp_path / "keep"))
        assert main(["simulate", "--config", write_config(tmp_path, doc)]) == 0
        before = output_files(doc["output_dir"])
        other = dict(doc, params={"pe": 0.2, "de": 1.0, "dt": 0.01})
        assert main(["simulate", "--config", write_config(tmp_path, other, "b.json")]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "CheckpointMismatch"
        assert output_files(doc["output_dir"]) == before

    @pytest.mark.parametrize("resumed", [False, True])
    def test_failed_summary_write_leaves_old_file_or_none(
        self, tmp_path, monkeypatch, capsys, resumed
    ):
        # a rerun fails at the summary's rename: a final-step resume keeps the
        # stale summary it must replace whole, a fresh start has removed it
        doc = window_doc(str(tmp_path / "sum"), checkpoint_every=12 if resumed else 0)
        path = write_config(tmp_path, doc)
        assert main(["simulate", "--config", path]) == 0
        summary = tmp_path / "sum" / "summary.json"
        if resumed:  # a final-step resume writes no summary that is up to date
            summary.write_bytes(summary.read_bytes() + b" ")
        old = summary.read_bytes()
        real_replace = os.replace

        def failing(src, dst):
            if os.path.basename(dst) == "summary.json":
                raise OSError("rename failed")
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", failing)
        assert main(["simulate", "--config", path]) == 2
        monkeypatch.undo()
        assert json.loads(capsys.readouterr().err)["error"]["kind"] == "OSError"
        if resumed:
            assert summary.read_bytes() == old
        else:
            assert not summary.exists()
        assert not list((tmp_path / "sum").glob("*.tmp"))

    @settings(max_examples=15, deadline=None)
    @given(faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.integers(0, 20)),
                           min_size=1, max_size=3))
    # each (target, how) fails once in these: checkpoints at steps 5 and 10 of
    # 12, and a rerun past a checkpoint cuts the CSV back to it
    @example(faults=[(("snapshot", "write"), 9), (("csv cut", "replace"), 0),
                     (("csv append", "write"), 3)])
    @example(faults=[(("checkpoint", "write"), 3), (("csv cut", "write"), 0),
                     (("checkpoint", "replace"), 0)])
    @example(faults=[(("snapshot", "replace"), 6), (("summary", "replace"), 0),
                     (("summary", "write"), 0)])
    def test_failed_write_leaves_no_tmp_and_reruns(self, faults):
        # runs in which one write fails, each on what the last one left: a
        # run whose write failed exits 2 with a JSON error, none leaves a
        # *.tmp, and a clean rerun ends with the uninterrupted run's files
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            path = write_config(pathlib.Path(tmp), window_doc(str(out)))
            for (target, how), index in faults:
                err = io.StringIO()
                with failing_write(target, how, index) as fired, \
                        contextlib.redirect_stderr(err):
                    rc = main(["simulate", "--config", path])
                if fired:
                    assert rc == 2
                    assert json.loads(err.getvalue())["error"]["kind"] == "OSError"
                else:
                    assert rc == 0
                assert not list(out.glob("*.tmp"))
            assert main(["simulate", "--config", path]) == 0
            assert output_files(str(out)) == uninterrupted_window_run()

    def test_resume_refuses_short_csv(self, tmp_path, capsys):
        doc = base_doc(output_dir=str(tmp_path / "sh"), t_end=1.0)
        assert cmd_simulate(parse_config(doc), stop_after_steps=20) == 0
        csv_path = tmp_path / "sh" / "diagnostics.csv"
        csv_path.write_text("")
        rc = main(["simulate", "--config", write_config(tmp_path, doc)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ParseError"
        assert csv_path.read_text() == ""

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
    def test_non_finite_csv_cell_refused(self, tmp_path, capsys, cell):
        # a final-step rerun takes the summary's final_l2_to_const from the
        # CSV's last row: a non-finite one is refused, and no file touched
        out = tmp_path / "done"
        path = write_config(tmp_path, window_doc(str(out), checkpoint_every=4))
        assert main(["simulate", "--config", path]) == 0
        csv = out / "diagnostics.csv"
        *rows, last = csv.read_text().splitlines()
        cells = last.split(",")
        cells[CSV_SCALARS.index("l2_to_const")] = cell
        csv.write_text("\n".join([*rows, ",".join(cells)]) + "\n")
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert main(["simulate", "--config", path]) == 2
        err = json.loads(capsys.readouterr().err)["error"]
        assert (err["kind"], "l2_to_const" in err["message"]) == ("ParseError", True)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def _damaged_checkpoint(self, tmp_path, capsys, damage, **overrides):
        """Exit code and error kind of a resume from a damaged checkpoint,
        which leaves every other file in output_dir as it was."""
        doc = window_doc(str(tmp_path / "dmg"), **overrides)
        assert cmd_simulate(parse_config(doc), stop_after_steps=7) == 0
        before = output_files(doc["output_dir"])
        path = tmp_path / "dmg" / CHECKPOINT_NAME
        path.write_bytes(damage(path.read_bytes()))
        rc = main(["simulate", "--config", write_config(tmp_path, doc)])
        assert output_files(doc["output_dir"]) == before
        return rc, json.loads(capsys.readouterr().err)["error"]["kind"]

    @pytest.mark.parametrize("edit,overrides", [
        ({"step": -5}, {}),
        ({"step": 2.5}, {}),
        ({"step": "3"}, {}),
        ({"step": True}, {}),
        ({"step": None}, {}),
        ({"truncation": {"count": 1}}, {}),
        ({"truncation": "x"}, {}),
        ({"truncation": None}, {}),
        ({"truncation": dict(LADDER, extra=0)}, {}),
        ({"truncation": dict(LADDER, count=-1)}, {}),
        ({"truncation": dict(LADDER, count=1.0)}, {}),
        ({"truncation": dict(LADDER, first="x")}, {}),
        ({"truncation": dict(LADDER, sup=[0.0] * 3)}, {}),
        ({"truncation": dict(LADDER, grad=[0.0, 0.0, True, 0.0])}, {}),
        ({"truncation": dict(LADDER, sup=[None] * 4)}, {}),
        ({"truncation": dict(LADDER, pending="xxxx")}, {}),
        ({"truncation": LADDER}, {"diagnostics": {"k_max": 4}}),  # no window
        # NaN, Infinity and -Infinity in the step and in every ladder number
        *(({"step": value}, {}) for value in NON_FINITE),
        *(({"truncation": dict(LADDER, **{key: value})}, {})
          for key in ("count", "first", "last") for value in NON_FINITE),
        *(({"truncation": dict(LADDER, **{key: [0.0, 0.0, value, 0.0]})}, {})
          for key in ("sup", "grad", "pending") for value in NON_FINITE),
    ])
    def test_bad_resume_fields_refused(self, tmp_path, capsys, edit, overrides):
        # resealed, so the crc32 passes: the header's step and ladder state
        # are checked on their own before any file is touched
        damage = header_edit(**edit)
        assert self._damaged_checkpoint(tmp_path, capsys, damage, **overrides) == (
            2, "ParseError"
        )

    def test_well_formed_ladder_edit_resumes(self, tmp_path, capsys):
        # the state the refused ladder edits start from passes the checks
        doc = window_doc(str(tmp_path / "ok"))
        assert cmd_simulate(parse_config(doc), stop_after_steps=7) == 0
        path = tmp_path / "ok" / CHECKPOINT_NAME
        path.write_bytes(header_edit(truncation=LADDER)(path.read_bytes()))
        assert cmd_simulate(parse_config(doc)) == 0

    def test_corrupt_checkpoint_refused(self, tmp_path, capsys):
        def flip_last_byte(data):
            return data[:-1] + bytes([data[-1] ^ 0x01])

        assert self._damaged_checkpoint(tmp_path, capsys, flip_last_byte) == (
            2, "ParseError"
        )

    @pytest.mark.parametrize("keep", [0, 100, -16])
    def test_truncated_checkpoint_refused(self, tmp_path, capsys, keep):
        rc = self._damaged_checkpoint(tmp_path, capsys, lambda data: data[:keep])
        assert rc == (2, "ParseError")

    def test_format_1_checkpoint_refused(self, tmp_path, capsys):
        # format 1 held the physical field as float64, in the snapshot layout
        def as_format_1(data):
            header = json.loads(data.split(b"\n", 1)[0])
            header.update(format_version=1, element_type="float64")
            for key in ("crc32", "truncation"):
                del header[key]
            values = np.zeros((8, 8, 8), dtype="<f8").tobytes()
            return json.dumps(header, sort_keys=True).encode() + b"\n" + values

        assert self._damaged_checkpoint(tmp_path, capsys, as_format_1) == (
            2, "CheckpointMismatch"
        )

    def test_format_2_checkpoint_refused(self, tmp_path, capsys):
        # format 2's payload_crc32 covered the payload only, not the header
        def as_format_2(data):
            line, payload = data.split(b"\n", 1)
            header = json.loads(line)
            del header["crc32"]
            header.update(format_version=2, payload_crc32=zlib.crc32(payload))
            return json.dumps(header, sort_keys=True).encode() + b"\n" + payload

        assert self._damaged_checkpoint(tmp_path, capsys, as_format_2) == (
            2, "CheckpointMismatch"
        )

    def test_format_3_checkpoint_refused(self, tmp_path, capsys):
        # format 3 sealed the same header without the step-0 constants
        def as_format_3(header):
            del header["mass"], header["cfl_dt_initial"]
            header["format_version"] = 3

        assert self._damaged_checkpoint(tmp_path, capsys, resealed(as_format_3)) == (
            2, "CheckpointMismatch"
        )

    @pytest.mark.parametrize("key,value", [
        *((key, value) for key in ("mass", "cfl_dt_initial")
          for value in ("1.0", None, math.nan, math.inf, -math.inf, True, False, [])),
        ("cfl_dt_initial", 0.0),
        ("cfl_dt_initial", -0.01),
        ("mass", 10**400),
        ("cfl_dt_initial", 10**400),
    ], ids=lambda v: "10**400" if v == 10**400 else None)
    def test_bad_step0_constants_refused(self, tmp_path, capsys, key, value):
        damage = header_edit(**{key: value})
        assert self._damaged_checkpoint(tmp_path, capsys, damage) == (2, "ParseError")

    @pytest.mark.parametrize("key", ["mass", "cfl_dt_initial"])
    def test_missing_step0_constant_refused(self, tmp_path, capsys, key):
        damage = resealed(lambda header: header.pop(key))
        assert self._damaged_checkpoint(tmp_path, capsys, damage) == (2, "ParseError")

    @settings(max_examples=40, deadline=None)
    @given(stop=st.integers(1, 12), key=st.sampled_from(sorted(HEADER_KEYS)),
           value=st.none() | st.booleans() | st.integers(-3, 20) | st.floats()
           | st.text(max_size=3) | st.just({}) | st.just([])
           | st.sampled_from(sorted(HEADER_KEYS)))
    @example(stop=7, key="step", value=3)  # resumed the step-7 spectrum as step 3
    @example(stop=7, key="step", value=7)  # the value it holds: resumes as written
    def test_unsealed_header_edit_refused_or_harmless(self, stop, key, value):
        # any single header-field edit, not resealed: exit 2 with a JSON error
        # and every file as it was, or a byte-identical resume
        with tempfile.TemporaryDirectory() as tmp:
            out = pathlib.Path(tmp) / "out"
            doc = window_doc(str(out))
            assert cmd_simulate(parse_config(doc), stop_after_steps=stop) == 0
            path = out / CHECKPOINT_NAME
            assert set(json.loads(path.read_bytes().split(b"\n", 1)[0])) == HEADER_KEYS
            path.write_bytes(header_edit(reseal=False, **{key: value})(path.read_bytes()))
            before = {p.name: p.read_bytes() for p in out.iterdir()}
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = main(["simulate", "--config", write_config(pathlib.Path(tmp), doc)])
            if rc == 0:
                assert output_files(str(out)) == uninterrupted_window_run()
            else:
                assert rc == 2
                assert "kind" in json.loads(err.getvalue())["error"]
                assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_checkpoint_mismatch_refused(self, tmp_path, capsys):
        out_dir = str(tmp_path / "ck")
        doc = base_doc(output_dir=out_dir, t_end=1.0)
        cfg = parse_config(doc)
        assert cmd_simulate(cfg, stop_after_steps=20) == 0
        tampered = base_doc(output_dir=out_dir, t_end=1.0)
        tampered["params"]["pe"] = 0.06
        path = write_config(tmp_path, tampered)
        rc = main(["simulate", "--config", path])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "CheckpointMismatch"

    def test_blowup_exit_code(self, tmp_path, capsys):
        doc = base_doc(
            output_dir=str(tmp_path / "bl"),
            params={"pe": 80.0, "de": 0.01, "dt": 5.0},
            initial={"kind": "single_mode", "m": 1.0, "epsilon": 0.9, "mode": [1, 0, 0]},
            t_end=50.0,
        )
        path = write_config(tmp_path, doc)
        with pytest.warns(RuntimeWarning):
            rc = main(["simulate", "--config", path])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "NumericalBlowup"
        assert "step" in err["error"]

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = base_doc(grid={"n_x": 7, "n_theta": 8})
        path = write_config(tmp_path, doc)
        rc = main(["simulate", "--config", path])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["kind"] == "ValidationError"

    @pytest.mark.parametrize(
        "max_mode, seed, dt", [(100, 1, 0.01), (0, 1, "auto"), (3, -3, 0.01)]
    )
    def test_bad_random_data_exit_code(self, tmp_path, capsys, max_mode, seed, dt):
        # max_mode must lie in [1, 16 // 2] on 16^3; "auto" dt samples f0 at load
        doc = base_doc(
            output_dir=str(tmp_path / "rb"),
            params={"pe": 0.05, "de": 1.0, "dt": dt},
            initial={"kind": "random_bandlimited", "m": 1.0, "epsilon": 0.3,
                     "max_mode": max_mode, "seed": seed},
        )
        rc = main(["simulate", "--config", write_config(tmp_path, doc)])
        err = json.loads(capsys.readouterr().err)["error"]
        assert (rc, err["kind"]) == (2, "ValidationError")
        assert ("seed" if seed < 0 else "max_mode") in err["message"]
        assert not (tmp_path / "rb").exists()

    # every number a config holds: (initial data kind, path, an integer?)
    CONFIG_NUMBERS = [
        *(("single_mode", path, integer) for path, integer in [
            (("grid", "n_x"), True), (("grid", "n_theta"), True),
            (("params", "pe"), False), (("params", "de"), False), (("params", "dt"), False),
            (("initial", "m"), False), (("initial", "epsilon"), False),
            (("initial", "mode", 0), True), (("initial", "mode", 1), True),
            (("initial", "mode", 2), True),
            (("t_end",), False), (("snapshot_stride",), True), (("checkpoint_every",), True),
            (("diagnostics", "k_max"), True), (("diagnostics", "tail_threshold"), False),
            (("diagnostics", "truncation", "window", 0), False),
            (("diagnostics", "truncation", "window", 1), False),
            (("diagnostics", "truncation", "k_max"), True),
        ]),
        *(("random_bandlimited", ("initial", key), key in ("max_mode", "seed"))
          for key in ("m", "epsilon", "max_mode", "seed")),
        ("constant", ("initial", "m"), False),
    ]

    # NaN, Infinity and true in every field, and where a float belongs an
    # integer too large for one
    @pytest.mark.parametrize("kind,path,integer,value", [
        (kind, path, integer, value) for kind, path, integer in CONFIG_NUMBERS
        for value in (math.nan, math.inf, True, *(() if integer else (10**400,)))
    ], ids=lambda v: ".".join(map(str, v)) if type(v) is tuple else
       "10**400" if v == 10**400 else None)
    def test_config_number_checked(self, tmp_path, capsys, kind, path, integer, value):
        # as JSON text: a wrong type (a bool, or a float where an integer
        # belongs) is a ParseError, a number that is not finite as a float a
        # ValidationError, named by its path, before output_dir is made
        doc = copy.deepcopy(base_doc(
            output_dir=str(tmp_path / "out"), snapshot_stride=5, checkpoint_every=10,
            initial=dict(INITIAL, constant={"kind": "constant", "m": 1.0})[kind],
            diagnostics={"k_max": 4, "tail_threshold": 0.25,
                         "truncation": {"window": [0.1, 0.4], "k_max": 3}},
        ))
        functools.reduce(lambda obj, key: obj[key], path[:-1], doc)[path[-1]] = value
        rc = main(["simulate", "--config", write_config(tmp_path, doc)])
        err = json.loads(capsys.readouterr().err)["error"]
        expected = "ParseError" if integer or value is True else "ValidationError"
        name = "".join(f"[{key}]" if type(key) is int else f".{key}" for key in path)[1:]
        assert (rc, err["kind"]) == (2, expected)
        assert err["message"].startswith(f"{name}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["simulate", "decay"])
    @pytest.mark.parametrize("dt", [1e-5, "auto"])
    def test_infinite_step_count_exit_code(self, tmp_path, capsys, command, dt):
        # t_end / dt overflows to inf: there is no step count to march to
        doc = base_doc(
            grid={"n_x": 8, "n_theta": 8},
            params={"pe": 0.05, "de": 1.0, "dt": dt},
            t_end=1e308,
            output_dir=str(tmp_path / "huge"),
        )
        rc = main([command, "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        err = json.loads(captured.err)["error"]
        assert (rc, err["kind"]) == (2, "ValidationError")
        assert "step count" in err["message"]
        assert captured.out == ""
        assert not (tmp_path / "huge").exists()

    @pytest.mark.filterwarnings("ignore:time step exceeds the advective CFL bound")
    @pytest.mark.parametrize("command", ["simulate", "decay"])
    @pytest.mark.parametrize("pe", [1e154, 1e200])
    def test_kappa_overflow_exit_code(self, tmp_path, capsys, command, pe):
        # (2 pi)^2 pe^2 is inf at pe 1e154, an OverflowError at 1e200: kappa
        # refuses both, naming params.pe
        doc = base_doc(grid={"n_x": 8, "n_theta": 8}, t_end=0.0,
                       params={"pe": pe, "de": 1.0, "dt": 0.01},
                       output_dir=str(tmp_path / "pe"))
        rc = main([command, "--config", write_config(tmp_path, doc)])
        captured = capsys.readouterr()
        err = json.loads(captured.err)["error"]
        assert (rc, err["kind"]) == (2, "ValidationError")
        assert err["message"].startswith("params.pe: ")
        assert captured.out == ""

    @pytest.mark.parametrize("k_max", [-1, -3, 9, 10**9])
    def test_truncation_k_max_range(self, k_max):
        doc = base_doc(diagnostics={"truncation": {"window": [0.1, 0.4], "k_max": k_max}})
        with pytest.raises(ValidationError, match=r"truncation\.k_max"):
            parse_config(doc)
        for k_max in (0, 8):
            doc["diagnostics"]["truncation"]["k_max"] = k_max
            assert parse_config(doc).truncation_k_max == k_max

    def test_output_dir_under_a_file_exit_code(self, tmp_path, capsys):
        (tmp_path / "plain").write_text("not a directory")
        doc = base_doc(output_dir=str(tmp_path / "plain" / "out"))
        rc = main(["simulate", "--config", write_config(tmp_path, doc)])
        err = json.loads(capsys.readouterr().err)["error"]
        assert (rc, err["kind"]) == (2, "NotADirectoryError")
        assert "plain" in err["message"]

    def test_truncation_summary_in_output(self, tmp_path):
        doc = base_doc(
            output_dir=str(tmp_path / "tr"),
            t_end=0.4,
            snapshot_stride=2,
            diagnostics={"k_max": 6, "truncation": {"window": [0.1, 0.4], "k_max": 3}},
        )
        assert cmd_simulate(parse_config(doc)) == 0
        summary = json.loads((tmp_path / "tr" / "summary.json").read_text())
        trunc = summary["truncation"]
        assert trunc["window"] == [0.1, 0.4]
        assert len(trunc["energies"]) == 4
        assert all(e >= 0.0 for e in trunc["energies"])
        # field max is far below the first positive level: upper rungs vanish
        assert trunc["energies"][-1] == 0.0

    @pytest.mark.parametrize("crossing", [False, True])
    def test_gradients_synthesized_only_where_a_level_cuts(
        self, tmp_path, monkeypatch, crossing
    ):
        # desk data (f near 0.004) never reach C_1 = 1/4, so the ladder reads
        # only the carried spectrum; the crossing data (max f 0.27 to 0.30)
        # are cut by C_1 at every in-window snapshot that holds it
        window = {"window": [0.0, 0.2], "k_max": 3}  # C_1 held from t = 0.05
        doc = base_doc(output_dir=str(tmp_path / "cut"), t_end=0.2, snapshot_stride=1,
                       diagnostics={"k_max": 4, "truncation": window})
        if crossing:
            doc.update(grid={"n_x": 8, "n_theta": 8},
                       params={"pe": 0.3, "de": 1.0, "dt": 0.01},
                       initial={"kind": "single_mode", "m": 39.0, "epsilon": 0.9,
                                "mode": [0, 0, 1]})
        calls = []
        monkeypatch.setattr(cli.diag, "_spectral_grads",
                            lambda *a: calls.append(1) or spectral_grads(*a))
        assert cmd_simulate(parse_config(doc)) == 0
        rows = read_csv(str(tmp_path / "cut" / "diagnostics.csv"))
        holding = [r for r in rows if r["t"] >= 0.05 - 1e-12]
        cut = [r for r in holding if r["linf"] > 0.25]
        assert len(calls) == len(cut) == (len(holding) if crossing else 0)
        energies = json.loads((tmp_path / "cut" / "summary.json").read_text())[
            "truncation"]["energies"]
        assert (energies[1] > 0.0) == crossing and energies[2:] == [0.0, 0.0]

    def test_truncation_summary_without_snapshots(self, tmp_path):
        # the run ends before the window opens, so no snapshot falls inside it
        doc = base_doc(
            output_dir=str(tmp_path / "tr0"),
            t_end=0.0,
            diagnostics={"k_max": 6, "truncation": {"window": [0.1, 0.4], "k_max": 3}},
        )
        assert cmd_simulate(parse_config(doc)) == 0
        summary = json.loads((tmp_path / "tr0" / "summary.json").read_text())
        assert summary["truncation"]["error"].startswith("WindowTooShort")

    def test_ladder_equals_the_library_on_the_same_trajectory(self, tmp_path):
        # the window ends fall between stride-3 snapshots (0.09 and 0.12, 0.39
        # and 0.42); like truncation_energy, simulate judges the window against
        # the run's span [0, 0.5] and reduces only the snapshots inside it
        doc = base_doc(
            output_dir=str(tmp_path / "lib"),
            grid={"n_x": 8, "n_theta": 8},
            params={"pe": 0.3, "de": 1.0, "dt": 0.01},
            initial={"kind": "random_bandlimited", "m": 1.0, "epsilon": 0.3,
                     "max_mode": 2, "seed": 4},
            t_end=0.5,
            snapshot_stride=3,
            diagnostics={"truncation": {"window": [0.1, 0.4], "k_max": 2}},
        )
        cfg = parse_config(doc)
        assert cmd_simulate(cfg) == 0
        got = json.loads((tmp_path / "lib" / "summary.json").read_text())["truncation"]
        f0 = make_initial(cfg.initial, cfg.grid)
        want = truncation_energy(run(f0, cfg.params, cfg.t_end, snapshot_stride=3),
                                 (0.1, 0.4), 2)
        assert want.energies[0] > 0.0
        assert (got["levels"], got["window_times"], got["energies"]) == (
            list(want.levels), list(want.window_times), list(want.energies)
        )

    def test_tail_threshold_configurable(self, tmp_path):
        # a mode-2 perturbation on a 16-grid: beyond the n/8 threshold but
        # inside the default n/4 one
        common = dict(
            initial={"kind": "single_mode", "m": 1.0, "epsilon": 0.5, "mode": [2, 0, 0]},
            t_end=0.02,
        )
        lo = base_doc(
            output_dir=str(tmp_path / "lo"),
            diagnostics={"tail_threshold": 0.1},
            **common,
        )
        hi = base_doc(output_dir=str(tmp_path / "hi"), **common)
        assert cmd_simulate(parse_config(lo)) == 0
        assert cmd_simulate(parse_config(hi)) == 0
        row_lo = read_csv(str(tmp_path / "lo" / "diagnostics.csv"))[0]
        row_hi = read_csv(str(tmp_path / "hi" / "diagnostics.csv"))[0]
        assert row_lo["spectral_tail"] == pytest.approx(1.0, rel=1e-12)
        assert row_hi["spectral_tail"] < 1e-20


class TestReportCommands:
    def test_decay_json(self, tmp_path, capsys):
        doc = base_doc(
            output_dir=str(tmp_path / "d"),
            params={"pe": 0.0, "de": 1.0, "dt": 0.01},
            t_end=6.0,
        )
        path = write_config(tmp_path, doc)
        rc = main(["decay", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["kappa"] == pytest.approx(0.25, rel=1e-12)
        assert out["measured_rate"] == pytest.approx(1.0, abs=1e-3)
        assert out["bound_satisfied"] is True

    def test_stationary_json_constant(self, tmp_path, capsys):
        doc = base_doc(
            output_dir=str(tmp_path / "s"),
            initial={"kind": "constant", "m": 1.0},
            t_end=1.0,
        )
        path = write_config(tmp_path, doc)
        rc = main(["stationary", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["converged"] is True
        assert out["residual"] <= 1e-13

    def test_oracle_compare_json(self, tmp_path, capsys):
        doc = base_doc(output_dir=str(tmp_path / "o"))
        path = write_config(tmp_path, doc)
        rc = main(["oracle-compare", "--config", path])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert out["pass"] is True
        assert all(o >= 1.8 for o in out["orders"])


class TestStepCount:
    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(1, 50), dt=st.sampled_from([0.1, 0.01, 0.025, 0.3]))
    @example(n=3, dt=0.1)  # 3 * 0.1 / 0.1 is 3.0000000000000004
    def test_run_simulate_and_stationary_take_the_same_steps(self, n, dt):
        t_end = n * dt
        assert step_count(t_end, dt) == n
        calls = []
        step = dynamics._step_spectral

        def steps_taken(fn):
            calls.clear()
            fn()
            return len(calls)

        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            mp.setattr(dynamics, "_step_spectral", lambda *a: calls.append(1) or step(*a))
            cfg = parse_config(base_doc(
                output_dir=tmp, grid={"n_x": 8, "n_theta": 8},
                params={"pe": 0.05, "de": 1.0, "dt": dt}, t_end=t_end,
            ))
            f0 = make_initial(cfg.initial, cfg.grid)
            assert steps_taken(lambda: run(f0, cfg.params, t_end)) == n
            assert steps_taken(lambda: cmd_simulate(cfg)) == n
            assert len(read_csv(os.path.join(tmp, "diagnostics.csv"))) == n + 1

            def unreachable_tolerance():
                with pytest.raises(NotConverged):
                    solve_stationary(f0, cfg.params, tol=0.0, t_max=t_end)

            assert steps_taken(unreachable_tolerance) == n


@pytest.mark.slow
class TestVerifyCommand:
    def test_zero_peclet_skips_advection_checks(self, tmp_path, capsys):
        doc = base_doc(
            output_dir=str(tmp_path / "v"),
            params={"pe": 0.0, "de": 1.0, "dt": 0.01},
        )
        path = write_config(tmp_path, doc)
        rc = main(["verify", "--config", path])
        out = capsys.readouterr().out
        assert rc == 0
        statuses = {}
        for line in out.splitlines():
            if line.startswith("["):
                status = line[1:5].strip()
                number = int(line.split()[1])
                statuses[number] = status
        assert statuses[1] == "PASS"
        assert statuses[2] == "PASS"
        assert statuses[4] == "PASS"
        assert statuses[5] == "PASS"
        assert statuses[10] == "PASS"
        for skipped in (3, 6, 7, 8, 9):
            assert statuses[skipped] == "SKIP"

    def test_too_few_points_for_criterion_5_is_a_fail_line(self, tmp_path, capsys):
        # dt 1.0 leaves 6 strided points to t = 5: criterion 5 fails like 4
        doc = base_doc(output_dir=str(tmp_path / "v"), grid={"n_x": 8, "n_theta": 8},
                       params={"pe": 0.05, "de": 1.0, "dt": 1.0})
        rc = main(["verify", "--config", write_config(tmp_path, doc)])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[")]
        assert rc == 1
        assert [int(line.split()[1]) for line in lines] == list(range(1, 11))
        assert lines[4].startswith("[FAIL]  5 ")
        assert "TooFewPoints: need >= 10 snapshots, got 6" in lines[4]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_kappa_overflow_is_a_fail_line(self, tmp_path, capsys):
        # pe 1e200 overflows kappa in criterion 4: a FAIL line, not a traceback
        doc = base_doc(output_dir=str(tmp_path / "v"), grid={"n_x": 8, "n_theta": 8},
                       params={"pe": 1e200, "de": 1.0, "dt": 0.01})
        rc = main(["verify", "--config", write_config(tmp_path, doc)])
        lines = [line for line in capsys.readouterr().out.splitlines()
                 if line.startswith("[")]
        assert rc == 1
        assert [int(line.split()[1]) for line in lines] == list(range(1, 11))
        assert lines[3].startswith("[FAIL]  4 ")
        assert "ValidationError: params.pe: " in lines[3]
