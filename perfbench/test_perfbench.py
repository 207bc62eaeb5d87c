"""Tests of the benchmark itself: its checks, its counts and its result line.

    python3 -m pytest perfbench -q

Each correctness check must reject a deliberately damaged output, a run must
print exactly the metric names of BENCHMARK.json, and `resume-io-32` must
count every resume as failed while the two faults it exercises stand.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import workloads  # noqa: E402
from activeflow import cli  # noqa: E402
from activeflow import config as config_mod  # noqa: E402

STEPS = 40


@pytest.fixture()
def scratch():
    os.makedirs(OUT, exist_ok=True)
    path = tempfile.mkdtemp(prefix="test-", dir=OUT)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.fixture()
def run16(scratch):
    """A finished 16^3 desk run: snapshot every step, truncation window."""
    out = os.path.join(scratch, "run")
    doc = workloads.config_doc(16, STEPS, out, workloads.DESK_DATA, stride=1,
                               checkpoint_every=STEPS, window=(0.1, 0.4))
    path = os.path.join(scratch, "run.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert cli.main(["simulate", "--config", path]) == 0
    return out


def _outputs(out):
    names, rows = checks.read_csv(os.path.join(out, "diagnostics.csv"))
    _, first = checks.read_snapshot(os.path.join(out, "snap_00000000.bin"))
    last_path = os.path.join(out, f"snap_{STEPS:08d}.bin")
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    return names, rows, first, last_path, summary


def _flip_byte(path, offset_from_payload):
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = bytearray(fh.read())
    payload[offset_from_payload] ^= 0xFF
    with open(path, "wb") as fh:
        fh.write(header + bytes(payload))


def test_checks_accept_the_program_output(run16):
    names, rows, first, last_path, summary = _outputs(run16)
    _, last = checks.read_snapshot(last_path)
    assert checks.check_mass(names, rows) == []
    assert checks.check_density(names, rows) == []
    assert checks.check_decay(names, rows, workloads.PE, workloads.DE) == []
    assert checks.check_last_row(names, rows, last, float(first.mean())) == []
    assert checks.check_truncation(summary) == []
    assert checks.check_final_l2(summary) == []


def test_closed_form_kappa_matches_the_stated_values():
    kappa, threshold = checks.closed_form_kappa(0.05, 1.0, 1.0 / (2 * np.pi) ** 3)
    assert round(kappa, 4) == 0.2003
    assert round(threshold, 4) == 0.1121


def test_flipped_snapshot_byte_is_rejected(run16):
    names, rows, first, last_path, _ = _outputs(run16)
    _, intact = checks.read_snapshot(last_path)
    intact = intact.copy()
    _flip_byte(last_path, 6)  # high mantissa byte of the first value
    _, damaged = checks.read_snapshot(last_path)
    assert checks.check_last_row(names, rows, damaged, float(first.mean()))
    assert checks.check_snapshots_agree(intact, damaged)


def test_csv_mass_off_by_1e9_is_rejected(run16):
    names, rows, first, last_path, _ = _outputs(run16)
    _, last = checks.read_snapshot(last_path)
    damaged = rows.copy()
    damaged[-1, names.index("mass")] += 1e-9
    assert checks.check_mass(names, damaged)
    assert checks.check_last_row(names, damaged, last, float(first.mean()))
    assert checks.check_rows_agree(names, rows, damaged)


def test_null_in_summary_is_rejected(run16):
    *_, summary = _outputs(run16)
    assert checks.check_final_l2(dict(summary, final_l2_to_const=None))
    trunc = dict(summary["truncation"])
    trunc["energies"] = [None] + list(trunc["energies"][1:])
    assert checks.check_truncation(dict(summary, truncation=trunc))


def test_density_decay_and_ladder_damage_is_rejected(run16):
    names, rows, *_, summary = _outputs(run16)
    high = rows.copy()
    high[-1, names.index("rho_max")] = 1.0 + 2e-6
    assert checks.check_density(names, high)
    slow = rows.copy()
    slow[-1, names.index("l2_to_const")] = slow[0, names.index("l2_to_const")]
    assert checks.check_decay(names, slow, workloads.PE, workloads.DE)
    rising = dict(summary["truncation"])
    rising["energies"] = list(reversed(rising["energies"]))
    assert checks.check_truncation(dict(summary, truncation=rising))


def test_rows_agree_scales_spectral_tail_by_one(run16):
    names, rows, *_ = _outputs(run16)
    noisy = rows.copy()
    noisy[:, names.index("spectral_tail")] += 1e-30
    assert checks.check_rows_agree(names, rows, noisy) == []


def test_verify_report_checks():
    lines = [f"[PASS] {c:2d} name (  0.10s)  detail" for c in range(1, 11)]
    assert checks.check_verify("\n".join(lines), 0) == []
    lines[3] = lines[3].replace("PASS", "FAIL")
    assert checks.check_verify("\n".join(lines), 0)
    assert checks.check_verify("\n".join(lines[:9]), 0)


def test_resume_io_counts_every_resume_as_failed(scratch, monkeypatch):
    monkeypatch.setenv("ACTIVEFLOW_THREADS", str(workloads.ResumeIO32.threads))
    workload = workloads.ResumeIO32(cli, config_mod, scratch, 0)
    rnd = workload.run_round()
    n_chain = len(workload.stops)
    assert rnd.problems == []
    assert rnd.attempted == n_chain + workload.resumes_per_round
    assert rnd.failed == rnd.attempted
    assert sum("not byte-identical" in f for f in rnd.failures) == n_chain
    assert sum("final_l2_to_const is None" in f for f in rnd.failures) == \
        workload.resumes_per_round


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False,
    )


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_result_names_equal_benchmark_json(trace, kind):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    proc = _run("resume-io-32", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert list(result["metrics"]) == [m["name"] for m in spec[kind]]
    assert result["correct"] is True
    assert result["attempted"] > 0 and result["failed"] == result["attempted"]
    if trace:
        assert result["metrics"]["spectral.fft_calls_per_step"]["value"] == 8.0


def test_exits_nonzero_without_program_sources(scratch):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), scratch)
    os.makedirs(os.path.join(scratch, "perfbench"))
    for name in os.listdir(HERE):
        if name.endswith((".py", ".md")):
            shutil.copy(os.path.join(HERE, name), os.path.join(scratch, "perfbench"))
    proc = _run("simulate-64", 0, cwd=scratch)
    assert proc.returncode != 0
    assert proc.stdout == ""
