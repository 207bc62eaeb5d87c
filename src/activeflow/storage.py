"""Snapshot, checkpoint, and diagnostics persistence.

Snapshot files are a single JSON header line followed by the raw contiguous
float64 payload (little-endian, row-major i1, i2, i_theta), trivially
parseable from any language. Checkpoints (format 4) carry the run's
mean-normalized half spectrum instead (complex128, little-endian, row-major
i1, i2, k_theta); their header adds the config hash, the truncation-ladder
state and the run's step-0 mass and cfl_dt_initial as JSON floats (repr
round-trips exactly) and a crc32 that seals the header with the payload, so
a resumed run continues byte-identically or not at all. Every file a run
writes goes through replace_file: a ".tmp" sibling moved into place with
os.replace, so an interrupted write leaves no partial file, and a failed one
no ".tmp" either. All of it is written on the stepping thread, in step
order, so a checkpoint reaches disk only after every output up to its step.
"""

from __future__ import annotations

import dataclasses
import json
import os
import zlib

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import CheckpointMismatch, ParseError, integer, number
from .grid import Field3, GridSpec, Params

FORMAT_VERSION = 1
CHECKPOINT_FORMAT = 4


def _header(grid: GridSpec, time: float, step: int, params: Params, **extra) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "n_x": grid.n_x,
        "n_theta": grid.n_theta,
        "time": time,
        "step": step,
        "params": {"pe": params.pe, "de": params.de, "dt": params.dt,
                   "dealias": params.dealias},
        "byte_order": "little-endian",
        "element_type": "float64",
        "layout": "row-major i1,i2,itheta",
        **extra,
    }


def replace_file(path: str, *chunks) -> None:
    """Write the chunks (bytes, or C-contiguous arrays written from their own
    buffers) to path + ".tmp", then os.replace it: path is whole or absent."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:  # a failed write or rename leaves no path.tmp either
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_file(path: str, header: dict, payload: np.ndarray) -> None:
    replace_file(path, json.dumps(header, sort_keys=True).encode(), b"\n", payload)


def _read_file(path: str) -> tuple[dict, bytes]:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        payload = fh.read()
    try:
        header = json.loads(header_line)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: malformed header") from exc
    if not isinstance(header, dict):
        raise ParseError(f"{path}: header is not a JSON object")
    return header, payload


def write_snapshot(path: str, f: Field3, time: float, step: int, params: Params) -> None:
    header = _header(f.grid, time, step, params)
    _write_file(path, header, np.ascontiguousarray(f.values, dtype="<f8"))


def read_snapshot(path: str) -> tuple[Field3, dict]:
    header, payload = _read_file(path)
    grid = GridSpec(header["n_x"], header["n_theta"])
    expected = 8 * grid.n_x * grid.n_x * grid.n_theta
    if len(payload) != expected:
        raise ParseError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape)
    return Field3(grid=grid, values=values), header


class SnapshotWriter:
    """Writes each snapshot at once, on the caller's thread; close() has
    nothing left to do. It stays only because perfbench/tracer.py times the
    stepping loop up to SnapshotWriter.close."""

    def submit(self, path, f, time, step, params):
        write_snapshot(path, f, time, step, params)

    def close(self):
        pass


# --- checkpoints ----------------------------------------------------------------

CHECKPOINT_NAME = "checkpoint.bin"


def _seal(header: dict, payload) -> int:
    """zlib.crc32 of the payload, seeded with that of the header's canonical
    JSON (sorted keys, as written) without its crc32 key."""
    head = json.dumps({k: v for k, v in header.items() if k != "crc32"}, sort_keys=True)
    return zlib.crc32(payload, zlib.crc32(head.encode()))


def write_checkpoint(out_dir: str, coeffs: np.ndarray, grid: GridSpec, time: float,
                     step: int, params: Params, config_hash: str, truncation,
                     mass: float, cfl_dt_initial: float) -> None:
    """Write the carried half spectrum, ladder state and step-0 constants, sealed."""
    payload = np.ascontiguousarray(coeffs, dtype="<c16")
    header = _header(
        grid, time, step, params, format_version=CHECKPOINT_FORMAT,
        element_type="complex128", layout="row-major i1,i2,ktheta mean-normalized",
        checkpoint=True, config_hash=config_hash, truncation=truncation,
        mass=mass, cfl_dt_initial=cfl_dt_initial,
    )
    header["crc32"] = _seal(header, payload)
    _write_file(os.path.join(out_dir, CHECKPOINT_NAME), header, payload)


def load_checkpoint(out_dir: str, config_hash: str):
    """Return (half spectrum, step, truncation state, mass, cfl_dt_initial)
    or None: with diagnostics.csv, all a resume reads.

    CheckpointMismatch for another format (1 to 3 included) or config;
    ParseError if corrupt (the crc32 does not match the header and payload)
    or if errors.integer refuses step (>= 0) or errors.number mass or
    cfl_dt_initial (> 0 too). The truncation state is checked against the
    config by its consumer, diagnostics.TruncationReducer.
    """
    path = os.path.join(out_dir, CHECKPOINT_NAME)
    if not os.path.exists(path):
        return None
    header, payload = _read_file(path)
    version, stored = header.get("format_version"), header.get("config_hash")
    if version != CHECKPOINT_FORMAT:
        raise CheckpointMismatch(
            f"{path}: format {version!r} is not {CHECKPOINT_FORMAT}; refusing to resume"
        )
    if stored != config_hash:
        raise CheckpointMismatch(
            f"checkpoint in {out_dir} was written by a different config "
            f"(hash {stored} != {config_hash}); refusing to resume"
        )
    try:
        grid = GridSpec(header["n_x"], header["n_theta"])
        step, crc = header["step"], header["crc32"]
        truncation, mass, cfl0 = header["truncation"], header["mass"], header["cfl_dt_initial"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed checkpoint header ({exc!r})") from exc
    step = integer(step, f"{path}: step", nonnegative=True)
    mass, cfl0 = number(mass, f"{path}: mass"), number(cfl0, f"{path}: cfl_dt_initial")
    if cfl0 <= 0:
        raise ParseError(f"{path}: cfl_dt_initial {cfl0!r} is not > 0")
    shape = (grid.n_x, grid.n_x, grid.n_theta // 2 + 1)
    expected = 16 * shape[0] * shape[1] * shape[2]
    if len(payload) != expected:
        raise ParseError(f"{path}: payload is {len(payload)} bytes, not {expected}")
    if _seal(header, payload) != crc:
        raise ParseError(f"{path}: checksum does not match the header and payload")
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(shape)
    return coeffs, step, truncation, mass, cfl0


# --- diagnostics CSV --------------------------------------------------------------

# The scalar columns, in DiagnosticsRecord's field order; lp_0..lp_k_max follow.
CSV_SCALARS = tuple(
    f.name for f in dataclasses.fields(DiagnosticsRecord) if f.name != "lp_ladder"
)


def csv_header(k_max: int) -> str:
    return ",".join([*CSV_SCALARS, *(f"lp_{k}" for k in range(k_max + 1))])


def csv_row(record: DiagnosticsRecord) -> str:
    cells = [*(getattr(record, name) for name in CSV_SCALARS), *record.lp_ladder]
    return ",".join(repr(float(c)) for c in cells)
