"""Snapshot, checkpoint, and diagnostics persistence.

Snapshot files are a single JSON header line followed by the raw contiguous
float64 payload (little-endian, row-major i1, i2, i_theta), trivially
parseable from any language. Checkpoints (format 3) carry the run's
mean-normalized half spectrum instead (complex128, little-endian, row-major
i1, i2, k_theta); their header adds the config hash, the truncation-ladder
state as JSON floats (repr round-trips exactly) and a crc32 that seals the
header with the payload, so a resumed run continues byte-identically or
not at all. Snapshots and checkpoints are written to a ".tmp" sibling and
moved into place with os.replace, so an interrupted write leaves no
partial file.
"""

from __future__ import annotations

import json
import os
import zlib
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .diagnostics import DiagnosticsRecord
from .errors import CheckpointMismatch, ParseError
from .grid import Field3, GridSpec, Params

FORMAT_VERSION = 1
CHECKPOINT_FORMAT = 3


def max_threads() -> int:
    """Parallelism cap from ACTIVEFLOW_THREADS (defaults to 1)."""
    raw = os.environ.get("ACTIVEFLOW_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


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


def _write_file(path: str, header: dict, payload: np.ndarray) -> None:
    """Write through path + ".tmp" and os.replace: path is whole or absent.
    payload is a C-contiguous array, written from its own buffer."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode())
        fh.write(b"\n")
        fh.write(payload)
    os.replace(tmp, path)


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
    """File writer; runs on a dedicated worker when ACTIVEFLOW_THREADS >= 2.

    Fields are immutable, so handing them to a background thread is safe.
    close() drains pending writes.
    """

    def __init__(self):
        self._pool = ThreadPoolExecutor(max_workers=1) if max_threads() >= 2 else None
        self._pending = []

    def submit(self, path, f, time, step, params):
        if self._pool is None:
            write_snapshot(path, f, time, step, params)
        else:
            self._pending.append(
                self._pool.submit(write_snapshot, path, f, time, step, params)
            )

    def close(self):
        try:
            for fut in self._pending:
                fut.result()
        finally:
            if self._pool is not None:
                self._pool.shutdown(wait=True)


# --- checkpoints ----------------------------------------------------------------

CHECKPOINT_NAME = "checkpoint.bin"


def _seal(header: dict, payload) -> int:
    """zlib.crc32 of the payload, seeded with that of the header's canonical
    JSON (sorted keys, as written) without its crc32 key."""
    head = json.dumps({k: v for k, v in header.items() if k != "crc32"}, sort_keys=True)
    return zlib.crc32(payload, zlib.crc32(head.encode()))


def write_checkpoint(out_dir: str, coeffs: np.ndarray, grid: GridSpec, time: float,
                     step: int, params: Params, config_hash: str, truncation=None) -> None:
    """Write the carried half spectrum and ladder state, sealed, atomically."""
    payload = np.ascontiguousarray(coeffs, dtype="<c16")
    header = _header(
        grid, time, step, params, format_version=CHECKPOINT_FORMAT,
        element_type="complex128", layout="row-major i1,i2,ktheta mean-normalized",
        checkpoint=True, config_hash=config_hash, truncation=truncation,
    )
    header["crc32"] = _seal(header, payload)
    _write_file(os.path.join(out_dir, CHECKPOINT_NAME), header, payload)


def load_checkpoint(out_dir: str, config_hash: str):
    """Return (half spectrum, step, truncation state) or None.

    CheckpointMismatch for another format or config; ParseError if corrupt
    (the crc32 does not match the header and payload), or if step is not a
    JSON integer >= 0. The truncation state is checked against the config
    by its consumer, diagnostics.TruncationReducer.
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
        truncation = header["truncation"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{path}: malformed checkpoint header ({exc!r})") from exc
    if type(step) is not int or step < 0:  # a JSON bool loads as bool, not int
        raise ParseError(f"{path}: step {step!r} is not an integer >= 0")
    shape = (grid.n_x, grid.n_x, grid.n_theta // 2 + 1)
    expected = 16 * shape[0] * shape[1] * shape[2]
    if len(payload) != expected:
        raise ParseError(f"{path}: payload is {len(payload)} bytes, not {expected}")
    if _seal(header, payload) != crc:
        raise ParseError(f"{path}: checksum does not match the header and payload")
    coeffs = np.frombuffer(payload, dtype="<c16").reshape(shape)
    return coeffs, step, truncation


# --- diagnostics CSV --------------------------------------------------------------

def csv_header(k_max: int) -> str:
    base = "t,mass,l2_to_const,linf,rho_min,rho_max,grad_l2,spectral_tail"
    lps = ",".join(f"lp_{k}" for k in range(k_max + 1))
    return f"{base},{lps}"


def csv_row(record: DiagnosticsRecord) -> str:
    cells = [
        record.t,
        record.mass,
        record.l2_to_const,
        record.linf,
        record.rho_min,
        record.rho_max,
        record.grad_l2,
        record.spectral_tail,
        *record.lp_ladder,
    ]
    return ",".join(repr(float(c)) for c in cells)
