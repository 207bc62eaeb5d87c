"""Run configuration: strict JSON parsing, defaulting, and hashing.

The JSON config is the primary interface; command-line flags only pick the
subcommand and the config path. Unknown keys are rejected everywhere so that
typos cannot silently change a run.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass

from .dynamics import cfl_dt
from .errors import ParseError, ValidationError
from .grid import (
    ConstantData,
    GridSpec,
    InitialDataSpec,
    Params,
    RandomBandlimitedData,
    SingleModeData,
    make_grid,
    make_initial,
)

DEFAULT_SNAPSHOT_STRIDE = 10
DEFAULT_K_MAX = 6
DEFAULT_TAIL_FRACTION = 0.25

# dt = "auto" resolves to half the advective CFL bound of the initial data,
# floored at 1e-5 and capped at 0.05 so zero-advection runs still produce a
# usable diagnostics timeline.
AUTO_DT_FLOOR = 1e-5
AUTO_DT_CAP = 0.05


@dataclass(frozen=True)
class RunConfig:
    grid: GridSpec
    params: Params
    initial: InitialDataSpec
    t_end: float
    snapshot_stride: int
    output_dir: str
    k_max: int
    tail_fraction: float
    truncation_window: tuple[float, float] | None
    truncation_k_max: int
    checkpoint_every: int
    config_hash: str


def _require_keys(obj: dict, allowed: set[str], required: set[str], where: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(f"{where}: unknown key(s) {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(f"{where}: missing key(s) {sorted(missing)}")


def _number(obj: dict, key: str, where: str) -> float:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ParseError(f"{where}.{key}: expected a number, got {v!r}")
    if not math.isfinite(v):
        raise ValidationError(f"{where}.{key}: must be finite, got {v!r}")
    return float(v)


def _integer(obj: dict, key: str, where: str) -> int:
    v = obj[key]
    if isinstance(v, bool) or not isinstance(v, int):
        raise ParseError(f"{where}.{key}: expected an integer, got {v!r}")
    return v


def _parse_initial(obj, where: str, grid: GridSpec) -> InitialDataSpec:
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object, got {obj!r}")
    kind = obj.get("kind")
    if kind == "constant":
        _require_keys(obj, {"kind", "m"}, {"kind", "m"}, where)
        return ConstantData(m=_number(obj, "m", where))
    if kind == "single_mode":
        _require_keys(
            obj, {"kind", "m", "epsilon", "mode"}, {"kind", "m", "epsilon", "mode"}, where
        )
        mode = obj["mode"]
        if (
            not isinstance(mode, list)
            or len(mode) != 3
            or any(isinstance(k, bool) or not isinstance(k, int) for k in mode)
        ):
            raise ParseError(f"{where}.mode: expected three integers, got {mode!r}")
        return SingleModeData(
            m=_number(obj, "m", where),
            epsilon=_number(obj, "epsilon", where),
            mode=tuple(mode),
        )
    if kind == "random_bandlimited":
        keys = {"kind", "m", "epsilon", "max_mode", "seed"}
        _require_keys(obj, keys, keys, where)
        spec = RandomBandlimitedData(
            m=_number(obj, "m", where),
            epsilon=_number(obj, "epsilon", where),
            max_mode=_integer(obj, "max_mode", where),
            seed=_integer(obj, "seed", where),
        )
        top = min(grid.n_x, grid.n_theta) // 2
        if not 1 <= spec.max_mode <= top:
            raise ValidationError(
                f"{where}.max_mode: must be in [1, {top}] on this grid, got {spec.max_mode}"
            )
        if spec.seed < 0:
            raise ValidationError(f"{where}.seed: must be >= 0, got {spec.seed}")
        return spec
    raise ValidationError(
        f"{where}.kind: expected constant | single_mode | random_bandlimited, got {kind!r}"
    )


def canonical_json(doc) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def hash_document(doc) -> str:
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def parse_config(doc: dict) -> RunConfig:
    """Validate a parsed JSON document and resolve derived settings."""
    if not isinstance(doc, dict):
        raise ParseError(f"config root: expected an object, got {type(doc).__name__}")
    allowed = {
        "grid",
        "params",
        "initial",
        "t_end",
        "snapshot_stride",
        "output_dir",
        "diagnostics",
        "checkpoint_every",
    }
    required = {"grid", "params", "initial", "t_end", "output_dir"}
    _require_keys(doc, allowed, required, "config")

    gobj = doc["grid"]
    if not isinstance(gobj, dict):
        raise ParseError(f"grid: expected an object, got {gobj!r}")
    _require_keys(gobj, {"n_x", "n_theta"}, {"n_x", "n_theta"}, "grid")
    n_x = _integer(gobj, "n_x", "grid")
    n_theta = _integer(gobj, "n_theta", "grid")
    try:
        grid = make_grid(n_x, n_theta)
    except ValueError as exc:
        raise ValidationError(f"grid: {exc}") from exc

    pobj = doc["params"]
    if not isinstance(pobj, dict):
        raise ParseError(f"params: expected an object, got {pobj!r}")
    _require_keys(pobj, {"pe", "de", "dt", "dealias"}, {"pe", "de", "dt"}, "params")
    pe = _number(pobj, "pe", "params")
    de = _number(pobj, "de", "params")
    if de <= 0:
        raise ValidationError(f"params.de: must be > 0, got {de}")
    dealias = pobj.get("dealias", True)
    if not isinstance(dealias, bool):
        raise ParseError(f"params.dealias: expected a boolean, got {dealias!r}")

    dt_raw = pobj["dt"]
    auto_dt = dt_raw == "auto"
    if not auto_dt:
        if isinstance(dt_raw, bool) or not isinstance(dt_raw, (int, float)):
            raise ParseError(f'params.dt: expected a number or "auto", got {dt_raw!r}')
        if not (math.isfinite(dt_raw) and dt_raw > 0):
            raise ValidationError(f"params.dt: must be positive and finite, got {dt_raw!r}")

    initial = _parse_initial(doc["initial"], "initial", grid)

    t_end = _number(doc, "t_end", "config")
    if t_end < 0:
        raise ValidationError(f"t_end: must be >= 0, got {t_end}")

    stride = DEFAULT_SNAPSHOT_STRIDE
    if "snapshot_stride" in doc:
        stride = _integer(doc, "snapshot_stride", "config")
        if stride < 1:
            raise ValidationError(f"snapshot_stride: must be >= 1, got {stride}")

    output_dir = doc["output_dir"]
    if not isinstance(output_dir, str) or not output_dir:
        raise ParseError(f"output_dir: expected a non-empty string, got {output_dir!r}")

    k_max = DEFAULT_K_MAX
    tail_fraction = DEFAULT_TAIL_FRACTION
    trunc_window = None
    trunc_k_max = DEFAULT_K_MAX
    if "diagnostics" in doc:
        dobj = doc["diagnostics"]
        if not isinstance(dobj, dict):
            raise ParseError(f"diagnostics: expected an object, got {dobj!r}")
        _require_keys(dobj, {"k_max", "tail_threshold", "truncation"}, set(), "diagnostics")
        if "k_max" in dobj:
            k_max = _integer(dobj, "k_max", "diagnostics")
            if not 0 <= k_max <= 8:
                raise ValidationError(f"diagnostics.k_max: must be in [0, 8], got {k_max}")
        if "tail_threshold" in dobj:
            tail_fraction = _number(dobj, "tail_threshold", "diagnostics")
            if not 0 < tail_fraction < 0.5:
                raise ValidationError(
                    f"diagnostics.tail_threshold: must be in (0, 0.5), got {tail_fraction}"
                )
        if "truncation" in dobj:
            tobj = dobj["truncation"]
            if not isinstance(tobj, dict):
                raise ParseError(f"diagnostics.truncation: expected an object, got {tobj!r}")
            _require_keys(tobj, {"window", "k_max"}, {"window"}, "diagnostics.truncation")
            win = tobj["window"]
            if (
                not isinstance(win, list)
                or len(win) != 2
                or any(isinstance(w, bool) or not isinstance(w, (int, float)) for w in win)
            ):
                raise ParseError(
                    f"diagnostics.truncation.window: expected [t_a, t_b], got {win!r}"
                )
            if not win[0] < win[1]:
                raise ValidationError(
                    f"diagnostics.truncation.window: need t_a < t_b, got {win!r}"
                )
            trunc_window = (float(win[0]), float(win[1]))
            if "k_max" in tobj:
                trunc_k_max = _integer(tobj, "k_max", "diagnostics.truncation")
                if not 0 <= trunc_k_max <= 8:
                    raise ValidationError(
                        f"diagnostics.truncation.k_max: must be in [0, 8], got {trunc_k_max}"
                    )

    checkpoint_every = 0
    if "checkpoint_every" in doc:
        checkpoint_every = _integer(doc, "checkpoint_every", "config")
        if checkpoint_every < 0:
            raise ValidationError(
                f"checkpoint_every: must be >= 0, got {checkpoint_every}"
            )

    if auto_dt:
        probe = Params(pe=pe, de=de, dt=1.0, dealias=dealias)
        f0 = make_initial(initial, grid)
        dt = min(max(0.5 * cfl_dt(f0, probe), AUTO_DT_FLOOR), AUTO_DT_CAP)
    else:
        dt = float(dt_raw)
    if not math.isfinite(t_end / dt):
        raise ValidationError(
            f"t_end / params.dt: the step count must be finite, got {t_end!r} / {dt!r}"
        )

    return RunConfig(
        grid=grid,
        params=Params(pe=pe, de=de, dt=dt, dealias=dealias),
        initial=initial,
        t_end=t_end,
        snapshot_stride=stride,
        output_dir=output_dir,
        k_max=k_max,
        tail_fraction=tail_fraction,
        truncation_window=trunc_window,
        truncation_k_max=trunc_k_max,
        checkpoint_every=checkpoint_every,
        config_hash=hash_document(doc),
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError as exc:
        raise ParseError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc
    return parse_config(doc)
