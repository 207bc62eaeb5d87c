"""Behavior of the check harness itself (gating and sabotage detection)."""

import sys

import pytest

import checks_reference
from activeflow import diagnostics, verification
from activeflow.config import parse_config
from activeflow.verification import FAIL, PASS, SKIP, run_check


def make_config(**params_overrides):
    params = {"pe": 0.05, "de": 1.0, "dt": 0.01}
    params.update(params_overrides)
    return parse_config(
        {
            "grid": {"n_x": 16, "n_theta": 16},
            "params": params,
            "initial": {
                "kind": "single_mode",
                "m": 1.0,
                "epsilon": 0.5,
                "mode": [1, 0, 0],
            },
            "t_end": 1.0,
            "output_dir": "out",
        }
    )


def test_broken_time_step_fails_order_check():
    # 10x the advective CFL bound: the comparison run blows up or drifts far
    # from the oracle, and the equivalence check must say so.
    config = make_config(dt=4.0)
    with pytest.warns(RuntimeWarning):
        result = run_check(3, config)
    assert result.status == FAIL


def test_zero_peclet_skips_advection_checks():
    config = make_config(pe=0.0)
    assert run_check(3, config).status == SKIP
    assert run_check(9, config).status == SKIP


def test_unknown_criterion_rejected():
    with pytest.raises(ValueError):
        run_check(11, make_config())


CHECK_DOC = {
    "grid": {"n_x": 8, "n_theta": 8},
    "params": {"pe": 0.05, "de": 1.0, "dt": 0.025, "dealias": True},
    "initial": {"kind": "single_mode", "m": 1.0, "epsilon": 0.5, "mode": [1, 0, 0]},
    "t_end": 1.0,
    "output_dir": "out",
}


def _count_records(monkeypatch, fn):
    """Calls fn() makes to diagnostics.compute_record, under every name a
    module of the package binds it to."""
    calls = []
    original = diagnostics.compute_record

    def counted(*args, **kwargs):
        calls.append(None)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "activeflow":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    result = fn()
    monkeypatch.undo()
    return result, len(calls)


@pytest.mark.parametrize("criterion,records", [
    (1, 0), (2, 0), (3, 0), (4, 0), (5, 0), (6, 0), (7, 0), (8, 2), (9, 0),
])
def test_each_check_records_only_what_it_reads(monkeypatch, criterion, records):
    # at 8^3, dt 0.025, through run criteria 1-9 made 2001, 101, 15, 401, 603,
    # 402, 401, 41 and 41 records
    config = parse_config(CHECK_DOC)
    result, calls = _count_records(monkeypatch, lambda: run_check(criterion, config))
    assert result.status == PASS
    assert calls == records
    if criterion in checks_reference.DETAILS:
        want = checks_reference.DETAILS[criterion](config.grid, config.params)
        assert result.detail == want


def test_degiorgi_parabolic_norm_is_the_trajectory_one(monkeypatch):
    # criterion 9 streams the parabolic norm over states; the p_norm it hands
    # rescale_field must be the record-based norm of run's trajectory, bit for bit
    config = parse_config(CHECK_DOC)
    seen = set()
    original = verification.rescale_field

    def capture(*args, **kwargs):
        seen.add(kwargs["p_norm"])
        return original(*args, **kwargs)

    monkeypatch.setattr(verification, "rescale_field", capture)
    assert run_check(9, config).status == PASS
    _, want = checks_reference.degiorgi_run(config.grid, config.params)
    assert seen == {want}
