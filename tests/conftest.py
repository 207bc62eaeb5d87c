import numpy as np
import pytest

from activeflow import Field3, make_grid

TWO_PI = 2.0 * np.pi


def field_from(grid, fn):
    """Field3 sampled from fn(x1, x2, theta) on the grid (broadcasting)."""
    x = grid.x_values()
    th = grid.theta_values()
    values = fn(
        x[:, None, None], x[None, :, None], th[None, None, :]
    ) * np.ones(grid.shape)
    return Field3(grid=grid, values=values)


def read_csv(path):
    """A diagnostics CSV as one {column: float} dict per row."""
    with open(path, "r", encoding="utf-8") as fh:
        names, *rows = fh.read().splitlines()
    return [dict(zip(names.split(","), map(float, row.split(",")))) for row in rows]


def random_field(grid, seed, positive=False):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(grid.shape)
    if positive:
        values = np.abs(values) + 0.1
    return Field3(grid=grid, values=values)


@pytest.fixture
def grid8():
    return make_grid(8, 8)


@pytest.fixture
def grid16():
    return make_grid(16, 16)


@pytest.fixture
def grid32():
    return make_grid(32, 32)
