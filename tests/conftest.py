import numpy as np
import pytest

from slag_lab import GridSpec, sample_potential
from slag_lab.formulas import iso_quad, quad_form


@pytest.fixture
def grid65():
    return GridSpec.ball_box(2, 65)


@pytest.fixture
def grid33():
    return GridSpec.ball_box(2, 33)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def field_from(formula, grid):
    return sample_potential(formula, grid)


def make_iso_quad(grid, k):
    return sample_potential(iso_quad(k), grid)


def make_quad(grid, matrix):
    return sample_potential(quad_form(matrix), grid)


def nan_shift(values, offset):
    """values[x + offset] on a NaN-filled copy of the whole grid, NaN where
    the shifted index leaves it: the one shifted-copy reference of the
    slice-based stencil sums."""
    out = np.full_like(values, np.nan)
    if any(abs(o) >= n for o, n in zip(offset, values.shape)):
        return out
    src, dst = [], []
    for o, n in zip(offset, values.shape):
        src.append(slice(max(o, 0), n + min(o, 0)))
        dst.append(slice(max(-o, 0), n - max(o, 0)))
    out[tuple(dst)] = values[tuple(src)]
    return out
