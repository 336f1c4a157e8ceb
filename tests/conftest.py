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

