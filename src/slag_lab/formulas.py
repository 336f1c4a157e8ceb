"""Builtin potential formulas for the CLI, experiments and tests.

Formulas are vectorized callables on coordinate arrays of shape (..., dim).
String specs look like "iso-quad:3" or "quad:2.3,0.7,0.9"; see REGISTRY.
"""

from __future__ import annotations

import numpy as np


def zero(x):
    return np.zeros(x.shape[:-1])


def iso_quad(k: float):
    def f(x):
        return 0.5 * k * np.sum(x * x, axis=-1)

    return f


def quad_form(matrix):
    a = np.asarray(matrix, dtype=float)

    def f(x):
        return 0.5 * np.einsum("...i,ij,...j->...", x, a, x)

    return f


def quartic(c: float = 1.0):
    """0.5|x|^2 + (c/4)|x|^4, uniformly convex for c >= 0."""

    def f(x):
        r2 = np.sum(x * x, axis=-1)
        return 0.5 * r2 + 0.25 * c * r2 * r2

    return f


def pure_quartic(c: float = 1.0):
    def f(x):
        r2 = np.sum(x * x, axis=-1)
        return 0.25 * c * r2 * r2

    return f


def bilinear(x):
    return x[..., 0] * x[..., 1]


def abs_axis(axis: int = 0):
    def f(x):
        return np.abs(x[..., axis])

    return f


def norm(x):
    return np.sqrt(np.sum(x * x, axis=-1))


def max_affine(slopes, offsets):
    p = np.asarray(slopes, dtype=float)
    b = np.asarray(offsets, dtype=float)

    def f(x):
        return (np.tensordot(x, p, axes=([-1], [1])) + b).max(axis=-1)

    return f


def random_max_affine(rng: np.random.Generator, dim: int, pieces: int = 5):
    slopes = rng.uniform(-1.0, 1.0, size=(pieces, dim))
    offsets = rng.uniform(-0.3, 0.3, size=pieces)
    return max_affine(slopes, offsets)


def random_spd_matrix(rng: np.random.Generator, dim: int,
                      eig_range=(0.2, 4.0)) -> np.ndarray:
    """Random symmetric positive definite matrix with eigenvalues in range."""
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eig = rng.uniform(*eig_range, size=dim)
    return q @ np.diag(eig) @ q.T


def parse_formula(spec: str):
    """Parse "name" or "name:arg1,arg2,..." into a formula callable."""
    name, _, argstr = spec.partition(":")
    args = [float(a) for a in argstr.split(",")] if argstr else []
    if name == "zero":
        return zero
    if name == "iso-quad":
        return iso_quad(args[0] if args else 1.0)
    if name == "quad":
        if len(args) == 3:
            m = [[args[0], args[1]], [args[1], args[2]]]
        elif len(args) == 6:
            m = [
                [args[0], args[1], args[2]],
                [args[1], args[3], args[4]],
                [args[2], args[4], args[5]],
            ]
        else:
            raise ValueError("quad wants 3 (2-D) or 6 (3-D) entries")
        return quad_form(m)
    if name == "quartic":
        return quartic(args[0] if args else 1.0)
    if name == "pure-quartic":
        return pure_quartic(args[0] if args else 1.0)
    if name == "bilinear":
        return bilinear
    if name == "abs":
        return abs_axis(int(args[0]) if args else 0)
    if name == "norm":
        return norm
    raise ValueError(f"unknown formula {name!r}")


REGISTRY = (
    "zero", "iso-quad:K", "quad:a11,a12,a22", "quartic:c", "pure-quartic:c",
    "bilinear", "abs:axis", "norm",
)
