"""Finite-difference Hessians of masked potentials.

Diagonal entries use the centered second difference, off-diagonals the
4-point cross stencil; both are exact on quadratics. Hessians exist only at
nodes whose full 3^dim stencil lies in the mask (no one-sided fallbacks).
The same stencil table gives the sparse operators D_ij and boundary lifts
over the interior unknowns that the Dirichlet solver linearizes with.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sparse

from .eigen import eigvals_sym
from .errors import GridError
from .fields import PotentialField, erode_mask


@dataclass
class HessianField:
    """Per-node symmetric dim x dim matrices on the interior mask.

    `matrices` has shape (*grid.shape, dim, dim) with valid entries only where
    `interior_mask` is true.
    """

    grid: "object"
    matrices: np.ndarray
    interior_mask: np.ndarray

    @property
    def dim(self) -> int:
        return self.grid.dim

    def interior_matrices(self) -> np.ndarray:
        return self.matrices[self.interior_mask]

    def eigenvalues(self) -> np.ndarray:
        """Descending eigenvalue field, shape (*grid.shape, dim), NaN outside."""
        out = np.full(self.grid.shape + (self.dim,), np.nan)
        out[self.interior_mask] = eigvals_sym(self.matrices[self.interior_mask])
        return out


def _shift(values: np.ndarray, offset: tuple[int, ...]) -> np.ndarray:
    """values[x + offset] with NaN where the shifted index leaves the grid."""
    out = np.full_like(values, np.nan)
    src = []
    dst = []
    for o, n in zip(offset, values.shape):
        if o >= 0:
            src.append(slice(o, n))
            dst.append(slice(0, n - o))
        else:
            src.append(slice(0, n + o))
            dst.append(slice(-o, n))
    out[tuple(dst)] = values[tuple(src)]
    return out


def _stencil(d: int, i: int, j: int) -> tuple[list, float]:
    """Offsets and weights of the (i, j) entry, and its divisor in units of h^2.

    The diagonal is the centered second difference, the off-diagonal the
    4-point cross stencil. The weights are +-1 and -2, so summing the terms
    in this order reproduces the plain difference formulas bit for bit.
    """
    e = np.eye(d, dtype=int)
    if i == j:
        offs, weights, div = [e[i], 0 * e[i], -e[i]], (1.0, -2.0, 1.0), 1.0
    else:
        offs = [e[i] + e[j], e[i] - e[j], e[j] - e[i], -e[i] - e[j]]
        weights, div = (1.0, -1.0, -1.0, 1.0), 4.0
    return [(tuple(int(c) for c in o), w) for o, w in zip(offs, weights)], div


def hessian_matrices(u: PotentialField, stride: int = 1) -> tuple[np.ndarray, np.ndarray]:
    """Raw FD Hessian matrices at stride*h and the mask where they exist.

    stride > 1 evaluates the same stencils with step stride*h on the same
    data, which is what the refinement-based kink detector compares against.
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing * stride
    v = u.values
    mats = np.zeros(grid.shape + (d, d))
    valid = erode_mask(u.mask, stride)
    if not valid.any():
        raise GridError("domain too small: no interior node carries a full stencil")
    for i in range(d):
        for j in range(i, d):
            terms, div = _stencil(d, i, j)
            acc = None
            for off, w in terms:
                t = w * _shift(v, tuple(stride * o for o in off))
                acc = t if acc is None else acc + t
            mats[..., i, j] = mats[..., j, i] = acc / (div * h**2)
    mats[~valid] = 0.0
    return mats, valid


def second_difference_operators(u: PotentialField) -> tuple[dict, dict]:
    """Sparse FD Hessian operators over the one-cell interior, with lifts.

    Returns `(ops, lifts)` keyed by (i, j), i <= j: `ops[i, j]` is a CSR
    matrix over the interior nodes in row-major order and `lifts[i, j]` holds
    the rim contributions, so that `ops[i, j] @ u.values[interior] +
    lifts[i, j]` equals `hessian_matrices(u)[0][interior][:, i, j]`.
    Interior values of `u` are not read.
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    interior = erode_mask(u.mask, 1)
    if not interior.any():
        raise GridError("domain too small: no interior node carries a full stencil")
    nodes = np.argwhere(interior)
    n = len(nodes)
    index = np.full(grid.shape, -1, dtype=np.int64)
    index[interior] = np.arange(n)
    ops, lifts = {}, {}
    for i in range(d):
        for j in range(i, d):
            terms, div = _stencil(d, i, j)
            rows, cols, data = [], [], []
            lift = np.zeros(n)
            for off, w in terms:
                nb = tuple((nodes + np.array(off)).T)
                col = index[nb]
                inner = col >= 0
                rows.append(np.flatnonzero(inner))
                cols.append(col[inner])
                data.append(np.full(int(inner.sum()), w / (div * h**2)))
                lift[~inner] += w * u.values[nb][~inner]
            ops[i, j] = sparse.csr_matrix(
                (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
                shape=(n, n))
            lifts[i, j] = lift / (div * h**2)
    return ops, lifts


def hessian_field(u: PotentialField) -> HessianField:
    """Discrete Hessian of `u` on its full-stencil interior."""
    mats, valid = hessian_matrices(u, stride=1)
    return HessianField(u.grid, mats, valid)


def taylor_tensors(u: PotentialField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Third and fourth FD derivative tensors on the two-cell interior.

    All stencils are exact on polynomials of total degree four, so the
    quartic Taylor models built from them reproduce such fields globally.
    Returns (T (*shape, d, d, d), F (*shape, d, d, d, d), validity mask).
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    v = u.values
    valid = erode_mask(u.mask, 2)
    if not valid.any():
        raise GridError("domain too small for two-cell Taylor stencils")

    def sh(arr, off):
        return _shift(arr, tuple(off))

    def unit(i, s=1):
        return tuple(s if k == i else 0 for k in range(d))

    second = []
    for i in range(d):
        second.append((sh(v, unit(i)) - 2.0 * v + sh(v, unit(i, -1))) / h**2)

    t = np.zeros(grid.shape + (d, d, d))
    f = np.zeros(grid.shape + (d, d, d, d))

    for i in range(d):
        e2p, e1p = unit(i, 2), unit(i, 1)
        e1m, e2m = unit(i, -1), unit(i, -2)
        t_iii = (sh(v, e2p) - 2 * sh(v, e1p) + 2 * sh(v, e1m) - sh(v, e2m)) / (
            2 * h**3
        )
        t[..., i, i, i] = t_iii
        f[..., i, i, i, i] = (
            sh(v, e2p) - 4 * sh(v, e1p) + 6 * v - 4 * sh(v, e1m) + sh(v, e2m)
        ) / h**4
        for j in range(d):
            if j == i:
                continue
            ejp, ejm = unit(j, 1), unit(j, -1)
            t_iij = (sh(second[i], ejp) - sh(second[i], ejm)) / (2 * h)
            for perm in ((i, i, j), (i, j, i), (j, i, i)):
                t[(..., *perm)] = t_iij
            f_iiij = (sh(t_iii, ejp) - sh(t_iii, ejm)) / (2 * h)
            for perm in ((i, i, i, j), (i, i, j, i), (i, j, i, i), (j, i, i, i)):
                f[(..., *perm)] = f_iiij
        for j in range(i + 1, d):
            ejp, ejm = unit(j, 1), unit(j, -1)
            f_iijj = (sh(second[i], ejp) - 2 * second[i] + sh(second[i], ejm)) / h**2
            for perm in {(i, i, j, j), (i, j, i, j), (i, j, j, i),
                         (j, i, i, j), (j, i, j, i), (j, j, i, i)}:
                f[(..., *perm)] = f_iijj
    if d == 3:
        signs = [(si, sj, sk) for si in (1, -1) for sj in (1, -1)
                 for sk in (1, -1)]
        t_123 = np.zeros(grid.shape)
        for si, sj, sk in signs:
            t_123 += si * sj * sk * sh(v, (si, sj, sk))
        t_123 /= 8 * h**3
        from itertools import permutations

        for perm in set(permutations((0, 1, 2))):
            t[(..., *perm)] = t_123
        for i in range(3):
            j, k = [a for a in range(3) if a != i]
            ej, ek = [0, 0, 0], [0, 0, 0]
            ej[j] = 1
            ek[k] = 1
            f_iijk = (
                sh(second[i], tuple(np.add(ej, ek)))
                - sh(second[i], tuple(np.subtract(ej, ek)))
                - sh(second[i], tuple(np.subtract(ek, ej)))
                + sh(second[i], tuple(np.negative(np.add(ej, ek))))
            ) / (4 * h**2)
            base = (i, i, j, k)
            for perm in set(permutations(base)):
                f[(..., *perm)] = f_iijk
    t[~valid] = 0.0
    f[~valid] = 0.0
    t[~np.isfinite(t).all(axis=(-3, -2, -1))] = 0.0
    f[~np.isfinite(f).all(axis=(-4, -3, -2, -1))] = 0.0
    return t, f, valid


def fourth_order_jet(u: PotentialField):
    """Gradient and Hessian from 4th-order stencils on the two-cell interior.

    Exact on polynomials of total degree four (the plain centered stencils
    are not: e.g. the centered first difference of x^4 is 4x^3 + 4xh^2),
    which the quartic local models of the refined transform rely on.
    Returns (gradients, hessians, validity mask).
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    v = u.values
    valid = erode_mask(u.mask, 2)
    if not valid.any():
        raise GridError("domain too small for two-cell jet stencils")

    def unit(i, s=1):
        return tuple(s if k == i else 0 for k in range(d))

    def d4_first(arr, i):
        return (
            -_shift(arr, unit(i, 2)) + 8 * _shift(arr, unit(i, 1))
            - 8 * _shift(arr, unit(i, -1)) + _shift(arr, unit(i, -2))
        ) / (12 * h)

    grads = np.zeros(grid.shape + (d,))
    hess = np.zeros(grid.shape + (d, d))
    firsts = []
    for i in range(d):
        gi = d4_first(v, i)
        firsts.append(gi)
        grads[..., i] = gi
        hess[..., i, i] = (
            -_shift(v, unit(i, 2)) + 16 * _shift(v, unit(i, 1)) - 30 * v
            + 16 * _shift(v, unit(i, -1)) - _shift(v, unit(i, -2))
        ) / (12 * h * h)
    for i in range(d):
        for j in range(i + 1, d):
            cross = d4_first(firsts[j], i)
            hess[..., i, j] = cross
            hess[..., j, i] = cross
    grads[~valid] = 0.0
    hess[~valid] = 0.0
    bad = ~np.isfinite(grads).all(axis=-1) | ~np.isfinite(hess).all(axis=(-2, -1))
    grads[bad] = 0.0
    hess[bad] = 0.0
    valid &= ~bad
    return grads, hess, valid


def gradient_field(u: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """Centered first differences: (gradients (*shape, dim), validity mask)."""
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    grads = np.zeros(grid.shape + (d,))
    valid = erode_mask(u.mask, 1)
    for i in range(d):
        e = tuple(1 if k == i else 0 for k in range(d))
        ne = tuple(-1 if k == i else 0 for k in range(d))
        grads[..., i] = (_shift(u.values, e) - _shift(u.values, ne)) / (2.0 * h)
    grads[~valid] = 0.0
    return grads, valid


def semiconvexity_modulus(u: PotentialField) -> float:
    """Minimum over interior nodes of the smallest Hessian eigenvalue.

    `u` is (cot(alpha) - delta)-semiconvex when this is >= -(cot(alpha) - delta).
    """
    hf = hessian_field(u)
    lam = eigvals_sym(hf.interior_matrices())
    return float(lam[..., -1].min())


def _direction_set(d: int) -> list[tuple[int, ...]]:
    dirs = []
    for off in np.ndindex(*(3,) * d):
        v = tuple(int(o) - 1 for o in off)
        if any(v) and (-np.array(v)).tolist() not in [list(w) for w in dirs]:
            dirs.append(v)
    return dirs


def directional_convexity_deficit(u: PotentialField):
    """Worst second difference over all stencil directions, and its node.

    Sampled convex functions (kinks included) have every directional second
    difference >= 0, which makes this the right discrete convexity test; the
    assembled FD Hessian matrix can be indefinite at creases.
    """
    grid = u.grid
    h = grid.spacing
    valid = erode_mask(u.mask, 1)
    if not valid.any():
        raise GridError("domain too small for a convexity check")
    worst = np.inf
    node = None
    for v in _direction_set(grid.dim):
        step2 = float(np.dot(v, v)) * h * h
        second = (_shift(u.values, v) - 2.0 * u.values
                  + _shift(u.values, tuple(-c for c in v))) / step2
        vals = second[valid]
        k = int(np.nanargmin(vals))
        if vals[k] < worst:
            worst = float(vals[k])
            node = tuple(int(i) for i in np.argwhere(valid)[k])
    return worst, node
