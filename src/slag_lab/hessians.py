"""Finite-difference Hessians of masked potentials.

Diagonal entries use the centered second difference, off-diagonals the
4-point cross stencil; both are exact on quadratics. Hessians exist only at
nodes whose full 3^dim stencil lies in the mask (no one-sided fallbacks).
The same stencil table, stacked term by term over the interior unknowns
(`stencil_terms`), gives the Dirichlet solver its Poisson and Newton
systems. The module needs numpy alone.

The third and fourth derivatives of the quartic Taylor models come packed,
one column per distinct entry of the symmetric tensor, from one table of
1-D pure-derivative stencils (`taylor_tensors`); `symmetric_slots` expands
them. These and the fourth-order jet need two cells of mask around a node,
and return an all-false validity mask, not an error, where none has them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement, islice, product

import numpy as np

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


def _unit(d: int, i: int, s: int = 1) -> tuple[int, ...]:
    """Offset of s steps along axis i of a d-dimensional grid."""
    return tuple(s if k == i else 0 for k in range(d))


def _combine(values: np.ndarray, terms) -> np.ndarray:
    """Sum of w * values[x + offset] over (offset, w) in `terms`, in order."""
    acc = None
    for off, w in terms:
        t = w * _shift(values, off)
        acc = t if acc is None else acc + t
    return acc


# 1-D stencils of the pure derivatives, keyed by order: offsets, +-integer
# weights and divisor in units of h^order. Summing the terms in this order
# reproduces the plain difference formulas bit for bit.
_PURE_STENCILS = {
    2: ((1, 0, -1), (1.0, -2.0, 1.0), 1.0),
    3: ((2, 1, -1, -2), (1.0, -2.0, 2.0, -1.0), 2.0),
    4: ((2, 1, 0, -1, -2), (1.0, -4.0, 6.0, -4.0, 1.0), 1.0),
}


def _line(d: int, i: int, offsets, weights) -> list:
    """Terms of a 1-D stencil along axis i."""
    return [(_unit(d, i, o), w) for o, w in zip(offsets, weights)]


def _corners(d: int, axes) -> list:
    """Terms of the signed corner sum over `axes` (divisor (2h)^len(axes)):
    the centered first difference for one axis, the cross stencil for two."""
    e = np.eye(d, dtype=int)[list(axes)]
    return [(tuple(int(c) for c in e.T @ s), float(math.prod(s)))
            for s in product((1, -1), repeat=len(axes))]


def _stencil(d: int, i: int, j: int) -> tuple[list, float]:
    """Offsets and weights of the (i, j) entry, and its divisor in units of h^2.

    The diagonal is the centered second difference, the off-diagonal the
    4-point cross stencil.
    """
    if i == j:
        offsets, weights, div = _PURE_STENCILS[2]
        return _line(d, i, offsets, weights), div
    return _corners(d, (i, j)), 4.0


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
            scaled = [(tuple(stride * o for o in off), w) for off, w in terms]
            mats[..., i, j] = mats[..., j, i] = _combine(v, scaled) / (div * h**2)
    mats[~valid] = 0.0
    return mats, valid


def stencil_terms(mask: np.ndarray, spacing: float):
    """The FD Hessian stencil terms that join two one-cell interior nodes.

    Returns `(row, col, pair, weight)`: each term adds `weight` = w / (div h^2)
    times the value at interior node `col` to entry `pair` = (i, j), i <= j,
    of the Hessian at interior node `row`; interior nodes are numbered in
    row-major order. Terms come pair by pair, (0, 0), (0, 1), ..., then in
    stencil order. Terms that read a rim node are left out: their sums are
    the `hessian_matrices` of the rim data with the interior set to 0.
    """
    d = mask.ndim
    interior = erode_mask(mask, 1)
    if not interior.any():
        raise GridError("domain too small: no interior node carries a full stencil")
    nodes = np.argwhere(interior)
    index = np.full(mask.shape, -1, dtype=np.int64)
    index[interior] = np.arange(len(nodes))
    rows, cols, pairs, weights = [], [], [], []
    for i in range(d):
        for j in range(i, d):
            terms, div = _stencil(d, i, j)
            for off, w in terms:
                col = index[tuple((nodes + np.array(off)).T)]
                row = np.flatnonzero(col >= 0)
                rows.append(row)
                cols.append(col[row])
                pairs.append(np.full((len(row), 2), (i, j)))
                weights.append(np.full(len(row), w / (div * spacing**2)))
    return tuple(np.concatenate(a) for a in (rows, cols, pairs, weights))


def hessian_field(u: PotentialField) -> HessianField:
    """Discrete Hessian of `u` on its full-stencil interior."""
    mats, valid = hessian_matrices(u, stride=1)
    return HessianField(u.grid, mats, valid)


@lru_cache(maxsize=None)
def symmetric_slots(d: int, k: int) -> np.ndarray:
    """Packed column of every slot of a symmetric d^k tensor (read-only).

    Packed tensors keep one column per sorted multi-index, in the order of
    `combinations_with_replacement(range(d), k)`; `packed[..., slots]`
    expands them to the dense form.
    """
    column = {m: c for c, m in
              enumerate(combinations_with_replacement(range(d), k))}
    slots = np.empty((d,) * k, dtype=np.intp)
    for slot in np.ndindex(slots.shape):
        slots[slot] = column[tuple(sorted(slot))]
    slots.flags.writeable = False
    return slots


def taylor_tensors(u: PotentialField) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Packed third and fourth FD derivative tensors on the two-cell interior.

    Each column (one per sorted multi-index, see `symmetric_slots`) applies
    the pure-derivative stencil of the axis of highest multiplicity (>= 2,
    the lower axis on a tie), then that of the other axis of multiplicity
    >= 2, then one signed corner sum over the axes of multiplicity 1. All
    stencils are exact on polynomials of total degree four, so the quartic
    Taylor models built from them reproduce such fields globally. Returns
    (T (*shape, C(d+2, 3)), F (*shape, C(d+3, 4)), validity mask); the mask
    is all false, and T and F zero, when no node has a two-cell stencil.
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    valid = erode_mask(u.mask, 2)
    packed = []
    for k in (3, 4):
        columns = []
        for multi in combinations_with_replacement(range(d), k):
            counts = [multi.count(a) for a in range(d)]
            acc = u.values
            for a in sorted(range(d), key=lambda a: -counts[a]):
                if counts[a] >= 2:
                    offsets, weights, div = _PURE_STENCILS[counts[a]]
                    acc = (_combine(acc, _line(d, a, offsets, weights))
                           / (div * h ** counts[a]))
            ones = [a for a in range(d) if counts[a] == 1]
            if ones:
                acc = _combine(acc, _corners(d, ones)) / (2 ** len(ones) * h ** len(ones))
            columns.append(acc)
        tens = np.stack(columns, axis=-1)
        tens[~valid] = 0.0
        tens[~np.isfinite(tens).all(axis=-1)] = 0.0
        packed.append(tens)
    return packed[0], packed[1], valid


def fourth_order_jet(u: PotentialField):
    """Gradient and Hessian from 4th-order stencils on the two-cell interior.

    Exact on polynomials of total degree four (the plain centered stencils
    are not: e.g. the centered first difference of x^4 is 4x^3 + 4xh^2),
    which the quartic local models of the refined transform rely on.
    Returns (gradients, hessians, validity mask); the mask is all false when
    no node has a two-cell stencil.
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    v = u.values
    valid = erode_mask(u.mask, 2)

    def d4_first(arr, i):
        return _combine(arr, _line(d, i, (2, 1, -1, -2), (-1, 8, -8, 1))) / (12 * h)

    grads = np.zeros(grid.shape + (d,))
    hess = np.zeros(grid.shape + (d, d))
    for i in range(d):
        grads[..., i] = d4_first(v, i)
        hess[..., i, i] = _combine(v, _line(d, i, (2, 1, 0, -1, -2),
                                            (-1, 16, -30, 16, -1))) / (12 * h * h)
    for i in range(d):
        for j in range(i + 1, d):
            hess[..., i, j] = hess[..., j, i] = d4_first(grads[..., j], i)
    grads[~valid] = 0.0
    hess[~valid] = 0.0
    bad = ~np.isfinite(grads).all(axis=-1) | ~np.isfinite(hess).all(axis=(-2, -1))
    grads[bad] = 0.0
    hess[bad] = 0.0
    valid &= ~bad
    return grads, hess, valid


def gradient_field(u: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """Centered first differences: (gradients (*shape, dim), validity mask).

    The differences are taken on the box one cell in from the grid border,
    which holds every interior node.
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    grads = np.zeros(grid.shape + (d,))
    valid = erode_mask(u.mask, 1)
    inner = (slice(1, -1),) * d
    for i in range(d):
        ahead = inner[:i] + (slice(2, None),) + inner[i + 1:]
        behind = inner[:i] + (slice(None, -2),) + inner[i + 1:]
        grads[inner + (i,)] = (u.values[ahead] - u.values[behind]) / (2.0 * h)
    grads[~valid] = 0.0
    return grads, valid


def semiconvexity_modulus(u: PotentialField) -> float:
    """Minimum over interior nodes of the smallest Hessian eigenvalue.

    `u` is (cot(alpha) - delta)-semiconvex when this is >= -(cot(alpha) - delta).
    """
    hf = hessian_field(u)
    lam = eigvals_sym(hf.interior_matrices())
    return float(lam[..., -1].min())


@lru_cache(maxsize=None)
def _direction_set(d: int) -> tuple[tuple[int, ...], ...]:
    """One offset of each pair +-v of nonzero 3^d stencil offsets: the ones
    before the centre in row-major order."""
    return tuple(islice(product((-1, 0, 1), repeat=d), (3**d - 1) // 2))


def directional_convexity_deficit(u: PotentialField):
    """Worst second difference over all stencil directions, and its node.

    Sampled convex functions (kinks included) have every directional second
    difference >= 0, which makes this the right discrete convexity test; the
    assembled FD Hessian matrix can be indefinite at creases. Interior
    nodes never sit on the grid border, so the differences are taken on the
    box one cell in from it, where every neighbour exists.
    """
    grid = u.grid
    h = grid.spacing
    valid = erode_mask(u.mask, 1)
    if not valid.any():
        raise GridError("domain too small for a convexity check")
    inner = (slice(1, -1),) * grid.dim
    centre = u.values[inner]
    valid = valid[inner]
    worst = np.inf
    best = None
    for v in _direction_set(grid.dim):
        step2 = float(np.dot(v, v)) * h * h
        ahead = tuple(slice(1 + c, n - 1 + c) for c, n in zip(v, grid.shape))
        behind = tuple(slice(1 - c, n - 1 - c) for c, n in zip(v, grid.shape))
        second = (u.values[ahead] - 2.0 * centre + u.values[behind]) / step2
        vals = second[valid]
        k = int(np.nanargmin(vals))
        if vals[k] < worst:
            worst = float(vals[k])
            best = k
    if best is None:
        return worst, None
    node = np.unravel_index(np.flatnonzero(valid)[best], valid.shape)
    return worst, tuple(int(i) + 1 for i in node)
