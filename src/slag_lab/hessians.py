"""Finite-difference Hessians of masked potentials.

Every finite-difference sum of the package, the Laplace-Beltrami fluxes
and the mollifier included, is a list of (offset, weight) terms that one
function, `_combine`, applies as slices of the box where every offset stays
on the grid. Its 1-D stencils come from one table (`_PURE_STENCILS`).

Diagonal entries use the centered second difference, off-diagonals the
4-point cross stencil; both are exact on quadratics. Hessians exist only at
nodes whose full 3^dim stencil lies in the mask (no one-sided fallbacks).
The same stencils, stacked term by term over the interior unknowns
(`stencil_terms`), give the Dirichlet solver its Poisson and Newton
systems. The module needs numpy alone.

The jets of the quartic Taylor models (`fourth_order_jet`, `taylor_tensors`)
come as one column per one-cell interior node in row-major order and one
row per component, the layout the refined transform reads: degree-4-exact
where two cells of mask surround the node, plain elsewhere. Symmetric
tensors keep one row per distinct entry; `symmetric_slots` expands them.
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


def _unit(d: int, i: int, s: int = 1) -> tuple[int, ...]:
    """Offset of s steps along axis i of a d-dimensional grid."""
    return tuple(s if k == i else 0 for k in range(d))


def _combine(values: np.ndarray, terms) -> np.ndarray:
    """Sum of w * values[x + offset] over (offset, w) in `terms`, in order,
    one slice of `values` per term over the core box, where every offset
    stays on the grid; NaN outside the core (everywhere when it is empty)."""
    terms = list(terms)
    reach = list(zip(*(off for off, _ in terms)))
    lo = [max(0, -min(r)) for r in reach]
    hi = [n - max(0, max(r)) for n, r in zip(values.shape, reach)]
    out = np.full(values.shape, np.nan)
    if all(a < b for a, b in zip(lo, hi)):
        acc = None
        for off, w in terms:
            term = values[tuple(slice(a + o, b + o) for a, b, o in zip(lo, hi, off))]
            # x + 1.0 * y and x + -1.0 * y round as x + y and x - y
            if acc is None:
                acc = w * term
            elif w == 1.0:
                acc += term
            elif w == -1.0:
                acc -= term
            else:
                acc += w * term
        out[tuple(map(slice, lo, hi))] = acc
    return out


# 1-D stencils of the pure derivatives, keyed by (order, accuracy) as in
# Fornberg's tables (Math. Comp. 51, 1988): offsets, integer-valued weights,
# and the divisor at step h as each difference formula writes it (12 * h * h
# and 12 * h**2 round differently). Summing the terms in this order
# reproduces the difference formulas bit for bit.
_PURE_STENCILS = {
    (1, 4): ((2, 1, -1, -2), (-1.0, 8.0, -8.0, 1.0), lambda h: 12 * h),
    (2, 2): ((1, 0, -1), (1.0, -2.0, 1.0), lambda h: 1.0 * h**2),
    (2, 4): ((2, 1, 0, -1, -2), (-1.0, 16.0, -30.0, 16.0, -1.0), lambda h: 12 * h * h),
    (3, 2): ((2, 1, -1, -2), (1.0, -2.0, 2.0, -1.0), lambda h: 2.0 * h**3),
    (4, 2): ((2, 1, 0, -1, -2), (1.0, -4.0, 6.0, -4.0, 1.0), lambda h: 1.0 * h**4),
}


def _line(d: int, i: int, offsets, weights) -> list:
    """Terms of a 1-D stencil along axis i."""
    return [(_unit(d, i, o), w) for o, w in zip(offsets, weights)]


def _pure(values: np.ndarray, i: int, key, h: float) -> np.ndarray:
    """The `_PURE_STENCILS[key]` derivative of `values` along axis i, step h."""
    offsets, weights, divisor = _PURE_STENCILS[key]
    return _combine(values, _line(values.ndim, i, offsets, weights)) / divisor(h)


def _corners(d: int, axes) -> list:
    """Terms of the signed corner sum over `axes` (divisor (2h)^len(axes)):
    the centered first difference for one axis, the cross stencil for two."""
    e = np.eye(d, dtype=int)[list(axes)]
    return [(tuple(int(c) for c in e.T @ s), float(math.prod(s)))
            for s in product((1, -1), repeat=len(axes))]


def _stencil(d: int, i: int, j: int):
    """Offsets and weights of the (i, j) entry, and its divisor at step h.

    The diagonal is the centered second difference, the off-diagonal the
    4-point cross stencil.
    """
    if i == j:
        offsets, weights, divisor = _PURE_STENCILS[(2, 2)]
        return _line(d, i, offsets, weights), divisor
    return _corners(d, (i, j)), lambda h: 4.0 * h**2


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
    for i, j in zip(*symmetric_pairs(d)):
        terms, divisor = _stencil(d, i, j)
        scaled = [(tuple(stride * o for o in off), w) for off, w in terms]
        mats[..., i, j] = mats[..., j, i] = _combine(v, scaled) / divisor(h)
    mats[~valid] = 0.0
    return mats, valid


def stencil_terms(mask: np.ndarray, spacing: float):
    """The FD Hessian stencil terms that join two one-cell interior nodes.

    Returns `(row, col, pair, weight)`: each term adds `weight` = w / divisor
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
    for i, j in zip(*symmetric_pairs(d)):
        terms, divisor = _stencil(d, i, j)
        for off, w in terms:
            col = index[tuple((nodes + np.array(off)).T)]
            row = np.flatnonzero(col >= 0)
            rows.append(row)
            cols.append(col[row])
            pairs.append(np.full((len(row), 2), (i, j)))
            weights.append(np.full(len(row), w / divisor(spacing)))
    return tuple(np.concatenate(a) for a in (rows, cols, pairs, weights))


def hessian_field(u: PotentialField) -> HessianField:
    """Discrete Hessian of `u` on its full-stencil interior."""
    mats, valid = hessian_matrices(u, stride=1)
    return HessianField(u.grid, mats, valid)


@lru_cache(maxsize=None)
def symmetric_slots(d: int, k: int) -> np.ndarray:
    """Packed entry of every slot of a symmetric d^k tensor (read-only).

    Packed tensors keep one entry per sorted multi-index, in the order of
    `combinations_with_replacement(range(d), k)`; indexing the packed axis
    with the slots (`packed[slots]` for the jet rows of `taylor_tensors`)
    expands them to the dense form.
    """
    column = {m: c for c, m in
              enumerate(combinations_with_replacement(range(d), k))}
    slots = np.empty((d,) * k, dtype=np.intp)
    for slot in np.ndindex(slots.shape):
        slots[slot] = column[tuple(sorted(slot))]
    slots.flags.writeable = False
    return slots


@lru_cache(maxsize=None)
def symmetric_pairs(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Index pairs (i, j), i <= j, of the symmetric entries of a d x d
    matrix, in the packed order of `symmetric_slots(d, 2)` (read-only)."""
    pairs = np.array(list(combinations_with_replacement(range(d), 2))).T
    pairs.flags.writeable = False
    return pairs[0], pairs[1]


# both jet passes keep their names: the benchmark's tracer patches them by
# name (slagbench/tracing.py)
def taylor_tensors(u: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """Packed t3 (C(d+2, 3), n) and t4 (C(d+3, 4), n) at the n one-cell
    interior nodes in row-major order, one row per sorted multi-index (see
    `symmetric_slots`).

    Each row applies the pure-derivative stencil of the axis of highest
    multiplicity (>= 2, the lower axis on a tie), then that of the other
    axis of multiplicity >= 2, then one signed corner sum over the axes of
    multiplicity 1: exact at total degree four, so the quartic Taylor
    models reproduce such fields globally. Each tensor is zero at nodes
    without the two-cell stencil and where any of its entries is not finite.
    """
    d, h = u.grid.dim, u.grid.spacing
    inner = erode_mask(u.mask, 1)
    two = erode_mask(u.mask, 2)[inner]
    packed = []
    for k in (3, 4):
        columns = []
        for multi in combinations_with_replacement(range(d), k):
            counts = [multi.count(a) for a in range(d)]
            acc = u.values
            for a in sorted(range(d), key=lambda a: -counts[a]):
                if counts[a] >= 2:
                    acc = _pure(acc, a, (counts[a], 2), h)
            ones = [a for a in range(d) if counts[a] == 1]
            if ones:
                acc = _combine(acc, _corners(d, ones)) / (2 ** len(ones) * h ** len(ones))
            columns.append(acc[inner])
        tens = np.stack(columns)
        tens[:, ~two | ~np.isfinite(tens).all(axis=0)] = 0.0
        packed.append(tens)
    return packed[0], packed[1]


def fourth_order_jet(u: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """Columns g, H (entries of `symmetric_pairs`) at the nodes of
    `taylor_tensors`, and the mask of those exact at total degree four.

    Where the two-cell stencil fits and all are finite, they are the
    table's 5-point first and second derivatives, mixed entries 5-point
    first derivatives of gradient components; elsewhere the centered
    stencils of `gradient_field` and `hessian_matrices`, which are not
    exact at degree four (the centered first difference of x^4 is 4x^3 +
    4xh^2), as the quartic models of the refined transform need.
    """
    d, h, v = u.grid.dim, u.grid.spacing, u.values
    inner = erode_mask(u.mask, 1)
    if not inner.any():
        raise GridError("domain too small: no interior node carries a full stencil")
    g4 = [_pure(v, i, (1, 4), h) for i in range(d)]
    plain = [_combine(v, _corners(d, (i,)))[inner] / (2.0 * h) for i in range(d)]
    exact = [g[inner] for g in g4]
    for i, j in zip(*symmetric_pairs(d)):
        terms, divisor = _stencil(d, i, j)
        plain.append(_combine(v, terms)[inner] / divisor(h))
        exact.append((_pure(v, i, (2, 4), h) if i == j
                      else _pure(g4[j], i, (1, 4), h))[inner])
    jet, exact = np.stack(plain), np.stack(exact)
    quartic = erode_mask(u.mask, 2)[inner] & np.isfinite(exact).all(axis=0)
    jet[:, quartic] = exact[:, quartic]
    return jet, quartic


def gradient_field(u: PotentialField) -> tuple[np.ndarray, np.ndarray]:
    """Centered first differences: (gradients (*shape, dim), validity mask)."""
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    grads = np.zeros(grid.shape + (d,))
    valid = erode_mask(u.mask, 1)
    for i in range(d):
        grads[..., i] = _combine(u.values, _corners(d, (i,))) / (2.0 * h)
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
    assembled FD Hessian matrix can be indefinite at creases. Each
    direction's difference is the 3-point line along it.
    """
    grid = u.grid
    d = grid.dim
    h = grid.spacing
    valid = erode_mask(u.mask, 1)
    if not valid.any():
        raise GridError("domain too small for a convexity check")
    worst = np.inf
    best = None
    for v in _direction_set(d):
        step2 = float(np.dot(v, v)) * h * h
        line = [(v, 1.0), ((0,) * d, -2.0), (tuple(-c for c in v), 1.0)]
        vals = _combine(u.values, line)[valid] / step2
        k = int(np.nanargmin(vals))
        if vals[k] < worst:
            worst = float(vals[k])
            best = k
    if best is None:
        return worst, None
    return worst, tuple(int(i) for i in np.argwhere(valid)[best])
