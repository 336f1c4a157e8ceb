"""Discrete Legendre-Fenchel transforms, subdifferentials and slope domains.

The transform of a masked field is f*(y) = max over masked nodes x of
y.x - f(x), i.e. the conjugate of the piecewise-linear interpolant. One
kernel evaluates it with its maximizing node, an axis at a time as in
Lucet's linear-time Legendre transform (Numer. Algorithms 1997): a pass
lays the finite entries of all rows out in one array, each row closed by a
NaN separator that fails every test, peels them to their lower hulls in
rounds of simultaneous monotone-chain tests, and merges the hull
breakpoints with the slope axis in one `searchsorted`; exact ties take the
smallest index, and empty rows give -inf and index 0. The kernel obeys the
Legendre laws (Fenchel-Young with equality at the maximizer, order
reversal, exact constant shifts and lattice tilts, involution on lattice
max-affine fields), which hypothesis tests check on random masks in 2-D
and 3-D. `sup_with_argmax` (both masks in one call per pass)
and `conjugate_fast` are its entry points; `refined_sup` polishes its node
suprema with local quartic Taylor models and the rotation operator builds
on that, asking for the polish only on the slope rows whose sup is
attained inside the mask (the rest keep their node suprema). The O(N*M)
references survive for the tests (contract: equal to 1e-12): values-only
`conjugate_brute` on the max kernel `_max_plus`, and `_sup_brute`, the
argmax and interior oracle of `sup_with_argmax`.

The polish visits the candidate nodes around each node argmax ring by ring
(offset infinity norm 0, 1, 2) and skips every candidate whose upper
bound over its half-cell box (node value, a closed-form quadratic term per
axis and the cubic and quartic terms at their largest on the box; cf.
Moore, Interval Analysis, 1966) falls below the best value found in the
earlier rings. The maximum is unchanged bit for bit; in 3-D about 3 % of
the candidates are left to polish. Each ring is screened in blocks of
offsets, about `_SCREEN_PAIRS` (slope row, offset) pairs per bound call,
in offset-major order. The candidates of a ring that pass are
polished together, in calls of up to `_POLISH_ROWS`. The models are
one per one-cell interior node, and a padded copy of the grid maps nodes
to them, so each offset's candidates are one gather. They form one
component-major table, a contiguous row per component and a column per
node, whose jet rows `hessians.fourth_order_jet` and `taylor_tensors`
build in that layout: the polish reads the gradient, the Hessian, its
inverse and the third and fourth derivatives, kept as their packed
symmetric entries (`hessians.symmetric_slots`), and the position and
value; the bound reads the position, the gradient and three rows of its
own (`_column_blocks` names them all). The bound takes
each row it needs with one 1-D gather per offset, and the terms that
depend on the slope row alone are formed once per transform. The polish
contracts the packed entries directly, elementwise over candidates, so a
candidate's value does not depend on the call it lands in. Where the mask
has no two-cell interior (and on the one-cell rim ring of any mask) the
models fall back to the plain quadratic ones. The d x d Newton systems and
Hessian inverses are closed-form adjugates over determinants. Every
polish call size gives the same bits.

Slope grids are sized automatically from attained first differences plus a
two-cell margin, with a node pinned at the slope-space origin; node
quotients within round-off of an integer are snapped to it first. The
audits build the slope coordinates once per transform and share them
between anchors.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb
from typing import NamedTuple

import numpy as np

from .eigen import adjugate, eigvals_sym
from .errors import ConvexityError, GridError, SlopeGridError
from .fields import GridSpec, PotentialField, dilate_mask, erode_mask
from .hessians import (
    directional_convexity_deficit,
    fourth_order_jet,
    gradient_field,
    semiconvexity_modulus,
    symmetric_pairs,
    symmetric_slots,
    taylor_tensors,
)
from .reports import AuditReport

logger = logging.getLogger("slag_lab.conjugate")

# floats per block of the O(N*M) loops: `_max_plus` (conjugate_brute and
# extend_convex's two passes) and `_sup_brute`
_CHUNK_FLOATS = 8_000_000
# refined_sup: candidate nodes within this many cells of the node argmax,
# and the smallest Hessian eigenvalue that admits a local model
_REFINE_WINDOW = 2
_PSD_FLOOR = 1e-10
# refined_sup: most candidates per `_polish` call. A 3-D call holds about
# 64 floats per candidate at its peak, 4 MB at this size; calls of 2048
# made a 129^2 rotation about 18 % slower
_POLISH_ROWS = 8192
# refined_sup: most (slope row, offset) pairs per screen block of a ring.
# In-process rotations on a shared two-core host (both seed-1 items of the
# rotate-2d and rotate-3d workloads, and a quartic at 257^2 and 33^3;
# median of five 4 s loops, in ms) at 16 384 / 32 768 / 65 536 pairs:
# 80 / 69 / 68, 68 / 65 / 68, 153 / 150 / 161 and 178 / 149 / 176;
# screening offset by offset read 69, 90, 203 and 185
_SCREEN_PAIRS = 32768
# auto_slope_grid: node quotients this close to an integer (relative) are
# snapped to it; FD round-off leaves them up to ~50 ulps off, while
# genuinely fractional quotients lie ~1e13 ulps away
_SNAP_REL = 1e-12
# relative slack of the box bound that prunes refined_sup's candidates
_BOUND_SLACK = 1e-12
# auto_slope_grid: extra slope nodes beyond the attained range on each side
_SLOPE_MARGIN = 2
# conjugates and slope domains: tolerated negative directional curvature,
# and the relative tie that still counts a slope's sup as attained inside
_CONVEXITY_TOL = 1e-8
_TIE_TOL = 1e-12
# slack of check_sum_rule's distance and check_slope_increase's modulus
_SUM_RULE_TOL = 1e-9
_MODULUS_TOL = 1e-8


def _require_tolerance(name: str, tol: float) -> None:
    """Raise ValueError unless `tol` is finite and nonnegative: a NaN or
    infinite tolerance switches its check off, and a negative one asks for
    more than equality."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {tol}")


def _require_convex(f: PotentialField, tol: float = _CONVEXITY_TOL) -> None:
    # directional second differences, not matrix eigenvalues: sampled convex
    # functions with creases have exactly nonnegative directional curvature
    # while their assembled cross-stencil Hessian can be indefinite
    _require_tolerance("convexity tolerance", tol)
    worst, node = directional_convexity_deficit(f)
    if worst < -tol:
        raise ConvexityError("field is not convex", node=node, modulus=worst)


def _snap(q: float) -> float:
    """`q`, or the nearest integer when `q` lies within `_SNAP_REL` of it.

    A gradient range symmetric about 0 makes the quotients of
    `auto_slope_grid` integers up to round-off, and floor or ceil would
    otherwise size the grid from the last bits of the data.
    """
    r = round(q)
    return float(r) if abs(q - r) <= _SNAP_REL * max(1.0, abs(q)) else q


def auto_slope_grid(f: PotentialField) -> GridSpec:
    """Slope-space grid covering the attained gradient range plus a margin.

    The spacing is h times the largest attained slope-to-coordinate range
    ratio, and the grid is aligned so that 0 is a node. Each gradient
    component is reduced as its own contiguous array, and each coordinate
    range is read off the axis at the first and last index of the interior;
    an interior one node thick along some axis has no range there and is
    rejected with SlopeGridError.
    """
    grads, valid = gradient_field(f)
    if not valid.any():
        raise SlopeGridError("no interior node to estimate the slope range")
    d = f.grid.dim
    comps = [grads[..., k][valid] for k in range(d)]
    lo = np.array([g.min() for g in comps])
    hi = np.array([g.max() for g in comps])
    scale = float(np.maximum(-lo, hi).max())
    if float((hi - lo).max()) <= 1e-12 * (1.0 + scale):
        raise SlopeGridError("attained slope range is degenerate")
    span = np.empty(d)
    for k, axis in enumerate(f.grid.axes()):
        used = np.flatnonzero(valid.any(axis=tuple(j for j in range(d) if j != k)))
        if used.size < 2:
            raise SlopeGridError(
                f"the one-cell interior is one node thick along axis {k}: "
                "no coordinate span to scale the slope range by")
        span[k] = axis[used[-1]] - axis[used[0]]
    spacing = float(((hi - lo) / span).max()) * f.grid.spacing
    if not spacing > 0:
        raise SlopeGridError(f"slope spacing must be positive, got {spacing}")
    shape = []
    origin = []
    for k in range(f.grid.dim):
        lo_node = int(np.floor(_snap(lo[k] / spacing))) - _SLOPE_MARGIN
        hi_node = int(np.ceil(_snap(hi[k] / spacing))) + _SLOPE_MARGIN
        while hi_node - lo_node + 1 < 5:
            lo_node -= 1
            hi_node += 1
        shape.append(hi_node - lo_node + 1)
        origin.append(lo_node * spacing)
    return GridSpec(f.grid.dim, tuple(shape), spacing, tuple(origin), None)


def _hull_transform(xs: np.ndarray, v: np.ndarray, ys: np.ndarray):
    """max_i (y * xs[i] - v[r, i]) and its maximizer i for every row r of v.

    xs strictly ascends and ys ascends; non-finite entries are missing. The
    finite entries are laid out row after row, each row closed by a NaN
    separator. Each peel round drops at once every entry j whose surviving
    neighbours p < j < q pass the monotone chain's test
    (v_j - v_p)(x_q - x_j) >= (v_q - v_j)(x_j - x_p), until none does (at
    most one round per entry): a test that reads a separator is false, so
    what survives are the lower hulls of the rows, without collinear points,
    and the separators. A slope equal to a breakpoint takes the left vertex,
    so an exact tie resolves to the smallest i; rows with no entry read
    their separator as a vertex at +inf: -inf and index 0. Returns (values,
    picks, rounds).
    """
    rows = v.shape[0]
    padded = np.full((rows, v.shape[1] + 1), np.nan)
    padded[:, :-1] = v
    take = np.isfinite(padded)
    take[:, -1] = True
    vs = padded[take]
    x = np.broadcast_to(np.append(xs, np.nan), padded.shape)[take]
    rounds = 0
    while True:
        rounds += 1
        drop = ((vs[1:-1] - vs[:-2]) * (x[2:] - x[1:-1])
                >= (vs[2:] - vs[1:-1]) * (x[1:-1] - x[:-2]))
        if not drop.any():
            break
        keep = np.concatenate(([True], ~drop, [True]))
        vs, x = vs[keep], x[keep]
    sep = np.isnan(x)
    r = np.cumsum(sep) - sep
    # slope y takes the hull vertex numbered #(breaks of its row below y)
    m = np.flatnonzero(~(sep[:-1] | sep[1:]))
    breaks = (vs[m + 1] - vs[m]) / (x[m + 1] - x[m])
    ny = ys.size
    hits = np.bincount(r[m] * (ny + 1) + np.searchsorted(ys, breaks, "right"),
                       minlength=rows * (ny + 1)).reshape(rows, ny + 1)
    size = np.bincount(r, minlength=rows)
    k = (np.cumsum(size) - size)[:, None] + np.cumsum(hits[:, :ny], axis=1)
    c = np.searchsorted(xs, x)
    c[sep], x[sep], vs[sep] = 0, 0.0, np.inf
    return ys * x[k] - vs[k], c[k], rounds


def _separable_sup(f: PotentialField, slopes: GridSpec, masks: np.ndarray):
    """Node suprema of y.x - f over each of the k stacked `masks`.

    max_x (y.x - f(x)) splits into nested 1-D maxima, innermost over the
    last axis; each pass is one `_hull_transform` call over every row of
    the previous pass's negated output, all k masks included. Returns
    (values of shape (k,) + slopes.shape, picks): picks[axis] is the grid
    index of x_axis that its pass maximized over, on the axes (k, grid
    axes below `axis`, slope axes from `axis` on). Values are -inf where a
    mask is empty.
    """
    d = f.grid.dim
    work = np.where(masks, f.values, np.inf)
    picks = [None] * d
    for axis in range(d - 1, -1, -1):
        rows = np.moveaxis(work if axis == d - 1 else -work, axis + 1, -1)
        flat = rows.reshape(-1, rows.shape[-1])
        out, pick, rounds = _hull_transform(f.grid.axes()[axis], flat,
                                            slopes.axes()[axis])
        logger.debug("hull pass, axis %d: %d rows of %d nodes, %d rounds",
                     axis, *flat.shape, rounds)
        shape = (*rows.shape[:-1], -1)
        work = np.moveaxis(out.reshape(shape), -1, axis + 1)
        picks[axis] = np.moveaxis(pick.reshape(shape), -1, axis + 1)
    return work, picks


def sup_with_argmax(f: PotentialField, slopes: GridSpec,
                    interior_cells: int = 1):
    """Node suprema of y.x - f over the mask, by the separable hull transform.

    Returns (values, argmax flat index into masked nodes in row-major order,
    interior values) where the interior values max only over the mask
    eroded by `interior_cells` (-inf where that leaves no node); their gap
    to `values` tells whether the sup is forced to the mask boundary.
    Each pass costs a sweep over the grid nodes per peel round plus one
    over the slope nodes. On an exact tie
    the argmax is the first maximizer in row-major order, the node
    `_sup_brute` picks; ties within round-off may resolve to either node.
    """
    masks = np.stack([f.mask, erode_mask(f.mask, interior_cells)])
    vals, picks = _separable_sup(f, slopes, masks)
    # the node over the full mask, read back through the passes: axis 0
    # picks x_0, then each later axis looks its pick up at those found
    ys = np.indices(slopes.shape)
    node = [picks[0][0]]
    for axis in range(1, f.grid.dim):
        node.append(picks[axis][(0, *node, *ys[axis:])])
    rank = np.cumsum(f.mask.reshape(-1)) - 1
    arg = rank[np.ravel_multi_index(tuple(node), f.grid.shape)]
    return vals[0].reshape(-1), arg.reshape(-1), vals[1].reshape(-1)


def _max_plus(ys: np.ndarray, xs: np.ndarray, fs: np.ndarray) -> np.ndarray:
    """max_j (ys[i].xs[j] - fs[j]) for every row i, in blocks of rows of
    about `_CHUNK_FLOATS` floats."""
    out = np.empty(len(ys))
    chunk = max(1, _CHUNK_FLOATS // max(1, len(xs)))
    for a in range(0, len(ys), chunk):
        w = ys[a:a + chunk] @ xs.T
        w -= fs
        out[a:a + chunk] = w.max(axis=1)
    return out


def _sup_brute(f: PotentialField, slopes: GridSpec, interior_cells: int = 1):
    """O(N*M) reference for `sup_with_argmax`, in chunks of slope nodes.

    Same returns; the argmax is numpy's first maximum in row-major order.
    """
    xs, fs = f.masked_points()
    inner = erode_mask(f.mask, interior_cells)[f.mask]
    ys = slopes.coords().reshape(-1, slopes.dim)
    m = ys.shape[0]
    vals = np.empty(m)
    arg = np.empty(m, dtype=np.int64)
    vals_in = np.full(m, -np.inf)
    has_inner = bool(inner.any())
    chunk = max(1, _CHUNK_FLOATS // max(1, xs.shape[0]))
    for a in range(0, m, chunk):
        b = min(a + chunk, m)
        w = ys[a:b] @ xs.T
        w -= fs[None, :]
        vals[a:b] = w.max(axis=1)
        arg[a:b] = w.argmax(axis=1)
        if has_inner:
            vals_in[a:b] = w[:, inner].max(axis=1)
    return vals, arg, vals_in


def conjugate_brute(f: PotentialField, slopes: GridSpec | None = None,
                    convexity_tol: float = _CONVEXITY_TOL) -> PotentialField:
    """Reference O(N^2) transform; raises on nonconvex input."""
    _require_convex(f, convexity_tol)
    if slopes is None:
        slopes = auto_slope_grid(f)
    xs, fs = f.masked_points()
    vals = _max_plus(slopes.coords().reshape(-1, slopes.dim), xs, fs)
    return PotentialField(slopes, vals.reshape(slopes.shape))


def conjugate_fast(f: PotentialField, slopes: GridSpec | None = None,
                   convexity_tol: float = _CONVEXITY_TOL) -> PotentialField:
    """Separable transform; values match `conjugate_brute` to 1e-12."""
    _require_convex(f, convexity_tol)
    if slopes is None:
        slopes = auto_slope_grid(f)
    vals, _ = _separable_sup(f, slopes, f.mask[None])
    return PotentialField(slopes, vals[0])


class _Jets(NamedTuple):
    """Local quartic Taylor models, one column of `cols` per node."""

    cols: np.ndarray        # one contiguous row per component, in the
                            # blocks of `_column_blocks`
    usable: np.ndarray      # rows with lam_min > _PSD_FLOOR
    reach: float            # max |x_ck| + h/2
    half: float             # h/2, the half-width of each node's box
    quartic: int = 0        # degree-4-exact rows (`_field_jets`)


def _column_blocks(cols: np.ndarray, d: int) -> list[np.ndarray]:
    """The blocks of `_Jets.cols` as views: g_c, H_c, packed t3 and t4,
    H_c^-1 (0 where not usable), x_c, f_c, lam_min h/2, 1/(2 lam_min) and
    c_c; H_c and H_c^-1 as their entries (i, j) of `symmetric_pairs`."""
    p = d * (d + 1) // 2
    sizes = [d, p, comb(d + 2, 3), comb(d + 3, 4), p, d, 1, 1, 1]
    return np.split(cols, np.cumsum(sizes))


def _model_jets(coords, values, grads, mats, tens3, tens4,
                half: float) -> _Jets:
    """Screen jet columns by `_PSD_FLOOR`; add inverses and bound terms.

    Inputs hold one row per component and one column per node: `mats`
    the entries of `symmetric_pairs`, `tens3` and `tens4` packed
    (`hessians.symmetric_slots`), each entry counting once per dense slot
    it fills. c_c = -f_c + tail_c + `_BOUND_SLACK` (1 + |f_c| + (h/2)
    sum|g_c|), with tail_c = (h/2)^3 sum|t3| / 6 + (h/2)^4 sum|t4| / 24.
    """
    d = len(coords)
    i, j = symmetric_pairs(d)
    dense = np.moveaxis(mats[symmetric_slots(d, 2)], -1, 0)
    lam_min = eigvals_sym(dense)[:, -1]
    usable = lam_min > _PSD_FLOOR
    adj, det = adjugate(dense[usable])
    inv = np.zeros_like(mats)
    inv[:, usable] = adj[:, i, j].T / det
    mult3, mult4 = (np.bincount(symmetric_slots(d, k).ravel()).astype(float)
                    for k in (3, 4))
    # node-major copies: BLAS sums the other layout in another order
    tail = (half**3 * (np.abs(tens3.T.copy()) @ mult3) / 6.0
            + half**4 * (np.abs(tens4.T.copy()) @ mult4) / 24.0)
    offset = -values + tail + _BOUND_SLACK * (
        1.0 + np.abs(values) + half * np.abs(grads).sum(axis=0))
    inv_2lam = np.divide(0.5, lam_min, out=np.zeros_like(lam_min),
                         where=usable)
    reach = float(np.abs(coords).max(initial=0.0)) + half
    cols = np.vstack([grads, mats, tens3, tens4, inv, coords, values,
                      lam_min * half, inv_2lam, offset])
    return _Jets(cols, usable, reach, half)


def _field_jets(f: PotentialField) -> tuple[_Jets, np.ndarray]:
    """Jet columns of `f`, one per one-cell-interior node in row-major
    order, and the grid padded by `_REFINE_WINDOW` cells holding each
    usable node's column (-1 elsewhere); degree-4-exact columns where the
    two-cell stencils fit, plain quadratic models (zero t3, t4) elsewhere."""
    d = f.grid.dim
    jet, quartic = fourth_order_jet(f)
    tens3, tens4 = taylor_tensors(f)
    inner = erode_mask(f.mask, 1)
    coords = np.stack([axis[k] for axis, k in zip(f.grid.axes(),
                                                  np.nonzero(inner))])
    jets = _model_jets(coords, f.values[inner], jet[:d], jet[d:], tens3,
                       tens4, f.grid.spacing / 2.0)
    rows = np.full(f.grid.shape, -1)
    rows[inner] = np.where(jets.usable, np.arange(jets.usable.size), -1)
    return (jets._replace(quartic=int(quartic.sum())),
            np.pad(rows, _REFINE_WINDOW, constant_values=-1))


def _slope_terms(jets: _Jets, ys: np.ndarray):
    """What `_box_bound` reads of slope rows `ys`: their coordinates as one
    contiguous row per axis, and the y-only slack term `_BOUND_SLACK` reach
    sum|y_k| of each row."""
    return (np.ascontiguousarray(ys.T),
            _BOUND_SLACK * jets.reach * np.abs(ys).sum(axis=1))


def _box_bound(jets: _Jets, yt: np.ndarray, slack: np.ndarray,
               sel: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Upper bound of the quartic model of y.x - f over each candidate's box.

    Candidate i pairs slope row `sel[i]` (a column of `yt` and an entry of
    `slack`, from `_slope_terms`) with jet row `rows[i]`. With s the step
    from x_c, |s_k| <= h/2 and H_c >= lam_min I, the model
    y.x_c - f_c + dy.s - s.H_c.s/2 - t3[s,s,s]/6 - t4[s,s,s,s]/24 with
    dy = y - g_c is at most its node value plus sum_k phi(|dy_k|) plus the
    precomputed tail, where phi(a) = max over |s| <= h/2 of a s - lam_min
    s^2/2 = (a^2 - max(a - lam_min h/2, 0)^2) / (2 lam_min), evaluated as
    m (2a - m) / (2 lam_min) with m = min(a, lam_min h/2), which cancels
    nothing. A relative slack of `_BOUND_SLACK` on the magnitude of the
    model's terms keeps round-off in either value from dropping a winner;
    its y-dependent part is `_BOUND_SLACK` reach sum|y_k|, never below
    sum|y_k| (|x_ck| + h/2). Each call reads the jet table one component
    row at a time, by 1-D takes, and sums the axes in order.
    """
    d = len(yt)
    blocks = _column_blocks(jets.cols, d)
    g, x = blocks[0], blocks[5]
    lam_half, inv_2lam, offset = (b[0] for b in blocks[7:])
    cap = np.take(lam_half, rows)
    dot = quad = None
    for k in range(d):
        y = np.take(yt[k], sel)
        a = np.take(g[k], rows)
        a -= y
        np.abs(a, out=a)
        m = np.minimum(a, cap)
        a *= 2.0
        a -= m
        a *= m
        y *= np.take(x[k], rows)
        if k == 0:
            dot, quad = y, a
        else:
            dot += y
            quad += a
    quad *= np.take(inv_2lam, rows)
    dot += quad
    dot += np.take(offset, rows)
    dot += np.take(slack, sel)
    return dot


@lru_cache(maxsize=None)
def _polish_tables(d: int):
    """Index tables of `_polish` in dimension d, over the symmetric pairs
    (i, j) of `symmetric_pairs`: `full[r, c]` is the pair of entry (r, c),
    `of3[a, l]` the packed t3 column of (i_a, j_a, l), `of4[a, b]` the
    packed t4 column of (i_a, j_a, i_b, j_b), and `cross` the pairs with
    i < j (read-only)."""
    i, j = symmetric_pairs(d)
    of3 = symmetric_slots(d, 3)[i, j]
    of4 = symmetric_slots(d, 4)[i, j][:, i, j]
    cross = np.flatnonzero(i < j)
    for table in (of3, of4, cross):
        table.flags.writeable = False
    return i, j, symmetric_slots(d, 2), of3, of4, cross


def _contract(a: np.ndarray, index: np.ndarray, v: np.ndarray) -> np.ndarray:
    """sum over c of a[index[:, c]] * v[c], candidate by candidate.

    `a` and `v` hold one row per component and one column per candidate;
    the sum runs in the order of c.
    """
    out = np.take(a, index[:, 0], axis=0)
    out *= v[0]
    term = np.empty_like(out)
    for c in range(1, len(v)):
        # with mode "clip" (the indices are in range) `take` writes into
        # `term` without a buffer
        np.take(a, index[:, c], axis=0, out=term, mode="clip")
        term *= v[c]
        out += term
    return out


def _sym_adjugate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(adj(M), det(M)) of symmetric 2x2 or 3x3 matrices given by their
    entries (i, j), i <= j (one row each), in closed form as in
    `eigen.adjugate`; adj(M) comes as its entries too."""
    if len(m) == 3:
        a, b, c = m
        return np.stack([c, -b, a]), a * c - b * b
    a, b, c, d, e, f = m
    adj = np.empty_like(m)
    for out, (p, q, r, s) in zip(adj, ((d, f, e, e), (e, c, f, b),
                                       (b, e, c, d), (f, a, c, c),
                                       (c, b, a, e), (a, d, b, b))):
        np.multiply(p, q, out=out)
        out -= r * s
    det = a * adj[0]
    det += b * adj[1]
    det += c * adj[2]
    return adj, det


def _polish(jets: _Jets, ys: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Maximum of each candidate's quartic model of y.x - f over its box.

    A quadratic-model step clamped to the half-cell box, then three Newton
    steps with the cubic and quartic terms, each clamped again; exact
    polynomial inputs converge to round-off. With t3s = t3.s and t4ss =
    t4.s.s, the gradient is dy - (H + t3s/2 + t4ss/6) s and the Jacobian
    J = H + t3s + t4ss/2; each step solves J delta = gradient as
    adj(J) gradient / det(J), or takes H^-1 gradient where det(J) <= 1e-14.

    The gathered jet columns hold one row per component and one column
    per candidate, and every operation is elementwise over candidates, so
    a candidate's value does not depend on the others in the call. t3s
    and t4ss come straight from the packed tensors, as symmetric entries:
    t3s_ij sums t3_ijl s_l, and t4ss_ij sums t4_ijlm q_lm over the pairs
    l <= m, with q_lm = s_l s_m doubled where l < m.
    """
    d = ys.shape[1]
    i, j, full, of3, of4, cross = _polish_tables(d)
    blocks = _column_blocks(jets.cols, d)
    g, h, t3, t4 = (np.take(b, rows, axis=1) for b in blocks[:4])
    inv, x, f = blocks[4:7]
    half = jets.half
    y = ys.T
    dy = y - g

    def taylor_terms(s):
        q = np.take(s, i, axis=0)
        q *= np.take(s, j, axis=0)
        q[cross] *= 2.0
        return _contract(t3, of3, s), _contract(t4, of4, q)

    def newton_step(s):
        t3s, t4ss = taylor_terms(s)
        # the gradient dy - (H + t3s/2 + t4ss/6) s, then the Jacobian in
        # place over t3s; each block is dropped once read, which keeps 3-D
        # calls to about 64 floats per candidate instead of 74
        curv = t3s / 2.0
        curv += h
        curv += t4ss / 6.0
        resid = _contract(curv, full, s)
        np.subtract(dy, resid, out=resid)
        del curv
        t3s += h
        t4ss *= 0.5
        t3s += t4ss
        del t4ss
        adj, det = _sym_adjugate(t3s)
        del t3s
        good = det > 1e-14
        delta = _contract(adj, full, resid)
        delta /= np.where(good, det, 1.0)
        if not good.all():
            bad = np.flatnonzero(~good)
            delta[:, bad] = _contract(np.take(inv, rows[bad], axis=1), full,
                                      resid[:, bad])
        return delta

    step = _contract(np.take(inv, rows, axis=1), full, dy)
    np.clip(step, -half, half, out=step)
    for _ in range(3):
        step += newton_step(step)
        np.clip(step, -half, half, out=step)
    t3s, t4ss = taylor_terms(step)
    quad = h / 2.0
    quad += t3s / 6.0
    quad += t4ss / 24.0
    quad = _contract(quad, full, step)
    quad += g
    quad *= step
    terms = np.take(x, rows, axis=1)
    terms += step
    terms *= y
    terms -= quad
    value = terms[0] + terms[1]
    for k in range(2, d):
        value += terms[k]
    value -= np.take(f[0], rows)
    return value


def _refine_rows(jets: _Jets, lookup: np.ndarray, rings: list[np.ndarray],
                 anchors: np.ndarray, ys: np.ndarray,
                 best: np.ndarray) -> list[tuple[int, int]]:
    """Raise `best` in place to the polished maxima of its slope rows.

    `anchors` are the rows' node argmaxes as flat indices into the flat
    padded `lookup`, and `rings` the flat offsets of each ring. Only the
    rows given are polished. Every offset of a ring is screened against
    `best` as it stood when the ring started, in blocks of
    `_SCREEN_PAIRS // len(anchors)` offsets: one lookup take and one bound
    per block, in offset-major order, which is the order of the candidates
    offset by offset. The candidates that pass are polished in calls of at
    most `_POLISH_ROWS` and folded in by `np.maximum.at`. The slope terms
    of the bound are formed once for all offsets. Returns the number of
    candidates screened and passed, ring by ring.
    """
    n = len(anchors)
    if not n:
        return [(0, 0)] * len(rings)
    yt, slack = _slope_terms(jets, ys)
    per = max(1, _SCREEN_PAIRS // n)
    counts = []
    for ring in rings:
        sels, cands = [], []
        screened = 0
        for a in range(0, ring.size, per):
            rows = np.take(lookup, (ring[a:a + per, None] + anchors).ravel())
            sel = np.flatnonzero(rows >= 0)
            rows = np.take(rows, sel)
            sel %= n
            screened += sel.size
            live = np.flatnonzero(_box_bound(jets, yt, slack, sel, rows)
                                  >= np.take(best, sel))
            sels.append(np.take(sel, live))
            cands.append(np.take(rows, live))
        sel = np.concatenate(sels)
        rows = np.concatenate(cands)
        counts.append((screened, sel.size))
        for a in range(0, sel.size, _POLISH_ROWS):
            part = sel[a:a + _POLISH_ROWS]
            np.maximum.at(best, part,
                          _polish(jets, ys[part], rows[a:a + _POLISH_ROWS]))
    return counts


def refined_sup(f: PotentialField, slopes: GridSpec, *,
                attained_only: bool = False):
    """Sup of y.x - f over local quartic Taylor-model node maxima.

    Around each slope node's node argmax, every interior node within
    `_REFINE_WINDOW` cells whose Hessian exceeds `_PSD_FLOOR` contributes
    the maximum of its local quartic Taylor model over its own half-cell
    box (`_polish`). Exact on polynomial fields of degree four, where plain
    node suprema carry quantization ripple whose repeated second
    differences do not vanish.

    Every slope row is polished by default. With `attained_only` only the
    rows whose node sup is attained inside the mask (`_attained_inside`)
    are, and every other row keeps its node sup; a row's polish reads only
    its own candidates and its own node sup, so the polished rows get the
    same bits either way.

    Candidates are visited ring by ring (infinity norm 0, 1, 2 of the
    offset), and one is polished only if the upper bound of its model over
    the box (`_box_bound`) reaches the best value found before its ring; a
    maximum does not depend on the order of its terms, and a candidate's
    polish not on the call it shares, so neither the pruning nor the size
    of the polish calls changes an output bit. Returns (values, argmax,
    interior node values, node values); attainment tests must compare the
    last two (refined values exceed node suprema off the lattice).
    """
    vals, arg, vals_in = sup_with_argmax(f, slopes)
    jets, lookup = _field_jets(f)
    # flat index of each slope row's anchor in the padded lookup, and the
    # flat step of each offset
    anchors = np.flatnonzero(np.pad(f.mask, _REFINE_WINDOW))[arg]
    window = range(-_REFINE_WINDOW, _REFINE_WINDOW + 1)
    offsets = np.array(list(product(window, repeat=f.grid.dim)))
    steps = offsets @ (np.array(lookup.strides) // lookup.itemsize)
    ring = np.abs(offsets).max(axis=1)
    rings = [steps[ring == r] for r in range(_REFINE_WINDOW + 1)]
    ys = slopes.coords().reshape(-1, f.grid.dim)
    live = (np.flatnonzero(_attained_inside(vals, vals_in)) if attained_only
            else np.arange(vals.size))
    part = vals[live]
    counts = _refine_rows(jets, lookup.ravel(), rings, anchors[live],
                          ys[live], part)
    best = vals.copy()
    best[live] = part
    logger.debug("refined_sup: %d of %d slope rows polished; jet rows: %d "
                 "one-cell interior, %d degree-4, %d usable; candidates "
                 "(screened, passed) by ring: %s", live.size, best.size,
                 jets.usable.size, jets.quartic, int(jets.usable.sum()),
                 counts)
    return best, arg, vals_in, vals


@dataclass
class SlopeSet:
    """Discrete subdifferential: slope nodes nearly attaining Fenchel equality."""

    anchor: np.ndarray
    members: np.ndarray  # (k, dim)
    tolerance: float

    def __post_init__(self):
        self.anchor = np.asarray(self.anchor, dtype=float)
        self.members = np.asarray(self.members, dtype=float).reshape(
            -1, self.anchor.size
        )
        if len(self.members) == 0:
            raise ConvexityError(
                "internal error: empty subdifferential for convex input"
            )


@dataclass
class DomainMask:
    """Slope nodes where the sup is attained away from the mask boundary."""

    slope_grid: GridSpec
    inside: np.ndarray

    def __post_init__(self):
        self.inside = np.asarray(self.inside, dtype=bool)
        if not self.inside.any():
            raise SlopeGridError("slope domain is empty")


def _locate_node(f: PotentialField, point) -> tuple[int, ...]:
    if len(point) != f.grid.dim:
        raise GridError(f"point {tuple(point)} has {len(point)} coordinates, "
                        f"the field is {f.grid.dim}-D")
    idx = f.grid.nearest_node(point)
    x = f.grid.node_coords(idx)
    if np.abs(x - np.asarray(point, dtype=float)).max() > 1e-9 * (1 + np.abs(x).max()):
        raise ConvexityError(f"point {tuple(point)} is not a grid node")
    if not f.mask[idx]:
        raise ConvexityError(f"point {tuple(point)} is outside the mask")
    return idx


def _lipschitz_at(f: PotentialField, idx: tuple[int, ...]) -> float:
    h = f.grid.spacing
    best = 0.0
    for k in range(f.grid.dim):
        for s in (-1, 1):
            j = list(idx)
            j[k] += s
            if 0 <= j[k] < f.grid.shape[k] and f.mask[tuple(j)]:
                best = max(best, abs(f.values[tuple(j)] - f.values[idx]) / h)
    return best


def _slope_coords(star: PotentialField) -> np.ndarray:
    """Coordinates of the slope nodes of `star`, one row per node."""
    return star.grid.coords().reshape(-1, star.grid.dim)


def _fenchel_gap(f: PotentialField, star: PotentialField, ys: np.ndarray, a):
    """f(a) + f*(y) - y.a at every slope node y of the transform `star`;
    `ys` is `_slope_coords(star)`."""
    idx = _locate_node(f, a)
    anchor = f.grid.node_coords(idx)
    gap = f.values[idx] + star.values.reshape(-1) - ys @ anchor
    return idx, anchor, gap


def subdifferential(f: PotentialField, a, tol: float | None = None) -> SlopeSet:
    """Slope nodes y with f(a) + f*(y) - y.a <= tol.

    The default tol = 2h(1 + local Lipschitz estimate) guarantees a nonempty
    result on any auto-sized slope grid; pass a tighter tolerance to localize
    smooth-point gradients. An explicit tol below every slope node's gap
    raises ValueError.
    """
    if tol is not None:
        _require_tolerance("tol", tol)
    star = conjugate_fast(f)
    ys = _slope_coords(star)
    idx, anchor, gap = _fenchel_gap(f, star, ys, a)
    if tol is None:
        tol = 2.0 * f.grid.spacing * (1.0 + _lipschitz_at(f, idx))
    elif not (gap <= tol).any():
        raise ValueError(f"tol {tol:.6g} leaves no slope node: the smallest "
                         f"Fenchel gap is {float(gap.min()):.6g}")
    members = ys[gap <= tol]
    return SlopeSet(anchor=anchor, members=members, tolerance=float(tol))


def tight_subdifferential(f: PotentialField, a,
                          slopes: GridSpec | None = None) -> SlopeSet:
    """Argmin-localized subdifferential: gap <= min gap + O(h^2) slack.

    The fixed default tolerance makes member sets curvature-dependent
    sublevel blobs of radius O(sqrt(h)); set comparisons (sum rule, ball
    inclusions) need the gap minimizer neighborhood instead. Exact kinks
    (gap identically zero on the subdifferential) are unaffected.
    """
    star = conjugate_fast(f, slopes)
    return _tight_members(f, star, _slope_coords(star), a)


def _tight_members(f: PotentialField, star: PotentialField, ys: np.ndarray,
                   a) -> SlopeSet:
    """`tight_subdifferential` at `a` from a precomputed transform `star` and
    its `_slope_coords` `ys`, which every anchor of one transform shares."""
    idx, anchor, gap = _fenchel_gap(f, star, ys, a)
    # a quarter of the one-cell gap increment keeps smooth-point sets at the
    # argmin node; exact kink plateaus (gap == 0) are kept whole
    h = f.grid.spacing
    scale = 1.0 + abs(float(f.values[idx]))
    slack = 0.25 * (1.0 + _lipschitz_at(f, idx)) * h * h + 1e-12 * scale
    cut = float(gap.min()) + slack
    members = ys[gap <= cut]
    return SlopeSet(anchor=anchor, members=members, tolerance=float(cut))


def _attained_inside(node_vals: np.ndarray, vals_in: np.ndarray) -> np.ndarray:
    """Where interior values reach node suprema up to the `_TIE_TOL` tie."""
    return vals_in >= node_vals - _TIE_TOL * (1.0 + np.abs(node_vals))


def slope_domain(f: PotentialField) -> DomainMask:
    """Slope nodes whose sup is attained at an interior node of the mask."""
    _require_convex(f)
    slopes = auto_slope_grid(f)
    vals, _, vals_in = sup_with_argmax(f, slopes)
    return DomainMask(slopes, _attained_inside(vals, vals_in).reshape(slopes.shape))


def _hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    d2 = ((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=-1)
    forward = np.sqrt(d2.min(axis=1)).max()
    backward = np.sqrt(d2.min(axis=0)).max()
    return float(max(forward, backward))


def check_sum_rule(v: PotentialField, kappa: float, samples) -> AuditReport:
    """Subdifferential sum rule against the quadratic Q = kappa/2 |x|^2.

    At each sample point a, the Hausdorff distance between the (tight)
    subdifferential of v + Q and the kappa*a translate of the tight
    subdifferential of v must be at most two slope cells plus
    `_SUM_RULE_TOL`.
    """
    if kappa <= 0:
        raise ValueError("kappa must be positive")
    coords = v.grid.coords()
    q = 0.5 * kappa * np.sum(coords**2, axis=-1)
    vq = v.with_values(v.values + q)
    star_sum = conjugate_fast(vq, auto_slope_grid(vq))
    star_v = conjugate_fast(v, auto_slope_grid(v))
    ys_sum, ys_v = _slope_coords(star_sum), _slope_coords(star_v)
    allowance = (2.0 * max(star_sum.grid.spacing, star_v.grid.spacing)
                 + _SUM_RULE_TOL)
    samples = list(samples)
    violations = []
    min_margin = np.inf
    worst = (None, -np.inf)
    for a in samples:
        s_sum = _tight_members(vq, star_sum, ys_sum, a)
        s_v = _tight_members(v, star_v, ys_v, a)
        dist = _hausdorff(s_sum.members, s_v.members + kappa * s_sum.anchor)
        margin = allowance - dist
        min_margin = min(min_margin, margin)
        node = v.grid.nearest_node(a)
        if margin < 0:
            violations.append((node, "hausdorff_distance", dist))
        if dist > worst[1]:
            worst = (tuple(float(x) for x in s_sum.anchor), dist)
    violations.sort(key=lambda t: t[0])
    return AuditReport(
        name="sum-rule",
        checked_nodes=len(samples),
        violations=violations,
        min_margin=float(min_margin),
        details={"worst_point": worst[0], "worst_distance": worst[1],
                 "allowance": allowance},
    )


def check_slope_increase(f: PotentialField, s_delta: float, samples) -> AuditReport:
    """Ball inclusion of the slope domain around sampled subdifferentials.

    For each sample a, the slope-domain mask must contain the ball of radius
    s_delta * (R - |a|) - 2h around every member of the subdifferential at a.
    Uncovered nodes adjacent to the domain boundary are flagged in details
    (not violations); deeper uncovered nodes fail the audit. min_margin is
    the smallest verified ball radius.
    """
    mod = semiconvexity_modulus(f)
    if mod < s_delta - _MODULUS_TOL:
        raise ConvexityError(
            f"field is not {s_delta:.3g}-uniformly convex", modulus=mod
        )
    radius = f.grid.ball_radius if f.grid.ball_radius is not None else 0.0
    h = f.grid.spacing
    dm = slope_domain(f)
    slopes = dm.slope_grid
    star = conjugate_fast(f, slopes)
    ys = _slope_coords(star)
    inside_flat = dm.inside.reshape(-1)
    near_rim = (~dm.inside & dilate_mask(dm.inside)).reshape(-1)
    violations = []
    rim_flags = 0
    checked = 0
    min_margin = np.inf
    for a in samples:
        a = np.asarray(a, dtype=float)
        r = s_delta * (radius - float(np.linalg.norm(a))) - 2.0 * h
        if r <= 0:
            continue
        min_margin = min(min_margin, r)
        sd = _tight_members(f, star, ys, a)
        for member in sd.members:
            dist = np.linalg.norm(ys - member, axis=1)
            required = dist <= r
            checked += int(required.sum())
            uncovered = required & ~inside_flat
            rim_flags += int((uncovered & near_rim).sum())
            deep = np.flatnonzero(uncovered & ~near_rim)
            violations.extend(
                (tuple(int(i) for i in node), "uncovered_slope", float(r))
                for node, r in zip(
                    np.transpose(np.unravel_index(deep, slopes.shape)),
                    dist[deep])
            )
    violations.sort(key=lambda t: t[0])
    return AuditReport(
        name="slope-increase",
        checked_nodes=checked,
        violations=violations,
        min_margin=float(min_margin),
        details={"rim_flagged": rim_flags},
    )
