"""Legendre-Fenchel transforms, subdifferentials, slope domains, sum rule."""

import math
from itertools import combinations_with_replacement, permutations, product
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from slag_lab import (
    ConvexityError,
    GridSpec,
    check_slope_increase,
    check_sum_rule,
    conjugate_brute,
    conjugate_fast,
    sample_potential,
    slope_domain,
    subdifferential,
)
from slag_lab import conjugate
from slag_lab.conjugate import (
    _REFINE_WINDOW,
    SlopeSet,
    _box_bound,
    _column_blocks,
    _field_jets,
    _hull_transform,
    _model_jets,
    _polish,
    _slope_terms,
    _sup_brute,
    _tight_members,
    auto_slope_grid,
    refined_sup,
    sup_with_argmax,
)
from slag_lab.fields import PotentialField, connected_components, erode_mask
from slag_lab.formulas import (
    iso_quad,
    max_affine,
    norm,
    quad_form,
    quartic,
    random_max_affine,
    random_spd_matrix,
)
from slag_lab.eigen import adjugate
from slag_lab.errors import GridError
from slag_lab.hessians import (
    _combine,
    _corners,
    _pure,
    directional_convexity_deficit,
    gradient_field,
    hessian_matrices,
    symmetric_pairs,
    symmetric_slots,
)

from conftest import nan_shift


def attained_interior(f, star_grid):
    """Slope nodes whose sup lands strictly inside the mask (test helper)."""
    vals, _, vals_in = sup_with_argmax(f, star_grid)
    return (vals_in >= vals - 1e-12 * (1 + np.abs(vals))).reshape(star_grid.shape)


class TestConjugateBrute:
    def test_self_conjugate_quadratic(self, grid65):
        u = sample_potential(iso_quad(1.0), grid65)
        star = conjugate_brute(u)
        ys = star.grid.coords()
        inside = attained_interior(u, star.grid)
        expected = 0.5 * np.sum(ys * ys, axis=-1)
        assert np.abs(star.values[inside] - expected[inside]).max() < 1e-12

    def test_kappa_four_section(self, grid65):
        # f = 2|x|^2 has conjugate |y|^2 / 8 on attained slopes
        u = sample_potential(iso_quad(4.0), grid65)
        star = conjugate_brute(u)
        ys = star.grid.coords()
        inside = attained_interior(u, star.grid)
        expected = np.sum(ys * ys, axis=-1) / 8.0
        assert np.abs(star.values[inside] - expected[inside]).max() < 1e-12

    def test_norm_conjugate_vanishes_on_unit_ball(self, grid65):
        u = sample_potential(norm, grid65)
        star = conjugate_brute(u)
        ys = star.grid.coords()
        r = np.sqrt(np.sum(ys * ys, axis=-1))
        # dot-product round-off admits one ulp above zero
        assert np.abs(star.values[r <= 1.0]).max() <= 1e-15

    def test_rejects_nonconvex_with_worst_node(self, grid65):
        u = sample_potential(quad_form([[1.0, 0.0], [0.0, -0.5]]), grid65)
        with pytest.raises(ConvexityError) as err:
            conjugate_brute(u)
        assert err.value.node is not None
        assert err.value.modulus == pytest.approx(-0.5, abs=1e-9)

    @pytest.mark.parametrize("transform", [conjugate_brute, conjugate_fast])
    @pytest.mark.parametrize("tol", [np.nan, np.inf, -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, grid65,
                                                      transform, tol):
        # a NaN or infinite tolerance would let a concave field through
        u = sample_potential(iso_quad(-2.0), grid65)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            transform(u, convexity_tol=tol)

    def test_accepts_kinked_convex_input(self, grid65):
        # creases make the assembled FD Hessian indefinite; the directional
        # convexity check must still accept the field
        rng = np.random.default_rng(3)
        u = sample_potential(random_max_affine(rng, 2, 5), grid65)
        conjugate_brute(u)


class TestConjugateFast:
    def test_matches_brute_on_named_examples(self, grid65):
        for formula in (iso_quad(1.0), iso_quad(4.0), norm):
            u = sample_potential(formula, grid65)
            slopes = auto_slope_grid(u)
            a = conjugate_brute(u, slopes)
            b = conjugate_fast(u, slopes)
            tol = 1e-12 * (1.0 + np.abs(a.values))
            assert np.all(np.abs(a.values - b.values) <= tol)

    def test_matches_brute_on_random_quadratics(self, rng):
        grid = GridSpec.ball_box(2, 65)
        for _ in range(3):
            u = sample_potential(quad_form(random_spd_matrix(rng, 2)), grid)
            slopes = auto_slope_grid(u)
            a = conjugate_brute(u, slopes)
            b = conjugate_fast(u, slopes)
            tol = 1e-12 * (1.0 + np.abs(a.values))
            assert np.all(np.abs(a.values - b.values) <= tol)

    def test_matches_brute_on_max_affine(self, rng):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(random_max_affine(rng, 2, 5), grid)
        slopes = auto_slope_grid(u)
        a = conjugate_brute(u, slopes)
        b = conjugate_fast(u, slopes)
        tol = 1e-12 * (1.0 + np.abs(a.values))
        assert np.all(np.abs(a.values - b.values) <= tol)

    def test_matches_brute_in_3d(self, rng):
        grid = GridSpec.ball_box(3, 17)
        u = sample_potential(quad_form(random_spd_matrix(rng, 3)), grid)
        slopes = auto_slope_grid(u)
        a = conjugate_brute(u, slopes)
        b = conjugate_fast(u, slopes)
        tol = 1e-12 * (1.0 + np.abs(a.values))
        assert np.all(np.abs(a.values - b.values) <= tol)


def _random_masked_field(seed, dim, one_node):
    """Random values on a random face-connected mask of a small box grid.

    The mask is the largest component of a Bernoulli field inside a random
    sub-box, so rows have holes and whole rows and sections are empty."""
    rng = np.random.default_rng(seed)
    shape = tuple(int(n) for n in rng.integers(3, 12 if dim == 2 else 7, size=dim))
    grid = GridSpec(dim, shape, float(rng.uniform(0.05, 0.5)),
                    tuple(rng.uniform(-1.0, 0.0, size=dim)), None)
    mask = np.zeros(shape, dtype=bool)
    if one_node:
        mask[tuple(int(rng.integers(n)) for n in shape)] = True
    else:
        lo = [int(rng.integers(n - 1)) for n in shape]
        hi = [int(rng.integers(a + 1, n + 1)) for a, n in zip(lo, shape)]
        box = tuple(slice(a, b) for a, b in zip(lo, hi))
        mask[box] = rng.random(mask[box].shape) < rng.uniform(0.5, 1.0)
        if not mask.any():
            mask[tuple(lo)] = True
        labels, count = ndimage.label(
            mask, structure=ndimage.generate_binary_structure(dim, 1))
        sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
        mask = labels == 1 + int(np.argmax(sizes))
    values = np.where(mask, rng.uniform(-1.0, 1.0, size=shape), np.nan)
    slope_shape = tuple(int(n) for n in rng.integers(3, 9, size=dim))
    slopes = GridSpec(dim, slope_shape, float(rng.uniform(0.1, 1.0)),
                      tuple(rng.uniform(-3.0, 0.0, size=dim)), None)
    return PotentialField(grid, values, mask), slopes


class TestSupKernelOracle:
    """The separable hull kernel against the O(N*M) brute sup."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           one_node=st.booleans())
    def test_matches_brute_on_random_masks(self, seed, dim, one_node):
        f, slopes = _random_masked_field(seed, dim, one_node)
        vals, arg, vals_in = sup_with_argmax(f, slopes)
        ref, _, ref_in = _sup_brute(f, slopes)
        assert np.all(np.abs(vals - ref) <= 1e-12 * (1.0 + np.abs(ref)))
        assert np.array_equal(np.isneginf(vals_in), np.isneginf(ref_in))
        fin = np.isfinite(ref_in)
        assert np.all(np.abs(vals_in[fin] - ref_in[fin])
                      <= 1e-12 * (1.0 + np.abs(ref_in[fin])))
        xs, fs = f.masked_points()
        assert arg.dtype.kind == "i"
        assert np.all((arg >= 0) & (arg < len(fs)))
        ys = slopes.coords().reshape(-1, f.grid.dim)
        attained = np.einsum("ij,ij->i", ys, xs[arg]) - fs[arg]
        assert np.all(np.abs(attained - vals) <= 1e-14 * (1.0 + np.abs(vals)))
        # the values-only reference takes the same maxima of the same blocks;
        # random values are not convex, so its convexity gate is bypassed
        with mock.patch.object(conjugate, "_require_convex"):
            star = conjugate_brute(f, slopes)
        assert np.array_equal(star.values.reshape(-1), ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_ties_take_the_first_node_in_row_major_order(self, dim):
        # dyadic affine data make every product and difference exact, so
        # slope nodes with y_k = p_k tie exactly along axis k and y = p ties
        # at every masked node; the kernel must pick brute's first maximum
        p = np.array([0.5, -0.25, 0.75][:dim])
        grid = GridSpec(dim, (6,) * dim, 0.25, (-0.5,) * dim, None)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[(slice(1, 5),) * dim] = True
        f = PotentialField(grid, grid.coords() @ p + 0.125, mask)
        slopes = GridSpec(dim, (5,) * dim, 0.25, tuple(p - 0.5), None)
        vals, arg, _ = sup_with_argmax(f, slopes)
        ref, ref_arg, _ = _sup_brute(f, slopes)
        assert np.array_equal(vals, ref)
        assert np.array_equal(arg, ref_arg)
        centre = np.ravel_multi_index((2,) * dim, slopes.shape)
        xs, fs = f.masked_points()
        assert np.all(xs @ p - fs == vals[centre])
        assert arg[centre] == 0


@pytest.mark.parametrize("dim,nodes", [(2, 33), (3, 17)])
@pytest.mark.parametrize("rows", [2, 7, 64])
def test_brute_values_do_not_depend_on_the_chunk(dim, nodes, rows,
                                                  monkeypatch):
    # dyadic data make every product and sum exact, so the bits cannot
    # depend on how BLAS tiles a block (OpenBLAS mixes fused and unfused
    # multiply-adds across tiles) and the comparison sees the chunk loop
    grid = GridSpec.ball_box(dim, nodes)
    f = sample_potential(quartic(1.0), grid)
    slopes = GridSpec(dim, (13,) * dim, 0.125, (-0.75,) * dim, None)
    monkeypatch.setattr(conjugate, "_CHUNK_FLOATS", 10**12)
    one = conjugate_brute(f, slopes).values
    masked = int(f.mask.sum())
    assert slopes.n_nodes() % rows and slopes.n_nodes() > rows
    monkeypatch.setattr(conjugate, "_CHUNK_FLOATS", rows * masked)
    assert np.array_equal(conjugate_brute(f, slopes).values, one)


def _hull_transform_1d(xs, vs, ys):
    """max_i (y * xs[i] - vs[i]) and its maximizer i, for ascending xs and ys.

    The per-row reference for the batched kernel: a monotone-chain lower
    hull followed by a searchsorted merge against the hull's breakpoint
    slopes. Collinear points leave the hull and a slope equal to a
    breakpoint takes the left vertex, so an exact tie resolves to the
    smallest i.
    """
    x = xs.tolist()
    v = vs.tolist()
    hull: list[int] = []
    for i in range(len(x)):
        while len(hull) >= 2 and (
            (v[hull[-1]] - v[hull[-2]]) * (x[i] - x[hull[-1]])
            >= (v[i] - v[hull[-1]]) * (x[hull[-1]] - x[hull[-2]])
        ):
            hull.pop()
        hull.append(i)
    k = np.array(hull)
    if len(k) == 1:
        pick = np.full(ys.size, k[0])
    else:
        breaks = np.diff(vs[k]) / np.diff(xs[k])
        pick = k[np.searchsorted(breaks, ys, side="left")]
    return ys * xs[pick] - vs[pick], pick


def _reference_rows(xs, rows, ys):
    """`_hull_transform_1d` row by row over the finite entries of `rows`."""
    out = np.full((rows.shape[0], ys.size), -np.inf)
    pick = np.zeros((rows.shape[0], ys.size), dtype=np.intp)
    for r, row in enumerate(rows):
        ok = np.flatnonzero(np.isfinite(row))
        if ok.size:
            out[r], j = _hull_transform_1d(xs[ok], row[ok], ys)
            pick[r] = ok[j]
    return out, pick


def _assert_matches_reference(xs, rows, ys):
    """The batched kernel equals the per-row reference bit for bit."""
    out, pick, rounds = _hull_transform(xs, rows, ys)
    ref, ref_pick = _reference_rows(xs, rows, ys)
    assert np.array_equal(out, ref)
    assert pick.dtype == ref_pick.dtype
    assert np.array_equal(pick, ref_pick)
    assert 1 <= rounds <= rows.shape[1]
    return out, pick, rounds


class TestBatchedHullKernel:
    """The row-batched peel against the per-row monotone chain it replaced."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           one_node=st.booleans())
    def test_every_pass_equals_the_row_loop(self, seed, dim, one_node):
        f, slopes = _random_masked_field(seed, dim, one_node)
        passes = []

        def checked(xs, rows, ys):
            passes.append(rows.shape)
            return _assert_matches_reference(xs, rows, ys)

        with mock.patch.object(conjugate, "_hull_transform", checked):
            sup_with_argmax(f, slopes)
        # one call per axis, both masks stacked in its rows
        assert len(passes) == dim
        assert passes[0][0] == 2 * math.prod(f.grid.shape[:-1])

    def test_empty_and_one_entry_rows(self):
        xs = np.linspace(-1.0, 1.0, 7)
        ys = np.linspace(-3.0, 3.0, 9)
        rows = np.full((9, 7), np.inf)
        rows[1, :] = np.nan
        for j in range(7):
            rows[2 + j, j] = 0.1 * j - 0.3
        out, pick, _ = _assert_matches_reference(xs, rows, ys)
        assert np.all(np.isneginf(out[:2])) and not pick[:2].any()
        assert np.all(pick[2:] == np.arange(7)[:, None])
        _assert_matches_reference(xs, np.full((3, 7), np.inf), ys)

    def test_dyadic_collinear_runs_tie_exactly(self):
        # exact arithmetic throughout: interior points of each run are
        # collinear and leave the hull, and slopes at a breakpoint tie
        xs = np.arange(-8, 9) * 0.125
        ys = np.arange(-8, 9) * 0.25
        kinked = np.maximum(0.5 * xs + 0.25, -0.75 * xs)
        rows = np.stack([0.5 * xs + 0.25, kinked, np.abs(xs),
                         np.where(np.arange(17) % 3 == 1, np.inf, kinked)])
        out, pick, _ = _assert_matches_reference(xs, rows, ys)
        # y = 0.5 ties along the whole first row: the smallest i wins
        assert np.all(pick[0, ys <= 0.5] == 0)
        assert np.all(pick[0, ys > 0.5] == 16)

    def test_nonconvex_rows_of_a_second_pass(self, rng):
        # the second pass transforms negated first-pass output across rows,
        # which is neither convex nor complete
        xs = np.linspace(-1.0, 1.0, 13)
        ys = np.linspace(-2.0, 2.0, 11)
        first = rng.uniform(-1.0, 1.0, size=(13, 13))
        first[rng.random(first.shape) < 0.3] = np.inf
        first[4] = np.inf
        a, _ = _reference_rows(xs, first, ys)
        rows = -a.T
        assert np.isinf(rows).any()
        _assert_matches_reference(xs, rows, ys)
        _assert_matches_reference(xs, np.stack([-xs**2, np.sin(9 * xs)]), ys)

    def test_a_peel_of_many_rounds(self):
        # each round drops only the last parabola point before the low end
        n = 40
        xs = np.arange(n, dtype=float)
        row = xs**2
        row[-1] = -1000.0
        ys = np.linspace(-50.0, 80.0, 27)
        _, _, rounds = _assert_matches_reference(xs, row[None], ys)
        assert rounds == n - 1


def _reference_candidates(f, jets, anchors, offset):
    """Slope rows whose anchor + offset is a usable node, and its jet row.

    Plain grid indices with explicit bounds checks, independent of the
    padded lookup of `refined_sup`: jet rows number the one-cell interior
    in row-major order."""
    inner = erode_mask(f.mask, 1)
    row_of = np.full(f.grid.shape, -1)
    row_of[inner] = np.arange(int(inner.sum()))
    cand = anchors + np.array(offset)
    sel = np.flatnonzero(np.all((cand >= 0) & (cand < f.grid.shape), axis=1))
    rows = row_of[tuple(cand[sel].T)]
    sel, rows = sel[rows >= 0], rows[rows >= 0]
    keep = jets.usable[rows]
    return sel[keep], rows[keep]


def _unpruned_refined_values(f, slopes):
    """`refined_sup` values with every offset polished and no bound."""
    vals, arg, _ = sup_with_argmax(f, slopes)
    jets, _ = _field_jets(f)
    anchors = np.argwhere(f.mask)[arg]
    ys = slopes.coords().reshape(-1, f.grid.dim)
    best = vals.copy()
    window = range(-_REFINE_WINDOW, _REFINE_WINDOW + 1)
    for offset in product(window, repeat=f.grid.dim):
        sel, rows = _reference_candidates(f, jets, anchors, offset)
        if sel.size:
            best[sel] = np.maximum(best[sel], _polish(jets, ys[sel], rows))
    return best


def _random_convex_field(seed, dim, box=False):
    """Smooth uniformly convex field on a ball cut by a plane and a hole.

    A quadratic, a quartic, a softplus ridge and an affine part, so the
    polish is neither exact nor trivial; the cuts give the mask non-convex
    rims, where candidates fall on the quadratic rim jets. With `box` the
    mask is the whole grid instead, so anchors lie on its faces and some
    candidate offsets leave it."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(17, 30) if dim == 2 else rng.integers(15, 18))
    radius = float(rng.uniform(0.5, 2.0))
    grid = GridSpec.ball_box(dim, nodes, radius)
    x = grid.coords()
    r2 = np.sum(x * x, axis=-1)
    a = random_spd_matrix(rng, dim)
    values = (0.5 * np.einsum("...i,ij,...j->...", x, a, x)
              + rng.uniform(0.0, 2.0) * r2 * r2
              + np.logaddexp(0.0, x @ rng.normal(size=dim))
              + x @ rng.normal(size=dim))
    if box:
        return PotentialField(grid, values, np.ones(grid.shape, dtype=bool))
    normal = rng.normal(size=dim)
    centre = rng.uniform(-0.7, 0.7, size=dim) * radius
    mask = (grid.ball_mask()
            & (x @ (normal / np.linalg.norm(normal))
               <= rng.uniform(0.3, 1.0) * radius)
            & (np.linalg.norm(x - centre, axis=-1)
               > rng.uniform(0.0, 0.25) * radius))
    labels, count = ndimage.label(
        mask, structure=ndimage.generate_binary_structure(dim, 1))
    sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
    mask = labels == 1 + int(np.argmax(sizes))
    return PotentialField(grid, values, mask)


def _component_major(coords, values, grads, mats, tens3, tens4):
    """The inputs of `_model_jets` from row-major ones, one row per node
    with dense Hessians: contiguous copies with one row per component and
    Hessians as their entries (i, j) of `symmetric_pairs`."""
    i, j = symmetric_pairs(coords.shape[1])
    return tuple(np.ascontiguousarray(a) for a in
                 (coords.T, values, grads.T, mats[:, i, j].T, tens3.T,
                  tens4.T))


def _row_major_taylor_tensors(u):
    """Packed t3 and t4 as full-box row-major arrays (*shape, C), zero off
    the two-cell interior and at nodes with a non-finite entry, and the
    two-cell interior: the full-box reference of `taylor_tensors`."""
    d = u.grid.dim
    h = u.grid.spacing
    valid = erode_mask(u.mask, 2)
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
                acc = (_combine(acc, _corners(d, ones))
                       / (2 ** len(ones) * h ** len(ones)))
            columns.append(acc)
        tens = np.stack(columns, axis=-1)
        tens[~valid] = 0.0
        tens[~np.isfinite(tens).all(axis=-1)] = 0.0
        packed.append(tens)
    return packed[0], packed[1], valid


def _row_major_fourth_order_jet(u):
    """Degree-4 gradients (*shape, d) and Hessians (*shape, d, d) on the
    whole box, zero where the two-cell stencil does not fit or any entry
    is not finite, and the mask of the rest: the full-box reference of
    the degree-4 rows of `fourth_order_jet`."""
    d = u.grid.dim
    h = u.grid.spacing
    valid = erode_mask(u.mask, 2)
    grads = np.zeros(u.grid.shape + (d,))
    hess = np.zeros(u.grid.shape + (d, d))
    for i in range(d):
        grads[..., i] = _pure(u.values, i, (1, 4), h)
        hess[..., i, i] = _pure(u.values, i, (2, 4), h)
    for i in range(d):
        for j in range(i + 1, d):
            hess[..., i, j] = hess[..., j, i] = _pure(grads[..., j], i,
                                                      (1, 4), h)
    grads[~valid] = 0.0
    hess[~valid] = 0.0
    bad = (~np.isfinite(grads).all(axis=-1)
           | ~np.isfinite(hess).all(axis=(-2, -1)))
    grads[bad] = 0.0
    hess[bad] = 0.0
    return grads, hess, valid & ~bad


def _row_major_field_jets(f):
    """`_field_jets` from full-box row-major passes (test oracle).

    The plain gradients and Hessians, the packed tensors and the degree-4
    jet each fill the whole box; the one-cell interior rows are taken
    from them, and the degree-4 rows are blended over the plain ones.
    Returns the jets, the lookup and the degree-4 row mask."""
    grads, valid = gradient_field(f)
    mats, _ = hessian_matrices(f, stride=1)
    tens3, tens4, _ = _row_major_taylor_tensors(f)
    g4, h4, valid2 = _row_major_fourth_order_jet(f)
    grads, mats = grads[valid], mats[valid]
    quartic = valid2[valid]
    grads[quartic] = g4[valid2]
    mats[quartic] = h4[valid2]
    jets = _model_jets(*_component_major(
        f.grid.coords()[valid], f.values[valid], grads, mats, tens3[valid],
        tens4[valid]), f.grid.spacing / 2.0)
    rows = np.full(f.grid.shape, -1)
    rows[valid] = np.where(jets.usable, np.arange(jets.usable.size), -1)
    return (jets, np.pad(rows, _REFINE_WINDOW, constant_values=-1),
            quartic)


def _random_jet_field(seed, dim, kind, thickness, nan_outside, overflow):
    """A smooth field on a random mask for the jet oracle.

    `kind` is a ball, a ball cut by a plane, or a ball cut to a slab
    `thickness` nodes thick along a random axis (one node: no one-cell
    interior; three: a one-cell interior one node thick; up to four: no
    two-cell interior). Values outside the mask are NaN with
    `nan_outside`. With `overflow` about one masked node in eight holds
    a value between 1e300 and 1e308, where the stencil sums overflow:
    some columns only, some rows entirely."""
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(9, 22) if dim == 2 else rng.integers(7, 14))
    grid = GridSpec.ball_box(dim, nodes, float(rng.uniform(0.5, 2.0)))
    x = grid.coords()
    mask = grid.ball_mask()
    if kind == "cut":
        normal = rng.normal(size=dim)
        mask &= (x @ (normal / np.linalg.norm(normal))
                 <= rng.uniform(-0.3, 0.8) * grid.ball_radius)
    elif kind == "slab":
        axis = int(rng.integers(dim))
        index = np.indices(grid.shape)[axis]
        start = (nodes - thickness) // 2
        mask &= (index >= start) & (index < start + thickness)
    labels, count = ndimage.label(
        mask, structure=ndimage.generate_binary_structure(dim, 1))
    sizes = ndimage.sum_labels(mask, labels, index=np.arange(1, count + 1))
    mask = labels == 1 + int(np.argmax(sizes))
    r2 = np.sum(x * x, axis=-1)
    values = (0.5 * r2 + rng.uniform(0.0, 2.0) * r2 * r2
              + np.sin(x @ rng.normal(size=dim)) + x @ rng.normal(size=dim))
    if overflow:
        spikes = mask & (rng.random(grid.shape) < 0.125)
        values[spikes] = 10.0 ** rng.uniform(300.0, 308.0, size=spikes.sum())
    if nan_outside:
        values = np.where(mask, values, np.nan)
    return PotentialField(grid, values, mask)


class TestNodeListJets:
    """`_field_jets` on the node-list columns of `fourth_order_jet` and
    `taylor_tensors` against the full-box row-major passes and blend
    (`_row_major_field_jets`): the same bits."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           kind=st.sampled_from(["ball", "cut", "slab"]),
           thickness=st.integers(1, 5), nan_outside=st.booleans(),
           overflow=st.booleans())
    @example(seed=0, dim=3, kind="slab", thickness=1, nan_outside=True,
             overflow=False)
    @example(seed=1, dim=2, kind="slab", thickness=3, nan_outside=True,
             overflow=False)
    @example(seed=2, dim=3, kind="ball", thickness=1, nan_outside=False,
             overflow=True)
    def test_matches_the_row_major_passes(self, seed, dim, kind, thickness,
                                          nan_outside, overflow):
        f = _random_jet_field(seed, dim, kind, thickness, nan_outside,
                              overflow)
        with np.errstate(over="ignore", invalid="ignore"):
            if not erode_mask(f.mask, 1).any():
                for build in (_field_jets, _row_major_field_jets):
                    with pytest.raises(GridError, match="domain too small"):
                        build(f)
                return
            jets, lookup = _field_jets(f)
            want, want_lookup, quartic = _row_major_field_jets(f)
        assert np.array_equal(jets.cols.view(np.uint64),
                              want.cols.view(np.uint64))
        assert np.array_equal(jets.usable, want.usable)
        assert np.array_equal(lookup, want_lookup)
        assert jets.reach == want.reach and jets.half == want.half
        assert jets.quartic == quartic.sum()
        if not erode_mask(f.mask, 2).any():
            assert jets.quartic == 0

    def test_overflow_drives_each_fallback(self):
        # spikes overflow a node's fourth differences before its third
        # ones, so t4 falls back alone at some nodes; g and H fall back to
        # the plain stencils where the 5-point sums overflow
        t4_alone = plain = 0
        for seed in range(4):
            f = _random_jet_field(seed, 3, "ball", 5, True, True)
            with np.errstate(over="ignore", invalid="ignore"):
                jets, _ = _field_jets(f)
                _, _, quartic = _row_major_field_jets(f)
                t3, t4, _ = _row_major_taylor_tensors(f)
            inner = erode_mask(f.mask, 1)
            two = erode_mask(f.mask, 2)[inner]
            blocks = _column_blocks(jets.cols, 3)
            assert np.array_equal(blocks[2], t3[inner].T)
            assert np.array_equal(blocks[3], t4[inner].T)
            t4_alone += np.sum(two & blocks[2].any(axis=0)
                               & ~blocks[3].any(axis=0))
            plain += np.sum(two & ~quartic)
        assert t4_alone > 0 and plain > 0


class TestRefinedSupPruning:
    """The box bound and ring order of `refined_sup` change no output bit."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           box=st.booleans())
    def test_equals_the_unpruned_maximum(self, seed, dim, box):
        f = _random_convex_field(seed, dim, box)
        slopes = auto_slope_grid(f)
        best, arg, vals_in, vals = refined_sup(f, slopes)
        if box:
            anchors = np.argwhere(f.mask)[arg]
            assert np.any((anchors == 0) | (anchors == f.grid.shape[0] - 1))
        ref_vals, ref_arg, ref_in = sup_with_argmax(f, slopes)
        assert np.array_equal(best, _unpruned_refined_values(f, slopes))
        assert np.array_equal(arg, ref_arg)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(vals_in, ref_in)

    @pytest.mark.parametrize("dim, nodes", [(2, 33), (3, 13)])
    def test_most_candidates_are_pruned(self, dim, nodes, monkeypatch):
        f = sample_potential(quartic(1.0), GridSpec.ball_box(dim, nodes))
        slopes = auto_slope_grid(f)
        polished = []

        def counting(jets, ys, cand):
            polished.append(len(ys))
            return _polish(jets, ys, cand)

        monkeypatch.setattr(conjugate, "_polish", counting)
        refined_sup(f, slopes)
        jets, _ = _field_jets(f)
        anchors = np.argwhere(f.mask)[sup_with_argmax(f, slopes)[1]]
        window = range(-_REFINE_WINDOW, _REFINE_WINDOW + 1)
        total = sum(_reference_candidates(f, jets, anchors, o)[0].size
                    for o in product(window, repeat=dim))
        assert 0 < sum(polished) < 0.25 * total

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n=st.integers(1, 12), reach=st.floats(0.0, 20.0))
    def test_bound_is_never_below_the_polished_model(self, seed, dim, n,
                                                     reach):
        # random SPD Hessians and symmetric t3, t4 (passed packed) at n
        # unrelated nodes; `reach` scales y - g in units of lambda_max h/2,
        # so that above about 1 the quadratic step leaves the box and is
        # clamped
        rng = np.random.default_rng(seed)
        half = float(rng.uniform(0.005, 0.5))
        mats = np.stack([random_spd_matrix(rng, dim, (1e-3, 5.0))
                         for _ in range(n)])
        tens = []
        for order in (3, 4):
            t = rng.normal(size=(n,) + (dim,) * order) * rng.uniform(0.0, 20.0)
            sym = (sum(np.transpose(t, (0,) + tuple(1 + np.array(p)))
                       for p in permutations(range(order)))
                   / math.factorial(order))
            multi = np.array(list(combinations_with_replacement(range(dim),
                                                                order)))
            tens.append(sym[(slice(None), *multi.T)])
        coords = rng.uniform(-3.0, 3.0, size=(n, dim))
        grads = rng.normal(size=(n, dim)) * 3.0
        values = rng.normal(size=n) * 10.0
        jets = _model_jets(*_component_major(coords, values, grads, mats,
                                             *tens), half)
        assert jets.usable.all()
        lam_max = np.linalg.eigvalsh(mats)[:, -1]
        ys = grads + (reach * lam_max * half)[:, None] * rng.normal(size=(n, dim))
        rows = np.arange(n)
        model = _polish(jets, ys, rows)
        assert np.all(model <= _box_bound(jets, *_slope_terms(jets, ys), rows,
                                          rows))


def _row_major_box_bound(jets, ys, rows):
    """The row-major `_box_bound` that the component-row screen replaced
    (test oracle): one table row per node holding x_c, g_c, lam_min h/2,
    1/(2 lam_min) and c_c, one 2-D gather per call and `einsum` sums."""
    d = ys.shape[1]
    blocks = _column_blocks(jets.cols, d)
    t = np.concatenate([blocks[5], blocks[0], *blocks[7:]]).T[rows]
    a = np.abs(ys - t[:, d:2 * d])
    m = np.minimum(a, t[:, 2 * d, None])
    return (np.einsum("ij,ij->i", ys, t[:, :d])
            + t[:, 2 * d + 1] * np.einsum("ij,ij->i", m, 2.0 * a - m)
            + t[:, 2 * d + 2]
            + conjugate._BOUND_SLACK * jets.reach * np.abs(ys).sum(axis=1))


class TestComponentScreen:
    """The screen of `_refine_rows`, which reads the jet table one
    component row at a time, against the row-major bound it replaced."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           box=st.booleans())
    def test_matches_the_row_major_screen(self, seed, dim, box):
        # ring by ring: every offset's bound against the oracle on the
        # candidates of `_reference_candidates`, then `_refine_rows` on
        # that ring alone must polish exactly the candidates the oracle
        # passes, in the same order, and raise `best` to the same bits
        f = _random_convex_field(seed, dim, box)
        slopes = auto_slope_grid(f)
        vals, arg, _ = sup_with_argmax(f, slopes)
        jets, lookup = _field_jets(f)
        flat = lookup.ravel()
        ys = slopes.coords().reshape(-1, dim)
        yt, slack = _slope_terms(jets, ys)
        anchors = np.argwhere(f.mask)[arg]
        starts = np.flatnonzero(np.pad(f.mask, _REFINE_WINDOW))[arg]
        strides = np.array(lookup.strides) // lookup.itemsize
        window = range(-_REFINE_WINDOW, _REFINE_WINDOW + 1)
        offsets = np.array(list(product(window, repeat=dim)))
        blocks = _column_blocks(jets.cols, dim)
        rims = 0
        best, want_best = vals.copy(), vals.copy()
        for ring in range(_REFINE_WINDOW + 1):
            ring_offsets = offsets[np.abs(offsets).max(axis=1) == ring]
            steps = ring_offsets @ strides
            rims += int((flat[starts[:, None] + steps] < 0).sum())
            sels, cands = [], []
            for offset in ring_offsets:
                sel, rows = _reference_candidates(f, jets, anchors, offset)
                want = _row_major_box_bound(jets, ys[sel], rows)
                got = _box_bound(jets, yt, slack, sel, rows)
                # the two orders of summation agree to round-off of the
                # terms that cancel, y.x_c and c_c (`einsum` does not add
                # in axis order)
                terms = (np.abs(ys[sel] * blocks[5][:, rows].T).sum(axis=1)
                         + np.abs(blocks[9][0, rows]))
                assert np.all(np.abs(got - want)
                              <= 1e-15 * (1 + np.abs(want) + terms))
                live = want >= want_best[sel]
                assert np.array_equal(got >= want_best[sel], live)
                sels.append(sel[live])
                cands.append(rows[live])
            sel, rows = np.concatenate(sels), np.concatenate(cands)
            polished = []

            def recording(jets, ys, rows):
                polished.append((ys, rows))
                return _polish(jets, ys, rows)

            with mock.patch.object(conjugate, "_polish", recording):
                conjugate._refine_rows(jets, flat, [steps], starts, ys, best)
            got_ys = np.concatenate([p[0] for p in polished] + [ys[:0]])
            got_rows = np.concatenate([p[1] for p in polished] + [rows[:0]])
            # no window slot that reads -1 reaches the polish
            assert np.all(got_rows >= 0) and jets.usable[got_rows].all()
            assert np.array_equal(got_rows, rows)
            assert np.array_equal(got_ys, ys[sel])
            if sel.size:
                np.maximum.at(want_best, sel, _polish(jets, ys[sel], rows))
            assert np.array_equal(best, want_best)
        assert rims > 0


class TestPolish:
    """`_polish` against models whose maximizer over the box is known."""

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n=st.integers(1, 12))
    def test_reaches_an_interior_maximum_to_round_off(self, seed, dim, n):
        # random SPD H and symmetric t3, t4 small enough that the model
        # stays strictly concave on the box; y is chosen so that the
        # model's gradient vanishes at a known step s inside the box
        rng = np.random.default_rng(seed)
        half = float(rng.uniform(0.05, 0.5))
        mats = np.stack([random_spd_matrix(rng, dim, (1.0, 5.0))
                         for _ in range(n)])
        dense, packed = [], []
        for order, size in ((3, 0.2 / half), (4, 0.2 / half**2)):
            t = rng.uniform(-1.0, 1.0, size=(n,) + (dim,) * order) * size
            sym = (sum(np.transpose(t, (0,) + tuple(1 + np.array(p)))
                       for p in permutations(range(order)))
                   / math.factorial(order))
            multi = np.array(list(combinations_with_replacement(range(dim),
                                                                order)))
            dense.append(sym)
            packed.append(sym[(slice(None), *multi.T)])
        t3, t4 = dense
        coords = rng.uniform(-3.0, 3.0, size=(n, dim))
        grads = rng.normal(size=(n, dim)) * 3.0
        values = rng.normal(size=n) * 10.0
        s = rng.uniform(-0.5, 0.5, size=(n, dim)) * half
        ys = (grads + np.einsum("nij,nj->ni", mats, s)
              + np.einsum("nijk,nj,nk->ni", t3, s, s) / 2.0
              + np.einsum("nijkl,nj,nk,nl->ni", t4, s, s, s) / 6.0)
        want = ((ys * (coords + s) - grads * s).sum(axis=1) - values
                - np.einsum("nij,ni,nj->n", mats, s, s) / 2.0
                - np.einsum("nijk,ni,nj,nk->n", t3, s, s, s) / 6.0
                - np.einsum("nijkl,ni,nj,nk,nl->n", t4, s, s, s, s) / 24.0)
        jets = _model_jets(*_component_major(coords, values, grads, mats,
                                             *packed), half)
        got = _polish(jets, ys, np.arange(n))
        scale = 1.0 + np.abs(values) + (np.abs(ys) * (np.abs(coords) + half)
                                        ).sum(axis=1)
        assert np.all(np.abs(got - want) <= 1e-14 * scale)


def _dense_polish(jets, ys, rows):
    """The dense-`matmul` polish that `_polish` replaced (test oracle).

    Expands each candidate's packed H, H^-1, t3 and t4 to dense d^2, d^3
    and d^4 arrays and contracts them with stacked `matmul`s. Returns the
    values, the candidates that took an H^-1 step (det(J) <= 1e-14) and
    those whose final step lies on a face of the box."""
    d = ys.shape[1]
    blocks = _column_blocks(np.take(jets.cols, rows, axis=1), d)
    g0, h0, t3, t4, inv, x, f = (
        np.take(b.T, symmetric_slots(d, order), axis=1) if order else b.T
        for b, order in zip(blocks, (0, 2, 3, 4, 2, 0, 0)))

    def dot(t, s):
        return (t.reshape(len(s), -1, d) @ s[:, :, None]).reshape(t.shape[:-1])

    half = jets.half
    dy = ys - g0
    step = np.clip(dot(inv, dy), -half, half)
    fallback = np.zeros(len(ys), dtype=bool)
    for _ in range(3):
        t3s = dot(t3, step)
        t4ss = dot(dot(t4, step), step)
        resid = dy - dot(h0 + t3s / 2.0 + t4ss / 6.0, step)
        adj, det = adjugate(h0 + t3s + t4ss / 2.0)
        good = det > 1e-14
        fallback |= ~good
        delta = np.where(good[:, None],
                         dot(adj, resid) / np.where(good, det, 1.0)[:, None],
                         dot(inv, resid))
        step = np.clip(step + delta, -half, half)
    t3s = dot(t3, step)
    t4ss = dot(dot(t4, step), step)
    quad = dot(h0 / 2.0 + t3s / 6.0 + t4ss / 24.0, step)
    values = (ys * (x + step) - (g0 + quad) * step).sum(axis=1) - f[:, 0]
    return values, fallback, np.any(np.abs(step) == half, axis=1)


def _random_polish_jets(seed, dim, n, reach):
    """Jets at n unrelated nodes, with slopes y for them.

    Random SPD H (eigenvalues 1 to 5) and symmetric t3, t4 small enough
    that J stays well inside the SPD cone on the box; y - g is H times a
    quadratic step of up to `reach` box half-widths per axis, so above 1
    the steps are clamped. About a quarter of the nodes get t4_0000 =
    -1e3 / (h/2)^2 and a first step component of 10 half-widths: the step
    stays on the face s_0 = +-h/2, where J_00 is about -500 and det(J) is
    far below 1e-14, so the polish takes H^-1 steps there."""
    rng = np.random.default_rng(seed)
    half = float(rng.uniform(0.005, 0.5))
    mats = np.stack([random_spd_matrix(rng, dim, (1.0, 5.0))
                     for _ in range(n)])
    tens = []
    for order in (3, 4):
        t = (rng.uniform(-1.0, 1.0, size=(n,) + (dim,) * order)
             * rng.uniform(0.0, 0.1) / half ** (order - 2))
        sym = (sum(np.transpose(t, (0,) + tuple(1 + np.array(p)))
                   for p in permutations(range(order)))
               / math.factorial(order))
        multi = np.array(list(combinations_with_replacement(range(dim),
                                                            order)))
        tens.append(sym[(slice(None), *multi.T)])
    steps = reach * half * rng.uniform(-1.0, 1.0, size=(n, dim))
    degenerate = rng.random(n) < 0.25
    tens[1][degenerate, 0] = -1e3 / half**2
    steps[degenerate, 0] = 10.0 * half * rng.choice([-1.0, 1.0])
    coords = rng.uniform(-3.0, 3.0, size=(n, dim))
    grads = rng.normal(size=(n, dim)) * 3.0
    values = rng.normal(size=n) * 10.0
    jets = _model_jets(*_component_major(coords, values, grads, mats, *tens),
                       half)
    return jets, grads + np.einsum("nij,nj->ni", mats, steps)


class TestPackedPolish:
    """`_polish` on packed jet columns against the dense `matmul` oracle,
    and its independence of the batch it runs in."""

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n=st.integers(1, 12), reach=st.floats(0.0, 3.0))
    def test_matches_the_dense_oracle(self, seed, dim, n, reach):
        jets, ys = _random_polish_jets(seed, dim, n, reach)
        rows = np.arange(n)
        want, _, _ = _dense_polish(jets, ys, rows)
        got = _polish(jets, ys, rows)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_oracle_draws_clamp_and_fall_back(self, dim):
        # the draws of the test above reach both branches of a step
        jets, ys = _random_polish_jets(dim, dim, 400, 3.0)
        rows = np.arange(400)
        want, fallback, clamped = _dense_polish(jets, ys, rows)
        assert 0 < fallback.sum() < 400 and 0 < clamped.sum() < 400
        got = _polish(jets, ys, rows)
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           n=st.integers(1, 40))
    def test_a_candidate_ignores_its_batch(self, seed, dim, n):
        # candidates repeat rows; a subset or permutation of them must give
        # the same bits as the full call
        jets, ys = _random_polish_jets(seed, dim, 8, 3.0)
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, 8, size=n)
        ys = ys[rows] + rng.normal(size=(n, dim))
        full = _polish(jets, ys, rows)
        subset = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
        for pick in (rng.permutation(n), subset):
            assert np.array_equal(_polish(jets, ys[pick], rows[pick]),
                                  full[pick])

    @pytest.mark.parametrize("dim, nodes", [(2, 33), (3, 13)])
    def test_polish_cap_changes_no_bit(self, dim, nodes, monkeypatch):
        f = sample_potential(quartic(1.0), GridSpec.ball_box(dim, nodes))
        slopes = auto_slope_grid(f)
        want = refined_sup(f, slopes)
        for cap in (1, 7, 64):
            monkeypatch.setattr(conjugate, "_POLISH_ROWS", cap)
            for got, ref in zip(refined_sup(f, slopes), want):
                assert np.array_equal(got, ref)


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.uint64)


class TestAttainedRowsAndScreenBlocks:
    """`refined_sup(..., attained_only=True)` and the blocked ring screen
    against the full, unblocked refine."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           box=st.booleans())
    def test_attained_rows_equal_the_full_refine(self, seed, dim, box):
        f = _random_convex_field(seed, dim, box)
        slopes = auto_slope_grid(f)
        full = refined_sup(f, slopes)
        best, arg, vals_in, vals = refined_sup(f, slopes, attained_only=True)
        inside = conjugate._attained_inside(vals, vals_in)
        assert np.array_equal(_bits(best[inside]), _bits(full[0][inside]))
        assert np.array_equal(_bits(best[~inside]), _bits(vals[~inside]))
        for got, want in zip((arg, vals_in, vals), full[1:]):
            assert np.array_equal(got, want)

    def test_no_attained_row_keeps_every_node_sup(self):
        # slopes far beyond the gradient range are all attained on the rim
        from slag_lab.errors import SlopeGridError
        from slag_lab.rotation import RotationParams, rotate

        f = sample_potential(quartic(1.0), GridSpec.ball_box(2, 17))
        slopes = GridSpec(2, (7, 7), 0.5, (40.0, 40.0), None)
        best, _, vals_in, vals = refined_sup(f, slopes, attained_only=True)
        assert not conjugate._attained_inside(vals, vals_in).any()
        assert np.array_equal(best, vals)
        with pytest.raises(SlopeGridError, match="slope domain is empty"):
            rotate(f, RotationParams.from_alpha(0.7), slopes=slopes)

    @pytest.mark.parametrize("dim, nodes", [(2, 33), (3, 13)])
    @pytest.mark.parametrize("attained_only", [False, True])
    def test_screen_block_size_changes_no_bit(self, dim, nodes,
                                              attained_only, monkeypatch):
        f = sample_potential(quartic(1.0), GridSpec.ball_box(dim, nodes))
        slopes = auto_slope_grid(f)
        want = refined_sup(f, slopes, attained_only=attained_only)
        n = slopes.n_nodes()
        calls = []

        def counting(*args):
            calls.append(len(args[3]))
            return _box_bound(*args)

        monkeypatch.setattr(conjugate, "_box_bound", counting)
        # one offset per block; three (less than any ring past the first);
        # every offset of a ring in one block
        for pairs, per in ((1, 1), (3 * n, 3), (5**dim * n + 1, 5**dim)):
            monkeypatch.setattr(conjugate, "_SCREEN_PAIRS", pairs)
            calls.clear()
            got = refined_sup(f, slopes, attained_only=attained_only)
            for a, b in zip(got, want):
                assert np.array_equal(a.view(np.uint64), b.view(np.uint64))
            if not attained_only:
                rings = [1, 3**dim - 1, 5**dim - 3**dim]
                assert len(calls) == sum(-(-r // per) for r in rings)

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))
    def test_rotate_domain_equals_the_full_refine(self, seed, dim):
        from slag_lab import rotation

        # against the rotation with every row polished (on the domain) and
        # with none (off the rows attained inside)
        u = _random_convex_field(seed, dim)
        params = rotation.RotationParams.from_alpha(0.25 * math.pi)
        got = rotation.rotate(u, params)

        def node_sups(f, slopes, **_):
            _, arg, vals_in, vals = refined_sup(f, slopes)
            return vals, arg, vals_in, vals

        with mock.patch.object(rotation, "refined_sup",
                               lambda f, slopes, **_: refined_sup(f, slopes)):
            want = rotation.rotate(u, params)
        with mock.patch.object(rotation, "refined_sup", node_sups):
            bare = rotation.rotate(u, params)
        inside = want.domain.inside
        assert np.array_equal(got.domain.inside, inside)
        assert np.array_equal(got.field.mask, want.field.mask)
        assert np.array_equal(_bits(got.field.values[inside]),
                              _bits(want.field.values[inside]))
        vals, _, vals_in = sup_with_argmax(
            rotation._tilde_field(u, params), got.field.grid)
        off = ~conjugate._attained_inside(vals, vals_in).reshape(inside.shape)
        assert np.array_equal(_bits(got.field.values[off]),
                              _bits(bare.field.values[off]))

    @pytest.mark.parametrize("attained_only", [False, True])
    def test_one_debug_line_per_call(self, caplog, monkeypatch,
                                     attained_only):
        f = sample_potential(quartic(1.0), GridSpec.ball_box(2, 33))
        slopes = auto_slope_grid(f)
        polished = []

        def counting(jets, ys, cand):
            polished.append(len(ys))
            return _polish(jets, ys, cand)

        monkeypatch.setattr(conjugate, "_polish", counting)
        caplog.set_level("DEBUG", logger="slag_lab.conjugate")
        _, arg, vals_in, vals = refined_sup(f, slopes,
                                            attained_only=attained_only)
        lines = [r for r in caplog.records
                 if r.getMessage().startswith("refined_sup:")]
        assert len(lines) == 1
        rows = (int(conjugate._attained_inside(vals, vals_in).sum())
                if attained_only else slopes.n_nodes())
        assert (f"{rows} of {slopes.n_nodes()} slope rows polished"
                in lines[0].getMessage())
        counts = lines[0].args[-1]
        assert len(counts) == _REFINE_WINDOW + 1
        assert sum(passed for _, passed in counts) == sum(polished)
        # the jet rows: one-cell interior nodes, degree-4 rows (every
        # two-cell interior node of a finite field) and usable rows
        jets, lookup = _field_jets(f)
        assert lines[0].args[2:5] == (erode_mask(f.mask, 1).sum(),
                                      erode_mask(f.mask, 2).sum(),
                                      (lookup >= 0).sum())
        # every candidate whose slot holds a usable jet is screened
        anchors = np.argwhere(f.mask)[arg]
        if attained_only:
            anchors = anchors[conjugate._attained_inside(vals, vals_in)]
        window = range(-_REFINE_WINDOW, _REFINE_WINDOW + 1)
        want = [0] * (_REFINE_WINDOW + 1)
        for offset in product(window, repeat=2):
            want[max(map(abs, offset))] += _reference_candidates(
                f, jets, anchors, offset)[0].size
        assert [screened for screened, _ in counts] == want
        assert all(0 <= passed <= screened for screened, passed in counts)


class TestRefinedSupThreads:
    def test_a_large_slope_grid_starts_no_thread(self):
        # 37 249 slope rows: enough to tempt a split of the rows across
        # cores, which measured no faster (BENCH_23.json)
        f = sample_potential(quartic(1.0), GridSpec.ball_box(2, 193))
        slopes = auto_slope_grid(f)

        def started(thread):
            raise AssertionError("refined_sup started a thread")

        with mock.patch("threading.Thread.start", started):
            refined_sup(f, slopes)


class TestTransformLaws:
    def test_constant_shift_exact(self, grid65):
        u = sample_potential(iso_quad(2.0), grid65)
        slopes = auto_slope_grid(u)
        star = conjugate_brute(u, slopes)
        shifted = conjugate_brute(u.shifted(0.73), slopes)
        assert np.array_equal(shifted.values, star.values - 0.73)

    def test_order_reversal_exact(self, grid65, rng):
        f = sample_potential(iso_quad(1.0), grid65)
        bump = sample_potential(quartic(1.0), grid65)  # >= f node-wise
        slopes = auto_slope_grid(bump)
        fs = conjugate_brute(f, slopes)
        gs = conjugate_brute(bump, slopes)
        assert np.all(fs.values >= gs.values)

    @pytest.mark.parametrize("case", ["iso", "aniso", "max-affine", "snapped"])
    def test_involution_error_rates(self, case, rng):
        # quadratics: O(h^2) hull error; unsnapped max-affine: the auto slope
        # lattice misses the piece slopes, first order in the slope spacing;
        # lattice-representable max-affine: exact
        grid = GridSpec.ball_box(2, 65)
        h = grid.spacing
        slopes = None
        if case == "iso":
            u = sample_potential(iso_quad(2.0), grid)
        elif case == "aniso":
            u = sample_potential(quad_form([[2.2, 0.5], [0.5, 1.1]]), grid)
        elif case == "max-affine":
            u = sample_potential(random_max_affine(rng, 2, 4), grid)
        else:
            from slag_lab.formulas import max_affine

            s0 = 0.05
            p = np.round(rng.uniform(-1, 1, size=(4, 2)) / s0) * s0
            b = rng.uniform(-0.3, 0.3, size=4)
            u = sample_potential(max_affine(p, b), grid)
            slopes = GridSpec(2, (61, 61), s0, (-1.5, -1.5), None)
        star = conjugate_fast(u, slopes)
        xgrid = GridSpec(2, grid.shape, grid.spacing, grid.origin, None)
        back = conjugate_fast(star, slopes=xgrid)
        inner = erode_mask(u.mask, 2)
        err = np.abs(back.values[inner] - u.values[inner]).max()
        # node suprema never overestimate: f** <= f exactly
        assert np.all(back.values[inner] <= u.values[inner] + 1e-12)
        if case in ("iso", "aniso"):
            assert err <= 4.0 * 2.5 * max(h, star.grid.spacing) ** 2
        elif case == "max-affine":
            assert err <= 1.5 * star.grid.spacing
        else:
            assert err <= 1e-12

    def test_conjugate_convex_on_domain_interior(self, grid65):
        from slag_lab.eigen import eigvals_sym
        from slag_lab.hessians import hessian_field

        for formula in (iso_quad(2.0), quartic(1.0)):
            u = sample_potential(formula, grid65)
            star = conjugate_brute(u)
            dom = slope_domain(u)
            hf = hessian_field(star)
            inner = hf.interior_mask & erode_mask(dom.inside, 2)
            lam = eigvals_sym(hf.matrices[inner])
            assert lam[..., -1].min() >= -1e-9

    def test_conjugate_directionally_convex_everywhere(self, grid65):
        # exact statement: node suprema of affine families are midpoint convex
        u = sample_potential(quartic(1.0), grid65)
        star = conjugate_brute(u)
        worst, _ = directional_convexity_deficit(star)
        assert worst >= -1e-9


def _convex_on_random_mask(seed, dim, lattice):
    """A convex field on a random mask, and a slope grid.

    The mask is drawn as in `_random_masked_field`, joined with a 3^dim
    block around one of its nodes so that the convexity check has an
    interior node. The values are a max-affine part, plus an SPD quadratic
    unless `lattice` is set. With `lattice` the field is max-affine alone,
    and the grid, the slope grid, the piece slopes (nodes of the slope
    grid) and the offsets are dyadic with a few bits each, so every sum,
    product and breakpoint the transform forms is exact.
    """
    rng = np.random.default_rng(seed)
    base, slopes = _random_masked_field(seed, dim, one_node=False)
    shape = base.grid.shape
    node = np.argwhere(base.mask)[rng.integers(int(base.mask.sum()))]
    centre = np.clip(node, 1, np.array(shape) - 2)
    mask = base.mask.copy()
    mask[tuple(slice(c - 1, c + 2) for c in centre)] = True
    pieces = int(rng.integers(1, 5))
    if lattice:
        h = 2.0 ** -int(rng.integers(2, 5))
        grid = GridSpec(dim, shape, h, tuple(-h * (np.array(shape) // 2)), None)
        s = 2.0 ** -int(rng.integers(0, 3))
        slope_shape = tuple(int(n) for n in rng.integers(3, 9, size=dim))
        slopes = GridSpec(dim, slope_shape, s,
                          tuple(-s * rng.integers(0, np.array(slope_shape))), None)
        p = np.array(slopes.origin) + s * rng.integers(0, slope_shape,
                                                       size=(pieces, dim))
        b = rng.integers(-16, 17, size=pieces) / 16.0
        quad = 0.0
    else:
        grid = base.grid
        p = rng.uniform(-1.0, 1.0, size=(pieces, dim))
        b = rng.uniform(-0.3, 0.3, size=pieces)
        x = grid.coords()
        a = random_spd_matrix(rng, dim)
        quad = 0.5 * np.einsum("...i,ij,...j->...", x, a, x)
    values = max_affine(p, b)(grid.coords()) + quad
    return PotentialField(grid, np.where(mask, values, np.nan), mask), slopes


def _slope_index(slopes, ys):
    """Flat slope-grid index of each row of `ys`, -1 off the grid."""
    k = np.round((ys - np.array(slopes.origin)) / slopes.spacing).astype(int)
    on = np.all((k >= 0) & (k < np.array(slopes.shape)), axis=1)
    flat = np.ravel_multi_index(tuple(np.where(on[:, None], k, 0).T), slopes.shape)
    return np.where(on, flat, -1)


_LAW_DRAWS = dict(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]))


class TestTransformLawsOnRandomMasks:
    """Legendre laws of `conjugate_fast` on random masks in 2-D and 3-D.

    Round-off laws run on general convex fields, exact ones on lattice
    fields, where the transform's arithmetic is exact.
    """

    @settings(max_examples=60, deadline=None)
    @given(**_LAW_DRAWS)
    # fails when the peel stops after its first round
    @example(seed=0, dim=2)
    def test_fenchel_young_with_equality_at_the_sup(self, seed, dim):
        f, slopes = _convex_on_random_mask(seed, dim, lattice=False)
        star = conjugate_fast(f, slopes).values.reshape(-1)
        xs, fs = f.masked_points()
        xy = slopes.coords().reshape(-1, dim) @ xs.T
        gap = fs[None, :] + star[:, None] - xy
        tol = 1e-12 * (1.0 + np.abs(fs)[None, :] + np.abs(star)[:, None]
                       + np.abs(xy))
        assert np.all(gap >= -tol)
        assert np.all(gap.min(axis=1) <= tol[np.arange(len(star)),
                                              gap.argmin(axis=1)])

    @settings(max_examples=60, deadline=None)
    @given(**_LAW_DRAWS, lift=st.floats(0.0, 1.0), bend=st.floats(0.0, 2.0))
    def test_order_reversal(self, seed, dim, lift, bend):
        f, slopes = _convex_on_random_mask(seed, dim, lattice=False)
        x = f.grid.coords()
        centre = x[f.mask][0]
        g = f.with_values(f.values + lift
                          + 0.5 * bend * np.sum((x - centre) ** 2, axis=-1))
        assert np.all(g.values[f.mask] >= f.values[f.mask])
        fs = conjugate_fast(f, slopes).values
        gs = conjugate_fast(g, slopes).values
        assert np.all(gs <= fs + 1e-12 * (1.0 + np.abs(fs)))

    @settings(max_examples=60, deadline=None)
    @given(**_LAW_DRAWS, shift=st.integers(-64, 64))
    def test_constant_shift_is_exact(self, seed, dim, shift):
        f, slopes = _convex_on_random_mask(seed, dim, lattice=True)
        c = shift / 32.0
        star = conjugate_fast(f, slopes).values
        assert np.array_equal(conjugate_fast(f.shifted(c), slopes).values,
                              star - c)

    @settings(max_examples=60, deadline=None)
    @given(**_LAW_DRAWS, data=st.data())
    def test_tilt_by_a_lattice_slope(self, seed, dim, data):
        f, slopes = _convex_on_random_mask(seed, dim, lattice=True)
        steps = np.array([data.draw(st.integers(1 - n, n - 1))
                          for n in slopes.shape])
        a = slopes.spacing * steps
        tilted = f.with_values(f.values - f.grid.coords() @ a)
        lhs = conjugate_fast(tilted, slopes).values.reshape(-1)
        star = conjugate_fast(f, slopes).values.reshape(-1)
        ys = slopes.coords().reshape(-1, dim)
        moved = _slope_index(slopes, ys + a)
        on = moved >= 0
        assert on.any()
        assert np.array_equal(lhs[on], star[moved[on]])

    @settings(max_examples=60, deadline=None)
    @given(**_LAW_DRAWS)
    # fails when the peel stops after its first round
    @example(seed=6373, dim=2)
    def test_involution_on_lattice_max_affine(self, seed, dim):
        f, slopes = _convex_on_random_mask(seed, dim, lattice=True)
        star = conjugate_fast(f, slopes)
        g = f.grid
        back = conjugate_fast(star, GridSpec(dim, g.shape, g.spacing,
                                             g.origin, None))
        assert np.array_equal(back.values[f.mask], f.values[f.mask])


class TestAutoSlopeGrid:
    def test_covers_attained_range_with_two_cell_margin(self, grid65, rng):
        from slag_lab.hessians import gradient_field

        for formula in (iso_quad(2.5), quartic(1.0)):
            u = sample_potential(formula, grid65)
            slopes = auto_slope_grid(u)
            grads, valid = gradient_field(u)
            g = grads[valid]
            for k in range(2):
                lo = slopes.origin[k]
                hi = slopes.origin[k] + (slopes.shape[k] - 1) * slopes.spacing
                assert lo <= g[:, k].min() - 2 * slopes.spacing + 1e-12
                assert hi >= g[:, k].max() + 2 * slopes.spacing - 1e-12

    @pytest.mark.parametrize("dim, nodes, seed",
                             [(2, 129, 8), (2, 129, 14), (2, 65, 0),
                              (3, 21, 1), (3, 21, 4), (3, 33, 0)])
    def test_mirrored_inputs_get_one_shape(self, dim, nodes, seed):
        # x -> -x on axis 0 and the reversal of all axes are symmetries of
        # the ball, so the three quadratics have mirrored gradient ranges;
        # the grid coordinates are not exactly antisymmetric, so their
        # sampled values differ at round-off, which must not move a node
        grid = GridSpec.ball_box(dim, nodes)
        a = random_spd_matrix(np.random.default_rng(seed), dim)
        flip = np.eye(dim)
        flip[0, 0] = -1.0
        shapes = []
        for m in (a, flip @ a @ flip, a[::-1, ::-1]):
            slopes = auto_slope_grid(sample_potential(quad_form(m), grid))
            # a gradient range symmetric about 0 gives a symmetric grid
            lo_nodes = np.round(np.array(slopes.origin) / slopes.spacing)
            assert np.array_equal(-2 * lo_nodes, np.array(slopes.shape) - 1)
            shapes.append(slopes.shape)
        assert shapes[1] == shapes[0]
        assert shapes[2] == shapes[0][::-1]

    def test_degenerate_range_rejected(self, grid65):
        from slag_lab.errors import SlopeGridError

        flat = sample_potential(lambda x: np.full(x.shape[:-1], 2.0), grid65)
        with pytest.raises(SlopeGridError):
            auto_slope_grid(flat)

    @pytest.mark.parametrize("cross", [0.0, 0.5])
    def test_one_node_thick_interior_is_named(self, cross):
        # on a 3 x 7 box the one-cell interior is the single column x_0 =
        # 0.5, so axis 0 has no coordinate span: without the cross term the
        # slope range along it is 0 as well (0 / 0), with it the range is
        # positive (an infinite spacing)
        from slag_lab.errors import SlopeGridError

        grid = GridSpec(2, (3, 7), 0.5, (0.0, 0.0), None)
        f = sample_potential(lambda x: (x[..., 0]**2 + x[..., 1]**2
                                        + cross * x[..., 0] * x[..., 1]),
                             grid)
        for transform in (auto_slope_grid, conjugate_fast):
            with pytest.raises(SlopeGridError,
                               match="one node thick along axis 0"):
                transform(f)


def _auto_slope_grid_reference(f):
    """`auto_slope_grid` as it read the gradients and coordinates through
    full (N, dim) arrays: the oracle of the per-component reductions."""
    from slag_lab.errors import SlopeGridError

    d, h = f.grid.dim, f.grid.spacing
    valid = erode_mask(f.mask, 1)
    grads = np.zeros(f.grid.shape + (d,))
    for i in range(d):
        e = tuple(int(k == i) for k in range(d))
        grads[..., i] = ((nan_shift(f.values, e) - nan_shift(f.values, tuple(-c for c in e)))
                         / (2.0 * h))
    if not valid.any():
        raise SlopeGridError("no interior node to estimate the slope range")
    g = grads[valid]
    lo, hi = g.min(axis=0), g.max(axis=0)
    if float((hi - lo).max()) <= 1e-12 * (1.0 + float(np.abs(g).max())):
        raise SlopeGridError("attained slope range is degenerate")
    coords = f.grid.coords()[valid]
    span = coords.max(axis=0) - coords.min(axis=0)
    if (span == 0).any():
        k = int(np.argmax(span == 0))
        raise SlopeGridError(
            f"the one-cell interior is one node thick along axis {k}: "
            "no coordinate span to scale the slope range by")
    spacing = float(((hi - lo) / span).max()) * h
    shape, origin = [], []
    for k in range(d):
        lo_node = int(np.floor(conjugate._snap(lo[k] / spacing))) - conjugate._SLOPE_MARGIN
        hi_node = int(np.ceil(conjugate._snap(hi[k] / spacing))) + conjugate._SLOPE_MARGIN
        while hi_node - lo_node + 1 < 5:
            lo_node -= 1
            hi_node += 1
        shape.append(hi_node - lo_node + 1)
        origin.append(lo_node * spacing)
    return GridSpec(d, tuple(shape), spacing, tuple(origin), None)


class TestAutoSlopeGridOracle:
    """`auto_slope_grid` equals its full-array reference bit for bit."""

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           domain=st.sampled_from(["ball", "box", "random"]),
           data=st.sampled_from(["smooth", "noise", "affine", "constant"]))
    def test_equals_the_full_array_reference(self, seed, dim, domain, data):
        from slag_lab.errors import SlopeGridError

        rng = np.random.default_rng(seed)
        if domain == "random":
            f, _ = _random_masked_field(seed, dim, one_node=False)
            grid, mask = f.grid, f.mask
        else:
            nodes = int(rng.integers(5, 40 if dim == 2 else 16))
            grid = GridSpec.ball_box(dim, nodes, float(rng.uniform(0.3, 3.0)))
            mask = (grid.ball_mask() if domain == "ball"
                    else np.ones(grid.shape, dtype=bool))
        x = grid.coords()
        p = rng.normal(size=dim)
        values = {
            "smooth": lambda: (0.5 * np.einsum("...i,ij,...j->...", x,
                                               random_spd_matrix(rng, dim), x)
                               + np.sin(x @ p)),
            "noise": lambda: rng.uniform(-1.0, 1.0, size=grid.shape),
            "affine": lambda: x @ p + 0.3,
            "constant": lambda: np.full(grid.shape, 0.7),
        }[data]()
        f = PotentialField(grid, np.where(mask, values, np.nan), mask)
        try:
            ref = _auto_slope_grid_reference(f)
        except SlopeGridError as err:
            with pytest.raises(SlopeGridError, match=str(err)):
                auto_slope_grid(f)
            return
        assert auto_slope_grid(f) == ref


class TestSubdifferential:
    def test_smooth_point_tight_tolerance(self, grid65):
        u = sample_potential(iso_quad(1.0), grid65)
        h = grid65.spacing
        sd = subdifferential(u, (0.0, 0.0), tol=h * h)
        spacing = auto_slope_grid(u).spacing
        # within one cell of {0} in the Chebyshev sense
        dist = np.abs(sd.members).max(axis=1)
        assert dist.max() <= spacing + 1e-12

    @pytest.mark.parametrize("tol", [-1.0, np.nan])
    def test_tolerance_must_be_finite_and_nonnegative(self, grid65, tol):
        u = sample_potential(iso_quad(1.0), grid65)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            subdifferential(u, (0.0, 0.0), tol=tol)

    def test_norm_kink_covers_unit_ball(self, grid65):
        u = sample_potential(norm, grid65)
        sd = subdifferential(u, (0.0, 0.0))
        slopes = auto_slope_grid(u)
        ys = slopes.coords().reshape(-1, 2)
        r = np.linalg.norm(ys, axis=1)
        member_set = {tuple(m) for m in np.round(sd.members, 12)}
        for y in ys[r <= 1.0]:
            assert tuple(np.round(y, 12)) in member_set

    def test_max_plus_quadratic_against_plane_enumeration(self, grid65):
        # f = max(x1, x2) + 0.5|x|^2 at a diagonal node: the subdifferential
        # is the segment hull{e1, e2} + a (supporting-plane enumeration)
        def f(x):
            return np.maximum(x[..., 0], x[..., 1]) + 0.5 * np.sum(x * x, -1)

        u = sample_potential(f, grid65)
        a = np.array([0.25, 0.25])
        sd = subdifferential(u, a)
        seg = np.array([s * np.array([1.0, 0.0]) + (1 - s) * np.array([0.0, 1.0])
                        for s in np.linspace(0, 1, 201)]) + a
        spacing = auto_slope_grid(u).spacing
        slack = sd.tolerance / spacing * spacing  # tolerance in slope units
        for m in sd.members:
            gap = np.linalg.norm(seg - m, axis=1).min()
            assert gap <= np.sqrt(2.0 * sd.tolerance) + 2 * spacing
        for s in seg[:: 20]:
            gap = np.linalg.norm(sd.members - s, axis=1).min()
            assert gap <= 2 * spacing

    def test_explicit_tolerance_below_every_gap_is_a_value_error(self, grid65):
        # slope nodes lie 2h apart on axis 0, and the node x = (h, 0) attains
        # the sup only for y_0 in [h/2, 3h/2]: every gap is at least h^2/2
        h = grid65.spacing
        u = sample_potential(quad_form([[1.0, 0.0], [0.0, 2.0]]), grid65)
        with pytest.raises(ValueError, match="tol 0 leaves no slope node") as err:
            subdifferential(u, (h, 0.0), tol=0.0)
        assert not isinstance(err.value, ConvexityError)
        gap = float(str(err.value).rsplit(" ", 1)[1])
        assert gap == pytest.approx(0.5 * h * h, rel=1e-5)
        # the default tolerance keeps members at the same point
        assert len(subdifferential(u, (h, 0.0)).members) > 0

    def test_empty_member_set_reports_internal_error(self):
        # only the guaranteed default tolerance can reach this check
        with pytest.raises(ConvexityError, match="internal error"):
            SlopeSet(anchor=(0.0, 0.0), members=np.empty((0, 2)), tolerance=1.0)


def _tight_members_per_call(f, star, a):
    """`_tight_members` as it built the slope coordinates for every anchor."""
    idx = conjugate._locate_node(f, a)
    anchor = f.grid.node_coords(idx)
    ys = star.grid.coords().reshape(-1, f.grid.dim)
    gap = f.values[idx] + star.values.reshape(-1) - ys @ anchor
    h = f.grid.spacing
    slack = (0.25 * (1.0 + conjugate._lipschitz_at(f, idx)) * h * h
             + 1e-12 * (1.0 + abs(float(f.values[idx]))))
    cut = float(gap.min()) + slack
    return anchor, ys[gap <= cut], cut


class TestTightMembersSharedCoordinates:
    @pytest.mark.parametrize("dim, nodes", [(2, 33), (3, 13)])
    def test_equals_the_per_call_version(self, dim, nodes, rng):
        grid = GridSpec.ball_box(dim, nodes)
        u = sample_potential(random_max_affine(rng, dim, 4), grid)
        u = u.with_values(u.values + sample_potential(iso_quad(0.5), grid).values)
        star = conjugate_fast(u)
        ys = conjugate._slope_coords(star)
        for node in np.argwhere(u.mask)[::3]:
            a = grid.node_coords(node)
            sd = _tight_members(u, star, ys, a)
            anchor, members, cut = _tight_members_per_call(u, star, a)
            assert np.array_equal(sd.anchor, anchor)
            assert np.array_equal(sd.members, members)
            assert sd.tolerance == cut


class TestSlopeDomain:
    @pytest.mark.parametrize("k", [1.0, 3.0])
    def test_quadratic_maps_to_scaled_ball(self, grid65, k):
        u = sample_potential(iso_quad(k), grid65)
        dom = slope_domain(u)
        ys = dom.slope_grid.coords()
        r = np.sqrt(np.sum(ys * ys, axis=-1))
        cell = dom.slope_grid.spacing
        assert np.all(r[dom.inside] <= k + 2 * cell + k * grid65.spacing)
        covered = r <= k - 2 * cell - k * grid65.spacing
        assert np.all(dom.inside[covered])

    def test_gradient_image_oracle(self, grid65):
        # f = 0.5|x|^2 + 0.25|x|^4 has gradient x(1 + |x|^2)
        u = sample_potential(quartic(1.0), grid65)
        dom = slope_domain(u)
        cell = dom.slope_grid.spacing
        coords = grid65.coords()
        inner = erode_mask(u.mask, 1)
        r2 = np.sum(coords * coords, axis=-1)
        image = coords * (1.0 + r2)[..., None]
        cloud = image[inner].reshape(-1, 2)
        ys = dom.slope_grid.coords()[dom.inside]
        for y in ys:
            assert np.linalg.norm(cloud - y, axis=1).min() <= 1.6 * cell
        # image of well-interior nodes must be covered
        deep = erode_mask(u.mask, 3)
        for x_img in image[deep].reshape(-1, 2)[::7]:
            idx = dom.slope_grid.nearest_node(x_img)
            assert dom.inside[idx]

    def test_domain_connected_for_uniformly_convex(self, grid65):
        u = sample_potential(quartic(0.7), grid65)
        dom = slope_domain(u)
        assert connected_components(dom.inside) == 1


class TestSumRule:
    def test_quadratic_translation(self, grid65):
        u = sample_potential(iso_quad(1.0), grid65)
        rep = check_sum_rule(u, 1.0, [(0.25, 0.0), (0.0, 0.0)])
        assert rep.passed
        assert rep.details["worst_distance"] <= rep.details["allowance"]

    def test_kink_plus_quadratic(self, grid65):
        u = sample_potential(lambda x: np.abs(x[..., 0]), grid65)
        rep = check_sum_rule(u, 1.0, [(0.0, 0.0)])
        assert rep.passed

    def test_random_max_affine_families(self, grid65, rng):
        # anchors within ~h of a crease cannot resolve the active piece at
        # grid resolution, so sampling sticks to unambiguous smooth regions
        # (the audits' own kink-skip convention)
        from slag_lab.experiments import _smooth_anchors

        slopes = rng.uniform(-1, 1, size=(4, 2))
        offsets = rng.uniform(-0.3, 0.3, size=4)
        from slag_lab.formulas import max_affine

        u = sample_potential(max_affine(slopes, offsets), grid65)
        samples = _smooth_anchors(grid65, slopes, offsets, rng, 10)
        rep = check_sum_rule(u, 0.7, samples)
        assert rep.passed, rep.violations[:3]


    def test_counts_anchors_given_as_an_iterator(self, grid65):
        u = sample_potential(iso_quad(1.0), grid65)
        anchors = [(0.25, 0.0), (0.0, 0.0), (0.0, -0.25)]
        listed = check_sum_rule(u, 1.0, anchors)
        streamed = check_sum_rule(u, 1.0, iter(anchors))
        assert listed.checked_nodes == streamed.checked_nodes == 3
        assert streamed.min_margin == listed.min_margin


class TestSlopeIncrease:
    def test_unit_quadratic_at_origin(self, grid65):
        u = sample_potential(iso_quad(1.0), grid65)
        rep = check_slope_increase(u, 1.0, [(0.0, 0.0)])
        assert rep.passed
        assert rep.checked_nodes > 0

    def test_double_quadratic(self, grid65):
        u = sample_potential(iso_quad(2.0), grid65)
        rep = check_slope_increase(u, 2.0, [(0.0, 0.0)])
        assert rep.passed

    def test_quartic_two_points(self, grid65):
        u = sample_potential(quartic(1.0), grid65)
        rep = check_slope_increase(u, 1.0, [(0.0, 0.0), (0.5, 0.0)])
        assert rep.passed

    @pytest.mark.parametrize("dim, nodes, cut", [(2, 65, 6), (3, 21, 3)])
    def test_report_matches_per_node_loop(self, dim, nodes, cut):
        # the field's mask stops `cut` cells inside the ball, so the slope
        # domain misses part of each required ball and both rim flags and
        # deep violations occur; the per-node loop is the reference
        grid = GridSpec.ball_box(dim, nodes)
        a = np.diag(np.linspace(1.0, 1.5, dim))
        a[0, 1] = a[1, 0] = 0.2
        u = sample_potential(quad_form(a), grid)
        u = PotentialField(grid, u.values, erode_mask(grid.ball_mask(), cut))
        points = ((0.0, 0.0), (0.3125, 0.125), (-0.1875, 0.25))
        samples = [grid.node_coords(grid.nearest_node(p + (0.0,) * (dim - 2)))
                   for p in points]
        rep = check_slope_increase(u, 0.8, samples)

        dm = slope_domain(u)
        star = conjugate_fast(u, dm.slope_grid)
        ys = dm.slope_grid.coords().reshape(-1, dim)
        inside = dm.inside.reshape(-1)
        near_rim = (~dm.inside & ndimage.binary_dilation(
            dm.inside, structure=np.ones((3,) * dim, dtype=bool))).reshape(-1)
        violations, rim_flags = [], 0
        for a in samples:
            r = 0.8 * (1.0 - float(np.linalg.norm(a))) - 2.0 * grid.spacing
            for member in _tight_members(u, star, ys, a).members:
                dist = np.linalg.norm(ys - member, axis=1)
                for flat in np.flatnonzero((dist <= r) & ~inside):
                    if near_rim[flat]:
                        rim_flags += 1
                    else:
                        node = np.unravel_index(flat, dm.slope_grid.shape)
                        violations.append((tuple(int(i) for i in node),
                                           "uncovered_slope", float(dist[flat])))
        violations.sort(key=lambda t: t[0])
        assert violations and rim_flags
        assert rep.violations == violations
        assert all(type(a) is type(b) for v, w in zip(rep.violations, violations)
                   for a, b in zip(v, w))
        assert rep.details == {"rim_flagged": rim_flags}

    def test_insufficient_convexity_rejected(self, grid65):
        u = sample_potential(iso_quad(0.5), grid65)
        with pytest.raises(ConvexityError):
            check_slope_increase(u, 1.0, [(0.0, 0.0)])
