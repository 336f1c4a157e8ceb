"""Grid substrate: sampling, oscillation, Hessians, eigensolvers."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy import ndimage

from slag_lab import (
    FieldError,
    GridError,
    GridSpec,
    eigen_decompose,
    eigvals_sym,
    hessian_field,
    osc,
    sample_potential,
    semiconvexity_modulus,
)
from slag_lab.eigen import adjugate
from slag_lab.fields import (PotentialField, connected_components, dilate_mask, erode_mask,
                             label_components)
from slag_lab.formulas import bilinear, iso_quad, pure_quartic, quad_form
from slag_lab.hessians import directional_convexity_deficit, gradient_field

from conftest import make_iso_quad, nan_shift


def quartic_hessian(x):
    """Analytic Hessian of 0.25 |x|^4: |x|^2 I + 2 x x^T (oracle)."""
    r2 = float(np.dot(x, x))
    return r2 * np.eye(len(x)) + 2.0 * np.outer(x, x)


def orthogonal_batch(rng, n, dim):
    """n random orthogonal dim x dim matrices (QR of Gaussian matrices)."""
    q, r = np.linalg.qr(rng.normal(size=(n, dim, dim)))
    return q * np.sign(np.diagonal(r, axis1=1, axis2=2))[:, None, :]


def spectra(rng, n, dim, kind):
    """n spectra of one kind: random, one pair within 1e-12 to 1e-4
    (relative), all within that (triple), scaled by 1e-3 to 1e3, or
    isotropic."""
    lam = rng.normal(size=(n, dim))
    near = 10.0 ** rng.uniform(-12.0, -4.0, size=(n, 1))
    if kind == "pair":
        lam[:, 1] = lam[:, 0] * (1.0 + near[:, 0] * rng.choice([-1, 1], n))
    elif kind == "triple":
        lam = lam[:, :1] * (1.0 + near * rng.normal(size=(n, dim)))
    elif kind == "scaled":
        lam *= 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    elif kind == "isotropic":
        lam[:] = lam[:, :1]
    return lam


def charpoly_eigvals(m):
    """Brute-force oracle: roots of the characteristic polynomial."""
    coeffs = np.poly(m)
    roots = np.roots(coeffs)
    return np.sort(roots.real)[::-1]


class TestGridSpec:
    def test_ball_box_geometry(self):
        g = GridSpec.ball_box(2, 129)
        assert g.spacing == pytest.approx(2.0 / 128)
        assert g.origin == (-1.0, -1.0)
        assert g.ball_mask()[64, 64]
        assert g.ball_mask()[128, 64]      # |x| = 1 is included
        assert not g.ball_mask()[0, 0]     # corner is outside

    def test_rejects_bad_specs(self):
        with pytest.raises(GridError):
            GridSpec(4, (5, 5, 5, 5), 0.1, (0, 0, 0, 0))
        with pytest.raises(GridError):
            GridSpec(2, (2, 5), 0.1, (0, 0))
        with pytest.raises(GridError):
            GridSpec(2, (5, 5), -0.1, (0, 0))
        with pytest.raises(GridError):
            # box [0, 0.4]^2 cannot contain the unit ball
            GridSpec(2, (5, 5), 0.1, (0, 0), 1.0)
        for nodes in (2, 1, 0):
            # before dividing the diameter by nodes - 1
            with pytest.raises(GridError, match="at least 3 nodes"):
                GridSpec.ball_box(2, nodes)

    @pytest.mark.parametrize("spacing, origin, radius", [
        (math.inf, (0.0, 0.0), None),
        (math.nan, (0.0, 0.0), None),
        (0.5, (0.0, math.nan), None),
        (0.5, (-math.inf, 0.0), None),
        (0.5, (-1.0, -1.0), math.inf),
    ])
    def test_rejects_non_finite_geometry(self, spacing, origin, radius):
        # an infinite spacing passes `> 0`, and infinite origins or radii
        # pass the ball-containment test
        with pytest.raises(GridError, match="finite"):
            GridSpec(2, (5, 5), spacing, origin, radius)

    def test_slope_grid_mask_covers_box(self):
        g = GridSpec(2, (7, 9), 0.5, (-1.5, -2.0), None)
        assert g.ball_mask().all()


class TestSamplePotential:
    def test_zero_formula(self, grid33):
        u = sample_potential(lambda x: np.zeros(x.shape[:-1]), grid33)
        assert np.all(u.values == 0.0)

    def test_quadratic_boundary_values(self):
        grid = GridSpec.ball_box(2, 9)  # h = 0.25
        u = sample_potential(iso_quad(1.0), grid)
        center = (4, 4)
        boundary = (8, 4)  # coordinates (1, 0)
        assert u.values[center] == 0.0
        assert u.values[boundary] == pytest.approx(0.5)
        assert u.mask[boundary]

    def test_quartic_matches_pointwise_oracle(self, grid65, rng):
        u = sample_potential(pure_quartic(1.0), grid65)
        nodes = np.argwhere(u.mask)
        for node in nodes[rng.choice(len(nodes), size=5, replace=False)]:
            x = grid65.node_coords(node)
            expected = 0.25 * float(np.dot(x, x)) ** 2
            assert u.values[tuple(node)] == pytest.approx(expected, abs=1e-15)

    def test_scalar_fallback(self, grid33):
        u = sample_potential(lambda x: float(np.dot(x, x)), grid33)
        assert u.values[16, 16] == 0.0

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyError])
    def test_vectorized_formula_errors_propagate(self, grid33, error):
        # the per-point retry would succeed, so a blanket fallback would
        # hide the bug in the vectorized branch
        def formula(x):
            if np.ndim(x) > 1:
                raise error("bug in the vectorized branch")
            return float(np.dot(x, x))

        with pytest.raises(error):
            sample_potential(formula, grid33)

    def test_wrong_shape_falls_back_per_point(self, grid33):
        u = sample_potential(lambda x: np.sum(x * x), grid33)
        assert u.values[16, 16] == 0.0
        assert u.values[16, 32] == pytest.approx(1.0)

    def test_failed_retry_raises_from_the_first_error(self, grid33):
        def formula(x):
            if np.ndim(x) > 1:
                raise TypeError("needs one point")
            raise ZeroDivisionError("bug in the scalar branch")

        with pytest.raises(FieldError) as err:
            sample_potential(formula, grid33)
        assert isinstance(err.value.__cause__, TypeError)

    def test_nonfinite_rejection_carries_node(self, grid33):
        def bad(x):
            out = np.sum(x * x, axis=-1)
            return np.where(out < 1e-12, np.nan, out)

        with pytest.raises(FieldError) as err:
            sample_potential(bad, grid33)
        assert err.value.node == (16, 16)


class TestHessianField:
    def test_exact_on_diagonal_quadratic(self, grid33):
        u = sample_potential(quad_form([[3.0, 0.0], [0.0, 1.0]]), grid33)
        hf = hessian_field(u)
        mats = hf.interior_matrices()
        assert np.allclose(mats[:, 0, 0], 3.0, atol=1e-11)
        assert np.allclose(mats[:, 1, 1], 1.0, atol=1e-11)
        assert np.allclose(mats[:, 0, 1], 0.0, atol=1e-11)

    def test_cross_stencil_exact_on_bilinear(self, grid33):
        u = sample_potential(bilinear, grid33)
        mats = hessian_field(u).interior_matrices()
        assert np.allclose(mats[:, 0, 1], 1.0, atol=1e-11)
        assert np.allclose(mats[:, 0, 0], 0.0, atol=1e-11)

    def test_node_independence_on_quadratics(self, grid33):
        a = [[2.0, 0.7], [0.7, 1.2]]
        u = sample_potential(quad_form(a), grid33)
        mats = hessian_field(u).interior_matrices()
        assert np.abs(mats - np.asarray(a)).max() < 1e-10

    @pytest.mark.parametrize("nodes", [33, 65, 129])
    def test_quartic_error_bound(self, nodes):
        grid = GridSpec.ball_box(2, nodes)
        u = sample_potential(pure_quartic(1.0), grid)
        hf = hessian_field(u)
        errs = []
        for node in np.argwhere(hf.interior_mask):
            x = grid.node_coords(node)
            errs.append(
                np.abs(hf.matrices[tuple(node)] - quartic_hessian(x)).max()
            )
        # C h^2 with C from the 4th derivative scale; C = 4 is ample here
        assert max(errs) <= 4.0 * grid.spacing**2

    def test_quartic_convergence_order(self):
        # max-norm error vs the analytic oracle across h in {1/16, 1/32, 1/64}
        errors = []
        for nodes in (33, 65, 129):
            grid = GridSpec.ball_box(2, nodes)
            u = sample_potential(pure_quartic(1.0), grid)
            hf = hessian_field(u)
            worst = 0.0
            for node in np.argwhere(hf.interior_mask):
                x = grid.node_coords(node)
                worst = max(
                    worst,
                    np.abs(hf.matrices[tuple(node)] - quartic_hessian(x)).max(),
                )
            errors.append(worst)
        orders = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8
        # factor >= 3.5 shrink per halving
        assert errors[0] / errors[1] >= 3.5
        assert errors[1] / errors[2] >= 3.5

    def test_domain_too_small(self):
        grid = GridSpec(2, (3, 3), 1.5, (-1.5, -1.5), 1.0)
        u = sample_potential(iso_quad(1.0), grid)
        with pytest.raises(GridError):
            hessian_field(u)


def _deficit_reference(u):
    """`directional_convexity_deficit` on NaN-filled shifted copies of the
    whole grid, with one `argwhere` per improving direction."""
    from slag_lab.hessians import _direction_set

    valid = erode_mask(u.mask, 1)
    if not valid.any():
        raise GridError("domain too small for a convexity check")
    h = u.grid.spacing
    worst, node = np.inf, None
    for v in _direction_set(u.grid.dim):
        second = (nan_shift(u.values, v) - 2.0 * u.values
                  + nan_shift(u.values, tuple(-c for c in v))) / (np.dot(v, v) * h * h)
        vals = second[valid]
        k = int(np.nanargmin(vals))
        if vals[k] < worst:
            worst = float(vals[k])
            node = tuple(int(i) for i in np.argwhere(valid)[k])
    return worst, node


def _gradient_reference(u):
    """`gradient_field` from NaN-filled shifted copies of the whole grid."""
    d = u.grid.dim
    grads = np.zeros(u.grid.shape + (d,))
    valid = erode_mask(u.mask, 1)
    for i in range(d):
        e = tuple(int(k == i) for k in range(d))
        grads[..., i] = ((nan_shift(u.values, e) - nan_shift(u.values, tuple(-c for c in e)))
                         / (2.0 * u.grid.spacing))
    grads[~valid] = 0.0
    return grads, valid


def _shifted_sum(values, terms):
    """Sum of w * nan_shift(values, offset) over (offset, w) in `terms`."""
    acc = None
    for off, w in terms:
        t = w * nan_shift(values, off)
        acc = t if acc is None else acc + t
    return acc


class TestSliceStencils:
    """Interior-slice differences against the shifted-copy references."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([2, 3]),
           seed=st.integers(0, 2**32 - 1))
    def test_combine_equals_the_shifted_copy_sum(self, data, dim, seed):
        from slag_lab.hessians import _combine

        rng = np.random.default_rng(seed)
        shape = tuple(int(n) for n in rng.integers(1, 9 if dim == 2 else 7, size=dim))
        values = rng.normal(size=shape) * 10.0 ** int(rng.integers(-3, 4))
        values[rng.random(shape) < 0.05] = -0.0
        # np.nan, the NaN that masks write: off the grid both sums are NaN,
        # and which NaN would otherwise depend on the order of the terms
        values[rng.random(shape) < 0.2] = np.nan
        offset = st.tuples(*[st.integers(-3, 3)] * dim)
        weight = st.one_of(st.sampled_from([1.0, -1.0, -2.0, 0.5, 8.0, -30.0]),
                           st.floats(-64.0, 64.0, allow_nan=False, allow_subnormal=False))
        terms = data.draw(st.lists(st.tuples(offset, weight), min_size=1, max_size=8))
        got = _combine(values, terms)
        # every bit, NaN signs and payloads and the sign of zero included
        assert np.array_equal(got.view(np.uint64),
                              _shifted_sum(values, terms).view(np.uint64))
        reach = [max(o[k] for o, _ in terms) - min(o[k] for o, _ in terms)
                 for k in range(dim)]
        if any(r >= n for r, n in zip(reach, shape)):
            assert np.isnan(got).all()

    @pytest.mark.parametrize("shape", [(5, 7), (7, 6), (5, 9, 9), (9, 9, 6)])
    def test_combine_reaching_across_the_box_is_all_nan(self, shape):
        from slag_lab.hessians import _combine

        values = np.random.default_rng(7).normal(size=shape)
        d = len(shape)
        k = int(np.argmin(shape))
        ahead = tuple(3 * (a == k) for a in range(d))
        behind = tuple(-3 * (a == k) for a in range(d))
        terms = [(ahead, 1.0), ((0,) * d, -2.0), (behind, 1.0)]
        assert np.isnan(_combine(values, terms)).all()
        wide = np.random.default_rng(7).normal(size=tuple(n + 2 for n in shape))
        got = _combine(wide, terms)
        assert np.array_equal(got, _shifted_sum(wide, terms), equal_nan=True)
        assert np.isfinite(got).any()

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           kind=st.sampled_from(["convex", "nonconvex", "noise"]),
           domain=st.sampled_from(["ball", "box", "holes"]))
    def test_deficit_and_gradient_match(self, seed, dim, kind, domain):
        rng = np.random.default_rng(seed)
        nodes = int(rng.integers(3, 30 if dim == 2 else 12))
        grid = GridSpec.ball_box(dim, nodes, float(rng.uniform(0.5, 2.0)))
        mask = grid.ball_mask()
        if domain == "box":
            mask = np.ones(grid.shape, dtype=bool)
        elif domain == "holes":
            mask &= rng.random(grid.shape) < 0.85
            labels, count = label_components(mask)
            if count == 0:
                mask = grid.ball_mask()
            else:
                sizes = np.bincount(labels.ravel())[1:]
                mask = labels == 1 + int(np.argmax(sizes))
        x = grid.coords()
        a = rng.normal(size=(dim, dim))
        a = a @ a.T if kind == "convex" else a + a.T
        values = (0.5 * np.einsum("...i,ij,...j->...", x, a, x)
                  if kind != "noise" else rng.normal(size=grid.shape))
        # NaN outside the mask, as `mollify` leaves it
        u = PotentialField(grid, np.where(mask, values, np.nan), mask)
        grads, valid = gradient_field(u)
        ref_grads, ref_valid = _gradient_reference(u)
        assert np.array_equal(valid, ref_valid)
        assert np.array_equal(grads, ref_grads)
        try:
            ref = _deficit_reference(u)
        except GridError:
            with pytest.raises(GridError):
                directional_convexity_deficit(u)
            return
        assert directional_convexity_deficit(u) == ref


class TestEigen:
    def test_identity(self):
        assert eigen_decompose(np.eye(2)).eigenvalues == (1.0, 1.0)
        assert eigen_decompose(np.eye(3)).eigenvalues == (1.0, 1.0, 1.0)

    def test_diagonal_passthrough(self):
        spec = eigen_decompose(np.diag([3.0, 1.0 / 3.0]))
        assert spec.eigenvalues == pytest.approx((3.0, 1.0 / 3.0))

    def test_random_3x3_against_charpoly_oracle(self, rng):
        for _ in range(50):
            m = rng.uniform(-2.0, 2.0, size=(3, 3))
            m = 0.5 * (m + m.T)
            got = eigen_decompose(m).as_array()
            want = charpoly_eigvals(m)
            assert np.abs(got - want).max() < 1e-9

    def test_random_2x2_against_charpoly_oracle(self, rng):
        for _ in range(50):
            m = rng.uniform(-2.0, 2.0, size=(2, 2))
            m = 0.5 * (m + m.T)
            got = eigen_decompose(m).as_array()
            want = charpoly_eigvals(m)
            assert np.abs(got - want).max() < 1e-10

    def test_orthogonal_conjugation_invariance(self, rng):
        for dim in (2, 3):
            m = rng.uniform(-2, 2, size=(dim, dim))
            m = 0.5 * (m + m.T)
            q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
            a = eigen_decompose(m).as_array()
            b = eigen_decompose(q @ m @ q.T).as_array()
            assert np.abs(a - b).max() < 1e-9

    def test_batch_matches_single(self, rng):
        ms = rng.normal(size=(40, 3, 3))
        ms = 0.5 * (ms + np.swapaxes(ms, 1, 2))
        batch = eigvals_sym(ms)
        for k in range(len(ms)):
            assert np.allclose(batch[k], eigen_decompose(ms[k]).as_array(),
                               atol=1e-9)


class TestEigenProperties:
    """Batched eigenvalues against LAPACK `eigvalsh` and against the
    spectra the matrices were built from."""

    # error bound relative to the spectral norm; the trigonometric 3x3
    # closed form reached ~6e7 eps near a double eigenvalue
    TOL = 256 * np.finfo(float).eps

    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([2, 3]),
           kind=st.sampled_from(["random", "pair", "triple", "scaled",
                                 "isotropic"]))
    def test_matches_eigvalsh_in_descending_order(self, seed, dim, kind):
        rng = np.random.default_rng(seed)
        lam = spectra(rng, 64, dim, kind)
        q = orthogonal_batch(rng, 64, dim)
        m = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
        m = 0.5 * (m + np.swapaxes(m, 1, 2))
        got = eigvals_sym(m)
        want = np.linalg.eigvalsh(m)[:, ::-1]
        norm = np.abs(want).max(axis=1)
        assert np.all(np.abs(got - want).max(axis=1) <= self.TOL * norm)
        built = np.sort(lam, axis=1)[:, ::-1]
        assert np.all(np.abs(got - built).max(axis=1) <= self.TOL * norm)
        assert np.all(np.diff(got, axis=1) <= 0.0)

    def test_non_finite_matrices_give_nan_rows(self):
        for dim in (2, 3):
            m = np.repeat(np.eye(dim)[None], 3, axis=0)
            m[1, 0, 1] = m[1, 1, 0] = np.nan
            m[2, -1, -1] = np.inf
            with np.errstate(invalid="ignore"):
                got = eigvals_sym(m)
            assert np.array_equal(got[0], np.ones(dim))
            assert np.isnan(got[1]).all()
            assert not np.isfinite(got[2]).all()

    def test_exactly_isotropic_is_exact(self):
        for dim in (2, 3):
            got = eigvals_sym(np.array([2.5, -1.0, 0.0])[:, None, None]
                              * np.eye(dim))
            assert np.array_equal(got, np.repeat([[2.5], [-1.0], [0.0]],
                                                 dim, axis=1))


class TestAdjugate:
    """`eigen.adjugate` against LAPACK inverses and determinants."""

    @pytest.mark.parametrize("dim", [2, 3])
    def test_spd_batches_match_inv_and_det(self, rng, dim):
        lam = 10.0 ** rng.uniform(-2.0, 2.0, size=(500, dim))
        q = orthogonal_batch(rng, 500, dim)
        s = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
        adj, det = adjugate(s)
        scale = lam.max(axis=1) ** dim
        assert np.all(np.abs(det - np.linalg.det(s)) <= 1e-14 * scale)
        inv = np.linalg.inv(s)
        cond = lam.max(axis=1) / lam.min(axis=1)
        err = np.abs(adj / det[:, None, None] - inv).max(axis=(1, 2))
        assert np.all(err <= 1e-14 * cond * np.abs(inv).max(axis=(1, 2)))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_general_batches_satisfy_the_adjugate_identity(self, rng, dim):
        s = rng.normal(size=(500, dim, dim))
        adj, det = adjugate(s)
        assert np.allclose(det, np.linalg.det(s), rtol=0.0, atol=1e-13)
        eye = det[:, None, None] * np.eye(dim)
        assert np.abs(s @ adj - eye).max() <= 1e-13
        assert np.abs(adj @ s - eye).max() <= 1e-13

    @pytest.mark.parametrize("dim", [2, 3])
    def test_near_singular_batches_keep_the_adjugate_accurate(self, rng,
                                                              dim):
        # unit spectra with one eigenvalue 0 or 1e-16 to 1e-6: adj(S) =
        # Q diag(prod_{j != i} lam_j) Q^T stays well conditioned while
        # inv(S) does not
        lam = rng.uniform(0.5, 2.0, size=(500, dim))
        lam[:, -1] = np.where(rng.random(500) < 0.2, 0.0,
                              10.0 ** rng.uniform(-16.0, -6.0, size=500))
        q = orthogonal_batch(rng, 500, dim)
        s = q @ (lam[:, :, None] * np.swapaxes(q, 1, 2))
        adj, det = adjugate(s)
        cof = np.prod(lam, axis=1)[:, None] / np.where(lam > 0, lam, 1.0)
        cof[lam[:, -1] == 0.0] = 0.0
        cof[lam[:, -1] == 0.0, -1] = np.prod(lam[lam[:, -1] == 0.0, :-1],
                                             axis=1)
        want = q @ (cof[:, :, None] * np.swapaxes(q, 1, 2))
        assert np.abs(adj - want).max() <= 1e-14 * 4.0 ** (dim - 1)
        assert np.allclose(det, np.linalg.det(s), rtol=0.0,
                           atol=1e-14 * 2.0 ** dim)
        assert np.all(np.abs(det) <= np.prod(lam, axis=1) + 1e-14 * 8.0)

    def test_rejects_other_dimensions(self):
        with pytest.raises(GridError, match="d = 2 or 3"):
            adjugate(np.zeros((5, 4, 4)))


class TestOscAndModulus:
    def test_constant_field(self, grid33):
        u = sample_potential(lambda x: np.full(x.shape[:-1], 7.5), grid33)
        assert osc(u) == 0.0

    def test_quadratic_extremes(self, grid65):
        u = make_iso_quad(grid65, 1.0)
        assert abs(osc(u) - 0.5) <= grid65.spacing

    def test_full_scan_oracle(self, grid65):
        u = sample_potential(quad_form([[3.0, 0.0], [0.0, 1.0]]), grid65)
        vals = u.values[u.mask]
        assert osc(u) == float(vals.max() - vals.min())

    def test_translation_invariance_exact(self, grid33):
        u = make_iso_quad(grid33, 2.0)
        assert osc(u.shifted(13.25)) == osc(u)

    def test_modulus_of_quadratics(self, grid65):
        assert semiconvexity_modulus(make_iso_quad(grid65, 1.0)) == pytest.approx(
            1.0, abs=1e-10
        )
        u = sample_potential(quad_form([[1.0, 0.0], [0.0, -0.5]]), grid65)
        assert semiconvexity_modulus(u) == pytest.approx(-0.5, abs=1e-10)

    def test_modulus_quartic_vanishes_at_center(self, grid65):
        u = sample_potential(pure_quartic(1.0), grid65)
        assert abs(semiconvexity_modulus(u)) <= 4.0 * grid65.spacing**2


@st.composite
def masks(draw):
    """2-D and 3-D masks: random, touching the box border, one node, empty
    or full; axes as short as one node."""
    dim = draw(st.sampled_from((2, 3)))
    shape = tuple(draw(st.lists(st.integers(1, 9 if dim == 2 else 6),
                                min_size=dim, max_size=dim)))
    kind = draw(st.sampled_from(("random", "border", "single", "empty", "full")))
    if kind == "empty":
        return np.zeros(shape, dtype=bool)
    if kind == "full":
        return np.ones(shape, dtype=bool)
    if kind == "single":
        mask = np.zeros(shape, dtype=bool)
        mask[tuple(draw(st.integers(0, n - 1)) for n in shape)] = True
        return mask
    mask = draw(arrays(bool, shape))
    if kind == "border":
        axis = draw(st.integers(0, dim - 1))
        side = draw(st.sampled_from((0, -1)))
        mask[(slice(None),) * axis + (side,)] = True
    return mask


def serpentine(shape):
    """Every other line along the last axis full, joined alternately at its
    two ends: in 2-D one path winding through the box, a run graph whose
    chain of parents is as long as it can be."""
    mask = np.zeros(shape, dtype=bool)
    lines = mask.reshape(-1, shape[-1])
    lines[::2] = True
    lines[1::4, -1] = True
    lines[3::4, 0] = True
    return mask


def comb(shape):
    """Teeth along the first axis, every other column, joined by the last
    line only: the first hooking leaves one root per tooth."""
    mask = np.zeros(shape, dtype=bool)
    mask[..., ::2] = True
    mask[-1] = True
    return mask


class TestMaskUtilities:
    def test_erode_is_moore(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[1:4, 1:4] = True
        inner = erode_mask(mask, 1)
        assert inner.sum() == 1 and inner[2, 2]

    def test_connectivity_counter(self):
        mask = np.zeros((5, 5), dtype=bool)
        mask[0, 0] = mask[4, 4] = True
        assert connected_components(mask) == 2

    @settings(max_examples=150, deadline=None)
    @given(masks(), st.integers(1, 3))
    def test_erosion_equals_ndimage(self, mask, cells):
        box = np.ones((3,) * mask.ndim, dtype=bool)
        expected = ndimage.binary_erosion(mask, structure=box, iterations=cells,
                                          border_value=0)
        assert np.array_equal(erode_mask(mask, cells), expected)

    @settings(max_examples=150, deadline=None)
    @given(masks())
    def test_dilation_equals_ndimage(self, mask):
        box = np.ones((3,) * mask.ndim, dtype=bool)
        assert np.array_equal(dilate_mask(mask),
                              ndimage.binary_dilation(mask, structure=box))

    @settings(max_examples=200, deadline=None)
    @given(masks())
    @example(serpentine((31, 31)))
    @example(serpentine((9, 9, 9)))
    @example(comb((12, 41)))
    @example(comb((5, 6, 17)))
    @example(np.swapaxes(comb((5, 6, 17)), 0, 2))
    def test_face_labels_equal_ndimage(self, mask):
        expected, count = ndimage.label(
            mask, structure=ndimage.generate_binary_structure(mask.ndim, 1))
        labels, n = label_components(mask)
        assert n == count == connected_components(mask)
        assert np.array_equal(labels, expected)
