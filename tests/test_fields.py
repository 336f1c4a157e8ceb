"""Grid substrate: sampling, oscillation, Hessians, eigensolvers."""

import numpy as np
import pytest

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
from slag_lab.fields import connected_components, erode_mask
from slag_lab.formulas import bilinear, iso_quad, pure_quartic, quad_form

from conftest import make_iso_quad


def quartic_hessian(x):
    """Analytic Hessian of 0.25 |x|^4: |x|^2 I + 2 x x^T (oracle)."""
    r2 = float(np.dot(x, x))
    return r2 * np.eye(len(x)) + 2.0 * np.outer(x, x)


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
