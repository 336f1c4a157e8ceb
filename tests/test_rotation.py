"""Rotation operator: spectral action, domain geometry, inverse, order laws."""

import numpy as np
import pytest

from slag_lab import (
    GridSpec,
    RotationError,
    RotationParams,
    Spectrum,
    eigvals_sym,
    gradient_map,
    hessian_field,
    rotate,
    rotate_spectrum,
    sample_potential,
    unrotate,
)
from slag_lab.fields import erode_mask
from slag_lab.formulas import iso_quad, quad_form, quartic, zero
from slag_lab.hessians import semiconvexity_modulus

ALPHA4 = RotationParams.from_alpha(np.pi / 4)


def rotated_eigs_interior(rp, rim=2):
    hf = hessian_field(rp.field)
    inner = hf.interior_mask & erode_mask(rp.domain.inside, rim)
    return eigvals_sym(hf.matrices[inner]), inner


def quartic_gradient(x, c=1.0):
    r2 = np.sum(x * x, axis=-1, keepdims=True)
    return x * (1.0 + c * r2)


def parametric_rotation_oracle(ybar_targets, params, grad, hess, n_steps=4001):
    """Line-integral oracle for the rotated potential, up to one constant.

    For each target slope point, Newton-invert cx + s grad(x) = ybar using
    the analytic gradient/Hessian, then integrate the rotated gradient
    -sx + c grad(x) along the straight parameter ray x(t) = t x0. Both steps
    are independent of any conjugate computation.
    """
    c, s = params.c, params.s
    out = []
    for ybar in ybar_targets:
        x = np.array(ybar, dtype=float) / (c + s)  # start near the identity map
        for _ in range(60):
            f = c * x + s * grad(x[None])[0] - ybar
            jac = c * np.eye(len(x)) + s * hess(x)
            x = x - np.linalg.solve(jac, f)
        t = np.linspace(0.0, 1.0, n_steps)
        xt = t[:, None] * x[None, :]
        g = grad(xt)
        dubar = -s * xt + c * g                      # rotated gradient at x(t)
        dxbar_dt = (c * np.eye(len(x)) + s * hess_batch(hess, xt)) @ x
        integrand = np.einsum("ti,ti->t", dubar, dxbar_dt)
        val = np.trapezoid(integrand, t)
        out.append(val)
    return np.array(out)


def hess_batch(hess, xs):
    return np.stack([hess(x) for x in xs])


class TestRotateQuadratics:
    @pytest.mark.parametrize("k", [0.5, 1.0, 3.0, 10.0])
    def test_hessian_identity(self, k):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(k), grid)
        rp = rotate(u, ALPHA4)
        lam, _ = rotated_eigs_interior(rp)
        expected = (k - 1.0) / (k + 1.0)
        assert np.abs(lam - expected).max() < 1e-9

    def test_constant_preserved(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(3.0), grid)
        t = 0.375
        r0 = rotate(u, ALPHA4)
        r1 = rotate(u.shifted(t), ALPHA4, slopes=r0.field.grid)
        diff = r1.field.values[r0.domain.inside] - r0.field.values[r0.domain.inside]
        assert np.abs(diff - t).max() < 1e-12

    def test_domain_radius_scales_with_kappa(self):
        k = 3.0
        grid = GridSpec.ball_box(2, 129)
        u = sample_potential(iso_quad(k), grid)
        rp = rotate(u, ALPHA4)
        kappa = ALPHA4.c + ALPHA4.s * k
        ys = rp.field.grid.coords()
        r = np.sqrt(np.sum(ys * ys, axis=-1))
        cell = rp.field.grid.spacing
        assert np.all(r[rp.domain.inside] <= kappa + 3 * cell)
        covered = r <= kappa * (1.0 - 4.0 * grid.spacing)
        assert np.all(rp.domain.inside[covered])

    def test_zero_potential(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(zero, grid)
        rp = rotate(u, ALPHA4)
        lam, inner = rotated_eigs_interior(rp)
        assert np.abs(lam + 1.0).max() < 1e-9
        ys = rp.field.grid.coords()
        r = np.sqrt(np.sum(ys * ys, axis=-1))
        assert np.all(r[rp.domain.inside] <= ALPHA4.c + 3 * rp.field.grid.spacing)
        # ubar = -0.5 |y|^2 up to a constant
        inside = rp.domain.inside
        resid = rp.field.values[inside] + 0.5 * np.sum(
            ys[inside] ** 2, axis=-1
        )
        assert np.ptp(resid) < 1e-10

    def test_anisotropic_quadratic_exact(self, rng):
        grid = GridSpec.ball_box(2, 65)
        a = np.array([[2.3, 0.7], [0.7, 0.9]])
        u = sample_potential(quad_form(a), grid)
        rp = rotate(u, ALPHA4)
        lam, _ = rotated_eigs_interior(rp)
        abar = (ALPHA4.c * a - ALPHA4.s * np.eye(2)) @ np.linalg.inv(
            ALPHA4.c * np.eye(2) + ALPHA4.s * a
        )
        want = np.sort(np.linalg.eigvalsh(abar))[::-1]
        assert np.abs(np.sort(lam, axis=-1)[..., ::-1] - want).max() < 1e-9

    def test_insufficient_semiconvexity_rejected(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(quad_form([[1.0, 0.0], [0.0, -0.9]]), grid)
        with pytest.raises(RotationError) as err:
            rotate(u, ALPHA4)  # default delta = cot(alpha) demands convexity
        assert err.value.modulus == pytest.approx(-0.9, abs=1e-8)

    @pytest.mark.parametrize("delta", [-1.0, 0.0, float("nan")])
    def test_delta_that_is_not_positive_rejected(self, delta):
        # NaN fails both the sign test and the semiconvexity comparison
        # unless the check asks for delta > 0
        u = sample_potential(iso_quad(1.0), GridSpec.ball_box(2, 17))
        with pytest.raises(RotationError, match="delta must be positive"):
            rotate(u, ALPHA4, delta=delta)

    def test_mask_without_two_cell_interior_uses_quadratic_models(self,
                                                                  caplog):
        # 19 one-cell interior nodes and none two cells in: the quartic
        # jets do not fit anywhere, and the quadratic ones are exact here
        grid = GridSpec.ball_box(3, 7)
        u = sample_potential(iso_quad(1.0), grid)
        params = RotationParams.from_alpha(0.7)
        caplog.set_level("DEBUG", logger="slag_lab.conjugate")
        rp = rotate(u, params)
        # the jet rows of the DEBUG line: 19 nodes, 0 degree-4 rows
        [line] = [r for r in caplog.records
                  if r.getMessage().startswith("refined_sup:")]
        assert line.args[2:4] == (19, 0)
        inside = rp.domain.inside
        assert inside.sum() == 19
        ys = rp.field.grid.coords()[inside]
        want = (params.c - params.s) / (2 * (params.c + params.s)) * np.sum(
            ys * ys, axis=-1)
        assert np.abs(rp.field.values[inside] - want).max() <= 1e-10

    def test_semiconvex_input_with_explicit_delta(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(quad_form([[1.0, 0.0], [0.0, -0.5]]), grid)
        alpha = np.pi / 8
        params = RotationParams.from_alpha(alpha)
        delta = params.cot - 0.6  # requires modulus >= -0.6
        rp = rotate(u, params, delta=delta)
        lam, _ = rotated_eigs_interior(rp)
        want = rotate_spectrum(np.array([1.0, -0.5]), params)
        assert np.abs(np.sort(lam, -1)[..., ::-1] - want).max() < 1e-8


class TestParametricOracle:
    def test_quartic_matches_line_integral(self):
        grid = GridSpec.ball_box(2, 97)
        u = sample_potential(quartic(1.0), grid)
        rp = rotate(u, ALPHA4)
        grad = quartic_gradient

        def hess(x):
            r2 = float(np.dot(x, x))
            return (1.0 + r2) * np.eye(2) + 2.0 * np.outer(x, x)

        inner = erode_mask(rp.domain.inside, 3)
        nodes = np.argwhere(inner)
        picks = nodes[:: max(1, len(nodes) // 5)][:5]
        ys = [rp.field.grid.node_coords(n) for n in picks]
        oracle = parametric_rotation_oracle(ys, ALPHA4, grad, hess)
        got = np.array([rp.field.values[tuple(n)] for n in picks])
        # both sides carry an additive constant: compare deviations
        zero_ref = rp.field.values[rp.field.grid.nearest_node((0.0, 0.0))]
        dev = (got - zero_ref) - oracle
        h = grid.spacing
        assert np.abs(dev).max() <= 25.0 * h * h


class TestGradientMap:
    def test_linear_for_quadratic(self):
        grid = GridSpec.ball_box(2, 65)
        lam = 2.0
        u = sample_potential(iso_quad(lam), grid)
        image, valid = gradient_map(u, ALPHA4)
        coords = grid.coords()
        factor = ALPHA4.c + ALPHA4.s * lam
        assert np.allclose(image[valid], factor * coords[valid], atol=1e-12)

    def test_zero_potential_scales_by_cosine(self):
        grid = GridSpec.ball_box(2, 33)
        u = sample_potential(zero, grid)
        image, valid = gradient_map(u, ALPHA4)
        coords = grid.coords()
        assert np.allclose(image[valid], ALPHA4.c * coords[valid], atol=1e-14)

    def test_quartic_image_lands_in_slope_domain(self):
        from slag_lab import slope_domain
        from slag_lab.rotation import _tilde_field

        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(quartic(1.0), grid)
        tilde = _tilde_field(u, ALPHA4)
        dom = slope_domain(tilde)
        image, valid = gradient_map(u, ALPHA4)
        from scipy import ndimage

        dilated = ndimage.binary_dilation(
            dom.inside, structure=np.ones((3, 3), bool)
        )
        for xbar in image[valid].reshape(-1, 2):
            assert dilated[dom.slope_grid.nearest_node(xbar)]


class TestRotateSpectrum:
    def test_named_values(self):
        params = ALPHA4
        assert rotate_spectrum(np.array([3.0]), params)[0] == pytest.approx(0.5)
        assert rotate_spectrum(np.array([1.0]), params)[0] == pytest.approx(0.0)
        assert rotate_spectrum(np.array([0.0]), params)[0] == pytest.approx(-1.0)

    def test_touching_identity_all_k(self):
        for k in (0.5, 1.0, 3.0, 10.0):
            got = rotate_spectrum(np.array([k]), ALPHA4)[0]
            assert got == pytest.approx((k - 1.0) / (k + 1.0), abs=1e-14)

    def test_matches_angle_subtraction(self, rng):
        params = RotationParams.from_alpha(np.pi / 8)
        lam = rng.uniform(-params.cot + 0.3, 5.0, size=20)
        got = rotate_spectrum(np.sort(lam)[::-1], params)
        want = np.sort(np.tan(np.arctan(lam) - params.alpha))[::-1]
        assert np.abs(got - want).max() < 1e-12

    def test_sorted_output_and_spectrum_type(self):
        spec = Spectrum((2.0, 0.5, -0.25))
        out = rotate_spectrum(spec, ALPHA4)
        assert isinstance(out, Spectrum)
        ev = out.as_array()
        assert np.all(np.diff(ev) <= 0)

    def test_pole_rejected(self):
        with pytest.raises(RotationError):
            rotate_spectrum(np.array([-1.0]), ALPHA4)


class TestUnrotate:
    def test_quadratic_roundtrip(self):
        grid = GridSpec.ball_box(2, 129)
        u = sample_potential(iso_quad(1.0), grid)
        rp = rotate(u, ALPHA4)
        back = unrotate(rp)
        pts = back.grid.coords()
        expected = 0.5 * np.sum(pts * pts, axis=-1)
        inner = erode_mask(back.mask, 2)
        resid = back.values[inner] - expected[inner]
        assert np.ptp(resid) < 1e-8

    def test_zero_roundtrip(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(zero, grid)
        back = unrotate(rotate(u, ALPHA4))
        inner = erode_mask(back.mask, 2)
        assert np.ptp(back.values[inner]) < 1e-9

    @pytest.mark.parametrize("nodes", [65, 129])
    def test_quartic_roundtrip_second_order(self, nodes):
        grid = GridSpec.ball_box(2, nodes)
        u = sample_potential(quartic(1.0), grid)
        back = unrotate(rotate(u, ALPHA4))
        pts = back.grid.coords()
        r2 = np.sum(pts * pts, axis=-1)
        expected = 0.5 * r2 + 0.25 * r2 * r2
        inner = erode_mask(back.mask, 3)
        resid = back.values[inner] - expected[inner]
        err = np.ptp(resid)
        bound = {65: 60.0 * (2.0 / 64) ** 2, 129: 60.0 * (2.0 / 128) ** 2}
        assert err <= bound[nodes]

    def test_quartic_roundtrip_order(self):
        errs = []
        for nodes in (65, 129):
            grid = GridSpec.ball_box(2, nodes)
            u = sample_potential(quartic(1.0), grid)
            back = unrotate(rotate(u, ALPHA4))
            pts = back.grid.coords()
            r2 = np.sum(pts * pts, axis=-1)
            expected = 0.5 * r2 + 0.25 * r2 * r2
            inner = erode_mask(back.mask, 3)
            errs.append(np.ptp(back.values[inner] - expected[inner]))
        assert np.log2(errs[0] / errs[1]) >= 1.8

    def test_saturated_slope_rejected(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        rp = rotate(u, ALPHA4)
        # overwrite with a field whose Hessian reaches cot(alpha) = 1
        ys = rp.field.grid.coords()
        sat = 0.5 * np.sum(ys * ys, axis=-1)
        bad = rp.field.with_values(sat)
        from slag_lab.rotation import RotatedPotential

        with pytest.raises(RotationError):
            unrotate(RotatedPotential(bad, rp.domain, rp.params))


class TestOrderAndStability:
    def test_order_preservation(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        v = sample_potential(quartic(1.0), grid)  # v >= u on the ball
        ru = rotate(u, ALPHA4)
        rv = rotate(v, ALPHA4, slopes=ru.field.grid)
        common = ru.domain.inside & rv.domain.inside
        common &= erode_mask(ru.domain.inside, 2)
        h = grid.spacing
        assert np.all(
            ru.field.values[common] <= rv.field.values[common] + 10.0 * h
        )

    def test_uniform_convergence_respect(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        bump = sample_potential(quartic(1.0), grid)
        v = u.with_values(0.9 * u.values + 0.1 * bump.values)
        ru = rotate(u, ALPHA4)
        rv = rotate(v, ALPHA4, slopes=ru.field.grid)
        common = ru.domain.inside & rv.domain.inside
        common &= erode_mask(ru.domain.inside, 2)
        sup_in = float(np.abs(u.values[u.mask] - v.values[v.mask]).max())
        sup_out = float(
            np.abs(ru.field.values[common] - rv.field.values[common]).max()
        )
        assert sup_out <= sup_in + 10.0 * grid.spacing

    def test_hessian_window_for_convex_inputs(self, rng):
        grid = GridSpec.ball_box(2, 65)
        from slag_lab.formulas import random_spd_matrix

        for _ in range(3):
            u = sample_potential(
                quad_form(random_spd_matrix(rng, 2, (0.2, 4.0))), grid
            )
            rp = rotate(u, ALPHA4)
            lam, _ = rotated_eigs_interior(rp)
            assert lam.max() <= 1.0 + 1e-6
            assert lam.min() >= -1.0 - 1e-6

    def test_spectral_consistency_quadratic(self, rng):
        grid = GridSpec.ball_box(2, 65)
        a = np.array([[1.8, 0.4], [0.4, 2.6]])
        u = sample_potential(quad_form(a), grid)
        rp = rotate(u, ALPHA4)
        lam, _ = rotated_eigs_interior(rp)
        want = rotate_spectrum(np.sort(np.linalg.eigvalsh(a))[::-1], ALPHA4)
        got = np.sort(lam, axis=-1)[..., ::-1]
        assert np.abs(got - want).max() < 1e-6

    @pytest.mark.parametrize("alpha", [np.pi / 8, np.pi / 4, 3 * np.pi / 8])
    @pytest.mark.parametrize("dim,nodes", [(2, 65), (3, 21)])
    def test_phase_shift_identity(self, alpha, dim, nodes):
        params = RotationParams.from_alpha(alpha)
        k = 2.0
        grid = GridSpec.ball_box(dim, nodes)
        u = sample_potential(iso_quad(k), grid)
        theta = dim * np.arctan(k)
        rp = rotate(u, params)
        lam, _ = rotated_eigs_interior(rp)
        phases = np.arctan(lam).sum(axis=-1)
        assert np.abs(phases - (theta - dim * alpha)).max() < 1e-6
