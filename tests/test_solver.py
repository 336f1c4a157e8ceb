"""Dirichlet solver, mollifier, convex extension, scaling device."""

import numpy as np
import pytest
import scipy.sparse.linalg as splinalg

from slag_lab import (
    GridSpec,
    MollifierSpec,
    ProblemSpec,
    SolverConfig,
    extend_convex,
    hessian_field,
    mollify,
    sample_potential,
    scale_potential,
    solve_dirichlet,
    subsolution_preservation_trial,
)
from slag_lab.errors import GridError
from slag_lab.fields import erode_mask
from slag_lab.hessians import hessian_matrices, second_difference_operators
from slag_lab.formulas import bilinear, iso_quad, max_affine, quartic
from slag_lab.solver import dilate_grid


def boundary_from(formula):
    def g(points):
        return formula(points)

    return g


def det_field(u):
    hf = hessian_field(u)
    mats = hf.matrices[hf.interior_mask]
    return np.linalg.det(mats), hf.interior_mask


def box_grid(nodes, half=1.0):
    h = 2.0 * half / (nodes - 1)
    return GridSpec(2, (nodes, nodes), h, (-half, -half), None)


class TestSolveDirichlet:
    def test_quadratic_data_is_fixed_point(self):
        grid = GridSpec.ball_box(2, 33)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(iso_quad(1.0)), spec, grid)
        assert rep.converged
        assert rep.final_residual <= 1e-10
        assert rep.iterations <= 5
        coords = grid.coords()
        expected = 0.5 * np.sum(coords * coords, axis=-1)
        assert np.abs(u.values[u.mask] - expected[u.mask]).max() < 1e-9

    def test_scalar_boundary_formula_falls_back_per_point(self):
        grid = GridSpec.ball_box(2, 17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, _ = solve_dirichlet(lambda x: 0.5 * float(np.dot(x, x)), spec, grid)
        v, _ = solve_dirichlet(boundary_from(iso_quad(1.0)), spec, grid)
        assert np.array_equal(u.values, v.values, equal_nan=True)

    @pytest.mark.parametrize("error", [ZeroDivisionError, KeyError])
    def test_boundary_formula_errors_propagate(self, error):
        def g(points):
            if np.ndim(points) > 1:
                raise error("bug in the vectorized branch")
            return 0.5 * float(np.dot(points, points))

        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        with pytest.raises(error):
            solve_dirichlet(g, spec, GridSpec.ball_box(2, 17))

    def test_monge_ampere_duality_oracle(self):
        # theta = pi/2 in 2-D with positive spectrum means det(D^2 u) = 1
        grid = box_grid(129)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)

        def g(points):
            return 0.5 * np.sum(points**2, -1) + 0.1 * points[..., 0] ** 4

        u, rep = solve_dirichlet(g, spec, grid)
        assert rep.converged
        dets, _ = det_field(u)
        assert np.abs(dets - 1.0).max() <= 5e-3

    def test_harmonic_oracle_at_zero_phase(self):
        grid = box_grid(65)
        spec = ProblemSpec(dim=2, theta=0.0)
        u, rep = solve_dirichlet(boundary_from(bilinear), spec, grid)
        assert rep.converged
        hf = hessian_field(u)
        lap = np.einsum("...kk->...", hf.matrices[hf.interior_mask])
        assert np.abs(lap).max() <= 1e-6

    def test_convergence_order_under_refinement(self):
        spec = ProblemSpec(dim=2, theta=np.pi / 2)

        def g(points):
            return 0.5 * np.sum(points**2, -1) + 0.1 * points[..., 0] ** 4

        sols = {}
        for nodes in (17, 33, 65):
            grid = box_grid(nodes)
            u, rep = solve_dirichlet(g, spec, grid)
            assert rep.converged
            sols[nodes] = u
        # nested nodes: coarse node (i, j) sits at fine (2i, 2j)
        diffs = []
        for coarse, fine in ((17, 33), (33, 65)):
            uc = sols[coarse]
            uf = sols[fine]
            inner = erode_mask(uc.mask, 1)
            idx = np.argwhere(inner)
            d = [
                abs(uc.values[tuple(n)] - uf.values[tuple(2 * n)])
                for n in idx
            ]
            diffs.append(max(d))
        order = np.log2(diffs[0] / diffs[1])
        assert order >= 1.8

    def test_newton_residual_monotone_with_full_steps(self):
        grid = box_grid(65)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)

        def g(points):
            return 0.6 * np.sum(points**2, -1) + 0.15 * points[..., 1] ** 4

        u, rep = solve_dirichlet(g, spec, grid)
        assert rep.converged
        assert all(s == 1.0 for s in rep.step_history[-2:])

    def test_step_underflow_reports_nonconvergence(self):
        grid = GridSpec.ball_box(2, 17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        cfg = SolverConfig(max_iters=3, residual_tol=1e-16,
                           damping=1e-6, min_step=1e-6)
        u, rep = solve_dirichlet(boundary_from(quartic(1.0)), spec, grid, cfg)
        assert not rep.converged

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_singular_jacobian_stops_unconverged(self, monkeypatch):
        # zero coefficients make the Jacobian singular: spsolve returns NaNs
        import slag_lab.solver as solver_module

        residual_evals = []

        def counted_hessians(u, stride=1):
            residual_evals.append(stride)
            return hessian_matrices(u, stride)

        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: np.zeros_like(ms))
        monkeypatch.setattr(solver_module, "hessian_matrices", counted_hessians)
        grid = GridSpec.ball_box(2, 17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(quartic(1.0)), spec, grid)
        assert rep.iterations == 0
        assert rep.converged is False
        assert len(residual_evals) == 1

    def test_jacobian_keeps_the_stencil_pattern(self, monkeypatch):
        # diagonal coefficients zero every cross entry; they stay stored
        import slag_lab.solver as solver_module

        real = solver_module.slag_linearization_batch
        solve = splinalg.spsolve
        nnz = []
        orderings = []

        def recording(a, b, **kw):
            nnz.append(a.nnz)
            orderings.append(kw.get("permc_spec"))
            return solve(a, b, **kw)

        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: real(ms) * np.eye(ms.shape[-1]))
        monkeypatch.setattr(solver_module.splinalg, "spsolve", recording)
        grid = box_grid(17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(quartic(1.0)), spec, grid)
        ops, _ = second_difference_operators(u)
        assert rep.iterations >= 2
        assert nnz[0] == (ops[0, 0] + ops[1, 1]).nnz
        assert nnz[1:] == [nnz[0] + ops[0, 1].nnz] * (len(nnz) - 1)
        assert orderings == ["MMD_AT_PLUS_A"] * len(nnz)

    def test_ball_domain_quadratic(self):
        grid = GridSpec.ball_box(2, 65)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(iso_quad(1.0)), spec, grid)
        assert rep.converged and rep.final_residual <= 1e-10



class TestStopReason:
    """One test per exit of the Newton loop; the JSON report carries it."""

    def solve(self, cfg=None):
        grid = GridSpec.ball_box(2, 17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        return solve_dirichlet(boundary_from(quartic(1.0)), spec, grid, cfg)

    def test_converged(self):
        u, rep = self.solve()
        assert rep.converged and rep.stop_reason == "converged"
        payload = rep.to_json()
        assert payload["stop_reason"] == "converged"
        assert payload["schema_version"] == 2
        assert payload["convexity_breached"] is False

    def test_max_iters(self):
        u, rep = self.solve(SolverConfig(max_iters=1))
        assert rep.iterations == 1
        assert not rep.converged and rep.stop_reason == "max_iters"

    def test_step_underflow(self, monkeypatch):
        # a negated Jacobian points every step uphill
        import slag_lab.solver as solver_module

        real = solver_module.slag_linearization_batch
        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: -real(ms))
        u, rep = self.solve()
        assert rep.iterations == 0
        assert not rep.converged and rep.stop_reason == "step_underflow"

    @pytest.mark.filterwarnings("ignore::scipy.sparse.linalg.MatrixRankWarning")
    def test_non_finite_step(self, monkeypatch):
        import slag_lab.solver as solver_module

        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: np.zeros_like(ms))
        u, rep = self.solve()
        assert not rep.converged and rep.stop_reason == "non_finite_step"

    def test_convexity_breach_reaches_the_json(self):
        # a floor above every eigenvalue flags each accepted step
        u, rep = self.solve(SolverConfig(convexity_floor=1e6))
        assert rep.convexity_breached
        assert rep.to_json()["convexity_breached"] is True


class TestMollify:
    def test_affine_unchanged(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(lambda x: 0.3 * x[..., 0] - 0.7 * x[..., 1] + 1.0,
                             grid)
        out = mollify(u, 4 * grid.spacing)
        assert np.abs(out.values[out.mask] - u.values[out.mask]).max() < 1e-12

    def test_quadratic_shifts_by_constant(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(2.0), grid)
        out = mollify(u, 4 * grid.spacing)
        diff = out.values[out.mask] - u.values[out.mask]
        assert np.ptp(diff) < 1e-12
        assert diff.mean() > 0.0  # second moment pushes values up

    def test_kink_against_direct_convolution_oracle(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(lambda x: np.abs(x[..., 0]), grid)
        eps = 4 * grid.spacing
        m = MollifierSpec.build(eps, grid)
        out = mollify(u, m)
        # direct convolution oracle at a few nodes
        idx_list = [(32, 32), (36, 32), (40, 40), (20, 28)]
        for idx in idx_list:
            if not out.mask[idx]:
                continue
            acc = 0.0
            for w, off in zip(m.weights, m.offsets):
                acc += w * u.values[idx[0] + off[0], idx[1] + off[1]]
            assert out.values[idx] == pytest.approx(acc, abs=1e-12)
        inside = out.mask
        assert np.all(out.values[inside] >= u.values[inside] - 1e-12)
        far = inside & (np.abs(grid.coords()[..., 0]) > eps + grid.spacing)
        assert np.abs(out.values[far] - u.values[far]).max() < 1e-10

    def test_order_and_constant_respect(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        v = sample_potential(quartic(1.0), grid)
        eps = 3 * grid.spacing
        mu = mollify(u, eps)
        mv = mollify(v, eps)
        assert np.all(mu.values[mu.mask] <= mv.values[mv.mask] + 1e-14)
        mc = mollify(u.shifted(2.5), eps)
        assert np.allclose(mc.values[mc.mask], mu.values[mu.mask] + 2.5,
                           atol=1e-12)

    def test_convexity_preserved(self):
        from slag_lab.hessians import directional_convexity_deficit

        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(quartic(1.0), grid)
        out = mollify(u, 4 * grid.spacing)
        worst, _ = directional_convexity_deficit(out)
        assert worst >= -1e-10

    def test_epsilon_below_resolution_rejected(self):
        grid = GridSpec.ball_box(2, 65)
        with pytest.raises(GridError):
            MollifierSpec.build(grid.spacing, grid)

    def test_weights_normalized_and_symmetric(self):
        grid = GridSpec.ball_box(2, 65)
        m = MollifierSpec.build(5 * grid.spacing, grid)
        assert m.weights.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(m.weights > 0)
        # radial symmetry: weights depend only on |offset|
        r = np.linalg.norm(m.offsets, axis=1)
        for radius in np.unique(r):
            w = m.weights[r == radius]
            assert np.ptp(w) < 1e-14


class TestExtendConvex:
    def test_quadratic_agrees_and_stays_convex(self):
        from slag_lab.hessians import directional_convexity_deficit

        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        target = dilate_grid(grid, 16)
        ext = extend_convex(u, target)
        worst, _ = directional_convexity_deficit(ext)
        assert worst >= -1e-9
        # exact at interior anchors; the rim ring undershoots by O(h^2)
        from slag_lab.hessians import gradient_field

        _, anchored = gradient_field(u)
        src = np.argwhere(u.mask)
        h = grid.spacing
        for n in src[::37]:
            t = tuple(n + 16)
            err = ext.values[t] - u.values[tuple(n)]
            if anchored[tuple(n)]:
                assert abs(err) <= 5e-9
            else:
                assert -2.5 * h * h <= err <= 5e-9

    def test_affine_exact_everywhere(self):
        grid = GridSpec.ball_box(2, 33)
        u = sample_potential(
            lambda x: 0.4 * x[..., 0] - 0.2 * x[..., 1] + 0.1, grid
        )
        target = dilate_grid(grid, 8)
        ext = extend_convex(u, target)
        pts = target.coords()
        expected = 0.4 * pts[..., 0] - 0.2 * pts[..., 1] + 0.1
        assert np.abs(ext.values - expected).max() < 1e-10

    def test_max_affine_self_envelope(self):
        # separable pieces keep every crease axis-aligned, so crease-node
        # centered slopes stay on the subgradient segment and the envelope
        # recovers the max exactly; oblique creases mix per-axis slopes off
        # the segment and are only support-accurate on the mask
        grid = GridSpec.ball_box(2, 65)
        px = np.array([-0.5, 0.7])
        py = np.array([-0.3, 0.6])
        slopes = np.array([[a, b] for a in px for b in py])
        offsets = np.zeros(4)
        u = sample_potential(max_affine(slopes, offsets), grid)
        target = dilate_grid(grid, 12)
        ext = extend_convex(u, target)
        pts = target.coords()
        expected = (np.tensordot(pts, slopes, axes=([-1], [1])) + offsets).max(-1)
        assert np.abs(ext.values - expected).max() < 1e-9


class TestScalePotential:
    def test_quadratic_scaling_identity(self):
        # ratio^2 u(x / ratio) of a quadratic is the same quadratic
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        out = scale_potential(u, 1.2)
        assert out.grid.ball_radius == pytest.approx(1.2)
        pts = out.grid.coords()
        expected = 0.5 * np.sum(pts * pts, -1)
        inner = erode_mask(out.mask, 1)
        h = out.grid.spacing
        assert np.abs(out.values[inner] - expected[inner]).max() < 0.8 * h * h


class TestPreservationTrial:
    def test_exact_solution_survives(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(1.0), grid)
        h = grid.spacing
        rep = subsolution_preservation_trial(u, np.pi / 2, [2 * h, 4 * h])
        assert rep.passed

    def test_strict_subsolution_margin_preserved(self):
        grid = GridSpec.ball_box(2, 65)
        u = sample_potential(iso_quad(3.0), grid)
        h = grid.spacing
        rep = subsolution_preservation_trial(u, np.pi / 2, [2 * h, 4 * h])
        assert rep.passed
        assert rep.min_margin > 0.5  # 2 arctan(3) - pi/2 = 0.927

    def test_max_of_strict_subsolution_quadratics(self):
        grid = GridSpec.ball_box(2, 65)
        theta = np.pi / 2

        def f(x):
            a = 1.5 * np.sum(x * x, -1) / 2 + 0.05 * x[..., 0]
            b = 2.5 * np.sum(x * x, -1) / 2 - 0.03 * x[..., 1]
            return np.maximum(a, b)

        u = sample_potential(f, grid)
        h = grid.spacing
        rep = subsolution_preservation_trial(u, theta, [2 * h, 4 * h, 8 * h])
        assert rep.passed
