"""Dirichlet solver, mollifier, convex extension, scaling device."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sparse
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
from slag_lab.errors import GridError, LinearSolveError
from slag_lab.fields import PotentialField, erode_mask
from slag_lab.hessians import hessian_matrices, stencil_terms
from slag_lab.formulas import bilinear, iso_quad, max_affine, quartic
from slag_lab.operators import slag_linearization_batch
from slag_lab.reports import SolveReport
import slag_lab.solver as solver_module
from slag_lab.solver import (_KRYLOV_RTOL, _gmres, _linear_solve, dilate_grid,
                             prolongations)


def boundary_from(formula):
    def g(points):
        return formula(points)

    return g


def stencil_operators(mask, spacing):
    """The CSR operators D_ij over the interior, keyed by (i, j), summed
    from the stencil-term table."""
    row, col, pair, weight = stencil_terms(mask, spacing)
    n = int(erode_mask(mask, 1).sum())
    ops = {}
    for i, j in sorted(set(map(tuple, pair.tolist()))):
        sel = (pair[:, 0] == i) & (pair[:, 1] == j)
        ops[i, j] = sparse.csr_matrix((weight[sel], (row[sel], col[sel])),
                                      shape=(n, n))
    return ops


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

    def test_singular_jacobian_stops_unconverged(self, monkeypatch):
        # zero coefficients make the Jacobian singular: the solve gives no step
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
        # the rim-data Hessian of the Poisson right-hand side, then the
        # initial residual: no line search after the non-finite step
        assert len(residual_evals) == 2

    def test_jacobian_keeps_the_stencil_pattern(self, monkeypatch):
        # diagonal coefficients zero every cross entry; they stay stored
        real = solver_module.slag_linearization_batch
        nnz = []

        def recording(a, rhs, prolongs, rtol, report):
            nnz.append(a.nnz)
            return _linear_solve(a, rhs, prolongs, rtol, report)

        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: real(ms) * np.eye(ms.shape[-1]))
        monkeypatch.setattr(solver_module, "_linear_solve", recording)
        grid = box_grid(17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(quartic(1.0)), spec, grid)
        ops = stencil_operators(u.mask, grid.spacing)
        assert rep.iterations >= 2
        assert nnz[0] == (ops[0, 0] + ops[1, 1]).nnz
        assert nnz[1:] == [nnz[0] + ops[0, 1].nnz] * (len(nnz) - 1)

    def test_ball_domain_quadratic(self):
        grid = GridSpec.ball_box(2, 65)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(iso_quad(1.0)), spec, grid)
        assert rep.converged and rep.final_residual <= 1e-10

    def test_failed_poisson_solve_raises(self, monkeypatch):
        calls = []

        def fail_first(a, rhs, prolongs, rtol, report):
            calls.append(len(rhs))
            return None if len(calls) == 1 else _linear_solve(a, rhs, prolongs,
                                                               rtol, report)

        monkeypatch.setattr(solver_module, "_linear_solve", fail_first)
        grid = GridSpec.ball_box(2, 17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        with pytest.raises(LinearSolveError, match="Poisson"):
            solve_dirichlet(boundary_from(quartic(1.0)), spec, grid)
        assert len(calls) == 1


class TestSolverConfig:
    @pytest.mark.parametrize("max_iters", [-3, -1, 2.5, 3.0, "5", True, None])
    def test_rejects_a_max_iters_that_is_not_a_nonnegative_integer(
            self, max_iters):
        with pytest.raises(ValueError,
                           match="max_iters must be a nonnegative integer"):
            SolverConfig(max_iters=max_iters)

    def test_zero_max_iters_keeps_the_poisson_guess(self):
        assert SolverConfig(max_iters=np.int64(4)).max_iters == 4
        grid = GridSpec.ball_box(2, 17)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(quartic(1.0)), spec, grid,
                                 SolverConfig(max_iters=0))
        assert rep.iterations == 0 and rep.stop_reason == "max_iters"
        assert len(rep.to_json()["krylov_iterations"]) == 1
        assert np.isfinite(u.values[u.mask]).all()


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
        assert payload["schema_version"] == 4
        assert payload["convexity_breached"] is False
        # the Poisson guess and one system per Newton step
        assert len(payload["krylov_iterations"]) == rep.iterations + 1

    def test_max_iters(self):
        u, rep = self.solve(SolverConfig(max_iters=1))
        assert rep.iterations == 1
        assert not rep.converged and rep.stop_reason == "max_iters"

    def test_step_underflow(self, monkeypatch):
        # a negated Jacobian points every step uphill
        real = solver_module.slag_linearization_batch
        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: -real(ms))
        u, rep = self.solve()
        assert rep.iterations == 0
        assert not rep.converged and rep.stop_reason == "step_underflow"

    def test_non_finite_step(self, monkeypatch):
        monkeypatch.setattr(solver_module, "slag_linearization_batch",
                            lambda ms: np.zeros_like(ms))
        u, rep = self.solve()
        assert not rep.converged and rep.stop_reason == "non_finite_step"

    def test_convexity_breach_reaches_the_json(self):
        # a floor above every eigenvalue flags each accepted step
        u, rep = self.solve(SolverConfig(convexity_floor=1e6))
        assert rep.convexity_breached
        assert rep.to_json()["convexity_breached"] is True


def _grid(d, nodes, ball):
    if ball:
        return GridSpec.ball_box(d, nodes)
    return GridSpec(d, (nodes,) * d, 2.0 / (nodes - 1), (-1.0,) * d, None)


# 2-D and 3-D, ball and box, odd and even sizes
DISSECTION_GRIDS = [
    pytest.param(d, n, ball, id=f"{d}d-{'ball' if ball else 'box'}-{n}")
    for d, sizes in ((2, (17, 24, 33)), (3, (9, 12, 13)))
    for n in sizes for ball in (True, False)]


def _levels(interior):
    """Node masks of the hierarchy, each the even-index nodes of the last."""
    masks = [interior]
    while masks[-1].sum() > solver_module._COARSEST:
        coarse = masks[-1][(slice(None, None, 2),) * interior.ndim]
        if not coarse.any():
            break
        masks.append(coarse)
    return masks


def _interpolate(coarse_mask, coarse_values, node):
    """d-linear interpolation at a fine index, zero off the coarse mask."""
    axes = [[k // 2] if k % 2 == 0 else [(k - 1) // 2, (k + 1) // 2] for k in node]
    total = 0.0
    for parent in itertools.product(*axes):
        inside = all(p < n for p, n in zip(parent, coarse_mask.shape))
        if inside and coarse_mask[parent]:
            total += coarse_values[parent] / np.prod([len(a) for a in axes])
    return total


def _poisson_and_jacobian(grid):
    """The Poisson matrix sum_i D_ii and the Newton Jacobian of quartic data,
    summed from scipy operators, not from the solver's patterns."""
    u = sample_potential(quartic(1.0), grid)
    ops = stencil_operators(u.mask, grid.spacing)
    interior = erode_mask(u.mask, 1)
    mats, _ = hessian_matrices(u)
    coeff = slag_linearization_batch(mats[interior])
    jac = sum((1.0 if i == j else 2.0) * sparse.diags(coeff[:, i, j]) @ op
              for (i, j), op in ops.items())
    poisson = sum(op for (i, j), op in ops.items() if i == j)
    return interior, poisson.tocsr(), jac.tocsr()


class TestDissectionOrder:
    """The multigrid hierarchy and the linear solve on it.

    Each level dissects the nodes of the level above into the even-index
    nodes, which make up the next coarser level, and the nodes that split
    the boxes between them. Unknowns are in row-major order on every level.
    """

    @pytest.mark.parametrize("d, nodes, ball", DISSECTION_GRIDS)
    def test_is_a_permutation(self, d, nodes, ball):
        interior = erode_mask(_grid(d, nodes, ball).ball_mask(), 1)
        masks = _levels(interior)
        levels = prolongations(interior)
        assert len(levels) == len(masks) - 1
        assert masks[-1].sum() <= solver_module._COARSEST
        for (p, r), fine, coarse in zip(levels, masks, masks[1:]):
            assert p.shape == (fine.sum(), coarse.sum())
            assert (r != p.T).nnz == 0
            # fine nodes at even indices are the coarse nodes, in row-major order
            even = np.zeros(fine.shape, dtype=bool)
            even[(slice(None, None, 2),) * d] = True
            rows = np.flatnonzero(even[fine])
            assert np.array_equal(p[rows].toarray(), np.eye(coarse.sum()))

    @pytest.mark.parametrize("d, nodes, ball", DISSECTION_GRIDS)
    def test_every_separator_splits_its_box(self, d, nodes, ball, monkeypatch):
        # a node between coarse nodes takes the d-linear weights of the
        # corners of the coarse box it splits; coarsen down to the last
        # node, so that small grids have levels too
        monkeypatch.setattr(solver_module, "_COARSEST", 1)
        interior = erode_mask(_grid(d, nodes, ball).ball_mask(), 1)
        masks = _levels(interior)
        levels = prolongations(interior)
        assert len(levels) == len(masks) - 1 >= 1
        rng = np.random.default_rng(d * nodes)
        for (p, _), fine, coarse in zip(levels, masks, masks[1:]):
            values = np.zeros(coarse.shape)
            values[coarse] = rng.standard_normal(int(coarse.sum()))
            expected = [_interpolate(coarse, values, tuple(node))
                        for node in np.argwhere(fine)]
            assert np.allclose(p @ values[coarse], expected, rtol=0, atol=1e-15)

    @pytest.mark.parametrize("d, nodes, ball", [(2, 33, True), (2, 32, False),
                                                (3, 13, True), (3, 12, False)])
    def test_factor_solve_matches_spsolve(self, d, nodes, ball):
        interior, poisson, jac = _poisson_and_jacobian(_grid(d, nodes, ball))
        levels = prolongations(interior)
        assert levels  # every grid here has a coarse level
        rhs = np.random.default_rng(d * nodes).standard_normal(jac.shape[0])
        report = SolveReport()
        for a in (poisson, jac):
            expected = splinalg.spsolve(a.tocsc(), rhs)
            got = _linear_solve(a, rhs, levels, _KRYLOV_RTOL, report)
            assert np.linalg.norm(got - expected) <= 1e-10 * np.linalg.norm(expected)
        assert report.linear_solve_s > 0
        assert len(report.krylov_iterations) == 2
        assert all(0 < k < solver_module._KRYLOV_RESTART for k in report.krylov_iterations)

    def test_one_debug_line_per_factorization(self, caplog):
        # one line per linear solve; a 33^2 ball has a coarse level
        caplog.set_level("DEBUG", logger="slag_lab.solver")
        grid = GridSpec.ball_box(2, 33)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        u, rep = solve_dirichlet(boundary_from(quartic(1.0)), spec, grid)
        lines = [r for r in caplog.records if r.message.startswith("solved")]
        assert len(lines) == rep.iterations + 1 == len(rep.krylov_iterations)
        assert rep.linear_solve_s > 0 and min(rep.krylov_iterations) > 0
        for line, count in zip(lines, rep.krylov_iterations):
            assert f"{int(erode_mask(u.mask, 1).sum())} unknowns" in line.message
            assert f" {count} GMRES iterations in " in line.message


class TestLinearSolve:
    def failed(self, caplog, a, rhs, levels, cause):
        report = SolveReport()
        with caplog.at_level("WARNING", logger="slag_lab.solver"):
            assert _linear_solve(a, rhs, levels, _KRYLOV_RTOL, report) is None
        assert cause in caplog.text
        assert report.krylov_iterations == [] and report.linear_solve_s > 0

    def test_zero_jacobi_diagonal_fails(self, caplog):
        interior, poisson, _ = _poisson_and_jacobian(_grid(2, 32, False))
        poisson = poisson.tolil()
        poisson[5, 5] = 0.0
        rhs = np.ones(poisson.shape[0])
        self.failed(caplog, poisson.tocsr(), rhs, prolongations(interior),
                    "zero or non-finite Jacobi diagonal")

    def test_singular_coarsest_block_fails(self, caplog):
        # 57 unknowns: the coarsest level is the system itself
        interior, poisson, _ = _poisson_and_jacobian(_grid(3, 9, True))
        assert prolongations(interior) == []
        self.failed(caplog, 0.0 * poisson, np.ones(poisson.shape[0]), [],
                    "Singular matrix")

    def test_iteration_cap_fails(self, caplog, monkeypatch):
        monkeypatch.setattr(solver_module, "_KRYLOV_MAXITER", 2)
        interior, _, jac = _poisson_and_jacobian(_grid(2, 32, False))
        rhs = np.random.default_rng(0).standard_normal(jac.shape[0])
        self.failed(caplog, jac, rhs, prolongations(interior),
                    "no convergence in 2 iterations")

    def test_non_finite_iterate_fails(self, caplog):
        interior, _, jac = _poisson_and_jacobian(_grid(2, 32, False))
        rhs = np.ones(jac.shape[0])
        rhs[7] = np.inf
        self.failed(caplog, jac, rhs, prolongations(interior), "non-finite iterate")

    def test_breakdown_on_a_singular_operator_raises(self):
        # the Krylov space of [[1, 1], [1, 1]] from (1, 0) stops at dimension 2
        a = sparse.csr_matrix(np.ones((2, 2)))
        with pytest.raises(LinearSolveError, match="breakdown"):
            _gmres(a, np.array([1.0, 0.0]), lambda v: v, _KRYLOV_RTOL)

    def test_stall_at_round_off_is_accepted(self, caplog, monkeypatch):
        # below the attainable residual, every restart cycle ends after one
        # iteration at about 3e-15 on this grid; the solve must accept that
        # floor rather than run into the iteration cap
        g = boundary_from(lambda x: 0.5 * np.sum(x * x, axis=-1) + 0.1 * x[..., 0] ** 4)
        spec = ProblemSpec(dim=2, theta=np.pi / 2)
        grid = box_grid(33)
        reference, _ = solve_dirichlet(g, spec, grid)
        monkeypatch.setattr(solver_module, "_KRYLOV_RTOL", 1e-15)
        with caplog.at_level("DEBUG", logger="slag_lab.solver"):
            u, rep = solve_dirichlet(g, spec, grid)
        assert rep.stop_reason == "converged"
        assert max(rep.krylov_iterations) < solver_module._KRYLOV_MAXITER
        assert "stalled at the round-off floor" in caplog.text
        inside = u.mask
        assert np.abs(u.values[inside] - reference.values[inside]).max() <= 1e-12

    def test_zero_right_hand_side_needs_no_iteration(self):
        a = sparse.csr_matrix(np.eye(3))
        x, iterations = _gmres(a, np.zeros(3), lambda v: v, _KRYLOV_RTOL)
        assert iterations == 0 and not x.any()


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

    @pytest.mark.parametrize("dim,nodes", [(2, 33), (3, 17)])
    @pytest.mark.parametrize("rows", [2, 7, 64])
    def test_envelope_does_not_depend_on_the_chunk(self, dim, nodes, rows,
                                                   monkeypatch):
        # dyadic data make every slope, offset, product and sum exact, so
        # the bits cannot depend on how BLAS tiles a block and the
        # comparison sees the chunk loops of both passes
        from slag_lab import conjugate

        grid = GridSpec.ball_box(dim, nodes)
        u = sample_potential(quartic(1.0), grid)
        target = dilate_grid(grid, 3)
        monkeypatch.setattr(conjugate, "_CHUNK_FLOATS", 10**12)
        one = extend_convex(u, target).values
        masked = int(u.mask.sum())
        assert masked % rows and target.n_nodes() % rows
        monkeypatch.setattr(conjugate, "_CHUNK_FLOATS", rows * masked)
        assert np.array_equal(extend_convex(u, target).values, one)


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


class TestNumpyMorphologyAndInterpolation:
    """`mollify`'s erosion and `scale_potential`'s interpolation against
    the `scipy.ndimage` calls they replace."""

    @pytest.mark.parametrize("dim, nodes, cells", [(2, 33, 2), (2, 41, 5),
                                                   (3, 15, 2), (3, 17, 3)])
    def test_mollified_mask_equals_binary_erosion(self, dim, nodes, cells):
        from scipy import ndimage

        grid = GridSpec.ball_box(dim, nodes)
        x = grid.coords()
        # a ball with an off-centre hole, and the whole box, whose border
        # the erosion must clear as if outside the box were unmasked
        hole = np.sum((x - 0.3) ** 2, axis=-1) < 0.2**2
        for mask in (grid.ball_mask() & ~hole, np.ones(grid.shape, dtype=bool)):
            values = 0.5 * np.sum(grid.coords() ** 2, axis=-1)
            u = PotentialField(grid, np.where(mask, values, np.nan), mask)
            m = MollifierSpec.build(cells * grid.spacing, grid)
            footprint = np.zeros((2 * cells + 1,) * dim, dtype=bool)
            footprint[tuple((m.offsets + cells).T)] = True
            expected = ndimage.binary_erosion(mask, structure=footprint,
                                              border_value=0)
            assert np.array_equal(mollify(u, m).mask, expected)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_interpolation_equals_map_coordinates(self, dim):
        from scipy import ndimage

        rng = np.random.default_rng(dim)
        for _ in range(20):
            shape = tuple(int(n) for n in rng.integers(3, 12, size=dim))
            values = rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
            # inside the box and up to 1.5 cells past every face
            frac = rng.uniform(-1.5, np.array(shape) + 0.5, size=(400, dim))
            ref = ndimage.map_coordinates(values, frac.T, order=1,
                                          mode="nearest")
            got = solver_module._interpolate(values, frac)
            assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))

    @pytest.mark.parametrize("dim, nodes", [(2, 33), (3, 13)])
    def test_scale_potential_equals_the_ndimage_version(self, dim, nodes):
        from scipy import ndimage

        grid = GridSpec.ball_box(dim, nodes)
        u = sample_potential(quartic(1.0), grid)
        out = scale_potential(u, 1.3)
        ext = extend_convex(u, GridSpec(dim, out.grid.shape, out.grid.spacing,
                                        out.grid.origin, None))
        frac = ((out.grid.coords().reshape(-1, dim) / 1.3
                 - np.array(out.grid.origin)) / out.grid.spacing)
        ref = 1.3**2 * ndimage.map_coordinates(ext.values, frac.T, order=1,
                                               mode="nearest")
        got = out.values.reshape(-1)
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref))
        assert np.array_equal(out.mask, out.grid.ball_mask())


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
