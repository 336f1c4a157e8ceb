"""Residual evaluators, linearization, phase classification, FD jets."""

from itertools import combinations_with_replacement, permutations, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from slag_lab import (
    GridSpec,
    PhaseError,
    ProblemSpec,
    hessian_field,
    ma_residual,
    mar_residual,
    phase_classify,
    rotate_spectrum,
    sample_potential,
    slag_linearization,
    slag_residual,
)
from slag_lab.fields import PotentialField, erode_mask
from slag_lab.formulas import iso_quad, quad_form
from slag_lab.hessians import (
    fourth_order_jet,
    gradient_field,
    hessian_matrices,
    stencil_terms,
    symmetric_pairs,
    symmetric_slots,
    taylor_tensors,
)
from slag_lab.operators import slag_linearization_batch
from slag_lab.rotation import RotationParams


def hessian_of(formula, nodes=33, dim=2):
    grid = GridSpec.ball_box(dim, nodes)
    return hessian_field(sample_potential(formula, grid))


def sum_arctan(m):
    return float(np.arctan(np.linalg.eigvalsh(m)).sum())


class TestSlagResidual:
    def test_identity_at_half_pi(self):
        h = hessian_of(iso_quad(1.0))
        res = slag_residual(h, np.pi / 2)
        assert np.abs(res.values[res.valid]).max() < 1e-10

    def test_reciprocal_pair(self):
        h = hessian_of(quad_form([[3.0, 0.0], [0.0, 1.0 / 3.0]]))
        res = slag_residual(h, np.pi / 2)
        assert np.abs(res.values[res.valid]).max() < 1e-10

    def test_3d_identity_phase(self):
        h = hessian_of(iso_quad(1.0), nodes=15, dim=3)
        res = slag_residual(h, 0.0)
        assert np.allclose(res.values[res.valid], 3 * np.pi / 4, atol=1e-10)

    def test_orthogonal_invariance(self, rng):
        q, _ = np.linalg.qr(rng.normal(size=(2, 2)))
        a = np.array([[2.0, 0.3], [0.3, 0.8]])
        b = q @ a @ q.T
        ha = hessian_of(quad_form(a))
        hb = hessian_of(quad_form(0.5 * (b + b.T)))
        ra = slag_residual(ha, 0.3)
        rb = slag_residual(hb, 0.3)
        va = ra.values[ra.valid].mean()
        vb = rb.values[rb.valid].mean()
        assert abs(va - vb) < 1e-9

    def test_monotone_in_eigenvalues(self, rng):
        for _ in range(20):
            lam = np.sort(rng.uniform(-3, 3, size=3))[::-1]
            bump = np.zeros(3)
            bump[rng.integers(0, 3)] = rng.uniform(0.01, 0.5)
            assert (
                np.arctan(lam + bump).sum() > np.arctan(lam).sum()
            )


@pytest.mark.parametrize("dim,nodes", [(2, 33), (3, 13)])
@pytest.mark.parametrize("shape", ["ball", "holed"])
def test_second_difference_operators_match_hessian(dim, nodes, shape):
    grid = GridSpec.ball_box(dim, nodes)
    x = grid.coords()
    mask = grid.ball_mask()
    if shape == "holed":
        # off-centre hole: interior rows border rim nodes on both sides
        hole = np.sum((x - 0.3 * np.eye(dim)[0]) ** 2, axis=-1) < 0.3**2
        mask &= ~hole
    values = (0.5 * np.sum(x * x, axis=-1) + 0.3 * x[..., 0] ** 2 * x[..., 1] ** 2
              + 0.2 * x[..., 0] ** 3 * x[..., 1] + 0.4 * x[..., 0] * x[..., -1]
              + 0.1 * x[..., 1] * x[..., -1] ** 3)
    u = PotentialField(grid, np.where(mask, values, np.nan), mask)
    mats, interior = hessian_matrices(u)
    # the terms between interior nodes plus the Hessian of the rim data alone
    rim_mats, _ = hessian_matrices(
        PotentialField(grid, np.where(interior, 0.0, u.values), mask))
    row, col, pair, weight = stencil_terms(mask, grid.spacing)
    n = int(interior.sum())
    pairs = [(i, j) for i in range(dim) for j in range(i, dim)]
    # stacked pair by pair, in this order
    assert np.all(np.diff(pair[:, 0] * dim + pair[:, 1]) >= 0)
    assert sorted(set(map(tuple, pair.tolist()))) == pairs
    scale = np.abs(mats[interior]).max()
    inner = u.values[interior]
    for i, j in pairs:
        sel = (pair[:, 0] == i) & (pair[:, 1] == j)
        got = (np.bincount(row[sel], weight[sel] * inner[col[sel]], minlength=n)
               + rim_mats[interior][:, i, j])
        assert np.abs(mats[interior][:, i, j]).max() > 0.1
        assert np.abs(got - mats[interior][:, i, j]).max() <= 1e-12 * scale

    # the Laplacian: sum of the (i, i) terms, one entry per distinct node pair
    diag = pair[:, 0] == pair[:, 1]
    keys, slot = np.unique(row[diag] * n + col[diag], return_inverse=True)
    assert np.all(np.bincount(slot, weight[diag]) != 0)
    face = np.ones(grid.shape, dtype=bool)
    for k in range(dim):
        for s in (-1, 1):
            face &= np.roll(interior, s, axis=k)
    full_rows = face[interior]
    assert full_rows.any() and not full_rows.all()
    counts = np.bincount(keys // n, minlength=n)
    assert np.all(counts[full_rows] == 2 * dim + 1)
    assert np.all(counts[~full_rows] < 2 * dim + 1)


def _random_quartic(rng, dim):
    """Coefficients and exponents of a random polynomial of degree <= 4."""
    exps = [e for e in product(range(5), repeat=dim) if sum(e) <= 4]
    return rng.normal(size=len(exps)), np.array(exps)


def _poly_derivative(coeffs, exps, x, axes):
    """The derivative along `axes` of sum_e c_e x^e, at the points x."""
    out = np.zeros(x.shape[:-1])
    for c, e in zip(coeffs, exps):
        e = e.copy()
        for a in axes:
            c *= e[a]
            e[a] -= 1
        if c != 0.0:
            out += c * np.prod(x ** np.maximum(e, 0), axis=-1)
    return out


def _random_quartic_field(dim, nodes, shape, seed):
    """A random polynomial of degree <= 4 on a ball, or a ball cut by a
    plane, NaN outside the mask: (field, coefficients, exponents)."""
    rng = np.random.default_rng(seed)
    grid = GridSpec.ball_box(dim, nodes, float(rng.uniform(0.5, 2.0)))
    x = grid.coords()
    mask = grid.ball_mask()
    if shape == "cut":
        normal = rng.normal(size=dim)
        mask &= x @ (normal / np.linalg.norm(normal)) <= 0.3 * grid.ball_radius
    coeffs, exps = _random_quartic(rng, dim)
    values = _poly_derivative(coeffs, exps, x, ())
    return PotentialField(grid, np.where(mask, values, np.nan), mask), coeffs, exps


def _quartic_cases(test):
    """Both grids, both masks and three seeds of `_random_quartic_field`."""
    for mark in (pytest.mark.parametrize("seed", [0, 1, 2]),
                 pytest.mark.parametrize("shape", ["ball", "cut"]),
                 pytest.mark.parametrize("dim,nodes", [(2, 25), (3, 13)])):
        test = mark(test)
    return test


@_quartic_cases
def test_packed_taylor_tensors_match_analytic_derivatives(dim, nodes, shape,
                                                         seed):
    u, coeffs, exps = _random_quartic_field(dim, nodes, shape, seed)
    inner = erode_mask(u.mask, 1)
    two = erode_mask(u.mask, 2)[inner]
    assert two.any() and not two.all()
    t3, t4 = taylor_tensors(u)
    x = u.grid.coords()[inner][two]
    h = u.grid.spacing
    scale = 1.0 + np.nanmax(np.abs(u.values))
    for k, packed in ((3, t3), (4, t4)):
        multis = list(combinations_with_replacement(range(dim), k))
        assert packed.shape == (len(multis), inner.sum())
        assert np.all(packed[:, ~two] == 0.0)
        dense = packed[symmetric_slots(dim, k)]
        for slot in np.ndindex((dim,) * k):
            want = _poly_derivative(coeffs, exps, x, slot)
            got = dense[slot][two]
            # stencils of k-th derivatives divide sums of O(scale) values
            # by about h^k: round-off only, since all are exact at degree 4
            assert np.abs(got - want).max() <= 1e-13 * scale / h**k
            for perm in permutations(slot):
                assert np.array_equal(dense[perm], dense[slot])


@_quartic_cases
def test_fourth_order_jet_matches_analytic_derivatives(dim, nodes, shape,
                                                       seed):
    # degree-4-exact g and H on the two-cell interior, and the plain
    # centered stencils, bit for bit, on the rim ring around it
    u, coeffs, exps = _random_quartic_field(dim, nodes, shape, seed)
    inner = erode_mask(u.mask, 1)
    two = erode_mask(u.mask, 2)[inner]
    jet, quartic = fourth_order_jet(u)
    assert jet.shape == (dim + dim * (dim + 1) // 2, inner.sum())
    assert np.array_equal(quartic, two) and two.any() and not two.all()
    x = u.grid.coords()[inner][two]
    h = u.grid.spacing
    scale = 1.0 + np.nanmax(np.abs(u.values))
    for k in range(dim):
        want = _poly_derivative(coeffs, exps, x, (k,))
        assert np.abs(jet[k, two] - want).max() <= 1e-13 * scale / h
    for row, (i, j) in enumerate(zip(*symmetric_pairs(dim)), start=dim):
        want = _poly_derivative(coeffs, exps, x, (i, j))
        assert np.abs(jet[row, two] - want).max() <= 1e-13 * scale / h**2
    grads, _ = gradient_field(u)
    mats, _ = hessian_matrices(u)
    i, j = symmetric_pairs(dim)
    plain = np.concatenate([grads[inner].T, mats[inner][:, i, j].T])
    assert np.array_equal(jet[:, ~two], plain[:, ~two])


def test_taylor_tensors_on_a_mask_without_two_cell_interior():
    grid = GridSpec.ball_box(3, 7)
    u = sample_potential(iso_quad(1.0), grid)
    t3, t4 = taylor_tensors(u)
    assert t3.shape == (10, 19) and t4.shape == (15, 19)
    assert not t3.any() and not t4.any()
    jet, quartic = fourth_order_jet(u)
    assert jet.shape == (9, 19) and not quartic.any()


class TestMaResidual:
    def test_identity_zero(self):
        h = hessian_of(iso_quad(1.0))
        res = ma_residual(h, 0.0)
        assert np.abs(res.values[res.valid]).max() < 1e-10
        assert res.flagged == []

    def test_exp_level(self):
        h = hessian_of(iso_quad(np.e))
        res = ma_residual(h, 2.0)
        assert np.abs(res.values[res.valid]).max() < 1e-9

    def test_log_det_additivity(self):
        h = hessian_of(quad_form([[2.0, 0.0], [0.0, 0.5]]))
        res = ma_residual(h, 0.0)
        assert np.abs(res.values[res.valid]).max() < 1e-10

    def test_nonpositive_nodes_flagged_not_raised(self):
        h = hessian_of(quad_form([[1.0, 0.0], [0.0, -0.5]]))
        res = ma_residual(h, 0.0)
        assert len(res.flagged) == int(h.interior_mask.sum())
        assert not res.valid.any()


class TestMarResidual:
    def test_zero_hessian(self):
        h = hessian_of(lambda x: np.zeros(x.shape[:-1]))
        res = mar_residual(h, 0.0)
        assert np.abs(res.values[res.valid]).max() < 1e-12

    def test_odd_cancellation(self):
        h = hessian_of(quad_form([[0.5, 0.0], [0.0, -0.5]]))
        res = mar_residual(h, 0.0)
        assert np.abs(res.values[res.valid]).max() < 1e-10

    def test_log_three_level(self):
        h = hessian_of(iso_quad(0.5))
        res = mar_residual(h, 2.0 * np.log(3.0))
        assert np.abs(res.values[res.valid]).max() < 1e-10

    def test_out_of_range_flagged(self):
        h = hessian_of(iso_quad(1.5))
        res = mar_residual(h, 0.0)
        assert len(res.flagged) == int(h.interior_mask.sum())

    def test_rotation_turns_logdet_into_logratio(self, rng):
        # pi/4 spectral rotation maps lambda -> (lambda-1)/(lambda+1) and
        # ln((1+rot)/(1-rot)) recovers ln(lambda) exactly
        params = RotationParams.from_alpha(np.pi / 4)
        lam = rng.uniform(0.2, 5.0, size=(30, 2))
        rot = rotate_spectrum(np.sort(lam, axis=1)[:, ::-1], params)
        lhs = np.log((1.0 + rot) / (1.0 - rot)).sum(axis=1)
        rhs = np.log(lam).sum(axis=1)
        assert np.abs(lhs - rhs).max() < 1e-9


class TestLinearization:
    def test_zero_matrix(self):
        assert np.allclose(slag_linearization(np.zeros((2, 2))), np.eye(2))

    def test_identity_matrix(self):
        out = slag_linearization(np.eye(2))
        assert np.allclose(out, 0.5 * np.eye(2))

    @settings(max_examples=200, deadline=None)
    @given(dim=st.sampled_from([2, 3]),
           entries=st.lists(st.floats(-50.0, 50.0), min_size=6, max_size=6))
    # near-rank-1 draws on which adj(S) / det(S) of S = I + M^2 missed the bound
    @example(dim=3, entries=[47, 47, 47, 48, 48, 47.099987934828874])
    @example(dim=3, entries=[40.0, 42.0, 43.0, 43.0, 45.0, 47.02228650612275])
    def test_closed_form_inverse(self, dim, entries):
        m = np.zeros((dim, dim))
        m[np.triu_indices(dim)] = entries[: dim * (dim + 1) // 2]
        m = m + np.triu(m, 1).T
        s = np.eye(dim) + m @ m
        tol = 1e-13 * np.linalg.cond(s)
        out = slag_linearization(m)
        assert np.abs(s @ out - np.eye(dim)).max() <= tol
        ref = np.linalg.inv(s)
        assert np.abs(out - ref).max() <= tol * np.abs(ref).max()

    def test_batch_rejects_other_dimensions(self):
        with pytest.raises(ValueError, match="d = 2 or 3"):
            slag_linearization_batch(np.zeros((5, 4, 4)))

    def test_matches_finite_differences(self, rng):
        # directional derivative oracle at t = 1e-5
        for _ in range(10):
            m = rng.uniform(-2, 2, size=(3, 3))
            m = 0.5 * (m + m.T)
            e = rng.uniform(-1, 1, size=(3, 3))
            e = 0.5 * (e + e.T)
            t = 1e-5
            fd = (sum_arctan(m + t * e) - sum_arctan(m - t * e)) / (2 * t)
            lin = float(np.trace(slag_linearization(m) @ e))
            assert abs(fd - lin) < 1e-6

    def test_concavity_on_positive_cone(self, rng):
        for _ in range(20):
            a = rng.uniform(0.1, 3.0, size=3)
            b = rng.uniform(0.1, 3.0, size=3)
            qa, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            qb, _ = np.linalg.qr(rng.normal(size=(3, 3)))
            ma = qa @ np.diag(a) @ qa.T
            mb = qb @ np.diag(b) @ qb.T
            t = rng.uniform(0.0, 1.0)
            mix = sum_arctan(t * ma + (1 - t) * mb)
            assert mix >= t * sum_arctan(ma) + (1 - t) * sum_arctan(mb) - 1e-9


class TestPhaseClassify:
    def test_critical_in_3d(self):
        assert phase_classify(np.pi / 2, 3) == "critical"

    def test_supercritical_in_2d(self):
        assert phase_classify(0.1, 2) == "supercritical"

    def test_subcritical_in_3d(self):
        assert phase_classify(np.pi / 4, 3) == "subcritical"

    def test_infeasible_raises(self):
        with pytest.raises(PhaseError):
            phase_classify(np.pi, 2)

    def test_problem_spec_guards(self):
        with pytest.raises(PhaseError):
            ProblemSpec(dim=2, theta=3.2)
        ProblemSpec(dim=2, theta=np.pi / 2)
