"""Dirichlet solver for the arctangent operator plus smoothing devices.

The solve is a damped Newton iteration on the finite-difference residual
F_i(u) = sum(arctan(lambda(H_i))) - theta over interior nodes. One set of
sparse second-difference operators D_ij with boundary lifts, built once per
solve by `hessians.second_difference_operators`, serves both linear systems:
the initial guess solves sum_i D_ii u = n tan(theta/n) - sum_i lift_ii, and
the exact Jacobian trace((I + M^2)^{-1} dM/du) is sum_ij A_ij D_ij with
A = (I + M^2)^{-1}. Both systems are structurally symmetric, so SuperLU
orders them by minimum degree on A + A^T. The report
names why the iteration stopped: convergence, the iteration cap, a line
search that fell below `min_step`, or a non-finite Newton step (singular
Jacobian). Mollification and the supporting-plane convex extension
implement the smooth-approximation devices used by the rotation audits.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field as dataclass_field

import numpy as np
import scipy.sparse as sparse
import scipy.sparse.linalg as splinalg
from scipy import ndimage

from .conjugate import _CHUNK_FLOATS
from .eigen import eigvals_sym
from .errors import ConvexityError, GridError
from .fields import GridSpec, PotentialField, erode_mask, evaluate_formula
from .hessians import gradient_field, hessian_matrices, second_difference_operators
from .operators import ProblemSpec, slag_linearization_batch
from .reports import AuditReport, SolveReport

logger = logging.getLogger("slag_lab.solver")
# extend_convex: relative overshoot above u that still keeps a plane
_SUPPORT_TOL = 1e-9
# SuperLU column ordering of both solve_dirichlet systems
_ORDERING = "MMD_AT_PLUS_A"


@dataclass
class SolverConfig:
    max_iters: int = 30
    residual_tol: float = 1e-10
    damping: float = 1.0
    min_step: float = 1e-6
    convexity_floor: float = -1e-6

    def __post_init__(self):
        if not self.residual_tol > 0:
            raise ValueError("residual_tol must be positive")
        if not 0 < self.min_step <= self.damping <= 1:
            raise ValueError("need 0 < min_step <= damping <= 1")


@dataclass
class MollifierSpec:
    """Radial bump kernel exp(-1/(1-t^2)) on the epsilon-ball, unit mass."""

    epsilon: float
    weights: np.ndarray = dataclass_field(default=None, repr=False)  # type: ignore
    offsets: np.ndarray = dataclass_field(default=None, repr=False)  # type: ignore

    @classmethod
    def build(cls, epsilon: float, grid: GridSpec) -> "MollifierSpec":
        h = grid.spacing
        if epsilon < 2.0 * h - 1e-12:
            raise GridError(f"epsilon = {epsilon:.3g} below the resolvable 2h")
        reach = int(math.floor(epsilon / h + 1e-12))
        axes = [np.arange(-reach, reach + 1)] * grid.dim
        mesh = np.meshgrid(*axes, indexing="ij")
        offsets = np.stack([m.ravel() for m in mesh], axis=1)
        t = np.linalg.norm(offsets * h, axis=1) / epsilon
        weights = np.zeros(len(offsets))
        inside = t < 1.0
        weights[inside] = np.exp(-1.0 / (1.0 - t[inside] ** 2))
        keep = weights > 0
        weights = weights[keep] / weights[keep].sum()
        return cls(epsilon=float(epsilon), weights=weights, offsets=offsets[keep])


def _interior_and_rim(mask: np.ndarray):
    interior = erode_mask(mask, 1)
    rim = mask & ~interior
    return interior, rim


def _boundary_values(g, grid: GridSpec, rim: np.ndarray) -> np.ndarray:
    if callable(g):
        vals = np.zeros(grid.shape)
        vals[rim] = evaluate_formula(g, grid.coords()[rim])
    else:
        vals = np.asarray(g, dtype=float)
        if vals.shape != grid.shape:
            raise GridError("boundary array shape does not match the grid")
    if not np.isfinite(vals[rim]).all():
        bad = np.argwhere(~np.isfinite(vals) & rim)[0]
        raise GridError(f"non-finite boundary value at node {tuple(bad)}")
    return vals


def solve_dirichlet(g, spec: ProblemSpec, grid: GridSpec,
                    cfg: SolverConfig | None = None):
    """Damped-Newton solve of the phase-theta problem with Dirichlet data.

    `g` is a formula (callable on coordinates) or a full value array; it is
    read on the mask rim. Returns (PotentialField, SolveReport).
    """
    cfg = cfg or SolverConfig()
    d = grid.dim
    theta = spec.theta
    mask = grid.ball_mask()
    interior, rim = _interior_and_rim(mask)
    if not interior.any():
        raise GridError("domain too small: no interior nodes")
    values = np.where(rim, _boundary_values(g, grid, rim), 0.0)
    ops, lifts = second_difference_operators(PotentialField(grid, values, mask))
    laplacian = sum(ops[i, i] for i in range(d))
    rhs = d * math.tan(theta / d) - sum(lifts[i, i] for i in range(d))
    values[interior] = splinalg.spsolve(laplacian, rhs, permc_spec=_ORDERING)
    # every Jacobian keeps the union stencil pattern, explicit zeros included:
    # pruning the zeros of A_ij changes SuperLU's ordering and adds fill
    stack = [(i, j, op.tocoo()) for (i, j), op in ops.items()]
    rows = np.concatenate([c.row for _, _, c in stack])
    cols = np.concatenate([c.col for _, _, c in stack])

    report = SolveReport()

    def residual_of(vals_py):
        f = PotentialField(grid, np.where(mask, vals_py, 0.0), mask)
        mats, valid = hessian_matrices(f, stride=1)
        lam = eigvals_sym(mats[interior])
        res = np.arctan(lam).sum(axis=-1) - theta
        return res, mats, lam

    res, mats, lam = residual_of(values)
    norm = float(np.abs(res).max())
    report.min_eigen_history.append(float(lam[..., -1].min()))

    for it in range(cfg.max_iters):
        if norm <= cfg.residual_tol:
            stop = "converged"
            break
        coeff = slag_linearization_batch(mats[interior])  # (n_interior, d, d)
        # trace(A dM) with A = (I + M^2)^{-1}: off-diagonal pairs count twice
        data = np.concatenate([(1.0 if i == j else 2.0) * coeff[c.row, i, j] * c.data
                               for i, j, c in stack])
        jac = sparse.csr_matrix((data, (rows, cols)), shape=laplacian.shape)
        step = splinalg.spsolve(jac, -res, permc_spec=_ORDERING)
        if not np.isfinite(step).all():
            logger.warning("non-finite Newton step at iteration %d (residual %.3e)",
                           it, norm)
            stop = "non_finite_step"
            break
        t_step = cfg.damping
        accepted = False
        while t_step >= cfg.min_step:
            trial = values.copy()
            trial[interior] += t_step * step
            new_res, new_mats, new_lam = residual_of(trial)
            if float(np.abs(new_res).max()) < norm:
                accepted = True
                break
            t_step *= 0.5
        if not accepted:
            logger.warning("step underflow at iteration %d (residual %.3e)",
                           it, norm)
            stop = "step_underflow"
            break
        values = trial
        res, mats, lam = new_res, new_mats, new_lam
        norm = float(np.abs(res).max())
        report.step_history.append(t_step)
        min_eig = float(lam[..., -1].min())
        report.min_eigen_history.append(min_eig)
        if min_eig < cfg.convexity_floor:
            report.convexity_breached = True
        report.iterations = it + 1
    else:
        stop = "converged" if norm <= cfg.residual_tol else "max_iters"
    report.stop_reason = stop
    report.converged = stop == "converged"
    report.final_residual = norm
    field = PotentialField(grid, np.where(mask, values, np.nan), mask)
    return field, report


def mollify(u: PotentialField, m: MollifierSpec | float) -> PotentialField:
    """Convolve with the normalized bump; the mask shrinks by the stencil.

    Affine fields pass through unchanged; quadratics shift by a constant.
    """
    if not isinstance(m, MollifierSpec):
        m = MollifierSpec.build(float(m), u.grid)
    reach = int(np.abs(m.offsets).max())
    footprint = np.zeros((2 * reach + 1,) * u.grid.dim, dtype=bool)
    for off in m.offsets:
        footprint[tuple(off + reach)] = True
    valid = ndimage.binary_erosion(u.mask, structure=footprint, border_value=0)
    if not valid.any():
        raise GridError("mollifier stencil exceeds the masked data everywhere")
    if valid.sum() < u.mask.sum():
        logger.debug("mollified mask shrank from %d to %d nodes",
                     int(u.mask.sum()), int(valid.sum()))
    filled = np.where(u.mask, u.values, 0.0)
    out = np.zeros_like(filled)
    for w, off in zip(m.weights, m.offsets):
        shifted = filled
        for k, o in enumerate(off):
            shifted = np.roll(shifted, -int(o), axis=k)
        out += w * shifted
    values = np.where(valid, out, np.nan)
    return PotentialField(u.grid, values, valid)


def dilate_grid(grid: GridSpec, pad_cells: int) -> GridSpec:
    """Same spacing, box grown by pad_cells on every side, full-box mask."""
    shape = tuple(n + 2 * pad_cells for n in grid.shape)
    origin = tuple(o - pad_cells * grid.spacing for o in grid.origin)
    return GridSpec(grid.dim, shape, grid.spacing, origin, None)


def extend_convex(u: PotentialField, target: GridSpec) -> PotentialField:
    """Supporting-plane envelope of a convex field on a larger grid.

    Interior nodes contribute the plane through their value with the
    centered-difference slope (a global subgradient up to O(h^2)); planes
    exceeding u on the mask by more than `_SUPPORT_TOL` (relative) are
    dropped. The envelope is a max of affine functions, hence exactly
    convex; it matches u at interior nodes up to the filter tolerance and
    undershoots by O(h^2) on the one-node rim ring. Rim-anchored planes are
    excluded on purpose: boundary subdifferentials of a restricted function
    are steeper than the global slopes and would overshoot beyond the mask.
    """
    slopes, ok = gradient_field(u)
    if not ok.any():
        raise GridError("no interior nodes to anchor supporting planes")
    coords = u.grid.coords()
    xs, us = u.masked_points()
    p = slopes[ok]
    x0 = coords[ok]
    b = u.values[ok] - np.einsum("pi,pi->p", p, x0)
    scale = 1.0 + float(np.abs(us).max())
    overshoot = np.full(len(p), -np.inf)
    chunk = max(1, _CHUNK_FLOATS // max(1, len(xs)))
    for a in range(0, len(p), chunk):
        c = min(a + chunk, len(p))
        vals = p[a:c] @ xs.T + b[a:c, None] - us[None, :]
        overshoot[a:c] = vals.max(axis=1)
    keep = overshoot <= _SUPPORT_TOL * scale
    if not keep.any():
        raise ConvexityError("no supporting planes survive the filter")
    p, b = p[keep], b[keep]

    tcoords = target.coords().reshape(-1, target.dim)
    out = np.full(len(tcoords), -np.inf)
    for a in range(0, len(p), chunk):
        c = min(a + chunk, len(p))
        np.maximum(out, (tcoords @ p[a:c].T + b[a:c][None, :]).max(axis=1),
                   out=out)
    return PotentialField(target, out.reshape(target.shape),
                          np.ones(target.shape, dtype=bool))


def scale_potential(u: PotentialField, ratio: float = 1.2) -> PotentialField:
    """Domain-margin device: ratio^2 * u(x / ratio) on the enlarged ball.

    Intended for convex fields; values are first extended so that the
    multilinear interpolation never reads unmasked data.
    """
    if ratio <= 1:
        raise ValueError("ratio must exceed 1")
    grid = u.grid
    if grid.ball_radius is None:
        raise GridError("scale_potential expects a ball-domain field")
    pad = int(math.ceil((ratio - 1.0) * grid.ball_radius / grid.spacing)) + 1
    big = dilate_grid(grid, pad)
    ext = extend_convex(u, big)
    new_radius = ratio * grid.ball_radius
    target = GridSpec(grid.dim, big.shape, big.spacing, big.origin, new_radius)
    pts = target.coords().reshape(-1, grid.dim) / ratio
    frac = (pts - np.array(big.origin)) / big.spacing
    interp = ndimage.map_coordinates(ext.values, frac.T, order=1, mode="nearest")
    values = ratio**2 * interp.reshape(target.shape)
    return PotentialField(target, values, target.ball_mask())


def subsolution_preservation_trial(u: PotentialField, theta: float,
                                   eps_list) -> AuditReport:
    """Mollify at each epsilon and re-check the subsolution property.

    The input must itself pass the subsolution check; the convex average of
    a subsolution of the concave operator stays a subsolution, so the audit
    expects zero violations at every epsilon. Mollification reads only real
    masked data, so the valid region shrinks with epsilon (the shrinking-ball
    chain of the smooth-approximation device).
    """
    from .audits import check_subsolution

    base = check_subsolution(u, theta)
    if not base.passed:
        raise ConvexityError("input field is not a subsolution")
    violations = []
    checked = 0
    min_margin = np.inf
    per_eps = {}
    for eps in eps_list:
        smooth = mollify(u, eps)
        rep = check_subsolution(smooth, theta)
        checked += rep.checked_nodes
        min_margin = min(min_margin, rep.min_margin)
        violations.extend(rep.violations)
        per_eps[f"{eps:.6g}"] = rep.min_margin
    return AuditReport(
        name="subsolution-preservation",
        checked_nodes=checked,
        violations=violations,
        min_margin=float(min_margin),
        details={"per_epsilon_min_margin": per_eps},
    )
