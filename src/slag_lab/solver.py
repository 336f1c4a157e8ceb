"""Dirichlet solver for the arctangent operator plus smoothing devices.

The solve is a damped Newton iteration on the finite-difference residual
F_i(u) = sum(arctan(lambda(H_i))) - theta over interior nodes. One table of
the stencil terms that join two interior nodes, built once per solve by
`hessians.stencil_terms`, serves both linear systems; D_ij below is the
(i, j) Hessian entry over those terms alone. The initial guess solves
sum_i D_ii u = n tan(theta/n) - sum_i R_ii, where R is the Hessian of the
rim data with the interior set to 0, and the exact Jacobian
trace((I + M^2)^{-1} dM/du) is sum_ij A_ij D_ij with A = (I + M^2)^{-1}.
Both systems are assembled once as CSC patterns in a geometric
nested-dissection order of the interior nodes (George, SIAM J. Numer.
Anal. 1973): each box is split across its widest axis at the middle
plane, the halves come first and the plane last. Each Newton step only
scatters its A_ij data into the fixed pattern, and SuperLU factors the
permuted system with its natural column order in symmetric mode. The report
names why the iteration stopped: convergence, the iteration cap, a line
search that fell below `min_step`, or a non-finite Newton step (singular
Jacobian), and records the time and fill of the linear solves.
Mollification and the supporting-plane convex extension implement the
smooth-approximation devices used by the rotation audits.

scipy is imported inside the functions that need it (the CSC patterns,
SuperLU, `mollify` and `scale_potential`), not at module level: the
package imports this module, and a first scipy import costs a process
about 0.35 s more than numpy alone (scipy's array-API layer copies
numpy's namespace), which the rotation, conjugate and audit paths do not
need.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache

import numpy as np

from .conjugate import _CHUNK_FLOATS
from .eigen import eigvals_sym
from .errors import ConvexityError, GridError
from .fields import GridSpec, PotentialField, erode_mask, evaluate_formula
from .hessians import gradient_field, hessian_matrices, stencil_terms
from .operators import ProblemSpec, slag_linearization_batch
from .reports import AuditReport, SolveReport

logger = logging.getLogger("slag_lab.solver")
# extend_convex: relative overshoot above u that still keeps a plane
_SUPPORT_TOL = 1e-9
# nested dissection: boxes of at most this many nodes keep row-major order
_DISSECTION_LEAF = 16
# SuperLU settings of both solve_dirichlet systems, which arrive in
# dissection order; the natural column order puts SuperLU in symmetric mode
_PERMC = "NATURAL"
_DIAG_PIVOT_THRESH = 1e-2
_SINGULAR = "Factor is exactly singular"


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


@lru_cache(maxsize=None)
def _box_order(shape: tuple) -> np.ndarray:
    """Row-major flat indices of an index box in nested-dissection order.

    The box splits across its widest axis at the middle plane; the two
    halves come first (each in its own dissection order), the plane last
    in row-major order. Read-only, shared between calls.
    """
    size = math.prod(shape)
    if size <= _DISSECTION_LEAF:
        order = np.arange(size, dtype=np.int32)
    else:
        k = int(np.argmax(shape))
        mid = shape[k] // 2
        flat = np.arange(size, dtype=np.int32).reshape(shape)
        lead = (slice(None),) * k
        parts = []
        for half in (slice(0, mid), slice(mid + 1, shape[k])):
            block = flat[lead + (half,)]
            parts.append(block.ravel()[_box_order(block.shape)])
        parts.append(flat[lead + (mid,)].ravel())
        order = np.concatenate(parts)
    order.flags.writeable = False
    return order


def dissection_order(mask: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the true nodes of `mask`.

    Entry k is the row-major rank among the masked nodes of the k-th node
    in the dissection order of the whole index box, filtered to the mask.
    """
    flat = mask.ravel()
    rank = np.cumsum(flat, dtype=np.int32) - 1
    order = _box_order(mask.shape)
    return rank[order[flat[order]]]


def _csc_pattern(key: np.ndarray, n: int):
    """Zero-valued n x n CSC pattern of the `col * n + row` keys, and the
    int32 data slot of every key."""
    from scipy import sparse

    pattern, slot = np.unique(key, return_inverse=True)
    indptr = np.searchsorted(pattern, np.arange(n + 1, dtype=np.int64) * n)
    mat = sparse.csc_matrix((np.zeros(len(pattern)), (pattern % n).astype(np.int32),
                             indptr.astype(np.int32)), shape=(n, n))
    return mat, slot.astype(np.int32)


def _factor_solve(a, rhs: np.ndarray, report: SolveReport):
    """Solve a x = rhs by SuperLU; None when the factor is exactly singular.

    `a` is CSC and arrives in dissection order, so SuperLU keeps its columns
    in place. The time goes to `report.linear_solve_s`; `report.factor_nnz`
    keeps the largest L + U fill.
    """
    from scipy.sparse import linalg as splinalg

    start = time.perf_counter()
    try:
        lu = splinalg.splu(a, permc_spec=_PERMC, diag_pivot_thresh=_DIAG_PIVOT_THRESH)
    except RuntimeError as exc:
        if str(exc) != _SINGULAR:
            raise
        return None
    x = lu.solve(rhs)
    seconds = time.perf_counter() - start
    report.linear_solve_s += seconds
    report.factor_nnz = max(report.factor_nnz, lu.nnz)
    logger.debug("factored %d unknowns: %d nonzeros in %.3f s",
                 a.shape[0], lu.nnz, seconds)
    return x


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
    row, col, pair, weight = stencil_terms(mask, grid.spacing)
    report = SolveReport()
    # both systems live in dissection order: unknown k is interior node perm[k]
    perm = dissection_order(interior)
    n = len(perm)
    position = np.empty_like(perm)
    position[perm] = np.arange(n, dtype=perm.dtype)
    key = position[col].astype(np.int64) * n + position[row]
    diagonal = pair[:, 0] == pair[:, 1]
    # the Poisson matrix sums the D_ii; their rim terms, moved to the
    # right-hand side, are the Hessian of the rim data with the interior at 0
    laplacian, lap_slot = _csc_pattern(key[diagonal], n)
    laplacian.data = np.bincount(lap_slot, weight[diagonal], minlength=laplacian.nnz)
    rim_hessian = hessian_matrices(PotentialField(grid, values, mask))[0][interior]
    rhs = d * math.tan(theta / d) - sum(rim_hessian[:, i, i] for i in range(d))
    values[interior] = _factor_solve(laplacian, rhs[perm], report)[position]
    # every Jacobian keeps the union stencil pattern, built once with its
    # explicit zeros; a Newton step only scatters weight * A[row, i, j] into
    # it. trace(A dM) with A = (I + M^2)^{-1}: off-diagonal pairs count twice
    jac, slot = _csc_pattern(key, n)
    entry = (row * d + pair[:, 0]) * d + pair[:, 1]  # flat index into A
    weight = np.where(diagonal, weight, 2.0 * weight)
    # not held through the Newton factors
    del row, col, pair, key, diagonal, laplacian, lap_slot, rim_hessian

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
        jac.data = np.bincount(slot, weight * coeff.reshape(-1)[entry],
                               minlength=jac.nnz)
        step = _factor_solve(jac, -res[perm], report)
        if step is None or not np.isfinite(step).all():
            logger.warning("non-finite Newton step at iteration %d (residual %.3e)",
                           it, norm)
            stop = "non_finite_step"
            break
        t_step = cfg.damping
        accepted = False
        while t_step >= cfg.min_step:
            trial = values.copy()
            trial[interior] += t_step * step[position]
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
    from scipy import ndimage

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
    from scipy import ndimage

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
