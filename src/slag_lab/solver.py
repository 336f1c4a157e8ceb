"""Dirichlet solver for the arctangent operator plus smoothing devices.

The solve is a damped Newton iteration on the finite-difference residual
F_i(u) = sum(arctan(lambda(H_i))) - theta over interior nodes. One table of
the stencil terms that join two interior nodes, from
`hessians.stencil_terms`, serves both linear systems; D_ij below is the
(i, j) Hessian entry over those terms alone. The initial guess solves
sum_i D_ii u = n tan(theta/n) - sum_i R_ii, where R is the Hessian of the
rim data with the interior set to 0, and the exact Jacobian
trace((I + M^2)^{-1} dM/du) is sum_ij A_ij D_ij with A = (I + M^2)^{-1}.
Both systems are CSR over the interior nodes in row-major order, and each
Newton step only scatters its A_ij data into the fixed Jacobian pattern.
Every system is solved by restarted GMRES (Saad, *Iterative Methods for
Sparse Linear Systems*, Alg. 9.5), right-preconditioned by one multigrid
V-cycle with Galerkin coarse operators (Brandt, Math. Comp. 1977;
Trottenberg, Oosterlee and Schueller, *Multigrid*, 2001): d-linear
prolongation P from the interior nodes at even indices, R = P^T, coarse
operators R A P, weighted-Jacobi smoothing and a dense solve of the
coarsest level.

Newton systems are solved inexactly (Dembo, Eisenstat and Steihaug,
"Inexact Newton methods", SIAM J. Numer. Anal. 19, 1982): the system of
step k only to the relative residual eta_k = max(`_KRYLOV_RTOL`,
min(`_FORCING_CAP`, |F_k|_inf)), since a step far from the solution needs
no more digits than the residual it corrects; near the solution eta_k
falls to `_KRYLOV_RTOL`, as in a tight solve. The
Poisson guess is solved to `_POISSON_RTOL`, so that it stays exact on
quadratic and harmonic data.

What depends on the grid alone is built once per `GridSpec` by
`_solve_plan` and kept in a small cache: the masks, the Poisson matrix
with its V-cycle, the Jacobian pattern with the scatter of the stencil
terms into it, and the prolongations. Reusing it is safe because a plan is
a pure function of the (frozen, hashable) grid and of the module
constants, every array in it is read-only, and each Newton step builds its
Jacobian as a new matrix over the cached pattern, so no solve writes into
it. A linear solve that fails (zero Jacobi diagonal, singular coarsest
block, Krylov breakdown, iteration cap, non-finite iterate) logs its cause:
in the Newton loop it ends the iteration as a non-finite step, and for the
initial guess it raises LinearSolveError. The report names why the
iteration stopped: convergence, the iteration cap, a line search that fell
below `min_step`, or a non-finite Newton step (no solution of the Newton
system), and records the time and GMRES iterations of the linear solves.
Mollification and the supporting-plane convex extension implement the
smooth-approximation devices used by the rotation audits.

scipy is imported inside the functions that build sparse matrices (the
CSR patterns, the prolongations and each Newton Jacobian), not at module
level: the package imports this module, and a first scipy import costs a
process about 0.35 s more than numpy alone (scipy's array-API layer copies
numpy's namespace), which the rotation, conjugate and audit paths do not
need. The solve uses `scipy.sparse` alone, not `scipy.sparse.linalg`.
`mollify` erodes its mask and `scale_potential` interpolates in numpy.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field as dataclass_field
from functools import lru_cache
from itertools import product

import numpy as np

from .conjugate import _max_plus
from .eigen import eigvals_sym
from .errors import ConvexityError, GridError, LinearSolveError
from .fields import GridSpec, PotentialField, erode_mask, evaluate_formula
from .hessians import _combine, gradient_field, hessian_matrices, stencil_terms
from .operators import ProblemSpec, slag_linearization_batch
from .reports import AuditReport, SolveReport

logger = logging.getLogger("slag_lab.solver")
# extend_convex: relative overshoot above u that still keeps a plane
_SUPPORT_TOL = 1e-9
# linear solves: GMRES(_KRYLOV_RESTART), preconditioned by one Galerkin
# V-cycle, to a relative residual of at least _KRYLOV_RTOL. The Poisson guess
# is used as it stands when it already solves the problem (quadratic and
# harmonic data), so it is solved to direct-solver accuracy
_KRYLOV_RTOL = 1e-12
_POISSON_RTOL = 1e-13
# a Newton system is solved to max(_KRYLOV_RTOL, min(_FORCING_CAP, |F|_inf)).
# 0.003 kept the Newton step count of every solve of criteria 7, 9 and 10
# and of the 21^3 to 65^3 balls; 0.01 and 0.005 each ended one of those
# solves a step early, its last residual landing just below residual_tol,
# and 0.1 took 11 steps in place of 8 on the 65^3 ball
_FORCING_CAP = 0.003
_KRYLOV_RESTART = 30
_KRYLOV_MAXITER = 150
# an Arnoldi vector this small relative to A z ends the Krylov space
_BREAKDOWN = 1e-14
# a true residual that stopped falling within this many machine epsilons of
# |A| |x| + |b| (normwise backward error, Rigal and Gaches, JACM 1967) is
# the round-off floor and is accepted below the Krylov tolerance
_ROUNDOFF_FLOOR = 16
_JACOBI_WEIGHT = 0.7
_PRE_SWEEPS = 2
_POST_SWEEPS = 3
# the coarsest level, solved dense, has at most this many unknowns
_COARSEST = 100


@dataclass
class SolverConfig:
    max_iters: int = 30
    residual_tol: float = 1e-10
    damping: float = 1.0
    min_step: float = 1e-6
    convexity_floor: float = -1e-6

    def __post_init__(self):
        # 0 runs no Newton step: the Poisson guess only
        if (isinstance(self.max_iters, bool)
                or not isinstance(self.max_iters, (int, np.integer))
                or self.max_iters < 0):
            raise ValueError("max_iters must be a nonnegative integer")
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


def _csr_pattern(key: np.ndarray, n: int):
    """Zero-valued n x n CSR pattern of the `row * n + col` keys, and the
    int32 data slot of every key."""
    from scipy import sparse

    pattern, slot = np.unique(key, return_inverse=True)
    indptr = np.searchsorted(pattern, np.arange(n + 1, dtype=np.int64) * n)
    mat = sparse.csr_matrix((np.zeros(len(pattern)), (pattern % n).astype(np.int32),
                             indptr.astype(np.int32)), shape=(n, n))
    return mat, slot.astype(np.int32)


def prolongations(interior: np.ndarray) -> list:
    """(P, R = P^T) of each level of the multigrid hierarchy, finest first.

    P is the d-linear prolongation from the coarse level to the fine one.
    Level l + 1 keeps the nodes of level l at even indices; each level's
    unknowns are its nodes in row-major order. A fine node takes weight 1
    from a coarse node it coincides with, and 1/2 per axis along which it
    lies halfway between two. Coarse nodes outside the mask are dropped,
    which makes the correction zero there (Dirichlet). Coarsening stops at
    `_COARSEST` unknowns or fewer.
    """
    from scipy import sparse

    out = []
    mask = interior
    while mask.sum() > _COARSEST:
        coarse = mask[(slice(None, None, 2),) * mask.ndim]
        if not coarse.any():
            break
        index = np.full(coarse.shape, -1, dtype=np.int64)
        index[coarse] = np.arange(int(coarse.sum()))
        nodes = np.argwhere(mask)
        half, odd = nodes // 2, nodes % 2
        rows, cols, weights = [], [], []
        for corner in product((0, 1), repeat=mask.ndim):
            step = odd * np.array(corner)
            # corner 1 of an even axis would repeat corner 0
            keep = (step.sum(axis=1) == sum(corner)) & (half + step < coarse.shape).all(axis=1)
            parent = np.full(len(nodes), -1, dtype=np.int64)
            parent[keep] = index[tuple((half + step)[keep].T)]
            row = np.flatnonzero(parent >= 0)
            rows.append(row)
            cols.append(parent[row])
            weights.append(0.5 ** odd[row].sum(axis=1))
        p = sparse.csr_matrix((np.concatenate(weights),
                               (np.concatenate(rows), np.concatenate(cols))),
                              shape=(len(nodes), int(coarse.sum())))
        out.append((p, p.T.tocsr()))
        mask = coarse
    return out


def _read_only(*items):
    """Make each array, and each sparse matrix's arrays, read-only."""
    for item in items:
        parts = (item.data, item.indices, item.indptr) if hasattr(item, "indptr") else (item,)
        for part in parts:
            part.flags.writeable = False


def _v_cycle(a, prolongs):
    """The Galerkin V-cycle of `a` as a function of the residual.

    The coarse operators are R A P with R = P^T, level by level; the
    smoother is weighted Jacobi and the coarsest level is solved dense.
    The arrays it builds are read-only. Raises LinearSolveError on a zero
    or non-finite Jacobi diagonal, and LinAlgError on a singular coarsest
    block.
    """
    levels = []
    for p, r in prolongs:
        diag = a.diagonal()
        if not (np.isfinite(diag).all() and (diag != 0).all()):
            raise LinearSolveError("zero or non-finite Jacobi diagonal")
        scale = _JACOBI_WEIGHT / diag
        levels.append((a, scale, p, r))
        a = r @ a @ p
        _read_only(scale, a)
    coarsest = np.linalg.inv(a.toarray())
    _read_only(coarsest)

    def cycle(b):
        rhs, iterates = [], []
        for op, scale, p, r in levels:
            x = scale * b
            for _ in range(_PRE_SWEEPS - 1):
                x += scale * (b - op @ x)
            rhs.append(b)
            iterates.append(x)
            b = r @ (b - op @ x)
        x = coarsest @ b
        for (op, scale, p, r), b, x_fine in zip(levels[::-1], rhs[::-1], iterates[::-1]):
            x = x_fine + p @ x
            for _ in range(_POST_SWEEPS):
                x += scale * (b - op @ x)
        return x

    return cycle


def _gmres(a, b: np.ndarray, precondition, rtol: float):
    """Right-preconditioned restarted GMRES (Saad, Alg. 9.5) for a x = b.

    Arnoldi by modified Gram-Schmidt, the least-squares residual by Givens
    rotations. Stops once |b - a x| <= rtol |b|, checked on the
    true residual at the end of each cycle, or once that residual no longer
    falls from one cycle to the next and lies within `_ROUNDOFF_FLOOR`
    machine epsilons of |a|_inf |x| + |b|, the most a solve in floating
    point can reach; returns (x, iterations). Raises LinearSolveError on a
    non-finite iterate, on a breakdown before the tolerance is met, and at
    `_KRYLOV_MAXITER` iterations.
    """
    b_norm = float(np.linalg.norm(b))
    tol = rtol * b_norm
    x = np.zeros_like(b)
    r = b
    iterations = 0
    breakdown = False
    last = math.inf
    while True:
        beta = float(np.linalg.norm(r))
        if not math.isfinite(beta):
            raise LinearSolveError("non-finite iterate")
        if beta <= tol:
            return x, iterations
        if beta >= last:
            a_norm = float(abs(a).sum(axis=1).max())
            floor = (_ROUNDOFF_FLOOR * np.finfo(float).eps
                     * (a_norm * float(np.linalg.norm(x)) + b_norm))
            if beta <= floor:
                logger.debug("GMRES residual %.3e stalled at the round-off "
                             "floor %.3e after %d iterations, above the "
                             "tolerance %.3e", beta, floor, iterations, tol)
                return x, iterations
        last = beta
        if breakdown:
            raise LinearSolveError(f"Krylov breakdown at residual {beta:.3e}")
        if iterations >= _KRYLOV_MAXITER:
            raise LinearSolveError(f"no convergence in {iterations} iterations")
        basis, search = [r / beta], []
        hess = np.zeros((_KRYLOV_RESTART + 1, _KRYLOV_RESTART))
        cos, sin = np.zeros(_KRYLOV_RESTART), np.zeros(_KRYLOV_RESTART)
        g = np.zeros(_KRYLOV_RESTART + 1)
        g[0] = beta
        for j in range(min(_KRYLOV_RESTART, _KRYLOV_MAXITER - iterations)):
            search.append(precondition(basis[j]))
            w = a @ search[j]
            size = float(np.linalg.norm(w))
            for i in range(j + 1):
                hess[i, j] = basis[i] @ w
                w -= hess[i, j] * basis[i]
            hess[j + 1, j] = float(np.linalg.norm(w))
            if not math.isfinite(hess[j + 1, j]):
                raise LinearSolveError("non-finite iterate")
            # breakdown: the Krylov space stopped growing
            breakdown = hess[j + 1, j] <= _BREAKDOWN * size
            if not breakdown:
                basis.append(w / hess[j + 1, j])
            for i in range(j):
                hess[i, j], hess[i + 1, j] = (
                    cos[i] * hess[i, j] + sin[i] * hess[i + 1, j],
                    -sin[i] * hess[i, j] + cos[i] * hess[i + 1, j])
            rho = math.hypot(hess[j, j], hess[j + 1, j])
            if rho == 0.0:
                raise LinearSolveError("Krylov breakdown: singular operator")
            cos[j], sin[j] = hess[j, j] / rho, hess[j + 1, j] / rho
            hess[j, j], hess[j + 1, j] = rho, 0.0
            g[j + 1], g[j] = -sin[j] * g[j], cos[j] * g[j]
            iterations += 1
            if abs(g[j + 1]) <= tol or breakdown:
                break
        k = len(search)
        y = np.linalg.solve(hess[:k, :k], g[:k])
        x = x + y @ np.array(search)
        r = b - a @ x


def _linear_solve(a, rhs: np.ndarray, levels, rtol: float,
                  report: SolveReport):
    """Solve a x = rhs to relative residual `rtol` by multigrid-preconditioned
    GMRES; None when it fails.

    `a` is CSR over the interior nodes in row-major order, and `levels`
    its `prolongations`, or its V-cycle when that is already built. A
    failure logs its cause as a warning. The time goes to
    `report.linear_solve_s`, the GMRES iterations of a solved system to
    `report.krylov_iterations`.
    """
    start = time.perf_counter()
    try:
        precondition = levels if callable(levels) else _v_cycle(a, levels)
        x, iterations = _gmres(a, rhs, precondition, rtol)
    except (LinearSolveError, np.linalg.LinAlgError) as exc:
        logger.warning("linear solve of %d unknowns failed: %s", len(rhs), exc)
        x = None
    seconds = time.perf_counter() - start
    report.linear_solve_s += seconds
    if x is not None:
        report.krylov_iterations.append(iterations)
        logger.debug("solved %d unknowns to relative residual %.1e: %d GMRES "
                     "iterations in %.3f s", len(rhs), rtol, iterations, seconds)
    return x


@dataclass(frozen=True, eq=False)
class _Plan:
    """What a solve needs that depends on its grid alone; read-only."""

    mask: np.ndarray
    interior: np.ndarray
    rim: np.ndarray
    n: int                  # interior nodes, the unknowns of both systems
    laplacian: object       # CSR sum of the D_ii, the Poisson matrix
    poisson_cycle: object   # its V-cycle
    indptr: np.ndarray      # the CSR pattern of every Newton Jacobian
    indices: np.ndarray
    slot: np.ndarray        # data slot of each stencil term in that pattern
    entry: np.ndarray       # flat index of its A_ij into (n, d, d)
    weight: np.ndarray      # its weight, doubled for i != j
    prolongs: list          # `prolongations` of the interior


# plans kept: `slag-lab run --all` solves on six grids, at most three of
# them in turn (criterion 9's 65^2, 129^2 and 257^2), and builds each plan
# once; a plan takes 28 MB at 257^2 and 86 MB at 65^3, so a longer cache
# would mostly hold memory
@lru_cache(maxsize=4)
def _solve_plan(grid: GridSpec) -> _Plan:
    """The `_Plan` of `grid`, built on first use and then shared.

    `_COARSEST` and `_JACOBI_WEIGHT` are read when the plan is built;
    clear the cache after changing them.
    """
    d = grid.dim
    mask = grid.ball_mask()
    interior, rim = _interior_and_rim(mask)
    if not interior.any():
        raise GridError("domain too small: no interior nodes")
    row, col, pair, weight = stencil_terms(mask, grid.spacing)
    # both systems number the interior nodes in row-major order, as the
    # stencil terms do; the hierarchy of their V-cycles depends on the mask
    n = int(interior.sum())
    prolongs = prolongations(interior)
    key = row * n + col
    diagonal = pair[:, 0] == pair[:, 1]
    # the Poisson matrix sums the D_ii; their rim terms, moved to the
    # right-hand side, are the Hessian of the rim data with the interior at 0
    laplacian, lap_slot = _csr_pattern(key[diagonal], n)
    laplacian.data = np.bincount(lap_slot, weight[diagonal], minlength=laplacian.nnz)
    # every Jacobian keeps the union stencil pattern with its explicit zeros;
    # a Newton step only scatters weight * A[row, i, j] into it.
    # trace(A dM) with A = (I + M^2)^{-1}: off-diagonal pairs count twice
    jac, slot = _csr_pattern(key, n)
    entry = (row * d + pair[:, 0]) * d + pair[:, 1]
    weight = np.where(diagonal, weight, 2.0 * weight)
    _read_only(mask, interior, rim, laplacian, jac, slot, entry, weight,
               *(m for level in prolongs for m in level))
    logger.debug("solve plan of the %s grid: %d unknowns, %d multigrid levels",
                 "x".join(map(str, grid.shape)), n, len(prolongs) + 1)
    return _Plan(mask, interior, rim, n, laplacian, _v_cycle(laplacian, prolongs),
                 jac.indptr, jac.indices, slot, entry, weight, prolongs)


def solve_dirichlet(g, spec: ProblemSpec, grid: GridSpec,
                    cfg: SolverConfig | None = None):
    """Damped-Newton solve of the phase-theta problem with Dirichlet data.

    `g` is a formula (callable on coordinates) or a full value array; it is
    read on the mask rim. Returns (PotentialField, SolveReport).
    """
    from scipy import sparse

    cfg = cfg or SolverConfig()
    d = grid.dim
    theta = spec.theta
    plan = _solve_plan(grid)
    mask, interior, rim, n = plan.mask, plan.interior, plan.rim, plan.n
    values = np.where(rim, _boundary_values(g, grid, rim), 0.0)
    report = SolveReport()
    rim_hessian = hessian_matrices(PotentialField(grid, values, mask))[0][interior]
    rhs = d * math.tan(theta / d) - sum(rim_hessian[:, i, i] for i in range(d))
    guess = _linear_solve(plan.laplacian, rhs, plan.poisson_cycle, _POISSON_RTOL,
                          report)
    if guess is None:
        raise LinearSolveError("the Poisson system of the initial guess has no solution")
    values[interior] = guess
    del rim_hessian, guess

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
        data = np.bincount(plan.slot, plan.weight * coeff.reshape(-1)[plan.entry],
                           minlength=len(plan.indices))
        jac = sparse.csr_matrix((data, plan.indices, plan.indptr), shape=(n, n))
        # the forcing term: no more digits than the residual it corrects
        eta = max(_KRYLOV_RTOL, min(_FORCING_CAP, norm))
        step = _linear_solve(jac, -res, plan.prolongs, eta, report)
        if step is None:
            logger.warning("no Newton step at iteration %d (residual %.3e)",
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
    field = PotentialField(grid, np.where(mask, values, np.nan), mask.copy())
    return field, report


def mollify(u: PotentialField, m: MollifierSpec | float) -> PotentialField:
    """Convolve with the normalized bump; the mask shrinks by the stencil.

    The kernel sum is one `hessians._combine` stencil of the kernel's
    (offset, weight) terms, in order, over the values with NaN outside the
    mask; as mask values are finite and the weights sum to 1, the sum is
    finite exactly where every offset lands on a masked node, the new mask.
    Affine fields pass through unchanged; quadratics shift by a constant.
    """
    if not isinstance(m, MollifierSpec):
        m = MollifierSpec.build(float(m), u.grid)
    values = _combine(np.where(u.mask, u.values, np.nan), zip(m.offsets, m.weights))
    valid = np.isfinite(values)
    if not valid.any():
        raise GridError("mollifier stencil exceeds the masked data everywhere")
    if valid.sum() < u.mask.sum():
        logger.debug("mollified mask shrank from %d to %d nodes",
                     int(u.mask.sum()), int(valid.sum()))
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
    overshoot = _max_plus(np.column_stack([p, b]),
                          np.column_stack([xs, np.ones(len(xs))]), us)
    keep = overshoot <= _SUPPORT_TOL * scale
    if not keep.any():
        raise ConvexityError("no supporting planes survive the filter")
    p, b = p[keep], b[keep]
    out = _max_plus(target.coords().reshape(-1, target.dim), p, -b)
    return PotentialField(target, out.reshape(target.shape),
                          np.ones(target.shape, dtype=bool))


def _interpolate(values: np.ndarray, frac: np.ndarray) -> np.ndarray:
    """d-linear interpolation of `values` at fractional indices `frac` (n, d).

    Indices past the box read its nearest node. The weights are 1 - t and
    1 - (1 - t) on each axis, multiplied onto each corner value axis by
    axis and summed corner by corner in row-major order, which is the
    arithmetic of `scipy.ndimage.map_coordinates(order=1, mode="nearest")`.
    """
    top = np.array(values.shape) - 1
    lo = np.floor(frac).astype(np.intp)
    w0 = 1.0 - (frac - lo)
    w1 = 1.0 - w0
    out = np.zeros(len(frac))
    for corner in product((0, 1), repeat=values.ndim):
        term = values[tuple(np.clip(lo + corner, 0, top).T)]
        for k, c in enumerate(corner):
            term = term * (w1[:, k] if c else w0[:, k])
        out += term
    return out


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
    values = ratio**2 * _interpolate(ext.values, frac).reshape(target.shape)
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
