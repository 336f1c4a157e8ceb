"""Independent output checks for the benchmark workloads.

Everything here is plain numpy: finite differences, eigenvalues, brute-force
conjugates and closed-form rotations are recomputed without calling
slag_lab, so a fault in the program cannot also hide in its check. Each
function returns a list of failure messages; an empty list means the output
passed.
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

# criterion-1 tolerance on rotated Hessians, and the criterion-5 window slack
HESSIAN_TOL = 1e-6
WINDOW_TOL = 1e-6
# the fast transform's documented contract against brute force
CONJUGATE_RTOL = 1e-12
# the solver's default residual tolerance (SolverConfig.residual_tol)
SOLVE_TOL = 1e-10
# rotated values are compared on the domain less its outer RIM_CELLS layers;
# the domain must cover the gradient image of the ball mask less its outer
# COVER_CELLS node layers (corners included). The nearest slope node to an
# image has its node sup up to two layers from the source node (over 300
# seeds in 3-D and 60 in 2-D), and the domain keeps only sups attained one
# layer inside the mask. A margin in radius is not enough on a coarse lattice:
# at 21^3 the interior ends along the diagonal at |x| = 0.693.
RIM_CELLS = 2
COVER_CELLS = 3


def node_coords(grid) -> np.ndarray:
    """Coordinates origin + i*h of every node, shape (*shape, dim)."""
    axes = [grid.origin[k] + grid.spacing * np.arange(n)
            for k, n in enumerate(grid.shape)]
    return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)


def erode(mask: np.ndarray, cells: int) -> np.ndarray:
    """Drop nodes within `cells` steps (corners included) of the mask's edge."""
    out = np.asarray(mask, dtype=bool)
    for _ in range(cells):
        pad = np.pad(out, 1, constant_values=False)
        nxt = np.ones_like(out)
        for off in product((0, 1, 2), repeat=out.ndim):
            nxt &= pad[tuple(slice(o, o + n) for o, n in zip(off, out.shape))]
        out = nxt
    return out


def _shifted(values: np.ndarray, off) -> np.ndarray:
    """values[x + off] on the nodes one cell away from every face."""
    return values[tuple(slice(1 + o, n - 1 + o) for o, n in zip(off, values.shape))]


def fd_hessian(values: np.ndarray, h: float) -> np.ndarray:
    """Centered second differences and the 4-point cross stencil.

    Returns (*shape, d, d) with NaN on the outermost node layer.
    """
    d = values.ndim
    core = _shifted(values, (0,) * d)
    out = np.full(values.shape + (d, d), np.nan)
    inner = tuple(slice(1, n - 1) for n in values.shape)

    def unit(*pairs):
        off = [0] * d
        for axis, step in pairs:
            off[axis] += step
        return tuple(off)

    for i in range(d):
        out[inner + (i, i)] = (
            _shifted(values, unit((i, 1))) - 2.0 * core
            + _shifted(values, unit((i, -1)))
        ) / h**2
        for j in range(i + 1, d):
            cross = (
                _shifted(values, unit((i, 1), (j, 1)))
                - _shifted(values, unit((i, 1), (j, -1)))
                - _shifted(values, unit((i, -1), (j, 1)))
                + _shifted(values, unit((i, -1), (j, -1)))
            ) / (4.0 * h**2)
            out[inner + (i, j)] = cross
            out[inner + (j, i)] = cross
    return out


def rotation_matrix_image(a: np.ndarray, alpha: float) -> np.ndarray:
    """B = (cA - sI)(sA + cI)^{-1}: the rotated Hessian of x.Ax/2."""
    c, s = math.cos(alpha), math.sin(alpha)
    eye = np.eye(a.shape[0])
    return (c * a - s * eye) @ np.linalg.inv(s * a + c * eye)


def _domain_covers(domain: np.ndarray, grid, points: np.ndarray) -> list[str]:
    """Every image point's nearest slope node must lie in the domain."""
    idx = np.rint((points - np.array(grid.origin)) / grid.spacing).astype(int)
    inside_box = np.all((idx >= 0) & (idx < np.array(grid.shape)), axis=1)
    if not inside_box.all():
        return [f"{int((~inside_box).sum())} gradient-map images fall off the slope grid"]
    missing = int((~domain[tuple(idx.T)]).sum())
    if missing:
        return [f"{missing} gradient-map images lie outside the rotated domain"]
    return []


def _source_points(source_grid, source_mask: np.ndarray) -> np.ndarray:
    """Source nodes of the mask less its outer COVER_CELLS layers."""
    return node_coords(source_grid)[erode(source_mask, COVER_CELLS)]


def check_quadratic_rotation(a: np.ndarray, alpha: float, source_grid,
                             source_mask: np.ndarray, grid, values: np.ndarray,
                             domain: np.ndarray) -> list[str]:
    """Rotated x.Ax/2 must equal y.By/2 on the domain interior.

    Values are compared at round-off level, FD Hessians against B at the
    criterion-1 tolerance, and the domain must contain the gradient-map
    image (cI + sA)x of the source mask less its outer COVER_CELLS layers.
    """
    b = rotation_matrix_image(a, alpha)
    inner = erode(domain, RIM_CELLS)
    if not inner.any():
        return ["rotated domain has no interior node"]
    y = node_coords(grid)[inner]
    exact = 0.5 * np.einsum("ni,ij,nj->n", y, b, y)
    value_err = np.abs(values[inner] - exact) / (1.0 + np.abs(exact))
    fails = []
    if not value_err.max() <= 1e-9:
        fails.append(f"rotated values off y.By/2 by {value_err.max():.3e}")
    hess = fd_hessian(values, grid.spacing)[inner]
    hess_err = float(np.abs(hess - b).max())
    if not hess_err <= HESSIAN_TOL:
        fails.append(f"rotated Hessian off B by {hess_err:.3e}")
    c, s = math.cos(alpha), math.sin(alpha)
    pts = _source_points(source_grid, source_mask)
    fails += _domain_covers(domain, grid, pts @ (c * np.eye(len(a)) + s * a).T)
    return fails


def quartic_conjugate_radius(rho: np.ndarray, k2: float, k4: float) -> np.ndarray:
    """Solve rho = k2 r + k4 r^3 for r >= 0 (monotone cubic) by Newton."""
    r = rho / k2
    for _ in range(60):
        r = r - (k2 * r + k4 * r**3 - rho) / (k2 + 3.0 * k4 * r**2)
    return r


def check_quartic_rotation(cq: float, alpha: float, source_grid,
                           source_mask: np.ndarray, grid,
                           values: np.ndarray, domain: np.ndarray) -> list[str]:
    """Rotated |x|^2/2 + cq|x|^4/4: Hessian window, values and domain.

    The core s u + c|x|^2/2 is radial, so its conjugate is computed in
    closed form from the monotone cubic rho = k2 r + k4 r^3. Values are
    compared where that maximizer r lies four cells inside the source ball:
    the quartic-exact jets need a two-cell stencil, and the rim ring falls
    back to quadratic models. The rotated eigenvalues must lie in [-1, 1]
    within the criterion-5 slack.
    """
    c, s = math.cos(alpha), math.sin(alpha)
    k2, k4 = s + c, s * cq
    inner = erode(domain, RIM_CELLS)
    if not inner.any():
        return ["rotated domain has no interior node"]
    y = node_coords(grid)[inner]
    rho = np.linalg.norm(y, axis=1)
    r = quartic_conjugate_radius(rho, k2, k4)
    star = rho * r - (0.5 * k2 * r**2 + 0.25 * k4 * r**4)
    exact = 0.5 * (c / s) * rho**2 - star / s
    fails = []
    deep = r <= source_grid.ball_radius - 4 * source_grid.spacing
    value_err = np.abs(values[inner][deep] - exact[deep]) / (1.0 + np.abs(exact[deep]))
    if not deep.any():
        fails.append("no rotated node has a preimage four cells inside the ball")
    elif not value_err.max() <= 1e-9:
        fails.append(f"rotated quartic values off the radial conjugate by "
                     f"{value_err.max():.3e}")
    lam = np.linalg.eigvalsh(fd_hessian(values, grid.spacing)[inner])
    excess = float(max(lam.max() - 1.0, -1.0 - lam.min()))
    if not excess <= WINDOW_TOL:
        fails.append(f"rotated eigenvalues leave [-1, 1] by {excess:.3e}")
    pts = _source_points(source_grid, source_mask)
    scale = c + s * (1.0 + cq * np.sum(pts * pts, axis=1))
    fails += _domain_covers(domain, grid, pts * scale[:, None])
    return fails


def check_solve(values: np.ndarray, mask: np.ndarray, boundary: np.ndarray,
                h: float, theta: float, converged: bool,
                audits_passed: bool) -> list[str]:
    """Dirichlet solve of sum(arctan(lambda)) = theta on the full box.

    The FD operator is recomputed at interior nodes, the rim must carry the
    data, and at theta = pi/2 in 2-D the determinant must be one.
    """
    fails = []
    if not converged:
        fails.append("solve did not converge")
    if not audits_passed:
        fails.append("sub- or supersolution audit failed")
    interior = erode(mask, 1)
    rim = mask & ~interior
    if not np.array_equal(values[rim], boundary[rim]):
        diff = np.abs(values[rim] - boundary[rim]).max()
        fails.append(f"rim values differ from the data by up to {diff:.3e}")
    hess = fd_hessian(values, h)[interior]
    lam = np.linalg.eigvalsh(hess)
    resid = float(np.abs(np.arctan(lam).sum(axis=-1) - theta).max())
    if not resid <= SOLVE_TOL:
        fails.append(f"residual {resid:.3e} above the solve tolerance")
    if values.ndim == 2 and abs(theta - 0.5 * math.pi) < 1e-15:
        det_err = float(np.abs(np.linalg.det(hess) - 1.0).max())
        if not det_err <= 1e-8:
            fails.append(f"det D2u deviates from 1 by {det_err:.3e}")
    return fails


def brute_conjugate(points: np.ndarray, values: np.ndarray,
                    slopes: np.ndarray) -> np.ndarray:
    """max over points x of y.x - f(x), for each slope y.

    Slopes go in batches of 16, so the check's matrices stay small next to
    the program's and do not set the run's peak_rss_mb.
    """
    out = np.empty(len(slopes))
    for a in range(0, len(slopes), 16):
        w = slopes[a:a + 16] @ points.T - values[None, :]
        out[a:a + 16] = w.max(axis=1)
    return out


def check_conjugate(points: np.ndarray, values: np.ndarray,
                    slope_grid, star: np.ndarray, sample: np.ndarray) -> list[str]:
    """The fast transform against brute force on sampled slope nodes."""
    ys = node_coords(slope_grid).reshape(-1, len(slope_grid.shape))[sample]
    brute = brute_conjugate(points, values, ys)
    err = np.abs(star.reshape(-1)[sample] - brute) / (1.0 + np.abs(brute))
    if not err.max() <= CONJUGATE_RTOL:
        return [f"conjugate off brute force by {err.max():.3e} relative"]
    return []


def check_subgradients(members: list[np.ndarray], active_slopes: np.ndarray,
                       cell: float) -> list[str]:
    """Each anchor's tight subdifferential stays within two slope cells of
    the slope of the piece active there."""
    fails = []
    for k, (m, p) in enumerate(zip(members, active_slopes)):
        if len(m) == 0:
            fails.append(f"anchor {k}: empty subdifferential")
            continue
        dist = float(np.linalg.norm(m - p, axis=1).max())
        if not dist <= 2.0 * cell * (1.0 + 1e-12):
            fails.append(f"anchor {k}: subgradient {dist:.3e} from the active "
                         f"slope, above two cells ({2.0 * cell:.3e})")
    return fails
