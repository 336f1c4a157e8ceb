"""The four benchmark workloads: seeded inputs, one operation, its checks.

A workload turns a seed into a round of items; a run repeats whole rounds.
The seed varies the coefficients of the inputs, never the amount of work:
each `make_*` says how its family keeps the work fixed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from slag_lab.audits import check_subsolution, check_supersolution
from slag_lab.conjugate import auto_slope_grid, check_sum_rule, conjugate_fast, tight_subdifferential
from slag_lab.fields import GridSpec, PotentialField
from slag_lab.operators import ProblemSpec
from slag_lab.rotation import RotationParams, rotate
from slag_lab.solver import solve_dirichlet

import checks

THETA = 0.5 * math.pi
ALPHA = 0.25 * math.pi
MAX_DRAWS = 200


@dataclass
class Item:
    """One operation's input and what its check needs to know."""

    kind: str
    payload: dict[str, Any]


@dataclass
class Workload:
    nodes: int                      # benchmark size per axis
    small_nodes: int                # test size per axis
    warm_nodes: int                 # warm-up size per axis
    make: Callable[[int, int], list[Item]]
    run: Callable[[Item], Any]
    check: Callable[[Item, Any], list[str]]
    check_round: Callable[[list[Item]], list[str]] = field(
        default=lambda items: [])


def _symmetric_spd(rng, dim: int) -> np.ndarray:
    """SPD matrix with equal diagonal and equal off-diagonal entries.

    Permuting axes leaves it unchanged, so the gradient range, and with it
    the slope grid, is the same on every axis.
    """
    a = rng.uniform(1.0, 3.0)
    b = a * rng.uniform(-0.2, 0.3)
    return np.full((dim, dim), b) + (a - b) * np.eye(dim)


def _core_shape(grid: GridSpec, values: np.ndarray) -> tuple[int, ...]:
    """Slope-grid shape of the rotation core s u + (c/2)|x|^2."""
    x = checks.node_coords(grid)
    r2 = np.sum(x * x, axis=-1)
    core = math.sin(ALPHA) * values + 0.5 * math.cos(ALPHA) * r2
    return auto_slope_grid(PotentialField(grid, core)).shape


def _quad_values(grid: GridSpec, a: np.ndarray) -> np.ndarray:
    x = checks.node_coords(grid)
    return 0.5 * np.einsum("...i,ij,...j->...", x, a, x)


def _quartic_values(grid: GridSpec, cq: float) -> np.ndarray:
    x = checks.node_coords(grid)
    r2 = np.sum(x * x, axis=-1)
    return 0.5 * r2 + 0.25 * cq * r2 * r2


def make_rotation(dim: int):
    """An axis-symmetric SPD quadratic, then a criterion-5 quartic.

    Draws whose rotation core gets another slope grid than the quartic's
    (round-off in `auto_slope_grid` can flip a node) are redrawn, so every
    seed rotates on the same slope grid.
    """

    def make(seed: int, nodes: int) -> list[Item]:
        rng = np.random.default_rng(seed)
        grid = GridSpec.ball_box(dim, nodes)
        cq = float(rng.choice([0.5, 1.0, 2.0]))   # the criterion-5 quartics
        quartic = _quartic_values(grid, cq)
        target = _core_shape(grid, quartic)
        for _ in range(MAX_DRAWS):
            a = _symmetric_spd(rng, dim)
            if _core_shape(grid, _quad_values(grid, a)) == target:
                break
        else:
            raise RuntimeError(f"no quadratic matched the slope grid {target}")
        return [
            Item("quadratic", {"a": a, "field": PotentialField(grid, _quad_values(grid, a))}),
            Item("quartic", {"cq": cq, "field": PotentialField(grid, quartic)}),
        ]

    return make


def run_rotation(item: Item):
    return rotate(item.payload["field"], RotationParams.from_alpha(ALPHA))


def check_rotation(item: Item, rp) -> list[str]:
    src = item.payload["field"]
    args = (ALPHA, src.grid, src.mask, rp.field.grid, rp.field.values, rp.domain.inside)
    if item.kind == "quadratic":
        return checks.check_quadratic_rotation(item.payload["a"], *args)
    return checks.check_quartic_rotation(item.payload["cq"], *args)


def box_grid(nodes: int) -> GridSpec:
    return GridSpec(2, (nodes, nodes), 2.0 / (nodes - 1), (-1.0, -1.0), None)


def make_solve(seed: int, nodes: int) -> list[Item]:
    """Criterion-7 data |x|^2/2 + x_k^4/10 plus a seeded affine part.

    The seed picks the quartic's axis (a symmetry of the box) and the
    affine part, which leaves every FD Hessian, and so the Newton path,
    unchanged. Varying the coefficients instead moves the Newton count
    between 4 and 10 steps, which would make op_s a function of the seed.
    """
    rng = np.random.default_rng(seed)
    grid = box_grid(nodes)
    x = checks.node_coords(grid)
    axis = int(rng.integers(2))
    slope = rng.uniform(-1.0, 1.0, size=2)
    g = 0.5 * np.sum(x * x, axis=-1) + 0.1 * x[..., axis] ** 4
    g = g + x @ slope + rng.uniform(-1.0, 1.0)
    return [Item("solve", {"grid": grid, "boundary": g})]


def run_solve(item: Item):
    spec = ProblemSpec(dim=2, theta=THETA)
    u, report = solve_dirichlet(item.payload["boundary"], spec, item.payload["grid"])
    sub = check_subsolution(u, THETA)
    sup = check_supersolution(u, THETA)
    return u, report, sub, sup


def check_solve(item: Item, out) -> list[str]:
    u, report, sub, sup = out
    return checks.check_solve(u.values, u.mask, item.payload["boundary"],
                              u.grid.spacing, THETA, report.converged,
                              sub.passed and sup.passed)


def _piece_slopes(rng) -> np.ndarray:
    """Four slopes spanning exactly [-1, 1] on both axes."""
    p = rng.uniform(-1.0, 1.0, size=(4, 2))
    lo, hi = p.min(axis=0), p.max(axis=0)
    return 2.0 * (p - lo) / (hi - lo) - 1.0


def _smooth_anchors(mask, active, rng, count, margin_cells):
    """Nodes at least `margin_cells` cells from every crease and the rim.

    Nearer to either, the tight subdifferential of the sampled field can
    sit several slope cells from the active slope (its gap minimizer shifts
    toward the near boundary), so the two-cell check would test geometry
    rather than the transform.
    """
    stable = np.zeros_like(mask)
    for piece in np.unique(active[mask]):
        stable |= checks.erode(mask & (active == piece), margin_cells)
    nodes = np.argwhere(stable)
    return [tuple(n) for n in nodes[rng.choice(len(nodes), size=count, replace=False)]]


def make_legendre(seed: int, nodes: int) -> list[Item]:
    """Criterion-4 family: max-affine field, smooth anchors, random kappa.

    The piece slopes span [-1, 1] on both axes, which fixes the slope grid
    to within a node whatever the seed.
    """
    rng = np.random.default_rng(seed)
    grid = GridSpec.ball_box(2, nodes)
    x = checks.node_coords(grid)
    slopes = _piece_slopes(rng)
    vals = x @ slopes.T + rng.uniform(-0.3, 0.3, size=4)
    kappa = float(rng.uniform(0.5, 1.5))
    v = PotentialField(grid, vals.max(axis=-1))
    active = vals.argmax(axis=-1)
    # an eighth of the radius: 8 cells at 129^2
    picks = _smooth_anchors(v.mask, active, rng, 10, margin_cells=(nodes - 1) // 16)
    return [Item("sum-rule", {"field": v, "kappa": kappa,
                              "anchors": [x[n] for n in picks],
                              "active": slopes[[active[n] for n in picks]],
                              "sample": rng.uniform(size=64)})]


def run_legendre(item: Item):
    p = item.payload
    return check_sum_rule(p["field"], p["kappa"], p["anchors"])


def check_legendre(item: Item, report) -> list[str]:
    fails = []
    if not report.passed:
        fails.append(f"sum-rule audit failed: {report.violations[:3]}")
    if report.checked_nodes != len(item.payload["anchors"]):
        fails.append(f"sum-rule audit checked {report.checked_nodes} of "
                     f"{len(item.payload['anchors'])} anchors")
    return fails


def check_legendre_round(items: list[Item]) -> list[str]:
    """Pieces of the audit the report does not expose, once per round.

    The audit is deterministic, so its transform and subdifferentials are
    checked on the round's input rather than after every repeat.
    """
    p = items[0].payload
    f = p["field"]
    slopes = auto_slope_grid(f)
    star = conjugate_fast(f, slopes)
    points = checks.node_coords(f.grid)[f.mask]
    sample = (p["sample"] * slopes.n_nodes()).astype(int)
    fails = checks.check_conjugate(points, f.values[f.mask], slopes,
                                   star.values, sample)
    members = [tight_subdifferential(f, a, slopes=slopes).members
               for a in p["anchors"]]
    return fails + checks.check_subgradients(members, p["active"], slopes.spacing)


WORKLOADS = {
    "solve-2d": Workload(129, 33, 17, make_solve, run_solve,
                         check_solve),
    "rotate-2d": Workload(129, 33, 17, make_rotation(2),
                          run_rotation, check_rotation),
    "rotate-3d": Workload(21, 15, 9, make_rotation(3),
                          run_rotation, check_rotation),
    "legendre-2d": Workload(129, 33, 33, make_legendre,
                            run_legendre, check_legendre, check_legendre_round),
}
