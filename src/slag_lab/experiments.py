"""Built-in experiments: one per acceptance criterion, plus spec extras.

Every experiment returns a list of audit reports whose pass/fail decides the
exit status; the experiment-level ones are built by `_verdict`, which fails
a non-finite value or margin. `run_all` runs a list of configs one after
another on the calling thread and, given a directory, writes once: a JSON
report and the PF1 fields per experiment and one CSV summary row per audit.
The registry is shared with the acceptance test suite so CI and the CLI
exercise identical code.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from itertools import product
from pathlib import Path

import numpy as np

from .audits import (
    JetCheckConfig,
    check_rotation_preserves_subsolution,
    check_rotation_preserves_supersolution,
    coefficient_sweep,
    hessian_bound_harness,
    rotated_interior_eigs,
    subharmonicity_trial,
)
from .conjugate import (
    DomainMask,
    auto_slope_grid,
    check_sum_rule,
    conjugate_brute,
    conjugate_fast,
    refined_sup,
)
from .eigen import eigvals_sym
from .fields import GridSpec, PotentialField, erode_mask, sample_potential
from .fileio import save_field
from .formulas import (
    iso_quad,
    max_affine,
    quad_form,
    quartic,
    random_max_affine,
    random_spd_matrix,
    zero,
)
from .hessians import hessian_field
from .operators import ProblemSpec
from .reports import AuditReport, write_json
from .rotation import RotatedPotential, RotationParams, rotate
from .solver import solve_dirichlet

DEFAULT_SEED = 20240817


@dataclass
class ExperimentConfig:
    name: str
    seed: int = DEFAULT_SEED
    overrides: dict = dataclass_field(default_factory=dict)


@dataclass
class ExperimentResult:
    name: str
    reports: list
    fields: dict = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)


def _key_value_lines(text: str):
    """(key, value) pairs of flat key=value lines; `#` starts a comment."""
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {line_no}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        yield key, value


def parse_config(text: str) -> tuple[ExperimentConfig, Path | None]:
    """(config, output directory or None) of flat key=value lines.

    The keys are `name` (required), `outdir`, and the integers `seed`,
    `grid` and `samples`; `grid` and `samples` become overrides. Any other
    key, or a value that is not an integer, raises ValueError.
    """
    name = None
    outdir = None
    overrides = {}
    for key, value in _key_value_lines(text):
        if key == "name":
            name = value
        elif key == "outdir":
            outdir = Path(value)
        elif key in ("seed", "grid", "samples"):
            try:
                overrides[key] = int(value)
            except ValueError:
                raise ValueError(f"config key {key!r} needs an integer, "
                                 f"got {value!r}") from None
        else:
            raise ValueError(f"unknown config key {key!r}; expected name, "
                             "outdir, seed, grid or samples")
    if name is None:
        raise ValueError("config is missing the experiment name")
    seed = overrides.pop("seed", DEFAULT_SEED)
    return ExperimentConfig(name, seed, overrides), outdir


def _box_grid(nodes: int) -> GridSpec:
    """The box [-1, 1]^2 with `nodes` nodes per axis and no ball mask."""
    return GridSpec(2, (nodes, nodes), 2.0 / (nodes - 1), (-1.0, -1.0), None)


def _verdict(name, checked, ok, quantity, value, margin, details=None,
             node=(0, 0)) -> AuditReport:
    """One experiment-level report: passed iff `ok` holds and both `value`
    and `margin` are finite; otherwise one violation (node, quantity,
    value)."""
    ok = ok and math.isfinite(value) and math.isfinite(margin)
    return AuditReport(
        name=name,
        checked_nodes=checked,
        violations=[] if ok else [(node, quantity, float(value))],
        min_margin=float(margin),
        details=details or {},
    )


def _margin_report(name, checked, worst, allowance, quantity,
                   details=None) -> AuditReport:
    return _verdict(name, checked, worst <= allowance, quantity, worst,
                    allowance - worst, details)


def exp_quadratic_rotation(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 1: rotating K/2 |x|^2 at pi/4 gives Hessian (K-1)/(K+1)."""
    params = RotationParams.from_alpha(math.pi / 4)
    nodes = int(cfg.overrides.get("grid", 129))
    reports = []
    fields = {}
    for k in (0.5, 1.0, 3.0, 10.0):
        grid = GridSpec.ball_box(2, nodes)
        u = sample_potential(iso_quad(k), grid)
        rp = rotate(u, params)
        lam, checked = rotated_interior_eigs(rp)
        expected = (k - 1.0) / (k + 1.0)
        worst = float(np.abs(lam - expected).max())
        reports.append(
            _margin_report(
                f"quadratic-rotation[K={k:g}]", checked, worst, 1e-6,
                "eigenvalue_deviation", {"expected": expected},
            )
        )
        fields[f"rotated_K{k:g}"] = rp.field
    return ExperimentResult("quadratic-rotation", reports, fields)


def exp_zero_potential(cfg: ExperimentConfig) -> ExperimentResult:
    """Spec extra: the zero potential rotates to spectrum -1, phase -n pi/4."""
    params = RotationParams.from_alpha(math.pi / 4)
    grid = GridSpec.ball_box(2, int(cfg.overrides.get("grid", 65)))
    u = sample_potential(zero, grid)
    rp = rotate(u, params)
    lam, checked = rotated_interior_eigs(rp)
    worst = float(np.abs(lam + 1.0).max())
    phase = float(np.abs(np.arctan(lam).sum(-1) + math.pi / 2).max())
    reports = [
        _margin_report("zero-potential[spectrum]", checked, worst, 1e-6,
                       "eigenvalue_deviation"),
        _margin_report("zero-potential[phase]", checked, phase, 1e-6,
                       "phase_deviation"),
    ]
    return ExperimentResult("zero-potential", reports, {"rotated_zero": rp.field})


def exp_phase_shift(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 2: rotated quadratic solutions satisfy the phase shift."""
    reports = []
    k = 2.0
    for dim, nodes in ((2, int(cfg.overrides.get("grid", 65))), (3, 21)):
        grid = GridSpec.ball_box(dim, nodes)
        u = sample_potential(iso_quad(k), grid)
        theta = dim * math.atan(k)
        for alpha in (math.pi / 8, math.pi / 4, 3 * math.pi / 8):
            rp = rotate(u, RotationParams.from_alpha(alpha))
            lam, checked = rotated_interior_eigs(rp)
            phases = np.arctan(lam).sum(axis=-1)
            worst = float(np.abs(phases - (theta - dim * alpha)).max())
            reports.append(
                _margin_report(
                    f"phase-shift[n={dim},alpha={alpha:.4f}]",
                    checked, worst, 1e-6, "phase_deviation",
                )
            )
    return ExperimentResult("phase-shift", reports)


def exp_legendre_laws(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 3: involution, constant shift, order reversal, fast == brute."""
    rng = np.random.default_rng(cfg.seed)
    nodes = int(cfg.overrides.get("grid", 65))
    grid = GridSpec.ball_box(2, nodes)
    h = grid.spacing
    reports = []

    # involution on quadratics through the quartic-exact evaluator
    worst_inv = 0.0
    for a in (np.eye(2), np.array([[2.2, 0.5], [0.5, 1.1]])):
        u = sample_potential(quad_form(a), grid)
        slopes = auto_slope_grid(u)
        star_vals, _, _, _ = refined_sup(u, slopes)
        star = PotentialField(slopes, star_vals.reshape(slopes.shape))
        xgrid = GridSpec(2, grid.shape, grid.spacing, grid.origin, None)
        back_vals, _, _, _ = refined_sup(star, xgrid)
        back = back_vals.reshape(grid.shape)
        inner = erode_mask(u.mask, 2)
        worst_inv = max(worst_inv,
                        float(np.abs(back[inner] - u.values[inner]).max()))
    # involution on a lattice-representable max-affine via node suprema
    s0 = 0.05
    p = np.round(rng.uniform(-1, 1, size=(4, 2)) / s0) * s0
    b = rng.uniform(-0.3, 0.3, size=4)
    u = sample_potential(max_affine(p, b), grid)
    slopes = GridSpec(2, (61, 61), s0, (-1.5, -1.5), None)
    star = conjugate_fast(u, slopes)
    xgrid = GridSpec(2, grid.shape, grid.spacing, grid.origin, None)
    back = conjugate_fast(star, slopes=xgrid)
    inner = erode_mask(u.mask, 2)
    worst_inv = max(worst_inv,
                    float(np.abs(back.values[inner] - u.values[inner]).max()))
    reports.append(
        _margin_report("legendre-involution", 3, worst_inv, 4.0 * h * h,
                       "involution_error")
    )

    # exact constant shift and order reversal
    u = sample_potential(iso_quad(2.0), grid)
    slopes = auto_slope_grid(u)
    star = conjugate_brute(u, slopes)
    shifted = conjugate_brute(u.shifted(0.73), slopes)
    shift_err = float(np.abs(shifted.values - (star.values - 0.73)).max())
    reports.append(
        _margin_report("legendre-constant-shift", star.grid.n_nodes(),
                       shift_err, 0.0, "shift_error")
    )
    low = sample_potential(iso_quad(1.0), grid)   # low <= bump on the ball
    bump = sample_potential(quartic(1.0), grid)
    ls = conjugate_brute(low, slopes)
    gs = conjugate_brute(bump, slopes)
    order_margin = float((ls.values - gs.values).min())
    reports.append(
        _verdict("legendre-order-reversal", ls.grid.n_nodes(),
                 order_margin >= 0, "order_reversal", order_margin,
                 order_margin)
    )

    # fast == brute on 20 randomized convex inputs
    worst_fast = 0.0
    for trial in range(20):
        if trial % 2 == 0:
            f = sample_potential(
                quad_form(random_spd_matrix(rng, 2, (0.3, 3.0))), grid
            )
        else:
            f = sample_potential(random_max_affine(rng, 2, 5), grid)
        sl_grid = auto_slope_grid(f)
        a = conjugate_brute(f, sl_grid)
        fast = conjugate_fast(f, sl_grid)
        rel = np.abs(a.values - fast.values) / (1.0 + np.abs(a.values))
        worst_fast = max(worst_fast, float(rel.max()))
    reports.append(
        _margin_report("legendre-fast-vs-brute", 20, worst_fast, 1e-12,
                       "relative_deviation")
    )
    return ExperimentResult("legendre-laws", reports)


def exp_sum_rule(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 4: subdifferential sum rule on random max-affine fields."""
    rng = np.random.default_rng(cfg.seed)
    nodes = int(cfg.overrides.get("grid", 65))
    grid = GridSpec.ball_box(2, nodes)
    reports = []
    for family in range(10):
        slopes = rng.uniform(-1, 1, size=(4, 2))
        offsets = rng.uniform(-0.3, 0.3, size=4)
        u = sample_potential(max_affine(slopes, offsets), grid)
        anchors = _smooth_anchors(grid, slopes, offsets, rng, 10)
        kappa = float(rng.uniform(0.5, 1.5))
        rep = check_sum_rule(u, kappa, anchors)
        rep.name = f"sum-rule[family={family}]"
        reports.append(rep)
    return ExperimentResult("sum-rule", reports)


def _smooth_anchors(grid, slopes, offsets, rng, count, margin_cells=3):
    coords = grid.coords()
    vals = np.tensordot(coords, np.asarray(slopes), axes=([-1], [1])) + offsets
    active = vals.argmax(axis=-1)
    # a node is stable when one piece is active on its whole 3^dim box; the
    # eroded mask keeps every box inside the grid
    stable = erode_mask(grid.ball_mask(), margin_cells)
    padded = np.pad(active, 1, mode="edge")
    for off in product(range(3), repeat=grid.dim):
        box = tuple(slice(o, o + n) for o, n in zip(off, active.shape))
        stable &= padded[box] == active
    nodes = np.argwhere(stable)
    picks = nodes[rng.choice(len(nodes), size=count, replace=False)]
    return [grid.node_coords(n) for n in picks]


def exp_rotation_window(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 5: pi/4-rotated Hessians stay within [-1, 1] + 1e-6."""
    rng = np.random.default_rng(cfg.seed)
    params = RotationParams.from_alpha(math.pi / 4)
    nodes = int(cfg.overrides.get("grid", 65))
    grid = GridSpec.ball_box(2, nodes)
    reports = []
    cases = [("quad", random_spd_matrix(rng, 2, (0.2, 4.0))) for _ in range(10)]
    cases += [("quartic", c) for c in (0.5, 1.0, 2.0)]
    for i, (kind, payload) in enumerate(cases):
        if kind == "quad":
            u = sample_potential(quad_form(payload), grid)
        else:
            u = sample_potential(quartic(payload), grid)
        rp = rotate(u, params)
        lam, checked = rotated_interior_eigs(rp)
        worst = float(max(lam.max() - 1.0, -1.0 - lam.min()))
        reports.append(
            _margin_report(
                f"rotation-window[{kind}:{i}]", checked, worst, 1e-6,
                "window_excess",
                {"lam_min": float(lam.min()), "lam_max": float(lam.max())},
            )
        )
    return ExperimentResult("rotation-window", reports)


def exp_preservation(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 6: rotation preserves super- and convex subsolutions."""
    nodes = int(cfg.overrides.get("grid", 65))
    grid = GridSpec.ball_box(2, nodes)
    h = grid.spacing
    alpha = math.pi / 4
    cfg_jets = JetCheckConfig()
    reports = []

    u = sample_potential(iso_quad(1.0), grid)
    rep = check_rotation_preserves_supersolution(u, math.pi / 2, alpha,
                                                 cfg=cfg_jets)
    rep.name = "preservation-super[identity-quadratic]"
    reports.append(rep)

    u = sample_potential(zero, grid)
    rep = check_rotation_preserves_supersolution(u, 0.0, alpha, cfg=cfg_jets)
    rep.name = "preservation-super[zero]"
    reports.append(rep)

    u = sample_potential(quartic(1.0), grid)
    hf = hessian_field(u)
    lam = eigvals_sym(hf.interior_matrices())
    theta = float(np.arctan(lam).sum(-1).max())
    rep = check_rotation_preserves_supersolution(u, theta, alpha, cfg=cfg_jets)
    rep.name = "preservation-super[quartic-nodewise-phase]"
    reports.append(rep)

    eps = [2 * h, 4 * h, 8 * h]
    u = sample_potential(iso_quad(3.0), grid)
    rep = check_rotation_preserves_subsolution(u, 2 * math.atan(3.0), alpha,
                                               eps, cfg=cfg_jets)
    rep.name = "preservation-sub[K3-quadratic]"
    reports.append(rep)

    u = sample_potential(iso_quad(1.0), grid)
    rep = check_rotation_preserves_subsolution(u, math.pi / 2, alpha,
                                               [4 * h], cfg=cfg_jets)
    rep.name = "preservation-sub[mollified-identity]"
    reports.append(rep)

    def two_quads(x):
        a = 1.5 * np.sum(x * x, -1) / 2 + 0.05 * x[..., 0]
        b = 2.5 * np.sum(x * x, -1) / 2 - 0.03 * x[..., 1]
        return np.maximum(a, b)

    u = sample_potential(two_quads, grid)
    rep = check_rotation_preserves_subsolution(u, math.pi / 2, alpha, eps,
                                               cfg=cfg_jets)
    rep.name = "preservation-sub[max-of-quadratics]"
    reports.append(rep)
    return ExperimentResult("preservation", reports)


def _quadratic_data(p):
    return 0.5 * np.sum(p**2, -1)


def _quartic_data(p):
    return 0.5 * np.sum(p**2, -1) + 0.1 * p[..., 0] ** 4


def _biaxial_data(p):
    return 0.55 * np.sum(p**2, -1) + 0.08 * (p[..., 0] ** 4 + p[..., 1] ** 4)


def exp_solver_correctness(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 7: fixed point, determinant and harmonic oracles, order."""
    reports = []
    spec = ProblemSpec(dim=2, theta=math.pi / 2)

    grid = GridSpec.ball_box(2, 33)
    u, srep = solve_dirichlet(_quadratic_data, spec, grid)
    ok = srep.converged and srep.final_residual <= 1e-10 and srep.iterations <= 5
    reports.append(
        _verdict("solver[quadratic-fixed-point]", int(u.mask.sum()), ok,
                 "newton_convergence", srep.final_residual,
                 1e-10 - srep.final_residual,
                 {"iterations": srep.iterations,
                  "final_residual": srep.final_residual})
    )

    grid = _box_grid(int(cfg.overrides.get("grid", 129)))
    u, srep = solve_dirichlet(_quartic_data, spec, grid)
    hf = hessian_field(u)
    dets = np.linalg.det(hf.matrices[hf.interior_mask])
    worst = float(np.abs(dets - 1.0).max())
    reports.append(
        _margin_report("solver[ma-duality-det]", int(hf.interior_mask.sum()),
                       worst, 5e-3, "det_deviation",
                       {"converged": srep.converged})
    )

    grid = _box_grid(65)
    u, srep = solve_dirichlet(lambda p: p[..., 0] * p[..., 1],
                              ProblemSpec(dim=2, theta=0.0), grid)
    hf = hessian_field(u)
    lap = np.einsum("...kk->...", hf.matrices[hf.interior_mask])
    worst = float(np.abs(lap).max())
    reports.append(
        _margin_report("solver[harmonic-oracle]", int(hf.interior_mask.sum()),
                       worst, 1e-6, "laplacian_deviation")
    )

    sols = {}
    for nodes in (17, 33, 65):
        g = _box_grid(nodes)
        u, srep = solve_dirichlet(_quartic_data, spec, g)
        sols[nodes] = u
    diffs = []
    for coarse, fine in ((17, 33), (33, 65)):
        uc, uf = sols[coarse], sols[fine]
        inner = erode_mask(uc.mask, 1)
        worst = max(
            abs(uc.values[tuple(n)] - uf.values[tuple(2 * n)])
            for n in np.argwhere(inner)
        )
        diffs.append(worst)
    order = math.log2(diffs[0] / diffs[1])
    reports.append(
        _margin_report("solver[refinement-order]", 2, 1.8 - order, 0.0,
                       "order_deficit", {"order": order, "diffs": diffs})
    )
    return ExperimentResult("solver-correctness", reports)


def exp_coefficient_audit(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 8: randomized nonnegativity sweep plus a violating control."""
    rng = np.random.default_rng(cfg.seed)
    n_samples = int(cfg.overrides.get("samples", 100_000))
    min_coeff, negatives, tested = coefficient_sweep(n_samples, rng)
    rep_main = _verdict("coefficient-sweep", tested, negatives == 0,
                        "negative_coefficient", min_coeff, min_coeff,
                        {"tested": tested}, node=(0,))
    _, ctrl_negatives, ctrl_tested = coefficient_sweep(
        max(2000, n_samples // 20), rng, top_range=(1.0 + 1e-6, 2.0)
    )
    rep_ctrl = _verdict("coefficient-control", ctrl_tested, ctrl_negatives > 0,
                        "control_blind", ctrl_negatives, ctrl_negatives,
                        {"negatives": ctrl_negatives}, node=(0,))
    return ExperimentResult("coefficient-audit", [rep_main, rep_ctrl])


def exp_subharmonicity(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 9: metric Laplacian of b_m on rotated solution fields.

    The fitted discretization constant C(h) = max(0, -min)/h must stay
    bounded and stable (within a factor of two above a small noise floor)
    across the three refinements, each trial must check at least one node,
    and constant-Hessian fields give zero.
    """
    params = RotationParams.from_alpha(math.pi / 4)
    spec = ProblemSpec(dim=2, theta=math.pi / 2)
    reports = []
    floor = 1e-4

    families = {"quartic-data": _quartic_data, "biaxial-data": _biaxial_data}
    for fname, data in families.items():
        cs = []
        mins = {}
        vacuous = False
        for nodes in (65, 129, 257):
            grid = _box_grid(nodes)
            u, srep = solve_dirichlet(data, spec, grid)
            rp = rotate(u, params)
            trial = subharmonicity_trial(rp, m=1, gap_tol=0.1, slack=np.inf)
            vacuous |= trial.checked_nodes == 0
            c_fit = max(0.0, -trial.min_margin) / grid.spacing
            cs.append(max(c_fit, floor))
            mins[f"h=1/{int(2 / grid.spacing)}"] = trial.min_margin
        stable = max(cs) <= 2.0 * min(cs)
        bounded = max(cs) <= 1.0 + floor
        reports.append(
            _verdict(f"subharmonicity[{fname}]", 3,
                     stable and bounded and not vacuous, "fitted_constant",
                     max(cs), min(mins.values()),
                     {"fitted_C": cs, "min_laplacian": mins})
        )

    grid = GridSpec.ball_box(2, 65)
    u = sample_potential(quad_form([[0.8, 0.0], [0.0, 0.2]]), grid)
    flat = RotatedPotential(u, DomainMask(grid, u.mask.copy()), params)
    trial = subharmonicity_trial(flat, m=1, gap_tol=0.1)
    reports.append(
        _verdict("subharmonicity[constant-hessian]", trial.checked_nodes,
                 abs(trial.min_margin) <= 1e-9, "nonzero_flat_laplacian",
                 trial.min_margin, trial.min_margin)
    )
    return ExperimentResult("subharmonicity", reports)


def exp_strict_gap(cfg: ExperimentConfig) -> ExperimentResult:
    """Criterion 10: solved fields rotate strictly below the identity."""
    spec = ProblemSpec(dim=2, theta=math.pi / 2)
    reports = []
    families = {
        "quadratic": _quadratic_data,
        "quartic-x": _quartic_data,
        "quartic-y": lambda p: 0.5 * np.sum(p**2, -1) + 0.12 * p[..., 1] ** 4,
        "biaxial": _biaxial_data,
        "anisotropic": lambda p: 0.5 * (1.4 * p[..., 0] ** 2
                                        + 0.8 * p[..., 1] ** 2)
        + 0.05 * p[..., 0] ** 4,
    }
    nodes = int(cfg.overrides.get("grid", 129))
    for fname, data in families.items():
        grid = _box_grid(nodes)
        u, srep = solve_dirichlet(data, spec, grid)
        rep = hessian_bound_harness(u, math.pi / 2)
        max_rot = rep.details["max_rotated_eigenvalue"]
        ok = srep.converged and max_rot <= 1.0 - 1e-3 and rep.passed
        # center Hessian stability under one refinement
        coarse = _box_grid((nodes - 1) // 2 + 1)
        uc, _ = solve_dirichlet(data, spec, coarse)
        hc = hessian_field(uc)
        center_c = float(
            np.abs(
                eigvals_sym(hc.matrices[coarse.nearest_node((0, 0))][None])[0]
            ).max()
        )
        center_f = rep.details["center_hessian_norm"]
        drift = abs(center_f - center_c) / center_f
        stable = drift <= 0.05
        reports.append(
            _verdict(f"strict-gap[{fname}]", rep.checked_nodes, ok and stable,
                     "strict_gap_or_stability", max_rot, 1.0 - 1e-3 - max_rot,
                     {"max_rotated_eigenvalue": max_rot,
                      "center_hessian": center_f,
                      "center_hessian_coarse": center_c,
                      "relative_drift": drift,
                      "osc": rep.details["osc"],
                      "touching_bound": rep.details["touching_bound"]})
        )
    return ExperimentResult("strict-gap", reports)


REGISTRY = {
    "quadratic-rotation": exp_quadratic_rotation,
    "zero-potential": exp_zero_potential,
    "phase-shift": exp_phase_shift,
    "legendre-laws": exp_legendre_laws,
    "sum-rule": exp_sum_rule,
    "rotation-window": exp_rotation_window,
    "preservation": exp_preservation,
    "solver-correctness": exp_solver_correctness,
    "coefficient-audit": exp_coefficient_audit,
    "subharmonicity": exp_subharmonicity,
    "strict-gap": exp_strict_gap,
}

def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Run one experiment; `run_all` writes the artifacts."""
    if cfg.name not in REGISTRY:
        raise ValueError(f"unknown experiment {cfg.name!r}; "
                         f"choose from {sorted(REGISTRY)}")
    return REGISTRY[cfg.name](cfg)


def write_artifacts(results, outdir: Path):
    """JSON reports and PF1 fields per experiment, plus one summary.csv.

    summary.csv is rewritten with the rows of exactly these results, so a
    rerun into the same directory reproduces it.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for result in results:
        payload = {
            "name": result.name,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "passed": result.passed,
            "reports": [r.to_json() for r in result.reports],
        }
        write_json(outdir / f"{result.name}.json", payload)
        for fname, field in result.fields.items():
            save_field(outdir / f"{fname}.pf1", field)
    with open(outdir / "summary.csv", "w", newline="") as fh:
        writer = csv.DictWriter(
            fh, fieldnames=["name", "checked_nodes", "min_margin", "passed"]
        )
        writer.writeheader()
        for result in results:
            for r in result.reports:
                writer.writerow(r.summary_row())


def run_all(configs, outdir=None):
    """Run `configs` one after another; returns (results, passed).

    With `outdir`, the artifacts of every result are written once, after
    the last experiment has finished.
    """
    results = [run_experiment(c) for c in configs]
    if outdir is not None:
        write_artifacts(results, outdir)
    return results, all(r.passed for r in results)
