"""Viscosity-solution checks and maximum-principle audits.

Discrete jets are finite-difference Hessians; a node has no jet from the
relevant side when the extreme eigenvalue keeps growing as the stencil step
shrinks (compared at steps h and 2h), in which case the check skips it.
Audits exclude a fixed rim near the mask boundary and report violations
as (node, quantity, value) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .eigen import Spectrum, adjugate, eigvals_sym
from .errors import ConvexityError, GridError
from .fields import GridSpec, PotentialField, dilate_mask, erode_mask, osc
from .hessians import (
    HessianField,
    _shift,
    _unit,
    hessian_field,
    hessian_matrices,
)
from .reports import AuditReport
from .rotation import (RotatedPotential, RotationParams, _main_component,
                       gradient_map, rotate)
from .solver import mollify

DEFAULT_GAP_FACTOR = 10.0
# jet checks: rim cells left out, and the kink level of the h/2h comparison
_RIM_EXCLUSION = 2
_KINK_LEVEL = 0.015
# rotation-preservation checks: source cells eroded before the gradient
# map, and the tolerated growth of the sup gap as epsilon shrinks
_SOURCE_MARGIN = 4
_MONOTONE_SLACK = 1e-9
# subharmonicity_trial: slack on lambda_1 <= 1, and the rim of its sub-mask
_HYPOTHESIS_TOL = 1e-9
_SUBHARMONIC_RIM = 3
# hessian_bound_harness: required gap below 1, and the touching-bound slack
_GAP_FLOOR = 1e-3
_TOUCH_TOL = 1e-6
# coefficient_sweep: dimensions, low-eigenvalue floor, least gap below the top
_SWEEP_DIMS = (2, 3)
_SWEEP_BOTTOM = -1.0
_SWEEP_GAP = 1e-3


@dataclass
class JetCheckConfig:
    """Settings for the discrete jet tests.

    A node is a kink (skipped) when the extreme eigenvalues of the h- and
    2h-step Hessians disagree by more than `_KINK_LEVEL` / h: a slope jump J
    leaves an O(J/h) stencil disagreement while smooth data leaves O(h).
    """

    tolerance: float = 1e-8

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass
class MetricField:
    """Induced metric I + M M per interior node; always positive definite."""

    grid: GridSpec
    matrices: np.ndarray
    interior_mask: np.ndarray


def _jet_data(u: PotentialField):
    """Eigenvalues at steps h and 2h plus the checked-node mask."""
    mats_h, valid_h = hessian_matrices(u, stride=1)
    mats_2h, valid_2h = hessian_matrices(u, stride=2)
    checked = valid_h & valid_2h & erode_mask(u.mask, _RIM_EXCLUSION)
    lam_h = np.full(u.grid.shape + (u.grid.dim,), np.nan)
    lam_2h = np.full_like(lam_h, np.nan)
    lam_h[valid_h] = eigvals_sym(mats_h[valid_h])
    lam_2h[valid_2h] = eigvals_sym(mats_2h[valid_2h])
    return lam_h, lam_2h, checked


def _diverging(extreme_h, extreme_2h, h):
    """Kink signature: h- and 2h-step extreme eigenvalues disagree at O(1/h)."""
    return np.abs(extreme_h - extreme_2h) * h >= _KINK_LEVEL


def _jet_report(u, theta, cfg, side: str) -> AuditReport:
    lam_h, lam_2h, checked = _jet_data(u)
    h = u.grid.spacing
    if side == "super":
        extreme_h, extreme_2h = lam_h[..., -1], lam_2h[..., -1]
    else:
        extreme_h, extreme_2h = lam_h[..., 0], lam_2h[..., 0]
    skip = np.zeros(u.grid.shape, dtype=bool)
    skip[checked] = _diverging(extreme_h[checked], extreme_2h[checked], h)
    active = checked & ~skip
    resid = np.arctan(lam_h).sum(axis=-1) - theta
    margins = -resid if side == "super" else resid
    violations = [(tuple(int(i) for i in node), "residual_margin",
                   float(margins[tuple(node)]))
                  for node in np.argwhere(active & (margins < -cfg.tolerance))]
    min_margin = float(margins[active].min()) if active.any() else math.inf
    return AuditReport(
        name=f"{side}solution-check",
        checked_nodes=int(active.sum()),
        violations=violations,
        min_margin=min_margin,
        details={"skipped_kink_nodes": int(skip.sum())},
    )


def check_supersolution(u: PotentialField, theta: float,
                        cfg: JetCheckConfig | None = None) -> AuditReport:
    """Requires sum(arctan(lambda)) <= theta where the lower jet exists."""
    return _jet_report(u, theta, cfg or JetCheckConfig(), "super")


def check_subsolution(u: PotentialField, theta: float,
                      cfg: JetCheckConfig | None = None) -> AuditReport:
    """Requires sum(arctan(lambda)) >= theta where the upper jet exists.

    Convex-kink nodes (max eigenvalue diverging under refinement, e.g. the
    crease of |x_1|) carry no touching quadratic from above and are skipped.
    """
    return _jet_report(u, theta, cfg or JetCheckConfig(), "sub")


def _image_region(u: PotentialField, params: RotationParams,
                  slopes) -> np.ndarray:
    """Slope nodes reached by the gradient map of the margin-eroded source.

    The preservation statements live on the image of a ball with margin
    against the data boundary; discrete solutions grow boundary layers on
    the staircase rim whose image carries unreliable jet data, so checks
    restrict to the image of well-interior nodes (dilated one cell).
    """
    image, valid = gradient_map(u, params)
    pts = image[valid & erode_mask(u.mask, _SOURCE_MARGIN)]
    marked = np.zeros(slopes.shape, dtype=bool)
    idx = np.round(
        (pts - np.array(slopes.origin)) / slopes.spacing
    ).astype(int)
    for k in range(slopes.dim):
        idx[:, k] = np.clip(idx[:, k], 0, slopes.shape[k] - 1)
    marked[tuple(idx.T)] = True
    return dilate_mask(marked)


def _restrict_to_image(rotated, u, params) -> PotentialField:
    allowed = _image_region(u, params, rotated.field.grid)
    allowed &= rotated.domain.inside
    allowed = _main_component(allowed)
    return PotentialField(rotated.field.grid, rotated.field.values, allowed)


def check_rotation_preserves_supersolution(
    u: PotentialField, theta: float, alpha: float,
    delta: float | None = None, cfg: JetCheckConfig | None = None,
) -> AuditReport:
    """Rotate a supersolution and re-check against the shifted phase.

    The re-check runs on the gradient-map image of the source mask eroded
    by `_SOURCE_MARGIN` cells, the discrete version of the domain margin the
    preservation statement carries.
    """
    cfg = cfg or JetCheckConfig()
    base = check_supersolution(u, theta, cfg)
    if not base.passed:
        raise ConvexityError("input field fails the supersolution check")
    params = RotationParams.from_alpha(alpha)
    rotated = rotate(u, params, delta=delta)
    target = theta - u.grid.dim * alpha
    view = _restrict_to_image(rotated, u, params)
    rep = check_supersolution(view, target, cfg)
    rep.name = "rotation-supersolution"
    rep.details["target_phase"] = target
    return rep


def check_rotation_preserves_subsolution(
    u: PotentialField, theta: float, alpha: float, eps_list,
    cfg: JetCheckConfig | None = None,
) -> AuditReport:
    """Mollify-rotate-check pipeline for convex subsolutions.

    Runs the subsolution check on the rotation of u and of each mollified
    u_eps against theta - n*alpha (restricted to the gradient-map image of
    the margin-eroded source, like the supersolution variant), and verifies
    the rotated fields converge uniformly (monotonically in epsilon, up to
    `_MONOTONE_SLACK`) to the rotation of u.
    """
    cfg = cfg or JetCheckConfig()
    base = check_subsolution(u, theta, cfg)
    if not base.passed:
        raise ConvexityError("input field fails the subsolution check")
    params = RotationParams.from_alpha(alpha)
    target = theta - u.grid.dim * alpha
    r0 = rotate(u, params)
    slopes = r0.field.grid
    reference = check_subsolution(
        _restrict_to_image(r0, u, params), target, cfg
    )
    violations = list(reference.violations)
    checked = reference.checked_nodes
    min_margin = reference.min_margin
    sup_gaps = []
    for eps in sorted(eps_list, reverse=True):
        smooth = mollify(u, eps)
        r_eps = rotate(smooth, params, slopes=slopes)
        common = erode_mask(r_eps.domain.inside, _RIM_EXCLUSION)
        common &= erode_mask(r0.domain.inside, _RIM_EXCLUSION)
        if common.any():
            gap = float(
                np.abs(r_eps.field.values[common] - r0.field.values[common]).max()
            )
        else:
            gap = math.nan
        sup_gaps.append((float(eps), gap))
        rep = check_subsolution(
            _restrict_to_image(r_eps, smooth, params),
            target, cfg,
        )
        checked += rep.checked_nodes
        min_margin = min(min_margin, rep.min_margin)
        violations.extend(rep.violations)
    for (e1, g1), (e2, g2) in zip(sup_gaps, sup_gaps[1:]):
        if np.isfinite(g1) and np.isfinite(g2) and g2 > g1 + _MONOTONE_SLACK:
            violations.append(
                ((0,) * u.grid.dim, "uniform_convergence_monotonicity", g2 - g1)
            )
    return AuditReport(
        name="rotation-subsolution",
        checked_nodes=checked,
        violations=violations,
        min_margin=min_margin,
        details={"target_phase": target, "sup_gaps": sup_gaps},
    )


@dataclass
class BmField:
    """Averaged log-radius of the top-m rotated eigenvalue angles."""

    values: np.ndarray
    valid: np.ndarray
    flagged: list
    m: int


def bm_field(v: RotatedPotential, m: int,
             gap_tol: float | None = None) -> BmField:
    """(1/m) sum_{i<=m} ln sqrt(1 + lambda_i^2) over the domain interior.

    Nodes where the spectral gap lambda_m - lambda_{m+1} falls below gap_tol
    (default 10h) are flagged and left out of the valid mask.
    """
    return _bm_with_hessian(v, m, gap_tol)[0]


def _bm_with_hessian(v: RotatedPotential, m: int, gap_tol: float | None):
    """`bm_field` plus the Hessian field and eigenvalues it was built from."""
    field = v.field
    d = field.grid.dim
    if not 1 <= m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    if gap_tol is None:
        gap_tol = DEFAULT_GAP_FACTOR * field.grid.spacing
    hf = hessian_field(field)
    lam = hf.eigenvalues()
    valid = hf.interior_mask.copy()
    flagged = []
    if m < d:
        gap = lam[..., m - 1] - lam[..., m]
        bad = hf.interior_mask & (gap < gap_tol)
        valid &= ~bad
        flagged = [tuple(int(i) for i in n) for n in np.argwhere(bad)]
    values = np.full(field.grid.shape, np.nan)
    values[valid] = (
        np.log(np.sqrt(1.0 + lam[valid][..., :m] ** 2)).sum(axis=-1) / m
    )
    return BmField(values=values, valid=valid, flagged=flagged, m=m), hf, lam


def induced_metric(h: HessianField) -> MetricField:
    """First fundamental form I + M M of the gradient graph."""
    mats = np.zeros_like(h.matrices)
    eye = np.eye(h.dim)
    mm = np.einsum("...ij,...jk->...ik", h.matrices, h.matrices)
    mats[h.interior_mask] = eye + mm[h.interior_mask]
    return MetricField(h.grid, mats, h.interior_mask.copy())


def laplace_beltrami(values: np.ndarray, valid: np.ndarray,
                     metric: MetricField) -> tuple[np.ndarray, np.ndarray]:
    """Divergence-form Laplace-Beltrami of a node field under the metric.

    Returns (result, result_valid); second order on smooth data. Raises if
    the metric is not positive definite at a used node.
    """
    grid = metric.grid
    d = grid.dim
    h = grid.spacing
    usable = valid & metric.interior_mask
    lam_min = np.full(grid.shape, np.inf)
    lam_min[metric.interior_mask] = eigvals_sym(
        metric.matrices[metric.interior_mask]
    )[..., -1]
    bad = usable & (lam_min <= 0)
    if bad.any():
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise GridError(f"metric not positive definite at node {node}")
    out_valid = erode_mask(usable, 1)
    if not out_valid.any():
        return np.full(grid.shape, np.nan), out_valid

    # sqrt(det G) G^-1 = adj(G) / sqrt(det G)
    adj, det = adjugate(metric.matrices[usable])
    sqrt_det = np.full(grid.shape, np.nan)
    sqrt_det[usable] = np.sqrt(det)
    w = np.zeros(grid.shape + (d, d))
    w[usable] = adj / sqrt_det[usable][..., None, None]
    f = np.where(usable, values, np.nan)

    acc = np.zeros(grid.shape)
    for i in range(d):
        e, ne = _unit(d, i), _unit(d, i, -1)
        w_p = 0.5 * (w[..., i, i] + _shift(w[..., i, i], e))
        w_m = 0.5 * (w[..., i, i] + _shift(w[..., i, i], ne))
        f_p, f_m = _shift(f, e), _shift(f, ne)
        acc += (w_p * (f_p - f) - w_m * (f - f_m)) / h**2
        for j in range(d):
            if j == i:
                continue
            ej, nej = _unit(d, j), _unit(d, j, -1)
            dj_p = (_shift(f_p, ej) - _shift(f_p, nej)) / (2 * h)
            dj_m = (_shift(f_m, ej) - _shift(f_m, nej)) / (2 * h)
            acc += (_shift(w[..., i, j], e) * dj_p
                    - _shift(w[..., i, j], ne) * dj_m) / (2 * h)
    result = np.full(grid.shape, np.nan)
    result[out_valid] = acc[out_valid] / sqrt_det[out_valid]
    out_valid &= np.isfinite(result)
    return result, out_valid


def _sq(x):
    # libm pow, which rounds x ** 2 differently from x * x for about one
    # double in a thousand; the audited values keep the pow rounding
    return np.float_power(x, 2.0)


# the curvature identity's coefficient families in report order: label, index
# tuples over top = range(m) and low = range(m, n), value over those columns
_COEFF_FAMILIES = (
    ("diag_top[k={}]",
     lambda top, low: [(k,) for k in top],
     lambda k: 1.0 + _sq(k)),
    ("pair_top[i={},k={}]",
     lambda top, low: permutations(top, 2),
     lambda i, k: 3.0 + _sq(i) + 2.0 * i * k),
    ("top_low[k={},i={}]",
     lambda top, low: product(top, low),
     lambda k, i: 2.0 * k * (1.0 + k * i) / (k - i)),
    ("low_top[i={},k={}]",
     lambda top, low: product(top, low),
     lambda i, k: (i - k + _sq(i) * (2.0 + _sq(i) + i * k)) / (i - k)),
    ("triple_top[{},{},{}]",
     lambda top, low: combinations(top, 3),
     lambda i, j, k: 2.0 * (3.0 + i * j + j * k + k * i)),
    ("two_top_one_low[{},{},{}]",
     lambda top, low: [(*p, k) for p in combinations(top, 2) for k in low],
     lambda i, j, k: 2.0 * (1.0 + i * j + i * (1.0 + i * k) / (i - k)
                            + j * (1.0 + j * k) / (j - k))),
    ("one_top_two_low[{},{},{}]",
     lambda top, low: [(i, *p) for i in top for p in combinations(low, 2)],
     lambda i, j, k: 2.0 * i * ((1.0 + i * j) / (i - j)
                                + (1.0 + j * k) / (j - k))),
)


def _coefficient_table(lam: np.ndarray, m: int):
    """Labels and values of every coefficient family over a (k, n) batch of
    spectra, one row per spectrum and one column per label."""
    top, low = range(m), range(m, lam.shape[1])
    labels, columns = [], []
    for fmt, index_tuples, value in _COEFF_FAMILIES:
        idx = np.array(list(index_tuples(top, low)), dtype=np.intp)
        if idx.size:
            labels += [fmt.format(*(t + 1 for t in tup)) for tup in idx]
            columns.append(value(*np.moveaxis(lam[:, idx], -1, 0)))
    return labels, np.concatenate(columns, axis=1)


def coefficient_values(lam: np.ndarray, m: int) -> list[tuple[str, float]]:
    """All coefficient-family values of the curvature identity at one spectrum.

    `lam` must be sorted descending with a strict gap at position m when
    m < n; the [-1, 1] eigenvalue bounds are the hypothesis under audit and
    are NOT enforced here.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if np.any(lam[:-1] < lam[1:]):
        raise ValueError("eigenvalues must be sorted descending")
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in 1..{n}")
    if m < n and not lam[m - 1] > lam[m]:
        raise ValueError("ordering hypothesis needs a strict gap at position m")
    labels, values = _coefficient_table(lam.reshape(1, n), m)
    return list(zip(labels, values[0]))


def coefficient_audit(lambdas: Spectrum | np.ndarray, m: int,
                      tol: float = 0.0) -> AuditReport:
    """Evaluate every coefficient family; negatives are violations."""
    lam = (
        lambdas.as_array() if isinstance(lambdas, Spectrum)
        else np.asarray(lambdas, dtype=float)
    )
    values = coefficient_values(lam, m)
    violations = []
    min_value = math.inf
    for label, value in values:
        min_value = min(min_value, value)
        if value < -tol:
            violations.append(((0,), label, float(value)))
    return AuditReport(
        name="coefficient-audit",
        checked_nodes=len(values),
        violations=violations,
        min_margin=float(min_value),
        details={"m": m, "spectrum": [float(x) for x in lam]},
    )


def coefficient_sweep(n_samples: int, rng: np.random.Generator,
                      top_range=(0.8, 1.0)):
    """Randomized nonnegativity sweep over hypothesis-satisfying spectra.

    Top-m eigenvalues are drawn from `top_range` (the clustering regime of
    the identity), the rest from [`_SWEEP_BOTTOM`, top_min - `_SWEEP_GAP`),
    for n in `_SWEEP_DIMS` and 1 <= m < n. Returns (min coefficient,
    negative count, tuples tested).
    """
    lo, hi = top_range
    per_call = max(1, n_samples // (sum(d - 1 for d in _SWEEP_DIMS)))
    worst = []
    for n in _SWEEP_DIMS:
        for m in range(1, n):
            # the per-spectrum rng.uniform draws: low + (high - low) * u
            u = rng.random((per_call, n))
            top = lo + (hi - lo) * u[:, :m]
            lo_hi = top.min(axis=1, keepdims=True) - _SWEEP_GAP
            low = _SWEEP_BOTTOM + (lo_hi - _SWEEP_BOTTOM) * u[:, m:]
            lam = np.sort(np.hstack([top, low]), axis=1)[:, ::-1]
            worst.append(_coefficient_table(lam, m)[1].min(axis=1))
    worst = np.concatenate(worst)
    return worst.min(), int((worst < 0).sum()), worst.size


def subharmonicity_trial(v: RotatedPotential, m: int,
                         gap_tol: float | None = None,
                         slack: float = 0.0) -> AuditReport:
    """Sign audit of the metric Laplacian of b_m on the hypothesis sub-mask.

    Checked nodes satisfy the gap condition and lambda_1 <= 1 + tol, at
    least `_SUBHARMONIC_RIM` cells from the sub-mask boundary (the
    transform's one-cell fallback ring near the domain rim is noisy at
    O(1)). The
    report's min_margin is the smallest Laplacian value seen; values below
    -max(slack, 1e-9) are violations. The sign claim is a property of
    solution fields; rotations of non-solution potentials have a genuine
    negative floor.
    """
    bm, hf, lam = _bm_with_hessian(v, m, gap_tol)
    sub = bm.valid & (lam[..., 0] <= 1.0 + _HYPOTHESIS_TOL)
    sub = erode_mask(sub, _SUBHARMONIC_RIM)
    lb_valid = sub
    if sub.any():
        lb, lb_valid = laplace_beltrami(bm.values, sub, induced_metric(hf))
        lb_valid &= sub
    if not lb_valid.any():
        return AuditReport(
            name="subharmonicity",
            checked_nodes=0,
            violations=[],
            min_margin=math.nan,
            details={"note": "hypothesis never satisfied", "m": m},
        )
    floor = max(slack, 1e-9)
    violations = [(tuple(int(i) for i in node), "metric_laplacian",
                   float(lb[tuple(node)]))
                  for node in np.argwhere(lb_valid & (lb < -floor))]
    return AuditReport(
        name="subharmonicity",
        checked_nodes=int(lb_valid.sum()),
        violations=violations,
        min_margin=float(lb[lb_valid].min()),
        details={"m": m, "flagged_gap_nodes": len(bm.flagged)},
    )


def rotated_interior_eigs(rp: RotatedPotential):
    """Eigenvalues of the rotated Hessian at nodes `_RIM_EXCLUSION` cells
    inside the slope domain, and how many nodes that is."""
    hf = hessian_field(rp.field)
    inner = hf.interior_mask & erode_mask(rp.domain.inside, _RIM_EXCLUSION)
    if not inner.any():
        raise GridError("rotated domain interior is empty")
    return eigvals_sym(hf.matrices[inner]), int(inner.sum())


def hessian_bound_harness(u: PotentialField, theta: float,
                          alpha: float = math.pi / 4,
                          cfg: JetCheckConfig | None = None) -> AuditReport:
    """Interior-regularity shadow: strict gap and touching bound after rotation.

    Reports the oscillation, the center Hessian norm, and the extreme rotated
    eigenvalue; asserts max(lambda_bar) <= 1 - `_GAP_FLOOR` and that some
    node satisfies the touching bound (K-1)/(K+1) with K = 2 osc / dist^2,
    dist the ball radius of the grid (1 without one).
    """
    cfg = cfg or JetCheckConfig()
    sup = check_supersolution(u, theta, cfg)
    sub = check_subsolution(u, theta, cfg)
    if not (sup.passed and sub.passed):
        raise ConvexityError("field is not a two-sided viscosity solution")
    rotated = rotate(u, RotationParams.from_alpha(alpha))
    lam, checked = rotated_interior_eigs(rotated)
    lam_max = lam[..., 0]
    osc_val = osc(u)
    dist = u.grid.ball_radius or 1.0
    big_k = 2.0 * osc_val / dist**2
    touch_bound = (big_k - 1.0) / (big_k + 1.0)
    center = u.grid.nearest_node((0.0,) * u.grid.dim)
    hfu = hessian_field(u)
    if not hfu.interior_mask[center]:
        raise GridError("center node has no Hessian stencil")
    center_norm = float(
        np.abs(eigvals_sym(hfu.matrices[center][None])[0]).max()
    )
    max_rot = float(lam_max.max())
    min_node_max = float(lam_max.min())
    violations = []
    strict_margin = 1.0 - _GAP_FLOOR - max_rot
    if strict_margin < 0:
        violations.append(
            ((0,) * u.grid.dim, "strict_gap", max_rot)
        )
    if min_node_max > touch_bound + _TOUCH_TOL:
        violations.append(
            ((0,) * u.grid.dim, "touching_bound", min_node_max - touch_bound)
        )
    return AuditReport(
        name="hessian-bound",
        checked_nodes=checked,
        violations=violations,
        min_margin=float(min(strict_margin, touch_bound + _TOUCH_TOL - min_node_max)),
        details={
            "osc": osc_val,
            "center_hessian_norm": center_norm,
            "max_rotated_eigenvalue": max_rot,
            "margin_to_one": 1.0 - max_rot,
            "touching_K": big_k,
            "touching_bound": touch_bound,
            "min_node_max_eigenvalue": min_node_max,
        },
    )
