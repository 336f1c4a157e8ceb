"""Viscosity-solution checks and maximum-principle audits.

Discrete jets are finite-difference Hessians; a node has no jet from the
relevant side when the extreme eigenvalue keeps growing as the stencil step
shrinks (compared at steps h and 2h), in which case the check skips it.
Audits exclude a configurable rim near the mask boundary and report
violations as (node, quantity, value) triples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .eigen import Spectrum, eigvals_sym
from .errors import ConvexityError, GridError
from .fields import GridSpec, PotentialField, erode_mask
from .hessians import HessianField, hessian_field, hessian_matrices
from .reports import AuditReport
from .rotation import RotatedPotential, RotationParams, rotate
from .solver import mollify

DEFAULT_GAP_FACTOR = 10.0


@dataclass
class JetCheckConfig:
    """Settings for the discrete jet tests.

    A node is a kink (skipped) when the extreme eigenvalues of the h- and
    2h-step Hessians disagree by more than kink_level / h: a slope jump J
    leaves an O(J/h) stencil disagreement while smooth data leaves O(h).
    """

    tolerance: float = 1e-8
    rim_exclusion: int = 2
    kink_level: float = 0.015

    def __post_init__(self):
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")


@dataclass
class MetricField:
    """Induced metric I + M M per interior node; always positive definite."""

    grid: GridSpec
    matrices: np.ndarray
    interior_mask: np.ndarray


def _jet_data(u: PotentialField, cfg: JetCheckConfig):
    """Eigenvalues at steps h and 2h plus the checked-node mask."""
    mats_h, valid_h = hessian_matrices(u, stride=1)
    mats_2h, valid_2h = hessian_matrices(u, stride=2)
    checked = valid_h & valid_2h & erode_mask(u.mask, max(2, cfg.rim_exclusion))
    lam_h = np.full(u.grid.shape + (u.grid.dim,), np.nan)
    lam_2h = np.full_like(lam_h, np.nan)
    lam_h[valid_h] = eigvals_sym(mats_h[valid_h])
    lam_2h[valid_2h] = eigvals_sym(mats_2h[valid_2h])
    return lam_h, lam_2h, checked


def _diverging(extreme_h, extreme_2h, h, cfg: JetCheckConfig):
    """Kink signature: h- and 2h-step extreme eigenvalues disagree at O(1/h)."""
    return np.abs(extreme_h - extreme_2h) * h >= cfg.kink_level


def _jet_report(u, theta, cfg, side: str) -> AuditReport:
    lam_h, lam_2h, checked = _jet_data(u, cfg)
    h = u.grid.spacing
    if side == "super":
        extreme_h, extreme_2h = lam_h[..., -1], lam_2h[..., -1]
    else:
        extreme_h, extreme_2h = lam_h[..., 0], lam_2h[..., 0]
    skip = np.zeros(u.grid.shape, dtype=bool)
    skip[checked] = _diverging(extreme_h[checked], extreme_2h[checked], h, cfg)
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
                  slopes, margin_cells: int) -> np.ndarray:
    """Slope nodes reached by the gradient map of the margin-eroded source.

    The preservation statements live on the image of a ball with margin
    against the data boundary; discrete solutions grow boundary layers on
    the staircase rim whose image carries unreliable jet data, so checks
    restrict to the image of well-interior nodes (dilated one cell).
    """
    from scipy import ndimage

    from .hessians import gradient_field

    grads, valid = gradient_field(u)
    deep = valid & erode_mask(u.mask, margin_cells)
    pts = params.c * u.grid.coords()[deep] + params.s * grads[deep]
    marked = np.zeros(slopes.shape, dtype=bool)
    idx = np.round(
        (pts - np.array(slopes.origin)) / slopes.spacing
    ).astype(int)
    for k in range(slopes.dim):
        idx[:, k] = np.clip(idx[:, k], 0, slopes.shape[k] - 1)
    marked[tuple(idx.T)] = True
    structure = np.ones((3,) * slopes.dim, dtype=bool)
    return ndimage.binary_dilation(marked, structure=structure)


def _restrict_to_image(rotated, u, params, margin_cells) -> PotentialField:
    from .rotation import _main_component

    allowed = _image_region(u, params, rotated.field.grid, margin_cells)
    allowed &= rotated.domain.inside
    allowed = _main_component(allowed)
    return PotentialField(rotated.field.grid, rotated.field.values, allowed)


def check_rotation_preserves_supersolution(
    u: PotentialField, theta: float, alpha: float,
    delta: float | None = None, cfg: JetCheckConfig | None = None,
    source_margin: int = 4,
) -> AuditReport:
    """Rotate a supersolution and re-check against the shifted phase.

    The re-check runs on the gradient-map image of the source mask eroded
    by `source_margin` cells, the discrete version of the domain margin the
    preservation statement carries.
    """
    cfg = cfg or JetCheckConfig()
    base = check_supersolution(u, theta, cfg)
    if not base.passed:
        raise ConvexityError("input field fails the supersolution check")
    params = RotationParams.from_alpha(alpha)
    rotated = rotate(u, params, delta=delta)
    target = theta - u.grid.dim * alpha
    view = _restrict_to_image(rotated, u, params, source_margin)
    rep = check_supersolution(view, target, cfg)
    rep.name = "rotation-supersolution"
    rep.details["target_phase"] = target
    return rep


def check_rotation_preserves_subsolution(
    u: PotentialField, theta: float, alpha: float, eps_list,
    cfg: JetCheckConfig | None = None,
    monotone_slack: float = 1e-9,
    source_margin: int = 4,
) -> AuditReport:
    """Mollify-rotate-check pipeline for convex subsolutions.

    Runs the subsolution check on the rotation of u and of each mollified
    u_eps against theta - n*alpha (restricted to the gradient-map image of
    the margin-eroded source, like the supersolution variant), and verifies
    the rotated fields converge uniformly (monotonically in epsilon, up to
    `monotone_slack`) to the rotation of u.
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
        _restrict_to_image(r0, u, params, source_margin), target, cfg
    )
    violations = list(reference.violations)
    checked = reference.checked_nodes
    min_margin = reference.min_margin
    sup_gaps = []
    for eps in sorted(eps_list, reverse=True):
        smooth = mollify(u, eps)
        r_eps = rotate(smooth, params, slopes=slopes)
        common = erode_mask(r_eps.domain.inside, cfg.rim_exclusion)
        common &= erode_mask(r0.domain.inside, cfg.rim_exclusion)
        if common.any():
            gap = float(
                np.abs(r_eps.field.values[common] - r0.field.values[common]).max()
            )
        else:
            gap = math.nan
        sup_gaps.append((float(eps), gap))
        rep = check_subsolution(
            _restrict_to_image(r_eps, smooth, params, source_margin),
            target, cfg,
        )
        checked += rep.checked_nodes
        min_margin = min(min_margin, rep.min_margin)
        violations.extend(rep.violations)
    for (e1, g1), (e2, g2) in zip(sup_gaps, sup_gaps[1:]):
        if np.isfinite(g1) and np.isfinite(g2) and g2 > g1 + monotone_slack:
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
    field = v.field
    d = field.grid.dim
    if not 1 <= m <= d:
        raise ValueError(f"m must lie in 1..{d}")
    if gap_tol is None:
        gap_tol = DEFAULT_GAP_FACTOR * field.grid.spacing
    hf = hessian_field(field)
    lam = np.full(field.grid.shape + (d,), np.nan)
    lam[hf.interior_mask] = eigvals_sym(hf.matrices[hf.interior_mask])
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
    return BmField(values=values, valid=valid, flagged=flagged, m=m)


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

    det = np.linalg.det(metric.matrices[usable])
    sqrt_det = np.full(grid.shape, np.nan)
    sqrt_det[usable] = np.sqrt(det)
    w = np.zeros(grid.shape + (d, d))
    w[usable] = sqrt_det[usable][..., None, None] * np.linalg.inv(
        metric.matrices[usable]
    )
    f = np.where(usable, values, np.nan)

    def shift(arr, off):
        out = np.full_like(arr, np.nan)
        src = []
        dst = []
        for o, n in zip(off, arr.shape[: d]):
            if o >= 0:
                src.append(slice(o, n))
                dst.append(slice(0, n - o))
            else:
                src.append(slice(0, n + o))
                dst.append(slice(-o, n))
        out[tuple(dst)] = arr[tuple(src)]
        return out

    acc = np.zeros(grid.shape)
    for i in range(d):
        e = tuple(1 if k == i else 0 for k in range(d))
        ne = tuple(-1 if k == i else 0 for k in range(d))
        w_p = 0.5 * (w[..., i, i] + shift(w[..., i, i], e))
        w_m = 0.5 * (w[..., i, i] + shift(w[..., i, i], ne))
        acc += (w_p * (shift(f, e) - f) - w_m * (f - shift(f, ne))) / h**2
        for j in range(d):
            if j == i:
                continue
            ej = tuple(1 if k == j else 0 for k in range(d))
            nej = tuple(-1 if k == j else 0 for k in range(d))
            dj_p = (shift(shift(f, e), ej) - shift(shift(f, e), nej)) / (2 * h)
            dj_m = (shift(shift(f, ne), ej) - shift(shift(f, ne), nej)) / (2 * h)
            acc += (shift(w[..., i, j], e) * dj_p
                    - shift(w[..., i, j], ne) * dj_m) / (2 * h)
    result = np.full(grid.shape, np.nan)
    result[out_valid] = acc[out_valid] / sqrt_det[out_valid]
    out_valid &= np.isfinite(result)
    return result, out_valid


_COEFF_FAMILIES = (
    "diag_top", "pair_top", "top_low", "low_top",
    "triple_top", "two_top_one_low", "one_top_two_low",
)


def coefficient_values(lam: np.ndarray, m: int) -> list[tuple[str, float]]:
    """All coefficient-family values of the curvature identity at one spectrum.

    `lam` must be sorted descending with a strict gap at position m when
    m < n; the [-1, 1] eigenvalue bounds are the hypothesis under audit and
    are NOT enforced here.
    """
    lam = np.asarray(lam, dtype=float)
    n = lam.size
    if any(lam[i] < lam[i + 1] for i in range(n - 1)):
        raise ValueError("eigenvalues must be sorted descending")
    if not 1 <= m <= n:
        raise ValueError(f"m must lie in 1..{n}")
    if m < n and not lam[m - 1] > lam[m]:
        raise ValueError("ordering hypothesis needs a strict gap at position m")
    top = range(m)           # indices 0..m-1   (paper's 1..m)
    low = range(m, n)
    out = []
    for k in top:
        out.append((f"diag_top[k={k + 1}]", 1.0 + lam[k] ** 2))
    for i in top:
        for k in top:
            if i != k:
                out.append(
                    (f"pair_top[i={i + 1},k={k + 1}]",
                     3.0 + lam[i] ** 2 + 2.0 * lam[i] * lam[k])
                )
    for k in top:
        for i in low:
            out.append(
                (f"top_low[k={k + 1},i={i + 1}]",
                 2.0 * lam[k] * (1.0 + lam[k] * lam[i]) / (lam[k] - lam[i]))
            )
    for i in top:
        for k in low:
            out.append(
                (f"low_top[i={i + 1},k={k + 1}]",
                 (lam[i] - lam[k]
                  + lam[i] ** 2 * (2.0 + lam[i] ** 2 + lam[i] * lam[k]))
                 / (lam[i] - lam[k]))
            )
    for i, j, k in combinations(top, 3):
        out.append(
            (f"triple_top[{i + 1},{j + 1},{k + 1}]",
             2.0 * (3.0 + lam[i] * lam[j] + lam[j] * lam[k] + lam[k] * lam[i]))
        )
    for i, j in combinations(top, 2):
        for k in low:
            out.append(
                (f"two_top_one_low[{i + 1},{j + 1},{k + 1}]",
                 2.0 * (1.0 + lam[i] * lam[j]
                        + lam[i] * (1.0 + lam[i] * lam[k]) / (lam[i] - lam[k])
                        + lam[j] * (1.0 + lam[j] * lam[k]) / (lam[j] - lam[k])))
            )
    for i in top:
        for j, k in combinations(low, 2):
            out.append(
                (f"one_top_two_low[{i + 1},{j + 1},{k + 1}]",
                 2.0 * lam[i]
                 * ((1.0 + lam[i] * lam[j]) / (lam[i] - lam[j])
                    + (1.0 + lam[j] * lam[k]) / (lam[j] - lam[k])))
            )
    return out


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
                      dims=(2, 3), top_range=(0.8, 1.0),
                      bottom_min: float = -1.0, min_gap: float = 1e-3):
    """Randomized nonnegativity sweep over hypothesis-satisfying spectra.

    Top-m eigenvalues are drawn from `top_range` (the clustering regime of
    the identity), the rest from [bottom_min, top_min - min_gap). Returns
    (min coefficient, negative count, tuples tested).
    """
    min_coeff = math.inf
    negatives = 0
    tested = 0
    per_call = max(1, n_samples // (sum(d - 1 for d in dims)))
    for n in dims:
        for m in range(1, n):
            for _ in range(per_call):
                top = np.sort(rng.uniform(*top_range, size=m))[::-1]
                lo_hi = top[-1] - min_gap
                low = np.sort(rng.uniform(bottom_min, lo_hi, size=n - m))[::-1]
                lam = np.concatenate([top, low])
                vals = [v for _, v in coefficient_values(lam, m)]
                tested += 1
                worst = min(vals)
                min_coeff = min(min_coeff, worst)
                if worst < 0:
                    negatives += 1
    return min_coeff, negatives, tested


def subharmonicity_trial(v: RotatedPotential, m: int,
                         gap_tol: float | None = None,
                         hypothesis_tol: float = 1e-9,
                         slack: float = 0.0,
                         rim_exclusion: int = 3) -> AuditReport:
    """Sign audit of the metric Laplacian of b_m on the hypothesis sub-mask.

    Checked nodes satisfy the gap condition and lambda_1 <= 1 + tol, at
    least `rim_exclusion` cells from the sub-mask boundary (the transform's
    one-cell fallback ring near the domain rim is noisy at O(1)). The
    report's min_margin is the smallest Laplacian value seen; values below
    -max(slack, 1e-9) are violations. The sign claim is a property of
    solution fields; rotations of non-solution potentials have a genuine
    negative floor.
    """
    field = v.field
    bm = bm_field(v, m, gap_tol)
    hf = hessian_field(field)
    lam1 = np.full(field.grid.shape, np.nan)
    lam1[hf.interior_mask] = eigvals_sym(hf.matrices[hf.interior_mask])[..., 0]
    sub = bm.valid & (lam1 <= 1.0 + hypothesis_tol)
    sub = erode_mask(sub, rim_exclusion)
    if not sub.any():
        return AuditReport(
            name="subharmonicity",
            checked_nodes=0,
            violations=[],
            min_margin=math.nan,
            details={"note": "hypothesis never satisfied", "m": m},
        )
    metric = induced_metric(hf)
    lb, lb_valid = laplace_beltrami(bm.values, sub, metric)
    lb_valid &= sub
    if not lb_valid.any():
        return AuditReport(
            name="subharmonicity",
            checked_nodes=0,
            violations=[],
            min_margin=math.nan,
            details={"note": "hypothesis never satisfied", "m": m},
        )
    violations = []
    min_val = math.inf
    floor = max(slack, 1e-9)
    for node in np.argwhere(lb_valid):
        t = tuple(int(i) for i in node)
        val = float(lb[t])
        min_val = min(min_val, val)
        if val < -floor:
            violations.append((t, "metric_laplacian", val))
    return AuditReport(
        name="subharmonicity",
        checked_nodes=int(lb_valid.sum()),
        violations=violations,
        min_margin=min_val,
        details={"m": m, "flagged_gap_nodes": len(bm.flagged)},
    )


def hessian_bound_harness(u: PotentialField, theta: float,
                          alpha: float = math.pi / 4,
                          cfg: JetCheckConfig | None = None,
                          dist: float | None = None,
                          gap_floor: float = 1e-3,
                          touch_tol: float = 1e-6) -> AuditReport:
    """Interior-regularity shadow: strict gap and touching bound after rotation.

    Reports the oscillation, the center Hessian norm, and the extreme rotated
    eigenvalue; asserts max(lambda_bar) <= 1 - gap_floor and that some node
    satisfies the touching bound (K-1)/(K+1) with K = 2 osc / dist^2.
    """
    from .fields import osc as osc_fn

    cfg = cfg or JetCheckConfig()
    sup = check_supersolution(u, theta, cfg)
    sub = check_subsolution(u, theta, cfg)
    if not (sup.passed and sub.passed):
        raise ConvexityError("field is not a two-sided viscosity solution")
    params = RotationParams.from_alpha(alpha)
    rotated = rotate(u, params)
    hf = hessian_field(rotated.field)
    inner = hf.interior_mask & erode_mask(rotated.domain.inside,
                                          cfg.rim_exclusion)
    if not inner.any():
        raise GridError("rotated domain interior is empty")
    lam = eigvals_sym(hf.matrices[inner])
    lam_max = lam[..., 0]
    osc_val = osc_fn(u)
    if dist is None:
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
    strict_margin = 1.0 - gap_floor - max_rot
    if strict_margin < 0:
        violations.append(
            ((0,) * u.grid.dim, "strict_gap", max_rot)
        )
    if min_node_max > touch_bound + touch_tol:
        violations.append(
            ((0,) * u.grid.dim, "touching_bound", min_node_max - touch_bound)
        )
    return AuditReport(
        name="hessian-bound",
        checked_nodes=int(inner.sum()),
        violations=violations,
        min_margin=float(min(strict_margin, touch_bound + touch_tol - min_node_max)),
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
