"""Coordinate rotation of (semi)convex potentials via the convex conjugate.

With (c, s) = (cos a, sin a), a potential u whose Hessian stays above
-cot(a) I rotates to

    ubar(y) = (c / 2s) |y|^2 - (1/s) * [s u + (c/2)|x|^2]*(y)

defined on the slope domain of the uniformly convex core
utilde = s u + (c/2)|x|^2. Eigenvalue angles shift down by a:
arctan(lambda_bar) = arctan(lambda) - a. The reverse rotation reuses the
forward code through the negation identity rot_{-a}(v) = -rot_a(-v).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conjugate import DomainMask, _attained_inside, auto_slope_grid, refined_sup
from .eigen import Spectrum
from .errors import RotationError
from .fields import GridSpec, PotentialField, label_components
from .hessians import gradient_field, semiconvexity_modulus

_MODULUS_SLACK = 1e-9


@dataclass(frozen=True)
class RotationParams:
    """Rotation angle in (0, pi/2) with cached cosine and sine."""

    alpha: float
    c: float
    s: float

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5 * math.pi:
            raise RotationError(f"alpha must lie in (0, pi/2), got {self.alpha}")
        if abs(self.c**2 + self.s**2 - 1.0) > 1e-12 or self.s <= 0:
            raise RotationError("c, s are not a unit cosine/sine pair")

    @classmethod
    def from_alpha(cls, alpha: float) -> "RotationParams":
        return cls(alpha=float(alpha), c=math.cos(alpha), s=math.sin(alpha))

    @property
    def cot(self) -> float:
        return self.c / self.s


@dataclass
class RotatedPotential:
    """Rotated potential on a slope grid together with its domain mask.

    Values exist at every slope node; only nodes inside `domain` are
    meaningful (the field mask equals the domain), and outside it they come
    from unpolished node suprema."""

    field: PotentialField
    domain: DomainMask
    params: RotationParams


def _tilde_field(u: PotentialField, params: RotationParams) -> PotentialField:
    coords = u.grid.coords()
    r2 = np.sum(coords * coords, axis=-1)
    return u.with_values(params.s * u.values + 0.5 * params.c * r2)


def _main_component(mask: np.ndarray) -> np.ndarray:
    """Largest face-connected component; attainment ties near the slope-box
    rim can leave isolated specks that the connected continuum domain lacks."""
    labels, count = label_components(mask)
    if count <= 1:
        return mask
    sizes = np.bincount(labels.ravel(), minlength=count + 1)[1:]
    return labels == (1 + int(np.argmax(sizes)))


def rotate(u: PotentialField, params: RotationParams,
           delta: float | None = None,
           slopes: GridSpec | None = None) -> RotatedPotential:
    """Rotate `u` by angle alpha; requires (cot(a) - delta)-semiconvexity.

    delta defaults to cot(a), the right margin for convex input. The
    conjugate of the uniformly convex core is evaluated with the
    quartic-exact local-model sup (`refined_sup`), polished only on the
    slope rows whose sup is attained inside the mask: the domain is a
    subset of them, and outside it the values are built from node suprema.
    """
    if delta is None:
        delta = params.cot
    if not delta > 0:
        raise RotationError(f"delta must be positive, got {delta}")
    modulus = semiconvexity_modulus(u)
    if modulus < -(params.cot - delta) - _MODULUS_SLACK:
        raise RotationError("insufficient semiconvexity for this rotation",
                            modulus=modulus)
    tilde = _tilde_field(u, params)
    if slopes is None:
        slopes = auto_slope_grid(tilde)
    vals, _, vals_in, node_vals = refined_sup(tilde, slopes,
                                              attained_only=True)
    # attainment is a node-sup notion; refined values exceed node suprema
    inside = _main_component(
        _attained_inside(node_vals, vals_in).reshape(slopes.shape))
    ys = slopes.coords()
    r2 = np.sum(ys * ys, axis=-1)
    ubar = (0.5 * params.c / params.s) * r2 - vals.reshape(slopes.shape) / params.s
    domain = DomainMask(slopes, inside)
    field = PotentialField(slopes, ubar, inside)
    return RotatedPotential(field=field, domain=domain, params=params)


def gradient_map(u: PotentialField, params: RotationParams):
    """Image points c x + s Du(x) at interior nodes.

    Returns (points (*shape, dim), validity mask)."""
    grads, valid = gradient_field(u)
    coords = u.grid.coords()
    image = params.c * coords + params.s * grads
    image[~valid] = np.nan
    return image, valid


def rotate_spectrum(spec, params: RotationParams):
    """Eigenvalues after rotation: tan(arctan(lambda) - alpha), re-sorted.

    Accepts a Spectrum or a plain array; returns the matching type."""
    lam = spec.as_array() if isinstance(spec, Spectrum) else np.asarray(spec, float)
    pole = -params.cot
    if np.any(lam <= pole + 1e-12):
        raise RotationError(
            f"eigenvalue at or below the tangent pole -cot(alpha) = {pole:.6g}"
        )
    rotated = (params.c * lam - params.s) / (params.c + params.s * lam)
    rotated = np.sort(rotated, axis=-1)[..., ::-1]
    if isinstance(spec, Spectrum):
        return Spectrum(tuple(rotated))
    return rotated


def unrotate(v: RotatedPotential) -> PotentialField:
    """Reverse rotation via rot_{-a}(v) = -rot_a(-v).

    Requires the rotated Hessian to stay strictly below cot(a) I, otherwise
    the reverse gradient graph is not a graph over the original coordinates.
    """
    params = v.params
    neg = PotentialField(v.field.grid, -v.field.values, v.field.mask.copy())
    modulus = semiconvexity_modulus(neg)
    if modulus <= -params.cot + 1e-9:
        raise RotationError(
            "slope saturates cot(alpha); reverse rotation is not a graph",
            modulus=modulus,
        )
    delta = params.cot + modulus
    back = rotate(neg, params, delta=delta)
    return PotentialField(back.field.grid, -back.field.values,
                          back.domain.inside.copy())
