"""Residual evaluators for the arctangent operator family and its relatives.

All evaluators decompose the per-node Hessian and work on eigenvalues; the
log-determinant and log-ratio variants are diagnostic duals (no solver ever
targets them). Per-node domain violations never raise: they are collected so
audits can assert the list is empty.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eigen import adjugate
from .errors import PhaseError
from .hessians import HessianField

# phase_classify: distance to the threshold phase that still counts as on it
_CRITICAL_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSpec:
    """Dirichlet problem sum(arctan(lambda)) = theta in `dim` dimensions."""

    dim: int
    theta: float = 0.0

    def __post_init__(self):
        if abs(self.theta) >= self.dim * np.pi / 2:
            raise PhaseError(
                f"|theta| = {abs(self.theta):.6g} >= dim*pi/2 is infeasible"
            )


@dataclass
class ResidualField:
    """Per-node residual values (NaN where not evaluated) plus flagged nodes."""

    values: np.ndarray
    valid: np.ndarray
    flagged: list

    @property
    def max_abs(self) -> float:
        if not self.valid.any():
            return float("nan")
        return float(np.abs(self.values[self.valid]).max())


def slag_residual(h: HessianField, theta: float) -> ResidualField:
    """Sum of arctan eigenvalues minus theta, per interior node."""
    lam = h.eigenvalues()
    values = np.full(h.interior_mask.shape, np.nan)
    values[h.interior_mask] = (
        np.arctan(lam[h.interior_mask]).sum(axis=-1) - theta
    )
    return ResidualField(values, h.interior_mask.copy(), [])


def ma_residual(h: HessianField, phi: float) -> ResidualField:
    """Sum of log eigenvalues minus phi; non-positive spectra are flagged."""
    lam = h.eigenvalues()
    values = np.full(h.interior_mask.shape, np.nan)
    bad = np.zeros(h.interior_mask.shape, dtype=bool)
    bad[h.interior_mask] = lam[h.interior_mask][..., -1] <= 0
    valid = h.interior_mask & ~bad
    values[valid] = np.log(lam[valid]).sum(axis=-1)
    values[valid] -= phi
    flagged = [tuple(int(i) for i in n) for n in np.argwhere(bad)]
    return ResidualField(values, valid, flagged)


def mar_residual(h: HessianField, phi: float) -> ResidualField:
    """Sum of ln((1+lambda)/(1-lambda)) minus phi; |lambda| >= 1 flagged."""
    lam = h.eigenvalues()
    values = np.full(h.interior_mask.shape, np.nan)
    bad = np.zeros(h.interior_mask.shape, dtype=bool)
    interior_lam = lam[h.interior_mask]
    bad[h.interior_mask] = (
        (interior_lam[..., -1] <= -1) | (interior_lam[..., 0] >= 1)
    )
    valid = h.interior_mask & ~bad
    values[valid] = np.log((1.0 + lam[valid]) / (1.0 - lam[valid])).sum(axis=-1)
    values[valid] -= phi
    flagged = [tuple(int(i) for i in n) for n in np.argwhere(bad)]
    return ResidualField(values, valid, flagged)


def slag_linearization(m: np.ndarray) -> np.ndarray:
    """Coefficient matrix (I + M^2)^{-1} of the linearized operator.

    The directional derivative of sum(arctan(lambda_i)) at M in direction E
    is trace((I + M^2)^{-1} E); I + M^2 is always positive definite.
    """
    return slag_linearization_batch(m)


def slag_linearization_batch(ms: np.ndarray) -> np.ndarray:
    """(I + M^2)^{-1} for a batch (..., d, d), d = 2 or 3, as
    Re[adj(I + iM) / det(I + iM)].

    For symmetric M, I + M^2 = (I + iM)(I - iM), so its inverse is the real
    part of (I + iM)^{-1}; |det(I + iM)| >= 1 (`eigen.adjugate`). Forming
    S = I + M^2 first squares the condition number, and the cofactors of
    adj(S) cancel for near-rank-1 M with large entries.
    """
    ms = np.asarray(ms, dtype=float)
    adj, det = adjugate(np.eye(ms.shape[-1]) + 1j * ms)
    return (adj / det[..., None, None]).real


def phase_classify(theta: float, dim: int) -> str:
    """Classify a phase against the threshold (dim - 2) * pi / 2."""
    if abs(theta) >= dim * np.pi / 2:
        raise PhaseError("|theta| >= dim*pi/2: no admissible spectrum")
    threshold = (dim - 2) * np.pi / 2
    if abs(abs(theta) - threshold) <= _CRITICAL_TOL:
        return "critical"
    if abs(theta) > threshold:
        return "supercritical"
    return "subcritical"
