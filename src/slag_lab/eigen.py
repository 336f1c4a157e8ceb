"""Eigenvalues and closed-form adjugates of 2x2 and 3x3 matrices.

Both the single-matrix and batched eigenvalue entry points return
eigenvalues sorted in descending order. 2x2 spectra are closed-form; 3x3
spectra come from LAPACK (`eigvalsh`). The trigonometric closed form
(Smith, CACM 1961) loses about half the digits near a double eigenvalue,
where every Hessian of a radial 3-D field lies; sending only those
matrices to LAPACK was slower on such fields than LAPACK alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridError

# adjugate, 3x3: (i + 1) % 3 and (i + 2) % 3
_NEXT = np.array([1, 2, 0])
_PREV = np.array([2, 0, 1])


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric dim x dim matrix, sorted descending."""

    eigenvalues: tuple[float, ...]

    def __post_init__(self):
        ev = tuple(float(v) for v in self.eigenvalues)
        if not all(np.isfinite(ev)):
            raise ValueError(f"non-finite eigenvalues {ev}")
        if any(ev[i] < ev[i + 1] for i in range(len(ev) - 1)):
            raise ValueError(f"eigenvalues not sorted descending: {ev}")
        object.__setattr__(self, "eigenvalues", ev)

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def as_array(self) -> np.ndarray:
        return np.array(self.eigenvalues)


def _eigvals2(m: np.ndarray) -> np.ndarray:
    # m: (..., 2, 2) symmetric -> (..., 2) descending
    a = m[..., 0, 0]
    b = m[..., 0, 1]
    c = m[..., 1, 1]
    mean = 0.5 * (a + c)
    disc = np.sqrt((0.5 * (a - c)) ** 2 + b * b)
    return np.stack([mean + disc, mean - disc], axis=-1)


def _eigvals3(m: np.ndarray) -> np.ndarray:
    # m: (..., 3, 3) symmetric -> (..., 3) descending; LAPACK raises on
    # non-finite input, which gives NaN rows here instead
    out = np.full(m.shape[:-1], np.nan)
    ok = np.isfinite(m).all(axis=(-2, -1))
    out[ok] = np.linalg.eigvalsh(m[ok])[..., ::-1]
    return out


def adjugate(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(adj(S), det(S)) of a batch (..., d, d), d = 2 or 3, in closed form.

    S^-1 = adj(S) / det(S). In 3x3, adj(S)[i, j] = S[j+1, i+1] S[j+2, i+2]
    - S[j+1, i+2] S[j+2, i+1] (indices mod 3): the columns of adj(S) are
    the cross products r1 x r2, r2 x r0 and r0 x r1 of the rows of S.
    """
    d = s.shape[-1]
    if d == 2:
        adj = np.empty_like(s)
        adj[..., 0, 0] = s[..., 1, 1]
        adj[..., 0, 1] = -s[..., 0, 1]
        adj[..., 1, 0] = -s[..., 1, 0]
        adj[..., 1, 1] = s[..., 0, 0]
        det = s[..., 0, 0] * s[..., 1, 1] - s[..., 0, 1] * s[..., 1, 0]
    elif d == 3:
        # j + 1, j + 2 vary along the columns of adj, i + 1, i + 2 down them
        j1, j2, i1, i2 = _NEXT, _PREV, _NEXT[:, None], _PREV[:, None]
        adj = s[..., j1, i1] * s[..., j2, i2] - s[..., j1, i2] * s[..., j2, i1]
        det = np.einsum("...i,...i->...", s[..., 0, :], adj[..., :, 0])
    else:
        raise GridError(f"closed-form adjugate needs d = 2 or 3, got {d}")
    return adj, det


def eigvals_sym(matrices: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of a batch (..., d, d) of symmetric matrices."""
    m = np.asarray(matrices, dtype=float)
    d = m.shape[-1]
    if m.shape[-2] != d or d not in (2, 3):
        raise GridError(f"expected (..., 2, 2) or (..., 3, 3) input, got {m.shape}")
    return _eigvals2(m) if d == 2 else _eigvals3(m)


def eigen_decompose(matrix: np.ndarray) -> Spectrum:
    """Spectrum of one symmetric 2x2 or 3x3 matrix."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2:
        raise GridError("eigen_decompose expects a single matrix")
    if not np.allclose(m, m.T, rtol=0.0, atol=1e-10 * (1.0 + np.abs(m).max())):
        raise GridError("matrix is not symmetric")
    vals = eigvals_sym(0.5 * (m + m.T))
    return Spectrum(tuple(vals))
