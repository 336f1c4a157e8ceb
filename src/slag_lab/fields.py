"""Scalar potentials sampled on masked uniform grids.

The domain is a ball carved out of a uniform box grid by a boolean mask;
"interior" always means the full 3^dim finite-difference stencil lies in the
mask. Grids in slope (gradient) space reuse the same type with
``ball_radius=None``, in which case the mask covers the whole box.

The mask morphology (box erosion and dilation, face-connected labelling)
is plain numpy on purpose: the first scipy import costs a process about
0.35 s more than numpy alone (scipy's array-API layer copies numpy's
namespace), and the rotation, conjugate and audit paths need nothing else
from scipy. scipy loads only where a sparse system is built or solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import FieldError, GridError


@dataclass(frozen=True)
class GridSpec:
    """Uniform box grid, optionally carrying a centered ball domain.

    Parameters
    ----------
    dim : 2 or 3.
    shape : per-axis node counts (>= 3 each).
    spacing : uniform node spacing h > 0, identical on all axes.
    origin : coordinates of the node with index (0, ..., 0).
    ball_radius : radius of the masked ball around the coordinate origin, or
        None for grids (e.g. slope-space grids) whose mask is the whole box.
    """

    dim: int
    shape: tuple[int, ...]
    spacing: float
    origin: tuple[float, ...]
    ball_radius: float | None = None

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GridError(f"dim must be 2 or 3, got {self.dim}")
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        object.__setattr__(self, "origin", tuple(float(x) for x in self.origin))
        if len(self.shape) != self.dim or len(self.origin) != self.dim:
            raise GridError("shape/origin length must equal dim")
        if min(self.shape) < 3:
            raise GridError(f"need at least 3 nodes per axis, got {self.shape}")
        if not self.spacing > 0:
            raise GridError(f"spacing must be positive, got {self.spacing}")
        if self.ball_radius is not None:
            r = float(self.ball_radius)
            if not r > 0:
                raise GridError("ball_radius must be positive or None")
            for k in range(self.dim):
                lo = self.origin[k]
                hi = self.origin[k] + (self.shape[k] - 1) * self.spacing
                if lo > -r + 1e-12 or hi < r - 1e-12:
                    raise GridError(
                        f"box [{lo:.6g}, {hi:.6g}] on axis {k} does not contain "
                        f"the ball of radius {r:.6g}"
                    )

    @classmethod
    def ball_box(cls, dim: int, nodes: int, ball_radius: float = 1.0) -> "GridSpec":
        """Centered box [-R, R]^dim with `nodes` nodes per axis and the ball mask."""
        if nodes < 3:
            raise GridError(f"need at least 3 nodes per axis, got {nodes}")
        h = 2.0 * ball_radius / (nodes - 1)
        return cls(dim, (nodes,) * dim, h, (-ball_radius,) * dim, ball_radius)

    def axes(self) -> list[np.ndarray]:
        return [
            self.origin[k] + self.spacing * np.arange(self.shape[k])
            for k in range(self.dim)
        ]

    def coords(self) -> np.ndarray:
        """Node coordinates, shape (*shape, dim)."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(mesh, axis=-1)

    def ball_mask(self) -> np.ndarray:
        if self.ball_radius is None:
            return np.ones(self.shape, dtype=bool)
        c = self.coords()
        r2 = np.sum(c * c, axis=-1)
        return r2 <= self.ball_radius**2 * (1.0 + 1e-14) + 1e-30

    def node_coords(self, index: Sequence[int]) -> np.ndarray:
        return np.array(
            [self.origin[k] + self.spacing * index[k] for k in range(self.dim)]
        )

    def nearest_node(self, point: Sequence[float]) -> tuple[int, ...]:
        idx = []
        for k in range(self.dim):
            i = int(round((point[k] - self.origin[k]) / self.spacing))
            idx.append(min(max(i, 0), self.shape[k] - 1))
        return tuple(idx)

    def n_nodes(self) -> int:
        return int(np.prod(self.shape))


def _box_pass(mask: np.ndarray, erode: bool) -> np.ndarray:
    """One 3^dim box erosion (and) or dilation (or), one axis at a time:
    the box is the product of its axis segments. Outside the box counts as
    false, so an erosion clears the border."""
    op = np.logical_and if erode else np.logical_or
    out = mask
    for k in range(mask.ndim):
        lead = (slice(None),) * k
        lo, hi = lead + (slice(None, -1),), lead + (slice(1, None),)
        line = out.copy()
        op(line[lo], out[hi], out=line[lo])
        op(line[hi], out[lo], out=line[hi])
        if erode:
            line[lead + (0,)] = line[lead + (-1,)] = False
        out = line
    return out


def erode_mask(mask: np.ndarray, cells: int = 1) -> np.ndarray:
    """Erode by the full 3^dim (corner-including) neighborhood, `cells` times.

    Nodes on the grid border are never in the eroded set.
    """
    out = np.array(mask, dtype=bool)
    for _ in range(cells):
        out = _box_pass(out, erode=True)
    return out


def dilate_mask(mask: np.ndarray) -> np.ndarray:
    """Dilate by the full 3^dim neighborhood, once; nothing enters from
    outside the box."""
    return _box_pass(np.asarray(mask, dtype=bool), erode=False)


def _label_runs(mask: np.ndarray):
    """Runs of `mask` along its last axis, in row-major order: flat [start,
    end) bounds into a copy padded with false nodes after the end of every
    leading axis and on both sides of the last, each run's component label,
    and the number of components."""
    padded = np.zeros([n + 1 for n in mask.shape[:-1]] + [mask.shape[-1] + 2],
                      dtype=bool)
    padded[tuple(slice(0, n) for n in mask.shape[:-1]) + (slice(1, -1),)] = mask
    flat = padded.ravel()
    # the padding keeps runs apart and puts a false line after the last
    # line of every axis, so each run meets the next line along any axis
    # with no wrap-around check
    change = (flat[1:] != flat[:-1]).nonzero()[0] + 1
    starts, ends = change[0::2], change[1::2]
    runs = len(starts)
    strides = np.array(padded.strides[:-1])[:, None]  # bool: bytes are nodes
    # runs on the next line of each leading axis whose columns overlap
    first = np.searchsorted(ends, (starts + strides).ravel(), side="right")
    count = np.searchsorted(starts, (ends + strides).ravel(), side="left") - first
    heads = np.repeat(np.arange(len(first)) % runs, count)
    tails = np.repeat(first - np.cumsum(count) + count, count) + np.arange(len(heads))
    # hook every later run onto an earlier one, jump every pointer to its
    # root, and repeat with the roots of the edges that still join two
    # roots. Parents only point down, so a path has fewer than 2^k links
    # for k = runs.bit_length() at first, then for k the bit length of the
    # number of roots just hooked (each path has one link to its old root)
    parent = np.arange(runs)
    parent[tails] = heads
    hooked = runs
    while True:
        for _ in range(hooked.bit_length()):
            parent = parent[parent]
        ra, rb = parent[heads], parent[tails]
        split = ra != rb
        hooked = int(np.count_nonzero(split))
        if not hooked:
            break
        ra, rb = ra[split], rb[split]
        parent[np.maximum(ra, rb)] = np.minimum(ra, rb)
        heads, tails = heads[split], tails[split]
    # each component's root is its first run, which holds its first node
    rank = np.cumsum(parent == np.arange(runs), dtype=np.int32)
    return starts, ends, rank[parent], int(rank[-1]) if runs else 0


def label_components(mask: np.ndarray) -> tuple[np.ndarray, int]:
    """Face-connected components of `mask`: (int32 labels, count).

    Labels run 1..count, numbered by each component's first node in
    row-major order, and 0 marks the background. The labeller works on runs
    along the last axis (Rosenfeld and Pfaltz, JACM 1966): a run joins each
    run on the next line of every other axis whose columns overlap its own,
    found by `searchsorted` on the run bounds, and the run graph is merged
    by hooking roots onto smaller roots and pointer jumping until no edge
    joins two roots.
    """
    mask = np.asarray(mask, dtype=bool)
    starts, ends, run_label, count = _label_runs(mask)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(run_label, ends - starts)
    return labels, count


def connected_components(mask: np.ndarray) -> int:
    """Number of face-connected components of the mask."""
    return _label_runs(np.asarray(mask, dtype=bool))[3]


@dataclass
class PotentialField:
    """Scalar potential on a masked grid.

    `values` is a full box array (row-major, last index fastest); only masked
    entries are meaningful and are required to be finite. Fields are treated
    as immutable after construction.
    """

    grid: GridSpec
    values: np.ndarray
    mask: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != self.grid.shape:
            raise FieldError(
                f"values shape {self.values.shape} != grid shape {self.grid.shape}"
            )
        if self.mask is None:
            self.mask = self.grid.ball_mask()
        self.mask = np.asarray(self.mask, dtype=bool)
        if self.mask.shape != self.grid.shape:
            raise FieldError("mask shape does not match grid shape")
        if not self.mask.any():
            raise FieldError("mask is empty")
        bad = ~np.isfinite(self.values) & self.mask
        if bad.any():
            node = tuple(int(i) for i in np.argwhere(bad)[0])
            raise FieldError("non-finite value inside mask", node=node)
        if connected_components(self.mask) != 1:
            raise FieldError("mask is not face-connected")

    @property
    def spacing(self) -> float:
        return self.grid.spacing

    def masked_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(coords (N, dim), values (N,)) over masked nodes, row-major order."""
        coords = self.grid.coords()[self.mask]
        return coords, self.values[self.mask]

    def with_values(self, values: np.ndarray) -> "PotentialField":
        return PotentialField(self.grid, values, self.mask.copy())

    def shifted(self, constant: float) -> "PotentialField":
        return self.with_values(self.values + constant)


def evaluate_formula(formula: Callable, points: np.ndarray) -> np.ndarray:
    """Values of `formula` at `points` (..., dim), of shape points.shape[:-1].

    The formula is called once on the whole array. A plain scalar function
    is accepted as fallback: after a TypeError or ValueError (what numpy
    raises when a one-point function receives an array) or an output of the
    wrong shape, it is called once per point. Any other exception
    propagates; if the per-point calls fail too, FieldError is raised from
    the first error.
    """
    shape = points.shape[:-1]
    try:
        values = np.asarray(formula(points), dtype=float)
    except (TypeError, ValueError) as err:
        first = err
    else:
        if values.shape == shape:
            return values
        first = FieldError(
            f"formula returned shape {values.shape}, expected {shape}")
    try:
        flat = [float(formula(p)) for p in points.reshape(-1, points.shape[-1])]
    except Exception as err:
        raise FieldError(
            f"formula failed on the whole array ({first}) and per point ({err})"
        ) from first
    return np.array(flat).reshape(shape)


def sample_potential(
    formula: Callable[[np.ndarray], np.ndarray | float], grid: GridSpec
) -> PotentialField:
    """Sample a pointwise formula on every grid node.

    `formula` receives coordinates of shape (..., dim) and may evaluate
    vectorized; a plain scalar function is accepted as fallback
    (`evaluate_formula`). Non-finite output at a masked node is rejected
    with that node's index.
    """
    values = evaluate_formula(formula, grid.coords())
    mask = grid.ball_mask()
    bad = ~np.isfinite(values) & mask
    if bad.any():
        node = tuple(int(i) for i in np.argwhere(bad)[0])
        raise FieldError("formula produced a non-finite value", node=node)
    return PotentialField(grid, values, mask)


def osc(u: PotentialField) -> float:
    """Oscillation max - min of the field over its mask."""
    vals = u.values[u.mask]
    return float(vals.max() - vals.min())
