"""PF1 field files and CSV import/export.

A PF1 file is one JSON header line (dim, shape, spacing, origin, ball_radius,
value_kind) followed by the raw 64-bit little-endian float payload in
row-major order. Masks travel either implicitly (ball grids) or as a
companion file `<stem>.mask.pf1` with value_kind "mask", which
`load_field` reads whenever it exists. A CSV carries the same header after
'# PF1 ', then one row per node: index tuple, coordinates, value and mask
flag at 17 significant digits, so PF1 -> CSV -> PF1 round-trips are
bit-exact, value_kind included. Malformed input, a missing node or a
duplicate node raises FileFormatError.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import FileFormatError
from .fields import GridSpec, PotentialField

VALUE_KINDS = ("potential", "conjugate", "mask")


def _header_dict(grid: GridSpec, value_kind: str) -> dict:
    if value_kind not in VALUE_KINDS:
        raise FileFormatError(f"unknown value_kind {value_kind!r}")
    return {
        "dim": grid.dim,
        "shape": list(grid.shape),
        "spacing": grid.spacing,
        "origin": list(grid.origin),
        "ball_radius": grid.ball_radius,
        "value_kind": value_kind,
    }


def write_pf1(path, grid: GridSpec, values: np.ndarray, value_kind: str = "potential"):
    header = json.dumps(_header_dict(grid, value_kind)) + "\n"
    payload = np.ascontiguousarray(values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(payload)


def _parse_header(line, offset: int) -> tuple[GridSpec, dict]:
    """Grid and raw dict of a JSON header line (PF1, or a CSV after '# PF1 ')."""
    try:
        header = json.loads(line)
        radius = header["ball_radius"]
        grid = GridSpec(
            dim=int(header["dim"]),
            shape=tuple(header["shape"]),
            spacing=float(header["spacing"]),
            origin=tuple(header["origin"]),
            ball_radius=None if radius is None else float(radius),
        )
    except KeyError as exc:
        raise FileFormatError(f"header missing key {exc}", offset=offset) from exc
    except (TypeError, ValueError) as exc:
        raise FileFormatError(f"malformed header: {exc}",
                              offset=getattr(exc, "pos", offset)) from exc
    return grid, header


def _value_kind(header: dict, offset: int) -> str:
    value_kind = header.get("value_kind")
    if value_kind not in VALUE_KINDS:
        raise FileFormatError(f"unknown value_kind {value_kind!r}", offset=offset)
    return value_kind


def read_pf1(path) -> tuple[GridSpec, np.ndarray, str]:
    raw = Path(path).read_bytes()
    nl = raw.find(b"\n")
    if nl < 0:
        raise FileFormatError("no header line terminator found", offset=len(raw))
    grid, header = _parse_header(raw[:nl], nl)
    value_kind = _value_kind(header, nl)
    expected = grid.n_nodes() * 8
    payload = raw[nl + 1 :]
    if len(payload) != expected:
        raise FileFormatError(
            f"payload has {len(payload)} bytes, expected {expected}", offset=nl + 1
        )
    values = np.frombuffer(payload, dtype="<f8").reshape(grid.shape).copy()
    return grid, values, value_kind


def save_field(path, field: PotentialField, value_kind: str = "potential"):
    """Write a field; an explicit (non-ball) mask goes to `<stem>.mask.pf1`.

    Mask files carry the mask in their values. Otherwise an implicit mask
    removes a companion that an earlier save left at the same path.
    """
    write_pf1(path, field.grid, field.values, value_kind)
    companion = Path(path).with_suffix(".mask.pf1")
    if value_kind == "mask" or np.array_equal(field.mask, field.grid.ball_mask()):
        companion.unlink(missing_ok=True)
    else:
        write_pf1(companion, field.grid, field.mask.astype(float), "mask")


def _read_field(path) -> tuple[PotentialField, str]:
    """`load_field` plus the file's value_kind."""
    grid, values, kind = read_pf1(path)
    if kind == "mask":
        return PotentialField(grid, values, values > 0.5), kind
    companion = Path(path).with_suffix(".mask.pf1")
    if not companion.exists():
        return PotentialField(grid, values), kind
    mgrid, mvals, mkind = read_pf1(companion)
    if mkind != "mask" or mgrid.shape != grid.shape:
        raise FileFormatError(
            f"companion mask file {companion} does not match the field")
    return PotentialField(grid, values, mvals > 0.5), kind


def load_field(path) -> PotentialField:
    """Read a field and its mask: the values of a mask file, the companion
    `<stem>.mask.pf1` when it exists, else the grid's ball mask."""
    return _read_field(path)[0]


def write_csv(path, field: PotentialField, value_kind: str = "potential"):
    grid = field.grid
    d = grid.dim
    idx_cols = [f"i{k}" for k in range(d)]
    coord_cols = [f"x{k}" for k in range(d)]
    coords = grid.coords()
    header = "# PF1 " + json.dumps(_header_dict(grid, value_kind)) + "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(header)
        fh.write(",".join(idx_cols + coord_cols + ["value", "mask"]) + "\n")
        for idx in np.ndindex(grid.shape):
            row = [str(i) for i in idx]
            row += [f"{coords[idx][k]:.17g}" for k in range(d)]
            row.append(f"{field.values[idx]:.17g}")
            row.append("1" if field.mask[idx] else "0")
            fh.write(",".join(row) + "\n")


def _read_csv(path) -> tuple[PotentialField, str]:
    """`read_csv` plus the header's value_kind."""
    with open(path, "r", encoding="ascii") as fh:
        first = fh.readline()
        if not first.startswith("# PF1 "):
            raise FileFormatError("CSV missing '# PF1' grid header", offset=0)
        grid, header = _parse_header(first[len("# PF1 ") :], 0)
        value_kind = _value_kind(header, 0)
        fh.readline()  # column names
        values = np.empty(grid.shape)
        mask = np.zeros(grid.shape, dtype=bool)
        seen = np.zeros(grid.shape, dtype=bool)
        d = grid.dim
        for lineno, line in enumerate(fh, start=3):
            parts = line.strip().split(",")
            try:
                idx = tuple(int(p) for p in parts[:d])
                if len(idx) < d or min(idx) < 0:
                    raise ValueError(f"node index {idx} out of range")
                if seen[idx]:
                    raise ValueError(f"duplicate node {idx}")
                seen[idx] = True
                values[idx] = float(parts[2 * d])
                mask[idx] = parts[2 * d + 1] == "1"
            except (IndexError, ValueError) as exc:
                raise FileFormatError(f"CSV line {lineno}: {exc}") from exc
    if not seen.all():
        missing = tuple(int(i) for i in np.argwhere(~seen)[0])
        raise FileFormatError(f"CSV has no row for node {missing}")
    return PotentialField(grid, values, mask), value_kind


def read_csv(path) -> PotentialField:
    """Read a CSV export; every grid node must appear exactly once."""
    return _read_csv(path)[0]


def convert(in_path, out_path):
    """Lossless conversion between PF1 and CSV, dispatched by suffix."""
    src = Path(in_path)
    dst = Path(out_path)
    if src.suffix == ".pf1" and dst.suffix == ".csv":
        write_csv(dst, *_read_field(src))
    elif src.suffix == ".csv" and dst.suffix == ".pf1":
        save_field(dst, *_read_csv(src))
    elif src.suffix == dst.suffix == ".pf1":
        save_field(dst, *_read_field(src))
    else:
        raise FileFormatError(
            f"unsupported conversion {src.suffix!r} -> {dst.suffix!r}"
        )
