"""PF1 and CSV round trips."""

import numpy as np
import pytest

from slag_lab import (
    FileFormatError,
    GridSpec,
    convert,
    load_field,
    read_csv,
    read_pf1,
    sample_potential,
    save_field,
    write_csv,
    write_pf1,
)
from slag_lab.fields import PotentialField
from slag_lab.formulas import iso_quad


def test_pf1_round_trip_bit_exact(tmp_path, rng):
    grid = GridSpec.ball_box(2, 65)
    values = rng.normal(size=grid.shape)
    path = tmp_path / "field.pf1"
    write_pf1(path, grid, values, "potential")
    grid2, values2, kind = read_pf1(path)
    assert kind == "potential"
    assert grid2 == grid
    assert np.array_equal(values, values2)


def test_pf1_slope_grid_null_radius(tmp_path):
    grid = GridSpec(2, (7, 9), 0.25, (-0.75, -1.0), None)
    path = tmp_path / "slope.pf1"
    write_pf1(path, grid, np.zeros(grid.shape), "conjugate")
    grid2, _, kind = read_pf1(path)
    assert grid2.ball_radius is None and kind == "conjugate"


def test_csv_round_trip_bit_exact(tmp_path, rng):
    grid = GridSpec.ball_box(2, 65)
    field = PotentialField(grid, rng.normal(size=grid.shape))
    p1 = tmp_path / "a.pf1"
    p2 = tmp_path / "b.csv"
    p3 = tmp_path / "c.pf1"
    save_field(p1, field)
    convert(p1, p2)
    convert(p2, p3)
    _, v1, _ = read_pf1(p1)
    _, v3, _ = read_pf1(p3)
    assert v1.tobytes() == v3.tobytes()


def test_mask_only_export(tmp_path):
    grid = GridSpec.ball_box(2, 17)
    field = sample_potential(iso_quad(1.0), grid)
    path = tmp_path / "m.csv"
    write_csv(path, field)
    rows = path.read_text().splitlines()[2:]
    flags = {row.rsplit(",", 1)[1] for row in rows}
    assert flags == {"0", "1"}


def test_explicit_mask_companion(tmp_path):
    grid = GridSpec(2, (9, 9), 0.25, (-1.0, -1.0), None)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[2:7, 2:7] = True
    field = PotentialField(grid, np.ones(grid.shape), mask)
    path = tmp_path / "f.pf1"
    save_field(path, field)
    loaded = load_field(path)
    assert np.array_equal(loaded.mask, mask)


def test_malformed_header_reports_offset(tmp_path):
    path = tmp_path / "bad.pf1"
    path.write_bytes(b'{"dim": 2, broken\n' + b"\x00" * 16)
    with pytest.raises(FileFormatError) as err:
        read_pf1(path)
    assert err.value.offset is not None


def test_truncated_payload_rejected(tmp_path):
    grid = GridSpec.ball_box(2, 9)
    path = tmp_path / "short.pf1"
    write_pf1(path, grid, np.zeros(grid.shape))
    data = path.read_bytes()
    path.write_bytes(data[:-8])
    with pytest.raises(FileFormatError):
        read_pf1(path)


def test_checksum_round_trip_random_field(tmp_path, rng):
    # 65^2 random field: PF1 -> CSV -> PF1 checksum equality
    import hashlib

    grid = GridSpec.ball_box(2, 65)
    field = PotentialField(grid, rng.uniform(-5, 5, size=grid.shape))
    a = tmp_path / "a.pf1"
    b = tmp_path / "b.csv"
    c = tmp_path / "c.pf1"
    save_field(a, field)
    convert(a, b)
    convert(b, c)
    digest = lambda p: hashlib.sha256(p.read_bytes()).hexdigest()
    assert digest(a) == digest(c)


def _boxed_field():
    grid = GridSpec(2, (9, 9), 0.25, (-1.0, -1.0), None)
    mask = np.zeros(grid.shape, dtype=bool)
    mask[2:7, 2:7] = True
    return PotentialField(grid, np.ones(grid.shape), mask)


def test_implicit_mask_removes_a_stale_companion(tmp_path):
    field = _boxed_field()
    path = tmp_path / "f.pf1"
    save_field(path, field)
    assert (tmp_path / "f.mask.pf1").exists()
    full = PotentialField(field.grid, field.values)
    save_field(path, full)
    assert not (tmp_path / "f.mask.pf1").exists()
    assert load_field(path).mask.all()


@pytest.mark.parametrize("suffix", [".csv", ".pf1"])
def test_convert_keeps_the_companion_mask(tmp_path, suffix):
    field = _boxed_field()
    src = tmp_path / "a.pf1"
    dst = tmp_path / f"b{suffix}"
    save_field(src, field)
    convert(src, dst)
    back = read_csv(dst) if suffix == ".csv" else load_field(dst)
    assert np.array_equal(back.mask, field.mask)


def test_convert_copies_a_mask_file_without_a_companion(tmp_path):
    field = _boxed_field()
    src = tmp_path / "d.pf1"
    write_pf1(src, field.grid, field.mask.astype(float), "mask")
    convert(src, tmp_path / "e.pf1")
    assert (tmp_path / "e.pf1").read_bytes() == src.read_bytes()
    assert not (tmp_path / "e.mask.pf1").exists()


def _csv_lines(tmp_path):
    path = tmp_path / "f.csv"
    write_csv(path, sample_potential(iso_quad(1.0), GridSpec.ball_box(2, 5)))
    return path, path.read_text().splitlines()


def test_csv_header_missing_key_is_a_format_error(tmp_path):
    path, lines = _csv_lines(tmp_path)
    lines[0] = lines[0].replace('"spacing"', '"step"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="spacing"):
        read_csv(path)


def test_csv_short_row_is_a_format_error(tmp_path):
    path, lines = _csv_lines(tmp_path)
    lines[5] = lines[5].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="line 6"):
        read_csv(path)


def test_csv_duplicate_node_is_a_format_error(tmp_path):
    path, lines = _csv_lines(tmp_path)
    lines[3] = lines[2]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="line 4: duplicate node"):
        read_csv(path)


def test_csv_negative_node_index_is_a_format_error(tmp_path):
    path, lines = _csv_lines(tmp_path)
    lines[2] = "-1" + lines[2][1:]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FileFormatError, match="line 3: node index"):
        read_csv(path)
