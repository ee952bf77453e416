import io
import math
import re
import tracemalloc

import numpy as np
import pytest

from plasmeq import fields
from plasmeq.fields import (
    Grid3,
    ScalarGrid,
    curl,
    directional,
    divergence,
    gradient,
    norm,
    read_csv,
    sample_scalar,
    sample_vector,
    sphere_mask,
    write_csv,
    write_vtk,
)
from reference import cross


def cube(n=9, lo=-1.0, hi=1.0):
    return Grid3.cube(lo, hi, n)


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3((0, 0, 0), (0.1, -0.1, 0.1), (5, 5, 5))
    with pytest.raises(ValueError):
        Grid3((0, 0, 0), (0.1, 0.1, 0.1), (5, 0, 5))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Grid3((0, 0, 0), (math.nan, 1, 1), (5, 5, 5)), r"spacing \(nan, 1, 1\) must be finite"),
        (lambda: Grid3((0, 0, 0), (1, math.inf, 1), (5, 5, 5)), r"spacing \(1, inf, 1\) must be finite"),
        (lambda: Grid3((0, 0, 0), (1, 1, 0.0), (5, 5, 5)), r"spacing \(1, 1, 0.0\) must be finite, the spacing positive"),
        (lambda: Grid3((0, 0, math.nan), (1, 1, 1), (5, 5, 5)), r"origin \(0, 0, nan\) and spacing \(1, 1, 1\) must be finite"),
        (lambda: Grid3((-math.inf, 0, 0), (1, 1, 1), (5, 5, 5)), r"origin \(-inf, 0, 0\) and"),
        # the extent 2e308 overflows: the spacing would be inf
        (lambda: Grid3.cube(-1e308, 1e308, 5), r"spacing \(inf, inf, inf\) must be finite"),
        (lambda: Grid3.from_axes(np.array([-1.7e308, 1.7e308]), np.arange(3.0), np.arange(3.0)), r"spacing \(inf, 1.0, 1.0\) must be finite"),
        # a uniform axis with finite nodes whose extent overflows
        (lambda: Grid3.from_axes(np.array([-1.5e308, 0.0, 1.5e308]), np.arange(3.0), np.arange(3.0)), r"spacing \(inf, 1.0, 1.0\) must be finite"),
    ],
    ids=["nan spacing", "inf spacing", "zero spacing", "nan origin", "infinite origin", "cube", "from_axes", "from_axes finite nodes"],
)
def test_grid_geometry_must_be_finite(build, message):
    with pytest.raises(ValueError, match=message), np.errstate(over="ignore"):
        build()


@pytest.mark.parametrize(
    "origin, spacing, counts",
    [
        # a finite last node (1.5e308) that ``axes()`` computes as -1.5e308 + 3e308 = inf
        ((-1.5e308, 0, 0), (1.5e308, 1, 1), (3, 2, 2)),
        # a last node at 2e308
        ((0, 0, 0), (1e308, 1, 1), (3, 2, 2)),
    ],
    ids=["finite node computed as inf", "node beyond the float range"],
)
def test_grid_nodes_must_be_finite(origin, spacing, counts):
    message = f"grid origin {origin}, spacing {spacing} and counts {counts} put the last node beyond the float range"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        Grid3(origin, spacing, counts)


def test_grid_of_two_nodes_spanning_the_float_range():
    grid = Grid3((-1.5e308, 0, 0), (1.5e308, 1, 1), (2, 2, 2))
    assert grid.axes()[0].tolist() == [-1.5e308, 0.0]


def test_sampling_constant_and_coordinate():
    g = cube(5)
    zero = sample_scalar(lambda X, Y, Z: 0.0, g)
    assert not zero.values.any()
    coord = sample_scalar(lambda X, Y, Z: X, g)
    assert np.array_equal(coord.values, g.meshgrid()[0])


def test_sampling_rejects_nonfinite():
    g = cube(5)
    with pytest.raises(ValueError, match="node"):
        sample_scalar(lambda X, Y, Z: np.where((X > 0.9) & (Y > 0.9) & (Z > 0.9), np.inf, 1.0), g)


def test_divergence_exact_on_linear_field():
    g = cube(9)
    v = sample_vector(lambda X, Y, Z: np.stack([X, Y, Z]), g)
    d = divergence(v)
    assert np.allclose(d.values, 3.0, rtol=0, atol=1e-13)


def test_curl_exact_on_rigid_rotation():
    g = cube(9)
    v = sample_vector(lambda X, Y, Z: np.stack([-Y, X, np.zeros_like(X)]), g)
    c = curl(v)
    assert np.allclose(c.values[0], 0.0, atol=1e-13)
    assert np.allclose(c.values[1], 0.0, atol=1e-13)
    assert np.allclose(c.values[2], 2.0, rtol=0, atol=1e-13)


def test_gradient_second_order_on_sine():
    errs = {}
    for n in (17, 33):
        g = cube(n)
        f = sample_scalar(lambda X, Y, Z: np.sin(X), g)
        grad = gradient(f)
        exact = np.cos(g.interior().meshgrid()[0])
        errs[n] = np.max(np.abs(grad.values[0] - exact))
    assert errs[17] / errs[33] == pytest.approx(4.0, abs=0.5)


def test_exactness_on_quadratics():
    g = cube(9)
    f = sample_scalar(lambda X, Y, Z: X * X + 2 * X * Y - Z * Z + X - 3, g)
    grad = gradient(f)
    Xi, Yi, Zi = g.interior().meshgrid()
    assert np.allclose(grad.values[0], 2 * Xi + 2 * Yi + 1, rtol=1e-12, atol=1e-12)
    assert np.allclose(grad.values[1], 2 * Xi, rtol=1e-12, atol=1e-12)
    assert np.allclose(grad.values[2], -2 * Zi, rtol=1e-12, atol=1e-12)


def test_div_of_curl_vanishes_to_roundoff():
    # central differences along distinct axes commute, so the discrete
    # identity holds exactly; anything second-order small is then automatic
    for n in (17, 33):
        g = cube(n)
        v = sample_vector(
            lambda X, Y, Z: np.stack([np.sin(Y * Z), np.cos(X + Z), np.sin(X) * np.cos(Y)]), g
        )
        assert norm(divergence(curl(v)), "linf") < 1e-13


def test_curl_of_grad_vanishes_to_roundoff():
    for n in (17, 33):
        g = cube(n)
        f = sample_scalar(lambda X, Y, Z: np.sin(X * Y) + np.cos(Z + X), g)
        assert norm(curl(gradient(f)), "linf") < 1e-13


def test_directional_matches_manual_dot():
    g = cube(9)
    v = sample_vector(lambda X, Y, Z: np.stack([Y, -X, Z]), g)
    f = sample_scalar(lambda X, Y, Z: X * Y + Z, g)
    d = directional(v, f)
    manual = np.einsum("cijk,cijk->ijk", v.interior().values, gradient(f).values)
    assert np.allclose(d.values, manual, rtol=0, atol=1e-14)


def test_small_grid_rejected():
    g = cube(4)
    f = sample_scalar(lambda X, Y, Z: X, g)
    with pytest.raises(ValueError, match="5 nodes"):
        gradient(f)


def test_norm_basics():
    g = cube(5)
    zero = sample_scalar(lambda X, Y, Z: 0.0, g)
    assert norm(zero, "linf") == 0.0
    assert norm(zero, "l2") == 0.0
    single = np.zeros(g.counts)
    single[2, 2, 2] = 3.0
    assert norm(ScalarGrid(g, single), "linf") == 3.0
    const = sample_scalar(lambda X, Y, Z: -1.5, g)
    assert norm(const, "l2") == pytest.approx(1.5, rel=1e-15)
    vec = sample_vector(lambda X, Y, Z: np.stack([np.full_like(X, 3.0), np.full_like(X, 4.0), np.zeros_like(X)]), g)
    assert norm(vec, "linf") == pytest.approx(5.0, rel=1e-15)
    with pytest.raises(ValueError):
        norm(zero, "l7")


def test_norm_with_mask():
    g = cube(9)
    f = sample_scalar(lambda X, Y, Z: X, g)
    inner = norm(f, "linf", mask=sphere_mask(g, 0.5))
    assert inner <= 0.5 + 1e-12
    with pytest.raises(ValueError, match="empty"):
        norm(f, "linf", mask=np.zeros(g.counts, dtype=bool))


@pytest.mark.parametrize("radius", [0.0, -0.5])
def test_sphere_mask_refuses_a_radius_that_is_not_positive(radius):
    # squaring a negative radius would select the ball of radius |radius|
    with pytest.raises(ValueError, match="sphere radius must be positive"):
        sphere_mask(cube(9), radius)


def test_cross_and_dot():
    g = cube(5)
    a = sample_vector(lambda X, Y, Z: np.stack([np.ones_like(X), np.zeros_like(X), np.zeros_like(X)]), g)
    b = sample_vector(lambda X, Y, Z: np.stack([np.zeros_like(X), np.ones_like(X), np.zeros_like(X)]), g)
    c = cross(a, b)
    assert np.allclose(c.values[2], 1.0) and not c.values[:2].any()
    assert np.allclose(np.einsum("cijk,cijk->ijk", a.values, b.values), 0.0)


def test_coarsen_requires_odd_counts():
    g = Grid3((0, 0, 0), (1, 1, 1), (8, 9, 9))
    with pytest.raises(ValueError, match="odd"):
        g.coarsen()
    g2 = cube(9).coarsen()
    assert g2.counts == (5, 5, 5)
    assert g2.spacing[0] == pytest.approx(2 * cube(9).spacing[0])


def test_csv_roundtrip_is_exact(tmp_path):
    g = cube(7, lo=-1.1, hi=0.93)
    rng = np.random.default_rng(7)
    cols = {"a": rng.standard_normal(g.counts), "b": rng.standard_normal(g.counts)}
    path = tmp_path / "f.csv"
    write_csv(path, dict(zip("xyz", g.axes())), cols)
    axes, cols2 = read_csv(path, ("x", "y", "z"))
    assert Grid3.from_axes(*axes) == g
    for name in cols:
        assert np.array_equal(cols[name], cols2[name])


def test_csv_rejects_scrambled_rows(tmp_path):
    g = cube(5)
    path = tmp_path / "f.csv"
    write_csv(path, dict(zip("xyz", g.axes())), {"a": np.zeros(g.counts)})
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        read_csv(bad, ("x", "y", "z"))


@pytest.mark.parametrize("header", ["x,y,z,a,a", "x,y,z,x,a"])
def test_csv_refuses_a_repeated_column_name(tmp_path, header):
    # a later column of the same name would silently replace the first
    g = cube(3)
    path = tmp_path / "f.csv"
    write_csv(path, dict(zip("xyz", g.axes())), {"a": np.ones(g.counts), "b": np.zeros(g.counts)})
    _, *lines = path.read_text().splitlines(keepends=True)
    path.write_text(header + "\n" + "".join(lines))
    name = header.split(",")[3]
    with pytest.raises(ValueError, match=f"f.csv: column {name} appears twice in the header"):
        read_csv(path, ("x", "y", "z"))


@pytest.mark.parametrize("row", [0, 1, 5000])
def test_csv_names_the_file_offset_of_a_byte_that_is_not_utf8(tmp_path, row):
    g = cube(17)
    path = tmp_path / "f.csv"
    write_csv(path, dict(zip("xyz", g.axes())), {"a": np.zeros(g.counts)})
    lines = path.read_bytes().splitlines(keepends=True)
    offset = sum(len(line) for line in lines[: row + 1])
    path.write_bytes(b"".join(lines[: row + 1]) + b"\xff" + b"".join(lines[row + 1 :]))
    with pytest.raises(ValueError, match=f"f.csv: 'utf-8' codec can't decode byte 0xff in position {offset}:"):
        read_csv(path, ("x", "y", "z"))


BLOCK = 8  # rows per read block in the tests below; the reader's own is far larger


def _blocked_file(tmp_path, counts):
    """A CSV file of ``counts`` nodes with columns ``a`` and ``b``; returns
    its path, axes and columns."""
    rng = np.random.default_rng(sum(counts))
    axes = {name: np.linspace(rng.uniform(-2, -1), rng.uniform(1, 2), n) for name, n in zip("xyz", counts)}
    columns = {"a": rng.standard_normal(counts), "b": rng.choice([0.0, -0.0, 1.5], counts)}
    path = tmp_path / "f.csv"
    write_csv(path, axes, columns)
    return path, axes, columns


def _straddled(data: bytes) -> bytes:
    """Blank and comment lines before and after the end of the first block."""
    header, *rows = data.splitlines(keepends=True)
    filler = [b"\n", b"# a comment\n", b"\n", b"#\n"]
    return header + b"".join(rows[: BLOCK - 1] + filler + rows[BLOCK - 1 : BLOCK + 1] + filler + rows[BLOCK + 1 :])


LAYOUTS = {
    "lf": lambda data: data,
    "crlf": lambda data: data.replace(b"\n", b"\r\n"),
    "no final newline": lambda data: data[:-1],
    "blank and comment lines": _straddled,
}


# one block - 1, one block, one block + 1 and two blocks + 1 rows
@pytest.mark.parametrize("counts", [(1, 1, BLOCK - 1), (2, 2, 2), (3, 1, 3), (1, 2 * BLOCK + 1, 1)])
@pytest.mark.parametrize("layout", list(LAYOUTS))
def test_csv_reads_bit_exactly_across_row_blocks(tmp_path, monkeypatch, counts, layout):
    monkeypatch.setattr(fields, "_READ_BLOCK", BLOCK)
    path, axes, columns = _blocked_file(tmp_path, counts)
    path.write_bytes(LAYOUTS[layout](path.read_bytes()))
    axes2, columns2 = read_csv(path, ("x", "y", "z"))
    assert [a.tobytes() for a in axes2] == [a.tobytes() for a in axes.values()]
    assert list(columns2) == ["a", "b"]
    for name, values in columns.items():
        assert columns2[name].shape == counts
        assert columns2[name].tobytes() == values.tobytes()


def _cells(row: int, column: int, text: str):
    """Put ``text`` into one cell of data row ``row`` (from 1)."""

    def edit(data: bytes) -> bytes:
        lines = data.splitlines(keepends=True)
        cells = lines[row].rstrip(b"\n").split(b",")
        cells[column] = text.encode()
        lines[row] = b",".join(cells) + b"\n"
        return b"".join(lines)

    return edit


def _byte_before_row(row: int):
    def edit(data: bytes) -> bytes:
        lines = data.splitlines(keepends=True)
        return b"".join(lines[:row]) + b"\xff" + b"".join(lines[row:])

    return edit


# data row 20 of 27 lies in the third block of BLOCK rows
LATER_BLOCK_REFUSALS = {
    "row of the wrong width": (_cells(20, 4, "0,0"), "f.csv: data row 20 has 6 columns, the header has 5"),
    "empty cell": (_cells(20, 3, ""), "f.csv: data row 20 holds '' for a, not a number"),
    "nan": (_cells(20, 3, "nan"), "f.csv: holds a non-finite a (nan) in data row 20"),
    # Python's float reads both as numbers; numpy, which reads the file, does not
    "underscore": (_cells(20, 3, "1_0"), "f.csv: data row 20 holds '1_0' for a, not a number"),
    "digit that is not ASCII": (_cells(20, 4, "\u0661"), "f.csv: data row 20 holds '\u0661' for b, not a number"),
    "two bad cells, the first named": (
        lambda data: _cells(18, 3, "1_0")(_cells(22, 4, "\u0661")(data)),
        "f.csv: data row 18 holds '1_0' for a, not a number",
    ),
    "byte that is not UTF-8": (_byte_before_row(20), "f.csv: 'utf-8' codec can't decode byte 0xff in position {}:"),
}


@pytest.mark.parametrize("case", list(LATER_BLOCK_REFUSALS))
def test_csv_refusal_in_a_later_block_names_its_row_and_offset(tmp_path, monkeypatch, case):
    path, _, _ = _blocked_file(tmp_path, (3, 3, 3))
    data = path.read_bytes()
    edit, message = LATER_BLOCK_REFUSALS[case]
    message = message.format(sum(map(len, data.splitlines(keepends=True)[:20])))  # the offset of data row 20
    path.write_bytes(edit(data))
    with pytest.raises(ValueError) as whole:
        read_csv(path, ("x", "y", "z"))  # all 27 rows in one block
    assert message in str(whole.value)
    monkeypatch.setattr(fields, "_READ_BLOCK", BLOCK)
    with pytest.raises(ValueError) as blocked:
        read_csv(path, ("x", "y", "z"))
    assert str(blocked.value) == str(whole.value)


def _loadtxt_refusal(path) -> str:
    """The message of ``np.loadtxt`` on the body of a CSV file."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        with pytest.raises(ValueError) as err:
            np.loadtxt(fh, delimiter=",", ndmin=2)
    return str(err.value)


def test_csv_refusal_is_that_of_one_parse_of_the_whole_body(tmp_path, monkeypatch):
    monkeypatch.setattr(fields, "_READ_BLOCK", BLOCK)
    path, _, _ = _blocked_file(tmp_path, (3, 3, 3))
    header, *rows = path.read_bytes().splitlines(keepends=True)
    rows[18] = b"1_0" + rows[18][rows[18].index(b","):]
    path.write_bytes(header + b"".join(rows))
    with pytest.raises(ValueError, match=r"f.csv: data row 19 holds '1_0' for x, not a number$"):
        read_csv(path, ("x", "y", "z"))
    # where the row finder finds no bad row, numpy's own message, with its
    # own row and column numbers, stands
    monkeypatch.setattr(fields, "_first_bad_row", lambda path, header: None)
    with pytest.raises(ValueError) as err:
        read_csv(path, ("x", "y", "z"))
    assert str(err.value) == f"{path}: {_loadtxt_refusal(path)}"
    assert "'1_0'" in str(err.value)


@pytest.mark.parametrize("blank", [b"   ", b"\t", b" \t "])
def test_csv_line_of_blanks_is_a_row_of_one_column(tmp_path, monkeypatch, blank):
    # numpy skips an empty line but reads one of spaces or tabs as a row of
    # one column; the row finder counts it as numpy does
    monkeypatch.setattr(fields, "_READ_BLOCK", BLOCK)
    path, _, _ = _blocked_file(tmp_path, (3, 3, 3))
    header, *rows = path.read_bytes().splitlines(keepends=True)
    path.write_bytes(header + b"".join(rows[:18] + [b"\n", blank + b"\n"] + rows[18:]))
    with pytest.raises(ValueError, match=r"f.csv: data row 19 has 1 columns, the header has 5$"):
        read_csv(path, ("x", "y", "z"))


def test_csv_width_change_at_a_block_start_comes_before_a_later_bad_byte(tmp_path, monkeypatch):
    # the reader parses a block whole before it compares its width with the
    # last block's, and here decodes the bad byte in between
    monkeypatch.setattr(fields, "_READ_BLOCK", 200)
    path, _, _ = _blocked_file(tmp_path, (9, 9, 9))
    header, *rows = path.read_bytes().splitlines(keepends=True)
    wider = [row.rstrip(b"\n") + b",0\n" for row in rows[400:]]
    body = b"".join(rows[:400] + wider[:199]) + b"\xff" + b"".join(wider[199:])
    # the bad byte lies well past the text decoder's first read of block 3
    assert body.index(b"\xff") - len(b"".join(rows[:400])) > 2 * 8192
    path.write_bytes(header + body)
    with pytest.raises(ValueError, match=r"f.csv: data row 401 has 6 columns, the header has 5$"):
        read_csv(path, ("x", "y", "z"))


def _whole_table(axes, columns):
    """The table ``write_csv`` writes, built whole: coordinates then columns."""
    return np.column_stack([v.reshape(-1) for v in (*np.meshgrid(*axes.values(), indexing="ij"), *columns.values())])


# one block, a z period and a y period shorter than a block, a y period longer
@pytest.mark.parametrize("counts", [(1, 1, 1), (2, 3, 5), (3, 7, 200), (2, 3000, 1)])
def test_csv_writer_matches_savetxt_of_the_whole_table(tmp_path, counts):
    rng = np.random.default_rng(sum(counts))
    axes = {name: np.sort(rng.standard_normal(n)) for name, n in zip("xyz", counts)}
    columns = {"a": rng.standard_normal(counts), "b": rng.choice([0.0, -0.0, 1.5], counts)}
    path = tmp_path / "f.csv"
    write_csv(path, axes, columns)
    reference = io.StringIO()
    np.savetxt(reference, _whole_table(axes, columns), fmt="%.17g", delimiter=",", header="x,y,z,a,b", comments="")
    assert path.read_text() == reference.getvalue()


@pytest.mark.parametrize(
    "coordinate, values",
    [
        (None, [((1, 2, 3), np.nan), ((1, 2, 4), np.inf)]),
        (None, [((1, 0, 0), -np.inf), ((0, 3, 1), np.nan)]),
        (("y", 2), [((0, 2, 0), np.inf)]),
        (("y", 2), [((0, 1, 4), np.nan)]),
        (("z", 4), [((0, 0, 4), np.nan)]),
    ],
    ids=["first of two", "earlier row, later column", "coordinate first", "value first", "same row"],
)
def test_csv_writer_names_the_first_nonfinite_value(tmp_path, coordinate, values):
    # the first in row order, then column order, of the whole table
    axes = {name: np.linspace(0.0, 1.0, n) for name, n in zip("xyz", (3, 4, 5))}
    columns = {"a": np.zeros((3, 4, 5)), "b": np.ones((3, 4, 5))}
    if coordinate is not None:
        axes[coordinate[0]][coordinate[1]] = np.nan
    for k, (node, value) in enumerate(values):
        columns["ab"[k % 2]][node] = value
    table = _whole_table(axes, columns)
    row, col = np.argwhere(~np.isfinite(table))[0]
    path = tmp_path / "f.csv"
    message = f"{path}: refusing to write a non-finite {'xyzab'[col]} ({table[row, col]}) in data row {row + 1}"
    with pytest.raises(ValueError) as caught:
        write_csv(path, axes, columns)
    assert str(caught.value) == message
    assert not path.exists()


def _assert_rows_match_savetxt(values, delimiter):
    ours, reference = io.StringIO(), io.StringIO()
    # the writers' path: blocks of ``_ROW_BLOCK`` rows through ``_write_rows``
    rows = values.reshape(len(values), -1)
    for start in range(0, len(rows), fields._ROW_BLOCK):
        block = rows[start : start + fields._ROW_BLOCK]
        fields._write_rows(ours, [], [np.ascontiguousarray(column) for column in block.T], delimiter)
    np.savetxt(reference, values, fmt="%.17g", delimiter=delimiter)
    # compare line by line so that a failure names the first differing row
    # instead of diffing megabytes of text
    ours_rows = ours.getvalue().splitlines(keepends=True)
    reference_rows = reference.getvalue().splitlines(keepends=True)
    assert len(ours_rows) == len(reference_rows) == len(values)
    mismatch = next((i for i, pair in enumerate(zip(ours_rows, reference_rows)) if pair[0] != pair[1]), None)
    assert mismatch is None, (mismatch, ours_rows[mismatch], reference_rows[mismatch])


_LAYOUTS = pytest.mark.parametrize(
    "columns, delimiter",
    [(10, ","), (3, " "), (None, " ")],
    ids=["csv-10-columns", "vtk-vectors", "vtk-scalars"],
)


# one row, the edges of the first block, and the edges of the fourth
_BLOCK_EDGES = [1] + [n * fields._ROW_BLOCK + d for n in (1, 4) for d in (-1, 0, 1)]


@pytest.mark.parametrize("rows", _BLOCK_EDGES)
@_LAYOUTS
def test_row_writer_matches_savetxt(rows, columns, delimiter):
    rng = np.random.default_rng(rows)
    shape = (rows,) if columns is None else (rows, columns)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    special = np.array([-0.0, 5e-324, 2.2e-310, 1e300, -1e-300, 0.1, 1.0 / 3.0, 0.0])
    flat = values.reshape(-1)
    flat[: special.size] = special[: flat.size]
    _assert_rows_match_savetxt(values, delimiter)


@pytest.mark.parametrize("rows", [1, fields._ROW_BLOCK - 1, fields._ROW_BLOCK + 1])
@_LAYOUTS
def test_row_writer_matches_savetxt_on_repeated_values(rows, columns, delimiter):
    # a small pool, so that every block repeats values: signed zeros,
    # neighbours one ulp apart, subnormals and values near the top of the range
    pool = np.array([
        0.0, -0.0, 1.0, np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0), 0.1, np.nextafter(0.1, 1.0),
        5e-324, np.nextafter(5e-324, 1.0), -2.2e-310, 1e300, np.nextafter(1e300, np.inf), -1e300,
    ])
    rng = np.random.default_rng(rows)
    shape = (rows,) if columns is None else (rows, columns)
    values = rng.choice(pool, shape)
    flat = values.reshape(-1)
    # 0.0 and -0.0 in one block, in the same column where there are two rows
    width = 1 if columns is None else columns
    flat[0], flat[width if rows > 1 else -1] = 0.0, -0.0
    _assert_rows_match_savetxt(values, delimiter)


def test_a_value_repeated_across_a_block_edge_keeps_its_text(tmp_path):
    # the x (-0.0) and y coordinates and values of a (1/3) and b (-0.0 among
    # 0.0) span the last rows of the first block and the first of the
    # second: each block writes its own text
    counts = (2, fields._ROW_BLOCK // 2 + 1, 3)
    axes = {"x": np.array([-0.0, 1.0]), "y": np.linspace(-0.1, 0.1, counts[1]), "z": np.array([-1.0, 0.0, 1.0])}
    edge = np.unravel_index([fields._ROW_BLOCK - 1, fields._ROW_BLOCK], counts)
    assert edge[0][0] == edge[0][1] and edge[1][0] == edge[1][1]
    a = np.random.default_rng(7).standard_normal(counts)
    b = np.zeros(counts)
    a.reshape(-1)[fields._ROW_BLOCK - 2 : fields._ROW_BLOCK + 2] = 1.0 / 3.0
    b.reshape(-1)[fields._ROW_BLOCK - 3 : fields._ROW_BLOCK + 3] = -0.0
    path = tmp_path / "f.csv"
    write_csv(path, axes, {"a": a, "b": b})
    reference = io.StringIO()
    reference.write("x,y,z,a,b\n")
    np.savetxt(reference, _whole_table(axes, {"a": a, "b": b}), fmt="%.17g", delimiter=",")
    assert path.read_text() == reference.getvalue()


def test_vtk_header_and_payload(tmp_path):
    g = Grid3((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (3, 4, 5))
    values = np.arange(60.0).reshape(g.counts)
    vec = np.stack([values, 2 * values, -values])
    path = tmp_path / "f.vtk"
    write_vtk(path, g, scalars={"p": values}, vectors={"B": vec})
    lines = path.read_text().splitlines()
    assert lines[3] == "DATASET STRUCTURED_POINTS"
    assert lines[4] == "DIMENSIONS 3 4 5"
    assert lines[7] == "POINT_DATA 60"
    assert "VECTORS B double" in lines
    assert "SCALARS p double" in lines
    # x varies fastest: the second payload row after VECTORS is node (1,0,0)
    vec_start = lines.index("VECTORS B double") + 1
    first, second = lines[vec_start].split(), lines[vec_start + 1].split()
    assert float(first[0]) == values[0, 0, 0]
    assert float(second[0]) == values[1, 0, 0]


# block edges: one short block, blocks that end inside an x-row and a
# z-plane with a short last block, and x-rows longer than a block
@pytest.mark.parametrize("counts", [(3, 4, 5), (70, 40, 3), (2 * fields._ROW_BLOCK + 5, 2, 3)])
def test_vtk_payload_equals_savetxt_of_the_transposed_fields(tmp_path, counts):
    g = Grid3((0.0, -1.0, 2.0), (0.5, 0.25, 0.125), counts)
    rng = np.random.default_rng(len(counts) + sum(counts))
    p, q = rng.standard_normal((2, *counts))
    vec = rng.standard_normal((3, *counts))
    path = tmp_path / "f.vtk"
    write_vtk(path, g, scalars={"p": p, "q": q}, vectors={"B": vec})
    def flat(values):
        # the whole-grid reference: an x-fastest copy of a field
        return values.transpose(2, 1, 0).reshape(-1)

    reference = io.StringIO()
    reference.write("VECTORS B double\n")
    np.savetxt(reference, np.column_stack([flat(vec[c]) for c in range(3)]), fmt="%.17g", delimiter=" ")
    for name, values in (("p", p), ("q", q)):
        reference.write(f"SCALARS {name} double\nLOOKUP_TABLE default\n")
        np.savetxt(reference, flat(values), fmt="%.17g")
    lines = path.read_text().splitlines(keepends=True)
    assert "".join(lines[8:]) == reference.getvalue()


def test_vtk_writer_builds_no_whole_field_copy(tmp_path):
    g = Grid3.cube(-1.0, 1.0, 65)
    rng = np.random.default_rng(65)
    p = rng.standard_normal(g.counts)
    vec = rng.standard_normal((3, *g.counts))
    tracemalloc.start()
    try:
        write_vtk(tmp_path / "f.vtk", g, scalars={"p": p}, vectors={"B": vec})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a transposed copy of one field alone is one node array
    assert peak < g.n_nodes * 8


@pytest.mark.parametrize("field", ["p", "B"])
def test_vtk_refuses_nonfinite_values(tmp_path, field):
    g = Grid3((0.0, 0.0, 0.0), (0.5, 0.5, 0.5), (3, 4, 5))
    values = np.arange(60.0).reshape(g.counts)
    vec = np.stack([values, 2 * values, -values])
    if field == "p":
        values[1, 2, 3] = np.nan
    else:
        vec[2, 0, 1, 4] = -np.inf
    path = tmp_path / "f.vtk"
    with pytest.raises(ValueError, match=f"refusing to write a non-finite {field} "):
        write_vtk(path, g, scalars={"p": values}, vectors={"B": vec})
    assert not path.exists()
