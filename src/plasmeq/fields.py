"""Structured Cartesian grids, sampled fields, and second-order
finite-difference vector calculus.

Differential operators use central differences and return fields on the
one-node-interior grid, so compositions shrink the domain naturally and
every returned value is a genuine stencil evaluation.  Grids and field
values are frozen after construction (arrays are marked read-only), which
keeps all operations here pure.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "Grid3",
    "ScalarGrid",
    "VectorGrid",
    "sample_scalar",
    "sample_vector",
    "gradient",
    "divergence",
    "curl",
    "directional",
    "norm",
    "write_csv",
    "read_csv",
    "write_vtk",
]

_FLOAT_FMT = "%.17g"
# rows per block of ``_write_rows``: each distinct value of a block's value
# column is formatted once and held as one Python string until the block is
# written, so a larger block formats less but holds more; a 65^3 state
# writes as fast at 2048 rows as at 8192, with a smaller peak memory
_ROW_BLOCK = 2048
# rows per ``np.loadtxt`` call of ``read_csv``: the parse of one block
# (about 1.3 MB for a 10-column state) is held beside the columns it fills
_READ_BLOCK = 16384


@dataclass(frozen=True)
class Grid3:
    """Uniform Cartesian grid: finite origin, finite positive spacing, node
    counts, and every node finite as ``axes()`` computes it."""

    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    counts: tuple[int, int, int]

    def __post_init__(self):
        if not (all(map(math.isfinite, self.origin)) and all(0 < h < math.inf for h in self.spacing)):
            raise ValueError(f"grid origin {self.origin} and spacing {self.spacing} must be finite, the spacing positive")
        if any(n < 1 for n in self.counts):
            raise ValueError("grid counts must be positive")
        last = (float(o) + float(h) * (int(n) - 1) for o, h, n in zip(self.origin, self.spacing, self.counts))
        if not all(map(math.isfinite, last)):
            raise ValueError(
                f"grid origin {self.origin}, spacing {self.spacing} and counts {self.counts} put the last node beyond the float range"
            )

    @staticmethod
    def cube(lo: float, hi: float, n: int) -> "Grid3":
        if n < 2:
            raise ValueError("a grid needs at least 2 nodes per axis")
        h = (hi - lo) / (n - 1)
        return Grid3((lo, lo, lo), (h, h, h), (n, n, n))

    @staticmethod
    def from_axes(*axes: np.ndarray) -> "Grid3":
        """The grid whose nodes are the tensor product of three sorted,
        uniformly spaced axes."""
        steps = [_axis_step(a) for a in axes]
        if None in steps:
            raise ValueError("grid axes must be uniformly spaced")
        return Grid3(tuple(float(a[0]) for a in axes), tuple(steps), tuple(len(a) for a in axes))

    @property
    def n_nodes(self) -> int:
        nx, ny, nz = self.counts
        return nx * ny * nz

    def axes(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return tuple(
            self.origin[i] + self.spacing[i] * np.arange(self.counts[i]) for i in range(3)
        )

    def point(self, node) -> tuple[float, float, float]:
        """The (x, y, z) coordinates of the node with index (i, j, k)."""
        return tuple(float(self.origin[i] + self.spacing[i] * node[i]) for i in range(3))

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        ax = self.axes()
        return tuple(np.meshgrid(*ax, indexing="ij"))

    def interior(self) -> "Grid3":
        """The grid without its outermost layer of nodes."""
        if any(n <= 2 for n in self.counts):
            raise ValueError("grid too small to have an interior")
        return Grid3(
            tuple(self.origin[i] + self.spacing[i] for i in range(3)),
            self.spacing,
            tuple(n - 2 for n in self.counts),
        )

    def coarsen(self) -> "Grid3":
        """Every-other-node subgrid; requires odd counts."""
        if any(n % 2 == 0 for n in self.counts):
            raise ValueError("coarsening requires odd node counts along every axis")
        return Grid3(self.origin, tuple(2 * h for h in self.spacing), tuple((n + 1) // 2 for n in self.counts))


def _freeze(values: np.ndarray) -> np.ndarray:
    values = np.ascontiguousarray(values, dtype=float)
    values.setflags(write=False)
    return values


@dataclass(frozen=True)
class ScalarGrid:
    grid: Grid3
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.counts:
            raise ValueError(f"scalar values shape {self.values.shape} != grid counts {self.grid.counts}")
        object.__setattr__(self, "values", _freeze(self.values))

    def interior(self) -> "ScalarGrid":
        return ScalarGrid(self.grid.interior(), self.values[1:-1, 1:-1, 1:-1])

    def coarsen(self) -> "ScalarGrid":
        return ScalarGrid(self.grid.coarsen(), self.values[::2, ::2, ::2])


@dataclass(frozen=True)
class VectorGrid:
    grid: Grid3
    values: np.ndarray  # shape (3, nx, ny, nz)

    def __post_init__(self):
        if self.values.shape != (3, *self.grid.counts):
            raise ValueError(f"vector values shape {self.values.shape} != (3, *{self.grid.counts})")
        object.__setattr__(self, "values", _freeze(self.values))

    def interior(self) -> "VectorGrid":
        return VectorGrid(self.grid.interior(), self.values[:, 1:-1, 1:-1, 1:-1])

    def coarsen(self) -> "VectorGrid":
        return VectorGrid(self.grid.coarsen(), self.values[:, ::2, ::2, ::2])


# -- sampling -------------------------------------------------------------------


def _check_finite(values: np.ndarray, grid: Grid3, label: str) -> None:
    bad = ~np.isfinite(values)
    if bad.any():
        idx = np.argwhere(bad)[0]
        node = idx[-3:]
        raise ValueError(f"{label} is not finite at node {tuple(int(i) for i in node)} (x, y, z) = {grid.point(node)}")


def sample_scalar(f: Callable, grid: Grid3) -> ScalarGrid:
    """Sample f(X, Y, Z) -> array on every node; rejects non-finite values."""
    X, Y, Z = grid.meshgrid()
    values = np.broadcast_to(np.asarray(f(X, Y, Z), dtype=float), grid.counts).copy()
    _check_finite(values, grid, "sampled scalar field")
    return ScalarGrid(grid, values)


def sample_vector(f: Callable, grid: Grid3) -> VectorGrid:
    """Sample f(X, Y, Z) -> (3, ...) array on every node."""
    X, Y, Z = grid.meshgrid()
    values = np.asarray(f(X, Y, Z), dtype=float)
    values = np.broadcast_to(values, (3, *grid.counts)).copy()
    _check_finite(values, grid, "sampled vector field")
    return VectorGrid(grid, values)


# -- central differences -----------------------------------------------------------


def _axis_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Central difference along one axis, on the one-node interior."""
    lo = [slice(1, -1)] * 3
    hi = [slice(1, -1)] * 3
    lo[axis] = slice(0, -2)
    hi[axis] = slice(2, None)
    return (values[tuple(hi)] - values[tuple(lo)]) / (2.0 * h)


def _require_stencil_room(grid: Grid3) -> None:
    if any(n < 5 for n in grid.counts):
        raise ValueError("stencil requires at least 5 nodes along every axis")


def gradient(f: ScalarGrid) -> VectorGrid:
    _require_stencil_room(f.grid)
    h = f.grid.spacing
    comps = [_axis_diff(f.values, axis, h[axis]) for axis in range(3)]
    return VectorGrid(f.grid.interior(), np.stack(comps))


def divergence(v: VectorGrid) -> ScalarGrid:
    _require_stencil_room(v.grid)
    h = v.grid.spacing
    total = sum(_axis_diff(v.values[axis], axis, h[axis]) for axis in range(3))
    return ScalarGrid(v.grid.interior(), total)


def curl(v: VectorGrid) -> VectorGrid:
    _require_stencil_room(v.grid)
    h = v.grid.spacing

    def d(comp, axis):
        return _axis_diff(v.values[comp], axis, h[axis])

    out = np.stack([d(2, 1) - d(1, 2), d(0, 2) - d(2, 0), d(1, 0) - d(0, 1)])
    return VectorGrid(v.grid.interior(), out)


def directional(v: VectorGrid, f: ScalarGrid) -> ScalarGrid:
    """v . grad f on the interior of the shared grid."""
    if v.grid != f.grid:
        raise ValueError("directional derivative requires matching grids")
    g = gradient(f)
    vi = v.interior()
    return ScalarGrid(g.grid, np.einsum("cijk,cijk->ijk", vi.values, g.values))


# -- norms ---------------------------------------------------------------------------


def magnitude(field: ScalarGrid | VectorGrid) -> np.ndarray:
    """Pointwise absolute value; vectors by their Euclidean magnitude."""
    if isinstance(field, VectorGrid):
        return np.sqrt(np.einsum("cijk,cijk->ijk", field.values, field.values))
    return np.abs(field.values)


def norm(field: ScalarGrid | VectorGrid, kind: str = "linf", mask: np.ndarray | None = None) -> float:
    """Linf or L2 (root mean square) norm; vectors enter through their
    pointwise Euclidean magnitude.  ``mask`` selects nodes."""
    pointwise = magnitude(field)
    if mask is not None:
        if mask.shape != pointwise.shape:
            raise ValueError("mask shape does not match field shape")
        pointwise = pointwise[mask]
    if pointwise.size == 0:
        raise ValueError("norm over an empty node set")
    if kind == "linf":
        return float(np.max(pointwise))
    if kind == "l2":
        return float(np.sqrt(np.mean(pointwise**2)))
    raise ValueError(f"unknown norm kind {kind!r}")


def sphere_mask(grid: Grid3, radius: float) -> np.ndarray:
    """The nodes within ``radius`` of the origin; the radius must be positive."""
    if not radius > 0:
        raise ValueError(f"sphere radius must be positive, got {radius:.6g}")
    x, y, z = grid.axes()
    return (x * x)[:, None, None] + (y * y)[None, :, None] + (z * z)[None, None, :] <= radius * radius


# -- export / import --------------------------------------------------------------------


def write_csv(path, axes: dict[str, np.ndarray], columns: dict[str, np.ndarray]) -> None:
    """One tensor-grid node per row: the coordinate columns named by
    ``axes`` first, then ``columns``; row-major with the last axis fastest,
    floats at 17 significant digits so a read-back is bit-faithful.
    Refuses a non-finite value before the file is opened.

    No whole table is built: each axis is formatted once per file, and
    ``_write_rows`` writes each block of ``_ROW_BLOCK`` rows from the axis
    texts, gathered by index, and the column slices it needs."""
    counts = tuple(len(a) for a in axes.values())
    names = [*axes, *columns]
    for name, values in columns.items():
        if values.shape != counts:
            raise ValueError(f"column {name!r} has shape {values.shape}, expected {counts}")
    coordinates = [np.asarray(a, dtype=float) for a in axes.values()]
    flat = [np.asarray(v, dtype=float).reshape(-1) for v in columns.values()]
    # rows between consecutive values of each axis
    strides = [math.prod(counts[k + 1 :]) for k in range(len(counts))]
    firsts = []  # (data row, column, value) of each column's first non-finite value
    for k, (axis, stride) in enumerate(zip(coordinates, strides)):
        finite = np.isfinite(axis)
        if not finite.all():
            i = int(finite.argmin())
            firsts.append((i * stride, k, axis[i]))
    for k, values in enumerate(flat, start=len(coordinates)):
        finite = np.isfinite(values)
        if not finite.all():
            row = int(finite.argmin())
            firsts.append((row, k, values[row]))
    if firsts:
        row, col, value = min(firsts)
        raise ValueError(f"{path}: refusing to write a non-finite {names[col]} ({value}) in data row {row + 1}")
    n_rows = math.prod(counts)
    texts = [_texts(axis, end) for axis, end in zip(coordinates, [","] * (len(names) - 1) + ["\n"])]
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _ROW_BLOCK):
            rows = np.arange(start, min(start + _ROW_BLOCK, n_rows))
            coordinate_texts = [table[rows // stride % len(table)] for table, stride in zip(texts, strides)]
            _write_rows(fh, coordinate_texts, [values[start : start + len(rows)] for values in flat], ",")


def _texts(values: np.ndarray, end: str) -> np.ndarray:
    """``values`` as ``np.savetxt`` writes them, each followed by ``end``."""
    return np.array(list(map((_FLOAT_FMT + end).__mod__, values.tolist())), dtype=object)


def _write_rows(fh, texts: list[np.ndarray], values: list[np.ndarray], sep: str) -> None:
    """Write one block of rows, their bytes those of ``np.savetxt`` with
    ``fmt=_FLOAT_FMT`` and delimiter ``sep``: the ready ``sep``-ended texts
    of the leading columns, then the float ``values`` columns.  Each value
    column formats only its distinct values, told apart by bit pattern so
    that ``-0.0`` keeps its own text: the constant fields outside a plasma
    and equal pressures repeat within a block."""
    width = len(texts) + len(values)
    cells = [None] * (len((texts or values)[0]) * width)
    for k, column in enumerate(texts):
        cells[k::width] = column
    for k, (column, end) in enumerate(zip(values, [sep] * (len(values) - 1) + ["\n"]), start=len(texts)):
        bits, inverse = np.unique(column.view(np.int64), return_inverse=True)
        cells[k::width] = _texts(bits.view(float), end)[inverse]
    fh.write("".join(cells))


def _axis_step(values: np.ndarray) -> float | None:
    """The spacing of a sorted axis, or None where its steps are not uniform.

    The whole-axis quotient recovers the spacing a writer used to build the
    axis far more often than the first step does; inf where it overflows."""
    if len(values) == 1:
        return 1.0
    h = (values[-1] - values[0]) / (len(values) - 1)
    tol = 1e-12 * max(1.0, abs(values[-1] - values[0]))
    return float(h) if not math.isfinite(h) or np.allclose(np.diff(values), h, rtol=1e-12, atol=tol) else None


def _loadtxt_values(lines: list[str]) -> int | None:
    """How many numbers ``np.loadtxt``, called as ``_unparsable`` calls it,
    reads from ``lines``; None if it refuses them.  Numpy is asked itself:
    it skips an empty line or a bare comment, but reads a line of spaces or
    tabs as a row of one column, and it refuses ``1_0`` and ``١``, which
    Python's ``float`` reads."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        try:
            return np.loadtxt(lines, delimiter=",", ndmin=2).size
        except ValueError:
            return None


def _first_bad_row(path, header: list[str]) -> str | None:
    """Describe the first data row of a CSV file, counted as ``np.loadtxt``
    counts them (the lines it skips left out, from 1), that does not hold
    one number per header column; None if every row does."""
    with open(path, encoding="utf-8") as fh:
        fh.readline()
        row = 0
        block: list[tuple[int, str]] = []  # rows of the right width, not yet read as numbers
        for line in fh:
            data = line.split("#", 1)[0]
            # numpy skips some of the lines with only blanks before any comment
            if not data.strip() and _loadtxt_values([line]) == 0:
                continue
            row += 1
            cells = data.count(",") + 1
            if cells != len(header):
                return _first_bad_cell(block, header) or (
                    f"data row {row} has {cells} columns, the header has {len(header)}"
                )
            block.append((row, data))
            if len(block) == _READ_BLOCK:
                bad = _first_bad_cell(block, header)
                if bad:
                    return bad
                block = []
    return _first_bad_cell(block, header)


def _first_bad_cell(rows: list[tuple[int, str]], header: list[str]) -> str | None:
    """Describe the first cell of ``rows``, (data row, text) pairs, that numpy
    does not read as a number; None if it reads them all.  The rows are read
    in one call; rows that fail are halved until one row is left, which is
    read cell by cell."""

    def read(part):
        return _loadtxt_values([data for _row, data in part]) == len(part) * len(header)

    if read(rows):
        return None
    while len(rows) > 1:
        first = rows[: len(rows) // 2]
        rows = rows[len(first) :] if read(first) else first
    ((row, data),) = rows
    for name, cell in zip(header, data.split(",")):
        if _loadtxt_values([cell]) != 1:
            return f"data row {row} holds {cell.strip()!r} for {name}, not a number"
    return None


def _line_bound(path) -> int:
    """An upper bound on the lines of a file, from its raw bytes: every line
    but the last ends in a line feed, a carriage return or both, as universal
    newlines read them.  It is at most one over for a file of line feeds;
    for CR LF line ends it is twice the lines."""
    breaks = 0
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            breaks += chunk.count(b"\n") + (chunk.count(b"\r") if b"\r" in chunk else 0)
    return breaks + 1


def _unparsable(path, header: list[str]) -> str:
    """The refusal of a CSV body that does not parse: the first error of one
    ``np.loadtxt`` call over the whole body.

    A block-wise parse can neither number a row as that call does nor see a
    change of width at a block's first row before it decodes the rest of
    that block, so a body that fails is parsed whole once more."""
    try:
        with open(path, encoding="utf-8") as fh:
            fh.readline()
            np.loadtxt(fh, delimiter=",", ndmin=2)
    except UnicodeDecodeError as err:
        # numpy decodes the body in chunks, so ``err`` counts from the start of
        # one; decoding the whole file again gives the offset in the file
        try:
            with open(path, "rb") as fh:
                fh.read().decode("utf-8")
        except UnicodeDecodeError as whole:
            err = whole
        return f"cannot read {path}: {err}"
    except ValueError as err:
        # numpy counts rows its own way and advises an argument of its own
        return f"{path}: {_first_bad_row(path, header) or err}"
    # the body parses whole: it changed since the block-wise parse
    return f"{path}: the file changed while it was read"


def read_csv(path, axis_names) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
    """Read a file of ``write_csv``'s layout whose coordinate columns are
    ``axis_names``; returns the file's own axis values and the remaining
    columns shaped to them.  Rejects a file that is not a full, ordered,
    uniformly spaced tensor grid or that holds a non-finite value.

    The body is parsed ``_READ_BLOCK`` rows at a time straight into one
    contiguous array per column, sized by a count of the file's line ends,
    so the reader holds its columns and one row block: no row-major table
    and no node mesh.  The coordinate columns are checked and dropped, and
    each value column comes back as a view of its own array."""
    n_bound = _line_bound(path)
    header: list[str] = []
    columns: list[np.ndarray] = []
    n = 0
    first_nonfinite = None  # (data row, column, value) in row-major order
    try:
        with open(path, encoding="utf-8") as fh:
            header = fh.readline().strip().split(",")
            while True:
                with warnings.catch_warnings():
                    # an empty body is reported below, with the file name; blank
                    # and comment lines are skipped as a whole-body parse skips them
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                    warnings.filterwarnings("ignore", r"Input line \d+ contained no data", UserWarning)
                    block = np.loadtxt(fh, delimiter=",", ndmin=2, max_rows=_READ_BLOCK)
                rows = len(block)
                if rows:
                    if not columns:
                        # one line is the header; pages past the last row are never written
                        columns = [np.empty(n_bound - 1) for _ in range(block.shape[1])]
                    elif block.shape[1] != len(columns):
                        raise ValueError("the number of columns changed")
                    if first_nonfinite is None and not np.isfinite(block).all():
                        row, col = np.argwhere(~np.isfinite(block))[0]
                        first_nonfinite = (n + row, col, block[row, col])
                    for j, column in enumerate(columns):
                        column[n : n + rows] = block[:, j]
                    n += rows
                block = None  # freed before the next block is parsed
                if rows < _READ_BLOCK:
                    break
    except (UnicodeDecodeError, ValueError):
        raise ValueError(_unparsable(path, header)) from None
    k = len(axis_names)
    if header[:k] != list(axis_names):
        raise ValueError(f"{path}: expected {','.join(axis_names)} coordinate columns first")
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise ValueError(f"{path}: column {repeated[0]} appears twice in the header")
    if n == 0:
        raise ValueError(f"{path}: no data rows")
    if len(columns) != len(header):
        raise ValueError(f"{path}: data rows have {len(columns)} columns, the header has {len(header)}")
    if first_nonfinite is not None:
        row, col, value = first_nonfinite
        raise ValueError(f"{path}: holds a non-finite {header[col]} ({value}) in data row {row + 1}")
    columns = [c[:n] for c in columns]
    coords = columns[:k]
    axes = tuple(np.unique(c) for c in coords)
    counts = tuple(len(a) for a in axes)
    if math.prod(counts) != n:
        raise ValueError(f"{path}: nodes do not form a full tensor grid")
    # compare against the file's own coordinate values, not regenerated ones:
    # column i holds each value of its axis for prod(counts[i + 1:]) rows in a
    # row, through the axis once per node of the slower axes
    for i, (c, axis) in enumerate(zip(coords, axes)):
        if not (c.reshape(math.prod(counts[:i]), counts[i], -1) == axis[:, None]).all():
            raise ValueError(f"{path}: rows are not in row-major {axis_names[-1]}-fastest order")
    for name, axis in zip(axis_names, axes):
        if _axis_step(axis) is None:
            raise ValueError(f"{path}: {name} coordinates are not uniformly spaced")
    return axes, {name: c.reshape(counts) for name, c in zip(header[k:], columns[k:])}


def write_vtk(path, grid: Grid3, scalars: dict[str, np.ndarray], vectors: dict[str, np.ndarray]) -> None:
    """Legacy ASCII STRUCTURED_POINTS writer (x varies fastest on disk);
    refuses a non-finite value, naming its field, before opening the file.

    Each field goes out through ``_write_rows`` in blocks of ``_ROW_BLOCK``
    nodes, each component gathered at the block's (i, j, k), so that no
    transposed copy of a whole field is made."""
    for name, values in (*vectors.items(), *scalars.items()):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: refusing to write a non-finite {name} ({values[~np.isfinite(values)][0]})")

    def write_field(fh, components) -> None:
        for start in range(0, grid.n_nodes, _ROW_BLOCK):
            # order="F" unravels the flat x-fastest node index into (i, j, k)
            nodes = np.unravel_index(np.arange(start, min(start + _ROW_BLOCK, grid.n_nodes)), grid.counts, order="F")
            _write_rows(fh, [], [values[nodes] for values in components], " ")

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("plasma equilibrium state\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write("DIMENSIONS " + " ".join(map(str, grid.counts)) + "\n")
        fh.write("ORIGIN " + " ".join(_FLOAT_FMT % v for v in grid.origin) + "\n")
        fh.write("SPACING " + " ".join(_FLOAT_FMT % v for v in grid.spacing) + "\n")
        fh.write(f"POINT_DATA {grid.n_nodes}\n")
        for name, values in vectors.items():
            fh.write(f"VECTORS {name} double\n")
            write_field(fh, [values[c] for c in range(3)])
        for name, values in scalars.items():
            fh.write(f"SCALARS {name} double\n")
            fh.write("LOOKUP_TABLE default\n")
            write_field(fh, [values])
