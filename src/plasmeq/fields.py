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
    "cross",
    "write_csv",
    "read_csv",
    "write_vtk",
]

_FLOAT_FMT = "%.17g"
# rows per block of ``_write_block``: each distinct value of a block is
# formatted once and held as one Python string until the block is written,
# so a larger block formats less but holds more; a 65^3 state writes as fast
# at 2048 rows as at 8192, with a smaller peak memory
_ROW_BLOCK = 2048


@dataclass(frozen=True)
class Grid3:
    """Uniform Cartesian grid: origin, positive spacing, node counts."""

    origin: tuple[float, float, float]
    spacing: tuple[float, float, float]
    counts: tuple[int, int, int]

    def __post_init__(self):
        if any(h <= 0 for h in self.spacing):
            raise ValueError("grid spacing must be positive")
        if any(n < 1 for n in self.counts):
            raise ValueError("grid counts must be positive")

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


def cross(a: VectorGrid, b: VectorGrid) -> VectorGrid:
    if a.grid != b.grid:
        raise ValueError("cross product requires matching grids")
    ax, ay, az = a.values
    bx, by, bz = b.values
    return VectorGrid(a.grid, np.stack([ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx]))


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

    No whole table is built: each block of ``_ROW_BLOCK`` rows is assembled
    from its coordinates and the column slices it needs."""
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
    # the coordinate column of axis k > 0 repeats every strides[k - 1] rows:
    # one period of it, extended by a block, gives every block as a slice
    periodic = [
        np.resize(np.repeat(axis, stride), strides[k - 1] + _ROW_BLOCK)
        for k, (axis, stride) in enumerate(zip(coordinates, strides))
        if k
    ]
    n_rows = math.prod(counts)
    block = np.empty((min(_ROW_BLOCK, n_rows), len(names)))
    row_fmt = ",".join(["%s"] * len(names)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for start in range(0, n_rows, _ROW_BLOCK):
            rows = block[: min(_ROW_BLOCK, n_rows - start)]
            rows[:, 0] = coordinates[0][np.arange(start, start + len(rows)) // strides[0]]
            for k, table in enumerate(periodic, start=1):
                offset = start % strides[k - 1]
                rows[:, k] = table[offset : offset + len(rows)]
            for k, values in enumerate(flat, start=len(coordinates)):
                rows[:, k] = values[start : start + len(rows)]
            _write_block(fh, rows, row_fmt)


def _write_block(fh, block: np.ndarray, row_fmt: str) -> None:
    """Write the rows of a C-contiguous 2-D float block by ``row_fmt``,
    floats at 17 significant digits; the bytes equal ``np.savetxt`` of the
    block with ``fmt=_FLOAT_FMT`` and the delimiter of ``row_fmt``.

    Each distinct value of the block is formatted once: values are told
    apart by their bit pattern, so that ``-0.0`` and ``0.0`` keep their own
    text, and the rows are assembled from those strings.  Coordinates, the
    constant fields outside a plasma and equal pressures repeat within a
    block, which is where the saving lies."""
    bits, inverse = np.unique(block.reshape(-1).view(np.int64), return_inverse=True)
    text = np.array([_FLOAT_FMT % v for v in bits.view(float).tolist()], dtype=object)
    fh.write((row_fmt * len(block)) % tuple(text[inverse].tolist()))


def _require_finite(rows: np.ndarray, names: list[str], path, verb: str) -> None:
    """Name the file, column and data row of the first non-finite value."""
    if not np.isfinite(rows).all():
        row, col = np.argwhere(~np.isfinite(rows))[0]
        raise ValueError(f"{path}: {verb} a non-finite {names[col]} ({rows[row, col]}) in data row {row + 1}")


def _axis_step(values: np.ndarray) -> float | None:
    """The spacing of a sorted axis, or None where its steps are not uniform.

    The whole-axis quotient recovers the spacing a writer used to build the
    axis far more often than the first step does."""
    if len(values) == 1:
        return 1.0
    h = (values[-1] - values[0]) / (len(values) - 1)
    tol = 1e-12 * max(1.0, abs(values[-1] - values[0]))
    return float(h) if np.allclose(np.diff(values), h, rtol=1e-12, atol=tol) else None


def read_csv(path, axis_names) -> tuple[tuple[np.ndarray, ...], dict[str, np.ndarray]]:
    """Read a file of ``write_csv``'s layout whose coordinate columns are
    ``axis_names``; returns the file's own axis values and the remaining
    columns shaped to them.  Rejects a file that is not a full, ordered,
    uniformly spaced tensor grid or that holds a non-finite value."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        with warnings.catch_warnings():
            # an empty body is reported below, with the file name
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
    k = len(axis_names)
    if header[:k] != list(axis_names):
        raise ValueError(f"{path}: expected {','.join(axis_names)} coordinate columns first")
    if data.size == 0:
        raise ValueError(f"{path}: no data rows")
    if data.shape[1] != len(header):
        raise ValueError(f"{path}: data rows have {data.shape[1]} columns, the header has {len(header)}")
    _require_finite(data, header, path, "holds")
    coords = data[:, :k].T
    axes = tuple(np.unique(c) for c in coords)
    counts = tuple(len(a) for a in axes)
    if math.prod(counts) != len(data):
        raise ValueError(f"{path}: nodes do not form a full tensor grid")
    # compare against the file's own coordinate values, not regenerated ones
    nodes = np.meshgrid(*axes, indexing="ij")
    if not all(np.array_equal(n.reshape(-1), c) for n, c in zip(nodes, coords)):
        raise ValueError(f"{path}: rows are not in row-major {axis_names[-1]}-fastest order")
    for name, axis in zip(axis_names, axes):
        if _axis_step(axis) is None:
            raise ValueError(f"{path}: {name} coordinates are not uniformly spaced")
    return axes, {name: data[:, i].reshape(counts) for i, name in enumerate(header[k:], start=k)}


def _x_fastest_blocks(nx: int, ny: int, nz: int):
    """(j0, j1, k0, k1): index ranges that cut a grid, in x-fastest order,
    into blocks of at most ``_ROW_BLOCK`` nodes (or one x-row, where that is
    longer): several whole z-planes where a plane fits, else runs of whole
    x-rows of one plane."""
    if nx * ny <= _ROW_BLOCK:
        step = _ROW_BLOCK // (nx * ny)
        for k in range(0, nz, step):
            yield 0, ny, k, min(k + step, nz)
    else:
        step = max(1, _ROW_BLOCK // nx)
        for k in range(nz):
            for j in range(0, ny, step):
                yield j, min(j + step, ny), k, k + 1


def write_vtk(path, grid: Grid3, scalars: dict[str, np.ndarray], vectors: dict[str, np.ndarray]) -> None:
    """Legacy ASCII STRUCTURED_POINTS writer (x varies fastest on disk);
    refuses a non-finite value, naming its field, before opening the file.

    Each field goes out in blocks of ``_ROW_BLOCK`` rows, each assembled in
    one reused buffer from the (i, j, k) C-order values, so that no
    transposed copy of a whole field is made."""
    for name, values in (*vectors.items(), *scalars.items()):
        if not np.isfinite(values).all():
            raise ValueError(f"{path}: refusing to write a non-finite {name} ({values[~np.isfinite(values)][0]})")
    nx, ny, nz = grid.counts
    buffer = np.empty(3 * max(nx, min(_ROW_BLOCK, grid.n_nodes)))

    def write_field(fh, components) -> None:
        row_fmt = " ".join(["%s"] * len(components)) + "\n"
        for j0, j1, k0, k1 in _x_fastest_blocks(nx, ny, nz):
            shape = (k1 - k0, j1 - j0, nx)
            rows = buffer[: math.prod(shape) * len(components)].reshape(-1, len(components))
            for c, values in enumerate(components):
                # column c seen as (k, j, i): x varies fastest down the rows
                np.copyto(rows[:, c].reshape(shape), values[:, j0:j1, k0:k1].transpose(2, 1, 0))
            _write_block(fh, rows, row_fmt)

    with open(path, "w") as fh:
        fh.write("# vtk DataFile Version 3.0\n")
        fh.write("plasma equilibrium state\n")
        fh.write("ASCII\n")
        fh.write("DATASET STRUCTURED_POINTS\n")
        fh.write(f"DIMENSIONS {nx} {ny} {nz}\n")
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
