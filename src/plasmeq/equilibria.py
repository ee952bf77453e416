"""Exact equilibria and their transformations.

Provides the localized spherical-vortex equilibrium (an isotropic state
with the field confined to a ball and a pressure well), the field-line
transform family taking isotropic states to anisotropic ones, the finite
point transformations (translations, rotations, scalings), pressure-
anisotropy stability checks, and finite-difference residual evaluation of
the governing systems on sampled states.

All states are nodewise total.  Only the field-line transform passes
nodes outside the plasma (where B vanishes) through unchanged; the point
transforms and the anisotropy rescaling act on every node, since the
pressure would otherwise jump at the plasma edge.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import RESIDUAL_SYSTEMS
from . import fields as fd
from .fields import Grid3, ScalarGrid, VectorGrid

__all__ = [
    "CGLState",
    "StateEvaluators",
    "sample_state",
    "VortexParams",
    "TransformSpec",
    "StabilityReport",
    "find_lambda",
    "vortex_params",
    "vortex_state",
    "apply_infinite_transform",
    "translate_state",
    "rotate_state",
    "scale_state",
    "anisotropy_scale_state",
    "stability_report",
    "residual_norms",
    "tau_consistency_error",
    "require_defined",
    "write_state_csv",
    "read_state_csv",
    "write_state_vtk",
]

EPS_B_RELATIVE = 1e-12

STATE_COLUMNS = ("B1", "B2", "B3", "p_perp", "p_par", "tau", "psi")


@dataclass(frozen=True)
class StateEvaluators:
    """The pointwise analytic evaluator backing a sampled state, when known.

    ``evaluate(X, Y, Z)`` returns ``(B, p_perp, tau, psi)`` and does the
    work the fields share once; ``B`` and ``p_perp`` pick one item.
    """

    evaluate: Callable

    def B(self, X, Y, Z):
        return self.evaluate(X, Y, Z)[0]

    def p_perp(self, X, Y, Z):
        return self.evaluate(X, Y, Z)[1]


def _field_null_threshold(b2: np.ndarray) -> float:
    return EPS_B_RELATIVE * float(np.max(b2))


@dataclass(frozen=True)
class CGLState:
    """Sampled anisotropic equilibrium state on one shared grid: the
    closed-CGL unknowns B, p_perp and tau = (p_par - p_perp)/|B|^2, and the
    field-line label psi.  ``p_par`` is derived from them on each read."""

    B: VectorGrid
    p_perp: ScalarGrid
    tau: ScalarGrid
    psi: ScalarGrid
    meta: dict = field(default_factory=dict)
    evaluators: StateEvaluators | None = None

    def __post_init__(self):
        grids = {g.grid for g in (self.p_perp, self.tau, self.psi)}
        grids.add(self.B.grid)
        if len(grids) != 1:
            raise ValueError("all state fields must share one grid")

    @property
    def grid(self) -> Grid3:
        return self.B.grid

    def b_squared(self) -> np.ndarray:
        return np.einsum("cijk,cijk->ijk", self.B.values, self.B.values)

    @property
    def p_par(self) -> ScalarGrid:
        """p_perp + tau |B|^2, computed anew on each read (not kept)."""
        return ScalarGrid(self.grid, self.p_perp.values + self.tau.values * self.b_squared())

    def coarsen(self) -> "CGLState":
        return CGLState(
            self.B.coarsen(),
            self.p_perp.coarsen(),
            self.tau.coarsen(),
            self.psi.coarsen(),
            dict(self.meta),
            self.evaluators,
        )


def _state(grid: Grid3, values, meta: dict, evaluators: StateEvaluators | None = None) -> CGLState:
    """Wrap ``(B, p_perp, tau, psi)`` node arrays (or values that broadcast
    to them) as a state on ``grid``."""
    b, *scalars = (np.asarray(v, dtype=float) for v in values)
    pperp, tau, psi = (ScalarGrid(grid, np.broadcast_to(v, grid.counts)) for v in scalars)
    return CGLState(VectorGrid(grid, np.broadcast_to(b, (3, *grid.counts))), pperp, tau, psi, meta, evaluators)


def _require_finite(state: CGLState) -> CGLState:
    """``state``, once every node value is finite (else the first bad node is named)."""
    fd._check_finite(state.B.values, state.grid, "sampled vector field")
    for f in (state.p_perp, state.tau, state.psi):
        fd._check_finite(f.values, state.grid, "sampled scalar field")
    return state


# Nodes per block of ``_evaluate_in_blocks`` (whole x-slabs, at least one).
# A point transform holds about twenty block-sized float temporaries; at
# 2**14 nodes (128 KiB each) they fit a 2 MiB L2 cache, where a whole-grid
# pass streams each through memory: one slab at 129^3, three at 65^3.  On
# one pinned CPU (Xeon, 2 MiB L2), 2**15 (seven slabs at 65^3) was 3-6 %
# faster there but peaked at 1.36 times a rotation's result against 1.16;
# 2**13 was slower than both; at 129^3 both larger sizes give one slab.
# ``residual_norms`` windows its interior the same way with at least three
# slabs besides the halo.  One-slab windows were no faster at 129^3 and
# 50 % slower at 65^3, where a window recomputes two halo slabs per
# interior one; five slabs were within a few percent of three, and 8 or
# more slower at 129^3 (two-grid cgl check, one pinned CPU).
BLOCK_NODES = 2**14


def _x_blocks(grid: Grid3) -> list[slice]:
    """The x-slab blocks of at most ``BLOCK_NODES`` nodes (or one slab) of ``grid``."""
    nx, ny, nz = grid.counts
    step = max(1, BLOCK_NODES // (ny * nz))
    return [slice(start, start + step) for start in range(0, nx, step)]


def _evaluate_in_blocks(grid: Grid3, fn: Callable) -> tuple[np.ndarray | None, ...]:
    """Evaluate ``fn(block, x, y, z)``, a nodewise function of the x-slabs
    ``block`` (a slice) and their open mesh (``np.ix_``), over blocks of at
    most ``BLOCK_NODES`` nodes (or one slab) into node arrays.

    ``fn`` returns values that broadcast to ``(..., bx, ny, nz)`` for ``bx``
    slabs (B's components lead), or None for an output left None; the first
    block fixes the shapes.  The result is bit-identical to one call on the
    whole mesh, and an error comes from the first block that raises it.
    """
    x, y, z = np.ix_(*grid.axes())
    outputs: list[np.ndarray | None] = []
    for block in _x_blocks(grid):
        values = fn(block, x[block], y, z)
        if not outputs:
            outputs = [None if v is None else np.empty((*np.shape(v)[:-3], *grid.counts)) for v in values]
        for out, v in zip(outputs, values):
            if out is not None:
                out[..., block, :, :] = v
        values = v = None  # the next block starts with this one's arrays freed
    return tuple(outputs)


def _kept(old, new) -> tuple:
    """The fields ``new``, with the one of ``old`` wherever ``new`` holds None."""
    return tuple(o if n is None else n for o, n in zip(old, new))

def _map_state(state: CGLState, fn: Callable, pullback: Callable | None = None) -> CGLState:
    """``state`` mapped in x-slab blocks by ``fn``, a nodewise map of
    (B, p_perp, tau, psi) that returns None for each field it keeps.

    Without ``pullback``, ``fn`` runs on the node arrays, kept fields stay
    shared, and ``fn`` after the source's evaluator is the result's.  With
    one, each node takes the fields at ``pullback(x, y, z)`` from the
    source's evaluator, else by trilinear interpolation (flagged lossy);
    the result has no evaluator.
    """
    grid, source = state.grid, state.evaluators
    fields = (state.B.values, state.p_perp.values, state.tau.values, state.psi.values)
    meta = dict(state.meta)
    evaluators = None
    if pullback is None:

        def at_nodes(block, *_xyz):
            return fn(*(v[..., block, :, :] for v in fields))

        if source is not None:

            def evaluate(X, Y, Z):
                values = source.evaluate(X, Y, Z)
                return _kept(values, fn(*values))

            evaluators = StateEvaluators(evaluate)
    elif source is not None:

        def at_nodes(_block, *xyz):
            return fn(*source.evaluate(*pullback(*xyz)))

    else:
        meta["resampling"] = "trilinear (lossy)"

        def at_nodes(_block, *xyz):
            interp = _trilinear(grid, *pullback(*xyz))
            b, *scalars = fields
            return fn(np.stack([interp(c) for c in b]), *map(interp, scalars))

    return _state(grid, _kept(fields, _evaluate_in_blocks(grid, at_nodes)), meta, evaluators)


def sample_state(evaluators: StateEvaluators, grid: Grid3, meta: dict) -> CGLState:
    """Sample every field of an analytic state on the grid's nodes, one
    ``evaluate`` call per x-slab block (``_evaluate_in_blocks``); rejects
    non-finite values.  An evaluator that refuses points raises for the
    first block that holds one."""
    values = _evaluate_in_blocks(grid, lambda _block, *xyz: evaluators.evaluate(*np.broadcast_arrays(*xyz)))
    return _require_finite(_state(grid, values, meta, evaluators))


def tau_consistency_error(state: CGLState, p_par: np.ndarray | None = None) -> float:
    """Worst scaled violation of tau = (p_par - p_perp)/B^2 over the plasma,
    for the node values ``p_par`` (a file's column), else the state's own."""
    b2 = state.b_squared()
    mask = b2 > _field_null_threshold(b2)
    if not mask.any():
        return 0.0
    lhs = (state.p_par.values if p_par is None else p_par) - state.p_perp.values
    rhs = np.multiply(state.tau.values, b2, out=b2)  # b2 is not needed past the mask
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    lhs -= rhs
    return float(np.max(np.abs(lhs, out=lhs)[mask])) / scale


# ---------------------------------------------------------------------------
# Spherical vortex equilibrium
# ---------------------------------------------------------------------------


def _mode_equation(lam: float, R: float) -> float:
    return (3.0 - 4.0 * R * R * lam * lam) * math.sin(2.0 * R * lam) - 6.0 * R * lam * math.cos(
        2.0 * R * lam
    )


def _bisect_root(R: float, lo: float, hi: float, g_lo: float, g_hi: float) -> float:
    """Bisect a sign change of the mode equation on [lo, hi] until the two
    endpoints are adjacent floats; returns the one with the smaller |g|."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return lo if abs(g_lo) <= abs(g_hi) else hi
        g_mid = _mode_equation(mid, R)
        if g_mid == 0.0:
            return mid
        if (g_mid < 0.0) == (g_lo < 0.0):
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid


def _solves_mode_equation(lam: float, R: float) -> bool:
    """|g| <= 4 eps x^3 at x = 2 R lam: the terms of g grow like x^2, so a
    root bisected to adjacent floats leaves |g| of order eps x^3."""
    x = 2.0 * R * lam
    return abs(_mode_equation(lam, R)) <= 4.0 * np.finfo(float).eps * x**3


def find_lambda(R: float, n: int) -> float:
    """The n-th positive mode number: (3 - 4R^2 l^2) sin(2Rl) = 6Rl cos(2Rl).

    With x = 2Rl this is x^3 j2(x) = 0, or tan x = 3x / (3 - x^2).  For
    x > 3 the right side is negative and rises with slope below 1, so each
    branch of tan past 3 pi/2, which rises with slope at least 1, meets it
    exactly once, where tan x < 0: the n-th root is the one in
    ((n + 1/2) pi, (n + 1) pi) (Abramowitz & Stegun 10.1).  It is bisected
    there to adjacent floats, and |g| <= 4 eps x^3 is checked.  Past about
    n = 3e7 the bracket's ends round to the same sign of g, and the mode
    index is refused.
    """
    if R <= 0:
        raise ValueError("sphere radius must be positive")
    if n < 1:
        raise ValueError("mode index starts at 1")
    lo, hi = (n + 0.5) * math.pi / (2.0 * R), (n + 1.0) * math.pi / (2.0 * R)
    g_lo, g_hi = _mode_equation(lo, R), _mode_equation(hi, R)
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise ValueError(f"mode index {n} is beyond double precision: the mode equation has one sign on its bracket")
    root = _bisect_root(R, lo, hi, g_lo, g_hi)
    if not _solves_mode_equation(root, R):
        raise ArithmeticError(f"mode equation residual {abs(_mode_equation(root, R)):.3e} at root {root!r}")
    return root


@dataclass(frozen=True)
class VortexParams:
    """Parameters of the spherical-vortex equilibrium.

    ``gamma_b`` is the derived field constant B0*V0(2 l R)/(1 - V0(2 l R)).
    """

    R: float
    B0: float
    P0: float
    n: int
    lam: float
    gamma_b: float

    def __post_init__(self):
        if not _solves_mode_equation(self.lam, self.R):
            raise ValueError("lam does not satisfy the mode equation")
        if abs(1.0 - _v0_profile(2.0 * self.lam * self.R)[0]) < 1e-14:
            raise ValueError("degenerate mode: V0(2 lam R) = 1")


def vortex_params(R: float = 1.0, n: int = 3, B0: float = 1.0, P0: float = 1.0) -> VortexParams:
    lam = find_lambda(R, n)
    v0r = float(_v0_profile(2.0 * lam * R)[0])
    gamma_b = B0 * v0r / (1.0 - v0r)
    return VortexParams(R, B0, P0, n, lam, gamma_b)


def _v0_profile(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """V0(x) = 3 (sin x / x^3 - cos x / x^2) and V0'(x)/x = 3 ((x^2 - 3)
    sin x + 3 x cos x) / x^5 from one sine and one cosine pass, each with
    its series where |x| < 1e-2, where the direct forms cancel badly."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    sin, cos = np.sin(xs), np.cos(xs)
    v0 = np.asarray(3.0 * (sin / xs**3 - cos / xs**2))
    q = np.asarray(3.0 * ((xs * xs - 3.0) * sin + 3.0 * xs * cos) / xs**5)
    if small.any():
        x2 = x[small] * x[small]
        v0[small] = 1.0 - x2 / 10.0 + x2 * x2 / 280.0 - x2 * x2 * x2 / 15120.0
        q[small] = -0.2 + x2 / 70.0 - x2 * x2 / 2520.0
    return v0, q


def _vortex_fields(params: VortexParams, pressure_profile: str) -> Callable:
    """The vortex's ``(B, p)`` at given points (0-d and up), from one
    radial-profile pass (``_v0_profile``: one sine and one cosine per point)
    over the points inside the ball; B's components and p are stored there
    one plain mask at a time."""
    if pressure_profile not in ("balanced", "unscaled"):
        raise ValueError("pressure_profile must be 'balanced' or 'unscaled'")
    R, B0, P0, lam, gamma_b = params.R, params.B0, params.P0, params.lam, params.gamma_b
    v0r = float(_v0_profile(2.0 * lam * R)[0])
    amp = B0 / (1.0 - v0r)

    def b_and_p(X, Y, Z):
        X, Y, Z = np.broadcast_arrays(X, Y, Z)
        rho = np.sqrt(X * X + Y * Y + Z * Z)
        # B = 0 and p = P0 outside the ball, so the profile is evaluated inside only
        inside = rho <= R
        x, y, z = X[inside], Y[inside], Z[inside]
        v0, v0_prime_over_x = _v0_profile(2.0 * lam * rho[inside])
        V = amp * v0 - gamma_b
        # Q = V'(rho)/rho, regular on the axis and at the center
        Q = 4.0 * lam * lam * amp * v0_prime_over_x
        s2 = x * x + y * y
        b = np.zeros((3, *rho.shape))
        # one plain mask store per component: ``b[:, inside]`` mixes a slice
        # with a mask and takes numpy's general fancy-index path
        for c, v in enumerate((-0.5 * Q * z * x - lam * V * y, -0.5 * Q * z * y + lam * V * x, V + 0.5 * Q * s2)):
            b[c, ...][inside] = v
        p = np.full(rho.shape, P0)
        if pressure_profile == "balanced":
            p[inside] = P0 + gamma_b * lam * lam * V * s2
        else:
            # the historical printed profile; fails the momentum residual
            # check and is kept only so that failure stays observable
            p[inside] = P0 - gamma_b * V * s2
        return b, p

    return b_and_p


def vortex_state(params: VortexParams, grid: Grid3, pressure_profile: str = "balanced") -> CGLState:
    """Sample the spherical vortex as an isotropic state (tau = 0).

    B and p are evaluated in x-slab blocks (``_evaluate_in_blocks``).  The
    field-line label is then the pressure normalized by its largest sampled
    magnitude over the whole grid; any smooth function of the pressure
    would serve equally, since the pressure is constant on field lines.
    """
    b_and_p = _vortex_fields(params, pressure_profile)
    b, p = _evaluate_in_blocks(grid, lambda _block, *xyz: b_and_p(*xyz))
    p_max = float(max(p.max(), -p.min()))  # max |p| without a whole-grid |p|; NaN if p holds one
    if p_max == 0.0:
        raise ValueError("degenerate state: pressure vanishes on the whole grid")

    def with_label(b, p):
        return b, p, np.zeros(p.shape), p / p_max

    def evaluate(X, Y, Z):
        return with_label(*b_and_p(X, Y, Z))

    meta = {"psi_normalization": p_max}
    return _require_finite(_state(grid, with_label(b, p), meta, StateEvaluators(evaluate)))


# ---------------------------------------------------------------------------
# The field-line transform family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Magnitude function M of the field-line label, |M| >= ``m_min`` > 0.

    ``text`` is an expression in ``psi`` evaluated numerically, e.g.
    ``1 + psi*sin(psi)``.  Each admissible M factors uniquely as
    ``sign * exp(log-magnitude)``; composition multiplies signs and adds
    log-magnitudes, which is the (abelian) group law of the family.
    """

    text: str
    m_min: float = 1e-8

    def __post_init__(self):
        # |M| >= m_min > 0 keeps tau' = 1 - (1 - tau)/M^2 finite
        if not self.m_min > 0:
            raise ValueError(f"m_min must be positive, got {self.m_min}")

    @functools.cached_property
    def compiled(self) -> Callable:
        """M compiled once per spec; may return a scalar for constant M.
        The symbolic kernel is imported here, on first use, so that the
        commands that never compile an expression do not load it."""
        from .expr import compile_numeric

        return compile_numeric(self.text, ["psi"])

    def __call__(self, psi_values: np.ndarray) -> np.ndarray:
        values = np.asarray(self.compiled(psi_values), dtype=float)
        return np.broadcast_to(values, np.shape(psi_values)).copy()


def require_defined(name: str, values: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """``values``, a profile ``name`` on the label values ``psi``; a
    ValueError, naming it and the first such label, where it is undefined
    (NaN) or infinite."""
    bad = ~np.isfinite(values)
    if bad.any():
        i = np.flatnonzero(bad)[0]
        kind = "undefined (NaN)" if np.isnan(values[i]) else "infinite"
        raise ValueError(f"{name} is {kind} at psi = {float(psi[i]):.6g}")
    return values


def _field_line_image(m2, b2, p_perp, tau) -> tuple:
    """``(p_perp', tau')`` under the field-line map B' = M B (which each
    caller applies) at nodes with M^2 = ``m2`` and |B|^2 = ``b2``.
    p_perp + tau|B|^2/2 and M^2 (1 - tau') = 1 - tau are its invariants."""
    return p_perp + 0.5 * (b2 - m2 * b2), 1.0 - (1.0 - tau) / m2


def apply_infinite_transform(state: CGLState, spec: TransformSpec) -> CGLState:
    """Rescale B by M(psi) along field lines, adjusting the anisotropy and
    the perpendicular pressure by ``_field_line_image`` so the anisotropic
    balance is preserved.

    M is evaluated on the plasma only; other nodes (B below the sampled
    state's field-null threshold) pass through unchanged.  |M| <
    ``spec.m_min`` is refused after the blocked pass, naming its minimum.
    """
    eps_b = _field_null_threshold(state.b_squared())
    name = f"M = {spec.text}"
    m_low, tau_high = math.inf, False

    def field_line(b, pperp, tau, psi):
        nonlocal m_low, tau_high
        b, pperp, tau = (np.array(v, dtype=float) for v in (b, pperp, tau))
        b2 = np.einsum("c...,c...->...", b, b)
        plasma = b2 > eps_b
        labels = np.asarray(psi)[plasma]
        m = require_defined(name, spec(labels), labels)
        m_low = min(m_low, float(np.min(np.abs(m), initial=math.inf)))
        tau_high = tau_high or bool(np.any(tau[plasma] >= 1.0))
        # nodes where M is exactly one stay bit-identical (the identity element)
        moved = m != 1.0
        active = np.array(plasma)
        active[plasma] = moved
        m = m[moved]
        pperp[active], tau[active] = _field_line_image(m**2, b2[active], pperp[active], tau[active])
        # B times M where active and times 1.0 elsewhere, which leaves every
        # value as it was (signed zeros too): a dense product in place of
        # ``b[:, active]``, a slice mixed with a mask and numpy's slow path
        scale = np.ones(b2.shape)
        scale[active] = m
        b *= scale
        return b, pperp, tau, None

    out = _map_state(state, field_line)
    if m_low < spec.m_min:
        raise ValueError(
            f"|M| falls to {m_low:.3e} on the attained label range; the transform requires |M| >= {spec.m_min}"
        )
    if tau_high:
        warnings.warn("input state has tau >= 1 somewhere", RuntimeWarning, stacklevel=2)
    return out


# ---------------------------------------------------------------------------
# Finite point transformations
# ---------------------------------------------------------------------------


def _trilinear(grid: Grid3, Xs: np.ndarray, Ys: np.ndarray, Zs: np.ndarray) -> Callable:
    """Trilinear interpolation from ``grid`` to the given points, with the
    cell search and the fractions computed once for every field.

    Cells are clamped to the grid and the fractions are not, so points
    outside the grid extrapolate linearly from the nearest cell.
    """
    if min(grid.counts) < 2:
        raise ValueError("trilinear resampling needs at least 2 nodes along every axis")
    cells, fracs = [], []
    for coords, origin, h, n in zip((Xs, Ys, Zs), grid.origin, grid.spacing, grid.counts):
        u = (coords - origin) / h
        cell = np.clip(np.floor(u), 0, n - 2)
        fracs.append(u - cell)
        cells.append(cell.astype(np.intp))
    _nx, ny, nz = grid.counts
    base = (cells[0] * ny + cells[1]) * nz + cells[2]
    fx, fy, fz = fracs

    def interp(values: np.ndarray) -> np.ndarray:
        flat = values.reshape(-1)

        def corner(i, j, k):
            return np.take(flat[(i * ny + j) * nz + k :], base)

        def lerp(a, b, f):
            # a + f (b - a), computed in the fresh array b
            b -= a
            b *= f
            b += a
            return b

        return lerp(
            lerp(lerp(corner(0, 0, 0), corner(0, 0, 1), fz), lerp(corner(0, 1, 0), corner(0, 1, 1), fz), fy),
            lerp(lerp(corner(1, 0, 0), corner(1, 0, 1), fz), lerp(corner(1, 1, 0), corner(1, 1, 1), fz), fy),
            fx,
        )

    return interp


def _euler_zxz(phi: float, theta: float, psi_angle: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    m1 = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(theta), math.sin(theta)
    m2 = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    c, s = math.cos(psi_angle), math.sin(psi_angle)
    m3 = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return m1 @ m2 @ m3


def _affine_state(state: CGLState, rot: np.ndarray, t: float, K, s: float, pf: float, shift: float) -> CGLState:
    """The finite form shared by every translation, rotation and scaling:
    x' = t rot x + K, B' = s rot B, p_perp' = pf p_perp + shift, with tau
    and psi carried along, each node pulled back to rot^T (x' - K)/t (rot
    is orthogonal) by ``_map_state``.
    """

    def pullback(x, y, z):
        # on the open mesh of a block's axes; only the last sum is full-size
        x, y, z = ((a - k) / t for a, k in zip((x, y, z), K))
        return (rot[0, r] * x + rot[1, r] * y + rot[2, r] * z for r in range(3))

    def affine(b, pperp, tau, psi):
        return np.einsum("rc,c...->r...", s * rot, b), pf * np.asarray(pperp, dtype=float) + shift, tau, psi

    return _map_state(state, affine, pullback)


def _require_finite_parameters(**parameters) -> None:
    """A ValueError naming the first of ``parameters`` (numbers or tuples of
    them) that is not finite, so that a transform refuses it before any
    evaluation."""
    for name, value in parameters.items():
        if not np.all(np.isfinite(np.asarray(value, dtype=float))):
            raise ValueError(f"{name} must be finite, got {value}")


def translate_state(state: CGLState, K: tuple[float, float, float] = (0.0, 0.0, 0.0), k4: float = 0.0) -> CGLState:
    """x' = x + K with the perpendicular pressure shifted by k4."""
    _require_finite_parameters(K=K, k4=k4)
    return _affine_state(state, np.eye(3), 1.0, K, 1.0, 1.0, k4)


def rotate_state(state: CGLState, phi: float, theta: float, psi_angle: float) -> CGLState:
    """Simultaneous z-x-z rotation of coordinates and field components."""
    _require_finite_parameters(phi=phi, theta=theta, psi_angle=psi_angle)
    return _affine_state(state, _euler_zxz(phi, theta, psi_angle), 1.0, (0.0, 0.0, 0.0), 1.0, 1.0, 0.0)


def scale_state(state: CGLState, t: float, s: float, pressure_factor: str = "generator") -> CGLState:
    """x' = t x, B' = s B, with the perpendicular pressure multiplied by
    s^2 (``generator``, the default: the factor that exponentiates the
    field-scaling generator and preserves the force balance) or by 2s
    (``as-printed``, the paper's literal factor, which breaks the force
    balance unless s = 2)."""
    _require_finite_parameters(t=t, s=s)
    if t == 0:
        raise ValueError("coordinate scale t must be nonzero")
    factors = {"as-printed": 2.0 * s, "generator": s * s}
    try:
        pf = factors[pressure_factor]
    except KeyError:
        raise ValueError("pressure_factor must be 'as-printed' or 'generator'") from None
    return _affine_state(state, np.eye(3), t, (0.0, 0.0, 0.0), s, pf, 0.0)


def anisotropy_scale_state(state: CGLState, C: float) -> CGLState:
    """Rescale (p_perp + B^2/2) and (1 - tau) by C > 0, holding B and x."""
    _require_finite_parameters(C=C)
    if C <= 0:
        raise ValueError("the rescaling constant must be positive to preserve tau < 1")

    def rescaled(b, pperp, tau, _psi):
        b2 = np.einsum("c...,c...->...", b, b)
        return None, C * (pperp + 0.5 * b2) - 0.5 * b2, 1.0 - C * (1.0 - tau), None

    return _map_state(state, rescaled)


# ---------------------------------------------------------------------------
# Stability criteria
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StabilityReport:
    counts: dict
    margins: dict
    worst_pressure: dict | None = None

    def summary(self) -> dict:
        out = {"counts": self.counts, "margins": self.margins}
        if self.worst_pressure is not None:
            out["worst_pressure"] = self.worst_pressure
        return out


def stability_report(state: CGLState) -> StabilityReport:
    """Counts of the nodes that the pressure-anisotropy criteria flag.

    Fire-hose: unstable iff p_par - p_perp > B^2 (tau > 1).
    Mirror: unstable iff p_perp (p_perp / (6 p_par) - 1) > B^2 / 2; nodes
    with p_par = 0 are counted indeterminate.  Nodes at field nulls are
    not applicable.  Nodes with p_perp <= 0 or p_par <= 0 are counted as
    non-physical, and when there are any, ``worst_pressure`` names the
    (first) node of the smallest min(p_perp, p_par).  Margins are the
    largest values of (criterion left side minus right side) over the
    applicable nodes with p_perp > 0 and p_par > 0, None where there are
    none; the counts still cover every applicable node.

    Two passes over the x-slab blocks of ``_x_blocks`` hold one block's
    temporaries: the first finds the field-null threshold, the second
    counts and reduces, bit-identical to a whole-grid pass.
    """
    grid = state.grid
    _nx, ny, nz = grid.counts
    blocks = _x_blocks(grid)

    def b_squared(block):
        b = state.B.values[:, block]
        return np.einsum("cijk,cijk->ijk", b, b)

    eps_b = _field_null_threshold(np.array([np.max(b_squared(block)) for block in blocks]))
    counts = dict.fromkeys(("applicable", "fire_hose_unstable", "mirror_unstable", "indeterminate"), 0)
    nonpositive = 0
    fire_margins, mirror_margins = [], []
    # each block's smallest min(p_perp, p_par) and its (flat node, p_perp, p_par)
    lowest, lowest_at = [], []
    for block in blocks:
        b2 = b_squared(block)
        applicable = b2 > eps_b
        pperp = state.p_perp.values[block]
        ppar = pperp + state.tau.values[block] * b2

        fire_lhs = ppar - pperp - b2
        zero_par = applicable & (ppar == 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            mirror_lhs = pperp * (pperp / (6.0 * ppar) - 1.0) - 0.5 * b2
        counts["applicable"] += int(np.count_nonzero(applicable))
        counts["fire_hose_unstable"] += int(np.count_nonzero(applicable & (fire_lhs > 0)))
        counts["mirror_unstable"] += int(np.count_nonzero(applicable & ~zero_par & (mirror_lhs > 0)))
        counts["indeterminate"] += int(np.count_nonzero(zero_par))

        p_min = np.minimum(pperp, ppar)
        physical = applicable & (p_min > 0)
        if physical.any():
            fire_margins.append(np.max(fire_lhs[physical]))
            mirror_margins.append(np.max(mirror_lhs[physical]))
        nonpositive += int(np.count_nonzero(p_min <= 0))
        i = int(np.argmin(p_min))
        lowest.append(p_min.flat[i])
        lowest_at.append((block.start * ny * nz + i, pperp.flat[i], ppar.flat[i]))

    def margin(maxima):
        return float(np.max(maxima)) if maxima else None

    counts["not_applicable"] = grid.n_nodes - counts["applicable"]
    counts["nonpositive_pressure"] = nonpositive
    margins = {"fire_hose": margin(fire_margins), "mirror": margin(mirror_margins)}
    worst_pressure = None
    if nonpositive:
        # the first block holding the smallest value holds np.argmin's node
        flat, p_perp, p_par = lowest_at[int(np.argmin(lowest))]
        node = tuple(int(i) for i in np.unravel_index(flat, grid.counts))
        worst_pressure = {
            "node": list(node),
            "xyz": list(grid.point(node)),
            "p_perp": float(p_perp),
            "p_par": float(p_par),
        }
    return StabilityReport(counts, margins, worst_pressure)


# ---------------------------------------------------------------------------
# Residuals of the governing systems
# ---------------------------------------------------------------------------


def _require_residual_room(state: CGLState, system: str) -> None:
    """The checks a residual evaluation makes on the whole state first."""
    if system not in RESIDUAL_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {RESIDUAL_SYSTEMS}")
    fd._require_stencil_room(state.grid)
    if system == "alt" and float(np.max(state.tau.values)) >= 1.0:
        raise ValueError("the recast system needs tau < 1 everywhere on the grid")


# Each residual of each system: a bundled file, the (0-based) equations of
# it that the residual evaluates (three make a vector), and the node array
# each of the file's dependents is bound to.  ``alt`` is the isotropic image
# of the closed CGL balance under the field-line map with M = sqrt(1 - tau):
# the isotropic balance of S = sqrt(1 - tau) B and the combined pressure
# p_perp + tau |B|^2 / 2, plus B . grad of tau and of the combined pressure.
_NODES = {"B1": "B1", "B2": "B2", "B3": "B3", "P": "p_perp", "pperp": "p_perp", "tau": "tau"}
_MHD, _CGL = "mhd_static.pde", "cgl_static_closed.pde"
_RESIDUALS = {
    "mhd": {"momentum": (_MHD, (1, 2, 3), _NODES), "div_b": (_MHD, (0,), _NODES)},
    "cgl": {"momentum": (_CGL, (1, 2, 3), _NODES), "div_b": (_CGL, (0,), _NODES), "tau_advection": (_CGL, (4,), _NODES)},
    "alt": {
        "momentum": (_MHD, (1, 2, 3), {"B1": "S1", "B2": "S2", "B3": "S3", "P": "combined"}),
        "div_b": (_MHD, (0,), _NODES),
        "tau_advection": (_CGL, (4,), _NODES),
        "label_advection": (_CGL, (4,), {**_NODES, "tau": "combined"}),
    },
}


@functools.cache
def _program(name: str):
    """The parsed bundled ``.pde`` file ``name``, once per process."""
    from . import data_text
    from .expr import parse_program

    return parse_program(data_text(name))


def _window_residuals(
    state: CGLState, system: str, start: int, stop: int, y: tuple[int, int] | None = None, z: tuple[int, int] | None = None
) -> dict[str, ScalarGrid | VectorGrid]:
    """Every residual of ``system`` on the interior of the box of the
    state's arrays of x-slabs ``start:stop``, rows ``y`` and columns ``z``
    (each a (start, stop) range, whole by default): each equation's left
    minus right side, with a dependent bound to its node array and a
    first-order jet to that array's central difference, each computed once
    per window."""
    g, h = state.grid, state.grid.spacing
    box = ((start, stop), y or (0, g.counts[1]), z or (0, g.counts[2]))
    window = tuple(slice(*r) for r in box)
    b, tau = state.B.values[(slice(None), *window)], state.tau.values[window]
    nodes = {"B1": b[0], "B2": b[1], "B3": b[2], "p_perp": state.p_perp.values[window], "tau": tau}
    if system == "alt":
        scaled = np.sqrt(1.0 - tau)[None] * b
        combined = nodes["p_perp"] + 0.5 * tau * np.einsum("cijk,cijk->ijk", b, b)
        nodes.update(S1=scaled[0], S2=scaled[1], S3=scaled[2], combined=combined)
    origin = tuple(o + d * lo for o, d, (lo, _) in zip(g.origin, h, box))
    interior = Grid3(origin, h, tuple(hi - lo for lo, hi in box)).interior()
    env, out = {}, {}
    for name, (file, which, binding) in _RESIDUALS[system].items():
        program = _program(file)
        equations = [program.equations[i] for i in which]
        axis = {x.name: i for i, x in enumerate(program.context.independents)}
        bound = {}
        for sym in set().union(*(e.symbols() for e in equations)):
            key = (binding[sym.base or sym.name], sym.wrt)
            if key not in env:
                if sym.wrt:
                    i = axis[sym.wrt[0]]
                    env[key] = fd._axis_diff(nodes[key[0]], i, h[i])
                else:
                    # a contiguous copy: every term that reads it runs faster
                    env[key] = np.ascontiguousarray(nodes[key[0]][1:-1, 1:-1, 1:-1])
            bound[sym.name] = env[key]
        values = [e.evaluate(bound) for e in equations]
        out[name] = VectorGrid(interior, np.stack(values)) if len(values) == 3 else ScalarGrid(interior, values[0])
    return out


def residual_norms(
    state: CGLState, system: str, mask_radius: float | None = None
) -> dict[str, dict]:
    """Linf and L2 norms of every residual, optionally restricted to the
    ball of the given (positive) radius, for states smooth only inside a
    sphere, and ``node``, the (i, j, k) index on the state's grid of the
    Linf maximum.  The residuals are evaluated on windows of whole x-slabs
    of the state's arrays with one halo slab on either side, bit-identical
    to a whole-grid pass (``fields.norm`` of each residual of one window
    that spans every slab), after the checks on the system, the grid, tau
    and the mask.  With a mask, a window whose slabs hold no mask node is
    skipped and the others are cut in y and z to the box of their mask
    nodes plus the halo."""
    _require_residual_room(state, system)
    interior = state.grid.interior()
    mask = None
    size = interior.n_nodes
    if mask_radius is not None:
        mask = fd.sphere_mask(interior, mask_radius)
        size = int(np.count_nonzero(mask))
        if not size:
            raise ValueError("norm over an empty node set")

    nx, ny, nz = state.grid.counts
    # at least 3 interior slabs besides the halo (see ``BLOCK_NODES``)
    step = min(nx - 2, max(3, BLOCK_NODES // (ny * nz)))
    # the magnitudes of the selected nodes of each residual, in C order
    pointwise: dict[str, np.ndarray] = {}
    filled = 0
    for first in range(0, nx - 2, step):
        # a short last window borrows slabs from the one before it; only the
        # slabs from ``first`` on are not done yet
        start = min(first, nx - 2 - step)
        y, z = (0, ny), (0, nz)
        if mask is not None:
            held = mask[first : first + step]
            j = np.flatnonzero(held.any(axis=(0, 2))).tolist()
            if not j:
                continue
            k = np.flatnonzero(held.any(axis=(0, 1))).tolist()
            held = held[:, j[0] : j[-1] + 1, k[0] : k[-1] + 1]
            # interior rows j0..j1 are the state's rows j0..j1 + 2 with the halo
            y, z = (j[0], j[-1] + 3), (k[0], k[-1] + 3)
        residuals = _window_residuals(state, system, start, start + step + 2, y, z)
        for name, res in residuals.items():
            values = fd.magnitude(res)[first - start :]
            selected = values.ravel() if mask is None else values[held]
            if name not in pointwise:
                pointwise[name] = np.empty(size)
            pointwise[name][filled : filled + selected.size] = selected
        filled += selected.size
        # the next window starts with this one's arrays freed
        residuals = res = values = selected = None

    out = {}
    for name, values in pointwise.items():
        # the same reductions as ``fields.norm``, made in place on the
        # pointwise arrays, which nothing reads after them
        i = int(np.argmax(values))
        linf = float(np.max(values))
        values **= 2
        out[name] = {
            "linf": linf,
            "l2": float(np.sqrt(np.mean(values))),
            # interior index + 1 is the index on the state's grid
            "node": tuple(int(n) + 1 for n in _selected_node(interior.counts, mask, i)),
        }
    return out


def _selected_node(counts: tuple[int, int, int], mask: np.ndarray | None, i: int) -> tuple:
    """The index of the ``i``-th node in C order of ``mask`` (every node
    when None) on a grid of ``counts`` nodes."""
    if mask is None:
        return np.unravel_index(i, counts)
    # the slab that holds it, then its place in that slab
    before = np.cumsum(np.count_nonzero(mask, axis=(1, 2)))
    slab = int(np.searchsorted(before, i, side="right"))
    i -= int(before[slab - 1]) if slab else 0
    return (slab, *np.unravel_index(np.flatnonzero(mask[slab])[i], counts[1:]))


# ---------------------------------------------------------------------------
# State I/O
# ---------------------------------------------------------------------------


def _columns(state: CGLState) -> dict[str, np.ndarray]:
    """The state's node arrays under their ``STATE_COLUMNS`` names."""
    values = (*state.B.values, state.p_perp.values, state.p_par.values, state.tau.values, state.psi.values)
    return dict(zip(STATE_COLUMNS, values))


def write_state_csv(state: CGLState, path) -> None:
    fd.write_csv(path, dict(zip("xyz", state.grid.axes())), _columns(state))


def read_state_csv(path) -> CGLState:
    axes, cols = fd.read_csv(path, ("x", "y", "z"))
    missing = [c for c in STATE_COLUMNS if c not in cols]
    if missing:
        raise ValueError(f"{path}: missing state columns {missing}")
    b = np.stack([cols.pop(c) for c in STATE_COLUMNS[:3]])
    state = _state(Grid3.from_axes(*axes), (b, cols["p_perp"], cols["tau"], cols["psi"]), {})
    # the file's p_par column is checked against tau, then not kept
    mismatch = tau_consistency_error(state, cols.pop("p_par"))
    if mismatch > 1e-6:
        warnings.warn(
            f"{path}: tau column disagrees with (p_par - p_perp)/B^2 "
            f"(scaled mismatch {mismatch:.2e})",
            RuntimeWarning,
            stacklevel=2,
        )
    return state


def write_state_vtk(state: CGLState, path) -> None:
    columns = _columns(state)
    scalars = {name: columns[name] for name in STATE_COLUMNS[3:]}
    fd.write_vtk(path, state.grid, scalars=scalars, vectors={"B": state.B.values})
