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
    "residual_fields",
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

    ``evaluate(X, Y, Z)`` returns ``(B, p_perp, p_par, tau, psi)`` and does
    the work the fields share once; ``B`` and ``p_perp`` pick one item.
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
    """Sampled anisotropic equilibrium state on one shared grid."""

    B: VectorGrid
    p_perp: ScalarGrid
    p_par: ScalarGrid
    tau: ScalarGrid
    psi: ScalarGrid
    meta: dict = field(default_factory=dict)
    evaluators: StateEvaluators | None = None

    def __post_init__(self):
        grids = {g.grid for g in (self.p_perp, self.p_par, self.tau, self.psi)}
        grids.add(self.B.grid)
        if len(grids) != 1:
            raise ValueError("all state fields must share one grid")

    @property
    def grid(self) -> Grid3:
        return self.B.grid

    def b_squared(self) -> np.ndarray:
        return np.einsum("cijk,cijk->ijk", self.B.values, self.B.values)

    def coarsen(self) -> "CGLState":
        return CGLState(
            self.B.coarsen(),
            self.p_perp.coarsen(),
            self.p_par.coarsen(),
            self.tau.coarsen(),
            self.psi.coarsen(),
            dict(self.meta, coarsened=True),
            self.evaluators,
        )


def _state(grid: Grid3, values, meta: dict, evaluators: StateEvaluators | None = None) -> CGLState:
    """Wrap ``(B, p_perp, p_par, tau, psi)`` node arrays (or values that
    broadcast to them) as a state on ``grid``."""
    b, *scalars = (np.asarray(v, dtype=float) for v in values)
    pperp, ppar, tau, psi = (ScalarGrid(grid, np.broadcast_to(v, grid.counts)) for v in scalars)
    return CGLState(VectorGrid(grid, np.broadcast_to(b, (3, *grid.counts))), pperp, ppar, tau, psi, meta, evaluators)


def _require_finite(state: CGLState) -> CGLState:
    """``state``, after the non-finite check of ``fields.sample_*``."""
    fd._check_finite(state.B.values, state.grid, "sampled vector field")
    for f in (state.p_perp, state.p_par, state.tau, state.psi):
        fd._check_finite(f.values, state.grid, "sampled scalar field")
    return state


# Nodes per block of ``_evaluate_in_blocks`` (whole x-slabs, at least one).
# A point transform holds about twenty block-sized float temporaries; at
# 2**14 nodes (128 KiB each) they fit a 2 MiB L2 cache, where a whole-grid
# pass streams each through memory: one slab at 129^3, three at 65^3.  On
# one pinned CPU (Xeon, 2 MiB L2), 2**15 (seven slabs at 65^3) was 3-6 %
# faster there but peaked at 1.36 times a rotation's result against 1.16;
# 2**13 was slower than both; at 129^3 both larger sizes give one slab.
# ``residual_norms`` blocks its interior the same way with at least three
# slabs, the fewest a stencil check passes with the halo.  One-slab blocks
# (check skipped) were no faster at 129^3 and 50 % slower at 65^3, where a
# block recomputes two halo slabs per interior one; five slabs were within
# a few percent of three, and 8 or more slower at 129^3 (two-grid cgl
# check, one pinned CPU).
BLOCK_NODES = 2**14


def _evaluate_in_blocks(grid: Grid3, fn: Callable) -> tuple[np.ndarray | None, ...]:
    """Evaluate ``fn(block, x, y, z)``, a nodewise function of the x-slabs
    ``block`` (a slice) and their open mesh (``np.ix_``), over blocks of at
    most ``BLOCK_NODES`` nodes (or one slab) into node arrays.

    ``fn`` returns values that broadcast to ``(..., bx, ny, nz)`` for ``bx``
    slabs (B's components lead), or None for an output left None; the first
    block fixes the shapes.  The result is bit-identical to one call on the
    whole mesh, and an error comes from the first block that raises it.
    """
    nx, ny, nz = grid.counts
    step = max(1, BLOCK_NODES // (ny * nz))
    x, y, z = np.ix_(*grid.axes())
    outputs: list[np.ndarray | None] = []
    for start in range(0, nx, step):
        block = slice(start, start + step)
        values = fn(block, x[block], y, z)
        if not outputs:
            outputs = [None if v is None else np.empty((*np.shape(v)[:-3], nx, ny, nz)) for v in values]
        for out, v in zip(outputs, values):
            if out is not None:
                out[..., block, :, :] = v
        values = v = None  # the next block starts with this one's arrays freed
    return tuple(outputs)


def _kept(old, new) -> tuple:
    """The fields ``new``, with the one of ``old`` wherever ``new`` holds None."""
    return tuple(o if n is None else n for o, n in zip(old, new))

def _map_state(state: CGLState, label: str, fn: Callable, pullback: Callable | None = None) -> CGLState:
    """``state`` mapped in x-slab blocks by ``fn``, a nodewise map of
    (B, p_perp, p_par, tau, psi) that returns None for each field it keeps.

    Without ``pullback``, ``fn`` runs on the node arrays, kept fields stay
    shared, and ``fn`` after the source's evaluator is the result's.  With
    one, each node takes the fields at ``pullback(x, y, z)`` from the
    source's evaluator, else by trilinear interpolation (flagged lossy;
    p_par, which no such map reads, is None); the result has no evaluator.
    """
    grid, source = state.grid, state.evaluators
    fields = (state.B.values, state.p_perp.values, state.p_par.values, state.tau.values, state.psi.values)
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
            b, pperp, _ppar, tau, psi = fields
            return fn(np.stack([interp(c) for c in b]), interp(pperp), None, interp(tau), interp(psi))

    meta["transforms"] = [*state.meta.get("transforms", []), label]
    return _state(grid, _kept(fields, _evaluate_in_blocks(grid, at_nodes)), meta, evaluators)


def sample_state(evaluators: StateEvaluators, grid: Grid3, meta: dict) -> CGLState:
    """Sample every field of an analytic state on the grid's nodes, one
    ``evaluate`` call per x-slab block (``_evaluate_in_blocks``); rejects
    non-finite values.  An evaluator that refuses points raises for the
    first block that holds one."""
    values = _evaluate_in_blocks(grid, lambda _block, *xyz: evaluators.evaluate(*np.broadcast_arrays(*xyz)))
    return _require_finite(_state(grid, values, meta, evaluators))


def tau_consistency_error(state: CGLState) -> float:
    """Worst scaled violation of tau = (p_par - p_perp)/B^2 over the plasma."""
    b2 = state.b_squared()
    mask = b2 > _field_null_threshold(b2)
    if not mask.any():
        return 0.0
    lhs = state.p_par.values - state.p_perp.values
    rhs = state.tau.values * b2
    scale = max(1.0, float(np.max(np.abs(lhs))), float(np.max(np.abs(rhs))))
    return float(np.max(np.abs(lhs - rhs)[mask])) / scale


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


def find_lambda(R: float, n: int) -> float:
    """The n-th positive mode number: (3 - 4R^2 l^2) sin(2Rl) = 6Rl cos(2Rl).

    Roots are bracketed on an expanding scan and polished to |g| < 1e-10.
    """
    if R <= 0:
        raise ValueError("sphere radius must be positive")
    if n < 1:
        raise ValueError("mode index starts at 1")
    step = math.pi / (40.0 * R)
    lo = step * 0.5  # skip the trivial root at zero
    roots: list[float] = []
    g_lo = _mode_equation(lo, R)
    for chunk in range(200):
        hi_limit = lo + 10.0 * math.pi / R
        x = lo
        while x < hi_limit:
            x_next = x + step
            g_hi = _mode_equation(x_next, R)
            if g_lo == 0.0:
                roots.append(x)
            elif g_lo * g_hi < 0.0:
                roots.append(_bisect_root(R, x, x_next, g_lo, g_hi))
            if len(roots) >= n:
                root = roots[n - 1]
                if abs(_mode_equation(root, R)) >= 1e-10:
                    raise ArithmeticError(
                        f"mode equation residual {abs(_mode_equation(root, R)):.3e} at root {root!r}"
                    )
                return float(root)
            x, g_lo = x_next, g_hi
        lo = hi_limit
    raise ValueError(f"mode index {n} not found within the scan window")


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
        if abs(_mode_equation(self.lam, self.R)) >= 1e-10:
            raise ValueError("lam does not satisfy the mode equation")
        if abs(1.0 - _v0(np.array(2.0 * self.lam * self.R))) < 1e-14:
            raise ValueError("degenerate mode: V0(2 lam R) = 1")


def vortex_params(R: float = 1.0, n: int = 3, B0: float = 1.0, P0: float = 1.0) -> VortexParams:
    lam = find_lambda(R, n)
    v0r = float(_v0(np.array(2.0 * lam * R)))
    gamma_b = B0 * v0r / (1.0 - v0r)
    return VortexParams(R, B0, P0, n, lam, gamma_b)


def _v0(x: np.ndarray) -> np.ndarray:
    """3 (sin x / x^3 - cos x / x^2), with a series branch near zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    direct = 3.0 * (np.sin(xs) / xs**3 - np.cos(xs) / xs**2)
    x2 = x * x
    series = 1.0 - x2 / 10.0 + x2 * x2 / 280.0 - x2 * x2 * x2 / 15120.0
    return np.where(small, series, direct)


def _v0_prime_over_x(x: np.ndarray) -> np.ndarray:
    """V0'(x)/x = 3 ((x^2 - 3) sin x + 3 x cos x) / x^5; finite at zero."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    direct = 3.0 * ((xs * xs - 3.0) * np.sin(xs) + 3.0 * xs * np.cos(xs)) / xs**5
    x2 = x * x
    series = -0.2 + x2 / 70.0 - x2 * x2 / 2520.0
    return np.where(small, series, direct)


def _vortex_fields(params: VortexParams, pressure_profile: str) -> Callable:
    """The vortex's ``(B, p)`` at given points, from one radial-profile pass."""
    if pressure_profile not in ("balanced", "unscaled"):
        raise ValueError("pressure_profile must be 'balanced' or 'unscaled'")
    R, B0, P0, lam, gamma_b = params.R, params.B0, params.P0, params.lam, params.gamma_b
    v0r = float(_v0(np.array(2.0 * lam * R)))
    amp = B0 / (1.0 - v0r)

    def b_and_p(X, Y, Z):
        X, Y, Z = np.broadcast_arrays(X, Y, Z)
        rho = np.sqrt(X * X + Y * Y + Z * Z)
        # B = 0 and p = P0 outside the ball, so the profile is evaluated inside only
        inside = rho <= R
        x, y, z = X[inside], Y[inside], Z[inside]
        arg = 2.0 * lam * rho[inside]
        V = amp * _v0(arg) - gamma_b
        # Q = V'(rho)/rho, regular on the axis and at the center
        Q = 4.0 * lam * lam * amp * _v0_prime_over_x(arg)
        s2 = x * x + y * y
        b = np.zeros((3, *rho.shape))
        b[:, inside] = (-0.5 * Q * z * x - lam * V * y, -0.5 * Q * z * y + lam * V * x, V + 0.5 * Q * s2)
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
    p_max = float(np.max(np.abs(p)))
    if p_max == 0.0:
        raise ValueError("degenerate state: pressure vanishes on the whole grid")

    def with_label(b, p):
        return b, p, p, np.zeros(p.shape), p / p_max

    def evaluate(X, Y, Z):
        return with_label(*b_and_p(X, Y, Z))

    meta = {
        "family": "spherical-vortex",
        "R": params.R,
        "B0": params.B0,
        "P0": params.P0,
        "n": params.n,
        "lam": params.lam,
        "gamma_b": params.gamma_b,
        "pressure_profile": pressure_profile,
        "psi_normalization": p_max,
    }
    return _require_finite(_state(grid, with_label(b, p), meta, StateEvaluators(evaluate)))


# ---------------------------------------------------------------------------
# The field-line transform family
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TransformSpec:
    """Magnitude function M of the field-line label, |M| bounded away from 0.

    ``text`` is an expression in ``psi`` evaluated numerically, e.g.
    ``1 + psi*sin(psi)``.  Each admissible M factors uniquely as
    ``sign * exp(log-magnitude)``; composition multiplies signs and adds
    log-magnitudes, which is the (abelian) group law of the family.
    """

    text: str
    m_min: float = 1e-8

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


def apply_infinite_transform(state: CGLState, spec: TransformSpec) -> CGLState:
    """Rescale B by M(psi) along field lines, adjusting the anisotropy and
    the perpendicular pressure so the anisotropic balance is preserved.

    M is evaluated on the plasma only; other nodes (B below the sampled
    state's field-null threshold) pass through unchanged.  The combination
    p_perp + tau*B^2/2 is a nodewise algebraic invariant of this map.
    |M| < ``spec.m_min`` is refused after the blocked pass, naming its minimum.
    """
    eps_b = _field_null_threshold(state.b_squared())
    name = f"M = {spec.text}"
    m_low, tau_high = math.inf, False

    def field_line(b, pperp, ppar, tau, psi):
        nonlocal m_low, tau_high
        b, pperp, ppar, tau = (np.array(v, dtype=float) for v in (b, pperp, ppar, tau))
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
        m2 = m**2
        b2_old = b2[active]
        b2_new = m2 * b2_old
        tau_new = 1.0 - (1.0 - tau[active]) / m2
        pperp_new = pperp[active] + 0.5 * (b2_old - b2_new)
        b[:, active] = m * b[:, active]
        pperp[active] = pperp_new
        ppar[active] = pperp_new + tau_new * b2_new
        tau[active] = tau_new
        return b, pperp, ppar, tau, None

    out = _map_state(state, name, field_line)
    if m_low < spec.m_min:
        raise ValueError(
            f"|M| falls to {m_low:.3e} on the attained label range; the transform requires |M| >= {spec.m_min}"
        )
    if tau_high:
        out.meta["warnings"] = [*out.meta.get("warnings", []), "input state has tau >= 1 somewhere"]
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


def _affine_state(state: CGLState, label: str, rot: np.ndarray, t: float, K, s: float, pf: float, shift: float) -> CGLState:
    """The finite form shared by every translation, rotation and scaling:
    x' = t rot x + K, B' = s rot B, p_perp' = pf p_perp + shift, with tau
    and psi carried along and p_par' = p_perp' + tau |B'|^2, each node
    pulled back to rot^T (x' - K)/t (rot is orthogonal) by ``_map_state``.
    """

    def pullback(x, y, z):
        # on the open mesh of a block's axes; only the last sum is full-size
        x, y, z = ((a - k) / t for a, k in zip((x, y, z), K))
        return (rot[0, r] * x + rot[1, r] * y + rot[2, r] * z for r in range(3))

    def affine(b, pperp, _ppar, tau, psi):
        b = np.einsum("rc,c...->r...", s * rot, b)
        pperp = pf * np.asarray(pperp, dtype=float) + shift
        b2 = np.einsum("cijk,cijk->ijk", b, b)
        return b, pperp, pperp + tau * b2, tau, psi

    return _map_state(state, label, affine, pullback)


def translate_state(state: CGLState, K: tuple[float, float, float] = (0.0, 0.0, 0.0), k4: float = 0.0) -> CGLState:
    """x' = x + K with the perpendicular pressure shifted by k4."""
    return _affine_state(state, f"translate K={K} k4={k4}", np.eye(3), 1.0, K, 1.0, 1.0, k4)


def rotate_state(state: CGLState, phi: float, theta: float, psi_angle: float) -> CGLState:
    """Simultaneous z-x-z rotation of coordinates and field components."""
    label = f"rotate euler=({phi},{theta},{psi_angle})"
    return _affine_state(state, label, _euler_zxz(phi, theta, psi_angle), 1.0, (0.0, 0.0, 0.0), 1.0, 1.0, 0.0)


def scale_state(state: CGLState, t: float, s: float, pressure_factor: str = "generator") -> CGLState:
    """x' = t x, B' = s B, with the perpendicular pressure multiplied by
    s^2 (``generator``, the default: the factor that exponentiates the
    field-scaling generator and preserves the force balance) or by 2s
    (``as-printed``, the paper's literal factor, which breaks the force
    balance unless s = 2)."""
    if t == 0:
        raise ValueError("coordinate scale t must be nonzero")
    factors = {"as-printed": 2.0 * s, "generator": s * s}
    try:
        pf = factors[pressure_factor]
    except KeyError:
        raise ValueError("pressure_factor must be 'as-printed' or 'generator'") from None
    label = f"scale t={t} s={s} ({pressure_factor})"
    return _affine_state(state, label, np.eye(3), t, (0.0, 0.0, 0.0), s, pf, 0.0)


def anisotropy_scale_state(state: CGLState, C: float) -> CGLState:
    """Rescale (p_perp + B^2/2) and (1 - tau) by C > 0, holding B and x."""
    if C <= 0:
        raise ValueError("the rescaling constant must be positive to preserve tau < 1")

    def rescaled(b, pperp, _ppar, tau, _psi):
        b2 = np.einsum("c...,c...->...", b, b)
        pperp = C * (pperp + 0.5 * b2) - 0.5 * b2
        tau = 1.0 - C * (1.0 - tau)
        return None, pperp, pperp + tau * b2, tau, None

    return _map_state(state, f"anisotropy_scale C={C}", rescaled)


# ---------------------------------------------------------------------------
# Stability criteria
# ---------------------------------------------------------------------------

FLAG_STABLE = 0
FLAG_UNSTABLE = 1
FLAG_NOT_APPLICABLE = 2
FLAG_INDETERMINATE = 3


@dataclass(frozen=True)
class StabilityReport:
    fire_hose: np.ndarray
    mirror: np.ndarray
    counts: dict
    margins: dict
    worst_pressure: dict | None = None

    def summary(self) -> dict:
        out = {"counts": self.counts, "margins": self.margins}
        if self.worst_pressure is not None:
            out["worst_pressure"] = self.worst_pressure
        return out


def stability_report(state: CGLState) -> StabilityReport:
    """Pointwise pressure-anisotropy instability flags.

    Fire-hose: unstable iff p_par - p_perp > B^2 (tau > 1).
    Mirror: unstable iff p_perp (p_perp / (6 p_par) - 1) > B^2 / 2; nodes
    with p_par = 0 are flagged indeterminate.  Nodes at field nulls are
    not applicable.  Nodes with p_perp <= 0 or p_par <= 0 are counted as
    non-physical, and when there are any, ``worst_pressure`` names the node
    of the smallest min(p_perp, p_par).  Margins are the largest values of
    (criterion left side minus right side) over the applicable nodes with
    p_perp > 0 and p_par > 0, None where there are none; flags and counts
    still cover every applicable node.
    """
    b2 = state.b_squared()
    applicable = b2 > _field_null_threshold(b2)
    pperp = state.p_perp.values
    ppar = state.p_par.values

    fire = np.full(state.grid.counts, FLAG_NOT_APPLICABLE, dtype=np.int8)
    fire_lhs = ppar - pperp - b2
    fire[applicable & (fire_lhs > 0)] = FLAG_UNSTABLE
    fire[applicable & (fire_lhs <= 0)] = FLAG_STABLE

    mirror = np.full(state.grid.counts, FLAG_NOT_APPLICABLE, dtype=np.int8)
    zero_par = applicable & (ppar == 0)
    ok = applicable & ~zero_par
    with np.errstate(divide="ignore", invalid="ignore"):
        mirror_lhs = pperp * (pperp / (6.0 * ppar) - 1.0) - 0.5 * b2
    mirror[ok & (mirror_lhs > 0)] = FLAG_UNSTABLE
    mirror[ok & (mirror_lhs <= 0)] = FLAG_STABLE
    mirror[zero_par] = FLAG_INDETERMINATE

    def margin(lhs, mask):
        return float(np.max(lhs[mask])) if mask.any() else None

    counts = {
        "applicable": int(applicable.sum()),
        "fire_hose_unstable": int((fire == FLAG_UNSTABLE).sum()),
        "mirror_unstable": int((mirror == FLAG_UNSTABLE).sum()),
        "indeterminate": int((mirror == FLAG_INDETERMINATE).sum()),
        "not_applicable": int((~applicable).sum()),
    }
    p_min = np.minimum(pperp, ppar)
    physical = applicable & (p_min > 0)
    margins = {
        "fire_hose": margin(fire_lhs, physical),
        "mirror": margin(mirror_lhs, physical),
    }
    counts["nonpositive_pressure"] = int((p_min <= 0).sum())
    worst_pressure = None
    if counts["nonpositive_pressure"]:
        node = tuple(int(i) for i in np.unravel_index(int(np.argmin(p_min)), p_min.shape))
        worst_pressure = {
            "node": list(node),
            "xyz": list(state.grid.point(node)),
            "p_perp": float(pperp[node]),
            "p_par": float(ppar[node]),
        }
    return StabilityReport(fire, mirror, counts, margins, worst_pressure)


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


def residual_fields(state: CGLState, system: str) -> dict[str, ScalarGrid | VectorGrid]:
    """Assemble each governing equation's left-minus-right side on the
    interior grid with central differences.

    ``mhd``: curl(B) x B - grad(p_perp); div(B).
    ``cgl``: the anisotropic balance, div(B), and B . grad tau.
    ``alt``: the recast balance for the scaled field sqrt(1-tau) B with the
    combined pressure p_perp + tau B^2/2, plus its line-constancy; it
    requires tau < 1 everywhere.
    """
    _require_residual_room(state, system)
    grid = state.grid
    B = state.B
    divb = fd.divergence(B)

    if system == "mhd":
        momentum = fd.cross(fd.curl(B), B.interior())
        gp = fd.gradient(state.p_perp)
        mom = VectorGrid(momentum.grid, momentum.values - gp.values)
        return {"momentum": mom, "div_b": divb}

    tau = state.tau
    b2 = state.b_squared()
    if system == "cgl":
        jxb = fd.cross(fd.curl(B), B.interior())
        gp = fd.gradient(state.p_perp)
        gb2h = fd.gradient(ScalarGrid(grid, 0.5 * b2))
        line = fd.directional(B, tau)
        ti = tau.interior().values
        bi = B.interior().values
        mom = (1.0 - ti)[None] * jxb.values - gp.values - ti[None] * gb2h.values - bi * line.values[None]
        return {
            "momentum": VectorGrid(jxb.grid, mom),
            "div_b": divb,
            "tau_advection": line,
        }

    scaled = VectorGrid(grid, np.sqrt(1.0 - tau.values)[None] * B.values)
    combined = ScalarGrid(grid, state.p_perp.values + 0.5 * tau.values * b2)
    momentum = fd.cross(fd.curl(scaled), scaled.interior())
    gc = fd.gradient(combined)
    mom = VectorGrid(momentum.grid, momentum.values - gc.values)
    return {
        "momentum": mom,
        "div_b": divb,
        "tau_advection": fd.directional(B, tau),
        "label_advection": fd.directional(B, combined),
    }


def _slabs(state: CGLState, start: int, stop: int) -> CGLState:
    """The sub-state of x-slabs ``start:stop``: views of the scalar arrays
    and a copy of B's block (its components are not contiguous)."""
    g = state.grid
    grid = Grid3((g.origin[0] + g.spacing[0] * start, *g.origin[1:]), g.spacing, (stop - start, *g.counts[1:]))
    scalars = (ScalarGrid(grid, f.values[start:stop]) for f in (state.p_perp, state.p_par, state.tau, state.psi))
    return CGLState(VectorGrid(grid, state.B.values[:, start:stop]), *scalars)


def residual_norms(
    state: CGLState, system: str, mask_radius: float | None = None
) -> dict[str, dict]:
    """Linf and L2 norms of every residual, optionally restricted to the
    ball of the given (positive) radius, for states smooth only inside a
    sphere, and ``node``, the (i, j, k) index on the state's grid of the
    Linf maximum.

    The residuals are evaluated by ``residual_fields`` over blocks of whole
    x-slabs of the interior, each block a sub-state with one halo slab on
    either side, and each residual's pointwise magnitude is written once
    into an interior-sized array.  Every stencil is nodewise, so the
    norms are bit-identical to a whole-grid pass (``fields.norm`` of each
    of ``residual_fields``); the checks on the system, the grid, tau and
    the mask are made on the whole state before the first block.
    """
    _require_residual_room(state, system)
    interior = state.grid.interior()
    mask = None
    if mask_radius is not None:
        mask = fd.sphere_mask(interior, mask_radius)
        if not mask.any():
            raise ValueError("norm over an empty node set")

    nx, ny, nz = state.grid.counts
    # at least 3 interior slabs, so that a block passes the stencil check
    step = min(nx - 2, max(3, BLOCK_NODES // (ny * nz)))
    pointwise: dict[str, np.ndarray] = {}
    for start in range(0, nx - 2, step):
        # a short last block borrows slabs from the one before it
        start = min(start, nx - 2 - step)
        for name, res in residual_fields(_slabs(state, start, start + step + 2), system).items():
            if name not in pointwise:
                pointwise[name] = np.empty(interior.counts)
            pointwise[name][start : start + step] = fd.magnitude(res)
        res = None  # the next block starts with this one's arrays freed

    out = {}
    for name, values in pointwise.items():
        # the same reductions as ``fields.norm``; magnitudes are >= 0, so
        # -1 keeps the maximum on the masked nodes for the node's index
        selected = values if mask is None else values[mask]
        located = values if mask is None else np.where(mask, values, -1.0)
        # interior index + 1 is the index on the state's grid
        node = np.unravel_index(int(np.argmax(located)), located.shape)
        out[name] = {
            "linf": float(np.max(selected)),
            "l2": float(np.sqrt(np.mean(selected**2))),
            "node": tuple(int(i) + 1 for i in node),
        }
    return out


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
    b = np.stack([cols[c] for c in STATE_COLUMNS[:3]])
    state = _state(Grid3.from_axes(*axes), (b, *(cols[c] for c in STATE_COLUMNS[3:])), {"source": str(path)})
    mismatch = tau_consistency_error(state)
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
