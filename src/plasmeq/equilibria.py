"""Exact equilibria and their transformations.

Provides the localized spherical-vortex equilibrium (an isotropic state
with the field confined to a ball and a pressure well), the field-line
transform family taking isotropic states to anisotropic ones, the finite
point transformations (translations, rotations, scalings), pressure-
anisotropy stability checks, and finite-difference residual evaluation of
the governing systems on sampled states.

All states are nodewise total: outside the plasma (where B vanishes) the
anisotropy factor is set to zero and transforms pass values through
unchanged.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import fields as fd
from .expr import compile_numeric
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


def _sampled_state(grid: Grid3, values, meta: dict, evaluators: StateEvaluators) -> CGLState:
    """``_state`` with the non-finite check of ``fields.sample_*``."""
    state = _state(grid, values, meta, evaluators)
    fd._check_finite(state.B.values, grid, "sampled vector field")
    for f in (state.p_perp, state.p_par, state.tau, state.psi):
        fd._check_finite(f.values, grid, "sampled scalar field")
    return state


def sample_state(evaluators: StateEvaluators, grid: Grid3, meta: dict) -> CGLState:
    """Sample every field of an analytic state with one ``evaluate`` call
    on the grid's nodes; rejects non-finite values."""
    return _sampled_state(grid, evaluators.evaluate(*grid.meshgrid()), meta, evaluators)


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

    The field-line label is the pressure normalized by its largest sampled
    magnitude; any smooth function of the pressure would serve equally,
    since the pressure is constant on field lines.
    """
    b_and_p = _vortex_fields(params, pressure_profile)
    b, p = b_and_p(*grid.meshgrid())
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
    return _sampled_state(grid, with_label(b, p), meta, StateEvaluators(evaluate))


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
        """M compiled once per spec; may return a scalar for constant M."""
        return compile_numeric(self.text, ["psi"])

    def __call__(self, psi_values: np.ndarray) -> np.ndarray:
        values = np.asarray(self.compiled(psi_values), dtype=float)
        return np.broadcast_to(values, np.shape(psi_values)).copy()

    def factor(self, psi_values: np.ndarray) -> tuple[int, np.ndarray]:
        """Split into (sign, log-magnitude) on the given label values."""
        m = self(psi_values)
        if float(np.min(np.abs(m))) < self.m_min:
            raise ValueError(f"|M| falls below {self.m_min}; no admissible factorization")
        signs = np.sign(m)
        if signs.size and (signs != signs.reshape(-1)[0]).any():
            raise ValueError("M changes sign on the supplied label values")
        alpha = int(signs.reshape(-1)[0]) if signs.size else 1
        return alpha, np.log(np.abs(m))


def _field_line_map(b, pperp, ppar, tau, b2, plasma, m):
    """The nodewise map B -> M B of ``apply_infinite_transform``, shared by
    the sampled arrays and the evaluator.  ``m`` holds M on the ``plasma``
    nodes only, in their order; returns updated copies of (B, p_perp,
    p_par, tau), with every other node passed through."""
    b, pperp, ppar, tau = (np.array(v, dtype=float) for v in (b, pperp, ppar, tau))
    # nodes where M is exactly one stay bit-identical (the identity element)
    moved = m != 1.0
    active = np.array(plasma)
    active[plasma] = moved
    m = m[moved]
    m2 = m**2
    b2_old = np.asarray(b2)[active]
    b2_new = m2 * b2_old
    tau_new = 1.0 - (1.0 - tau[active]) / m2
    pperp_new = pperp[active] + 0.5 * (b2_old - b2_new)
    b[:, active] = m * b[:, active]
    pperp[active] = pperp_new
    ppar[active] = pperp_new + tau_new * b2_new
    tau[active] = tau_new
    return b, pperp, ppar, tau


def _defined_m(spec: TransformSpec, psi: np.ndarray) -> np.ndarray:
    """M on the label values ``psi``; a ValueError where M is undefined
    (NaN).  An infinite M is left to the finite checks on the result."""
    m = spec(psi)
    undefined = np.isnan(m)
    if undefined.any():
        raise ValueError(f"M = {spec.text} is undefined (NaN) at psi = {float(psi[undefined][0]):.6g}")
    return m


def apply_infinite_transform(state: CGLState, spec: TransformSpec) -> CGLState:
    """Rescale B by M(psi) along field lines, adjusting the anisotropy and
    the perpendicular pressure so the anisotropic balance is preserved.

    Nodes outside the plasma (B below the field-null threshold) pass
    through unchanged.  The combination p_perp + tau*B^2/2 is a nodewise
    algebraic invariant of this map.
    """
    b2 = state.b_squared()
    eps_b = _field_null_threshold(b2)
    inside = b2 > eps_b
    attained = _defined_m(spec, state.psi.values[inside])
    if attained.size and float(np.min(np.abs(attained))) < spec.m_min:
        raise ValueError(
            f"|M| falls to {float(np.min(np.abs(attained))):.3e} on the attained label range; "
            f"the transform requires |M| >= {spec.m_min}"
        )
    if np.any(state.tau.values[inside] >= 1.0):
        note = "input state has tau >= 1 somewhere"
    else:
        note = None

    sampled = (state.B.values, state.p_perp.values, state.p_par.values, state.tau.values)
    b_new, pperp_new, ppar_new, tau_new = _field_line_map(*sampled, b2, inside, attained)

    meta = dict(state.meta)
    meta.setdefault("transforms", [])
    meta["transforms"] = [*meta["transforms"], f"M = {spec.text}"]
    if note:
        meta["warnings"] = [*meta.get("warnings", []), note]

    evaluators = None
    if state.evaluators is not None:
        source = state.evaluators.evaluate

        def evaluate(X, Y, Z):
            b, pperp, ppar, tau, psi = (np.asarray(v, dtype=float) for v in source(X, Y, Z))
            b2l = np.einsum("c...,c...->...", b, b)
            plasma = b2l > eps_b
            return (*_field_line_map(b, pperp, ppar, tau, b2l, plasma, _defined_m(spec, psi[plasma])), psi)

        evaluators = StateEvaluators(evaluate)

    return _state(state.grid, (b_new, pperp_new, ppar_new, tau_new, state.psi.values), meta, evaluators)


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


def _resample(state: CGLState, pullback: Callable, push_b: Callable, push_pperp: Callable) -> CGLState:
    """Rebuild the state on its own grid from mapped source coordinates.

    ``pullback`` maps target coordinates to source coordinates; ``push_b``
    and ``push_pperp`` adjust the field and the perpendicular pressure, and
    tau and psi pass through.  Uses the analytic evaluators when available,
    otherwise trilinear interpolation (flagged lossy).
    """
    grid = state.grid
    Xs, Ys, Zs = pullback(*grid.meshgrid())
    meta = dict(state.meta)

    if state.evaluators is not None:
        b, pperp, _ppar, tau, psi = state.evaluators.evaluate(Xs, Ys, Zs)
    else:
        meta["resampling"] = "trilinear (lossy)"
        interp = _trilinear(grid, Xs, Ys, Zs)
        b = np.stack([interp(state.B.values[c]) for c in range(3)])
        pperp, tau, psi = (interp(f.values) for f in (state.p_perp, state.tau, state.psi))
    b = push_b(np.asarray(b, dtype=float))
    pperp = push_pperp(np.asarray(pperp, dtype=float))
    b2 = np.einsum("cijk,cijk->ijk", b, b)
    return _state(grid, (b, pperp, pperp + tau * b2, tau, psi), meta)


def translate_state(state: CGLState, K: tuple[float, float, float] = (0.0, 0.0, 0.0), k4: float = 0.0, eps: float = 1.0) -> CGLState:
    """x' = x + K*eps with the perpendicular pressure shifted by k4*eps."""
    dx, dy, dz = (k * eps for k in K)
    shift = k4 * eps

    def pullback(X, Y, Z):
        return X - dx, Y - dy, Z - dz

    out = _resample(state, pullback, lambda b: b, lambda p: p + shift)
    out.meta["transforms"] = [*state.meta.get("transforms", []), f"translate K={K} k4={k4} eps={eps}"]
    return out


def _euler_zxz(phi: float, theta: float, psi_angle: float) -> np.ndarray:
    c, s = math.cos(phi), math.sin(phi)
    m1 = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    c, s = math.cos(theta), math.sin(theta)
    m2 = np.array([[1.0, 0.0, 0.0], [0.0, c, s], [0.0, -s, c]])
    c, s = math.cos(psi_angle), math.sin(psi_angle)
    m3 = np.array([[c, s, 0.0], [-s, c, 0.0], [0.0, 0.0, 1.0]])
    return m1 @ m2 @ m3


def rotate_state(state: CGLState, phi: float, theta: float, psi_angle: float) -> CGLState:
    """Simultaneous z-x-z rotation of coordinates and field components."""
    rot = _euler_zxz(phi, theta, psi_angle)
    inv = rot.T

    def pullback(X, Y, Z):
        return (
            inv[0, 0] * X + inv[0, 1] * Y + inv[0, 2] * Z,
            inv[1, 0] * X + inv[1, 1] * Y + inv[1, 2] * Z,
            inv[2, 0] * X + inv[2, 1] * Y + inv[2, 2] * Z,
        )

    def push_b(b):
        return np.einsum("rc,c...->r...", rot, b)

    out = _resample(state, pullback, push_b, lambda p: p)
    out.meta["transforms"] = [*state.meta.get("transforms", []), f"rotate euler=({phi},{theta},{psi_angle})"]
    return out


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

    def pullback(X, Y, Z):
        return X / t, Y / t, Z / t

    out = _resample(state, pullback, lambda b: s * b, lambda p: pf * p)
    out.meta["transforms"] = [*state.meta.get("transforms", []), f"scale t={t} s={s} ({pressure_factor})"]
    return out


def anisotropy_scale_state(state: CGLState, C: float) -> CGLState:
    """Rescale (p_perp + B^2/2) and (1 - tau) by C > 0, holding B and x."""
    if C <= 0:
        raise ValueError("the rescaling constant must be positive to preserve tau < 1")
    b2 = state.b_squared()
    pperp = C * (state.p_perp.values + 0.5 * b2) - 0.5 * b2
    tau = 1.0 - C * (1.0 - state.tau.values)
    meta = dict(state.meta)
    meta["transforms"] = [*state.meta.get("transforms", []), f"anisotropy_scale C={C}"]
    return _state(state.grid, (state.B.values, pperp, pperp + tau * b2, tau, state.psi.values), meta)


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
    not applicable.  Margins are the largest values of (criterion left
    side minus right side) over applicable nodes, None where there are none.
    Nodes with p_perp <= 0 or p_par <= 0 are counted as non-physical, and
    when there are any, ``worst_pressure`` names the node of the smallest
    min(p_perp, p_par).
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
    margins = {
        "fire_hose": margin(fire_lhs, applicable),
        "mirror": margin(mirror_lhs, ok),
    }
    p_min = np.minimum(pperp, ppar)
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

RESIDUAL_SYSTEMS = ("mhd", "cgl", "alt")


def residual_fields(state: CGLState, system: str) -> dict[str, ScalarGrid | VectorGrid]:
    """Assemble each governing equation's left-minus-right side on the
    interior grid with central differences.

    ``mhd``: curl(B) x B - grad(p_perp); div(B).
    ``cgl``: the anisotropic balance, div(B), and B . grad tau.
    ``alt``: the recast balance for the scaled field sqrt(1-tau) B with the
    combined pressure p_perp + tau B^2/2, plus its line-constancy.
    """
    if system not in RESIDUAL_SYSTEMS:
        raise ValueError(f"unknown system {system!r}; choose from {RESIDUAL_SYSTEMS}")
    grid = state.grid
    B = state.B
    b2 = state.b_squared()
    divb = fd.divergence(B)

    if system == "mhd":
        momentum = fd.cross(fd.curl(B), B.interior())
        gp = fd.gradient(state.p_perp)
        mom = VectorGrid(momentum.grid, momentum.values - gp.values)
        return {"momentum": mom, "div_b": divb}

    tau = state.tau
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

    # alternative representation: requires tau < 1 where evaluated
    if float(np.max(tau.values)) >= 1.0:
        raise ValueError("the recast system needs tau < 1 everywhere on the grid")
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


def residual_norms(
    state: CGLState, system: str, mask_radius: float | None = None
) -> dict[str, dict]:
    """Linf and L2 norms of every residual, optionally restricted to the
    ball of the given radius (for states smooth only inside a sphere), and
    ``node``, the (i, j, k) index on the state's grid of the Linf maximum."""
    residuals = residual_fields(state, system)
    # every residual lives on the same one-node interior grid
    mask = fd.sphere_mask(state.grid.interior(), mask_radius) if mask_radius is not None else None
    out = {}
    for name, res in residuals.items():
        pointwise = fd.magnitude(res)
        if mask is not None:
            # magnitudes are >= 0, so -1 keeps the maximum on the masked nodes
            pointwise = np.where(mask, pointwise, -1.0)
        # interior index + 1 is the index on the state's grid
        node = np.unravel_index(int(np.argmax(pointwise)), pointwise.shape)
        out[name] = {
            "linf": fd.norm(res, "linf", mask),
            "l2": fd.norm(res, "l2", mask),
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
