"""Finite-difference solver for axially and helically symmetric flux
functions, and the mapping from flux solutions to anisotropic states.

There is one operator, JFKO's with pitch length gamma, ``psi_uu/r^2 +
(1/r) d_r(r/(r^2+gamma^2) psi_r) + J J'/(r^2+gamma^2) + 2 gamma
J/(r^2+gamma^2)^2 + N'``.  At gamma = 0 it is the Grad-Shafranov operator
``psi_rr - psi_r/r + psi_zz + J J' + r^2 N'`` divided by r^2, so an
axisymmetric problem is the gamma = 0 problem, and an optional ``source``
is added to this divided form.  The stencil is conservative (differences
of ``r/(r^2+gamma^2) psi_r`` at r -+ hr/2) with coefficients that depend
on r only, so the operator is separable (the matrix-decomposition method
of Buzbee, Golub & Nielson, SIAM J. Numer. Anal. 7 (1970) 627): an
orthonormal sine transform (DST-I, by numpy's real FFT of each row of m
values zero-padded to length 2(m+1)) along zu diagonalises its zu part,
and each zu sine mode leaves one tridiagonal system in r.  The systems of
all modes are eliminated together, row by row (the Thomas algorithm
vectorised over the modes), with the multipliers and pivots computed once
per solve; every right-hand side then costs two sine transforms and one
sweep each way.  When no profile J, dJ or dN depends on psi, the
right-hand side is the same at every iteration and is eliminated once.
The Dirichlet data enter as the stencil applied to the boundary values, a
fixed right-hand-side term, so the boundary values are imposed exactly and
never touched by the iteration.  The terms in J and N are frozen at the
previous iterate and relaxed: damped Picard iteration around the one
elimination.

A mapped state evaluates psi through the tensor-product not-a-knot
bicubic interpolant of the solution (de Boor, A Practical Guide to
Splines), the interpolant FITPACK's s = 0 bicubic spline also is, and
refuses points outside the solution domain.  Its pressure profile N(psi)
is integrated from dN by fixed 8-point Gauss-Legendre quadrature on 256
panels and interpolated by cubic Hermite polynomials through N and dN at
the panel ends.

The module needs numpy alone.
"""

from __future__ import annotations

import functools
import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import fields as fd
from .expr import compile_numeric
from .fields import Grid3

if TYPE_CHECKING:
    from .equilibria import CGLState

__all__ = [
    "FluxProblem",
    "FluxSolution",
    "SolverDiverged",
    "solve_flux",
    "flux_to_cgl",
    "default_cartesian_box",
    "parse_problem_file",
    "write_solution",
    "load_solution",
]

GEOMETRIES = ("axisymmetric", "helical")


class SolverDiverged(RuntimeError):
    pass


def __getattr__(name: str):
    """``splu`` and ``quad``, never called here: the benchmark's tracer
    (perfbench/spans.py) wraps them by name until ROADMAP item 1 retires
    those hooks, so they import scipy only when asked for."""
    if name == "splu":
        from scipy.sparse.linalg import splu

        return splu
    if name == "quad":
        from scipy.integrate import quad

        return quad
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _as_profile(spec, variables: tuple[str, ...]):
    """Normalize a profile, a callable or an expression (a number is the
    expression of its decimal text), into a vectorized callable plus its
    text form (None for a callable without one)."""
    if spec is None:
        return None, None
    if callable(spec):
        return spec, getattr(spec, "text", None)
    fn = compile_numeric(str(spec), variables)
    return fn, fn.text


@dataclass
class FluxProblem:
    """Elliptic problem for the flux function on [r0, r1] x [zu0, zu1].

    ``J``/``dJ`` are the poloidal-current profile and its derivative;
    ``dN`` is the pressure-profile derivative.  ``boundary`` supplies
    Dirichlet data as a function of (r, zu); ``source`` is an optional extra
    term S(r, zu) added to the JFKO form of the equation (used by
    manufactured-solution tests).  Profile consistency (dJ against J) is probed
    numerically, not enforced.  ``texts`` holds the expression text of every
    profile that has one.
    """

    r_range: tuple[float, float]
    zu_range: tuple[float, float]
    boundary: object
    J: object = 0.0
    dJ: object = 0.0
    dN: object = 0.0
    gamma: float = 0.0
    source: object = None
    texts: dict = field(init=False, repr=False)

    def __post_init__(self):
        r0, r1 = self.r_range
        if not (0.0 < r0 < r1):
            raise ValueError("radial domain requires 0 < r0 < r1 (the axis is excluded)")
        a, b = self.zu_range
        if not a < b:
            raise ValueError("empty zu range")
        self.texts = {}
        for key in ("J", "dJ", "dN", "boundary", "source"):
            fn, text = _as_profile(getattr(self, key), ("r", "zu") if key in ("boundary", "source") else ("psi",))
            setattr(self, key, fn)
            if text is not None:
                self.texts[key] = text

    @property
    def geometry(self) -> str:
        """``helical`` for a nonzero pitch length gamma, else ``axisymmetric``."""
        return "helical" if self.gamma else "axisymmetric"


@dataclass(frozen=True)
class FluxSolution:
    """A solved problem; ``updates`` holds the max-norm update of each
    Picard iteration, in order."""

    problem: FluxProblem
    r: np.ndarray
    zu: np.ndarray
    psi: np.ndarray
    updates: tuple[float, ...]
    converged: bool

    @property
    def iterations(self) -> int:
        return len(self.updates)

    @property
    def final_update(self) -> float:
        return self.updates[-1]

    def spline(self) -> BicubicSpline:
        return BicubicSpline(self.r, self.zu, self.psi)

    def attained_range(self) -> tuple[float, float]:
        return float(self.psi.min()), float(self.psi.max())


def _spline_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The slopes at the knots x of the not-a-knot cubic spline through
    each column of y (third derivative continuous at x[1] and x[-2]; de
    Boor's conditions, as in scipy's CubicSpline), by one dense solve.

    Interior rows are the C2 conditions h_i s_(i-1) + 2 (h_(i-1) + h_i) s_i
    + h_(i-1) s_(i+1) = 3 (h_i d_(i-1) + h_(i-1) d_i), d_i the secant slope
    (y_(i+1) - y_i)/h_i.
    """
    n = len(x)
    h = np.diff(x)
    hc = h[:, None]
    secant = np.diff(y, axis=0) / hc
    A = np.zeros((n, n))
    rhs = np.empty(y.shape)
    i = np.arange(1, n - 1)
    A[i, i - 1], A[i, i], A[i, i + 1] = h[1:], 2.0 * (h[:-1] + h[1:]), h[:-1]
    rhs[1:-1] = 3.0 * (hc[1:] * secant[:-1] + hc[:-1] * secant[1:])
    d = h[0] + h[1]
    A[0, :2] = h[1], d
    rhs[0] = ((h[0] + 2.0 * d) * h[1] * secant[0] + h[0] ** 2 * secant[1]) / d
    d = h[-2] + h[-1]
    A[-1, -2:] = d, h[-2]
    rhs[-1] = (h[-1] ** 2 * secant[-2] + (2.0 * d + h[-1]) * h[-2] * secant[-1]) / d
    return np.linalg.solve(A, rhs)


def _hermite(values: np.ndarray, slopes: np.ndarray, h: np.ndarray, axis: int) -> list[np.ndarray]:
    """The power-basis coefficients c0..c3 of the cubic on each interval
    [x_i, x_i + h_i] along ``axis`` that takes the given values and slopes
    at both ends, as polynomials in x - x_i."""
    lead = (slice(None),) * axis
    v0, v1 = values[(*lead, slice(None, -1))], values[(*lead, slice(1, None))]
    s0, s1 = slopes[(*lead, slice(None, -1))], slopes[(*lead, slice(1, None))]
    h = h.reshape((-1,) + (1,) * (values.ndim - axis - 1))
    secant = (v1 - v0) / h
    return [v0, s0, (3.0 * secant - 2.0 * s0 - s1) / h, (s0 + s1 - 2.0 * secant) / (h * h)]


def _horner(coefficients: np.ndarray, t: np.ndarray, order: int) -> np.ndarray:
    """The ``order``-th derivative (order <= 3) at t of the cubics whose
    power-basis coefficients run along the last axis."""
    out = coefficients[..., 3] * math.perm(3, order)
    for k in range(2, order - 1, -1):
        out *= t
        out += coefficients[..., k] if order == 0 else math.perm(k, order) * coefficients[..., k]
    return out


class BicubicSpline:
    """The tensor-product not-a-knot cubic spline interpolant of ``z`` on
    the knots ``x`` x ``y`` (at least 4 each): FITPACK's s = 0, kx = ky = 3
    interpolant (``RectBivariateSpline``), whose interior knots x[2:-2]
    make it not-a-knot, up to rounding.

    It is held in piecewise-polynomial form, 16 coefficients per cell.
    ``locate`` finds the cell of each point and ``horner`` evaluates there
    by Horner's rule, so several derivatives at the same points share one
    lookup; ``ev`` does both.  Points outside the knot box are clamped to
    it, as FITPACK clamps them.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        if min(len(x), len(y)) < 4:
            raise ValueError("a bicubic spline needs at least 4 knots per axis")
        self.x, self.y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        hx, hy = np.diff(self.x), np.diff(self.y)
        z_x = _spline_slopes(self.x, z)
        z_y, z_xy = np.split(_spline_slopes(self.y, np.concatenate([z, z_x]).T).T, 2)
        along_x = zip(_hermite(z, z_x, hx, 0), _hermite(z_y, z_xy, hx, 0))
        # coefficient of (x - x_i)^p (y - y_j)^q at [i (len(y) - 1) + j, p, q]
        self.coefficients = np.stack(
            [np.stack(_hermite(c, c_y, hy, 1), axis=-1) for c, c_y in along_x], axis=-2
        ).reshape(-1, 4, 4)

    def locate(self, xi, yi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The cell lookup of the points (xi, yi), flattened: the gathered
        coefficients of each point's cell and its offsets t, u from the
        cell's corner, for any number of ``horner`` calls."""
        xi, yi = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(yi, dtype=float))
        cells = []
        for knots, points in ((self.x, xi.ravel()), (self.y, yi.ravel())):
            points = np.clip(points, knots[0], knots[-1])
            i = np.clip(np.searchsorted(knots, points, side="right") - 1, 0, len(knots) - 2)
            cells.append((i, points - knots[i]))
        (i, t), (j, u) = cells
        return np.take(self.coefficients, i * (len(self.y) - 1) + j, axis=0), t, u

    @staticmethod
    def horner(located: tuple[np.ndarray, np.ndarray, np.ndarray], dx: int = 0, dy: int = 0) -> np.ndarray:
        """The spline, or its partial derivative of order (dx, dy), each at
        most 3, at the points of ``locate``, flattened."""
        coefficients, t, u = located
        return _horner(_horner(coefficients, u[:, None], dy), t, dx)

    def ev(self, xi, yi, dx: int = 0, dy: int = 0) -> np.ndarray:
        """The spline, or its partial derivative of order (dx, dy), each at
        most 3, at the points (xi, yi)."""
        shape = np.broadcast_shapes(np.shape(xi), np.shape(yi))
        return self.horner(self.locate(xi, yi), dx, dy).reshape(shape)


def _sine_transform(padded: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """scale times the DST-I sum_j x_j sin(pi j k/(m+1)), k = 1..m, of each
    row x = padded[:, 1:m+1] of an n x 2(m+1) array that is zero elsewhere:
    minus the imaginary part of the real FFT of the rows.  (That is half the
    transform of the odd extension [0, x, 0, -x reversed], which needs a
    second copy of x.)  scale = sqrt(2/(m+1)) gives the orthonormal DST-I,
    its own inverse."""
    m = padded.shape[1] // 2 - 1
    return np.multiply(np.fft.rfft(padded, axis=1).imag[:, 1 : m + 1], -scale, out=out)


def _interior_solver(problem: FluxProblem, r: np.ndarray, zu: np.ndarray, psi: np.ndarray):
    """The linear solve of the five-point stencil under the boundary values
    of ``psi``: a function taking the interior right-hand side f and
    returning the interior u with stencil(u with psi's boundary) = f.

    The stencil applied to the boundary values alone is a fixed term moved
    to the right-hand side.  The orthonormal DST-I (its own inverse)
    diagonalises the zu neighbour matrix of the m interior zu nodes with
    eigenvalues 2 cos(k pi/(m+1)), k = 1..m, so zu sine mode k is one
    tridiagonal system in r with diagonal c_center + 2 cos(k pi/(m+1)) c_n.
    The transform leaves the n x m array with one row per interior r node
    and one column per mode, so each step of the Thomas algorithm is one
    contiguous row operation over all modes.  The multipliers and
    reciprocal pivots are computed once, here; each right-hand side then
    costs n - 1 forward and n - 1 backward row updates, in place.  The
    solver keeps no right-hand side: f may be any array that broadcasts to
    the n x m interior (an n x 1 column for one that depends on r only),
    and the caller decides when a right-hand side needs solving again.  It
    returns a read-only view of its own result buffer, valid until the next
    call.

    No pivoting is needed: c_w, c_e, c_n > 0 for every r > 0, so the diagonal
    -(c_w + c_e) - (2 - 2 cos(k pi/(m+1))) c_n of mode k exceeds |c_w| + |c_e|
    in magnitude.  The dominance is checked here all the same, and a
    ValueError raised if rounding ever breaks it.
    """
    nr, nzu = len(r), len(zu)
    hr = r[1] - r[0]
    hz = zu[1] - zu[0]
    # coefficients per radial node row (independent of zu)
    g2 = problem.gamma**2
    half_e, half_w = r + 0.5 * hr, r - 0.5 * hr
    c_half_e = half_e / (half_e * half_e + g2)
    c_half_w = half_w / (half_w * half_w + g2)
    c_e = c_half_e / (r * hr**2)
    c_w = c_half_w / (r * hr**2)
    c_n = 1.0 / (hz**2 * r**2)
    c_center = -(c_half_e + c_half_w) / (r * hr**2) - 2.0 / (hz**2 * r**2)

    n, m = nr - 2, nzu - 2
    bterm = np.zeros((n, m))
    bterm[0] += c_w[1] * psi[0, 1:-1]
    bterm[-1] += c_e[-2] * psi[-1, 1:-1]
    bterm[:, 0] += c_n[1:-1] * psi[1:-1, 0]
    bterm[:, -1] += c_n[1:-1] * psi[1:-1, -1]

    c_w, c_e, c_n, c_center = (c[1:-1] for c in (c_w, c_e, c_n, c_center))
    eigen = 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    pivot = c_center[:, None] + c_n[:, None] * eigen
    if not (np.abs(pivot) > (np.abs(c_w) + np.abs(c_e))[:, None]).all():
        raise ValueError("the radial mode systems are not diagonally dominant on this grid")
    # forward elimination of the sub-diagonal c_w, once per solve
    multiplier = np.empty((n, m))
    for i in range(1, n):
        multiplier[i] = c_w[i] / pivot[i - 1]
        pivot[i] -= multiplier[i] * c_e[i - 1]
    inv_pivot = 1.0 / pivot
    # the sine transforms and the elimination work in place on u, the
    # nonzero columns of the zero-padded rows that _sine_transform takes
    padded = np.zeros((n, 2 * (m + 1)))
    u = padded[:, 1 : m + 1]
    scale = 2.0 / (m + 1)  # both orthonormal factors sqrt(2/(m+1)), applied once
    result = np.empty((n, m))
    returned = result.view()
    returned.flags.writeable = False

    def solve(rhs: np.ndarray) -> np.ndarray:
        np.subtract(rhs, bterm, out=u)
        _sine_transform(padded, scale, out=u)
        for i in range(1, n):
            u[i] -= multiplier[i] * u[i - 1]
        u[-1] *= inv_pivot[-1]
        for i in range(n - 2, -1, -1):
            u[i] -= c_e[i] * u[i + 1]
            u[i] *= inv_pivot[i]
        _sine_transform(padded, 1.0, out=result)
        return returned

    return solve


def _nonlinear_term(problem: FluxProblem, r: np.ndarray, S: np.ndarray | None):
    """psi -> J dJ/(r^2+gamma^2) + 2 gamma J/(r^2+gamma^2)^2 + dN + S at the
    radii r, an n x 1 column of the interior radii (or any array that
    broadcasts against psi); the r-only factors are computed once.  Raises
    ArithmeticError where the value is not finite."""
    inv = 1.0 / (r**2 + problem.gamma**2)
    current = 2.0 * problem.gamma * inv**2

    def g(psi: np.ndarray) -> np.ndarray:
        out = problem.J(psi) * (problem.dJ(psi) * inv + current) + problem.dN(psi)
        if S is not None:
            out = out + S
        if not np.isfinite(out).all():
            raise ArithmeticError("constitutive profile evaluated to a non-finite value")
        return out

    return g


def _depends_on_psi(profile) -> bool:
    """Whether a compiled profile may vary with psi: a callable without an
    expression is taken to."""
    expression = getattr(profile, "expression", None)
    return expression is None or any(s.name == "psi" for s in expression.symbols())


def solve_flux(
    problem: FluxProblem,
    shape: tuple[int, int] = (33, 33),
    tol_outer: float = 1e-10,
    max_iter: int = 500,
    omega: float = 0.8,
) -> FluxSolution:
    """Damped Picard iteration around one linear solver, set up once.

    When no profile depends on psi, the right-hand side is evaluated,
    eliminated and damped once, and each iteration is the damped update
    alone.  The iterate and its successor live in two interior buffers
    that swap; psi's interior is written once, at the end."""
    nr, nzu = shape
    if nr < 9 or nzu < 9:
        raise ValueError("resolution must be at least 9 x 9")
    if not 0.0 < omega <= 1.0:
        raise ValueError("relaxation weight must lie in (0, 1]")
    if max_iter < 1:
        raise ValueError(f"iteration cap must be at least 1, got {max_iter}")
    if not (math.isfinite(tol_outer) and tol_outer > 0.0):
        raise ValueError(f"tolerance must be a positive finite number, got {tol_outer}")
    r = np.linspace(*problem.r_range, nr)
    zu = np.linspace(*problem.zu_range, nzu)

    psi = np.zeros((nr, nzu))
    psi[0, :] = problem.boundary(np.full(nzu, r[0]), zu)
    psi[-1, :] = problem.boundary(np.full(nzu, r[-1]), zu)
    psi[:, 0] = problem.boundary(r, np.full(nr, zu[0]))
    psi[:, -1] = problem.boundary(r, np.full(nr, zu[-1]))
    if not np.isfinite(psi).all():
        raise ValueError("boundary data is not finite")

    solve = _interior_solver(problem, r, zu, psi)
    S = None
    if problem.source is not None:
        S = problem.source(*np.meshgrid(r[1:-1], zu[1:-1], indexing="ij"))
    nonlinear = _nonlinear_term(problem, r[1:-1, None], S)

    current, following = np.zeros((nr - 2, nzu - 2)), np.empty((nr - 2, nzu - 2))
    step = None
    if not any(_depends_on_psi(f) for f in (problem.J, problem.dJ, problem.dN)):
        step = omega * solve(-nonlinear(current))
    updates: list[float] = []
    converged = False
    for _ in range(max_iter):
        np.multiply(current, 1.0 - omega, out=following)
        following += step if step is not None else omega * solve(-nonlinear(current))
        # current turns into the update, following into the iterate
        np.subtract(following, current, out=current)
        updates.append(float(np.max(np.abs(current, out=current))))
        current, following = following, current
        if updates[-1] < tol_outer:
            converged = True
            break
        if len(updates) > 20 and updates[-1] > 10.0 * updates[-21]:
            raise SolverDiverged(
                f"update norm grew from {updates[-21]:.3e} to {updates[-1]:.3e} over 20 iterations"
            )
    psi[1:-1, 1:-1] = current
    if not converged:
        warnings.warn(
            f"flux solve stopped at the iteration cap ({max_iter}) with update {updates[-1]:.3e}",
            RuntimeWarning,
            stacklevel=2,
        )

    solution = FluxSolution(problem, r, zu, psi, tuple(updates), converged)
    _warn_on_inconsistent_profiles(problem, solution)
    return solution


def _warn_on_inconsistent_profiles(problem: FluxProblem, sol: FluxSolution) -> None:
    """Probe dJ against a numeric derivative of J at five attained values."""
    lo, hi = sol.attained_range()
    if hi - lo <= 0:
        return
    samples = np.linspace(lo, hi, 5)
    step = (hi - lo) * 1e-6
    numeric = (problem.J(samples + step) - problem.J(samples - step)) / (2.0 * step)
    stated = problem.dJ(samples)
    scale = max(1.0, float(np.max(np.abs(numeric))), float(np.max(np.abs(stated))))
    worst = float(np.max(np.abs(numeric - stated))) / scale
    if worst > 1e-4:
        warnings.warn(
            f"profile dJ deviates from the numeric derivative of J "
            f"(relative mismatch {worst:.2e} on the attained range)",
            RuntimeWarning,
            stacklevel=3,
        )


# ---------------------------------------------------------------------------
# Mapping a flux solution to an anisotropic state
# ---------------------------------------------------------------------------


def default_cartesian_box(problem: FluxProblem, counts: int | tuple[int, int, int] = 33) -> Grid3:
    """A Cartesian box strictly inside the helically extended domain (revolved
    at gamma = 0), so every node maps to valid (r, zu) coordinates."""
    r0, r1 = problem.r_range
    a, b = problem.zu_range
    m = 0.1 * (r1 - r0)
    y_max = m
    x_lo = r0 + m
    x_hi = math.sqrt((r1 - m) ** 2 - y_max**2)
    if x_hi <= x_lo:
        raise ValueError("radial domain too thin for the default box; pass an explicit grid")
    mz = 0.1 * (b - a)
    # zu = z - gamma phi: the box's zu range widens by gamma times its phi range
    pad = abs(problem.gamma) * math.atan2(y_max, x_lo)
    z_lo, z_hi = a + mz + pad, b - mz - pad
    if z_lo >= z_hi:
        raise ValueError("zu range too thin for the helical default box; pass an explicit grid")
    if isinstance(counts, int):
        counts = (counts, counts, counts)
    if min(counts) < 2:
        raise ValueError("a grid needs at least 2 nodes per axis")
    nx, ny, nz = counts
    return Grid3(
        (x_lo, -y_max, z_lo),
        ((x_hi - x_lo) / (nx - 1), 2 * y_max / (ny - 1), (z_hi - z_lo) / (nz - 1)),
        counts,
    )


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """8-point Gauss-Legendre nodes and weights on [-1, 1], computed on the
    first ``flux tocgl`` rather than on every import of this module."""
    return np.polynomial.legendre.leggauss(8)


def _pressure_antiderivative(problem: FluxProblem, sol: FluxSolution):
    """N(psi), the integral of dN from the smallest attained flux value lo,
    over the attained range padded by 2 % on either side.

    257 knots split the padded range into 256 panels, with one knot at lo
    exactly.  Each panel's integral of dN is an 8-point Gauss-Legendre sum
    (dN is evaluated once, at every node and knot), and the panels are
    summed outward from lo in both directions, so N(lo) = 0 exactly.  N is
    the cubic Hermite interpolant through N and its exact slope dN at the
    knots, exact for dN of degree <= 2.
    """
    lo, hi = sol.attained_range()
    pad = 0.02 * max(hi - lo, 1e-12)
    start, stop = lo - pad, hi + pad
    below = round(256 * pad / (stop - start))  # panels below lo
    knots = np.concatenate([np.linspace(start, lo, below + 1)[:-1], np.linspace(lo, stop, 257 - below)])
    width = np.diff(knots)
    gauss_nodes, gauss_weights = _gauss_legendre()
    nodes = 0.5 * (knots[:-1] + knots[1:])[:, None] + 0.5 * width[:, None] * gauss_nodes
    points = np.concatenate([knots, nodes.ravel()])
    dn = np.broadcast_to(np.asarray(problem.dN(points), dtype=float), points.shape)
    bad = ~np.isfinite(dn)
    if bad.any():
        raise ValueError(
            f"dN is not finite at psi = {float(points[bad].min()):.6g} on the padded flux range "
            f"[{start:.6g}, {stop:.6g}]"
        )
    slope = dn[: len(knots)]
    panels = 0.5 * width * (dn[len(knots) :].reshape(-1, 8) @ gauss_weights)
    values = np.zeros(len(knots))
    values[below + 1 :] = np.cumsum(panels[below:])
    values[:below] = -np.cumsum(panels[:below][::-1])[::-1]

    def n_of(psi: np.ndarray) -> np.ndarray:
        k = np.clip(np.searchsorted(knots, psi, side="right") - 1, 0, len(width) - 1)
        h = width[k]
        t = (psi - knots[k]) / h
        t2 = t * t
        return (
            values[k] * ((2.0 * t - 3.0) * t2 + 1.0)
            + values[k + 1] * ((3.0 - 2.0 * t) * t2)
            + h * (slope[k] * (((t - 2.0) * t + 1.0) * t) + slope[k + 1] * ((t - 1.0) * t2))
        )

    return n_of


def _require_in_domain(problem: FluxProblem, R: np.ndarray, ZU: np.ndarray) -> None:
    """Refuse points (r, zu) outside the solution domain by more than
    rounding (1e-12 relative): the spline would clamp them to its edge."""
    extents = [(float(v.min()), float(v.max())) for v in (R, ZU)]
    domain = (problem.r_range, problem.zu_range)
    for (lo, hi), (a, b) in zip(extents, domain):
        slack = 1e-12 * max(abs(a), abs(b))
        if lo < a - slack or hi > b + slack:
            (r_lo, r_hi), (z_lo, z_hi) = extents
            (r0, r1), (zu0, zu1) = domain
            raise ValueError(
                f"the points reach r in [{r_lo:.6g}, {r_hi:.6g}] and zu in [{z_lo:.6g}, {z_hi:.6g}], "
                f"outside the solution domain r in [{r0:.6g}, {r1:.6g}], zu in [{zu0:.6g}, {zu1:.6g}]"
            )


def flux_to_cgl(sol: FluxSolution, tau, grid: Grid3 | None = None) -> CGLState:
    """Build a 3D anisotropic state from a flux solution.

    ``tau`` (an expression in psi, a number, or a callable) must be finite
    and stay below one on the attained flux range.  The field follows the
    symmetric-state template with the overall 1/sqrt(1-tau) factor;
    pressures are N(psi) -+ tau B^2/2 with N integrated from the stated
    profile derivative, N = 0 at the smallest attained flux value.  The
    stored label is psi normalized by its largest magnitude on the 2D
    solution.  The state's evaluator refuses points outside the solution
    domain [r0, r1] x [zu0, zu1] with a ValueError naming the extent of the
    points it was given.  ``grid`` is sampled in x-slab blocks
    (``equilibria.sample_state``), as a later point transform is, so the
    extent named is that of the first block that leaves the domain.
    """
    # imported here: ``flux solve`` needs none of the equilibria module
    from .equilibria import StateEvaluators, require_defined, sample_state

    problem = sol.problem
    tau_fn, tau_text = _as_profile(tau, ("psi",))
    lo, hi = sol.attained_range()
    psi_probe = np.linspace(lo, hi, 513)
    probe = np.broadcast_to(np.asarray(tau_fn(psi_probe), dtype=float), psi_probe.shape)
    require_defined(f"tau = {tau_text}" if tau_text else "tau", probe, psi_probe)
    if float(np.max(probe)) >= 1.0:
        raise ValueError(
            f"tau reaches {float(np.max(probe)):.6g} on the attained flux range; the mapping needs tau < 1"
        )
    n_of = _pressure_antiderivative(problem, sol)
    spline = sol.spline()
    psi_scale = max(abs(lo), abs(hi)) or 1.0
    gamma = problem.gamma

    def evaluate(X, Y, Z):
        R = np.hypot(X, Y)
        phi = np.arctan2(Y, X)
        ZU = Z - gamma * phi
        _require_in_domain(problem, R, ZU)
        # one cell lookup serves psi and both first derivatives
        located = spline.locate(R, ZU)
        psi, psi_r, psi_zu = (spline.horner(located, *d).reshape(ZU.shape) for d in ((0, 0), (1, 0), (0, 1)))
        tau_v = tau_fn(psi)
        factor = 1.0 / np.sqrt(1.0 - tau_v)
        Jv = problem.J(psi)
        b_r = psi_zu / R
        denom = R**2 + gamma**2
        b_z = (gamma * Jv - R * psi_r) / denom
        b_phi = (R * Jv + gamma * psi_r) / denom
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        b = factor[None, ...] * np.stack([b_r * cos_p - b_phi * sin_p, b_r * sin_p + b_phi * cos_p, b_z])
        tau_v = tau_v * np.ones_like(psi)
        half_tau_b2 = 0.5 * tau_v * np.einsum("c...,c...->...", b, b)
        n_v = n_of(psi)
        return b, n_v - half_tau_b2, n_v + half_tau_b2, tau_v, psi / psi_scale

    if grid is None:
        grid = default_cartesian_box(problem)
    meta = {
        "family": f"flux-{problem.geometry}",
        "gamma": gamma,
        "tau_profile": tau_text,
        "psi_ref": lo,
        "psi_normalization": psi_scale,
        "profiles": dict(problem.texts),
        "solution_converged": sol.converged,
    }
    return sample_state(StateEvaluators(evaluate), grid, meta)


# ---------------------------------------------------------------------------
# Problem files and solution artifacts
# ---------------------------------------------------------------------------

_DOMAIN_KEYS = ("r0", "r1", "zu0", "zu1")
_PROFILE_KEYS = ("J", "dJ", "dN", "boundary", "source")
_SOLVER_KEYS = {"nr": int, "nzu": int, "max_iter": int, "tol": float, "omega": float}
_MANIFEST_KEYS = ("geometry", "profiles", "psi_csv", "resolution", "iterations", "final_update", "converged", "updates")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_finite(value) -> bool:
    if not (_is_int(value) or isinstance(value, float)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an integer beyond the float range
        return False


# what each recorded solver value must be, as (description, test)
_MANIFEST_VALUES = {
    "resolution": ("two integers", lambda v: isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))),
    "iterations": ("a positive integer", lambda v: _is_int(v) and v > 0),
    "final_update": ("a finite number", _is_finite),
    "converged": ("true or false", lambda v: isinstance(v, bool)),
    "updates": ("a list of finite numbers", lambda v: isinstance(v, list) and all(map(_is_finite, v))),
}


def _number(value, key: str, where: str, kind=float):
    try:
        number = kind(value)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {key} is not {'an integer' if kind is int else 'a number'}: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{where}: {key} must be finite, got {number}")
    return number


def _problem(entries: dict, where: str) -> FluxProblem:
    """Build a problem from its entries: the domain ``r0 r1 zu0 zu1``,
    ``gamma`` and the profiles, with numbers given as numbers or as text,
    and optionally ``geometry``, which must agree with ``gamma``.  ``where``
    names the source in error messages."""
    missing = [k for k in _DOMAIN_KEYS if k not in entries]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(missing)}")
    if "boundary" not in entries:
        raise ValueError(f"{where} is missing the boundary expression")
    r0, r1, zu0, zu1, gamma = (_number(entries.get(k, 0.0), k, where) for k in (*_DOMAIN_KEYS, "gamma"))
    problem = FluxProblem(
        (r0, r1), (zu0, zu1), gamma=gamma, **{k: entries[k] for k in _PROFILE_KEYS if k in entries}
    )
    if entries.get("geometry", problem.geometry) != problem.geometry:
        raise ValueError(f"geometry must be one of {GEOMETRIES} and agree with gamma = {gamma}: "
                         "helical for a nonzero pitch length, axisymmetric for 0")
    return problem


def parse_problem_file(text: str) -> tuple[FluxProblem, dict]:
    """Parse ``key = value`` lines; expression values stay text until use.

    Returns the problem plus solver parameters (resolution, tolerance,
    iteration cap, relaxation weight).  ``dL`` (the helical name) is an
    alias of ``dN``.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    unknown = entries.keys() - {"geometry", "gamma", "dL", *_DOMAIN_KEYS, *_PROFILE_KEYS, *_SOLVER_KEYS}
    if unknown:
        raise ValueError(f"unrecognized problem keys: {sorted(unknown)}")
    if "dL" in entries:
        if "dN" in entries:
            raise ValueError("give either dN (axisymmetric) or dL (helical), not both")
        entries["dN"] = entries.pop("dL")
    problem = _problem(entries, "problem file")
    solver = {k: _number(entries[k], k, "problem file", kind) for k, kind in _SOLVER_KEYS.items() if k in entries}
    params = {
        "shape": (solver.get("nr", 33), solver.get("nzu", 33)),
        "tol_outer": solver.get("tol", 1e-10),
        "max_iter": solver.get("max_iter", 500),
        "omega": solver.get("omega", 0.8),
    }
    return problem, params


def write_solution(sol: FluxSolution, directory) -> dict:
    """Write psi.csv (r, zu, psi; zu fastest) plus solution.json and return
    the manifest; writes nothing for a problem it cannot serialize."""
    problem = sol.problem
    missing = [k for k in ("J", "dJ", "dN", "boundary") if k not in problem.texts]
    if missing:
        raise ValueError(
            f"cannot serialize a problem whose profiles {missing} were supplied as callables"
        )
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "psi.csv"
    fd.write_csv(csv_path, {"r": sol.r, "zu": sol.zu}, {"psi": sol.psi})
    manifest = {
        "geometry": problem.geometry,
        "r0": problem.r_range[0],
        "r1": problem.r_range[1],
        "zu0": problem.zu_range[0],
        "zu1": problem.zu_range[1],
        "gamma": problem.gamma,
        "profiles": problem.texts,
        "resolution": [len(sol.r), len(sol.zu)],
        "iterations": sol.iterations,
        "final_update": sol.final_update,
        "updates": list(sol.updates),
        "converged": sol.converged,
        "psi_csv": csv_path.name,
    }
    with open(directory / "solution.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return manifest


def load_solution(path) -> FluxSolution:
    path = Path(path)
    with open(path) as fh:
        manifest = json.load(fh)
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"{path}: solution manifest is missing {', '.join(missing)}")
    if not isinstance(manifest["profiles"], dict):
        raise ValueError(f"{path}: solution manifest profiles must map names to expressions")
    where = f"{path}: solution manifest"
    for key, (kind, test) in _MANIFEST_VALUES.items():
        if not test(manifest[key]):
            raise ValueError(f"{where}: {key} must be {kind}, got {manifest[key]!r}")
    updates = tuple(float(u) for u in manifest["updates"])
    if len(updates) != manifest["iterations"] or updates[-1] != manifest["final_update"]:
        raise ValueError(f"{where}: updates must hold one entry per iteration, the last equal to final_update")
    problem = _problem({**manifest, **manifest["profiles"]}, where)
    csv_path = path.parent / manifest["psi_csv"]
    (r, zu), cols = fd.read_csv(csv_path, ("r", "zu"))
    if list(cols) != ["psi"]:
        raise ValueError(f"{csv_path}: expected columns r,zu,psi")
    if [len(r), len(zu)] != list(manifest["resolution"]):
        raise ValueError(f"{csv_path}: solution CSV does not match the recorded resolution")
    for name, axis, (lo, hi) in (("r", r, problem.r_range), ("zu", zu, problem.zu_range)):
        if max(abs(axis[0] - lo), abs(axis[-1] - hi)) > 1e-12 * max(abs(lo), abs(hi)):
            raise ValueError(f"{csv_path}: {name} runs over [{axis[0]:.17g}, {axis[-1]:.17g}], "
                             f"not over the domain [{lo:.17g}, {hi:.17g}] that {path.name} records")
    return FluxSolution(problem, r, zu, cols["psi"], updates, manifest["converged"])
