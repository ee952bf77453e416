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
sweep each way.  The Dirichlet data enter as the stencil applied to the
boundary values, a fixed right-hand-side term, so they hold exactly.  The
rest, g = J J' q + 2 gamma J q^2 + N', q = 1/(r^2+gamma^2), is one kernel
expression, whose psi-derivatives the kernel takes exactly.  When g'' is
the zero expression, g = g(0) + g' psi, g' a function of r that joins each
mode's diagonal, and one elimination is the discrete solution (g' = 0 for
a psi-free problem).  Otherwise Newton's method, each step by GMRES
preconditioned by the stencil's elimination, solves the discrete equation
(Newton-Krylov: Knoll & Keyes, J. Comput. Phys. 193 (2004) 357).

A mapped state is the field-line image (M = (1 - tau)^(-1/2)) of the
isotropic Grad-Shafranov/JFKO state B, P = N(psi), which ``check --system
alt`` inverts.  It evaluates psi through the tensor-product not-a-knot
bicubic interpolant of the solution (de Boor, A Practical Guide to
Splines), the interpolant FITPACK's s = 0 bicubic spline also is, and
refuses points outside the solution domain.  N(psi) is the stated N, or
the exact antiderivative of a polynomial dN, zero at the smallest attained
flux value.

The module needs numpy alone.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import fields as fd
from . import number
from .expr import ExprError, Symbol, compile_numeric
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


class SolverDiverged(ArithmeticError):
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


def _compile_profile(key: str, spec, variables: tuple[str, ...]):
    """The expression ``spec`` (a number is that of its decimal text) as a
    vectorized callable of ``variables``; a Python callable is refused."""
    if callable(spec):
        raise ValueError(f"{key}: a profile is an expression in {' and '.join(variables)}, not a Python callable")
    return compile_numeric(str(spec), variables)


@dataclass
class FluxProblem:
    """Elliptic problem for the flux function on [r0, r1] x [zu0, zu1].

    ``J`` (the poloidal current) and ``N`` (the pressure) are expressions
    in psi, and the solve takes their exact derivatives ``dJ`` and ``dN``.
    A stated ``dJ`` must be J' as the kernel writes it; ``dN`` may be
    stated in place of N (``FluxSolution.pressure``).  ``boundary``
    (Dirichlet data) and the optional ``source`` (a term added to the JFKO
    form of the equation) are expressions in r and zu.  A number stands
    for its decimal text, and a Python callable is refused.  ``texts``
    holds the expression text of every stated profile.
    """

    r_range: tuple[float, float]
    zu_range: tuple[float, float]
    boundary: object
    J: object = 0.0
    dJ: object = None
    dN: object = None
    gamma: float = 0.0
    source: object = None
    N: object = None
    texts: dict = field(init=False, repr=False)

    def __post_init__(self):
        r0, r1 = self.r_range
        if not (0.0 < r0 < r1):
            raise ValueError("radial domain requires 0 < r0 < r1 (the axis is excluded)")
        a, b = self.zu_range
        if not a < b:
            raise ValueError("empty zu range")
        try:
            self.gamma = float(self.gamma)
        except OverflowError:
            raise ValueError("gamma is too large: it is beyond the float range") from None
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if not math.isfinite(self.gamma * self.gamma):
            raise ValueError(f"gamma = {self.gamma} is too large: its square is beyond the float range")
        if self.J is None:
            raise ValueError("J: the poloidal current is an expression in psi (0 for none), not None")
        if self.N is not None and self.dN is not None:
            raise ValueError("the pressure is stated twice: give N or dN, not both")
        if self.N is None and self.dN is None:
            self.N = 0.0
        self.texts = {}
        for key in ("J", "dJ", "N", "dN", "boundary", "source"):
            if getattr(self, key) is not None:
                variables = ("r", "zu") if key in ("boundary", "source") else ("psi",)
                try:
                    fn = _compile_profile(key, getattr(self, key), variables)
                except ExprError as err:
                    raise ValueError(f"{key}: {err}") from None
                setattr(self, key, fn)
                self.texts[key] = fn.text
        # J', N' and the right-hand side g(psi, q, gamma), q = 1/(r^2 + gamma^2),
        # compiled once with its exact slope in psi; a constant of one beyond the
        # float range names its keys.  At gamma = 0 the gamma term, 0 but of a
        # slope that is not the zero expression, is left out; g'' is not compiled
        stated, derived = self.dJ, f"J: the derivative of J = {self.J.text}"
        try:
            self.dJ = self.J.derivative("psi")
            if self.N is not None:
                derived = f"N: the derivative of N = {self.N.text}"
                self.dN = self.N.derivative("psi")
            derived = (f"J, {'N' if 'N' in self.texts else 'dN'}: the right-hand side J dJ/(r^2+gamma^2) + 2 gamma "
                       "J/(r^2+gamma^2)^2 + dN or its psi-derivative")
            helical = f"2*gamma*({self.J.text})*q^2 + " if self.gamma else ""
            g = f"({self.J.text})*({self.dJ.text})*q + {helical}({self.dN.text})"
            self._g = compile_numeric(g, ("psi", "q", "gamma"))
            self._dg = self._g.derivative("psi")
        except ExprError:
            raise ValueError(f"{derived} has a constant beyond the float range") from None
        psi = Symbol("psi", "independent")
        self._affine = self._dg.expression.gradient([psi])[psi].is_zero
        if stated is not None and stated.expression != self.dJ.expression:
            raise ValueError(f"dJ = {stated.text} is not the derivative of J = {self.J.text}, which is "
                             f"{self.dJ.text}: omit dJ, which is taken from J")

    @property
    def geometry(self) -> str:
        """``helical`` for a nonzero pitch length gamma, else ``axisymmetric``."""
        return "helical" if self.gamma else "axisymmetric"


@dataclass(frozen=True)
class FluxSolution:
    """A solved problem; ``updates`` holds the change one undamped Picard
    step would make at each Newton iterate, from the start, and
    ``krylov_iterations`` the GMRES iterations of each Newton step (none
    when loaded).  An affine problem (g'' = 0) is one elimination: ``(0.0,)``."""

    problem: FluxProblem
    r: np.ndarray
    zu: np.ndarray
    psi: np.ndarray
    updates: tuple[float, ...]
    converged: bool
    krylov_iterations: tuple[int, ...] = ()

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

    def pressure(self):
        """N(psi): the stated N, or else P(psi) - P(lo), with P the exact
        antiderivative of a polynomial dN and lo the smallest attained flux."""
        if "N" in self.problem.texts:
            return self.problem.N
        try:
            antiderivative = self.problem.dN.antiderivative("psi")
        except ExprError:
            raise ValueError(f"dN = {self.problem.dN.text} is not a polynomial in psi, so N is not its exact "
                             "antiderivative: state the pressure profile itself as N") from None
        level = antiderivative(self.attained_range()[0])
        return lambda psi: antiderivative(psi) - level


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


def _hermite(values: np.ndarray, slopes: np.ndarray, h: np.ndarray, k: int, out: np.ndarray | None = None):
    """The power-basis coefficient c_k (k = 0..3) of the cubic on each
    interval [x_i, x_i + h_i] along the first axis that takes the given
    values and slopes at both ends, as a polynomial in x - x_i, written into
    ``out`` if given.  c0 and c1 are the values and slopes at x_i (views of
    them if ``out`` is None); c2 = (3 d - 2 s0 - s1)/h and c3 = (s0 + s1 -
    2 d)/h^2, d the secant slope, are evaluated in place, operation by
    operation as those expressions are."""
    if k < 2:
        c = (values, slopes)[k][:-1]
        if out is None:
            return c
        out[...] = c
        return out
    s0, s1 = slopes[:-1], slopes[1:]
    h = h.reshape((-1,) + (1,) * (values.ndim - 1))
    c = np.subtract(values[1:], values[:-1], out=out)
    c /= h  # the secant slope d
    if k == 2:
        c *= 3.0
        c -= 2.0 * s0
        c -= s1
        c /= h
    else:
        c *= 2.0
        np.subtract(s0 + s1, c, out=c)
        c /= h * h
    return c


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

    It is held in piecewise-polynomial form, 16 coefficients per cell, in
    one (4, 4, cells) table: its slot [p, q] holds the coefficient of (x -
    x_i)^p (y - y_j)^q of every cell, contiguously.  The construction fills
    it slot by slot: the cubics along x of the values and y-slopes give, one
    x-power p at a time, the cubics along y whose coefficients are the
    slots [p, :].  ``derivatives`` finds the cell of each point once and
    evaluates any number of partial derivatives there by Horner's rule,
    gathering the 4 coefficients of one x-power per point at a time; ``ev``
    takes one derivative the same way.  Points outside the knot box are
    clamped to it, as FITPACK clamps them.
    """

    def __init__(self, x: np.ndarray, y: np.ndarray, z: np.ndarray):
        if min(len(x), len(y)) < 4:
            raise ValueError("a bicubic spline needs at least 4 knots per axis")
        self.x, self.y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
        hx, hy = np.diff(self.x), np.diff(self.y)
        z_x = _spline_slopes(self.x, z)
        z_y, z_xy = np.split(_spline_slopes(self.y, np.concatenate([z, z_x]).T).T, 2)
        # cell (i, j) is column i (len(y) - 1) + j of each slot
        table = np.empty((4, 4, len(hx), len(hy)))
        for p in range(4):
            c, c_y = _hermite(z, z_x, hx, p), _hermite(z_y, z_xy, hx, p)
            for q in range(4):
                _hermite(c.T, c_y.T, hy, q, out=table[p, q].T)
            del c, c_y  # before the next x-power's pair is computed
        self.coefficients = table.reshape(4, 4, -1)

    def derivatives(self, xi, yi, orders) -> list[np.ndarray]:
        """The spline's partial derivatives of the given orders (dx, dy),
        each at most 3, at the points (xi, yi), from one cell lookup.

        The outer Horner pass runs down the x-powers p, gathering the four
        coefficients [p, :] of each point's cell and reducing them along y
        once per distinct dy, so psi and psi_x share their pass along y."""
        xi, yi = np.broadcast_arrays(np.asarray(xi, dtype=float), np.asarray(yi, dtype=float))
        cells = []
        for knots, points in ((self.x, xi.ravel()), (self.y, yi.ravel())):
            points = np.clip(points, knots[0], knots[-1])
            i = np.clip(np.searchsorted(knots, points, side="right") - 1, 0, len(knots) - 2)
            cells.append((i, points - knots[i]))
        (i, t), (j, u) = cells
        cell = i * (len(self.y) - 1) + j
        sums = [None] * len(orders)
        for p in range(3, -1, -1):
            row = np.take(self.coefficients[p], cell, axis=1).T  # (points, 4), q along the last axis
            along_y = {dy: _horner(row, u, dy) for dy in {dy for _dx, dy in orders}}
            for s, (dx, dy) in enumerate(orders):
                if p == 3:
                    sums[s] = along_y[dy] * math.perm(3, dx)
                elif p >= dx:
                    sums[s] *= t
                    sums[s] += along_y[dy] if dx == 0 else math.perm(p, dx) * along_y[dy]
        return [s.reshape(xi.shape) for s in sums]

    def ev(self, xi, yi, dx: int = 0, dy: int = 0) -> np.ndarray:
        """The spline, or its partial derivative of order (dx, dy), each at
        most 3, at the points (xi, yi)."""
        return self.derivatives(xi, yi, ((dx, dy),))[0]


def _sine_transform(padded: np.ndarray, scale: float, out: np.ndarray | None = None) -> np.ndarray:
    """scale times the DST-I sum_j x_j sin(pi j k/(m+1)), k = 1..m, of each
    row x = padded[:, 1:m+1] of an n x 2(m+1) array that is zero elsewhere:
    minus the imaginary part of the real FFT of the rows.  (That is half the
    transform of the odd extension [0, x, 0, -x reversed], which needs a
    second copy of x.)  scale = sqrt(2/(m+1)) gives the orthonormal DST-I,
    its own inverse."""
    m = padded.shape[1] // 2 - 1
    return np.multiply(np.fft.rfft(padded, axis=1).imag[:, 1 : m + 1], -scale, out=out)


# rows of the n x m interior that one sine transform pass takes at a time
DST_BLOCK_ROWS = 32


def _sine_transform_rows(u: np.ndarray, scale: float, buffer: np.ndarray) -> None:
    """``_sine_transform`` of the rows of the n x m array u, in place,
    len(buffer) rows at a time through ``buffer``, whose rows are 2(m+1)
    long and zero outside their columns 1..m.  Each row's FFT is
    independent of the others, so the result is that of the whole padded
    array bit for bit."""
    for start in range(0, len(u), len(buffer)):
        rows = u[start : start + len(buffer)]
        block = buffer[: len(rows)]
        block[:, 1 : u.shape[1] + 1] = rows
        _sine_transform(block, scale, out=rows)


def _interior_solver(problem: FluxProblem, r: np.ndarray, zu: np.ndarray, psi: np.ndarray, shift=0.0):
    """The linear solve of the five-point stencil plus ``shift`` (g' at the
    interior radii: a number or an n x 1 column) under the boundary values
    of ``psi``: a function taking the interior right-hand side f and
    returning the interior u with (stencil + shift)(u with psi's boundary) = f.

    The stencil applied to the boundary values alone is a fixed term moved
    to the right-hand side.  It is nonzero on the edges of the n x m
    interior only, so the solver holds it as two edge rows (the corners
    summed in) and two edge columns.  The orthonormal DST-I (its own
    inverse) diagonalises the zu neighbour matrix of the m interior zu
    nodes with eigenvalues 2 cos(k pi/(m+1)), k = 1..m, so zu sine mode k
    is one tridiagonal system in r with diagonal c_center + shift + 2 cos(k
    pi/(m+1)) c_n.  The transform leaves the n x m array with one row per
    interior r node and one column per mode, so each step of the Thomas
    algorithm is one contiguous row operation over all modes.  The
    multipliers and reciprocal pivots, two n x m arrays, are computed once,
    here, and are all the solver holds besides the edges and one
    DST_BLOCK_ROWS-row transform buffer.  Each right-hand side then costs n
    - 1 forward and n - 1 backward row updates and two row-blocked sine
    transforms, all in place on the n x m array the call returns, a new one
    each call.  The solver keeps no right-hand side: f may be any array
    that broadcasts to the n x m interior (an n x 1 column for one that
    depends on r only), and the caller decides when a right-hand side needs
    solving again.

    Spacings whose stencil coefficients are not finite and positive (they
    overflow or underflow) raise a ValueError naming hr and hz.  No
    pivoting is done.  With c_w, c_e, c_n > 0 for r > 0, the systems are
    diagonally dominant unless the shift is positive; a pivot at most n m
    eps times the largest means the problem lies on an eigenvalue of its
    operator, and a ValueError naming the mode is raised.
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
    if not all((c[1:-1] > 0.0).all() and np.isfinite(c[1:-1]).all() for c in (c_e, c_w, c_n, -c_center)):
        raise ValueError(f"the grid spacings hr = {hr:g} and hz = {hz:g} give stencil coefficients that are "
                         "not finite and positive")

    n, m = nr - 2, nzu - 2
    # the boundary term, zero off the interior's edges; + 0.0 turns a -0.0
    # term into 0.0, so that f - term keeps the sign of a zero f as it does
    # off the edges, and each corner sums its r term and then its zu term
    west, east = (c * values + 0.0 for c, values in ((c_w[1], psi[0, 1:-1]), (c_e[-2], psi[-1, 1:-1])))
    south, north = (c_n[1:-1] * psi[1:-1, j] + 0.0 for j in (0, -1))
    west[[0, -1]] += south[0], north[0]
    east[[0, -1]] += south[-1], north[-1]

    c_w, c_e, c_n, c_center = (c[1:-1] for c in (c_w, c_e, c_n, c_center))
    eigen = 2.0 * np.cos(np.pi * np.arange(1, m + 1) / (m + 1))
    pivot = np.multiply(c_n[:, None], eigen)
    pivot += c_center[:, None] + shift
    # forward elimination of the sub-diagonal c_w, once per solve
    multiplier = np.empty((n, m))
    for i in range(1, n):
        np.divide(c_w[i], pivot[i - 1], out=multiplier[i])
        pivot[i] -= multiplier[i] * c_e[i - 1]
    size = np.abs(pivot)
    if not size.min() > n * m * np.finfo(float).eps * size.max():  # also where a zero pivot left inf or nan
        raise ValueError(f"the problem lies on an eigenvalue of its operator in zu sine mode {np.argmin(size) % m + 1}")
    inv_pivot = np.divide(1.0, pivot, out=pivot)
    scale = 2.0 / (m + 1)  # both orthonormal factors sqrt(2/(m+1)), applied once
    buffer = np.zeros((min(n, DST_BLOCK_ROWS), 2 * (m + 1)))

    def solve(rhs: np.ndarray) -> np.ndarray:
        u = np.empty((n, m))
        u[...] = rhs
        u[0] -= west
        u[-1] -= east
        u[1:-1, 0] -= south[1:-1]
        u[1:-1, -1] -= north[1:-1]
        _sine_transform_rows(u, scale, buffer)
        for i in range(1, n):
            u[i] -= multiplier[i] * u[i - 1]
        u[-1] *= inv_pivot[-1]
        for i in range(n - 2, -1, -1):
            u[i] -= c_e[i] * u[i + 1]
            u[i] *= inv_pivot[i]
        _sine_transform_rows(u, 1.0, buffer)
        return u

    return solve


def _nonlinear_term(problem: FluxProblem, r: np.ndarray, S: np.ndarray | None):
    """psi -> g + S and, as its ``slope``, psi -> g': the problem's g(psi,
    q, gamma) and its psi-derivative at the radii r, an n x 1 column of the
    interior radii (or any array that broadcasts against psi), q = 1/(r^2 +
    gamma^2) computed once.  Each raises ArithmeticError where not finite."""
    q = 1.0 / (r**2 + problem.gamma**2)

    def finite(out, what: str):
        if not np.isfinite(out).all():
            raise ArithmeticError(f"{what} evaluated to a non-finite value")
        return out

    def g(psi: np.ndarray) -> np.ndarray:
        out = problem._g(psi, q, problem.gamma)
        return finite(out if S is None else out + S, "constitutive profile")

    g.slope = lambda psi: finite(problem._dg(psi, q, problem.gamma), "the derivative of a constitutive profile")
    return g


# GMRES restart (no nonlinear test problem takes more than 18 iterations
# a Newton step), tolerance (the last Newton step leaves |F| at rounding)
# and cap; halvings of a Newton step before it fails
GMRES_RESTART, GMRES_TOL, GMRES_MAX_ITER, HALVINGS = 30, 1e-12, 300, 10


def _gmres(apply, b: np.ndarray, tol: float) -> tuple[np.ndarray | None, int]:
    """x with |b - apply(x)|_2 <= tol |b|_2 by restarted GMRES from x = 0
    (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7 (1986) 856), modified
    Gram-Schmidt, and the iterations taken; x is None if they fall short."""
    x, residual, iterations = np.zeros_like(b), b, 0
    target = tol * np.linalg.norm(b)
    while iterations < GMRES_MAX_ITER:
        rhs = np.linalg.norm(residual) * np.eye(GMRES_RESTART + 1)[0]
        basis, hessenberg = [residual / rhs[0]], np.zeros((GMRES_RESTART + 1, GMRES_RESTART))
        for j in range(min(GMRES_RESTART, GMRES_MAX_ITER - iterations)):
            w = apply(basis[j])
            for i, v in enumerate(basis):
                hessenberg[i, j] = np.vdot(v, w)
                w -= hessenberg[i, j] * v
            hessenberg[j + 1, j] = np.linalg.norm(w)
            basis.append(w / hessenberg[j + 1, j] if hessenberg[j + 1, j] else w)
            y = np.linalg.lstsq(hessenberg[: j + 2, : j + 1], rhs[: j + 2], rcond=None)[0]
            converged = np.linalg.norm(hessenberg[: j + 2, : j + 1] @ y - rhs[: j + 2]) <= target
            if converged:
                break
        iterations += j + 1
        for c, v in zip(y, basis):
            x += c * v
        if converged:
            return x, iterations
        residual = b - apply(x)
    return None, iterations


def _diverged(reason: str, updates: list[float], krylov: list[int]) -> SolverDiverged:
    return SolverDiverged(f"solver diverged: {reason} at Newton step {len(krylov)} ({sum(krylov)} GMRES iterations in "
                          f"all), last |F| {updates[-1]:.3e}; |F| history {', '.join(f'{u:.3e}' for u in updates)}")


def solve_flux(
    problem: FluxProblem,
    shape: tuple[int, int] = (33, 33),
    tol_outer: float = 1e-10,
    max_iter: int = 500,
    omega: None = None,
) -> FluxSolution:
    """``solve``, set up once, eliminates the stencil L0 plus g' when g'' is
    the zero expression, else L0 alone, and T(psi) = solve(-g(psi)).  In the
    first case psi = T(0): one iteration, with update 0.  Otherwise Newton's
    method solves F(psi) = psi - T(psi) = 0 from T(0), each step solving (I
    + L0^-1 diag g') delta = -F by ``_gmres`` (L0^-1 v = solve(v) -
    solve(0)), halved until |F|_inf falls; SolverDiverged, with the |F|_inf
    history, when no halving does or GMRES falls short.  ``omega`` takes
    only None: perfbench/workloads.py passes a fifth one."""
    nr, nzu = shape
    if nr < 9 or nzu < 9:
        raise ValueError("resolution must be at least 9 x 9")
    if omega is not None:
        raise ValueError("omega: the Newton solve takes no relaxation weight")
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

    S = None
    if problem.source is not None:
        S = problem.source(*np.meshgrid(r[1:-1], zu[1:-1], indexing="ij"))
    nonlinear = _nonlinear_term(problem, r[1:-1, None], S)
    affine = problem._affine  # then T(0) solves the problem, and F = 0
    solve = _interior_solver(problem, r, zu, psi, nonlinear.slope(np.zeros((nr - 2, 1))) if affine else 0.0)

    def defect(iterate: np.ndarray) -> tuple[np.ndarray, float]:
        F = iterate - solve(-nonlinear(iterate))
        return F, float(np.max(np.abs(F)))

    # T(0): for constant profiles and no source the right-hand side is an
    # n x 1 column in r, which the solver broadcasts
    current = solve(-nonlinear(np.zeros((nr - 2, 1))))
    homogeneous = None if affine else solve(np.zeros(1))
    F, norm = (0.0, 0.0) if affine else defect(current)
    updates, krylov = [norm], []
    while updates[-1] >= tol_outer and len(krylov) < max_iter:
        dg = nonlinear.slope(current)
        step, iterations = _gmres(lambda v: v + (solve(dg * v) - homogeneous), -F, GMRES_TOL)
        krylov.append(iterations)
        if step is None:
            raise _diverged(f"GMRES did not reach {GMRES_TOL:g} in {GMRES_MAX_ITER} iterations", updates, krylov)
        for t in 0.5 ** np.arange(HALVINGS + 1):
            trial = current + t * step
            try:
                trial_F, norm = defect(trial)
            except ArithmeticError:
                continue
            if norm < updates[-1]:
                break
        else:
            raise _diverged(f"no step of 2^-{HALVINGS} or more lowers |F|", updates, krylov)
        current, F = trial, trial_F
        updates.append(norm)
    np.subtract(current, F, out=psi[1:-1, 1:-1])  # T(current), whose linear part is solved exactly
    if updates[-1] >= tol_outer:
        warnings.warn(f"flux solve stopped at the iteration cap ({max_iter}) with update {updates[-1]:.3e}",
                      RuntimeWarning, stacklevel=2)
    return FluxSolution(problem, r, zu, psi, tuple(updates), updates[-1] < tol_outer, tuple(krylov))


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
        raise ValueError(f"radial domain r in [{r0:.6g}, {r1:.6g}] is too thin to hold the default sampling box")
    mz = 0.1 * (b - a)
    # zu = z - gamma phi: the box's zu range widens by gamma times its phi range
    pad = abs(problem.gamma) * math.atan2(y_max, x_lo)
    z_lo, z_hi = a + mz + pad, b - mz - pad
    if z_lo >= z_hi:
        raise ValueError(
            f"zu range [{a:.6g}, {b:.6g}] is too short for the default sampling box at pitch length "
            f"gamma = {problem.gamma:.6g}, which shifts zu by up to {pad:.6g} across the box"
        )
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


def flux_to_cgl(sol: FluxSolution, tau, grid: Grid3) -> CGLState:
    """Build a 3D anisotropic state from a flux solution.

    ``tau``, an expression in psi (a number stands for its decimal text; a
    Python callable is refused), must be finite and stay below one on the
    attained flux range.  The state is the field-line image
    (``equilibria._field_line_image``) with M = (1 - tau)^(-1/2) of the
    isotropic state: the symmetric-state template field and the pressure
    N(psi) (``FluxSolution.pressure``).  The stored label is psi normalized
    by its largest magnitude on the 2D solution; ``meta`` records that
    scale (``psi_normalization``) and the gauge of N, the flux ``psi_ref``
    where N vanishes.  The state's evaluator refuses points outside the
    solution domain [r0, r1] x [zu0, zu1] with a ValueError naming the
    extent of the points it was given.  ``grid`` is sampled in x-slab blocks
    (``equilibria.sample_state``), as a later point transform is, so the
    extent named is that of the first block that leaves the domain.  For
    each block the evaluator finds the spline cell of every point once and
    takes psi, psi_r and psi_zu there (``BicubicSpline.derivatives``), so
    the spline's share of the block's working memory is the 4 coefficients
    of one x-power per point and a few point arrays, not a 4 x 4 block per
    point.
    """
    # imported here: ``flux solve`` needs none of the equilibria module
    from .equilibria import StateEvaluators, _field_line_image, require_defined, sample_state

    problem = sol.problem
    tau_fn = _compile_profile("tau", tau, ("psi",))
    lo, hi = sol.attained_range()
    psi_probe = np.linspace(lo, hi, 513)
    tau_max = float(np.max(require_defined(f"tau = {tau_fn.text}", tau_fn(psi_probe), psi_probe)))
    if tau_max >= 1.0:
        raise ValueError(f"tau reaches {tau_max:.6g} on the attained flux range; the mapping needs tau < 1")
    n_of = sol.pressure()
    spline = sol.spline()
    psi_scale = max(abs(lo), abs(hi)) or 1.0
    gamma = problem.gamma

    def evaluate(X, Y, Z):
        R = np.hypot(X, Y)
        phi = np.arctan2(Y, X)
        ZU = Z - gamma * phi
        _require_in_domain(problem, R, ZU)
        # one cell lookup serves psi and both first derivatives
        psi, psi_r, psi_zu = spline.derivatives(R, ZU, ((0, 0), (1, 0), (0, 1)))
        m = 1.0 / np.sqrt(1.0 - tau_fn(psi))
        Jv = problem.J(psi)
        b_r = psi_zu / R
        denom = R**2 + gamma**2
        b_z = (gamma * Jv - R * psi_r) / denom
        b_phi = (R * Jv + gamma * psi_r) / denom
        cos_p, sin_p = np.cos(phi), np.sin(phi)
        b = np.stack([b_r * cos_p - b_phi * sin_p, b_r * sin_p + b_phi * cos_p, b_z])
        pperp, tau_v = _field_line_image(m * m, np.einsum("c...,c...->...", b, b), n_of(psi), 0.0)
        b *= m
        return b, pperp, tau_v, psi / psi_scale

    return sample_state(StateEvaluators(evaluate), grid, {"psi_ref": lo, "psi_normalization": psi_scale})


# ---------------------------------------------------------------------------
# Problem files and solution artifacts
# ---------------------------------------------------------------------------

_DOMAIN_KEYS = ("r0", "r1", "zu0", "zu1")
_PROFILE_KEYS = ("J", "dJ", "N", "dN", "boundary", "source")
_SOLVER_KEYS = {"nr": int, "nzu": int, "max_iter": int, "tol": float}
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
    # the grid file is read from beside the manifest, and only from there
    "psi_csv": ("a file name with no directory part",
                lambda v: isinstance(v, str) and v not in ("", "..") and Path(v).name == v),
}


def _number(value, key: str, where: str, kind=float):
    try:
        value = number(value, kind)
    except (TypeError, ValueError):
        raise ValueError(f"{where}: {key} is not {'an integer' if kind is int else 'a number'}: {value!r}") from None
    if not math.isfinite(value):
        raise ValueError(f"{where}: {key} must be finite, got {value}")
    return value


def _problem(entries: dict, where: str) -> FluxProblem:
    """Build a problem from its entries: the domain ``r0 r1 zu0 zu1``,
    ``gamma`` and the profiles, with numbers given as numbers or as text,
    and optionally ``geometry``, which must agree with ``gamma``.  ``where``
    names the source in every error message."""
    missing = [k for k in _DOMAIN_KEYS if k not in entries]
    if missing:
        raise ValueError(f"{where} is missing {', '.join(missing)}")
    if "boundary" not in entries:
        raise ValueError(f"{where} is missing the boundary expression")
    r0, r1, zu0, zu1, gamma = (_number(entries.get(k, 0.0), k, where) for k in (*_DOMAIN_KEYS, "gamma"))
    try:
        problem = FluxProblem(
            (r0, r1), (zu0, zu1), gamma=gamma, **{k: entries[k] for k in _PROFILE_KEYS if k in entries}
        )
    except ValueError as err:
        raise ValueError(f"{where}: {err}") from None
    if entries.get("geometry", problem.geometry) != problem.geometry:
        raise ValueError(f"{where}: geometry must be one of {GEOMETRIES} and agree with gamma = {gamma}: "
                         "helical for a nonzero pitch length, axisymmetric for 0")
    return problem


def parse_problem_file(text: str, where: str = "problem file") -> tuple[FluxProblem, dict]:
    """Parse ``key = value`` lines; expression values stay text until use.

    Returns the problem plus the keyword arguments of ``solve_flux``
    (resolution, tolerance, Newton step cap, and ``omega``, always None).
    ``omega`` is not a key: the solve has no relaxation weight, and a file
    that sets one is refused, naming it.  ``L`` and ``dL`` (the helical
    names) are aliases of ``N`` and ``dN``, and one of the four states the
    pressure.  ``where``, the file's path, leads every error message, and
    an expression's error names its key too.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{where}: line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in entries:
            raise ValueError(f"{where}: line {lineno}: duplicate key {key!r}")
        entries[key] = value

    unknown = entries.keys() - {"geometry", "gamma", "L", "dL", *_DOMAIN_KEYS, *_PROFILE_KEYS, *_SOLVER_KEYS}
    if unknown:
        raise ValueError(f"{where}: unrecognized problem keys: {sorted(unknown)}")
    pressure = [k for k in ("N", "L", "dN", "dL") if k in entries]
    if len(pressure) > 1:
        raise ValueError(f"{where}: the pressure is stated by both {pressure[0]} and {pressure[1]}: give one of "
                         "N (the profile; helical L) or dN (its derivative; helical dL), not both")
    if pressure:  # the helical names L and dL become N and dN
        entries[pressure[0].replace("L", "N")] = entries.pop(pressure[0])
    problem = _problem(entries, where)
    solver = {k: _number(entries[k], k, where, kind) for k, kind in _SOLVER_KEYS.items() if k in entries}
    params = {
        "shape": (solver.get("nr", 33), solver.get("nzu", 33)),
        "tol_outer": solver.get("tol", 1e-10),
        "max_iter": solver.get("max_iter", 500),
        "omega": None,  # solve_flux's kept fifth parameter; perfbench passes it on
    }
    return problem, params


def write_solution(sol: FluxSolution, directory) -> dict:
    """Write psi.csv (r, zu, psi; zu fastest) plus solution.json and return
    the manifest."""
    problem = sol.problem
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    csv_path = directory / "psi.csv"
    fd.write_csv(csv_path, {"r": sol.r, "zu": sol.zu}, {"psi": sol.psi})
    manifest = {
        "geometry": problem.geometry,
        **dict(zip(_DOMAIN_KEYS, (*problem.r_range, *problem.zu_range))),
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
    try:
        with open(path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except UnicodeDecodeError as err:
        raise ValueError(f"cannot read {path}: {err}") from None
    except json.JSONDecodeError as err:
        raise ValueError(f"{path}: not JSON: {err}") from None
    missing = [k for k in _MANIFEST_KEYS if k not in manifest]
    if missing:
        raise ValueError(f"{path}: solution manifest is missing {', '.join(missing)}")
    profiles = manifest["profiles"]
    if not (isinstance(profiles, dict) and all(isinstance(text, str) for text in profiles.values())):
        raise ValueError(f"{path}: solution manifest profiles must map names to expressions")
    where = f"{path}: solution manifest"
    for key, (kind, test) in _MANIFEST_VALUES.items():
        if not test(manifest[key]):
            raise ValueError(f"{where}: {key} must be {kind}, got {manifest[key]!r}")
    updates = tuple(float(u) for u in manifest["updates"])
    if len(updates) != manifest["iterations"] or updates[-1] != manifest["final_update"]:
        raise ValueError(f"{where}: updates must hold one entry per iteration, the last equal to final_update")
    unknown = profiles.keys() - set(_PROFILE_KEYS)
    if unknown:
        raise ValueError(f"{where}: unrecognized profile keys: {sorted(unknown)}, not among {', '.join(_PROFILE_KEYS)}")
    problem = _problem({**manifest, **profiles}, where)
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
