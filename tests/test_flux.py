import math
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

from plasmeq import equilibria, flux
from plasmeq.equilibria import residual_norms, tau_consistency_error, translate_state
from plasmeq.fields import Grid3, directional, norm
from plasmeq.flux import (
    FluxProblem,
    FluxSolution,
    SolverDiverged,
    default_cartesian_box,
    flux_to_cgl,
    load_solution,
    parse_problem_file,
    solve_flux,
    write_solution,
)

A = 2.0
DOMAIN = dict(r_range=(0.5, 1.5), zu_range=(-0.5, 0.5))
BUNDLED_FLUX_FILES = ("flux_axisym_example.flux", "flux_helical_example.flux", "flux_vortex_example.flux")


def quartic_problem():
    # psi = A r^4 / 8 solves the axisymmetric equation with dN = -A
    return FluxProblem(boundary=f"{A / 8}*r^4", dN=-A, **DOMAIN)


def quartic_exact(R):
    return A * R**4 / 8


def current_problem():
    # psi = A r^4/8 + zu/10 with the constant current J = 0.3: solved exactly
    # like the quartic, but the mapped field has r and phi components, so
    # the mapped residuals keep a second-order truncation error
    return FluxProblem(boundary=f"{A / 8}*r^4 + 0.1*zu", J=0.3, dN=-A, **DOMAIN)


# -- validation -----------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError, match="axis is excluded"):
        FluxProblem((0.0, 1.0), (-1, 1), boundary="0")
    for gamma in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"^gamma must be finite, got {gamma}$"):
            FluxProblem(boundary="0.25*r^4", J="psi", dN=-2, gamma=gamma, **DOMAIN)
    # finite, but its square, which the stencil and q take, is not
    with pytest.raises(ValueError, match=r"^gamma = 1e\+160 is too large: its square is beyond the float range$"):
        FluxProblem(boundary="0.25*r^4", J="psi", dN=-2, gamma=1e160, **DOMAIN)
    # an integer gamma is taken as its float: one whose square is beyond the
    # range, and one that is beyond it itself, are refused by name
    with pytest.raises(ValueError, match=r"^gamma = 1e\+200 is too large: its square is beyond the float range$"):
        FluxProblem(boundary="r", gamma=10**200, **DOMAIN)
    with pytest.raises(ValueError, match=r"^gamma is too large: it is beyond the float range$"):
        FluxProblem(boundary="r", gamma=10**400, **DOMAIN)
    assert FluxProblem(boundary="r", gamma=2, **DOMAIN).gamma == 2.0
    domain = "r0 = 0.5\nr1 = 1.0\nzu0 = -1\nzu1 = 1\nboundary = 0\n"
    with pytest.raises(ValueError, match="geometry"):
        parse_problem_file(domain + "geometry = spherical")
    with pytest.raises(ValueError, match="pitch"):
        parse_problem_file(domain + "geometry = helical")
    with pytest.raises(ValueError, match="and agree with gamma = 0.7"):
        parse_problem_file(domain + "geometry = axisymmetric\ngamma = 0.7")
    with pytest.raises(ValueError, match="zu range"):
        FluxProblem((0.5, 1.0), (1, 1), boundary="0")


def test_solver_parameter_validation():
    p = quartic_problem()
    with pytest.raises(ValueError, match="9 x 9"):
        solve_flux(p, (5, 33))
    # the kept fifth parameter takes only None: the solve has no relaxation weight
    with pytest.raises(ValueError, match="^omega: the Newton solve takes no relaxation weight$"):
        solve_flux(p, (9, 9), omega=0.8)


@pytest.mark.parametrize(
    "settings, message",
    [
        (dict(max_iter=0), "iteration cap must be at least 1, got 0"),
        (dict(tol_outer=math.nan), "tolerance must be a positive finite number, got nan"),
        (dict(tol_outer=math.inf), "tolerance must be a positive finite number, got inf"),
        (dict(tol_outer=-1e-10), "tolerance must be a positive finite number, got -1e-10"),
    ],
)
def test_solver_settings_must_be_usable(settings, message):
    with pytest.raises(ValueError, match=message):
        solve_flux(quartic_problem(), (9, 9), **settings)


# -- axisymmetric solves ---------------------------------------------------------


def test_harmonic_quadratic_is_exact_discrete_solution():
    p = FluxProblem(boundary="r^2*zu", **DOMAIN)
    sol = solve_flux(p, (33, 33))
    R, ZU = np.meshgrid(sol.r, sol.zu, indexing="ij")
    assert sol.converged
    assert np.max(np.abs(sol.psi - R * R * ZU)) < 1e-10


def test_boundary_rows_match_data_exactly():
    p = quartic_problem()
    sol = solve_flux(p, (17, 17))
    R, ZU = np.meshgrid(sol.r, sol.zu, indexing="ij")
    data = quartic_exact(R)
    assert np.array_equal(sol.psi[0, :], data[0, :])
    assert np.array_equal(sol.psi[-1, :], data[-1, :])
    assert np.array_equal(sol.psi[:, 0], data[:, 0])
    assert np.array_equal(sol.psi[:, -1], data[:, -1])


def test_homogeneous_case_respects_maximum_principle():
    p = FluxProblem(boundary="zu + 0.3*r^2*zu", **DOMAIN)
    sol = solve_flux(p, (17, 17))
    boundary = np.concatenate([sol.psi[0, :], sol.psi[-1, :], sol.psi[:, 0], sol.psi[:, -1]])
    assert sol.psi.max() <= boundary.max() + 1e-12
    assert sol.psi.min() >= boundary.min() - 1e-12


def test_quartic_is_solved_exactly():
    # the flux-form stencil is exact on r^4, so only rounding is left
    for n in (17, 33, 65):
        sol = solve_flux(quartic_problem(), (n, n))
        R, _ = np.meshgrid(sol.r, sol.zu, indexing="ij")
        assert np.max(np.abs(sol.psi - quartic_exact(R))) <= 1e-10, n


@pytest.mark.parametrize("name, exact, h2_factor", [
    # the flux-form stencil is exact on the axisymmetric quartic
    ("flux_axisym_example.flux", lambda r, zu: 0.25 * r**4, 0.0),
    # but not on the helical r^4 + 2 gamma^2 r^2: the h^2 term of its
    # half-node flux, h^2 r^2/(4 (r^2 + gamma^2)), varies with r
    ("flux_helical_example.flux", lambda r, zu: (r**4 + 0.98 * r**2) / 4, 0.02),
])
def test_bundled_examples_are_solved_to_their_closed_forms(name, exact, h2_factor):
    problem, params = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
    sol = solve_flux(problem, **params)
    R, ZU = np.meshgrid(sol.r, sol.zu, indexing="ij")
    h = max(sol.r[1] - sol.r[0], sol.zu[1] - sol.zu[0])
    assert sol.iterations == 1
    assert np.max(np.abs(sol.psi - exact(R, ZU))) <= 1e-10 + h2_factor * h * h


# -- manufactured solutions ----------------------------------------------------------


GAMMA = 0.5
AMP = 0.3


def manufactured_exact(r, u):
    return AMP * np.sin(np.pi * r) * np.cos(np.pi * u)


def manufactured_problem(gamma=GAMMA):
    """``manufactured_exact`` with current and pressure profiles and the
    source that makes it a solution, each as expression text with pi
    written as its double; ``gamma = 0`` makes it axisymmetric."""
    pi, g2 = repr(np.pi), gamma * gamma
    ps = f"{AMP}*sin({pi}*r)*cos({pi}*zu)"
    ps_r = f"{AMP}*{pi}*cos({pi}*r)*cos({pi}*zu)"
    ps_rr = f"(-{pi}^2*{ps})"  # and ps_uu, the same
    c = f"r/(r^2 + {g2})"
    c_prime = f"({g2} - r^2)/(r^2 + {g2})^2"
    operator = f"{ps_rr}/r^2 + ({c_prime}*{ps_r} + {c}*{ps_rr})/r"
    constitutive = f"2*({ps})^3/(r^2 + {g2}) + {2 * gamma}*({ps})^2/(r^2 + {g2})^2 + cos({ps})"
    return FluxProblem(
        (0.6, 1.6),
        (-0.5, 0.5),
        boundary=ps,
        J="psi^2",
        dJ="2*psi",
        dN="cos(psi)",
        gamma=gamma,
        source=f"-({operator} + {constitutive})",
    )


def manufactured_orders(gamma):
    errs = {}
    for n in (17, 33, 65):
        sol = solve_flux(manufactured_problem(gamma), (n, n))
        R, U = np.meshgrid(sol.r, sol.zu, indexing="ij")
        errs[n] = np.max(np.abs(sol.psi - manufactured_exact(R, U)))
    return [math.log2(errs[a] / errs[b]) for a, b in ((17, 33), (33, 65))]


def test_helical_manufactured_convergence():
    orders = manufactured_orders(GAMMA)
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_axisymmetric_manufactured_convergence():
    orders = manufactured_orders(0.0)
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_divergence_is_detected():
    # J J' = 50 e^psi is the Bratu source past its fold: no solution
    p = FluxProblem(
        boundary="zu", J="10*exp(psi/2)", dN=0.0, **DOMAIN
    )
    with pytest.raises(SolverDiverged):
        solve_flux(p, (17, 17), max_iter=200)


def test_iteration_cap_warns_and_flags():
    # a psi-free problem is one solve whatever the cap, and a linear one
    # takes one Newton step: the current here is quadratic in psi
    p = FluxProblem(boundary=f"{A / 8}*r^4", J="0.5*psi^2", dN=-A, **DOMAIN)
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        sol = solve_flux(p, (17, 17), max_iter=1)
    assert not sol.converged
    assert len(sol.krylov_iterations) == 1 and sol.iterations == 2


def test_a_stated_dJ_must_be_the_derivative_of_J():
    with pytest.raises(ValueError, match=r"^dJ = 3\*psi is not the derivative of J = psi\^2, which is 2\*psi: omit dJ"):
        FluxProblem(boundary="r^2*zu", J="psi^2", dJ="3*psi", **DOMAIN)
    # a dJ that is J' once expanded stands; an omitted dJ is J'
    stated = FluxProblem(boundary="r^2*zu", J="(1 + psi)^2", dJ="2 + 2*psi", **DOMAIN)
    omitted = FluxProblem(boundary="r^2*zu", J="(1 + psi)^2", **DOMAIN)
    assert stated.dJ.expression == omitted.dJ.expression
    assert stated.texts["dJ"] == "2 + 2*psi" and "dJ" not in omitted.texts


@pytest.mark.parametrize(
    "J, dJ", [("1/psi", "-1/psi^2"), ("sqrt(psi)", "0.5/sqrt(psi)"), ("sqrt(psi)", "1/(2*sqrt(psi))")]
)
def test_a_stated_dJ_stands_however_its_reciprocals_are_written(J, dJ):
    stated = FluxProblem(boundary="r^2*zu", J=J, dJ=dJ, **DOMAIN)
    assert stated.dJ.expression == FluxProblem(boundary="r^2*zu", J=J, **DOMAIN).dJ.expression
    assert stated.texts["dJ"] == dJ


@pytest.mark.parametrize(
    "key, variables",
    [("J", "psi"), ("dJ", "psi"), ("N", "psi"), ("dN", "psi"), ("boundary", "r and zu"), ("source", "r and zu"),
     ("tau", "psi")],
)
def test_a_profile_given_as_a_callable_is_refused_naming_its_key(key, variables):
    with pytest.raises(ValueError, match=f"^{key}: a profile is an expression in {variables}, not a Python callable$"):
        if key == "tau":  # flux_to_cgl's profile
            grid = default_cartesian_box(quartic_problem(), 9)
            flux_to_cgl(solve_flux(quartic_problem(), (9, 9)), lambda psi: 0.1 * psi, grid)
        else:
            FluxProblem(**{"boundary": "0", key: lambda *args: args[0]}, **DOMAIN)


def test_a_missing_current_is_refused_naming_J():
    with pytest.raises(ValueError, match=r"^J: the poloidal current is an expression in psi \(0 for none\), not None$"):
        FluxProblem(boundary="0", J=None, **DOMAIN)


def test_the_pressure_is_stated_once():
    with pytest.raises(ValueError, match="the pressure is stated twice: give N or dN, not both"):
        FluxProblem(boundary="0", N="1 - psi", dN=-1, **DOMAIN)
    # the solve takes N' where N is stated, and N = 0 where nothing is
    assert FluxProblem(boundary="0", N="1 + psi*sin(psi)", **DOMAIN).dN.text == "psi*cos(psi) + sin(psi)"
    assert FluxProblem(boundary="0", **DOMAIN).texts["N"] == "0.0"


def test_nonfinite_profile_evaluation_is_reported():
    # the zero initial iterate sends 1/psi to infinity
    p = FluxProblem(boundary="r^2*zu", dN="1/psi", **DOMAIN)
    with pytest.raises(ArithmeticError, match="non-finite"):
        solve_flux(p, (9, 9))


# -- the five-point operator ----------------------------------------------------------


def five_point_stencil(problem, r, zu, psi):
    """The discrete operator on the interior nodes, written with array
    slices: flux differences of r/(r^2+gamma^2) psi_r between half nodes."""
    hr, hz = r[1] - r[0], zu[1] - zu[0]
    ri = r[1:-1, None]
    c, e, w = psi[1:-1, 1:-1], psi[2:, 1:-1], psi[:-2, 1:-1]
    zz = (psi[1:-1, 2:] - 2.0 * c + psi[1:-1, :-2]) / hz**2
    g2 = problem.gamma**2
    half_e, half_w = ri + 0.5 * hr, ri - 0.5 * hr
    flux_e = half_e / (half_e**2 + g2) * (e - c)
    flux_w = half_w / (half_w**2 + g2) * (c - w)
    return (flux_e - flux_w) / (ri * hr**2) + zz / ri**2


# odd, even and non-square counts of interior zu nodes
@pytest.mark.parametrize("shape", [(13, 9), (9, 17), (41, 17), (64, 33)])
@pytest.mark.parametrize("geometry", ["axisymmetric", "helical"])
def test_operator_and_dirichlet_term_match_the_stencil(geometry, shape):
    # the linear solve with psi's boundary values inverts the stencil applied to psi
    problem = FluxProblem((0.6, 1.6), (-0.4, 0.7), boundary="0", gamma=0.7 if geometry == "helical" else 0.0)
    r, zu = np.linspace(0.6, 1.6, shape[0]), np.linspace(-0.4, 0.7, shape[1])
    psi = np.random.default_rng(7).standard_normal(shape)
    solve = flux._interior_solver(problem, r, zu, psi)
    got = solve(five_point_stencil(problem, r, zu, psi))
    want = psi[1:-1, 1:-1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("name", BUNDLED_FLUX_FILES)
def test_the_discrete_equation_is_solved(bundled_solutions, name):
    # stencil(psi) + g(psi) = 0 at every interior node, to rounding
    sol = bundled_solutions[name]
    g = flux._nonlinear_term(sol.problem, sol.r[1:-1, None], None)(sol.psi[1:-1, 1:-1])
    residual = five_point_stencil(sol.problem, sol.r, sol.zu, sol.psi) + g
    assert np.max(np.abs(residual)) <= 1e-11 * np.max(np.abs(g))


def splu_reference_solve(problem, shape, tol_outer=1e-10, omega=0.8):
    """Damped Picard iteration around a sparse LU of the stencil's matrix,
    whose columns are the stencil applied to each interior unit vector."""
    from scipy import sparse
    from scipy.sparse.linalg import splu

    r, zu = np.linspace(*problem.r_range, shape[0]), np.linspace(*problem.zu_range, shape[1])
    R, ZU = np.meshgrid(r, zu, indexing="ij")
    psi = problem.boundary(R, ZU)
    psi[1:-1, 1:-1] = 0.0
    inner = (shape[0] - 2, shape[1] - 2)
    columns = []
    for k in range(inner[0] * inner[1]):
        unit = np.zeros(shape)
        unit[1:-1, 1:-1].flat[k] = 1.0
        columns.append(five_point_stencil(problem, r, zu, unit).ravel())
    lu = splu(sparse.csc_matrix(np.column_stack(columns)))
    bterm = five_point_stencil(problem, r, zu, psi)
    nonlinear = flux._nonlinear_term(problem, R[1:-1, 1:-1], problem.source(R[1:-1, 1:-1], ZU[1:-1, 1:-1]))
    updates = []
    while not updates or updates[-1] >= tol_outer:
        g = nonlinear(psi[1:-1, 1:-1])
        tilde = lu.solve((-g - bterm).ravel()).reshape(inner)
        new = (1.0 - omega) * psi[1:-1, 1:-1] + omega * tilde
        updates.append(np.max(np.abs(new - psi[1:-1, 1:-1])))
        psi[1:-1, 1:-1] = new
    return psi, len(updates)


def _lu_reference_problem(geometry, r_range=DOMAIN["r_range"]):
    return FluxProblem(
        r_range, DOMAIN["zu_range"], boundary="r^2*zu", J="0.5*psi", dJ="0.5", dN=-1.0,
        source="sin(3*r)*cos(2*zu)", gamma=0.7 if geometry == "helical" else 0.0,
    )


@pytest.mark.parametrize(
    "problem, shape",
    [
        pytest.param(_lu_reference_problem("axisymmetric"), (19, 14), id="axisymmetric"),
        pytest.param(manufactured_problem(), (19, 14), id="helical"),
        # hr = 0.125 is far above 2 r0 = 0.002; the elimination needs no
        # pivots all the same, because the stencil coefficients are positive
        pytest.param(_lu_reference_problem("axisymmetric", (1e-3, 1.0)), (9, 14), id="axisymmetric near the axis"),
        pytest.param(_lu_reference_problem("helical", (1e-3, 1.0)), (9, 14), id="helical near the axis"),
    ],
)
def test_solve_matches_a_sparse_lu_reference(problem, shape):
    # the reference loop, run until its updates are rounding, is the
    # discrete solution that Newton's method reaches in a few steps
    sol = solve_flux(problem, shape)
    want, _ = splu_reference_solve(problem, shape, tol_outer=1e-14)
    assert np.max(np.abs(sol.psi - want)) <= 1e-12 * np.max(np.abs(want))


def _count_solver_calls(monkeypatch):
    setup, setups, solves = flux._interior_solver, [], []

    def counting_setup(problem, r, zu, psi, shift):
        setups.append(psi.shape)
        solve = setup(problem, r, zu, psi, shift)

        def counting_solve(rhs):
            solves.append(rhs.shape)
            return solve(rhs)

        return counting_solve

    monkeypatch.setattr(flux, "_interior_solver", counting_setup)
    return setups, solves


def _newton_solves(sol):
    """The solves of a psi-dependent solve_flux that takes full Newton
    steps and restarts no GMRES: T(0), solve(0) and F at the start, then
    per step one per GMRES iteration and one for F at the new iterate."""
    return 3 + sum(k + 1 for k in sol.krylov_iterations)


@pytest.mark.parametrize(
    "problem, psi_dependent",
    [(quartic_problem(), False), (manufactured_problem(), True)],
    ids=["psi-independent", "psi-dependent"],
)
def test_solve_factorizes_once(problem, psi_dependent, monkeypatch):
    # the elimination is set up once per solve; a right-hand side that
    # depends on psi is solved at every GMRES iteration and Newton
    # iterate, one that does not (here an (n, 1) column in r) once, in one
    # iteration
    setups, solves = _count_solver_calls(monkeypatch)
    sol = solve_flux(problem, (17, 17))
    assert sol.iterations > 1 if psi_dependent else sol.iterations == 1
    assert setups == [(17, 17)]
    assert len(solves) == (_newton_solves(sol) if psi_dependent else 1)


def test_each_solve_returns_its_own_array():
    # a later right-hand side leaves an earlier result as it was
    problem = quartic_problem()
    r, zu = np.linspace(*problem.r_range, 17), np.linspace(*problem.zu_range, 17)
    solve = flux._interior_solver(problem, r, zu, np.zeros((17, 17)))
    first = solve(np.ones((15, 15)))
    kept = first.copy()
    second = solve(-np.ones((15, 15)))
    assert np.array_equal(first, kept) and np.array_equal(second, -kept)


def _traced_peak(fn, *args):
    """fn(*args), the peak of traced memory above the start while it ran,
    and that of what it returned (still held at the end)."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        out = fn(*args)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - start, held - start


@pytest.mark.parametrize("name", ["axisymmetric", "helical", "vortex"])
def test_a_psi_free_solve_peak_memory_is_bounded(name):
    # the solver holds its multipliers and reciprocal pivots, the boundary
    # term as edges and a few transform rows; the one solve takes an n x 1
    # column and returns one n x m array.  The vortex, linear in psi, is
    # one such solve too
    if name == "vortex":
        problem = _bundled_problem("flux_vortex_example.flux")
    else:
        gamma = GAMMA if name == "helical" else 0.0
        problem = FluxProblem(boundary="0.25*r^4 + 0.1*zu", J=0.3, dN=-2, gamma=gamma, **DOMAIN)
    solve_flux(problem, (17, 17))
    sol, peak, held = _traced_peak(solve_flux, problem, (129, 129))
    assert peak - held <= 6 * sol.psi.nbytes


def test_the_per_iteration_loop_converges_to_the_one_solve(monkeypatch):
    # profiles taken to depend on psi take the Newton loop, which starts at
    # T(0), the one solve; the quartic's are constant, so F vanishes there
    # and no step is taken
    want = solve_flux(quartic_problem(), (17, 17))
    problem = quartic_problem()
    monkeypatch.setattr(problem, "_affine", False)
    setups, solves = _count_solver_calls(monkeypatch)
    got = solve_flux(problem, (17, 17))
    assert setups == [(17, 17)]
    assert got.updates == (0.0,) and got.krylov_iterations == ()
    assert len(solves) == _newton_solves(got) == 3
    assert np.array_equal(got.psi, want.psi)


def reference_solve_flux(problem, shape, tol_outer=1e-10, max_iter=500, omega=0.8):
    """Damped Picard iteration that solves the right-hand side at every
    iteration on whole-domain arrays (the full meshgrid, the nonlinear term
    on the interior mesh, whole-array temporaries): the loop that
    ``solve_flux`` must match bit for bit."""
    nr, nzu = shape
    r = np.linspace(*problem.r_range, nr)
    zu = np.linspace(*problem.zu_range, nzu)
    R, ZU = np.meshgrid(r, zu, indexing="ij")
    psi = np.zeros((nr, nzu))
    psi[0, :] = problem.boundary(R[0, :], ZU[0, :])
    psi[-1, :] = problem.boundary(R[-1, :], ZU[-1, :])
    psi[:, 0] = problem.boundary(R[:, 0], ZU[:, 0])
    psi[:, -1] = problem.boundary(R[:, -1], ZU[:, -1])
    solve = flux._interior_solver(problem, r, zu, psi)
    S = problem.source(R[1:-1, 1:-1], ZU[1:-1, 1:-1]) if problem.source is not None else None
    nonlinear = flux._nonlinear_term(problem, R[1:-1, 1:-1], S)
    updates, converged = [], False
    for _ in range(max_iter):
        g = nonlinear(psi[1:-1, 1:-1])
        tilde = solve(-g)
        new_interior = (1.0 - omega) * psi[1:-1, 1:-1] + omega * tilde
        updates.append(float(np.max(np.abs(new_interior - psi[1:-1, 1:-1]))))
        psi[1:-1, 1:-1] = new_interior
        if updates[-1] < tol_outer:
            converged = True
            break
    return psi, tuple(updates), converged


def _bundled_problem(name):
    return parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())[0]


@pytest.mark.parametrize("shape", [(33, 33), (19, 14)])
@pytest.mark.parametrize(
    "problem, settings, psi_free",
    [
        (quartic_problem(), {}, True),
        (_bundled_problem("flux_axisym_example.flux"), {}, True),
        (_bundled_problem("flux_helical_example.flux"), {}, True),
        (manufactured_problem(), {}, False),
        (_lu_reference_problem("helical"), {}, False),
        (quartic_problem(), dict(max_iter=4), True),
        (manufactured_problem(), dict(max_iter=1), False),
    ],
    ids=[
        "quartic", "axisymmetric example", "helical example", "manufactured", "source",
        "psi-independent iteration cap", "psi-dependent iteration cap",
    ],
)
def test_solve_is_bit_identical_to_the_whole_domain_loop(problem, settings, psi_free, shape):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        sol = solve_flux(problem, shape, **settings)
    if psi_free:
        # one solve is the undamped loop's first step, which its second
        # step leaves exactly as it is
        want_psi, want_updates, want_converged = reference_solve_flux(problem, shape, **settings, omega=1.0)
        assert want_converged and want_updates[-1] == 0.0
        assert sol.converged and sol.updates == (0.0,)
        assert np.array_equal(sol.psi, want_psi)
    else:
        # Newton's method against the damped loop at its own stop (update
        # below 1e-10): they agree to 1e-9, and to 1e-7 after the one Newton
        # step that the cap allows
        want_psi, _, want_converged = reference_solve_flux(problem, shape)
        assert want_converged and sol.converged == ("max_iter" not in settings)
        tolerance = 1e-9 if sol.converged else 1e-7
        assert np.max(np.abs(sol.psi - want_psi)) <= tolerance * np.max(np.abs(want_psi))


@pytest.mark.parametrize("shape", [(33, 33), (19, 14)])
@pytest.mark.parametrize("gamma", [0.0, 0.7])
@pytest.mark.parametrize(
    "current, fixed, linear",
    [(0.0, -2, 0), ("4*psi", "-2 - 0.5*psi", "-0.5*psi")],
    ids=["psi-free", "affine"],
)
def test_a_psi_free_solve_is_linear_in_its_data(current, fixed, linear, gamma, shape):
    # the boundary data and the fixed part of g split into two problems
    # whose solutions add up to the whole problem's; an affine g keeps its
    # psi-linear part, J J' q + (the psi part of dN), in both
    whole, pressure, harmonic = (
        FluxProblem(boundary=boundary, J=current, dN=dN, gamma=gamma, **DOMAIN)
        for boundary, dN in (
            ("0.25*r^4 + 0.1*zu + 0.05*r^2*zu^3", fixed),
            ("0.25*r^4", fixed),
            ("0.1*zu + 0.05*r^2*zu^3", linear),
        )
    )
    psi = solve_flux(whole, shape).psi
    parts = solve_flux(pressure, shape).psi + solve_flux(harmonic, shape).psi
    assert np.max(np.abs(parts - psi)) <= 1e-14 * np.max(np.abs(psi))


def _count_sine_transforms(monkeypatch):
    calls, rfft = [], np.fft.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(args[0].shape)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    return calls


def test_psi_independent_profiles_are_eliminated_once(monkeypatch):
    # constant J, dJ and dN give a fixed right-hand side: one elimination
    # (two sine transforms) solves the problem
    transforms = _count_sine_transforms(monkeypatch)
    sol = solve_flux(quartic_problem(), (17, 17))
    assert sol.iterations == 1
    assert len(transforms) == 2


def test_psi_dependent_profiles_are_eliminated_at_every_iteration(monkeypatch):
    transforms = _count_sine_transforms(monkeypatch)
    sol = solve_flux(manufactured_problem(), (17, 17))
    assert sol.iterations > 1
    assert len(transforms) == 2 * _newton_solves(sol)


@pytest.mark.parametrize(
    "problem", [quartic_problem(), manufactured_problem()], ids=["psi-independent", "psi-dependent"]
)
def test_reuse_leaves_the_iteration_bit_identical(problem, monkeypatch):
    want = solve_flux(problem, (17, 17))
    setup = flux._interior_solver

    def forgetful_setup(problem, r, zu, psi, shift):
        # a new solver, with nothing to reuse, for every right-hand side
        boundary = psi.copy()
        return lambda rhs: setup(problem, r, zu, boundary, shift)(rhs)

    monkeypatch.setattr(flux, "_interior_solver", forgetful_setup)
    got = solve_flux(problem, (17, 17))
    assert got.updates == want.updates
    assert np.array_equal(got.psi, want.psi)


def test_update_history_is_recorded():
    sol = solve_flux(manufactured_problem(), (17, 17))
    assert len(sol.updates) == sol.iterations > 1
    assert sol.final_update == sol.updates[-1] < 1e-10
    assert all(b < a for a, b in zip(sol.updates, sol.updates[1:]))
    # a psi-free problem records the change a further step would make: none
    assert solve_flux(quartic_problem(), (17, 17)).updates == (0.0,)


# -- Newton-Krylov -------------------------------------------------------------------


def _nonsymmetric_system(n=120):
    # eigenvalues spread over [1, 50] with a nonsymmetric coupling: restarted
    # GMRES needs more than one restart of GMRES_RESTART iterations
    rng = np.random.default_rng(5)
    A = np.diag(np.linspace(1.0, 50.0, n)) + np.triu(rng.standard_normal((n, n)), 1) / np.sqrt(n)
    return A, rng.standard_normal(n)


def test_gmres_agrees_with_a_direct_solve_and_with_scipy():
    from scipy.sparse.linalg import gmres

    A, b = _nonsymmetric_system()
    x, iterations = flux._gmres(lambda v: A @ v, b, 1e-12)
    assert iterations > flux.GMRES_RESTART
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    for want in (np.linalg.solve(A, b), gmres(A, b, rtol=1e-12, atol=0.0, restart=flux.GMRES_RESTART)[0]):
        assert np.max(np.abs(x - want)) <= 1e-10 * np.max(np.abs(want))


def test_gmres_that_falls_short_returns_none(monkeypatch):
    monkeypatch.setattr(flux, "GMRES_MAX_ITER", 7)
    A, b = _nonsymmetric_system()
    assert flux._gmres(lambda v: A @ v, b, 1e-12) == (None, 7)


def test_a_problem_past_the_fold_raises_with_its_history():
    # N' = 50 e^psi on a zero boundary is the Bratu problem past its fold:
    # the discrete equation has no solution
    p = FluxProblem(boundary="0", dN="50*exp(psi)", **DOMAIN)
    with pytest.raises(SolverDiverged, match=r"^solver diverged: .* at Newton step 1 \(\d+ GMRES iterations in all\), "
                       r"last \|F\| \S+; \|F\| history \S+$"):
        solve_flux(p, (17, 17))


def test_a_step_that_does_not_lower_F_is_halved(monkeypatch):
    # J = 10 sin(psi) on the boundary data 3 zu: the first full Newton step
    # does not lower |F|, a halved one does, and the solve converges
    _, solves = _count_solver_calls(monkeypatch)
    sol = solve_flux(FluxProblem(boundary="3*zu", J="10*sin(psi)", **DOMAIN), (17, 17))
    assert sol.converged and all(b < a for a, b in zip(sol.updates, sol.updates[1:]))
    assert len(solves) > _newton_solves(sol)  # a trial step beyond one per Newton step


def test_a_step_whose_profile_is_not_finite_is_halved(monkeypatch):
    # dN = -20 sqrt(0.02 + psi) is not defined below psi = -0.02: two trial
    # steps reach there, each is halved, and the solve converges
    refused, make = [], flux._nonlinear_term

    def counting_term(problem, r, S):
        g = make(problem, r, S)

        def counted(psi):
            try:
                return g(psi)
            except ArithmeticError:
                refused.append(psi.shape)
                raise

        counted.slope = g.slope
        return counted

    monkeypatch.setattr(flux, "_nonlinear_term", counting_term)
    sol = solve_flux(FluxProblem(boundary="0.25*r^4", dN="-20*sqrt(0.02 + psi)", **DOMAIN), (17, 17))
    assert refused == [(15, 15)] * 2
    assert sol.converged and sol.krylov_iterations == (10, 11, 11, 11, 11, 11, 11)


def vortex_flux_problem(mode):
    """The vortex of ``plasmeq vortex --R 1 --n mode`` (B0 = P0 = 1) as the
    Grad-Shafranov problem of flux_vortex_example.flux, its closed form
    psi = -r^2 V/2, and its parameters."""
    params = equilibria.vortex_params(R=1.0, n=mode)
    lam, gamma_b = params.lam, params.gamma_b
    amp = 1.0 / (1.0 - float(equilibria._v0_profile(2.0 * lam)[0]))
    x = f"2*{lam!r}*sqrt(r^2 + zu^2)"
    problem = FluxProblem(
        (0.2, 0.6), (-0.5, 0.5), J=f"-2*{lam!r}*psi", N=f"1 - 2*({gamma_b!r})*{lam!r}^2*psi",
        boundary=f"-r^2*({amp!r}*3*(sin({x})/({x})^3 - cos({x})/({x})^2) - ({gamma_b!r}))/2",
    )

    def exact(r, zu):
        return -r * r * (amp * equilibria._v0_profile(2.0 * lam * np.hypot(r, zu))[0] - gamma_b) / 2

    return problem, exact, params


def test_the_bundled_vortex_is_mode_3():
    assert _bundled_problem("flux_vortex_example.flux").texts == vortex_flux_problem(3)[0].texts


def _orders(errors):
    return [math.log2(a / b) for a, b in zip(errors, errors[1:])]


@pytest.mark.parametrize("mode", [1, 2, 3])
def test_vortex_modes_converge_to_their_closed_form(mode):
    problem, exact, _ = vortex_flux_problem(mode)
    errors = []
    for n in (33, 65, 129):
        sol = solve_flux(problem, (n, n))
        want = exact(*np.meshgrid(sol.r, sol.zu, indexing="ij"))
        assert sol.converged
        errors.append(np.max(np.abs(sol.psi - want)) / np.max(np.abs(want)))
    assert min(_orders(errors)) >= 1.9, errors


def test_the_mapped_vortex_is_the_vortex():
    # mode 1 solved on 33^2, 65^2 and 129^2 and mapped with tau = 0 to 17^3,
    # 33^3 and 65^3, against the vortex's own fields at the same nodes
    problem, _, params = vortex_flux_problem(1)
    errors = {"B": [], "p": []}
    for n, k in ((33, 17), (65, 33), (129, 65)):
        grid = default_cartesian_box(problem, k)
        state, vortex = flux_to_cgl(solve_flux(problem, (n, n)), "0", grid), equilibria.vortex_state(params, grid)
        for name, got, want in (("B", state.B, vortex.B), ("p", state.p_perp, vortex.p_perp)):
            errors[name].append(np.max(np.abs(got.values - want.values)) / np.max(np.abs(want.values)))
    for name, errs in errors.items():
        assert min(_orders(errs)) >= 1.9, (name, errs)


def _discrete_residual(problem, sol):
    """max |stencil(psi) + g(psi)| over the interior, the source included."""
    R, ZU = (a[1:-1, 1:-1] for a in np.meshgrid(sol.r, sol.zu, indexing="ij"))
    S = problem.source(R, ZU) if problem.source is not None else None
    g = flux._nonlinear_term(problem, R, S)(sol.psi[1:-1, 1:-1])
    return np.max(np.abs(five_point_stencil(problem, sol.r, sol.zu, sol.psi) + g))


def _example_with_current(J, N="4 - 2*psi"):
    # the axisymmetric example's domain and boundary with a current J
    return FluxProblem(boundary="0.25*r^4", J=J, N=N, **DOMAIN)


@pytest.mark.parametrize("n", [33, 129, 257])
@pytest.mark.parametrize(
    "problem",
    [_example_with_current("6*psi"), _example_with_current("8*psi"), vortex_flux_problem(2)[0],
     vortex_flux_problem(3)[0]],
    ids=["J = 6 psi", "J = 8 psi", "vortex mode 2", "vortex mode 3"],
)
def test_problems_past_the_first_eigenvalue_converge(problem, n):
    # J J' = 36 psi and 64 psi lie past the first eigenvalue of -Delta* on
    # the example's domain (20.6 at 33^2), and the vortex's 4 lam^2 = 82.7
    # and 151.9 past that of its box (76.7): the damped loop diverged on all
    sol = solve_flux(problem, (n, n))
    assert sol.converged and len(sol.krylov_iterations) <= 3
    g = flux._nonlinear_term(problem, sol.r[1:-1, None], None)(sol.psi[1:-1, 1:-1])
    assert _discrete_residual(problem, sol) <= 1e-10 * np.max(np.abs(g))


def _no_gmres(*args):
    raise AssertionError("GMRES ran")


@pytest.mark.parametrize(
    "problem, n",
    [(_bundled_problem("flux_vortex_example.flux"), 129), (_bundled_problem("flux_vortex_example.flux"), 257),
     (_example_with_current("8*psi"), 257),
     (FluxProblem((0.6, 1.6), (-0.6, 0.6), boundary="(r^4 + 0.98*r^2)/4", J="0.5*psi", N="6 - 2*psi", gamma=0.4), 257),
     (quartic_problem(), 385)],
    ids=["vortex 129", "vortex 257", "J = 8 psi", "helical J = 0.5 psi", "quartic"],
)
def test_an_affine_problem_is_one_elimination_of_newtons_solution(problem, n, monkeypatch):
    # g'' = 0: the stencil plus g'(r) is eliminated once, and GMRES never runs
    monkeypatch.setattr(flux, "_gmres", _no_gmres)
    sol = solve_flux(problem, (n, n))
    assert sol.iterations == 1 and sol.updates == (0.0,) and sol.krylov_iterations == ()
    # Newton's method, which a problem takes when g'' is not known to vanish
    monkeypatch.undo()
    monkeypatch.setattr(problem, "_affine", False)
    want = solve_flux(problem, (n, n)).psi
    assert np.max(np.abs(sol.psi - want)) <= 1e-12 * np.max(np.abs(want))


def test_a_current_whose_J_dJ_is_constant_is_psi_free(monkeypatch):
    # J = sqrt(1 + psi): J J' = sqrt(1 + psi)/(2 sqrt(1 + psi)) cancels to 1/2,
    # so g' is the zero expression, and the solve is the one of J = 0 with
    # the source q/2 = 1/(2 r^2) added to N' = -2
    problem = FluxProblem(boundary="0.25*r^4", J="sqrt(1 + psi)", N="4 - 2*psi", **DOMAIN)
    assert problem._dg.expression.is_zero
    monkeypatch.setattr(flux, "_gmres", _no_gmres)
    sol = solve_flux(problem, (129, 129))
    assert sol.iterations == 1 and sol.updates == (0.0,) and sol.krylov_iterations == ()
    want = solve_flux(FluxProblem(boundary="0.25*r^4", N="4 - 2*psi", source="1/(2*r^2)", **DOMAIN), (129, 129)).psi
    assert np.max(np.abs(sol.psi - want)) <= 1e-12 * np.max(np.abs(want))


def test_affinity_is_decided_without_evaluating_g_second_derivative():
    # g' = 1.5e308 psi^2 fits in a float; g'' = 3e308 psi does not, and is
    # only tested for being zero.  g(0) = 0 and the boundary is 0: psi = 0
    problem = FluxProblem(boundary="0", dN="5e307*psi^3", **DOMAIN)
    assert not problem._affine
    sol = solve_flux(problem, (9, 9))
    assert sol.converged and sol.iterations == 1 and not sol.psi.any()


@pytest.fixture(scope="module")
def first_eigenvalue():
    """The first eigenvalue mu of the 33^2 axisymmetric stencil on the
    example's domain, stencil v = -mu v/r^2, by a dense solve.  Its
    eigenvector is zu sine mode 1 times a radial vector, so mu is the
    lowest of the radial operator of that mode, which is symmetric once
    scaled by r (r_i c_e(i) = r_(i+1) c_w(i+1)): -r^1.5 radial r^0.5 w = mu w.
    (A dense solve of the whole 961-node operator lands 2-5e-13 off,
    relative: farther than the refusal bound reaches.)"""
    n = 33
    problem = FluxProblem(boundary="0", **DOMAIN)
    r, zu = np.linspace(*DOMAIN["r_range"], n), np.linspace(*DOMAIN["zu_range"], n)
    sine = np.sin(np.pi * np.arange(1, n - 1) / (n - 1))
    columns = []
    for i in range(1, n - 1):
        unit = np.zeros((n, n))
        unit[i, 1:-1] = sine
        columns.append(five_point_stencil(problem, r, zu, unit) @ sine / (sine @ sine))
    ri = r[1:-1]
    return np.linalg.eigvalsh(-(ri[:, None] ** 1.5) * np.column_stack(columns) * np.sqrt(ri))[0]


@pytest.mark.parametrize("distance", [1e-6, -1e-6, 1e-9, -1e-9])
def test_a_problem_near_the_first_eigenvalue_is_solved(first_eigenvalue, distance):
    # J = c psi with c^2 at a relative distance from it: L + diag g' is
    # nearly singular, and its one elimination still solves the problem
    problem = _example_with_current(f"{math.sqrt(first_eigenvalue * (1 + distance))!r}*psi")
    sol = solve_flux(problem, (33, 33))
    g = flux._nonlinear_term(problem, sol.r[1:-1, None], None)(sol.psi[1:-1, 1:-1])
    assert sol.iterations == 1 and sol.converged
    assert _discrete_residual(problem, sol) <= 1e-11 * np.max(np.abs(g))


def test_a_problem_on_the_first_eigenvalue_is_refused_naming_its_mode(first_eigenvalue, tmp_path, capsys):
    from plasmeq.cli import main

    current = f"{math.sqrt(first_eigenvalue)!r}*psi"
    message = "the problem lies on an eigenvalue of its operator in zu sine mode 1"
    with pytest.raises(ValueError, match=f"^{message}$"):
        solve_flux(_example_with_current(current), (33, 33))
    path = tmp_path / "on.flux"
    text = resources.files("plasmeq.data").joinpath("flux_axisym_example.flux").read_text()
    path.write_text(text.replace("J = 0", f"J = {current}"))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "out"), "flux", "solve", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "problem, tol_outer",
    [(_example_with_current("0.8*psi"), 1e-10), (_example_with_current("4*psi"), 1e-10),
     (_example_with_current("sqrt(1 + psi)", N="4 - 3*psi + psi^3/2"), 1e-10),
     (FluxProblem(boundary="0.25*r^4", J="0.5*psi", dN="-2 - 0.1*psi", **DOMAIN), 1e-10),
     (FluxProblem(boundary="0", dN="-50*exp(psi)", **DOMAIN), 1e-10),
     (manufactured_problem(), 1e-10), (manufactured_problem(0.0), 1e-10), (_lu_reference_problem("helical"), 1e-10),
     # |psi| is 0.054 at most: the loop's stop at an update of 1e-10 leaves it 1.4e-9 short
     (vortex_flux_problem(1)[0], 1e-12)],
    ids=["J = 0.8 psi", "J = 4 psi", "J = sqrt(1 + psi)", "J = 0.5 psi, dN", "N' = -50 exp(psi)",
         "manufactured helical", "manufactured axisymmetric", "source", "vortex mode 1"],
)
def test_newton_matches_the_damped_loop_where_that_converges(problem, tol_outer):
    # the same psi to 1e-9, and a discrete residual no larger
    sol = solve_flux(problem, (33, 33))
    want_psi, _, want_converged = reference_solve_flux(problem, (33, 33), tol_outer=tol_outer)
    assert want_converged
    assert np.max(np.abs(sol.psi - want_psi)) <= 1e-9 * np.max(np.abs(want_psi))
    reference = FluxSolution(problem, sol.r, sol.zu, want_psi, (0.0,), True)
    assert _discrete_residual(problem, sol) <= _discrete_residual(problem, reference)


# -- mapping to anisotropic states ------------------------------------------------


@pytest.fixture(scope="module")
def quartic_solutions():
    return {n: solve_flux(quartic_problem(), (n, n)) for n in (33, 65)}


@pytest.fixture(scope="module")
def current_solutions():
    return {n: solve_flux(current_problem(), (n, n)) for n in (33, 65)}


def test_isotropic_mapping(quartic_solutions):
    state = flux_to_cgl(quartic_solutions[33], 0.0, grid=default_cartesian_box(quartic_problem(), 17))
    assert not state.tau.values.any()
    assert np.array_equal(state.p_perp.values, state.p_par.values)


def test_constant_tau_rescales_field(quartic_solutions):
    grid = default_cartesian_box(quartic_problem(), 17)
    iso = flux_to_cgl(quartic_solutions[33], 0.0, grid=grid)
    half = flux_to_cgl(quartic_solutions[33], 0.5, grid=grid)
    assert np.allclose(half.B.values, math.sqrt(2.0) * iso.B.values, rtol=1e-12)
    b2 = half.b_squared()
    assert np.allclose(half.p_par.values - half.p_perp.values, 0.5 * b2, rtol=1e-12)


def test_mapping_rejects_tau_at_or_above_one(quartic_solutions):
    with pytest.raises(ValueError, match="tau < 1"):
        flux_to_cgl(quartic_solutions[33], 1.0, default_cartesian_box(quartic_problem(), 9))


def test_isotropic_mapping_satisfies_force_balance(quartic_solutions):
    errs = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(quartic_solutions[n2d], 0.0, grid=default_cartesian_box(quartic_problem(), n3d))
        errs[n3d] = residual_norms(state, "mhd")["momentum"]["linf"]
    assert errs[25] / errs[49] > 3.0


def test_anisotropic_mapping_satisfies_balance_and_consistency(current_solutions):
    tau_text = f"psi/{2 * current_solutions[33].attained_range()[1]}"
    res = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(current_solutions[n2d], tau_text, grid=default_cartesian_box(current_problem(), n3d))
        assert tau_consistency_error(state) < 1e-12
        res[n3d] = residual_norms(state, "cgl")
    for eq in res[25]:
        assert res[25][eq]["linf"] / res[49][eq]["linf"] > 3.0, eq


def test_anisotropy_constant_along_field(current_solutions):
    tau_text = f"psi/{2 * current_solutions[33].attained_range()[1]}"
    errs = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(current_solutions[n2d], tau_text, grid=default_cartesian_box(current_problem(), n3d))
        errs[n3d] = norm(directional(state.B, state.tau), "linf")
    assert errs[25] / errs[49] > 3.0


def test_exact_quartic_maps_to_a_divergence_free_field_with_line_constant_tau(quartic_solutions):
    # B = -(A/2) r^2 e_z times a function of psi: central differences are
    # exact on it, so div B and B . grad tau are rounding and Picard noise
    psi_max = quartic_exact(DOMAIN["r_range"][1])
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(quartic_solutions[n2d], f"psi/{2 * psi_max}", grid=default_cartesian_box(quartic_problem(), n3d))
        norms = residual_norms(state, "cgl")
        assert norms["div_b"]["linf"] <= 1e-10
        assert norms["tau_advection"]["linf"] <= 1e-10


def test_helical_polynomial_case_maps_to_force_balance():
    # u-independent exact solution of the helical operator with dL = -A:
    # psi = (A/8)(r^4 + 2 gamma^2 r^2), J = 0
    gamma = 0.7
    problem = FluxProblem((0.6, 1.6), (-0.6, 0.6), boundary=f"{A / 8}*(r^4 + {2 * gamma**2}*r^2)", dN=-A, gamma=gamma)
    errs = {}
    for n2d, n3d in ((33, 21), (65, 41)):
        sol = solve_flux(problem, (n2d, n2d))
        state = flux_to_cgl(sol, 0.0, grid=default_cartesian_box(problem, n3d))
        errs[n3d] = residual_norms(state, "mhd")["momentum"]["linf"]
    assert errs[21] / errs[41] > 3.0


def test_helical_current_carrying_case_maps_to_force_balance():
    # constant poloidal current J = c: the radial equation integrates in
    # closed form to psi = (A/2)(r^4/4 + gamma^2 r^2/2) + gamma*c*log(r),
    # exercising both current terms of the helical operator and the
    # current contribution to the field template without any source
    gamma, c = 0.7, 0.8

    problem = FluxProblem(
        (0.6, 1.6),
        (-0.6, 0.6),
        boundary=f"{A/2}*(r^4/4 + {gamma**2/2}*r^2) + {gamma*c}*log(r)",
        J=f"{c}",
        dJ=0.0,
        dN=-A,
        gamma=gamma,
    )
    errs = {}
    for n2d, n3d in ((33, 21), (65, 41)):
        sol = solve_flux(problem, (n2d, n2d))
        state = flux_to_cgl(sol, 0.0, grid=default_cartesian_box(problem, n3d))
        errs[n3d] = residual_norms(state, "mhd")["momentum"]["linf"]
    assert errs[21] / errs[41] > 3.0


def current_carrying_helical_problem():
    return FluxProblem(
        (0.6, 1.6), (-0.6, 0.6), boundary="r^2 + 0.1*zu", J=0.8, dJ=0.0, dN=0.0, gamma=0.7
    )


@pytest.mark.parametrize("geometry", ["axisymmetric", "helical"])
def test_mapped_state_evaluator_matches_samples(quartic_solutions, geometry):
    if geometry == "axisymmetric":
        sol = quartic_solutions[33]
    else:
        sol = solve_flux(current_carrying_helical_problem(), (33, 33))
    lo, hi = sol.attained_range()
    state = flux_to_cgl(sol, f"0.3*psi/{max(abs(lo), abs(hi))}", grid=default_cartesian_box(sol.problem, 13))
    ev = state.evaluators
    X, Y, Z = state.grid.meshgrid()
    values = ev.evaluate(X, Y, Z)
    sampled = (state.B, state.p_perp, state.tau, state.psi)
    assert len(values) == len(sampled)
    for value, field in zip(values, sampled):
        assert np.array_equal(value, field.values)
    for method, value in zip((ev.B, ev.p_perp), values):
        assert np.array_equal(method(X, Y, Z), value)
    assert state.tau.values.any()


@pytest.mark.parametrize(
    "name, level", [("flux_axisym_example.flux", 4.0), ("flux_helical_example.flux", 6.0)]
)
def test_mapped_pressure_is_the_stated_N(name, level):
    # both bundled problems state N = level - 2 psi; the field-line map
    # keeps (p_perp + p_par)/2 = N
    problem, params = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
    sol = solve_flux(problem, **params)
    state = flux_to_cgl(sol, 0.2, grid=default_cartesian_box(problem, 9))
    n = 0.5 * (state.p_perp.values + state.p_par.values)
    psi = state.psi.values * state.meta["psi_normalization"]
    assert np.max(np.abs(n - (level - 2.0 * psi))) <= 1e-12


def test_a_mapped_flux_state_records_the_gauge_and_scale_of_its_label(quartic_solutions):
    sol = quartic_solutions[33]
    state = flux_to_cgl(sol, 0.2, grid=default_cartesian_box(quartic_problem(), 9))
    lo, hi = sol.attained_range()
    assert state.meta == {"psi_ref": lo, "psi_normalization": max(abs(lo), abs(hi))}
    # a point transform with the state's evaluator adds nothing to it
    assert translate_state(state, (0.0, 0.0, 0.01)).meta == state.meta


def test_pressure_from_dN_vanishes_at_the_smallest_attained_flux(quartic_solutions):
    # the quartic states dN = -A, so N(psi) = -A (psi - psi_ref)
    state = flux_to_cgl(quartic_solutions[33], 0.2, grid=default_cartesian_box(quartic_problem(), 9))
    meta = state.meta
    assert meta["psi_ref"] == quartic_solutions[33].attained_range()[0]
    n = 0.5 * (state.p_perp.values + state.p_par.values)
    psi = state.psi.values * meta["psi_normalization"]
    assert np.max(np.abs(n + A * (psi - meta["psi_ref"]))) <= 1e-12


@pytest.fixture(scope="module")
def bundled_solutions():
    # each file solved at the settings it states
    solutions = {}
    for name in BUNDLED_FLUX_FILES:
        problem, params = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
        solutions[name] = solve_flux(problem, **params)
    return solutions


BUNDLED_TAUS = [
    ("flux_axisym_example.flux", "0.2"),
    ("flux_axisym_example.flux", "psi/2.6"),
    ("flux_helical_example.flux", "0.2"),
    ("flux_helical_example.flux", "psi/5"),
]


@pytest.mark.parametrize("name, tau", BUNDLED_TAUS)
def test_bundled_examples_map_to_positive_pressures(bundled_solutions, name, tau):
    # the pressure levels of the bundled N keep both pressures positive on
    # the default box of flux tocgl, at the README's tau values and more
    state = flux_to_cgl(bundled_solutions[name], tau, grid=default_cartesian_box(bundled_solutions[name].problem))
    assert state.p_perp.values.min() > 0.0
    assert state.p_par.values.min() > 0.0


def test_a_pressure_level_moves_the_pressures_alone():
    # N and N + 3 solve to the same psi, map to the same B, tau and psi,
    # and check alike: the level is the pressure shift, a symmetry
    text = resources.files("plasmeq.data").joinpath("flux_axisym_example.flux").read_text()
    (problem, params), (raised, _) = (parse_problem_file(t) for t in (text, text.replace("N = 4 - 2*psi", "N = 7 - 2*psi")))
    sols = [solve_flux(p, **params) for p in (problem, raised)]
    assert sols[0].updates == sols[1].updates
    assert np.array_equal(sols[0].psi, sols[1].psi)
    grid = default_cartesian_box(problem, 17)
    low, high = (flux_to_cgl(sol, "psi/2.6", grid=grid) for sol in sols)
    for name in ("B", "tau", "psi"):
        assert np.array_equal(getattr(low, name).values, getattr(high, name).values)
    scale = np.max(np.abs(high.p_perp.values))
    assert np.max(np.abs(high.p_perp.values - low.p_perp.values - 3.0)) <= 1e-15 * scale
    for system in ("mhd", "cgl", "alt"):
        want, got = residual_norms(low, system), residual_norms(high, system)
        for residual, norms in want.items():
            assert abs(got[residual]["linf"] - norms["linf"]) <= 1e-12 * scale, (system, residual)
            if norms["linf"] > 1e-10 * scale:
                assert got[residual]["node"] == norms["node"], (system, residual)
            else:  # rounding alone, whose worst node the level may move
                assert max(norms["linf"], got[residual]["linf"]) <= 1e-12 * scale, (system, residual)


@pytest.mark.parametrize("name, tau", BUNDLED_TAUS)
def test_mapped_state_is_the_field_line_image_of_the_isotropic_one(bundled_solutions, name, tau):
    # M = (1 - tau)^(-1/2) as a function of the stored label, psi over its
    # largest magnitude, applied by ``transform`` to the tau = 0 state
    sol = bundled_solutions[name]
    grid = default_cartesian_box(sol.problem, 33)
    iso = flux_to_cgl(sol, 0.0, grid=grid)
    label_tau = tau.replace("psi", f"(psi*{iso.meta['psi_normalization']!r})")
    image = equilibria.apply_infinite_transform(iso, equilibria.TransformSpec(f"1/sqrt(1 - {label_tau})"))
    state = flux_to_cgl(sol, tau, grid=grid)
    assert np.array_equal(state.psi.values, image.psi.values)
    for got, want in ((state.B, image.B), (state.p_perp, image.p_perp), (state.p_par, image.p_par), (state.tau, image.tau)):
        scale = np.max(np.abs(want.values))
        assert np.max(np.abs(got.values - want.values)) <= 4e-15 * scale


@pytest.mark.parametrize("name, tau", BUNDLED_TAUS)
def test_alt_inverts_the_field_line_image(bundled_solutions, name, tau):
    sol = bundled_solutions[name]
    grid = default_cartesian_box(sol.problem, 33)
    alt = residual_norms(flux_to_cgl(sol, tau, grid=grid), "alt")["momentum"]
    mhd = residual_norms(flux_to_cgl(sol, 0.0, grid=grid), "mhd")["momentum"]
    assert alt["linf"] == pytest.approx(mhd["linf"], rel=1e-10, abs=0.0)
    assert alt["node"] == mhd["node"]


def _solution_over(lo, hi, **profiles):
    """A solution of the problem with ``profiles`` whose flux attains
    exactly [lo, hi], and points over that range."""
    problem = FluxProblem(boundary="0", **profiles, **DOMAIN)
    sol = FluxSolution(problem, np.linspace(0.5, 1.5, 9), np.linspace(-0.5, 0.5, 9),
                       np.linspace(lo, hi, 81).reshape(9, 9), (0.0,), True)
    return sol, np.append(np.linspace(lo, hi, 4097), lo)


@pytest.mark.parametrize(
    "dN, N",
    [
        ("2.5", lambda p: 2.5 * p),
        ("1 - 2*psi", lambda p: p - p**2),
        ("1 - 2*psi + 3*psi^2", lambda p: p - p**2 + p**3),
        ("psi^7/7 - 1e-3*psi", lambda p: p**8 / 56 - 5e-4 * p**2),
    ],
    ids=["constant", "linear", "quadratic", "degree 7"],
)
def test_pressure_from_a_polynomial_dN_is_its_exact_antiderivative(dN, N):
    lo, hi = -0.3, 0.7
    sol, psi = _solution_over(lo, hi, dN=dN)
    n_of = sol.pressure()
    assert n_of(np.array([lo]))[0] == 0.0
    assert np.max(np.abs(n_of(psi) - (N(psi) - N(lo)))) <= 1e-15


@pytest.mark.parametrize("lo, hi", [(-0.3, 0.7), (0.4, 1.4), (-1.5, -1.0)])
def test_pressure_of_a_cosine_is_stated_as_N(lo, hi):
    # a dN with no exact antiderivative is refused, and its N is stated instead
    sol, psi = _solution_over(lo, hi, dN="cos(3*psi)")
    message = "^dN = cos\\(3\\*psi\\) is not a polynomial in psi, so N is not its exact antiderivative: state"
    with pytest.raises(ValueError, match=message):
        sol.pressure()
    with pytest.raises(ValueError, match=message):
        flux_to_cgl(sol, 0.1, grid=default_cartesian_box(sol.problem, 5))
    sol, psi = _solution_over(lo, hi, N="sin(3*psi)/3")
    assert np.max(np.abs(sol.pressure()(psi) - np.sin(3.0 * psi) / 3.0)) <= 1e-16


def test_mapping_locates_the_points_once_per_evaluator_call(quartic_solutions, monkeypatch):
    calls = []
    spline = FluxSolution.spline

    def counting_spline(sol):
        s = spline(sol)
        for name in ("derivatives", "ev"):
            method = getattr(s, name)

            def counted(*args, _name=name, _method=method, **kwargs):
                calls.append(_name)
                return _method(*args, **kwargs)

            setattr(s, name, counted)
        return s

    monkeypatch.setattr(FluxSolution, "spline", counting_spline)
    state = flux_to_cgl(quartic_solutions[33], 0.25, grid=default_cartesian_box(quartic_problem(), 9))
    # one lookup serves psi and both first derivatives at the sampled nodes
    assert calls == ["derivatives"]
    # and at each block of a point transform: three blocks of 3 x-slabs
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 3 * 81)
    translate_state(state, (0.01, 0.0, 0.0))
    assert calls == ["derivatives"] * 4


def test_default_box_stays_inside_domain():
    for gamma in (GAMMA, 0.0):
        p = manufactured_problem(gamma)
        grid = default_cartesian_box(p, 9)
        X, Y, Z = grid.meshgrid()
        r = np.hypot(X, Y)
        u = Z - gamma * np.arctan2(Y, X)
        assert r.min() > p.r_range[0] and r.max() < p.r_range[1]
        assert u.min() > p.zu_range[0] and u.max() < p.zu_range[1]


@pytest.mark.parametrize("name", ["flux_axisym_example.flux", "flux_helical_example.flux"])
def test_mapping_refuses_points_outside_the_solution_domain(name):
    problem, _ = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
    sol = solve_flux(problem, (17, 17))
    (r0, r1), (zu0, zu1) = problem.r_range, problem.zu_range
    # x reaches 1.9, beyond r1 = 1.5 (1.6 helical): the spline would clamp
    grid = Grid3((0.7, -0.1, -0.2), (0.1, 0.1, 0.1), (13, 3, 5))
    domain = f"outside the solution domain r in [{r0:.6g}, {r1:.6g}], zu in [{zu0:.6g}, {zu1:.6g}]"
    with pytest.raises(ValueError, match=r"the points reach r in \[0\.7, 1\.90263\] and zu in \[") as err:
        flux_to_cgl(sol, 0.1, grid=grid)
    assert domain in str(err.value)
    # the evaluator refuses the points of a point transform that leaves the domain
    state = flux_to_cgl(sol, 0.1, grid=default_cartesian_box(problem, 9))
    with pytest.raises(ValueError, match="outside the solution domain"):
        translate_state(state, (1.0, 0.0, 0.0))


def test_mapping_accepts_a_grid_on_the_domain_edge():
    # x runs over [r0, r1] and overshoots r1 = 1.5 by an ulp; zu runs over [zu0, zu1]
    sol = solve_flux(quartic_problem(), (17, 17))
    grid = Grid3((0.5, 0.0, -0.5), (0.125 + 2.0**-55, 1.0, 0.125), (9, 1, 9))
    assert grid.axes()[0][-1] > 1.5
    state = flux_to_cgl(sol, 0.0, grid=grid)
    psi = state.psi.values[:, 0, :] * state.meta["psi_normalization"]
    assert np.max(np.abs(psi[[0, -1]] - sol.psi[[0, -1], ::2])) <= 1e-14 * np.max(np.abs(sol.psi))


# -- the numpy kernels against scipy ---------------------------------------------------


@pytest.mark.parametrize("m", [7, 8, 31, 127, 383])
def test_sine_transform_is_the_orthonormal_dst1(m):
    from scipy.fft import dst

    x = np.random.default_rng(m).standard_normal((5, m))
    want = dst(x, type=1, axis=1, norm="ortho")
    padded = np.zeros((5, 2 * (m + 1)))
    padded[:, 1 : m + 1] = x
    got = flux._sine_transform(padded, math.sqrt(2.0 / (m + 1)))
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


@pytest.mark.parametrize("m", [7, 8, 127])
@pytest.mark.parametrize("n", [1, 7, 32, 33, 100])
@pytest.mark.parametrize("block", [1, 3, flux.DST_BLOCK_ROWS, 128])
def test_row_blocked_sine_transform_is_the_whole_array_transform(n, m, block):
    x = np.random.default_rng(n * m).standard_normal((n, m))
    padded = np.zeros((n, 2 * (m + 1)))
    padded[:, 1 : m + 1] = x
    scale = math.sqrt(2.0 / (m + 1))
    want = flux._sine_transform(padded, scale)
    got = x.copy()
    flux._sine_transform_rows(got, scale, np.zeros((block, 2 * (m + 1))))
    assert got.tobytes() == want.tobytes()


def _stacked_spline_table(x, y, z):
    """The spline's (cells, 4, 4) table from whole-array Hermite
    coefficients stacked along y, then along x."""
    def hermite(values, slopes, h):
        v0, v1, s0, s1, h = values[:-1], values[1:], slopes[:-1], slopes[1:], h[:, None]
        secant = (v1 - v0) / h
        return [v0, s0, (3.0 * secant - 2.0 * s0 - s1) / h, (s0 + s1 - 2.0 * secant) / (h * h)]

    z_x = flux._spline_slopes(x, z)
    z_y, z_xy = np.split(flux._spline_slopes(y, np.concatenate([z, z_x]).T).T, 2)
    along_x = zip(hermite(z, z_x, np.diff(x)), hermite(z_y, z_xy, np.diff(x)))
    return np.stack(
        [np.stack(hermite(c.T, c_y.T, np.diff(y)), axis=-1).transpose(1, 0, 2) for c, c_y in along_x], axis=-2
    ).reshape(-1, 4, 4)


@pytest.mark.parametrize("shape", [(4, 4), (9, 13), (33, 17)])
def test_row_wise_spline_evaluation_is_the_gathered_block_evaluation(shape):
    rng = np.random.default_rng(shape[0] * shape[1])
    x = np.cumsum(rng.uniform(0.5, 1.5, shape[0]))
    y = np.cumsum(rng.uniform(0.5, 1.5, shape[1]))
    z = rng.standard_normal(shape)
    spline, table = flux.BicubicSpline(x, y, z), _stacked_spline_table(x, y, z)
    assert spline.coefficients.tobytes() == table.transpose(1, 2, 0).tobytes()
    # random points, points beyond the knot box, and the knots with the
    # midpoints between them, where the cell search meets a cell's edge
    inside = (rng.uniform(x[0], x[-1], 1000), rng.uniform(y[0], y[-1], 1000))
    outside = (np.array([x[0] - 1.0, x[-1] + 1.0, x[1]]), np.array([y[-1] + 2.0, y[0], y[0] - 0.5]))
    edges = np.meshgrid(np.sort(np.append(x, 0.5 * (x[1:] + x[:-1]))), y, indexing="ij")
    orders = [(dx, dy) for dx in range(4) for dy in range(4)]
    for xi, yi in (inside, outside, edges):
        cells = []
        for knots, points in ((x, xi.ravel()), (y, yi.ravel())):
            points = np.clip(points, knots[0], knots[-1])
            i = np.clip(np.searchsorted(knots, points, side="right") - 1, 0, len(knots) - 2)
            cells.append((i, points - knots[i]))
        (i, t), (j, u) = cells
        block = table[i * (len(y) - 1) + j]
        want = [flux._horner(flux._horner(block, u[:, None], dy), t, dx).reshape(xi.shape) for dx, dy in orders]
        got = spline.derivatives(xi, yi, orders)
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got, want))
        assert all(spline.ev(xi, yi, *d).tobytes() == w.tobytes() for d, w in zip(orders, want))


def test_spline_construction_peak_memory_is_bounded():
    # the table is filled slot by slot: the slopes and one x-power's pair
    # of cubics along x are all that it needs beside it
    n = 129
    rng = np.random.default_rng(3)
    args = (np.linspace(0.5, 1.5, n), np.linspace(-0.5, 0.5, n), rng.standard_normal((n, n)))
    flux.BicubicSpline(*args)
    spline, peak, _held = _traced_peak(flux.BicubicSpline, *args)
    assert peak <= 1.5 * spline.coefficients.nbytes


@pytest.mark.parametrize("gamma", [0.0, GAMMA], ids=["axisymmetric", "helical"])
@pytest.mark.parametrize("shape", [(9, 13), (33, 17), (40, 65), (129, 129)])
def test_spline_matches_fitpack(gamma, shape):
    from scipy.interpolate import RectBivariateSpline

    sol = solve_flux(manufactured_problem(gamma), shape)
    want = RectBivariateSpline(sol.r, sol.zu, sol.psi, kx=3, ky=3)
    got = sol.spline()
    rng = np.random.default_rng(shape[0] * shape[1])
    (r0, r1), (zu0, zu1) = sol.problem.r_range, sol.problem.zu_range
    nodes = np.meshgrid(sol.r, sol.zu, indexing="ij")
    inside = (rng.uniform(r0, r1, 2000), rng.uniform(zu0, zu1, 2000))
    # FITPACK clamps points outside the knot box to it
    outside = (
        np.array([r0 - 0.3, r1 + 0.2, 0.5 * (r0 + r1), r1 + 1.0]),
        np.array([zu0, zu1 + 0.4, zu0 - 0.1, zu1 + 1.0]),
    )
    grad = np.hypot(want.ev(*nodes, dx=1), want.ev(*nodes, dy=1)).max()
    for r, zu in (nodes, inside, outside):
        assert np.max(np.abs(got.ev(r, zu) - want.ev(r, zu))) <= 1e-13 * np.max(np.abs(sol.psi))
        for d in ({"dx": 1}, {"dy": 1}):
            assert np.max(np.abs(got.ev(r, zu, **d) - want.ev(r, zu, **d))) <= 1e-11 * grad
    assert np.max(np.abs(got.ev(*nodes) - sol.psi)) <= 1e-14 * np.max(np.abs(sol.psi))


# -- problem files and artifacts -----------------------------------------------------


PROBLEM_TEXT = """
# quartic test case
geometry = axisymmetric
r0 = 0.5
r1 = 1.5
zu0 = -0.5
zu1 = 0.5
J = 0
dJ = 0
dN = -2
boundary = 0.25*r^4
nr = 17
nzu = 17
tol = 1e-11
"""


def test_parse_problem_file():
    problem, params = parse_problem_file(PROBLEM_TEXT)
    assert problem.geometry == "axisymmetric"
    assert params["shape"] == (17, 17)
    assert params["tol_outer"] == 1e-11
    sol = solve_flux(problem, **params)
    assert sol.converged


def test_geometry_defaults_from_gamma():
    axisymmetric, _ = parse_problem_file(PROBLEM_TEXT.replace("geometry = axisymmetric\n", ""))
    assert axisymmetric.geometry == "axisymmetric"
    helical, _ = parse_problem_file(PROBLEM_TEXT.replace("geometry = axisymmetric\n", "gamma = 0.7\n"))
    assert (helical.geometry, helical.gamma) == ("helical", 0.7)


def test_parse_problem_file_errors():
    with pytest.raises(ValueError, match="missing r0"):
        parse_problem_file("geometry = axisymmetric\nboundary = 0\nr1=1\nzu0=0\nzu1=1")
    with pytest.raises(ValueError, match="missing the boundary"):
        parse_problem_file("r0=0.5\nr1=1\nzu0=0\nzu1=1")
    with pytest.raises(ValueError, match="unrecognized"):
        parse_problem_file(PROBLEM_TEXT + "\nwhat = 3")
    with pytest.raises(ValueError, match="duplicate"):
        parse_problem_file(PROBLEM_TEXT + "\nr0 = 0.5")
    with pytest.raises(ValueError, match="not both"):
        parse_problem_file(PROBLEM_TEXT + "\ndL = 1")
    for key in ("nr", "nzu", "max_iter"):
        with pytest.raises(ValueError, match=f"problem file: {key} is not an integer: '9.5'"):
            parse_problem_file("\n".join(line for line in PROBLEM_TEXT.splitlines() if not line.startswith(key))
                               + f"\n{key} = 9.5")
    with pytest.raises(ValueError, match="problem file: tol is not a number: 'small'"):
        parse_problem_file(PROBLEM_TEXT.replace("tol = 1e-11", "tol = small"))


def test_solution_artifacts_roundtrip(tmp_path):
    problem, params = parse_problem_file(PROBLEM_TEXT)
    sol = solve_flux(problem, **params)
    manifest = write_solution(sol, tmp_path)
    assert (tmp_path / manifest["psi_csv"]).exists()
    back = load_solution(tmp_path / "solution.json")
    assert np.array_equal(back.psi, sol.psi)
    assert manifest["updates"] == list(sol.updates)
    assert back.updates == sol.updates
    assert back.problem.geometry == "axisymmetric"
    assert back.converged == sol.converged


@pytest.mark.parametrize(
    "problem",
    [_bundled_problem("flux_axisym_example.flux"), _bundled_problem("flux_helical_example.flux"), manufactured_problem()],
    ids=["flux_axisym_example.flux", "flux_helical_example.flux", "manufactured with a source"],
)
def test_solution_files_round_trip_byte_identically(tmp_path, problem):
    # every profile is expression text, a source too, so any problem can be
    # written; both bundled files solve at the default settings
    write_solution(solve_flux(problem), tmp_path / "first")
    write_solution(load_solution(tmp_path / "first" / "solution.json"), tmp_path / "again")
    for artifact in ("psi.csv", "solution.json"):
        assert (tmp_path / "first" / artifact).read_bytes() == (tmp_path / "again" / artifact).read_bytes()
