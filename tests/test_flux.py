import math
from importlib import resources

import numpy as np
import pytest

from plasmeq import flux
from plasmeq.equilibria import residual_norms, tau_consistency_error
from plasmeq.fields import directional, norm
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


def quartic_problem():
    # psi = A r^4 / 8 solves the axisymmetric equation with dN = -A
    return FluxProblem("axisymmetric", boundary=f"{A / 8}*r^4", dN=-A, **DOMAIN)


def quartic_exact(R):
    return A * R**4 / 8


# -- validation -----------------------------------------------------------------


def test_problem_validation():
    with pytest.raises(ValueError, match="axis is excluded"):
        FluxProblem("axisymmetric", (0.0, 1.0), (-1, 1), boundary="0")
    with pytest.raises(ValueError, match="geometry"):
        FluxProblem("spherical", (0.5, 1.0), (-1, 1), boundary="0")
    with pytest.raises(ValueError, match="pitch"):
        FluxProblem("helical", (0.5, 1.0), (-1, 1), boundary="0")
    with pytest.raises(ValueError, match="zu range"):
        FluxProblem("axisymmetric", (0.5, 1.0), (1, 1), boundary="0")


def test_solver_parameter_validation():
    p = quartic_problem()
    with pytest.raises(ValueError, match="9 x 9"):
        solve_flux(p, (5, 33))
    with pytest.raises(ValueError, match="relaxation"):
        solve_flux(p, (9, 9), omega=1.5)


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
    p = FluxProblem("axisymmetric", boundary="r^2*zu", **DOMAIN)
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
    p = FluxProblem("axisymmetric", boundary="zu + 0.3*r^2*zu", **DOMAIN)
    sol = solve_flux(p, (17, 17))
    boundary = np.concatenate([sol.psi[0, :], sol.psi[-1, :], sol.psi[:, 0], sol.psi[:, -1]])
    assert sol.psi.max() <= boundary.max() + 1e-12
    assert sol.psi.min() >= boundary.min() - 1e-12


def test_quartic_convergence_is_second_order():
    errs = {}
    for n in (17, 33, 65):
        sol = solve_flux(quartic_problem(), (n, n))
        R, _ = np.meshgrid(sol.r, sol.zu, indexing="ij")
        errs[n] = np.max(np.abs(sol.psi - quartic_exact(R)))
    orders = [math.log2(errs[a] / errs[b]) for a, b in ((17, 33), (33, 65))]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


# -- helical manufactured solution --------------------------------------------------


GAMMA = 0.5
AMP = 0.3


def helical_exact(r, u):
    return AMP * np.sin(np.pi * r) * np.cos(np.pi * u)


def helical_mms_problem():
    def source(r, u):
        ps = helical_exact(r, u)
        ps_r = AMP * np.pi * np.cos(np.pi * r) * np.cos(np.pi * u)
        ps_rr = -AMP * np.pi**2 * np.sin(np.pi * r) * np.cos(np.pi * u)
        ps_uu = -AMP * np.pi**2 * np.sin(np.pi * r) * np.cos(np.pi * u)
        c = r / (r * r + GAMMA * GAMMA)
        c_prime = (GAMMA * GAMMA - r * r) / (r * r + GAMMA * GAMMA) ** 2
        operator = ps_uu / r**2 + (c_prime * ps_r + c * ps_rr) / r
        constitutive = (
            ps * ps * 2.0 * ps / (r * r + GAMMA * GAMMA)
            + 2.0 * GAMMA * ps * ps / (r * r + GAMMA * GAMMA) ** 2
            + np.cos(ps)
        )
        return -(operator + constitutive)

    return FluxProblem(
        "helical",
        (0.6, 1.6),
        (-0.5, 0.5),
        boundary=helical_exact,
        J="psi^2",
        dJ="2*psi",
        dN="cos(psi)",
        gamma=GAMMA,
        source=source,
    )


def test_helical_manufactured_convergence():
    errs = {}
    for n in (17, 33, 65):
        sol = solve_flux(helical_mms_problem(), (n, n))
        R, U = np.meshgrid(sol.r, sol.zu, indexing="ij")
        errs[n] = np.max(np.abs(sol.psi - helical_exact(R, U)))
    orders = [math.log2(errs[a] / errs[b]) for a, b in ((17, 33), (33, 65))]
    assert all(1.7 <= o <= 2.3 for o in orders), orders


def test_divergence_is_detected():
    p = FluxProblem(
        "axisymmetric", boundary="zu", J="40*psi", dJ="40", dN=0.0, **DOMAIN
    )
    with pytest.raises(SolverDiverged):
        solve_flux(p, (17, 17), max_iter=200, omega=1.0)


def test_iteration_cap_warns_and_flags():
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        sol = solve_flux(quartic_problem(), (17, 17), max_iter=3)
    assert not sol.converged


def test_inconsistent_profiles_warn():
    p = FluxProblem(
        "axisymmetric", boundary="r^2*zu", J="psi^2", dJ="3*psi", dN=0.0, **DOMAIN
    )
    with pytest.warns(RuntimeWarning, match="numeric derivative"):
        solve_flux(p, (9, 9), max_iter=60)


def test_nonfinite_profile_evaluation_is_reported():
    # the zero initial iterate sends 1/psi to infinity
    p = FluxProblem("axisymmetric", boundary="r^2*zu", dN="1/psi", **DOMAIN)
    with pytest.raises(ArithmeticError, match="non-finite"):
        solve_flux(p, (9, 9))


# -- the five-point operator ----------------------------------------------------------


def five_point_stencil(problem, r, zu, psi):
    """The discrete operator on the interior nodes, written with array slices."""
    hr, hz = r[1] - r[0], zu[1] - zu[0]
    ri = r[1:-1, None]
    c, e, w = psi[1:-1, 1:-1], psi[2:, 1:-1], psi[:-2, 1:-1]
    zz = (psi[1:-1, 2:] - 2.0 * c + psi[1:-1, :-2]) / hz**2
    if problem.geometry == "axisymmetric":
        return (e - 2.0 * c + w) / hr**2 - (e - w) / (2.0 * hr * ri) + zz
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
    problem = FluxProblem(geometry, (0.6, 1.6), (-0.4, 0.7), boundary="0", gamma=0.7)
    r, zu = np.linspace(0.6, 1.6, shape[0]), np.linspace(-0.4, 0.7, shape[1])
    psi = np.random.default_rng(7).standard_normal(shape)
    solve = flux._interior_solver(problem, r, zu, psi)
    got = solve(five_point_stencil(problem, r, zu, psi))
    want = psi[1:-1, 1:-1]
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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
    S = problem.source(R[1:-1, 1:-1], ZU[1:-1, 1:-1])
    updates = []
    while not updates or updates[-1] >= tol_outer:
        g = flux._nonlinear_term(problem, R[1:-1, 1:-1], psi[1:-1, 1:-1], S)
        tilde = lu.solve((-g - bterm).ravel()).reshape(inner)
        new = (1.0 - omega) * psi[1:-1, 1:-1] + omega * tilde
        updates.append(np.max(np.abs(new - psi[1:-1, 1:-1])))
        psi[1:-1, 1:-1] = new
    return psi, len(updates)


def _lu_reference_problem(geometry, r_range=DOMAIN["r_range"]):
    return FluxProblem(
        geometry, r_range, DOMAIN["zu_range"], boundary="r^2*zu", J="0.5*psi", dJ="0.5", dN=-1.0,
        source="sin(3*r)*cos(2*zu)", gamma=0.7 if geometry == "helical" else 0.0,
    )


@pytest.mark.parametrize(
    "problem, shape",
    [
        pytest.param(_lu_reference_problem("axisymmetric"), (19, 14), id="axisymmetric"),
        pytest.param(helical_mms_problem(), (19, 14), id="helical"),
        # hr = 0.125 is far above 2 r0 = 0.002; the elimination needs no pivots
        # all the same, because every interior node has r >= r0 + hr > hr/2
        pytest.param(_lu_reference_problem("axisymmetric", (1e-3, 1.0)), (9, 14), id="axisymmetric near the axis"),
        pytest.param(_lu_reference_problem("helical", (1e-3, 1.0)), (9, 14), id="helical near the axis"),
    ],
)
def test_solve_matches_a_sparse_lu_reference(problem, shape):
    sol = solve_flux(problem, shape)
    want, iterations = splu_reference_solve(problem, shape)
    assert sol.iterations == iterations
    assert np.max(np.abs(sol.psi - want)) <= 1e-12 * np.max(np.abs(want))


def test_solve_factorizes_once(monkeypatch):
    # the elimination is set up once per solve; its solve runs once per Picard iteration
    setup, setups, solves = flux._interior_solver, [], []

    def counting_setup(problem, r, zu, psi):
        setups.append(psi.shape)
        solve = setup(problem, r, zu, psi)

        def counting_solve(rhs):
            solves.append(rhs.shape)
            return solve(rhs)

        return counting_solve

    monkeypatch.setattr(flux, "_interior_solver", counting_setup)
    sol = solve_flux(quartic_problem(), (17, 17))
    assert sol.iterations == 16
    assert setups == [(17, 17)]
    assert solves == [(15, 15)] * 16


def test_update_history_is_recorded():
    sol = solve_flux(quartic_problem(), (17, 17))
    assert len(sol.updates) == sol.iterations == 16
    assert sol.final_update == sol.updates[-1] < 1e-10
    assert all(b < a for a, b in zip(sol.updates, sol.updates[1:]))


# -- mapping to anisotropic states ------------------------------------------------


@pytest.fixture(scope="module")
def quartic_solutions():
    return {n: solve_flux(quartic_problem(), (n, n)) for n in (33, 65)}


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
        flux_to_cgl(quartic_solutions[33], 1.0)


def test_isotropic_mapping_satisfies_force_balance(quartic_solutions):
    errs = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(quartic_solutions[n2d], 0.0, grid=default_cartesian_box(quartic_problem(), n3d))
        errs[n3d] = residual_norms(state, "mhd")["momentum"]["linf"]
    assert errs[25] / errs[49] > 3.0


def test_anisotropic_mapping_satisfies_balance_and_consistency(quartic_solutions):
    psi_max = quartic_exact(DOMAIN["r_range"][1])
    tau_text = f"psi/{2 * psi_max}"
    res = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(quartic_solutions[n2d], tau_text, grid=default_cartesian_box(quartic_problem(), n3d))
        assert tau_consistency_error(state) < 1e-12
        res[n3d] = residual_norms(state, "cgl")
    for eq in res[25]:
        assert res[25][eq]["linf"] / res[49][eq]["linf"] > 3.0, eq


def test_anisotropy_constant_along_field(quartic_solutions):
    psi_max = quartic_exact(DOMAIN["r_range"][1])
    errs = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(quartic_solutions[n2d], f"psi/{2 * psi_max}", grid=default_cartesian_box(quartic_problem(), n3d))
        errs[n3d] = norm(directional(state.B, state.tau), "linf")
    assert errs[25] / errs[49] > 3.0


def test_helical_polynomial_case_maps_to_force_balance():
    # u-independent exact solution of the helical operator with dL = -A:
    # psi = (A/8)(r^4 + 2 gamma^2 r^2), J = 0
    gamma = 0.7

    def exact(r, u):
        return (A / 8.0) * (r**4 + 2.0 * gamma**2 * r**2)

    problem = FluxProblem("helical", (0.6, 1.6), (-0.6, 0.6), boundary=exact, dN=-A, gamma=gamma)
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
        "helical",
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
        "helical", (0.6, 1.6), (-0.6, 0.6), boundary="r^2 + 0.1*zu", J=0.8, dJ=0.0, dN=0.0, gamma=0.7
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
    sampled = (state.B, state.p_perp, state.p_par, state.tau, state.psi)
    for value, field in zip(values, sampled):
        assert np.array_equal(value, field.values)
    for method, value in zip((ev.B, ev.p_perp), values):
        assert np.array_equal(method(X, Y, Z), value)
    assert state.tau.values.any()


@pytest.mark.parametrize("name", ["flux_axisym_example.flux", "flux_helical_example.flux"])
def test_pressure_vanishes_at_the_smallest_attained_flux(name):
    # both bundled problems have dN = -2, so N(psi) = -2 (psi - psi_ref)
    problem, params = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
    sol = solve_flux(problem, **params)
    state = flux_to_cgl(sol, 0.2, grid=default_cartesian_box(problem, 9))
    meta = state.meta
    assert meta["psi_ref"] == sol.attained_range()[0]
    n = 0.5 * (state.p_perp.values + state.p_par.values)
    psi = state.psi.values * meta["psi_normalization"]
    assert np.max(np.abs(n + 2.0 * (psi - meta["psi_ref"]))) <= 1e-12


def _antiderivative_over(dN, lo, hi):
    """N(psi) of ``dN`` for a solution whose flux attains exactly [lo, hi],
    with the padded range it covers sampled on and between its knots."""
    problem = FluxProblem("axisymmetric", boundary="0", dN=dN, **DOMAIN)
    sol = FluxSolution(problem, np.linspace(0.5, 1.5, 9), np.linspace(-0.5, 0.5, 9),
                       np.linspace(lo, hi, 81).reshape(9, 9), (0.0,), True)
    pad = 0.02 * (hi - lo)
    # about 16 points per panel, plus the knot at lo
    psi = np.append(np.linspace(lo - pad, hi + pad, 4097), lo)
    return flux._pressure_antiderivative(problem, sol), psi


@pytest.mark.parametrize("lo, hi", [(-0.3, 0.7), (0.4, 1.4), (-1.5, -1.0)])
def test_pressure_antiderivative_of_a_cosine(lo, hi):
    n_of, psi = _antiderivative_over("cos(3*psi)", lo, hi)
    exact = (np.sin(3.0 * psi) - np.sin(3.0 * lo)) / 3.0
    assert np.max(np.abs(n_of(psi) - exact)) <= 1e-10


@pytest.mark.parametrize(
    "dN, N",
    [
        ("2.5", lambda p: 2.5 * p),
        ("1 - 2*psi", lambda p: p - p**2),
        ("1 - 2*psi + 3*psi^2", lambda p: p - p**2 + p**3),
    ],
    ids=["constant", "linear", "quadratic"],
)
def test_pressure_antiderivative_is_exact_for_quadratic_profiles(dN, N):
    lo, hi = -0.3, 0.7
    n_of, psi = _antiderivative_over(dN, lo, hi)
    assert n_of(np.array([lo]))[0] == 0.0
    assert np.max(np.abs(n_of(psi) - (N(psi) - N(lo)))) <= 1e-13


def test_mapping_evaluates_the_spline_three_times(quartic_solutions, monkeypatch):
    calls = []
    spline = FluxSolution.spline

    def counting_spline(sol):
        s = spline(sol)
        ev = s.ev

        def counted_ev(*args, **kwargs):
            calls.append(kwargs)
            return ev(*args, **kwargs)

        s.ev = counted_ev
        return s

    monkeypatch.setattr(FluxSolution, "spline", counting_spline)
    flux_to_cgl(quartic_solutions[33], 0.25, grid=default_cartesian_box(quartic_problem(), 9))
    assert calls == [{}, {"dx": 1}, {"dy": 1}]


def test_default_box_stays_inside_domain():
    p = helical_mms_problem()
    grid = default_cartesian_box(p, 9)
    X, Y, Z = grid.meshgrid()
    r = np.hypot(X, Y)
    u = Z - GAMMA * np.arctan2(Y, X)
    assert r.min() > p.r_range[0] and r.max() < p.r_range[1]
    assert u.min() > p.zu_range[0] and u.max() < p.zu_range[1]


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


@pytest.mark.parametrize("name", ["flux_axisym_example.flux", "flux_helical_example.flux"])
def test_solution_files_round_trip_byte_identically(tmp_path, name):
    problem, params = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
    write_solution(solve_flux(problem, **params), tmp_path / "first")
    write_solution(load_solution(tmp_path / "first" / "solution.json"), tmp_path / "again")
    for artifact in ("psi.csv", "solution.json"):
        assert (tmp_path / "first" / artifact).read_bytes() == (tmp_path / "again" / artifact).read_bytes()


def test_solution_with_callable_profiles_cannot_serialize(tmp_path):
    sol = solve_flux(helical_mms_problem(), (9, 9), max_iter=50)
    with pytest.raises(ValueError, match="callables"):
        write_solution(sol, tmp_path)
    assert list(tmp_path.iterdir()) == []
