import math
from importlib import resources

import numpy as np
import pytest

from plasmeq import flux
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
    # the flux-form stencil is exact on r^4, so only the Picard tolerance is left
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
    assert sol.iterations == 16
    assert np.max(np.abs(sol.psi - exact(R, ZU))) <= 1e-10 + h2_factor * h * h


# -- manufactured solutions ----------------------------------------------------------


GAMMA = 0.5
AMP = 0.3


def manufactured_exact(r, u):
    return AMP * np.sin(np.pi * r) * np.cos(np.pi * u)


def manufactured_problem(gamma=GAMMA):
    """``manufactured_exact`` with current and pressure profiles and the
    source that makes it a solution; ``gamma = 0`` makes it axisymmetric."""

    def source(r, u):
        ps = manufactured_exact(r, u)
        ps_r = AMP * np.pi * np.cos(np.pi * r) * np.cos(np.pi * u)
        ps_rr = -AMP * np.pi**2 * np.sin(np.pi * r) * np.cos(np.pi * u)
        ps_uu = -AMP * np.pi**2 * np.sin(np.pi * r) * np.cos(np.pi * u)
        c = r / (r * r + gamma * gamma)
        c_prime = (gamma * gamma - r * r) / (r * r + gamma * gamma) ** 2
        operator = ps_uu / r**2 + (c_prime * ps_r + c * ps_rr) / r
        constitutive = (
            ps * ps * 2.0 * ps / (r * r + gamma * gamma)
            + 2.0 * gamma * ps * ps / (r * r + gamma * gamma) ** 2
            + np.cos(ps)
        )
        return -(operator + constitutive)

    return FluxProblem(
        (0.6, 1.6),
        (-0.5, 0.5),
        boundary=manufactured_exact,
        J="psi^2",
        dJ="2*psi",
        dN="cos(psi)",
        gamma=gamma,
        source=source,
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
    p = FluxProblem(
        boundary="zu", J="40*psi", dJ="40", dN=0.0, **DOMAIN
    )
    with pytest.raises(SolverDiverged):
        solve_flux(p, (17, 17), max_iter=200, omega=1.0)


def test_iteration_cap_warns_and_flags():
    with pytest.warns(RuntimeWarning, match="iteration cap"):
        sol = solve_flux(quartic_problem(), (17, 17), max_iter=3)
    assert not sol.converged


def test_inconsistent_profiles_warn():
    p = FluxProblem(
        boundary="r^2*zu", J="psi^2", dJ="3*psi", dN=0.0, **DOMAIN
    )
    with pytest.warns(RuntimeWarning, match="numeric derivative"):
        solve_flux(p, (9, 9), max_iter=60)


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


def _count_sine_transforms(monkeypatch):
    calls, rfft = [], np.fft.rfft

    def counting_rfft(*args, **kwargs):
        calls.append(args[0].shape)
        return rfft(*args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft", counting_rfft)
    return calls


def test_psi_independent_profiles_are_eliminated_once(monkeypatch):
    # constant J, dJ and dN give the same right-hand side at every iteration:
    # one elimination (two sine transforms) serves all of them
    transforms = _count_sine_transforms(monkeypatch)
    sol = solve_flux(quartic_problem(), (17, 17))
    assert sol.iterations == 16
    assert len(transforms) == 2


def test_psi_dependent_profiles_are_eliminated_at_every_iteration(monkeypatch):
    transforms = _count_sine_transforms(monkeypatch)
    sol = solve_flux(manufactured_problem(), (17, 17))
    assert sol.iterations > 1
    assert len(transforms) == 2 * sol.iterations


@pytest.mark.parametrize(
    "problem", [quartic_problem(), manufactured_problem()], ids=["psi-independent", "psi-dependent"]
)
def test_reuse_leaves_the_iteration_bit_identical(problem, monkeypatch):
    want = solve_flux(problem, (17, 17))
    setup = flux._interior_solver

    def forgetful_setup(problem, r, zu, psi):
        # a new solver, with nothing to reuse, for every right-hand side
        boundary = psi.copy()
        return lambda rhs: setup(problem, r, zu, boundary)(rhs)

    monkeypatch.setattr(flux, "_interior_solver", forgetful_setup)
    got = solve_flux(problem, (17, 17))
    assert got.updates == want.updates
    assert np.array_equal(got.psi, want.psi)


def test_update_history_is_recorded():
    sol = solve_flux(quartic_problem(), (17, 17))
    assert len(sol.updates) == sol.iterations == 16
    assert sol.final_update == sol.updates[-1] < 1e-10
    assert all(b < a for a, b in zip(sol.updates, sol.updates[1:]))


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
        flux_to_cgl(quartic_solutions[33], 1.0)


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

    def exact(r, u):
        return (A / 8.0) * (r**4 + 2.0 * gamma**2 * r**2)

    problem = FluxProblem((0.6, 1.6), (-0.6, 0.6), boundary=exact, dN=-A, gamma=gamma)
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
    problem = FluxProblem(boundary="0", dN=dN, **DOMAIN)
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


@pytest.mark.parametrize("name", ["flux_axisym_example.flux", "flux_helical_example.flux"])
def test_solution_files_round_trip_byte_identically(tmp_path, name):
    problem, params = parse_problem_file(resources.files("plasmeq.data").joinpath(name).read_text())
    write_solution(solve_flux(problem, **params), tmp_path / "first")
    write_solution(load_solution(tmp_path / "first" / "solution.json"), tmp_path / "again")
    for artifact in ("psi.csv", "solution.json"):
        assert (tmp_path / "first" / artifact).read_bytes() == (tmp_path / "again" / artifact).read_bytes()


def test_solution_with_callable_profiles_cannot_serialize(tmp_path):
    sol = solve_flux(manufactured_problem(), (9, 9), max_iter=50)
    with pytest.raises(ValueError, match="callables"):
        write_solution(sol, tmp_path)
    assert list(tmp_path.iterdir()) == []
