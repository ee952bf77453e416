"""Acceptance suite: every criterion at its pinned tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.  Tolerances are fixed here, not tuned elsewhere.
"""

import json
import time

import numpy as np
import pytest

from plasmeq import fields as fd
from plasmeq.cli import main as cli_main
from plasmeq.equilibria import (
    CGLState,
    TransformSpec,
    apply_infinite_transform,
    vortex_params,
    vortex_state,
    find_lambda,
    residual_norms,
    stability_report,
)
from plasmeq.fields import Grid3, ScalarGrid, VectorGrid
from plasmeq.flux import FluxProblem, default_cartesian_box, flux_to_cgl, solve_flux
from plasmeq.lie import CandidateGenerator, build_determining_system, verify_generator
from plasmeq.systems import (
    classical_generators,
    line_function_generator,
    load_system,
    pressure_anisotropy_scaling,
)
from reference import cross


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {number} ({name}) failed: {detail}"


# -- shared states ------------------------------------------------------------


@pytest.fixture(scope="module")
def params():
    return vortex_params(R=1.0, n=3, B0=1.0, P0=1.0)


@pytest.fixture(scope="module")
def vortex_pair(params):
    return {
        33: vortex_state(params, Grid3.cube(-1.2, 1.2, 33)),
        65: vortex_state(params, Grid3.cube(-1.2, 1.2, 65)),
    }


@pytest.fixture(scope="module")
def transformed_pair(vortex_pair):
    spec = TransformSpec("1 + psi*sin(psi)")
    return {n: apply_infinite_transform(s, spec) for n, s in vortex_pair.items()}


def shared_mask_radius(states: dict, R: float) -> float:
    h_coarse = max(states[min(states)].grid.spacing)
    return R - 2.0 * h_coarse


# -- criterion 1 ---------------------------------------------------------------


def test_criterion_1_mode_numbers():
    t0 = time.perf_counter()
    roots = [find_lambda(1.0, n) for n in (1, 2, 3)]
    elapsed = time.perf_counter() - t0
    expected = (2.882, 4.548, 6.161)
    ok = all(abs(r - e) < 1e-3 for r, e in zip(roots, expected)) and elapsed < 1.0
    report(
        1,
        "mode numbers",
        ok,
        f"roots={[f'{r:.4f}' for r in roots]} elapsed={elapsed:.3f}s",
    )


# -- criterion 2 ---------------------------------------------------------------


def test_criterion_2_generator_verification():
    t0 = time.perf_counter()
    failures = []

    def expect_all_zero(system, gen, label):
        residuals = verify_generator(system, gen)
        bad = sum(1 for r in residuals if not r.is_zero)
        if bad:
            failures.append(f"{label}: {bad} nonzero residuals")

    mhd = load_system("mhd")
    for gen in classical_generators(mhd):
        expect_all_zero(mhd, gen, f"mhd/{gen.label}")

    cgl_open = load_system("cgl")
    for gen in classical_generators(cgl_open) + [pressure_anisotropy_scaling(cgl_open)]:
        expect_all_zero(cgl_open, gen, f"cgl/{gen.label}")

    cgl_closed = load_system("cgl_closed")
    for mult in ("1", "tau"):
        expect_all_zero(cgl_closed, line_function_generator(cgl_closed, mult), f"cgl_closed/F={mult}")

    ctx = mhd.context
    bogus = CandidateGenerator(ctx, {}, {ctx.symbol("P"): ctx.var("x")}, "bogus")
    bogus_residuals = verify_generator(mhd, bogus)
    if all(r.is_zero for r in bogus_residuals):
        failures.append("negative control verified unexpectedly")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    report(2, "generator verification", not failures, f"elapsed={elapsed:.1f}s {failures}")


# -- criterion 3 ---------------------------------------------------------------


def test_criterion_3_determining_counts(tmp_path):
    from importlib import resources

    obtained = {}
    for name in ("mhd", "cgl", "cgl_closed"):
        system = load_system(name)
        det = build_determining_system(system)
        obtained[name] = (det.count, system.target_count)

    ok = obtained["mhd"] == (133, 133) and obtained["cgl"] == (253, 253)
    detail = f"counts={obtained}"

    # the closed system deviates from the published count; the report must
    # record both values and generator verification stays the hard gate
    closed_file = str(resources.files("plasmeq.data").joinpath("cgl_static_closed.pde"))
    code = cli_main(["--out", str(tmp_path), "lie", "detsys", closed_file])
    with open(tmp_path / "report.json") as fh:
        rep = json.load(fh)
    counts = rep["counts"]
    recorded = (
        code == 0
        and counts["count"] == obtained["cgl_closed"][0]
        and counts["target"] == 199
        and "matches_target" in counts
    )
    ok = ok and recorded
    detail += f" closed-system report records obtained={counts.get('count')} target={counts.get('target')}"
    report(3, "determining counts", ok, detail)


# -- criterion 4 ---------------------------------------------------------------


def test_criterion_4_vortex_residual_convergence(params):
    t0 = time.perf_counter()
    states = {
        33: vortex_state(params, Grid3.cube(-1.2, 1.2, 33)),
        65: vortex_state(params, Grid3.cube(-1.2, 1.2, 65)),
    }
    mask_r = shared_mask_radius(states, params.R)
    norms = {n: residual_norms(s, "mhd", mask_radius=mask_r) for n, s in states.items()}
    elapsed = time.perf_counter() - t0
    ratios = {
        eq: norms[33][eq]["linf"] / norms[65][eq]["linf"] for eq in ("momentum", "div_b")
    }
    ok = all(abs(r - 4.0) <= 0.6 for r in ratios.values()) and elapsed < 30.0
    report(
        4,
        "vortex residual convergence",
        ok,
        f"ratios={ {k: f'{v:.2f}' for k, v in ratios.items()} } elapsed={elapsed:.1f}s",
    )


# -- criterion 5 ---------------------------------------------------------------


def test_criterion_5_transform_closure(params, vortex_pair, transformed_pair):
    mask_r = shared_mask_radius(vortex_pair, params.R)
    ratios = {}
    for system in ("cgl", "alt"):
        norms = {n: residual_norms(s, system, mask_radius=mask_r) for n, s in transformed_pair.items()}
        for eq in norms[33]:
            ratios[f"{system}/{eq}"] = norms[33][eq]["linf"] / norms[65][eq]["linf"]
    ratio_ok = all(abs(r - 4.0) <= 0.6 for r in ratios.values())

    state, out = vortex_pair[65], transformed_pair[65]
    before = state.p_perp.values + 0.5 * state.tau.values * state.b_squared()
    after = out.p_perp.values + 0.5 * out.tau.values * out.b_squared()
    invariant_err = float(np.max(np.abs(after - before))) / float(np.max(np.abs(before)))

    crossed = cross(out.B, state.B)
    cross_scale = float(np.max(np.sqrt(out.b_squared()) * np.sqrt(state.b_squared())))
    cross_err = fd.norm(crossed, "linf") / cross_scale

    tau_ok = float(np.max(out.tau.values)) < 1.0
    ok = ratio_ok and invariant_err <= 1e-12 and cross_err <= 1e-12 and tau_ok
    report(
        5,
        "transform closure",
        ok,
        f"worst_ratio_dev={max(abs(r - 4.0) for r in ratios.values()):.2f} "
        f"invariant={invariant_err:.2e} cross={cross_err:.2e} tau_max={float(np.max(out.tau.values)):.3f}",
    )


# -- criterion 6 ---------------------------------------------------------------


def test_criterion_6_group_law(vortex_pair):
    state = vortex_pair[33]
    m1, m2 = TransformSpec("1 + psi^2"), TransformSpec("2 - psi")
    composed = apply_infinite_transform(apply_infinite_transform(state, m1), m2)
    product = apply_infinite_transform(state, TransformSpec("(1 + psi^2)*(2 - psi)"))
    undone = apply_infinite_transform(
        apply_infinite_transform(state, m1), TransformSpec("1/(1 + psi^2)")
    )

    def worst(a_state, b_state):
        out = 0.0
        for name in ("B", "p_perp", "p_par", "tau"):
            a = getattr(a_state, name).values
            b = getattr(b_state, name).values
            scale = max(float(np.max(np.abs(b))), 1.0)  # unit floor: tau of the input is zero
            out = max(out, float(np.max(np.abs(a - b))) / scale)
        return out

    law_err = worst(composed, product)
    inverse_err = worst(undone, state)
    ok = law_err <= 1e-12 and inverse_err <= 1e-12
    report(6, "group law", ok, f"composition={law_err:.2e} inverse={inverse_err:.2e}")


# -- criterion 7 ---------------------------------------------------------------


def test_criterion_7_flux_solvers():
    t0 = time.perf_counter()
    failures = []

    p_exact = FluxProblem((0.5, 1.5), (-0.5, 0.5), boundary="r^2*zu")
    sol = solve_flux(p_exact, (33, 33))
    R, ZU = np.meshgrid(sol.r, sol.zu, indexing="ij")
    exact_err = float(np.max(np.abs(sol.psi - R * R * ZU)))
    if exact_err > 1e-10:
        failures.append(f"exact case error {exact_err:.2e}")

    # the flux-form stencil is exact on the quartic
    A = 2.0
    p_quartic = FluxProblem((0.5, 1.5), (-0.5, 0.5), boundary=f"{A/8}*r^4", dN=-A)
    quartic_err = 0.0
    for n in (17, 33, 65):
        s = solve_flux(p_quartic, (n, n))
        Rg, _ = np.meshgrid(s.r, s.zu, indexing="ij")
        quartic_err = max(quartic_err, float(np.max(np.abs(s.psi - A * Rg**4 / 8))))
    if quartic_err > 1e-10:
        failures.append(f"quartic error {quartic_err:.2e}")

    amp = 0.3

    def psis(r, u):
        return amp * np.sin(np.pi * r) * np.cos(np.pi * u)

    def manufactured_orders(gamma):
        # psis and the source that makes it a solution, as expression text
        pi, g2 = repr(np.pi), gamma * gamma
        ps = f"{amp}*sin({pi}*r)*cos({pi}*zu)"
        ps_r = f"{amp}*{pi}*cos({pi}*r)*cos({pi}*zu)"
        ps_rr = f"(-{pi}^2*{ps})"  # and ps_uu, the same
        op = f"{ps_rr}/r^2 + (({g2} - r^2)/(r^2 + {g2})^2*{ps_r} + r/(r^2 + {g2})*{ps_rr})/r"
        extra = f"2*({ps})^3/(r^2 + {g2}) + {2 * gamma}*({ps})^2/(r^2 + {g2})^2 + cos({ps})"
        problem = FluxProblem(
            (0.6, 1.6), (-0.5, 0.5), boundary=ps, J="psi^2",
            dJ="2*psi", dN="cos(psi)", gamma=gamma, source=f"-({op} + {extra})",
        )
        errs = {}
        for n in (17, 33, 65):
            s = solve_flux(problem, (n, n))
            Rg, Ug = np.meshgrid(s.r, s.zu, indexing="ij")
            errs[n] = float(np.max(np.abs(s.psi - psis(Rg, Ug))))
        return [np.log2(errs[a] / errs[b]) for a, b in ((17, 33), (33, 65))]

    orders = manufactured_orders(0.0)
    if not all(1.7 <= o <= 2.3 for o in orders):
        failures.append(f"axisymmetric orders {orders}")
    orders2 = manufactured_orders(0.5)
    if not all(1.7 <= o <= 2.3 for o in orders2):
        failures.append(f"helical orders {orders2}")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s over budget")
    report(
        7,
        "flux solvers",
        not failures,
        f"exact={exact_err:.1e} quartic={quartic_err:.1e} orders={[f'{o:.2f}' for o in orders]} "
        f"helical={[f'{o:.2f}' for o in orders2]} elapsed={elapsed:.1f}s {failures}",
    )


# -- criterion 8 ---------------------------------------------------------------


def test_criterion_8_flux_mapping():
    # psi = A r^4/8 + zu/10 with a constant current: the solve is exact, and
    # the mapped field's r and phi components leave a truncation error to
    # converge (on the quartic alone, div B and B . grad tau are rounding)
    A = 2.0
    problem = FluxProblem(
        (0.5, 1.5), (-0.5, 0.5), boundary=f"{A/8}*r^4 + 0.1*zu", J=0.3, dN=-A
    )
    psi_max = A * 1.5**4 / 8.0 + 0.05
    solutions = {n: solve_flux(problem, (n, n)) for n in (33, 65)}
    failures = []

    iso_norms = {}
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(solutions[n2d], 0.0, grid=default_cartesian_box(problem, n3d))
        iso_norms[n3d] = residual_norms(state, "mhd")
    for eq in iso_norms[25]:
        ratio = iso_norms[25][eq]["linf"] / iso_norms[49][eq]["linf"]
        if ratio < 3.4:
            failures.append(f"isotropic {eq} ratio {ratio:.2f}")

    cgl_norms = {}
    consistency = 0.0
    for n2d, n3d in ((33, 25), (65, 49)):
        state = flux_to_cgl(
            solutions[n2d], f"psi/{2 * psi_max}", grid=default_cartesian_box(problem, n3d)
        )
        b2 = state.b_squared()
        mask = b2 > 1e-12 * b2.max()
        gap = np.abs((state.p_par.values - state.p_perp.values) - state.tau.values * b2)
        scale = max(
            float(np.max(np.abs(state.p_par.values))),
            float(np.max(np.abs(state.p_perp.values))),
            float(np.max(b2)),
        )
        consistency = max(consistency, float(np.max(gap[mask])) / scale)
        cgl_norms[n3d] = residual_norms(state, "cgl")
    for eq in cgl_norms[25]:
        ratio = cgl_norms[25][eq]["linf"] / cgl_norms[49][eq]["linf"]
        if ratio < 3.4:
            failures.append(f"anisotropic {eq} ratio {ratio:.2f}")
    if consistency > 1e-12:
        failures.append(f"pressure-difference identity off by {consistency:.2e}")

    report(8, "flux mapping", not failures, str(failures) if failures else "all ratios >= 3.4")


# -- criterion 9 ---------------------------------------------------------------


def test_criterion_9_stability_checker():
    def const_state(b, p_perp, p_par):
        g = Grid3.cube(-1.0, 1.0, 5)
        b2 = sum(c * c for c in b)
        tau = (p_par - p_perp) / b2 if b2 else 0.0
        return CGLState(
            VectorGrid(g, np.stack([np.full(g.counts, c) for c in b])),
            ScalarGrid(g, np.full(g.counts, p_perp)),
            ScalarGrid(g, np.full(g.counts, tau)),
            ScalarGrid(g, np.zeros(g.counts)),
        )

    failures = []
    # every one of the 5^3 nodes is counted in each case
    # tau = 1/2 everywhere: fire-hose stable
    rep = stability_report(const_state((0.0, 0.0, 2.0), 1.0, 3.0))
    if (rep.counts["applicable"], rep.counts["fire_hose_unstable"]) != (125, 0):
        failures.append("tau=1/2 flagged unstable")
    # p_par - p_perp = 2 B^2: fire-hose unstable
    rep = stability_report(const_state((0.0, 0.0, 1.0), 1.0, 3.0))
    if rep.counts["fire_hose_unstable"] != 125:
        failures.append("strong anisotropy not flagged")
    # p_perp = 12, p_par = 1, B^2 = 2: mirror unstable
    rep = stability_report(const_state((0.0, 0.0, np.sqrt(2.0)), 12.0, 1.0))
    if rep.counts["mirror_unstable"] != 125:
        failures.append("mirror case not flagged")
    report(9, "stability checker", not failures, str(failures) if failures else "three cases exact")
