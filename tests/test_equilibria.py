import dataclasses
import io
import itertools
import math
import re
import tracemalloc
import warnings
from importlib import resources
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from scipy.interpolate import RegularGridInterpolator
from scipy.optimize import brentq

from plasmeq import equilibria, expr
from plasmeq import fields as fd
from plasmeq.equilibria import (
    CGLState,
    Move,
    StateEvaluators,
    TransformSpec,
    anisotropy_scale_state,
    apply_infinite_transform,
    vortex_params,
    vortex_state,
    find_lambda,
    residual_norms,
    rotate_state,
    sample_state,
    scale_state,
    stability_report,
    tau_consistency_error,
    translate_state,
    read_state_csv,
    write_state_csv,
)
from plasmeq.fields import Grid3, ScalarGrid, VectorGrid
from reference import cross, residual_fields


@pytest.fixture(scope="module")
def params():
    return vortex_params(R=1.0, n=3, B0=1.0, P0=1.0)


@pytest.fixture(scope="module")
def vortex17(params):
    return vortex_state(params, Grid3.cube(-1.2, 1.2, 17))


@pytest.fixture(scope="module")
def vortex33(params):
    return vortex_state(params, Grid3.cube(-1.2, 1.2, 33))


@pytest.fixture(scope="module")
def vortex65(params):
    return vortex_state(params, Grid3.cube(-1.2, 1.2, 65))


def uniform_state(n=7, b=(0.0, 0.0, 1.0), p_perp=1.0, tau=0.0):
    g = Grid3.cube(-1.0, 1.0, n)
    B = VectorGrid(g, np.stack([np.full(g.counts, c) for c in b]))
    pp = ScalarGrid(g, np.full(g.counts, p_perp))
    t = ScalarGrid(g, np.full(g.counts, tau))
    psi = ScalarGrid(g, np.zeros(g.counts))
    return CGLState(B, pp, t, psi)


def assert_p_par_derived(state, want=None):
    """``state`` stores no p_par and reads it as p_perp + tau |B|^2 bit for
    bit; ``want``, a map's own p_par formula, agrees within 1e-14 of its
    largest magnitude."""
    assert "p_par" not in {f.name for f in dataclasses.fields(CGLState)}
    p_par = state.p_par.values
    assert np.array_equal(p_par, state.p_perp.values + state.tau.values * state.b_squared())
    if want is not None:
        assert np.max(np.abs(p_par - want)) <= 1e-14 * np.max(np.abs(want))


def assert_evaluator_matches_samples(state):
    """One ``evaluate`` call on the grid reproduces the sampled arrays bit
    for bit, and the per-field methods pick the matching items."""
    ev = state.evaluators
    X, Y, Z = state.grid.meshgrid()
    values = ev.evaluate(X, Y, Z)
    sampled = (state.B, state.p_perp, state.tau, state.psi)
    assert len(values) == len(sampled)
    for value, field in zip(values, sampled):
        assert np.array_equal(np.broadcast_to(value, field.values.shape), field.values)
    for method, value in zip((ev.B, ev.p_perp), values):
        assert np.array_equal(method(X, Y, Z), value)


# -- mode numbers -------------------------------------------------------------


def test_mode_numbers_match_reference_values():
    assert find_lambda(1.0, 1) == 2.881729598447275
    assert find_lambda(1.0, 2) == 4.547505665238178
    assert find_lambda(1.0, 3) == 6.161470485283291


def test_mode_numbers_scale_with_radius():
    assert find_lambda(2.0, 1) == pytest.approx(find_lambda(1.0, 1) / 2.0, rel=1e-10)


def test_mode_numbers_increase_with_the_index():
    lam10 = find_lambda(1.0, 10)
    assert lam10 > find_lambda(1.0, 9)


def test_mode_validation():
    with pytest.raises(ValueError):
        find_lambda(-1.0, 1)
    with pytest.raises(ValueError):
        find_lambda(1.0, 0)


def test_mode_roots_are_polished():
    from plasmeq.equilibria import _mode_equation

    for n in (1, 2, 3, 5):
        lam = find_lambda(1.0, n)
        assert abs(_mode_equation(lam, 1.0)) < 1e-10


def test_mode_roots_match_brentq_on_their_brackets(monkeypatch):
    # the local bisection against scipy's brentq on the same brackets
    brackets = []
    bisect = equilibria._bisect_root

    def recording(R, lo, hi, g_lo, g_hi):
        root = bisect(R, lo, hi, g_lo, g_hi)
        brackets.append((R, lo, hi, root))
        return root

    monkeypatch.setattr(equilibria, "_bisect_root", recording)
    for R in np.linspace(0.5, 2.0, 151):
        for n in (1, 2, 3, 5, 10):
            find_lambda(float(R), n)
    assert len(brackets) == 151 * 5
    for R, lo, hi, root in brackets:
        reference = brentq(equilibria._mode_equation, lo, hi, args=(R,), xtol=1e-15, rtol=8.9e-16)
        assert lo <= root <= hi
        assert abs(root - reference) <= 2 * math.ulp(reference)
        assert abs(equilibria._mode_equation(root, R)) < 1e-10


@pytest.mark.parametrize("R", [0.37, 1.0, 2.5])
def test_the_nth_mode_is_the_one_root_in_its_bracket(R):
    # x^3 j2(x) = 0 at x = 2 R lam has its n-th root in ((n + 1/2) pi, (n + 1) pi)
    for n in range(1, 301):
        lo, hi = (n + 0.5) * math.pi / (2.0 * R), (n + 1.0) * math.pi / (2.0 * R)
        assert equilibria._mode_equation(lo, R) * equilibria._mode_equation(hi, R) < 0.0
        lam = find_lambda(R, n)
        assert lo < lam < hi
        reference = brentq(equilibria._mode_equation, lo, hi, args=(R,), xtol=1e-15, rtol=8.9e-16)
        assert abs(lam - reference) <= 2 * math.ulp(reference), n
        # the parameters accept every root that find_lambda returns
        vortex_params(R, n)


def test_mode_residual_bound_grows_with_the_cube_of_the_root():
    # at n = 39 the root x = 125.6 leaves |g| = 1.09e-10 after bisection to
    # adjacent floats, which an absolute bound of 1e-10 refused
    lam = find_lambda(1.0, 39)
    assert lam == 62.819914182602176
    assert abs(equilibria._mode_equation(lam, 1.0)) > 1e-10
    assert equilibria._solves_mode_equation(lam, 1.0)
    assert vortex_params(1.0, 39).lam == lam


def test_mode_index_beyond_double_precision_is_refused():
    with pytest.raises(ValueError, match="^mode index 1000000000 "):
        find_lambda(1.0, 10**9)


def test_radial_profile_series_branch_matches_high_precision():
    # oracle: evaluate 3 (sin x / x^3 - cos x / x^2) and its scaled
    # derivative at 50 digits; the double-precision series branch must
    # agree to near machine precision where the direct form cancels badly
    import mpmath

    from plasmeq.equilibria import _v0_profile

    mpmath.mp.dps = 50
    for x in (1e-6, 1e-4, 2e-3, 9.9e-3):
        mx = mpmath.mpf(x)
        exact_v0 = float(3 * (mpmath.sin(mx) / mx**3 - mpmath.cos(mx) / mx**2))
        exact_q = float(3 * ((mx**2 - 3) * mpmath.sin(mx) + 3 * mx * mpmath.cos(mx)) / mx**5)
        v0, v0_prime_over_x = _v0_profile(np.array(x))
        assert v0 == pytest.approx(exact_v0, rel=1e-14)
        assert v0_prime_over_x == pytest.approx(exact_q, rel=1e-12, abs=1e-15)


def _former_v0(x):
    """V0 as a function of its own, as earlier releases computed it."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    direct = 3.0 * (np.sin(xs) / xs**3 - np.cos(xs) / xs**2)
    x2 = x * x
    series = 1.0 - x2 / 10.0 + x2 * x2 / 280.0 - x2 * x2 * x2 / 15120.0
    return np.where(small, series, direct)


def _former_v0_prime_over_x(x):
    """V0'(x)/x as a function of its own, as earlier releases computed it."""
    x = np.asarray(x, dtype=float)
    small = np.abs(x) < 1e-2
    xs = np.where(small, 1.0, x)
    direct = 3.0 * ((xs * xs - 3.0) * np.sin(xs) + 3.0 * xs * np.cos(xs)) / xs**5
    x2 = x * x
    series = -0.2 + x2 / 70.0 - x2 * x2 / 2520.0
    return np.where(small, series, direct)


def _bits(values):
    """The bit patterns of float values, which tell -0.0 from 0.0."""
    return np.ascontiguousarray(values, dtype=float).view(np.uint64)


# zeros, both sides of the series threshold |x| = 1e-2 and the threshold
# itself, negative values, and values across the vortex's argument range
_EDGE = 1e-2
PROFILE_ARGUMENTS = np.concatenate(
    [
        [0.0, -0.0, _EDGE, -_EDGE, np.nextafter(_EDGE, 0.0), np.nextafter(-_EDGE, 0.0), np.nextafter(_EDGE, 1.0)],
        [np.nextafter(-_EDGE, -1.0), 1e-300, -1e-300, 1e-8, -5e-3],
        np.random.default_rng(7).uniform(-1.5e-2, 1.5e-2, 24),
        np.random.default_rng(8).uniform(-40.0, 40.0, 27),
    ]
)


@pytest.mark.parametrize("shape", ["0-d", "1-D", "3-D"])
def test_v0_profile_is_bit_identical_to_the_former_two_functions(shape):
    # the merged profile shares one sine and one cosine pass and fills its
    # series only where |x| < 1e-2; each value must keep its every bit
    if shape == "0-d":
        points = [np.array(x) for x in PROFILE_ARGUMENTS]
    elif shape == "1-D":
        points = [PROFILE_ARGUMENTS]
    else:
        points = [PROFILE_ARGUMENTS[:60].reshape(3, 4, 5)]
    for x in points:
        v0, v0_prime_over_x = equilibria._v0_profile(x)
        assert np.shape(v0) == np.shape(v0_prime_over_x) == np.shape(x)
        assert np.array_equal(_bits(v0), _bits(_former_v0(x)))
        assert np.array_equal(_bits(v0_prime_over_x), _bits(_former_v0_prime_over_x(x)))


# -- vortex state ---------------------------------------------------------------


def test_field_on_axis_is_axial(params, vortex33):
    g = vortex33.grid
    idx = tuple(int(np.argmin(np.abs(ax))) for ax in g.axes())
    center = vortex33.B.values[:, idx[0], idx[1], idx[2]]
    assert center == pytest.approx([0.0, 0.0, params.B0], abs=1e-14)


def test_boundary_values(params):
    # on the sphere the field vanishes and the pressure is ambient
    thetas = np.linspace(0.0, np.pi, 7)
    x = params.R * np.sin(thetas)
    z = params.R * np.cos(thetas)
    ev = vortex_state(params, Grid3.cube(-1.2, 1.2, 9)).evaluators
    b = np.asarray(ev.B(x, np.zeros_like(x), z))
    assert np.max(np.abs(b)) < 1e-9
    p = np.asarray(ev.p_perp(x, np.zeros_like(x), z))
    assert p == pytest.approx(np.full_like(p, params.P0), rel=1e-12)


def test_vortex_evaluator_matches_samples(vortex17):
    assert_evaluator_matches_samples(vortex17)


def test_transformed_evaluator_matches_samples(vortex17):
    out = apply_infinite_transform(vortex17, TransformSpec("1 + psi*sin(psi)"))
    assert_evaluator_matches_samples(out)


def test_transform_spec_compiles_once(vortex17, monkeypatch):
    calls = []
    compile_numeric = expr.compile_numeric

    def counted(*args):
        calls.append(args)
        return compile_numeric(*args)

    # TransformSpec imports compile_numeric from expr when it first compiles
    monkeypatch.setattr(expr, "compile_numeric", counted)
    spec = TransformSpec("1 + psi^2")
    apply_infinite_transform(apply_infinite_transform(vortex17, spec), spec)
    spec(np.linspace(0.0, 1.0, 5))
    assert len(calls) == 1


def test_sample_state_rejects_nonfinite_values():
    g = Grid3.cube(-1.0, 1.0, 5)

    def evaluate(X, Y, Z):
        zero = np.zeros_like(X)
        p = np.where((X > 0.9) & (Y > 0.9) & (Z > 0.9), np.inf, 1.0)
        return np.stack([zero, zero, zero + 1.0]), p, zero, zero

    with pytest.raises(ValueError, match="sampled scalar field is not finite at node \\(4, 4, 4\\)"):
        sample_state(StateEvaluators(evaluate), g, {})


def test_field_is_divergence_free_at_second_order(vortex17, vortex33, params):
    mask_r = params.R - 2 * vortex17.grid.spacing[0]
    errs = {}
    for state in (vortex17, vortex33):
        div = fd.divergence(state.B)
        errs[state.grid.counts[0]] = fd.norm(div, "linf", fd.sphere_mask(div.grid, mask_r))
    assert errs[17] / errs[33] == pytest.approx(4.0, abs=0.8)


def test_vortex_is_isotropic(vortex33):
    assert not vortex33.tau.values.any()
    assert np.array_equal(vortex33.p_perp.values, vortex33.p_par.values)


def test_momentum_residual_second_order(vortex17, vortex33, params):
    mask_r = params.R - 2 * vortex17.grid.spacing[0]
    r17 = residual_norms(vortex17, "mhd", mask_radius=mask_r)
    r33 = residual_norms(vortex33, "mhd", mask_radius=mask_r)
    assert r17["momentum"]["linf"] / r33["momentum"]["linf"] == pytest.approx(4.0, abs=1.0)


@pytest.mark.parametrize("n", [17, 33])
def test_the_vortex_pressure_level_leaves_the_residuals_alone(params, vortex17, vortex33, n):
    # P0 is the pressure shift, a catalogued symmetry: raising it from 1 to
    # 3 moves every residual's Linf by rounding alone, at the same node
    low = {17: vortex17, 33: vortex33}[n]
    high = vortex_state(dataclasses.replace(params, P0=3.0), low.grid)
    scale = float(np.max(high.b_squared())) + 3.0
    for system in ("mhd", "cgl"):
        want, got = residual_norms(low, system), residual_norms(high, system)
        assert got.keys() == want.keys()
        for residual, norms in want.items():
            assert abs(got[residual]["linf"] - norms["linf"]) <= 1e-14 * scale, (system, residual)
            assert got[residual]["node"] == norms["node"], (system, residual)


def test_unscaled_pressure_profile_fails_momentum_oracle(params):
    # the alternative historical profile does not balance the field forces:
    # its residual does not shrink under refinement
    states = {
        n: vortex_state(params, Grid3.cube(-1.2, 1.2, n), pressure_profile="unscaled")
        for n in (17, 33)
    }
    mask_r = params.R - 2 * states[17].grid.spacing[0]
    r17 = residual_norms(states[17], "mhd", mask_radius=mask_r)["momentum"]["linf"]
    r33 = residual_norms(states[33], "mhd", mask_radius=mask_r)["momentum"]["linf"]
    assert r17 / r33 < 1.5


def test_label_constant_on_field_lines(vortex33, vortex65, params):
    mask_r = params.R - 2 * vortex33.grid.spacing[0]
    errs = {}
    for state in (vortex33, vortex65):
        adv = fd.directional(state.B, state.psi)
        errs[state.grid.counts[0]] = fd.norm(adv, "linf", fd.sphere_mask(adv.grid, mask_r))
    assert errs[33] / errs[65] == pytest.approx(4.0, abs=1.0)


# -- evaluation on plasma nodes only ----------------------------------------------------


def _full_grid_vortex(params, pressure_profile):
    """The vortex formulas evaluated on every point and masked afterwards,
    as earlier releases did: the oracle for the ball-only evaluation."""
    R, B0, P0, lam, gamma_b = params.R, params.B0, params.P0, params.lam, params.gamma_b
    v0r = float(equilibria._v0_profile(2.0 * lam * R)[0])
    amp = B0 / (1.0 - v0r)

    def b_and_p(X, Y, Z):
        rho = np.sqrt(X * X + Y * Y + Z * Z)
        v0, v0_prime_over_x = equilibria._v0_profile(2.0 * lam * rho)
        V = amp * v0 - gamma_b
        Q = 4.0 * lam * lam * amp * v0_prime_over_x
        inside = rho <= R
        bx = -0.5 * Q * Z * X - lam * V * Y
        by = -0.5 * Q * Z * Y + lam * V * X
        bz = V + 0.5 * Q * (X * X + Y * Y)
        zero = np.zeros_like(bz)
        b = np.stack([np.where(inside, bx, zero), np.where(inside, by, zero), np.where(inside, bz, zero)])
        s2 = X * X + Y * Y
        if pressure_profile == "balanced":
            p = P0 + gamma_b * lam * lam * V * s2
        else:
            p = P0 - gamma_b * V * s2
        return b, np.where(inside, p, P0)

    return b_and_p


def _full_grid_field_line_map(b, pperp, tau, ppar, b2, inside, m):
    """The field-line map with M given on every node, as earlier releases
    applied it: the oracle for the plasma-only update.  Returns (B, p_perp,
    tau) and the map's own p_par' = p_perp' + tau' M^2 |B|^2."""
    active = inside & (m != 1.0)
    m_safe = np.where(active, m, 1.0)
    b_new = np.where(active[None, ...], m_safe[None, ...] * b, b)
    b2_new = m_safe**2 * b2
    tau_new = np.where(active, 1.0 - (1.0 - tau) / m_safe**2, tau)
    pperp_new = np.where(active, pperp + 0.5 * (b2 - b2_new), pperp)
    ppar_new = np.where(active, pperp_new + tau_new * b2_new, ppar)
    return (b_new, pperp_new, tau_new), ppar_new


def _probe_points(R):
    """1-D points inside, outside and exactly on the sphere (rho == R)."""
    rng = np.random.default_rng(7)
    x, y, z = rng.uniform(-1.3 * R, 1.3 * R, (3, 64))
    on = np.array([[R, 0.0, 0.0], [0.0, R, 0.0], [0.0, 0.0, R], [-R, 0.0, 0.0], [0.0, 0.0, -R]]).T
    return tuple(np.concatenate([c, o]) for c, o in zip((x, y, z), on))


def _zero_d_points(R):
    return [(0.1 * R, -0.2 * R, 0.3 * R), (1.1 * R, 0.0, 0.5 * R), (R, 0.0, 0.0), (0.0, 0.0, R), (0.0, 0.0, 0.0)]


def _assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.array_equal(got, want)


@pytest.mark.parametrize("profile", ["balanced", "unscaled"])
@pytest.mark.parametrize("R, n", [(1.0, 3), (0.93, 1)])
def test_vortex_inside_the_ball_only_matches_the_full_grid_formulas(profile, R, n):
    params = vortex_params(R=R, n=n, P0=1.7)
    state = vortex_state(params, Grid3.cube(-1.2 * R, 1.2 * R, 33), pressure_profile=profile)
    oracle = _full_grid_vortex(params, profile)
    b, p = oracle(*state.grid.meshgrid())
    _assert_same(state.B.values, b)
    _assert_same(state.p_perp.values, p)
    _assert_same(state.p_par.values, p)
    for points in (_probe_points(R), *_zero_d_points(R)):
        got_b, got_p, *_ = state.evaluators.evaluate(*points)
        want_b, want_p = oracle(*(np.asarray(c, dtype=float) for c in points))
        _assert_same(got_b, want_b)
        _assert_same(got_p, want_p)


@pytest.mark.parametrize("texts", [("1 + psi*sin(psi)",), ("2", "1 + 0.3*psi^2"), ("1",)])
def test_field_line_image_matches_the_full_grid_map(vortex33, params, texts):
    state = vortex33
    for text in texts:
        spec = TransformSpec(text)
        out = apply_infinite_transform(state, spec)
        b2 = state.b_squared()
        inside = b2 > 1e-12 * np.max(b2)
        sampled = (state.B.values, state.p_perp.values, state.tau.values, state.p_par.values)
        want, want_ppar = _full_grid_field_line_map(*sampled, b2, inside, spec(state.psi.values))
        for got, expected in zip((out.B, out.p_perp, out.tau), want):
            _assert_same(got.values, expected)
        assert_p_par_derived(out, want_ppar)
        eps_b = 1e-12 * float(np.max(b2))
        for points in (_probe_points(params.R), *_zero_d_points(params.R)):
            source = [np.asarray(v, dtype=float) for v in state.evaluators.evaluate(*points)]
            b2l = np.einsum("c...,c...->...", source[0], source[0])
            ppar = source[1] + source[2] * b2l
            want, _ = _full_grid_field_line_map(*source[:3], ppar, b2l, b2l > eps_b, spec(source[3]))
            got = out.evaluators.evaluate(*points)
            assert len(got) == 4
            for g, w in zip(got, (*want, source[3])):
                _assert_same(g, w)
        state = out


def test_transform_evaluates_m_on_plasma_nodes_only(vortex17, monkeypatch):
    sizes = []
    call = TransformSpec.__call__

    def spy(self, psi_values):
        sizes.append(np.size(psi_values))
        return call(self, psi_values)

    monkeypatch.setattr(TransformSpec, "__call__", spy)
    out = apply_infinite_transform(vortex17, TransformSpec("1 + psi*sin(psi)"))
    out.evaluators.evaluate(*vortex17.grid.meshgrid())
    b2 = vortex17.b_squared()
    plasma = int((b2 > 1e-12 * b2.max()).sum())
    assert 0 < plasma < vortex17.grid.n_nodes
    assert sizes == [plasma, plasma]


def _half_plasma_state():
    """Field (0, 0, 1) for x < 0 with psi in [0.6, 1]; no field and
    psi = -1 for x >= 0, where log(psi) is undefined."""

    def evaluate(X, Y, Z):
        plasma = X < 0
        zero = np.zeros_like(X)
        b = np.stack([zero, zero, np.where(plasma, 1.0, 0.0)])
        p = 1.0 + 0.1 * Y
        psi = np.where(plasma, 0.8 + 0.2 * Y, -1.0)
        return b, p, zero, psi

    return sample_state(StateEvaluators(evaluate), Grid3.cube(-1.0, 1.0, 9), {})


def test_m_undefined_off_the_plasma_raises_no_warning():
    state = _half_plasma_state()
    spec = TransformSpec("1 + log(psi)")
    # M is undefined off the plasma (log of -1) and admissible on it
    assert not np.isfinite(spec(state.psi.values)).all()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = apply_infinite_transform(state, spec)
        values = out.evaluators.evaluate(*state.grid.meshgrid())
    outside = state.b_squared() == 0.0
    assert outside.any() and not outside.all()
    for name in ("B", "p_perp", "p_par", "tau", "psi"):
        before, after = getattr(state, name).values, getattr(out, name).values
        assert np.array_equal(after[..., outside], before[..., outside]), name
        assert np.all(np.isfinite(after)), name
    for value, field in zip(values, (out.B, out.p_perp, out.tau, out.psi)):
        assert np.array_equal(value, field.values)


def test_m_undefined_on_the_plasma_is_rejected(vortex17):
    # log(psi - 2) is NaN on every plasma node (psi <= 1), and NaN < m_min is False
    with pytest.raises(ValueError, match=r"M = log\(psi - 2\) is undefined \(NaN\) at psi = 0\.9"):
        apply_infinite_transform(vortex17, TransformSpec("log(psi - 2)"))


def test_m_infinite_on_the_plasma_is_rejected(vortex17):
    # exp(1000*psi) overflows on the plasma nodes with psi above 0.71
    with pytest.raises(ValueError, match=r"M = exp\(1000\*psi\) is infinite at psi = 0\.9"):
        apply_infinite_transform(vortex17, TransformSpec("exp(1000*psi)"))


def test_m_infinite_at_an_evaluated_plasma_point_is_rejected():
    # finite on the sampled plasma nodes (psi >= 0.6), overflowing at psi = -0.2
    out = apply_infinite_transform(_half_plasma_state(), TransformSpec("1 + exp(-1000*(psi - 0.6))"))
    point = (np.array([-0.5]), np.array([-5.0]), np.array([0.0]))
    with pytest.raises(ValueError, match=r"M = 1 \+ exp\(-1000\*\(psi - 0\.6\)\) is infinite at psi = -0\.2$"):
        out.evaluators.evaluate(*point)


def test_m_undefined_at_an_evaluated_plasma_point_is_rejected():
    # 1 + sqrt(psi - 0.6) is defined on the sampled plasma nodes (psi >= 0.6), not below them
    out = apply_infinite_transform(_half_plasma_state(), TransformSpec("1 + sqrt(psi - 0.6)"))
    point = (np.array([-0.5]), np.array([-1.1]), np.array([0.0]))
    with pytest.raises(ValueError, match=r"M = 1 \+ sqrt\(psi - 0\.6\) is undefined \(NaN\) at psi = 0\.58$"):
        out.evaluators.evaluate(*point)


# -- the field-line transform -----------------------------------------------------


def test_transform_identity_is_exact(vortex17):
    out = apply_infinite_transform(vortex17, TransformSpec("1"))
    assert np.array_equal(out.B.values, vortex17.B.values)
    assert np.array_equal(out.p_perp.values, vortex17.p_perp.values)
    assert np.array_equal(out.p_par.values, vortex17.p_par.values)
    assert np.array_equal(out.tau.values, vortex17.tau.values)


def test_transform_identity_exact_on_anisotropic_state():
    state = uniform_state(tau=0.3)
    out = apply_infinite_transform(state, TransformSpec("1"))
    assert np.array_equal(out.tau.values, state.tau.values)
    assert np.array_equal(out.p_par.values, state.p_par.values)


def test_transform_constant_two():
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=0.0)
    out = apply_infinite_transform(state, TransformSpec("2"))
    assert np.allclose(out.B.values[2], 2.0)
    assert np.allclose(out.tau.values, 0.75)
    assert np.allclose(out.p_perp.values, 1.0 - 1.5)
    assert np.allclose(out.p_par.values, out.p_perp.values + 3.0)


def test_transform_of_a_state_with_tau_of_one_or_more_warns_once():
    # 33^3 maps in three blocks, each of which sees tau >= 1: one warning
    state = uniform_state(n=33, tau=1.5)
    assert len(range(0, 33, equilibria.BLOCK_NODES // 33**2)) == 3
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        apply_infinite_transform(state, TransformSpec("2"))
        apply_infinite_transform(uniform_state(n=33, tau=0.99), TransformSpec("2"))
    assert [(w.category, str(w.message)) for w in caught] == [(RuntimeWarning, "input state has tau >= 1 somewhere")]


def test_a_state_keeps_only_the_metadata_that_is_read(vortex17, tmp_path):
    # the vortex records the scale of its label; every map keeps it, and a
    # trilinear resampling adds its flag and nothing else
    assert vortex17.meta == {"psi_normalization": vortex17.meta["psi_normalization"]}
    maps = [
        lambda s: apply_infinite_transform(s, TransformSpec("1 + psi*sin(psi)")),
        lambda s: anisotropy_scale_state(s, 1.3),
        lambda s: rotate_state(s, *EULER),
        lambda s: translate_state(s, (0.1, 0.0, 0.0), 0.2),
        lambda s: scale_state(s, 1.5, 0.7),
        lambda s: s.coarsen(),
    ]
    for move in maps:
        assert move(vortex17).meta == vortex17.meta
    write_state_csv(vortex17, tmp_path / "s.csv")
    read = read_state_csv(tmp_path / "s.csv")
    assert read.meta == {}
    assert maps[0](read).meta == {}
    assert [move(read).meta for move in maps[2:5]] == [{"resampling": "trilinear (lossy)"}] * 3


def test_transform_preserves_combined_pressure(vortex33):
    spec = TransformSpec("1 + psi*sin(psi)")
    out = apply_infinite_transform(vortex33, spec)
    before = vortex33.p_perp.values + 0.5 * vortex33.tau.values * vortex33.b_squared()
    after = out.p_perp.values + 0.5 * out.tau.values * out.b_squared()
    scale = np.max(np.abs(before))
    assert np.max(np.abs(after - before)) <= 1e-12 * scale


def test_transform_keeps_field_lines(vortex33):
    out = apply_infinite_transform(vortex33, TransformSpec("1 + psi*sin(psi)"))
    crossed = cross(out.B, vortex33.B)
    scale = np.max(np.sqrt(out.b_squared()) * np.sqrt(vortex33.b_squared()))
    assert fd.norm(crossed, "linf") <= 1e-12 * scale


def test_transform_preserves_firehose_side(vortex33):
    out = apply_infinite_transform(vortex33, TransformSpec("2 - psi"))
    assert np.all(np.sign(1.0 - out.tau.values) == np.sign(1.0 - vortex33.tau.values))


def test_transform_tau_consistency(vortex33):
    out = apply_infinite_transform(vortex33, TransformSpec("1 + psi*sin(psi)"))
    assert tau_consistency_error(out) < 1e-12


def test_transform_outside_plasma_is_passthrough(vortex17):
    out = apply_infinite_transform(vortex17, TransformSpec("3"))
    b2 = vortex17.b_squared()
    outside = b2 <= 1e-12 * b2.max()
    assert np.array_equal(out.p_perp.values[outside], vortex17.p_perp.values[outside])
    assert np.array_equal(out.tau.values[outside], vortex17.tau.values[outside])


def test_transform_rejects_vanishing_magnitude(vortex17):
    # the attained label range on this state is a narrow band below one,
    # so psi - 0.99 stays under the requested separation bound everywhere
    with pytest.raises(ValueError, match="attained label range"):
        apply_infinite_transform(vortex17, TransformSpec("psi - 0.99", m_min=0.05))


@pytest.mark.parametrize("m_min", [0.0, -1.0, math.nan])
def test_transform_spec_refuses_a_floor_that_is_not_positive(m_min):
    # a zero or negative floor would let |M| = 0 through to a non-finite tau
    with pytest.raises(ValueError, match="m_min must be positive"):
        TransformSpec("psi", m_min=m_min)


def test_group_law_and_inverse(vortex17):
    m1 = TransformSpec("1 + psi^2")
    m2 = TransformSpec("2 - psi")
    composed = apply_infinite_transform(apply_infinite_transform(vortex17, m1), m2)
    product = apply_infinite_transform(vortex17, TransformSpec("(1 + psi^2)*(2 - psi)"))
    # all fields here are order one, so the 1e-12 relative bound gets a
    # unit floor (tau of the isotropic input is identically zero)
    for name in ("B", "p_perp", "p_par", "tau"):
        a = getattr(composed, name).values
        b = getattr(product, name).values
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0), name
    undone = apply_infinite_transform(
        apply_infinite_transform(vortex17, m1), TransformSpec("1/(1 + psi^2)")
    )
    for name in ("B", "p_perp", "p_par", "tau"):
        a = getattr(undone, name).values
        b = getattr(vortex17, name).values
        assert np.max(np.abs(a - b)) <= 1e-12 * max(np.max(np.abs(b)), 1.0), name


def test_transformed_state_satisfies_anisotropic_systems(vortex33, vortex65, params):
    spec = TransformSpec("1 + psi*sin(psi)")
    mask_r = params.R - 2 * vortex33.grid.spacing[0]
    norms = {}
    for state in (vortex33, vortex65):
        out = apply_infinite_transform(state, spec)
        assert float(np.max(out.tau.values)) < 1.0
        for system in ("cgl", "alt"):
            norms[(state.grid.counts[0], system)] = residual_norms(out, system, mask_radius=mask_r)
    for system in ("cgl", "alt"):
        for eq in norms[(33, system)]:
            ratio = norms[(33, system)][eq]["linf"] / norms[(65, system)][eq]["linf"]
            assert ratio == pytest.approx(4.0, abs=0.6), (system, eq)


def test_recast_momentum_recombines_cgl_residuals(vortex33, vortex65):
    # continuum identity: recast momentum = anisotropic momentum
    # + (1/2) B (B . grad tau); discretely the gap is second-order small
    spec = TransformSpec("1 + psi*sin(psi)")
    gaps = {}
    for state in (vortex33, vortex65):
        out = apply_infinite_transform(state, spec)
        cgl = residual_fields(out, "cgl")
        alt = residual_fields(out, "alt")
        b_i = out.B.interior()
        recombined = cgl["momentum"].values + 0.5 * b_i.values * cgl["tau_advection"].values[None]
        gap = VectorGrid(cgl["momentum"].grid, alt["momentum"].values - recombined)
        mask = fd.sphere_mask(gap.grid, 0.85)
        gaps[state.grid.counts[0]] = fd.norm(gap, "linf", mask)
    assert gaps[33] / gaps[65] > 3.0


# -- the compiled residuals against numpy statements of the same systems ---------------


def _numpy_mhd_momentum(state):
    """curl(B) x B - grad(p_perp), the isotropic balance written in numpy."""
    jxb = cross(fd.curl(state.B), state.B.interior())
    return jxb.values - fd.gradient(state.p_perp).values


def _numpy_cgl_momentum(state, tau_grad_b2):
    """(1 - tau) curl(B) x B - grad(p_perp) - tau_grad_b2 - B (B . grad tau),
    the anisotropic balance written in numpy, given its tau term."""
    jxb = cross(fd.curl(state.B), state.B.interior()).values
    ti = state.tau.interior().values
    bi = state.B.interior().values
    line = fd.directional(state.B, state.tau).values
    return (1.0 - ti)[None] * jxb - fd.gradient(state.p_perp).values - tau_grad_b2 - bi * line[None]


def _tau_b_grad_b(state):
    """tau sum_j B_j d_i B_j, the tau term as ``cgl_static_closed.pde`` writes it."""
    h = state.grid.spacing
    db = np.stack([np.stack([fd._axis_diff(c, i, h[i]) for c in state.B.values]) for i in range(3)])
    bi = state.B.interior().values
    return state.tau.interior().values[None] * np.einsum("jxyz,ijxyz->ixyz", bi, db)


def _tau_grad_half_b2(state):
    """tau grad(B^2/2): the tau term of the hand-coded ``cgl`` residual
    that the compiled file replaced, a different second-order stencil."""
    gb2h = fd.gradient(ScalarGrid(state.grid, 0.5 * state.b_squared())).values
    return state.tau.interior().values[None] * gb2h


def _relative_gap(got, want):
    return float(np.max(np.abs(got - want))) / float(np.max(np.abs(want)))


def test_compiled_mhd_momentum_is_curl_b_cross_b_minus_grad_p(vortex33, vortex65):
    for state in (vortex33, vortex65):
        res = residual_fields(state, "mhd")
        want = _numpy_mhd_momentum(state)
        # the residual is a small difference of O(1) terms; measure against those
        scale = float(np.max(np.abs(fd.gradient(state.p_perp).values)))
        assert float(np.max(np.abs(res["momentum"].values - want))) <= 1e-12 * scale
        assert np.array_equal(res["div_b"].values, fd.divergence(state.B).values)


@pytest.fixture(scope="module")
def transformed_pair(vortex33, vortex65):
    spec = TransformSpec("1 + psi*sin(psi)")
    return {state.grid.counts[0]: apply_infinite_transform(state, spec) for state in (vortex33, vortex65)}


@pytest.mark.parametrize("k", range(-3, 4))
def test_power_of_two_scaling_moves_the_residual_norms_by_exact_factors(transformed_pair, k):
    # x -> s x, B -> s^2 B, p_perp -> s^4 p_perp (tau and psi kept) maps an
    # equilibrium to one; for s = 2^k each residual scales by s^3 (momentum)
    # or s (div_b, tau_advection), exactly, since powers of two are
    src = transformed_pair[33]
    g = src.grid
    s = 2.0**k
    grid = Grid3(tuple(s * o for o in g.origin), tuple(s * h for h in g.spacing), g.counts)
    scaled = equilibria._state(grid, (s**2 * src.B.values, s**4 * src.p_perp.values, src.tau.values, src.psi.values), {})
    factors = {"momentum": s**3, "div_b": s, "tau_advection": s}
    for system in ("mhd", "cgl"):
        want, got = residual_norms(src, system), residual_norms(scaled, system)
        assert got.keys() == want.keys() <= factors.keys()
        for name, norms in want.items():
            assert got[name]["linf"] == factors[name] * norms["linf"], (system, name)
            assert got[name]["node"] == norms["node"]


# the 48 symmetries of the centred cube: new axis i is old axis perm[i],
# negated where signs[i] is -1; B_i -> signs[i] B_perm[i], scalars kept
CUBE_SYMMETRIES = [(perm, signs) for perm in itertools.permutations(range(3)) for signs in itertools.product((1, -1), repeat=3)]


def _cube_image(state, perm, signs):
    """The image of a state on a centred cubic grid under one symmetry of
    the cube: node arrays transposed by ``perm`` and flipped where
    ``signs`` is -1, and B's components moved and negated with them."""

    def moved(values):
        lead = values.ndim - 3
        values = np.transpose(values, (*range(lead), *(lead + np.array(perm))))
        flips = tuple(lead + i for i, sign in enumerate(signs) if sign < 0)
        return np.ascontiguousarray(np.flip(values, flips) if flips else values)

    b = moved(state.B.values)[list(perm)] * np.array(signs, dtype=float)[:, None, None, None]
    return equilibria._state(state.grid, (b, *(moved(f.values) for f in (state.p_perp, state.tau, state.psi))), {})


def _symmetry_id(symmetry):
    perm, signs = symmetry
    return "".join(("-" if sign < 0 else "") + "xyz"[i] for i, sign in zip(perm, signs))


@pytest.mark.parametrize("mask_radius", [None, 0.8, 0.5], ids=["whole interior", "radius 0.8", "radius 0.5"])
@pytest.mark.parametrize(
    "n, symmetry",
    [(17, symmetry) for symmetry in CUBE_SYMMETRIES] + [(33, ((0, 1, 2), (1, 1, -1))), (33, ((1, 2, 0), (1, 1, 1)))],
    ids=[f"17-{_symmetry_id(symmetry)}" for symmetry in CUBE_SYMMETRIES] + ["33-xy-z", "33-yzx"],
)
def test_every_symmetry_of_the_cube_keeps_stability_counts_and_residual_norms(
    vortex17, vortex33, monkeypatch, n, symmetry, mask_radius
):
    # a symmetry of the centred cube maps an equilibrium to one, node for node
    src = apply_infinite_transform({17: vortex17, 33: vortex33}[n], TransformSpec("1 + psi*sin(psi)"))
    img = _cube_image(src, *symmetry)
    want, got = stability_report(src), stability_report(img)
    assert got.counts == want.counts and got.margins == want.margins
    # the smallest pressure is at the centre node, which every symmetry fixes
    assert got.worst_pressure == want.worst_pressure
    # windows of three slabs: a mask skips the windows beyond its ball, on
    # whichever axis the map puts x, and cuts the others in y and z
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 3 * n * n)
    perm, _signs = symmetry
    for system in ("mhd", "cgl"):
        want, got = residual_norms(src, system, mask_radius), residual_norms(img, system, mask_radius)
        assert got.keys() == want.keys()
        for name, norms in want.items():
            # a flip negates each central difference exactly, and so does a
            # swap of x and y; a map that moves z sums the three terms of
            # div_b and of tau_advection in another order, which moves
            # their Linf by at most one ulp (measured: div_b at 17^3, both
            # at 33^3); the momentum stays exact under all 48
            ulps = 1 if perm[2] != 2 and name != "momentum" else 0
            assert abs(got[name]["linf"] - norms["linf"]) <= ulps * math.ulp(norms["linf"]), (system, name)


@pytest.fixture(scope="module")
def flux_states():
    """The README's ``flux tocgl`` states of both bundled solutions (33^2
    solves) at 17^3: tau = psi/2.6 on the axisymmetric, 0.2 on the helical."""
    from plasmeq import flux

    out = {}
    for name, tau in (("axisym", "psi/2.6"), ("helical", 0.2)):
        text = resources.files("plasmeq.data").joinpath(f"flux_{name}_example.flux").read_text()
        problem, params = flux.parse_problem_file(text)
        solution = flux.solve_flux(problem, params["shape"])
        out[name] = flux.flux_to_cgl(solution, tau, grid=flux.default_cartesian_box(problem, 17))
    return out


@pytest.mark.parametrize("name", ["axisym", "helical"])
@pytest.mark.parametrize("signs", [signs for perm, signs in CUBE_SYMMETRIES if perm == (0, 1, 2)], ids=str)
def test_every_mirror_keeps_the_stability_counts_and_residual_norms_of_flux_states(flux_states, name, signs):
    # the default box is not a cube, so only the eight sign flips apply; on
    # the whole interior each flip negates each central difference exactly
    src = flux_states[name]
    assert src.grid.counts == (17, 17, 17)
    img = _cube_image(src, (0, 1, 2), signs)
    want, got = stability_report(src), stability_report(img)
    assert got.counts == want.counts and got.margins == want.margins
    for system in ("mhd", "cgl", "alt"):
        want, got = residual_norms(src, system), residual_norms(img, system)
        assert got.keys() == want.keys()
        for residual, norms in want.items():
            # the L2 sums the squares in another order: one ulp at most
            assert got[residual]["linf"] == norms["linf"], (system, residual)
            assert abs(got[residual]["l2"] - norms["l2"]) <= math.ulp(norms["l2"]), (system, residual)


def test_compiled_cgl_div_b_and_tau_advection_are_the_numpy_stencils_bit_for_bit(transformed_pair):
    for state in transformed_pair.values():
        res = residual_fields(state, "cgl")
        assert np.array_equal(res["div_b"].values, fd.divergence(state.B).values)
        assert np.array_equal(res["tau_advection"].values, fd.directional(state.B, state.tau).values)


def test_compiled_cgl_momentum_is_the_file_balance(transformed_pair):
    for state in transformed_pair.values():
        got = residual_fields(state, "cgl")["momentum"].values
        scale = float(np.max(np.abs(fd.gradient(state.p_perp).values)))
        assert float(np.max(np.abs(got - _numpy_cgl_momentum(state, _tau_b_grad_b(state))))) <= 1e-12 * scale


def test_compiled_cgl_momentum_converges_at_second_order(transformed_pair):
    mask_r = 0.9
    linf, gaps = {}, {}
    for n, state in transformed_pair.items():
        mask = fd.sphere_mask(state.grid.interior(), mask_r)
        mom = residual_fields(state, "cgl")["momentum"]
        linf[n] = fd.norm(mom, "linf", mask)
        # the two stencils of tau grad(B^2/2) agree to second order too
        old = VectorGrid(mom.grid, _numpy_cgl_momentum(state, _tau_grad_half_b2(state)))
        gaps[n] = fd.norm(VectorGrid(mom.grid, mom.values - old.values), "linf", mask)
    assert linf[33] / linf[65] == pytest.approx(4.0, abs=0.5)
    assert gaps[33] / gaps[65] == pytest.approx(4.0, abs=0.5)


def _numpy_alt(state):
    """(curl S) x S - grad P' for S = sqrt(1 - tau) B and P' = p_perp +
    tau B^2/2, the recast balance written in numpy, and P' itself."""
    scaled = VectorGrid(state.grid, np.sqrt(1.0 - state.tau.values)[None] * state.B.values)
    combined = ScalarGrid(state.grid, state.p_perp.values + 0.5 * state.tau.values * state.b_squared())
    return cross(fd.curl(scaled), scaled.interior()).values - fd.gradient(combined).values, combined


def test_alt_is_the_compiled_isotropic_balance_of_the_scaled_field(transformed_pair, residual_source):
    flux_states = [residual_source("flux_to_cgl", (n, n, n)) for n in (33, 65)]
    for state in [*transformed_pair.values(), *flux_states]:
        res = residual_fields(state, "alt")
        momentum, combined = _numpy_alt(state)
        scale = float(np.max(np.abs(fd.gradient(combined).values)))
        assert float(np.max(np.abs(res["momentum"].values - momentum))) <= 1e-12 * scale
        assert np.array_equal(res["div_b"].values, fd.divergence(state.B).values)
        assert np.array_equal(res["tau_advection"].values, fd.directional(state.B, state.tau).values)
        assert np.array_equal(res["label_advection"].values, fd.directional(state.B, combined).values)


def test_transformed_field_stays_divergence_free(vortex17, vortex33, params):
    spec = TransformSpec("1 + psi*sin(psi)")
    mask_r = params.R - 2 * vortex17.grid.spacing[0]
    errs = {}
    for state in (vortex17, vortex33):
        out = apply_infinite_transform(state, spec)
        div = fd.divergence(out.B)
        errs[state.grid.counts[0]] = fd.norm(div, "linf", fd.sphere_mask(div.grid, mask_r))
    assert errs[17] / errs[33] == pytest.approx(4.0, abs=1.0)


# -- finite point transformations ----------------------------------------------------


def test_translate_shifts_pressure_only(vortex17):
    out = translate_state(vortex17, K=(0.0, 0.0, 0.0), k4=5.0)
    assert np.allclose(out.B.values, vortex17.B.values, atol=1e-14)
    assert np.allclose(out.p_perp.values, vortex17.p_perp.values + 5.0, atol=1e-12)


def test_translate_moves_coordinates(vortex17):
    h = vortex17.grid.spacing[0]
    out = translate_state(vortex17, K=(h, 0.0, 0.0))
    # the shifted state evaluated one node to the right matches the original
    assert np.allclose(out.B.values[:, 1:, :, :], vortex17.B.values[:, :-1, :, :], atol=1e-12)


def test_rotation_about_axis_is_invariance(vortex17):
    out = rotate_state(vortex17, 0.37, 0.0, 0.0)
    assert np.allclose(out.B.values, vortex17.B.values, atol=1e-12)
    assert np.allclose(out.p_perp.values, vortex17.p_perp.values, atol=1e-12)


def test_rotation_preserves_residual(params):
    state = vortex_state(params, Grid3.cube(-1.2, 1.2, 25))
    tilted = rotate_state(state, 0.4, 0.7, -0.2)
    mask_r = params.R - 2 * state.grid.spacing[0]
    base = residual_norms(state, "mhd", mask_radius=mask_r)["momentum"]["linf"]
    rotated = residual_norms(tilted, "mhd", mask_radius=mask_r)["momentum"]["linf"]
    assert rotated == pytest.approx(base, rel=0.5)


def test_scale_literal_factor(vortex17):
    out = scale_state(vortex17, t=2.0, s=3.0, pressure_factor="as-printed")
    idx = tuple(int(np.argmin(np.abs(ax))) for ax in vortex17.grid.axes())
    assert out.B.values[2][idx] == pytest.approx(3.0 * vortex17.B.values[2][idx], rel=1e-12)
    assert out.p_perp.values[idx] == pytest.approx(6.0 * vortex17.p_perp.values[idx], rel=1e-12)


def test_scale_defaults_to_the_generator_factor(vortex17):
    default = scale_state(vortex17, t=2.0, s=3.0)
    generator = scale_state(vortex17, t=2.0, s=3.0, pressure_factor="generator")
    for name in ("B", "p_perp", "p_par", "tau", "psi"):
        assert np.array_equal(getattr(default, name).values, getattr(generator, name).values)


def test_scale_generator_factor_balance_under_refinement(params, vortex33, vortex65):
    # s = 3 separates the two pressure factors (2s = 6 against s^2 = 9; at
    # s = 2 they coincide).  The generator factor keeps the force balance,
    # so its residual shrinks at second order, while the as-printed factor
    # leaves an O(1) pressure-gradient imbalance that refinement cannot
    # remove.  The refinement ratio is the arbiter.
    res = {}
    for state in (vortex33, vortex65):
        mask_r = 1.25 * params.R - 3 * vortex33.grid.spacing[0] * 1.25
        for factor in ("as-printed", "generator"):
            scaled = scale_state(state, t=1.25, s=3.0, pressure_factor=factor)
            res[(state.grid.counts[0], factor)] = residual_norms(
                scaled, "mhd", mask_radius=mask_r
            )["momentum"]["linf"]
    assert res[(33, "generator")] / res[(65, "generator")] > 2.5
    assert res[(33, "as-printed")] / res[(65, "as-printed")] < 1.5


def test_scale_validation(vortex17):
    with pytest.raises(ValueError):
        scale_state(vortex17, t=0.0, s=1.0)
    with pytest.raises(ValueError):
        scale_state(vortex17, t=1.0, s=1.0, pressure_factor="nope")


def test_anisotropy_scale_example():
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=0.0)
    out = anisotropy_scale_state(state, 2.0)
    assert np.allclose(out.p_perp.values, 2.5)
    assert np.allclose(out.tau.values, -1.0)
    with pytest.raises(ValueError):
        anisotropy_scale_state(state, 0.0)


def test_anisotropy_and_pressure_shift_act_on_field_free_nodes(vortex17):
    # unlike the field-line transform, these move the pressure outside the
    # plasma too, so that it stays continuous across the plasma edge
    b2 = vortex17.b_squared()
    free = b2 <= equilibria._field_null_threshold(b2)
    assert free.sum() == 3676 and np.all(vortex17.p_perp.values[free] == 1.0)
    scaled = anisotropy_scale_state(vortex17, 2.0)
    assert np.all(scaled.tau.values[free] == -1.0)
    assert np.all(scaled.p_perp.values[free] == 2.0) and np.all(scaled.p_par.values[free] == 2.0)
    shifted = translate_state(vortex17, k4=0.5)
    assert np.all(shifted.p_perp.values[free] == 1.5) and np.all(shifted.p_par.values[free] == 1.5)


def test_trilinear_resample_path_flags_lossy():
    state = uniform_state(n=9)
    stripped = CGLState(state.B, state.p_perp, state.tau, state.psi, {}, None)
    out = translate_state(stripped, K=(0.05, 0.0, 0.0), k4=0.0)
    assert out.meta["resampling"].startswith("trilinear")
    assert np.allclose(out.B.values[2], 1.0, atol=1e-12)  # constant fields survive exactly


def _sampled_only_state(grid, f):
    """A state without evaluators whose seven columns sample ``f(X, Y, Z, c)``."""
    X, Y, Z = grid.meshgrid()
    cols = [f(X, Y, Z, c) for c in range(6)]
    B = VectorGrid(grid, np.stack(cols[:3]))
    p_perp, tau, psi = (ScalarGrid(grid, v) for v in cols[3:])
    return CGLState(B, p_perp, tau, psi, {}, None)


# an anisotropic grid with an off-centre origin; rotating it about the
# origin carries some target nodes outside, where the path extrapolates
TRILINEAR_GRID = Grid3((-1.0, -0.75, -0.45), (0.1, 0.0625, 0.075), (21, 25, 13))
EULER = (0.4, 0.9, -0.3)


def _rotated_points(grid):
    inv = equilibria._euler_zxz(*EULER).T
    X, Y, Z = grid.meshgrid()
    return np.einsum("rc,c...->r...", inv, np.stack([X, Y, Z]))


def test_trilinear_path_matches_regular_grid_interpolator():
    def smooth(X, Y, Z, c):
        return np.sin(1.3 * X + 0.4 * c) * np.cos(0.7 * Y - 0.2 * c) + np.exp(0.3 * Z) * (1.0 + 0.1 * c)

    state = _sampled_only_state(TRILINEAR_GRID, smooth)
    out = rotate_state(state, *EULER)
    assert out.meta["resampling"] == "trilinear (lossy)"
    pts = np.stack(_rotated_points(TRILINEAR_GRID), axis=-1)
    lo = np.array(TRILINEAR_GRID.origin)
    hi = lo + np.array(TRILINEAR_GRID.spacing) * (np.array(TRILINEAR_GRID.counts) - 1)
    assert ((pts < lo) | (pts > hi)).any(axis=-1).sum() > 100  # extrapolated nodes are exercised

    def oracle(values):
        interp = RegularGridInterpolator(TRILINEAR_GRID.axes(), values, bounds_error=False, fill_value=None)
        return interp(pts)

    rot = equilibria._euler_zxz(*EULER)
    want_b = np.einsum("rc,c...->r...", rot, np.stack([oracle(state.B.values[c]) for c in range(3)]))
    pairs = [(out.B.values, want_b)] + [
        (getattr(out, name).values, oracle(getattr(state, name).values)) for name in ("p_perp", "tau", "psi")
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("move", ["rotate", "translate", "scale"])
def test_trilinear_path_is_exact_on_multilinear_fields(move):
    coeffs = [(0.3, -1.2, 0.7, 2.1, -0.9), (1.0, 0.5, -0.25, 0.125, 3.0), (-2.0, 0.0, 1.5, -0.5, 0.75)]

    def multilinear(X, Y, Z, c):
        a, b, cy, d, e = coeffs[c % 3]
        return a + b * X + cy * Y + d * Z + e * X * Y * Z

    state = _sampled_only_state(TRILINEAR_GRID, multilinear)
    rot, s, pf = np.eye(3), 1.0, 1.0
    if move == "rotate":
        out = rotate_state(state, *EULER)
        rot = equilibria._euler_zxz(*EULER)
        Xs, Ys, Zs = _rotated_points(TRILINEAR_GRID)
    elif move == "translate":
        # a shift of more than a cell, so the nodes on one side extrapolate
        out = translate_state(state, K=(0.13, -0.2, 0.11))
        X, Y, Z = TRILINEAR_GRID.meshgrid()
        Xs, Ys, Zs = X - 0.13, Y + 0.2, Z - 0.11
    else:
        # a contraction, so the outer nodes pull back outside the grid
        out = scale_state(state, t=0.8, s=1.5)
        Xs, Ys, Zs = (c / 0.8 for c in TRILINEAR_GRID.meshgrid())
        s, pf = 1.5, 1.5**2
    want_b = s * np.einsum("rc,c...->r...", rot, np.stack([multilinear(Xs, Ys, Zs, c) for c in range(3)]))
    assert np.max(np.abs(out.B.values - want_b)) <= 1e-12 * np.max(np.abs(want_b))
    for name, c, factor in (("p_perp", 3, pf), ("tau", 4, 1.0), ("psi", 5, 1.0)):
        want = factor * multilinear(Xs, Ys, Zs, c)
        assert np.max(np.abs(getattr(out, name).values - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("move", ["rotate", "translate", "scale generator", "scale as-printed"])
def test_point_transforms_match_the_pushed_forward_evaluator(params, move):
    # x' = t R x + K, B' = s R B, p_perp' = pf p_perp + k4 against the
    # source's evaluator at R^T (x' - K)/t, on an anisotropic source
    src = apply_infinite_transform(vortex_state(params, Grid3.cube(-1.2, 1.2, 17)), TransformSpec("1 + 0.3*psi*sin(psi)"))
    rot, t, K, s, pf, k4 = np.eye(3), 1.0, np.zeros(3), 1.0, 1.0, 0.0
    if move == "rotate":
        rot = equilibria._euler_zxz(*EULER)
        out = rotate_state(src, *EULER)
    elif move == "translate":
        K, k4 = np.array([0.13, -0.2, 0.11]), 0.4
        out = translate_state(src, tuple(K), k4)
    else:
        factor = move.split()[1]
        t, s = 1.3, 0.7
        pf = {"generator": s * s, "as-printed": 2.0 * s}[factor]
        out = scale_state(src, t, s, pressure_factor=factor)
    pulled = np.einsum("cr,c...->r...", rot, np.stack(src.grid.meshgrid()) - K[:, None, None, None]) / t
    b, p_perp, tau, psi = src.evaluators.evaluate(*pulled)
    b = s * np.einsum("rc,c...->r...", rot, b)
    p_perp = pf * p_perp + k4
    want = (b, p_perp, p_perp + tau * np.einsum("c...,c...->...", b, b), tau, psi)
    for got, w in zip((out.B, out.p_perp, out.p_par, out.tau, out.psi), want):
        assert np.max(np.abs(got.values - w)) <= 1e-13 * np.max(np.abs(w))


def test_trilinear_path_needs_two_nodes_per_axis():
    flat = Grid3((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (1, 4, 4))
    state = _sampled_only_state(flat, lambda X, Y, Z, c: X + Y + c)
    with pytest.raises(ValueError, match="at least 2 nodes"):
        translate_state(state, K=(0.0, 0.5, 0.0))


@pytest.mark.parametrize("rot", [np.eye(3), equilibria._euler_zxz(*EULER)], ids=["axis-aligned", "rotated"])
def test_trilinear_path_refuses_points_beyond_the_float_range(rot):
    # x/t overflows for t = 1e-310: without the check the one-axis path
    # gave inf and NaN fields, and the eight-corner path an IndexError
    state = _sampled_only_state(TRILINEAR_GRID, lambda X, Y, Z, c: X + Y + c)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="^trilinear resampling needs finite points"):
            equilibria._map_state(state, Move(rot, t=1e-310))


# move -> (the transform with one non-finite parameter, the error's text)
NON_FINITE_MOVES = {
    "translate K": (lambda state: translate_state(state, (math.nan, 0.0, 0.0)), "K must be finite, got (nan, 0.0, 0.0)"),
    "translate k4": (lambda state: translate_state(state, (0.1, 0.0, 0.0), math.inf), "k4 must be finite, got inf"),
    "rotate phi": (lambda state: rotate_state(state, math.nan, 0.1, 0.2), "phi must be finite, got nan"),
    "rotate theta": (lambda state: rotate_state(state, 0.1, math.inf, 0.2), "theta must be finite, got inf"),
    "rotate psi_angle": (lambda state: rotate_state(state, 0.1, 0.2, -math.inf), "psi_angle must be finite, got -inf"),
    "scale t": (lambda state: scale_state(state, math.nan, 1.0), "t must be finite, got nan"),
    "scale s": (lambda state: scale_state(state, 1.1, math.inf), "s must be finite, got inf"),
    "anisotropy C": (lambda state: anisotropy_scale_state(state, math.nan), "C must be finite, got nan"),
}


def _refused_before_evaluating(vortex17, transform, message, sampled_only):
    """``transform`` of the vortex, with or without its evaluator, raises
    ``message`` before any block or evaluator call."""
    calls = []
    state = _counting(vortex17, calls)
    if sampled_only:
        state = CGLState(state.B, state.p_perp, state.tau, state.psi, {}, None)
    with mock.patch.object(equilibria, "_evaluate_in_blocks", side_effect=AssertionError("evaluated")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            transform(state)
    assert calls == []


@pytest.mark.parametrize("sampled_only", [False, True], ids=["analytic", "sampled only"])
@pytest.mark.parametrize("move", NON_FINITE_MOVES)
def test_point_transforms_refuse_non_finite_parameters_before_evaluating(vortex17, move, sampled_only):
    # without the check a NaN shift or scale gave B = 0, an infinite one
    # NaN fields, and a NaN t an IndexError from the trilinear cell search
    _refused_before_evaluating(vortex17, *NON_FINITE_MOVES[move], sampled_only)


@pytest.mark.parametrize("sampled_only", [False, True], ids=["analytic", "sampled only"])
@pytest.mark.parametrize("K", [(0.1, 0.2, 0.3, 9.0), (0.1, 0.2)], ids=["four numbers", "two numbers"])
def test_translate_refuses_a_shift_that_is_not_three_numbers(vortex17, K, sampled_only):
    # without the check zip dropped a fourth entry, and two entries failed
    # to unpack with a message that named nothing
    message = f"K must be three numbers, got {K}"
    _refused_before_evaluating(vortex17, lambda st: translate_state(st, K), message, sampled_only)


# -- blocked evaluation ----------------------------------------------------------------


def _whole_grid_affine(state, move):
    """The finite form ``move`` on the whole grid at once: the pullback,
    the source's evaluator or ``_trilinear`` on the full pullback, then the
    field rotation, the pressures and |B|^2."""
    rot, t, K, s, pf, shift = move.rot, move.t, move.K, move.s, move.pf, move.shift
    x, y, z = ((a - k) / t for a, k in zip(np.ix_(*state.grid.axes()), K))
    Xs, Ys, Zs = (rot[0, r] * x + rot[1, r] * y + rot[2, r] * z for r in range(3))
    if state.evaluators is not None:
        b, pperp, tau, psi = state.evaluators.evaluate(Xs, Ys, Zs)
    else:
        interp = equilibria._trilinear(state.grid, Xs, Ys, Zs)
        b = np.stack([interp(c) for c in state.B.values])
        pperp, tau, psi = (interp(f.values) for f in (state.p_perp, state.tau, state.psi))
    b = np.einsum("rc,c...->r...", s * rot, b)
    pperp = pf * np.asarray(pperp, dtype=float) + shift
    b2 = np.einsum("cijk,cijk->ijk", b, b)
    return b, pperp, pperp + tau * b2, tau, psi


def _blocked_move(move, small):
    """A point transform and its finite form (a ``Move``); the small ones
    keep a mapped state's points inside its domain."""
    if move == "rotate":
        euler = (0.02, 0.0, 0.0) if small else EULER
        return (lambda st: rotate_state(st, *euler)), Move(equilibria._euler_zxz(*euler))
    if move == "translate":
        K = (0.03, -0.02, 0.02) if small else (0.13, -0.2, 0.11)
        return (lambda st: translate_state(st, K, 0.4)), Move(K=K, shift=0.4)
    t, s = (1.02, 0.9) if small else (1.3, 0.7)
    return (lambda st: scale_state(st, t, s)), Move(t=t, s=s, pf=s * s)


@pytest.fixture(scope="module")
def helical_solution():
    from plasmeq import flux

    text = resources.files("plasmeq.data").joinpath("flux_helical_example.flux").read_text()
    problem, _ = flux.parse_problem_file(text)
    return flux.solve_flux(problem, (17, 17))


def _blocked_source(kind, counts, params, solution):
    """A state of the given kind on a grid of ``counts`` nodes."""
    if kind == "flux_to_cgl":
        from plasmeq import flux

        return flux.flux_to_cgl(solution, "psi/4", grid=flux.default_cartesian_box(solution.problem, counts))
    grid = Grid3((-1.2, -1.2, -1.2), tuple(2.4 / (n - 1) for n in counts), counts)
    base = vortex_state(params, grid)
    if kind == "constant M":
        return apply_infinite_transform(base, TransformSpec("2"))
    state = apply_infinite_transform(base, TransformSpec("1 + 0.3*psi*sin(psi)"))
    if kind == "trilinear":
        return CGLState(state.B, state.p_perp, state.tau, state.psi, {}, None)
    return state


def _counting(state, calls):
    """``state`` with its evaluator wrapped to record the shape of each call."""
    source = state.evaluators.evaluate

    def evaluate(X, Y, Z):
        calls.append(np.shape(X))
        return source(X, Y, Z)

    return CGLState(state.B, state.p_perp, state.tau, state.psi, state.meta, StateEvaluators(evaluate))


# grid counts and x-slabs per block (None: the default block); no slab
# count divides its grid's x count
BLOCKED_GRIDS = {
    "9^3 by 2": ((9, 9, 9), 2),
    "17x5x33 by 3": ((17, 5, 33), 3),
    "65^3 by 7": ((65, 65, 65), 7),
    "65^3 by default": ((65, 65, 65), None),
}


def _set_block(monkeypatch, counts, slabs):
    """Blocks of ``slabs`` x-slabs, or the default block; returns the slabs."""
    _nx, ny, nz = counts
    if slabs is None:
        return max(1, equilibria.BLOCK_NODES // (ny * nz))
    monkeypatch.setattr(equilibria, "BLOCK_NODES", slabs * ny * nz + ny)
    return slabs


@pytest.mark.parametrize("move", ["rotate", "translate", "scale"])
@pytest.mark.parametrize("kind", ["analytic", "constant M", "trilinear", "flux_to_cgl"])
@pytest.mark.parametrize("grid_name", BLOCKED_GRIDS)
def test_point_transforms_in_blocks_are_bit_identical_to_the_whole_grid(
    params, helical_solution, monkeypatch, grid_name, kind, move
):
    counts, slabs = BLOCKED_GRIDS[grid_name]
    src = _blocked_source(kind, counts, params, helical_solution)
    slabs = _set_block(monkeypatch, counts, slabs)
    transform, finite_form = _blocked_move(move, small=kind == "flux_to_cgl")
    want = _whole_grid_affine(src, finite_form)
    calls = []
    out = transform(src if src.evaluators is None else _counting(src, calls))
    got = (out.B.values, out.p_perp.values, out.p_par.values, out.tau.values, out.psi.values)
    for g, w in zip(got, want):
        assert np.array_equal(g, np.broadcast_to(w, g.shape))
    if src.evaluators is not None:
        # one evaluator call per block of at most ``slabs`` whole x-slabs
        nx, ny, nz = counts
        assert calls == [(min(slabs, nx - i), ny, nz) for i in range(0, nx, slabs)]


@pytest.mark.parametrize("profile", ["balanced", "unscaled"])
@pytest.mark.parametrize("grid_name", BLOCKED_GRIDS)
def test_vortex_sampled_in_blocks_is_bit_identical_to_the_whole_grid(params, monkeypatch, grid_name, profile):
    counts, slabs = BLOCKED_GRIDS[grid_name]
    _set_block(monkeypatch, counts, slabs)
    grid = Grid3((-1.2, -1.2, -1.2), tuple(2.4 / (n - 1) for n in counts), counts)
    state = vortex_state(params, grid, pressure_profile=profile)
    b, p = equilibria._vortex_fields(params, profile)(*grid.meshgrid())
    p_max = float(np.max(np.abs(p)))
    assert state.meta["psi_normalization"] == p_max
    for got, want in ((state.B, b), (state.p_perp, p), (state.p_par, p), (state.psi, p / p_max)):
        assert np.array_equal(got.values, want)


def test_mapped_state_transform_raises_from_the_first_block_out_of_domain(helical_solution, monkeypatch):
    from plasmeq import flux

    src = flux.flux_to_cgl(helical_solution, 0.1, grid=flux.default_cartesian_box(helical_solution.problem, 9))
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 3 * 81)
    # the last x-slab pulls back beyond r1 = 1.6; the first block that
    # reaches it is the third (slabs 6 to 8), and the extent named is that
    # block's, not the whole grid's
    x = src.grid.axes()[0]
    with pytest.raises(ValueError, match=rf"the points reach r in \[{x[6] + 0.2:.6g}, ") as err:
        translate_state(src, (-0.2, 0.0, 0.0))
    assert "outside the solution domain" in str(err.value)


@pytest.mark.parametrize("kind", ["analytic", "trilinear"])
def test_rotation_at_65_holds_little_beyond_its_result(params, kind):
    src = _blocked_source(kind, (65, 65, 65), params, None)
    tracemalloc.start()
    try:
        out = rotate_state(src, *EULER)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    result_bytes = sum(f.values.base.nbytes for f in (out.B, out.p_perp, out.tau, out.psi))
    assert result_bytes == 6 * 65**3 * 8
    assert peak < 1.3 * result_bytes


def _trilinear_move_at_65_holds_little_beyond_its_result(params, move):
    src = _blocked_source("trilinear", (65, 65, 65), params, None)
    tracemalloc.start()
    try:
        out = move(src)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out.meta["resampling"] == "trilinear (lossy)"
    result_bytes = sum(f.values.base.nbytes for f in (out.B, out.p_perp, out.tau, out.psi))
    assert result_bytes == 6 * 65**3 * 8
    assert peak < 1.3 * result_bytes


def test_translation_at_65_holds_little_beyond_its_result(params):
    # an axis-aligned trilinear move holds two reduced source slabs per
    # field and one block at a time, within the rotation's bound
    _trilinear_move_at_65_holds_little_beyond_its_result(params, lambda st: translate_state(st, (0.03, -0.02, 0.01)))


def test_scaling_at_65_holds_little_beyond_its_result(params):
    _trilinear_move_at_65_holds_little_beyond_its_result(params, lambda st: scale_state(st, 1.3, 0.7))


def _lopsided(X, Y, Z):
    """Smooth fields with no symmetry of the cube: (B, p_perp, tau, psi)."""
    b = np.stack([np.sin(X + 2.0 * Y) + Z, np.cos(Y - 0.5 * Z) * X, np.exp(0.3 * X) * Y + Z * Z])
    return b, 2.0 + X + 0.5 * Y * Z, 0.1 * np.tanh(X - Y + 0.2 * Z), X * Y + Z


def _lopsided_sampled(grid):
    """``_lopsided`` sampled on ``grid``, without its evaluator."""
    state = sample_state(StateEvaluators(_lopsided), grid, {})
    return CGLState(state.B, state.p_perp, state.tau, state.psi, {}, None)


# axis-aligned moves -> (the transform, its finite form)
AXIS_MOVES = {
    # cells run backwards along every axis
    "scale t = -1.3": (lambda st: scale_state(st, -1.3, 0.7), Move(t=-1.3, s=0.7, pf=0.7**2)),
    # several output slabs share one source slab; source slabs are skipped
    "scale t = 2.5": (lambda st: scale_state(st, 2.5, 1.1), Move(t=2.5, s=1.1, pf=1.1**2)),
    "scale t = 0.4": (lambda st: scale_state(st, 0.4, 0.9), Move(t=0.4, s=0.9, pf=0.9**2)),
    # more than three cells along each axis: clamped cells, extrapolated values
    "translate past the grid": (
        lambda st: translate_state(st, (0.35, -0.2, 0.23), 0.4),
        Move(K=(0.35, -0.2, 0.23), shift=0.4),
    ),
    "identity rotation": (lambda st: rotate_state(st, 0.0, 0.0, 0.0), Move(equilibria._euler_zxz(0.0, 0.0, 0.0))),
}

AXIS_GRIDS = {
    "21x25x13": TRILINEAR_GRID,
    "21x2x13": Grid3((-1.0, -0.3, -0.45), (0.1, 0.6, 0.075), (21, 2, 13)),
}


@pytest.mark.parametrize("slabs", [None, 2], ids=["default block", "2 slabs"])
@pytest.mark.parametrize("grid_name", AXIS_GRIDS)
@pytest.mark.parametrize("move", AXIS_MOVES)
def test_axis_aligned_moves_are_bit_identical_to_the_whole_grid_trilinear(monkeypatch, move, grid_name, slabs):
    # the one-axis-at-a-time path against _trilinear on the full pullback;
    # it never builds the pullback, so _trilinear is not called
    grid = AXIS_GRIDS[grid_name]
    src = _lopsided_sampled(grid)
    _set_block(monkeypatch, grid.counts, slabs)
    transform, finite_form = AXIS_MOVES[move]
    with mock.patch.object(equilibria, "_trilinear", side_effect=AssertionError("eight-corner path")):
        out = transform(src)
    want = _whole_grid_affine(src, finite_form)
    assert out.meta["resampling"] == "trilinear (lossy)"
    got = (out.B.values, out.p_perp.values, out.p_par.values, out.tau.values, out.psi.values)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_rotations_of_a_sampled_state_keep_the_eight_corner_path():
    src = _lopsided_sampled(TRILINEAR_GRID)
    with mock.patch.object(equilibria, "_trilinear", wraps=equilibria._trilinear) as trilinear:
        rotate_state(src, *EULER)
    # the default block holds the whole 21x25x13 grid
    assert trilinear.call_count == 1


# quarter turns about z and about x: the Euler angles, and the node arrays
# of the turned state as an index map of the source's (components kept);
# x' = R x with R = _euler_zxz(...) pulls each node back to R^T x'
QUARTER_TURNS = {
    "about z": ((math.pi / 2, 0.0, 0.0), lambda a: np.swapaxes(a[..., ::-1, :, :], -3, -2)),
    "about x": ((0.0, math.pi / 2, 0.0), lambda a: np.swapaxes(a[..., :, ::-1, :], -2, -1)),
}


@pytest.mark.parametrize("sampled_only", [False, True], ids=["analytic", "sampled only"])
@pytest.mark.parametrize("turn", QUARTER_TURNS)
def test_quarter_turns_are_node_permutations(turn, sampled_only):
    # pins the z-x-z convention of _euler_zxz: a quarter turn of a centred
    # cube maps nodes to nodes, so the turned state is the source's node
    # arrays permuted and flipped, with B turned by the same matrix
    grid = Grid3.cube(-1.2, 1.2, 17)
    src = sample_state(StateEvaluators(_lopsided), grid, {})
    if sampled_only:
        src = CGLState(src.B, src.p_perp, src.tau, src.psi, {}, None)
    angles, permute = QUARTER_TURNS[turn]
    out = rotate_state(src, *angles)
    rot = equilibria._euler_zxz(*angles)
    want_b = np.einsum("rc,c...->r...", rot, permute(src.B.values))
    pairs = [(out.B.values, want_b)] + [
        (getattr(out, name).values, permute(getattr(src, name).values)) for name in ("p_perp", "tau", "psi")
    ]
    for got, want in pairs:
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def _whole_grid_field_line(state, spec):
    """``apply_infinite_transform`` on the whole grid at once, as earlier
    releases applied it: M on every plasma node in one call, then the map
    on updated copies of (B, p_perp, tau), and the map's own p_par'."""
    b2 = state.b_squared()
    plasma = b2 > 1e-12 * float(np.max(b2))
    m = spec(state.psi.values[plasma])
    b, pperp, ppar, tau = (np.array(f.values) for f in (state.B, state.p_perp, state.p_par, state.tau))
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
    return (b, pperp, tau, state.psi.values), ppar


def _whole_grid_anisotropy(state, C):
    """``anisotropy_scale_state`` on the whole grid at once."""
    b2 = state.b_squared()
    pperp = C * (state.p_perp.values + 0.5 * b2) - 0.5 * b2
    tau = 1.0 - C * (1.0 - state.tau.values)
    return state.B.values, pperp, tau, state.psi.values


@pytest.fixture(scope="module")
def node_map_source(params, tmp_path_factory):
    """A vortex on ``counts`` nodes with psi = 0 where x < 0, so that M = 1
    there for an M with M(0) = 1: analytic, or read back from its CSV."""
    cache = {}

    def source(kind, counts):
        if (kind, counts) not in cache:
            grid = Grid3((-1.2, -1.2, -1.2), tuple(2.4 / (n - 1) for n in counts), counts)
            vortex = vortex_state(params, grid).evaluators.evaluate

            def evaluate(X, Y, Z):
                *values, psi = vortex(X, Y, Z)
                return (*values, np.where(X < 0.0, 0.0, psi))

            state = sample_state(StateEvaluators(evaluate), grid, {})
            if kind == "csv":
                path = tmp_path_factory.mktemp("source") / "state.csv"
                write_state_csv(state, path)
                state = read_state_csv(path)
            cache[(kind, counts)] = state
        return cache[(kind, counts)]

    return source


def _fields(state):
    return state.B.values, state.p_perp.values, state.tau.values, state.psi.values


NODE_MAP_GRIDS = {name: BLOCKED_GRIDS[name] for name in ("9^3 by 2", "17x5x33 by 3", "65^3 by default")}


@pytest.mark.parametrize("text", ["2", "1 + 0.3*psi*sin(psi)"], ids=["constant M", "M = 1 on some nodes"])
@pytest.mark.parametrize("kind", ["analytic", "csv"])
@pytest.mark.parametrize("grid_name", NODE_MAP_GRIDS)
def test_field_line_transform_in_blocks_is_bit_identical_to_the_whole_grid(
    node_map_source, monkeypatch, grid_name, kind, text
):
    counts, slabs = NODE_MAP_GRIDS[grid_name]
    src = node_map_source(kind, counts)
    slabs = _set_block(monkeypatch, counts, slabs)
    spec = TransformSpec(text)
    want, want_ppar = _whole_grid_field_line(src, spec)
    b2 = src.b_squared()
    plasma = b2 > 1e-12 * b2.max()
    m = spec(src.psi.values[plasma])
    assert (m != 1.0).any() and ((m == 1.0).any() or text == "2")
    sizes = []
    call = TransformSpec.__call__
    monkeypatch.setattr(TransformSpec, "__call__", lambda self, psi: sizes.append(np.size(psi)) or call(self, psi))
    out = apply_infinite_transform(src, spec)
    for got, w in zip(_fields(out), want):
        assert np.array_equal(got, w)
    assert_p_par_derived(out, want_ppar)
    # M once per plasma node, one call per block; psi stays the source's array
    assert len(sizes) == len(range(0, counts[0], slabs)) and sum(sizes) == plasma.sum()
    assert np.shares_memory(out.psi.values, src.psi.values)
    assert (out.evaluators is None) == (kind == "csv")
    if kind == "analytic":
        assert_evaluator_matches_samples(out)


@pytest.mark.parametrize("text, m_min", [("psi - 0.99", 0.05), ("log(psi - 0.98)", 1e-8), ("exp(1000*psi)", 1e-8)])
def test_field_line_errors_in_blocks_are_the_whole_grid_errors(vortex17, monkeypatch, text, m_min):
    # |M| too small names the minimum over every plasma node, and an
    # undefined or infinite M the first such plasma node in C order, as a
    # whole-grid pass does, however the blocks fall
    spec = TransformSpec(text, m_min=m_min)
    b2 = vortex17.b_squared()
    labels = vortex17.psi.values[b2 > 1e-12 * b2.max()]
    with np.errstate(all="ignore"):
        m = spec(labels)
    if np.isfinite(m).all():
        message = f"|M| falls to {np.min(np.abs(m)):.3e} on the attained label range"
    else:
        with pytest.raises(ValueError) as whole:
            equilibria.require_defined(f"M = {text}", m, labels)
        message = str(whole.value)
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 2 * 17 * 17)
    with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
        apply_infinite_transform(vortex17, spec)
    assert str(err.value).startswith(message)


@pytest.mark.parametrize(
    "B0, text, field", [(1.0, "1e308*psi^3", "p_perp"), (1e3, "1e308", "B")], ids=["p_perp", "B and p_perp"]
)
def test_an_image_beyond_the_float_range_is_refused_at_its_first_node(monkeypatch, B0, text, field):
    # B' = M B or p_perp' = p_perp + (1 - M^2)|B|^2/2 passes the float range
    # at some plasma node: the first in C order is named, however the blocks
    # fall, and B where both are
    state = vortex_state(vortex_params(B0=B0), Grid3.cube(-1.2, 1.2, 9))
    spec = TransformSpec(text)
    with np.errstate(all="ignore"):
        (b, pperp, *_), _ = _whole_grid_field_line(state, spec)
    b_bad = ~np.isfinite(b).all(axis=0)
    # p_perp' is not finite wherever B' is not
    assert not np.isfinite(pperp[b_bad]).any()
    node = tuple(int(i) for i in np.unravel_index(np.argmin(np.isfinite(pperp)), pperp.shape))
    assert node == (1, 3, 3) and b_bad[node] == (field == "B")
    message = f"M = {text} takes {field} beyond the float range at node {node} (x, y, z) = {state.grid.point(node)}"
    for slabs in (1, 2, 9):
        monkeypatch.setattr(equilibria, "BLOCK_NODES", slabs * 81)
        with np.errstate(all="ignore"), pytest.raises(ValueError) as err:
            apply_infinite_transform(state, spec)
        assert str(err.value) == message


@pytest.mark.parametrize("kind", ["analytic", "csv"])
@pytest.mark.parametrize("grid_name", NODE_MAP_GRIDS)
def test_anisotropy_rescaling_in_blocks_is_bit_identical_to_the_whole_grid(
    node_map_source, monkeypatch, grid_name, kind
):
    counts, slabs = NODE_MAP_GRIDS[grid_name]
    src = apply_infinite_transform(node_map_source(kind, counts), TransformSpec("2 - psi"))
    _set_block(monkeypatch, counts, slabs)
    out = anisotropy_scale_state(src, 1.7)
    for got, w in zip(_fields(out), _whole_grid_anisotropy(src, 1.7)):
        assert np.array_equal(got, w)
    assert_p_par_derived(out)
    assert np.shares_memory(out.B.values, src.B.values) and np.shares_memory(out.psi.values, src.psi.values)
    if kind == "analytic":
        assert_evaluator_matches_samples(out)
    else:
        assert out.evaluators is None


@pytest.mark.parametrize("grid_name", NODE_MAP_GRIDS)
def test_flux_mapping_in_blocks_is_bit_identical_to_the_whole_grid(helical_solution, monkeypatch, grid_name):
    from plasmeq import flux

    counts, slabs = NODE_MAP_GRIDS[grid_name]
    slabs = _set_block(monkeypatch, counts, slabs)
    grid = flux.default_cartesian_box(helical_solution.problem, counts)
    out = flux.flux_to_cgl(helical_solution, "psi/4", grid=grid)
    # the whole-grid reference: one evaluator call on every node
    want = out.evaluators.evaluate(*grid.meshgrid())
    for got, w in zip(_fields(out), want):
        assert np.array_equal(got, w)
    calls = []
    sample_state(_counting(out, calls).evaluators, grid, {})
    assert calls == [(min(slabs, counts[0] - i), *counts[1:]) for i in range(0, counts[0], slabs)]


def test_flux_mapping_raises_from_the_first_block_out_of_domain(monkeypatch):
    from plasmeq import flux

    text = resources.files("plasmeq.data").joinpath("flux_axisym_example.flux").read_text()
    problem, _ = flux.parse_problem_file(text)
    sol = flux.solve_flux(problem, (17, 17))
    # x runs over 0.7..1.9 in steps of 0.1 and |y| <= 0.1, in blocks of 3
    # x-slabs; r1 = 1.5 is first passed in the third block (x 1.3 to 1.5, at
    # y = +-0.1), and the extent named is that block's
    grid = Grid3((0.7, -0.1, -0.2), (0.1, 0.1, 0.1), (13, 3, 5))
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 3 * 15)
    with pytest.raises(ValueError) as err:
        flux.flux_to_cgl(sol, 0.1, grid=grid)
    assert str(err.value).startswith(f"the points reach r in [1.3, {math.hypot(1.5, 0.1):.6g}] and zu in [-0.2, 0.2]")


def test_rotation_of_an_anisotropy_rescaled_vortex_is_exact(vortex17):
    # the rescaling keeps an evaluator, so a later point transform is
    # analytic: it commutes with a rotation to rounding, not to O(h^2)
    rotated = rotate_state(anisotropy_scale_state(vortex17, 1.7), *EULER)
    assert "resampling" not in rotated.meta
    want = anisotropy_scale_state(rotate_state(vortex17, *EULER), 1.7)
    for got, w in zip(_fields(rotated), _fields(want)):
        assert np.max(np.abs(got - w)) <= 1e-13 * max(np.max(np.abs(w)), 1.0)


def test_every_state_path_derives_p_par(vortex17, helical_solution, tmp_path):
    image = apply_infinite_transform(vortex17, TransformSpec("1 + psi*sin(psi)"))
    write_state_csv(image, tmp_path / "state.csv")
    states = {
        "vortex": vortex17,
        "field-line transform": image,
        "rotate": rotate_state(image, *EULER),
        "translate": translate_state(image, (0.05, -0.02, 0.03), 0.1),
        "trilinear translate": translate_state(rotate_state(image, *EULER), (0.05, 0.0, 0.0)),
        "scale generator": scale_state(image, 1.1, 0.9),
        "scale as-printed": scale_state(image, 1.1, 0.9, "as-printed"),
        "anisotropy rescaling": anisotropy_scale_state(image, 1.3),
        "flux_to_cgl": _blocked_source("flux_to_cgl", (9, 9, 9), None, helical_solution),
        "csv read": read_state_csv(tmp_path / "state.csv"),
    }
    for name, state in states.items():
        assert_p_par_derived(state)
        if state.evaluators is not None:
            assert len(state.evaluators.evaluate(*state.grid.meshgrid())) == 4, name


def _traced_peak(fn, *args):
    fn(*args)  # compile M and warm every cache first
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (65**3 * 8)


def test_field_line_transform_at_65_holds_few_node_arrays(vortex65):
    # the whole-grid map peaked at 11.4 node arrays for the 6 it keeps
    out, peak = _traced_peak(apply_infinite_transform, vortex65, TransformSpec("1 + psi*sin(psi)"))
    assert np.shares_memory(out.psi.values, vortex65.psi.values)
    assert peak < 8.0


def test_flux_mapping_at_65_holds_few_node_arrays(helical_solution):
    from plasmeq import flux

    # the one-call sampling peaked at 46 node arrays for the 7 it keeps
    grid = flux.default_cartesian_box(helical_solution.problem, 65)
    _, peak = _traced_peak(flux.flux_to_cgl, helical_solution, 0.2, grid)
    assert peak < 11.0


# -- stability ------------------------------------------------------------------------


def test_stability_tau_half_is_firehose_stable():
    state = uniform_state(b=(0.0, 0.0, 2.0), p_perp=1.0, tau=0.5)
    rep = stability_report(state)
    assert rep.counts["applicable"] == state.grid.n_nodes
    assert rep.counts["fire_hose_unstable"] == 0


def test_stability_strong_anisotropy_is_firehose_unstable():
    # p_par - p_perp = 2 B^2
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=2.0)
    rep = stability_report(state)
    assert rep.counts["fire_hose_unstable"] == state.grid.n_nodes


def test_stability_mirror_example():
    # p_perp (p_perp / (6 p_par) - 1) = 12 > 1 = B^2/2
    state = uniform_state(b=(0.0, 0.0, np.sqrt(2.0)), p_perp=12.0, tau=-11.0 / 2.0)
    rep = stability_report(state)
    assert rep.counts["mirror_unstable"] == state.grid.n_nodes
    assert rep.margins["mirror"] == pytest.approx(11.0, rel=1e-12)


def test_stability_zero_parallel_pressure_indeterminate():
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=-1.0)
    rep = stability_report(state)
    assert rep.counts["indeterminate"] == state.grid.n_nodes
    assert rep.counts["mirror_unstable"] == 0


def test_stability_field_null_not_applicable():
    state = uniform_state(b=(0.0, 0.0, 0.0), p_perp=1.0)
    rep = stability_report(state)
    assert rep.counts["applicable"] == 0


def test_stability_counts_no_nonpositive_pressure_on_the_vortex(vortex17):
    rep = stability_report(vortex17)
    assert rep.counts["nonpositive_pressure"] == 0
    assert rep.worst_pressure is None
    assert "worst_pressure" not in rep.summary()


def test_stability_names_the_worst_nonpositive_pressure():
    from plasmeq import flux

    text = Path(str(resources.files("plasmeq.data").joinpath("flux_axisym_example.flux"))).read_text()
    # the bundled example with its pressure level taken off: N = -2 psi is
    # negative at every node, since psi > 0
    problem, _ = flux.parse_problem_file(text.replace("\nN = 4 - 2*psi\n", "\nN = -2*psi\n"))
    assert problem.texts["N"] == "-2*psi"
    sol = flux.solve_flux(problem, (33, 33))
    state = flux.flux_to_cgl(sol, "psi/2.6", grid=flux.default_cartesian_box(problem, 9))
    rep = stability_report(state)
    assert rep.counts["nonpositive_pressure"] == state.grid.n_nodes
    p_min = np.minimum(state.p_perp.values, state.p_par.values)
    node = np.unravel_index(np.argmin(p_min), p_min.shape)
    worst = rep.summary()["worst_pressure"]
    assert worst["node"] == [int(i) for i in node]
    assert worst["xyz"] == [float(c[i]) for c, i in zip(state.grid.axes(), node)]
    assert worst["p_perp"] == state.p_perp.values[node]
    assert worst["p_par"] == state.p_par.values[node]
    assert min(worst["p_perp"], worst["p_par"]) == p_min.min()


def test_stability_margins_skip_nonpositive_pressure_nodes():
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0)
    pperp, ppar = state.p_perp.values.copy(), state.p_par.values.copy()
    # at this node both margins would be the largest: fire-hose 5 and mirror 8/15
    pperp[1, 2, 3], ppar[1, 2, 3] = -1.0, 5.0
    tau = (ppar - pperp) / state.b_squared()
    rep = stability_report(CGLState(state.B, ScalarGrid(state.grid, pperp), ScalarGrid(state.grid, tau), state.psi))
    assert rep.margins == {"fire_hose": -1.0, "mirror": pytest.approx(1.0 / 6.0 - 1.0 - 0.5, rel=1e-15)}
    # the counts still cover the node, the one unstable node of the state
    assert rep.counts["fire_hose_unstable"] == rep.counts["mirror_unstable"] == 1
    assert rep.counts["nonpositive_pressure"] == 1
    # with no positive-pressure node left there is no margin
    everywhere = stability_report(uniform_state(b=(0.0, 0.0, 1.0), p_perp=-1.0, tau=6.0))
    assert everywhere.counts["fire_hose_unstable"] == everywhere.counts["applicable"] == 7**3
    assert everywhere.margins == {"fire_hose": None, "mirror": None}


def test_stability_counts_a_nonpositive_parallel_pressure():
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=-1.0)
    rep = stability_report(state)
    assert rep.counts["nonpositive_pressure"] == state.grid.n_nodes
    assert rep.worst_pressure["node"] == [0, 0, 0]


def _whole_grid_stability(state):
    """``stability_report`` as one whole-grid pass with per-node flag
    arrays, as earlier releases made it: (counts, margins, worst_pressure)."""
    STABLE, UNSTABLE, NOT_APPLICABLE, INDETERMINATE = range(4)
    b2 = state.b_squared()
    applicable = b2 > equilibria.EPS_B_RELATIVE * float(np.max(b2))
    pperp = state.p_perp.values
    ppar = pperp + state.tau.values * b2
    fire = np.full(state.grid.counts, NOT_APPLICABLE, dtype=np.int8)
    fire_lhs = ppar - pperp - b2
    fire[applicable & (fire_lhs > 0)] = UNSTABLE
    fire[applicable & (fire_lhs <= 0)] = STABLE
    mirror = np.full(state.grid.counts, NOT_APPLICABLE, dtype=np.int8)
    zero_par = applicable & (ppar == 0)
    ok = applicable & ~zero_par
    with np.errstate(divide="ignore", invalid="ignore"):
        mirror_lhs = pperp * (pperp / (6.0 * ppar) - 1.0) - 0.5 * b2
    mirror[ok & (mirror_lhs > 0)] = UNSTABLE
    mirror[ok & (mirror_lhs <= 0)] = STABLE
    mirror[zero_par] = INDETERMINATE
    p_min = np.minimum(pperp, ppar)
    physical = applicable & (p_min > 0)
    counts = {
        "applicable": int(applicable.sum()),
        "fire_hose_unstable": int((fire == UNSTABLE).sum()),
        "mirror_unstable": int((mirror == UNSTABLE).sum()),
        "indeterminate": int((mirror == INDETERMINATE).sum()),
        "not_applicable": int((~applicable).sum()),
        "nonpositive_pressure": int((p_min <= 0).sum()),
    }
    margins = {
        name: float(np.max(lhs[physical])) if physical.any() else None
        for name, lhs in (("fire_hose", fire_lhs), ("mirror", mirror_lhs))
    }
    worst = None
    if counts["nonpositive_pressure"]:
        node = tuple(int(i) for i in np.unravel_index(int(np.argmin(p_min)), p_min.shape))
        worst = {
            "node": list(node),
            "xyz": list(state.grid.point(node)),
            "p_perp": float(pperp[node]),
            "p_par": float(ppar[node]),
        }
    return counts, margins, worst


def _crafted_stability_state():
    """An anisotropic 11x7x9 state, in blocks of two x-slabs, with field
    nulls, p_par = 0 nodes, non-positive pressures on both sides of the
    boundary between the first two blocks, and its smallest min(p_perp,
    p_par), -2, at (3, 4, 4) in the second block and again at (6, 1, 1) in
    the fourth."""
    g = Grid3((-1.0, -0.6, -0.8), (0.2, 0.2, 0.2), (11, 7, 9))
    X, Y, Z = g.meshgrid()
    b = np.stack([np.sin(2 * Y + Z), np.cos(X - Z), 1.0 + 0.3 * X * Y])
    pperp = 1.0 + 0.5 * np.cos(X + 2 * Z)
    tau = 0.5 + 0.6 * np.sin(3 * X * Z + Y)
    b[:, 0, 0, 0] = b[:, 5, 3, 3] = 0.0  # field nulls
    b[:, 8, 1, 1] = 1e-7  # |B|^2 below the null threshold
    for node, (p, t) in {
        (4, 2, 2): (3.0, -3.0),  # p_par = 3 - 3 |B|^2 = 0
        (9, 5, 7): (0.0, 0.0),  # p_par = p_perp = 0
        (1, 2, 2): (-0.5, 0.0),  # last slab of the first block
        (2, 2, 2): (0.5, -1.0),  # first slab of the second: p_par = -0.5
        (3, 4, 4): (1.0, -3.0),  # p_par = -2, first
        (6, 1, 1): (-2.0, 0.5),  # p_perp = -2, later
    }.items():
        b[(slice(None), *node)] = (0.0, 0.0, 1.0)
        pperp[node], tau[node] = p, t
    return CGLState(VectorGrid(g, b), ScalarGrid(g, pperp), ScalarGrid(g, tau), ScalarGrid(g, np.zeros(g.counts)))


@pytest.fixture(scope="module")
def axisym_solution():
    from plasmeq import flux

    text = resources.files("plasmeq.data").joinpath("flux_axisym_example.flux").read_text()
    problem, _ = flux.parse_problem_file(text)
    return flux.solve_flux(problem, (17, 17))


@pytest.fixture(scope="module")
def reduced_states(params, vortex33, vortex65, axisym_solution, helical_solution):
    from plasmeq import flux

    def tocgl(solution, tau):
        return flux.flux_to_cgl(solution, tau, grid=flux.default_cartesian_box(solution.problem, 33))

    return {
        "vortex 33^3": vortex33,
        "vortex 65^3": vortex65,
        "transformed vortex": apply_infinite_transform(vortex33, TransformSpec("1 + psi*sin(psi)")),
        "axisymmetric tocgl": tocgl(axisym_solution, "psi/2.6"),
        "helical tocgl": tocgl(helical_solution, "psi/4"),
        "crafted": _crafted_stability_state(),
    }


REDUCED_STATES = [
    "vortex 33^3", "vortex 65^3", "transformed vortex", "axisymmetric tocgl", "helical tocgl", "crafted",
]


@pytest.mark.parametrize("name", REDUCED_STATES)
def test_stability_in_blocks_is_bit_identical_to_the_whole_grid(reduced_states, monkeypatch, name):
    state = reduced_states[name]
    counts, margins, worst = _whole_grid_stability(state)
    _nx, ny, nz = state.grid.counts
    # two x-slabs a block (a 33^3 grid has 17 blocks), the last one short
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 2 * ny * nz + ny)
    rep = stability_report(state)
    assert rep.counts == counts and rep.margins == margins
    assert rep.worst_pressure == worst
    if name == "crafted":
        assert counts["not_applicable"] == 3 and counts["indeterminate"] == 2
        assert counts["nonpositive_pressure"] == 6
        assert worst["node"] == [3, 4, 4] and (worst["p_perp"], worst["p_par"]) == (1.0, -2.0)


@pytest.mark.parametrize("masked", [False, True], ids=["whole interior", "masked"])
@pytest.mark.parametrize("system", ["mhd", "cgl"])
@pytest.mark.parametrize("name", REDUCED_STATES)
def test_residual_norms_reduce_as_the_whole_grid_does(reduced_states, monkeypatch, name, system, masked):
    state = reduced_states[name]
    mask_radius = None
    if masked:
        X, Y, Z = state.grid.interior().meshgrid()
        mask_radius = float(np.median(np.sqrt(X * X + Y * Y + Z * Z)))
    want = _whole_grid_norms(state, system, mask_radius)
    _nx, ny, nz = state.grid.counts
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 2 * ny * nz + ny)
    assert residual_norms(state, system, mask_radius=mask_radius) == want


def test_stability_at_65_holds_less_than_half_a_node_array(vortex65):
    state = apply_infinite_transform(vortex65, TransformSpec("1 + psi*sin(psi)"))
    stability_report(state)
    tracemalloc.start()
    try:
        stability_report(state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-grid pass peaked at about six float node arrays, and the
    # blocked pass with two int8 flag arrays at 0.65
    assert peak < 0.5 * 65**3 * 8


# -- residual evaluation ----------------------------------------------------------------


def test_uniform_state_has_zero_mhd_residual():
    state = uniform_state(b=(0.0, 0.0, 2.0), p_perp=1.0)
    norms = residual_norms(state, "mhd")
    assert norms["momentum"]["linf"] == 0.0
    assert norms["div_b"]["linf"] == 0.0


def test_alt_requires_tau_below_one():
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=1.5)
    with pytest.raises(ValueError, match="tau < 1"):
        residual_fields(state, "alt")


def test_unknown_system_rejected(vortex17):
    with pytest.raises(ValueError, match="unknown system"):
        residual_norms(vortex17, "qqq")


def _spiked_state(spike_node, n=11):
    """Uniform field, p = p_perp = p_par = 0.1 z plus a unit spike at one
    node: the momentum residual -grad p is largest, uniquely, one node
    below the spike in z."""
    g = Grid3.cube(-1.0, 1.0, n)
    p = 0.1 * g.meshgrid()[2]
    p[spike_node] += 1.0
    b = np.zeros((3, *g.counts))
    b[2] = 1.0
    zero = ScalarGrid(g, np.zeros(g.counts))
    return CGLState(VectorGrid(g, b), ScalarGrid(g, p), zero, zero)


@pytest.mark.parametrize("mask_radius", [None, 0.7])
def test_residual_norms_locate_the_worst_node(mask_radius):
    state = _spiked_state((6, 3, 5))
    norms = residual_norms(state, "mhd", mask_radius=mask_radius)
    assert norms["momentum"]["node"] == (6, 3, 4)
    pointwise = fd.magnitude(residual_fields(state, "mhd")["momentum"])
    assert norms["momentum"]["linf"] == pointwise[5, 2, 3] == pointwise.max()


def test_residual_norms_ignore_a_spike_outside_the_mask():
    # the spike at (-0.8, -0.8, -0.6) and the residual it causes lie outside the ball
    state = _spiked_state((1, 1, 2))
    assert residual_norms(state, "mhd")["momentum"]["node"] == (1, 1, 1)
    entry = residual_norms(state, "mhd", mask_radius=0.7)["momentum"]
    mask = fd.sphere_mask(state.grid.interior(), 0.7)
    i, j, k = (c - 1 for c in entry["node"])
    assert mask[i, j, k]
    assert fd.magnitude(residual_fields(state, "mhd")["momentum"])[i, j, k] == entry["linf"]
    assert entry["linf"] == pytest.approx(0.1)


@pytest.mark.parametrize("mask_r", [None, 0.8])
def test_residual_norms_match_fields_norm(vortex17, mask_r):
    norms = residual_norms(vortex17, "mhd", mask_radius=mask_r)
    mask = None if mask_r is None else fd.sphere_mask(vortex17.grid.interior(), mask_r)
    for name, res in residual_fields(vortex17, "mhd").items():
        assert norms[name]["linf"] == fd.norm(res, "linf", mask)
        assert norms[name]["l2"] == fd.norm(res, "l2", mask)
        i, j, k = (c - 1 for c in norms[name]["node"])
        assert mask is None or mask[i, j, k]
        assert fd.magnitude(res)[i, j, k] == norms[name]["linf"]


def _whole_grid_norms(state, system, mask_radius):
    """The norms of one whole-grid pass: ``fields.norm`` of each of
    ``residual_fields``, located by the masked ``argmax``."""
    mask = None if mask_radius is None else fd.sphere_mask(state.grid.interior(), mask_radius)
    out = {}
    for name, res in residual_fields(state, system).items():
        pointwise = fd.magnitude(res)
        located = pointwise if mask is None else np.where(mask, pointwise, -1.0)
        node = np.unravel_index(int(np.argmax(located)), located.shape)
        out[name] = {
            "linf": fd.norm(res, "linf", mask),
            "l2": fd.norm(res, "l2", mask),
            "node": tuple(int(i) + 1 for i in node),
        }
    return out


# grid counts and interior x-slabs per block (None: the default block); a
# patched block leaves a short last block, which borrows slabs before it
RESIDUAL_GRIDS = {
    "5^3": ((5, 5, 5), None),
    "9^3 by 3": ((9, 9, 9), 3),
    "17x9x33 by 4": ((17, 9, 33), 4),
    "65^3 by 5": ((65, 65, 65), 5),
}


@pytest.fixture(scope="module")
def residual_source(params, helical_solution):
    cache = {}

    def source(kind, counts):
        if (kind, counts) not in cache:
            if kind == "vortex":
                grid = Grid3((-1.2, -1.2, -1.2), tuple(2.4 / (n - 1) for n in counts), counts)
                cache[kind, counts] = vortex_state(params, grid)
            else:
                base = "analytic" if kind == "transformed vortex" else kind
                cache[kind, counts] = _blocked_source(base, counts, params, helical_solution)
        return cache[kind, counts]

    return source


# mask radii, each from the distances of the interior nodes to the origin
# (None: no mask), wherever the box lies
RESIDUAL_MASKS = {
    "whole interior": None,
    # about half of the interior nodes
    "masked": np.median,
    # a small ball: the windows of the slabs beyond it hold no mask node
    "windows emptied": lambda d: float(np.quantile(d, 0.05)),
    # the nearest nodes (or half way to them from a node at the origin): a
    # single window
    "one window": lambda d: float(np.min(d) or np.min(d[d > 0]) / 2),
    "every node": lambda d: 1.001 * float(np.max(d)),
}


def _mask_windows(mask, step):
    """The (start, stop, y, z) boxes of the state's arrays that each window
    of ``step`` interior slabs evaluates: the mask nodes of the slabs it adds
    with one halo node on every side, no box where it adds none."""
    nx = mask.shape[0] + 2
    out = []
    for first in range(0, nx - 2, step):
        start = min(first, nx - 2 - step)
        nodes = np.argwhere(mask[first : first + step])
        if len(nodes):
            (_, j0, k0), (_, j1, k1) = nodes.min(axis=0), nodes.max(axis=0)
            out.append((start, start + step + 2, (j0, j1 + 3), (k0, k1 + 3)))
    return out


@pytest.mark.parametrize("mask_name", RESIDUAL_MASKS)
@pytest.mark.parametrize("system", ["mhd", "cgl", "alt"])
@pytest.mark.parametrize("kind", ["vortex", "transformed vortex", "flux_to_cgl"])
@pytest.mark.parametrize("grid_name", RESIDUAL_GRIDS)
def test_residual_norms_in_blocks_are_bit_identical_to_the_whole_grid(
    residual_source, monkeypatch, grid_name, kind, system, mask_name
):
    counts, slabs = RESIDUAL_GRIDS[grid_name]
    state = residual_source(kind, counts)
    assert float(np.max(state.tau.values)) < 1.0
    mask_radius = None
    if RESIDUAL_MASKS[mask_name] is not None:
        X, Y, Z = state.grid.interior().meshgrid()
        mask_radius = float(RESIDUAL_MASKS[mask_name](np.sqrt(X * X + Y * Y + Z * Z)))
    want = _whole_grid_norms(state, system, mask_radius)
    nx, ny, nz = counts
    if slabs is not None:
        monkeypatch.setattr(equilibria, "BLOCK_NODES", slabs * ny * nz + ny)
    step = min(nx - 2, max(3, equilibria.BLOCK_NODES // (ny * nz)))
    windows = -(-(nx - 2) // step)
    blocks = []
    window_residuals = equilibria._window_residuals

    def recording(whole, name, start, stop, y, z):
        assert whole is state
        blocks.append((start, stop, tuple(y), tuple(z)))
        return window_residuals(whole, name, start, stop, y, z)

    monkeypatch.setattr(equilibria, "_window_residuals", recording)
    assert residual_norms(state, system, mask_radius=mask_radius) == want
    if slabs is not None:
        assert (nx - 2) % slabs != 0
    if mask_radius is None:
        # every window, the short last one too, is ``step`` interior slabs
        # plus a halo, whole in y and z
        starts = [min(first, nx - 2 - step) for first in range(0, nx - 2, step)]
        assert blocks == [(start, start + step + 2, (0, ny), (0, nz)) for start in starts]
        return
    # each window is cut to the box of its mask nodes plus the halo, and
    # a window without one is skipped
    mask = fd.sphere_mask(state.grid.interior(), mask_radius)
    assert blocks == _mask_windows(mask, step)
    if mask_name == "one window":
        assert len(blocks) == 1
    elif mask_name == "every node":
        assert mask.all() and len(blocks) == windows
        assert all(box[2:] == ((0, ny), (0, nz)) for box in blocks)
    elif mask_name == "windows emptied" and windows > 2:
        assert len(blocks) < windows


def test_residual_norms_at_65_hold_few_node_arrays(residual_source):
    state = residual_source("transformed vortex", (65, 65, 65))
    tracemalloc.start()
    try:
        residual_norms(state, "cgl")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a whole-grid pass peaks at about 20 node arrays; the blocked one
    # keeps one interior array per residual and a few block temporaries
    assert peak < 7 * 65**3 * 8


def _norms_peak(state, system, mask_radius):
    tracemalloc.start()
    try:
        residual_norms(state, system, mask_radius=mask_radius)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_masked_residual_norms_at_65_reduce_in_place(residual_source):
    state = residual_source("transformed vortex", (65, 65, 65))
    X, Y, Z = state.grid.interior().meshgrid()
    mask_radius = float(np.median(np.sqrt(X * X + Y * Y + Z * Z)))
    node, pointwise = 65**3 * 8, 3 * 63**3 * 8  # cgl has three residuals
    held = int(np.count_nonzero(fd.sphere_mask(state.grid.interior(), mask_radius)))
    whole, masked = (_norms_peak(state, "cgl", r) for r in (None, mask_radius))
    # the windows' own temporaries, about 1.2 node arrays at 65^3, set both
    # peaks; a masked pass keeps the magnitudes of the mask's nodes alone
    # (half of the interior here) beside the mask
    assert whole < pointwise + 1.25 * node
    assert masked < 3 * held * 8 + 63**3 + 1.25 * node


def _tau_spike_state():
    """A uniform 9^3 state with tau = 1.5 at one node of the last x-slabs."""
    state = uniform_state(n=9)
    tau = np.zeros(state.grid.counts)
    tau[7, 4, 4] = 1.5
    return CGLState(state.B, state.p_perp, ScalarGrid(state.grid, tau), state.psi)


def _thin_state():
    g = Grid3((0.0, 0.0, 0.0), (0.1, 0.1, 0.1), (9, 4, 9))
    b = np.zeros((3, *g.counts))
    b[2] = 1.0
    one = ScalarGrid(g, np.ones(g.counts))
    return CGLState(VectorGrid(g, b), one, one, one)


@pytest.mark.parametrize(
    "case, message",
    [
        (lambda: (_tau_spike_state(), "alt", None), "the recast system needs tau < 1 everywhere on the grid"),
        (lambda: (_thin_state(), "mhd", None), "stencil requires at least 5 nodes along every axis"),
        (lambda: (uniform_state(n=9), "qqq", None), "unknown system 'qqq'; choose from ('mhd', 'cgl', 'alt')"),
        # a 10^3 grid has no node within 0.01 of the origin
        (lambda: (uniform_state(n=10), "mhd", 0.01), "norm over an empty node set"),
        (lambda: (uniform_state(n=9), "mhd", 0.0), "sphere radius must be positive, got 0"),
        (lambda: (uniform_state(n=9), "mhd", -0.5), "sphere radius must be positive, got -0.5"),
    ],
    ids=["alt with tau >= 1", "4-node axis", "unknown system", "empty mask", "zero radius", "negative radius"],
)
def test_residual_norms_check_the_whole_state_before_the_first_block(monkeypatch, case, message):
    state, system, mask_radius = case()
    monkeypatch.setattr(equilibria, "BLOCK_NODES", 3 * 81)
    blocks = []
    monkeypatch.setattr(equilibria, "_window_residuals", lambda *window: blocks.append(window) or {})
    with pytest.raises(ValueError) as err:
        residual_norms(state, system, mask_radius=mask_radius)
    assert str(err.value) == message
    assert blocks == []


# -- state IO --------------------------------------------------------------------------


def test_state_csv_roundtrip(tmp_path, vortex17):
    path = tmp_path / "state.csv"
    write_state_csv(vortex17, path)
    back = read_state_csv(path)
    assert np.array_equal(back.B.values, vortex17.B.values)
    assert np.array_equal(back.psi.values, vortex17.psi.values)
    header = path.read_text().splitlines()[0]
    assert header == "x,y,z,B1,B2,B3,p_perp,p_par,tau,psi"


def test_state_csv_bytes_equal_savetxt(tmp_path, vortex17):
    # 17^3 rows span several write blocks; the vortex repeats its outside
    # values and its equal pressures, the transform splits p_perp from p_par
    transformed = apply_infinite_transform(vortex17, TransformSpec("1 + psi*sin(psi)"))
    for name, state in (("vortex", vortex17), ("transformed", transformed)):
        path = tmp_path / f"{name}.csv"
        write_state_csv(state, path)
        columns = [*state.grid.meshgrid(), *state.B.values, state.p_perp.values, state.p_par.values,
                   state.tau.values, state.psi.values]
        reference = io.BytesIO()
        reference.write(b"x,y,z,B1,B2,B3,p_perp,p_par,tau,psi\n")
        np.savetxt(reference, np.column_stack([c.reshape(-1) for c in columns]), fmt="%.17g", delimiter=",")
        assert path.read_bytes() == reference.getvalue(), name


def test_state_csv_read_holds_little_beyond_its_table(tmp_path, vortex17, vortex65):
    # 65^3 rows are about 17 read blocks; a reader that held the row-major
    # table, a node mesh and contiguous copies of its columns peaked at 2.2
    # times the table
    assert 65**3 >= 8 * fd._READ_BLOCK
    small, path = tmp_path / "small.csv", tmp_path / "state.csv"
    write_state_csv(vortex17, small)
    write_state_csv(vortex65, path)
    read_state_csv(small)  # warm every cache first
    tracemalloc.start()
    try:
        back = read_state_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = 65**3 * 10 * 8  # x, y, z and the seven state columns
    assert peak <= 1.3 * table_bytes
    assert np.array_equal(back.B.values, vortex65.B.values)


def test_state_csv_missing_columns(tmp_path):
    g = Grid3.cube(-1, 1, 5)
    fd.write_csv(tmp_path / "bad.csv", dict(zip("xyz", g.axes())), {"B1": np.zeros(g.counts)})
    with pytest.raises(ValueError, match="missing state columns"):
        read_state_csv(tmp_path / "bad.csv")


def test_state_csv_warns_on_inconsistent_tau(tmp_path):
    # a state derives its p_par from tau, so only a file's column can disagree
    state = uniform_state(b=(0.0, 0.0, 1.0), p_perp=1.0, tau=1.0)
    columns = equilibria._columns(state)
    columns["p_par"] = np.full(state.grid.counts, 1.25)  # should be 2.0
    path = tmp_path / "inconsistent.csv"
    fd.write_csv(path, dict(zip("xyz", state.grid.axes())), columns)
    with pytest.warns(RuntimeWarning) as record:
        back = read_state_csv(path)
    message = f"{path}: tau column disagrees with (p_par - p_perp)/B^2 (scaled mismatch 7.50e-01)"
    assert [str(w.message) for w in record] == [message]
    # the column is checked, then not kept
    assert_p_par_derived(back)
    assert np.all(back.p_par.values == 2.0)


def test_state_csv_written_here_reads_and_writes_back_byte_identically(tmp_path, vortex17):
    transformed = apply_infinite_transform(vortex17, TransformSpec("1 + psi*sin(psi)"))
    for name, state in (("vortex", vortex17), ("transformed", transformed)):
        first, second = tmp_path / f"{name}.csv", tmp_path / f"{name}-again.csv"
        write_state_csv(state, first)
        write_state_csv(read_state_csv(first), second)
        assert second.read_bytes() == first.read_bytes(), name


def test_zero_state_csv_has_one_row_per_node(tmp_path):
    g = Grid3.cube(0.0, 1.0, 2)
    zero_s = ScalarGrid(g, np.zeros(g.counts))
    zero_v = VectorGrid(g, np.zeros((3, *g.counts)))
    state = CGLState(zero_v, zero_s, zero_s, zero_s)
    path = tmp_path / "zero.csv"
    write_state_csv(state, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1 + 8
    for line in lines[1:]:
        assert all(float(v) == 0.0 for v in line.split(",")[3:])


def test_state_fields_must_share_grid():
    g1 = Grid3.cube(-1, 1, 5)
    g2 = Grid3.cube(-1, 1, 7)
    s1 = ScalarGrid(g1, np.zeros(g1.counts))
    s2 = ScalarGrid(g2, np.zeros(g2.counts))
    v1 = VectorGrid(g1, np.zeros((3, *g1.counts)))
    with pytest.raises(ValueError, match="share one grid"):
        CGLState(v1, s1, s2, s1)


def test_vortex_state_refuses_a_grid_where_the_pressure_vanishes():
    # P0 = 0 and a grid that misses the ball, where the pressure is P0 alone
    with pytest.raises(ValueError, match="^degenerate state: pressure vanishes on the whole grid$"):
        vortex_state(vortex_params(P0=0.0), Grid3((5.0, 5.0, 5.0), (0.1, 0.1, 0.1), (5, 5, 5)))


def test_vortex_parameters_validate_mode_number(params):
    from plasmeq.equilibria import VortexParams

    with pytest.raises(ValueError, match="mode equation"):
        VortexParams(R=1.0, B0=1.0, P0=1.0, n=3, lam=params.lam + 0.01, gamma_b=params.gamma_b)
