"""The Lie bracket as an exact oracle for the symmetry verdicts.

The point symmetries of a system are closed under the bracket
[X, Y]^a = X(Y^a) - Y(X^a), where X(f) sums X^b df/dz^b over every base
coordinate z, independents and dependents alike (Olver, Applications of Lie
Groups to Differential Equations, sections 1.4 and 2.2).  So the bracket of
two verified generators must verify too, and a wrong accept can break that.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from plasmeq import data_text
from plasmeq.expr import ZERO, Expr
from plasmeq.lie import CandidateGenerator, parse_generator, verify_generator
from plasmeq.systems import line_function_generator, load_system

# the bundled generator files of each system's catalogue
_CATALOGUE = {
    "mhd": (
        "mhd_translations.gen",
        "mhd_rotations.gen",
        "mhd_scalings.gen",
        "mhd_field_scaling.gen",
        "space_scaling.gen",
    ),
    "cgl": (
        "cgl_translations.gen",
        "mhd_rotations.gen",
        "space_scaling.gen",
        "cgl_field_scaling.gen",
        "cgl_pressure_anisotropy_scaling.gen",
        "cgl_line_function.gen",
    ),
}
_CATALOGUE["cgl_closed"] = _CATALOGUE["cgl"]


def bracket(system, X: CandidateGenerator, Y: CandidateGenerator) -> CandidateGenerator:
    """[X, Y], component by component over the base coordinates (x, u)."""
    ctx = system.context
    coords = (*ctx.independents, *ctx.dependents)

    def apply(V, f):
        grad = f.gradient(coords)
        return sum((V.component(b) * grad[b] for b in coords), ZERO)

    comp = {a: apply(X, Y.component(a)) - apply(Y, X.component(a)) for a in coords}
    return CandidateGenerator(
        ctx,
        {x: comp[x] for x in ctx.independents},
        {u: comp[u] for u in ctx.dependents},
        f"[{X.label}, {Y.label}]",
    )


def members(system, files) -> list[CandidateGenerator]:
    """One generator per file, and per parameter of a parametric file: its
    components' coefficients of that parameter."""
    base = system.context
    out = []
    for name in files:
        gen = parse_generator(base, data_text(name), name)
        params = [p for p in gen.context.parameters if p not in base.parameters]
        if not params:
            out.append(gen)
        for p in params:

            def pick(comps, p=p):
                return {s: c.coefficients_in(p).get(1, ZERO) for s, c in comps.items()}

            out.append(CandidateGenerator(base, pick(gen.xi), pick(gen.eta), f"{name}:{p.name}"))
    return out


def _verifies(system, gen) -> bool:
    return all(r.is_zero for r in verify_generator(system, gen))


def _line_variables(system):
    """tau and Pi = pperp + tau |B|^2 / 2, the quantities constant on field lines."""
    ctx = system.context
    tau = ctx.var("tau")
    b2 = sum((ctx.var(b) ** 2 for b in ("B1", "B2", "B3")), ZERO)
    return tau, ctx.var("pperp") + tau * b2 / 2


# (members, zero brackets, nonzero brackets that verify)
@pytest.mark.parametrize(
    "name, sizes", [("mhd", (11, 38, 17)), ("cgl", (11, 41, 14)), ("cgl_closed", (15, 76, 29))]
)
def test_catalogue_is_closed_under_the_bracket(name, sizes):
    system = load_system(name)
    gens = members(system, _CATALOGUE[name])
    if name == "cgl_closed":
        # the closed system keeps the whole field-line family, not only F = 1
        tau, Pi = _line_variables(system)
        gens += [line_function_generator(system, F) for F in (tau, tau**2, tau**3, Pi)]
    for gen in gens:
        assert _verifies(system, gen), gen.label
    zero = verified = 0
    for X, Y in combinations(gens, 2):
        b = bracket(system, X, Y)
        if all(c.is_zero for c in (*b.xi.values(), *b.eta.values())):
            zero += 1
        else:
            assert _verifies(system, b), b.label
            verified += 1
    assert (len(gens), zero, verified) == sizes


_MONOMIALS = [(i, j) for i in range(4) for j in range(4 - i)]
_polynomials = st.dictionaries(
    st.sampled_from(_MONOMIALS),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    min_size=1,
    max_size=3,
)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(_polynomials, _polynomials)
def test_line_family_obeys_the_bracket_law(c1, c2):
    """[F1 X, F2 X] = 2 (1 - tau) (F1 dF2/dtau - F2 dF1/dtau) X for the unit
    line generator X and F1, F2 of degree <= 3 in (tau, Pi), Pi held fixed
    in d/dtau: X(tau) = 2 (1 - tau) and X(Pi) = 0."""
    system = load_system("cgl_closed")
    tau, Pi = _line_variables(system)

    def poly(c):
        return sum((Expr.number(q) * tau**i * Pi**j for (i, j), q in c.items()), ZERO)

    def dtau(c):
        return sum((Expr.number(q * i) * tau ** (i - 1) * Pi**j for (i, j), q in c.items() if i), ZERO)

    F1, F2 = poly(c1), poly(c2)
    got = bracket(system, line_function_generator(system, F1), line_function_generator(system, F2))
    law = line_function_generator(system, 2 * (1 - tau) * (F1 * dtau(c2) - F2 * dtau(c1)))
    ctx = system.context
    for a in (*ctx.independents, *ctx.dependents):
        assert got.component(a) == law.component(a), a.name


def test_bracket_with_a_non_symmetry_leaves_one_residual():
    # [rotation about z, eta(P) = x] = y d/dP: a pressure gradient in y
    system = load_system("mhd")
    rotation = next(g for g in members(system, ["mhd_rotations.gen"]) if g.label.endswith(":c"))
    bogus = parse_generator(system.context, data_text("mhd_bogus.gen"), "mhd_bogus")
    b = bracket(system, rotation, bogus)
    ctx = system.context
    assert b.component(ctx.symbol("P")) == ctx.var("y")
    assert sum(not r.is_zero for r in verify_generator(system, b)) == 1
