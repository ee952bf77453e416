"""The spherical vortex and its field-line images as exact solutions.

The fields of ``equilibria._vortex_fields``, written with V an unknown
function of s = x^2 + y^2 + z^2, are substituted into the bundled systems,
and each residual, times 4s, is reduced by the profile's ODE
4 s V_ss + 10 V_s + 4 lam^2 (V + gb) = 0 (V0(x) = 3 j1(x)/x solves
g'' + (4/x) g' + g = 0, and x = 2 lam rho).  A solution leaves every
residual the structural zero, with lam, gb and P0 symbolic.
"""

import pytest

from plasmeq.expr import Expr, FnAtom, Symbol
from plasmeq.systems import load_system


def _vortex(system):
    """The system's context with the parameters lam, gb and P0, and the
    atoms V(s), V_s and V_ss."""
    ctx = system.context.extended(parameters=["lam", "gb", "P0"])
    V = FnAtom("V", (ctx.parse("x^2 + y^2 + z^2"),))
    return ctx, (V, V.bump(0), V.bump(0).bump(0))


def _residuals(system, fields: dict[str, Expr]) -> list[Expr]:
    """Each equation with the fields and their gradients put in, times 4s,
    and 4 s V_ss replaced by -10 V_s - 4 lam^2 (V + gb)."""
    ctx, (V, Vs, Vss) = _vortex(system)
    xs = ctx.independents
    grads = {u: fields[u.name].gradient(xs) for u in ctx.dependents}

    def resolver(atom):
        if isinstance(atom, Symbol) and atom.kind == "dependent":
            return fields[atom.name]
        if isinstance(atom, Symbol) and atom.is_jet:
            return grads[ctx.symbol(atom.base)][ctx.symbol(atom.wrt[0])]
        return None

    four_s = ctx.parse("4*(x^2 + y^2 + z^2)")
    ode = -10 * Expr.from_atom(Vs) - 4 * ctx.parse("lam^2") * (Expr.from_atom(V) + ctx.var("gb"))
    out = []
    for eqn in system.equations:
        parts = eqn.substitute_atoms(resolver).coefficients_in(Vss)
        assert set(parts) <= {0, 1}
        out.append(four_s * parts.get(0, Expr.number(0)) + parts.get(1, Expr.number(0)) * ode)
    return out


def _vortex_fields(system, pressure) -> dict[str, Expr]:
    """B = (-V_s z x - lam V y, -V_s z y + lam V x, V + V_s (x^2 + y^2)) and
    P = pressure(V, x, y, lam, gb, P0), with V = V(s)."""
    ctx, (V, Vs, _Vss) = _vortex(system)
    x, y, z, lam, gb, P0 = (ctx.var(n) for n in ("x", "y", "z", "lam", "gb", "P0"))
    V, Vs = Expr.from_atom(V), Expr.from_atom(Vs)
    return {
        "B1": -Vs * z * x - lam * V * y,
        "B2": -Vs * z * y + lam * V * x,
        "B3": V + Vs * (x**2 + y**2),
        "P": pressure(V, x, y, lam, gb, P0),
    }


# profile -> (P, the number of terms each residual of mhd_static.pde leaves)
PRESSURES = {
    "balanced": (lambda V, x, y, lam, gb, P0: P0 + gb * lam**2 * V * (x**2 + y**2), [0, 0, 0, 0]),
    # the historical printed profile, which fails the momentum balance
    "unscaled": (lambda V, x, y, lam, gb, P0: P0 - gb * V * (x**2 + y**2), [0, 16, 16, 10]),
}


@pytest.mark.parametrize("profile", list(PRESSURES))
def test_the_vortex_is_an_exact_isotropic_equilibrium(profile):
    system = load_system("mhd")
    pressure, terms = PRESSURES[profile]
    residuals = _residuals(system, _vortex_fields(system, pressure))
    assert [len(list(r.terms())) for r in residuals] == terms


# the power k of tau' = 1 - m^-k -> the number of terms each residual of
# cgl_static_closed.pde leaves
FIELD_LINE_IMAGES = {
    2: [0, 0, 0, 0, 0],
    # the control: 1/M in place of 1/M^2
    1: [0, 22, 22, 24, 0],
}


@pytest.mark.parametrize("k", list(FIELD_LINE_IMAGES))
def test_field_line_images_of_the_vortex_are_exact_closed_cgl_equilibria(k):
    # B' = m B, tau' = 1 - m^-2 and pperp' = P + (1 - m^2) |B|^2 / 2, with
    # m = m(P) any function of the label P; m^-2 cancels against m^2 in the
    # kernel, so no side symbol stands for it
    system = load_system("cgl_closed")
    mhd = _vortex_fields(system, PRESSURES["balanced"][0])
    m = Expr.from_atom(FnAtom("m", (mhd["P"],)))
    fields = {name: m * mhd[name] for name in ("B1", "B2", "B3")}
    fields["tau"] = 1 - m**-k
    fields["pperp"] = mhd["P"] + (1 - m**2) * (mhd["B1"] ** 2 + mhd["B2"] ** 2 + mhd["B3"] ** 2) / 2
    residuals = _residuals(system, fields)
    assert [len(list(r.terms())) for r in residuals] == FIELD_LINE_IMAGES[k]
