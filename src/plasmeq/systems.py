"""Bundled equilibrium systems and their known symmetry generators.

The PDE declarations live in ``plasmeq/data`` as plain text in the
expression grammar; loaders here return ready ``PdeSystem`` objects.  The
generator catalog builds the classical candidates (translations, rotations,
two scalings, the pressure/anisotropy rescaling of the anisotropic system,
and the field-line transform family) as concrete components over each
system's variables.
"""

from __future__ import annotations

from importlib import resources

from .expr import Context, Expr
from .lie import CandidateGenerator, PdeSystem

__all__ = [
    "RESIDUAL_SYSTEMS",
    "load_system",
    "translations",
    "rotations",
    "space_scaling",
    "field_scaling",
    "pressure_anisotropy_scaling",
    "line_function_generator",
    "classical_generators",
]

# the governing systems whose residuals ``equilibria.residual_fields``
# evaluates on sampled states
RESIDUAL_SYSTEMS = ("mhd", "cgl", "alt")


def _data_text(name: str) -> str:
    return resources.files("plasmeq.data").joinpath(name).read_text()


def load_system(name: str) -> PdeSystem:
    """Load a bundled system: ``mhd``, ``cgl`` or ``cgl_closed``."""
    files = {
        "mhd": "mhd_static.pde",
        "cgl": "cgl_static.pde",
        "cgl_closed": "cgl_static_closed.pde",
    }
    try:
        return PdeSystem.from_text(_data_text(files[name]))
    except KeyError:
        raise ValueError(f"unknown bundled system {name!r}; choose from {sorted(files)}") from None


def _pressure_name(ctx: Context) -> str:
    for cand in ("P", "pperp"):
        try:
            if ctx.symbol(cand).kind == "dependent":
                return cand
        except KeyError:
            continue
    raise ValueError("system declares neither P nor pperp")


def translations(system: PdeSystem) -> CandidateGenerator:
    """Coordinate translations plus a constant pressure shift (K1..K4)."""
    ctx = system.context.extended(parameters=["K1", "K2", "K3", "K4"])
    xi = {x: ctx.var(f"K{i + 1}") for i, x in enumerate(ctx.independents)}
    eta = {ctx.symbol(_pressure_name(ctx)): ctx.var("K4")}
    return CandidateGenerator(ctx, xi, eta, "translations")


def rotations(system: PdeSystem) -> CandidateGenerator:
    """Simultaneous rotation of coordinates and field components (b, c, d)."""
    ctx = system.context.extended(parameters=["b", "c", "d"])
    x1, x2, x3 = (ctx.var(s.name) for s in ctx.independents)
    B1, B2, B3 = (ctx.var(n) for n in ("B1", "B2", "B3"))
    b, c, d = ctx.var("b"), ctx.var("c"), ctx.var("d")
    xi = {
        ctx.independents[0]: c * x2 + d * x3,
        ctx.independents[1]: -c * x1 - b * x3,
        ctx.independents[2]: -d * x1 + b * x2,
    }
    eta = {
        ctx.symbol("B1"): c * B2 + d * B3,
        ctx.symbol("B2"): -c * B1 - b * B3,
        ctx.symbol("B3"): -d * B1 + b * B2,
    }
    return CandidateGenerator(ctx, xi, eta, "rotations")


def space_scaling(system: PdeSystem) -> CandidateGenerator:
    """Uniform scaling of the coordinates alone."""
    ctx = system.context
    xi = {x: ctx.var(x.name) for x in ctx.independents}
    return CandidateGenerator(ctx, xi, {}, "space_scaling")


def field_scaling(system: PdeSystem) -> CandidateGenerator:
    """Scaling of the field with the pressure scaled twice as fast."""
    ctx = system.context
    p = ctx.symbol(_pressure_name(ctx))
    eta = {ctx.symbol(n): ctx.var(n) for n in ("B1", "B2", "B3")}
    eta[p] = Expr.number(2) * ctx.var(p.name)
    return CandidateGenerator(ctx, {}, eta, "field_scaling")


def pressure_anisotropy_scaling(system: PdeSystem) -> CandidateGenerator:
    """Rescaling of (pperp + B^2/2) against (1 - tau); anisotropic systems only."""
    ctx = system.context
    pperp = ctx.symbol("pperp")
    tau = ctx.var("tau")
    b_sq = sum((ctx.var(n) ** 2 for n in ("B1", "B2", "B3")), Expr.number(0))
    eta = {
        pperp: ctx.var("pperp") + b_sq / 2,
        ctx.symbol("tau"): tau - Expr.number(1),
    }
    return CandidateGenerator(ctx, {}, eta, "pressure_anisotropy_scaling")


def line_function_generator(system: PdeSystem, multiplier: Expr | str = "1") -> CandidateGenerator:
    """The field-line transform family of the anisotropic system.

    ``multiplier`` is an expression in quantities constant on field lines
    (``tau`` and ``pperp + tau*B^2/2``); component template:
    F * (B_i d/dB_i + 2(1 - tau) d/dtau - B^2 d/dpperp).
    """
    ctx = system.context
    F = ctx.parse(multiplier) if isinstance(multiplier, str) else multiplier
    tau = ctx.var("tau")
    b_sq = sum((ctx.var(n) ** 2 for n in ("B1", "B2", "B3")), Expr.number(0))
    eta = {ctx.symbol(n): F * ctx.var(n) for n in ("B1", "B2", "B3")}
    eta[ctx.symbol("tau")] = F * Expr.number(2) * (Expr.number(1) - tau)
    eta[ctx.symbol("pperp")] = -F * b_sq
    return CandidateGenerator(ctx, {}, eta, "line_function")


def classical_generators(system: PdeSystem) -> list[CandidateGenerator]:
    """Translations, rotations and both scalings for any bundled system."""
    return [
        translations(system),
        rotations(system),
        space_scaling(system),
        field_scaling(system),
    ]
