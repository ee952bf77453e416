"""Point-symmetry analysis of first-order PDE systems.

Given a system declared in the expression grammar together with a choice of
leading derivative coordinates (one per equation), this module

1. forms the tangent-field ansatz ``xi_x(x, u), ..., eta_u(x, u), ...`` as
   opaque unknowns,
2. prolongs it to first-order derivative coordinates, from the total
   derivatives of each component, taken in one walk of its terms
   (``Context.total_derivatives``); those of the xi serve every dependent,
3. applies the prolonged field to every equation and restricts the result
   to the solution manifold by eliminating the leading coordinates,
4. splits on monomials in the surviving derivative coordinates, producing
   an overdetermined linear system on the unknowns, and
5. checks a concrete generator candidate without that system: steps 2-4
   run on the candidate in place of the opaque unknowns.  Candidate
   components are free of derivative coordinates, so this gives exactly
   the determining equations with the candidate substituted for the
   unknowns.

Everything is exact rational arithmetic; a residual is a symmetry witness
iff it is the structural zero.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .expr import (
    Context,
    Expr,
    FnAtom,
    ParseError,
    ProgramFile,
    Symbol,
    ZERO,
    _mono_key,
    _name_list,
    _parse_token_slice,
    _statements,
    collect,
    parse_program,
    pretty,
)

__all__ = [
    "LieError",
    "PdeSystem",
    "DeterminingSystem",
    "CandidateGenerator",
    "Verification",
    "prolong_coefficients",
    "build_determining_system",
    "verify_generator",
    "parse_generator",
]


class LieError(ValueError):
    pass


@dataclass(frozen=True)
class PdeSystem:
    """A first-order PDE system with a designated solved form.

    ``solved`` maps each leading derivative coordinate to an exact pair
    (numerator, denominator); the pairs are fully reduced, i.e. free of all
    leading coordinates.  Non-constant denominators are genericity
    assumptions carried in ``assumptions``.
    """

    context: Context
    equations: tuple[Expr, ...]
    leading: tuple[Symbol, ...]
    solved: dict[Symbol, tuple[Expr, Expr]] = field(repr=False)
    assumptions: tuple[str, ...] = ()
    target_count: int | None = None

    # room for the three bundled texts and the solved-form variants the tests build
    @staticmethod
    @functools.lru_cache(maxsize=8)
    def from_text(text: str) -> "PdeSystem":
        """The system that ``text`` declares, parsed, solved and checked once
        per process: an equal text returns the same (frozen) system.  A text
        that fails raises on every call, and is not kept."""
        return PdeSystem.from_program(parse_program(text))

    @staticmethod
    def from_program(prog: ProgramFile) -> "PdeSystem":
        ctx, eqs, leading = prog.context, prog.equations, prog.solve_for
        if not eqs:
            raise LieError("system declares no equations")
        if len(leading) != len(eqs):
            raise LieError(
                f"solve_for lists {len(leading)} coordinates for {len(eqs)} equations"
            )
        if len(set(leading)) != len(leading):
            raise LieError("leading derivative coordinates must be pairwise distinct")
        for e in eqs:
            _check_first_order_polynomial(e)
        solved = _triangular_solved_form(ctx, eqs, leading)
        assumptions = dict.fromkeys(_nonzero(den) for _num, den in solved.values() if den.constant_value() is None)
        system = PdeSystem(ctx, tuple(eqs), tuple(leading), solved, tuple(assumptions), prog.target_count)
        for e in eqs:
            residual, _ = reduce_on_manifold(e, solved)
            if not residual.is_zero:
                raise LieError(
                    "solved form is inconsistent: substituting it into an equation "
                    f"leaves {pretty(residual)}"
                )
        return system

    @functools.cached_property
    def _split_basis(self) -> tuple[list[Symbol], list[Symbol], list[dict[Symbol, Expr]]]:
        """What ``_apply_and_split`` takes of the system, whatever the field:
        the first-order jets, those that are not leading, and each
        equation's gradient over (x, u, jets)."""
        ctx = self.context
        jets = [ctx.jet(u, (x,)) for u in ctx.dependents for x in ctx.independents]
        coords = (*ctx.independents, *ctx.dependents, *jets)
        surviving = [j for j in jets if j not in self.leading]
        return jets, surviving, [eqn.gradient(coords) for eqn in self.equations]


def _check_first_order_polynomial(e: Expr) -> None:
    for a in e.atoms():
        if isinstance(a, Symbol):
            if a.is_jet and a.order > 1:
                raise LieError(f"equation contains a higher-order coordinate {a.name}")
            if a.is_jet and any(k < 0 for m in e._terms for b, k in m if b is a):
                raise LieError(f"equation divides by {pretty(Expr.from_atom(a))}; not polynomial in the jet coordinates")
        elif isinstance(a, FnAtom):
            for arg in a.args:
                if any(s.is_jet for s in arg.symbols()):
                    raise LieError(
                        f"equation applies {a.head}(...) to a derivative coordinate; "
                        "not polynomial in the jet coordinates"
                    )


def _triangular_solved_form(
    ctx: Context, eqs: list[Expr], leading: list[Symbol]
) -> dict[Symbol, tuple[Expr, Expr]]:
    solved: dict[Symbol, tuple[Expr, Expr]] = {}
    for e, jet in zip(eqs, leading):
        parts = e.coefficients_in(jet)
        deg = max(parts) if parts else 0
        if deg != 1:
            raise LieError(
                f"equation is not linear in its leading coordinate {jet.name} (degree {deg})"
            )
        num = -parts.get(0, ZERO)
        den = parts[1]
        if _leading_coefficient(den) < 0:
            num, den = -num, -den
        solved[jet] = (num, den)

    # Eliminate leading coordinates from the solved pairs themselves, until
    # no pair mentions any leading coordinate: substituting a pair into an
    # expression then never brings one back.
    circular = LieError("solved form is circular; cannot reduce to triangular form")
    for _round in range(len(solved) + 1):
        dirty = False
        for jet, (num, den) in list(solved.items()):
            for other, (onum, oden) in solved.items():
                if num.mentions(other) or den.mentions(other):
                    if other == jet:
                        raise circular
                    num, den = _substitute_fraction_pair(num, den, other, onum, oden)
                    dirty = True
            solved[jet] = (num, den)
        if not dirty:
            return solved
    raise circular


def _substitute_fraction(e: Expr, jet: Symbol, num: Expr, den: Expr) -> tuple[Expr, int]:
    """Replace ``jet`` by num/den in a polynomial, clearing the denominator.

    Returns the cleared polynomial together with the power of ``den`` the
    whole expression was multiplied by.
    """
    parts = e.coefficients_in(jet)
    deg = max(parts) if parts else 0
    if deg == 0:
        return e, 0
    # a denominator of 1, as every solved pair of mhd_static.pde and of
    # cgl_static.pde has, leaves each term as it is: its powers are skipped
    unit = den.constant_value() == 1
    out = ZERO
    for k, coeff in parts.items():
        term = coeff * num**k
        out = out + (term if unit else term * den ** (deg - k))
    return out, deg


def _substitute_fraction_pair(
    num: Expr, den: Expr, jet: Symbol, jnum: Expr, jden: Expr
) -> tuple[Expr, Expr]:
    new_num, p_num = _substitute_fraction(num, jet, jnum, jden)
    new_den, p_den = _substitute_fraction(den, jet, jnum, jden)
    # rescale so both sides carry the same cleared power of jden
    if p_num < p_den:
        new_num = new_num * jden ** (p_den - p_num)
    elif p_den < p_num:
        new_den = new_den * jden ** (p_num - p_den)
    return new_num, new_den


def reduce_on_manifold(
    e: Expr, solved: dict[Symbol, tuple[Expr, Expr]]
) -> tuple[Expr, list[str]]:
    """Eliminate the leading coordinates from ``e``.

    Each elimination multiplies the expression by the corresponding solved
    denominator to keep it polynomial; this is sound for expressions equated
    to zero under the recorded genericity assumptions, which are returned.
    One pass suffices: the solved pairs mention no leading coordinate.
    """
    used: dict[str, None] = {}
    for jet, (num, den) in solved.items():
        if e.mentions(jet, recurse=False):
            e, power = _substitute_fraction(e, jet, num, den)
            if power and den.constant_value() is None:
                used[_nonzero(den)] = None
    return e, list(used)


def _nonzero(den: Expr) -> str:
    """The genericity assumption that a solved denominator is nonzero."""
    return f"{pretty(den)} != 0"


# ---------------------------------------------------------------------------
# Prolongation
# ---------------------------------------------------------------------------


def prolong_coefficients(
    ctx: Context, xi: list[Expr], eta: Expr, dep: Symbol | str
) -> dict[Symbol, Expr]:
    """First-prolongation coefficients for one dependent variable:
    the coefficient on d/d(u_i) is D_i(eta) - sum_j u_j * D_i(xi_j)."""
    return _prolong(ctx, xi, {ctx.symbol(dep) if isinstance(dep, str) else dep: eta})


def _prolong(ctx: Context, xi: list[Expr], eta: dict[Symbol, Expr]) -> dict[Symbol, Expr]:
    """``prolong_coefficients`` for each dependent u, of component ``eta[u]``,
    from one D_i walk per component: those of the xi serve every u."""
    along = ctx.independents
    dxi = [ctx.total_derivatives(xi_j, along) for xi_j in xi]
    out: dict[Symbol, Expr] = {}
    for u, eta_u in eta.items():
        deta = ctx.total_derivatives(eta_u, along)
        jets = [Expr.from_atom(ctx.jet(u, (xj,))) for xj in along]
        for x in along:
            value = deta[x]
            for u_j, d in zip(jets, dxi):
                value = value - u_j * d[x]
            out[ctx.jet(u, (x,))] = value
    return out


def _apply_and_split(
    system: PdeSystem, xi: dict[Symbol, Expr], eta: dict[Symbol, Expr]
) -> tuple[list[dict[Expr, Expr]], list[str]]:
    """Prolong the field, apply it to each source equation, restrict the
    result to the solution manifold and split it on monomials in the
    surviving derivative coordinates.  Also returns the system's assumptions
    extended by the denominators the reduction divided out."""
    ctx = system.context
    prolonged = _prolong(ctx, [xi[x] for x in ctx.independents], {u: eta[u] for u in ctx.dependents})
    jets, surviving, gradients = system._split_basis
    assumptions = dict.fromkeys(system.assumptions)
    splits = []
    for grad in gradients:
        applied = ZERO
        for x in ctx.independents:
            applied = applied + xi[x] * grad[x]
        for u in ctx.dependents:
            applied = applied + eta[u] * grad[u]
        for jet in jets:
            d = grad[jet]
            if not d.is_zero:
                applied = applied + prolonged[jet] * d
        reduced, used = reduce_on_manifold(applied, system.solved)
        assumptions.update(dict.fromkeys(used))
        splits.append(collect(reduced, surviving))
    return splits, list(assumptions)


# ---------------------------------------------------------------------------
# Determining system
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DeterminingSystem:
    """Overdetermined linear system on the tangent-field unknowns.

    ``provenance[k]`` records which source equation and which derivative
    monomial produced ``equations[k]``.  The equation list drops exact
    structural duplicates only; ``stats`` additionally reports the raw
    pre-deduplication count and the count after merging equations that
    agree up to a rational factor.
    """

    context: Context
    equations: tuple[Expr, ...]
    provenance: tuple[tuple[int, Expr], ...]
    assumptions: tuple[str, ...]
    stats: dict = field(default_factory=dict, repr=False)

    @property
    def count(self) -> int:
        return len(self.equations)


def _leading_coefficient(e: Expr) -> int | Fraction:
    """The coefficient of the canonically largest monomial of a nonzero ``e``."""
    return e._terms[max(e._terms, key=_mono_key)]


def _scalar_normalize(e: Expr) -> Expr:
    """Divide by the leading coefficient so that rational multiples of the
    same equation coincide structurally."""
    if e.is_zero:
        return e
    lead = _leading_coefficient(e)
    if lead == 1:
        return e
    return e * Expr.number(Fraction(1) / lead)


def build_determining_system(system: PdeSystem) -> DeterminingSystem:
    """Apply the opaque tangent field ``xi_x(x, u), ..., eta_u(x, u), ...``
    and split; the result's context declares those unknowns."""
    ctx = system.context
    argnames = tuple(s.name for s in (*ctx.independents, *ctx.dependents))
    unknowns = {f"xi_{x.name}": argnames for x in ctx.independents}
    unknowns.update({f"eta_{u.name}": argnames for u in ctx.dependents})
    ctx_u = ctx.extended(unknowns=unknowns)
    xi = {x: Expr.from_atom(ctx_u.unknown_atom(f"xi_{x.name}")) for x in ctx.independents}
    eta = {u: Expr.from_atom(ctx_u.unknown_atom(f"eta_{u.name}")) for u in ctx.dependents}
    splits, assumptions = _apply_and_split(system, xi, eta)
    produced: list[tuple[Expr, int, Expr]] = []
    for e_idx, split in enumerate(splits):
        for monomial, coefficient in split.items():
            produced.append((coefficient, e_idx, monomial))

    # The count convention: drop zeros (collect already did) and exact
    # structural duplicates.  Equations that agree only up to a rational
    # factor are kept; their number is still reported in ``stats`` under
    # ``count_up_to_scale``.
    raw_count = len(produced)
    exact_seen: set[Expr] = set()
    final: list[Expr] = []
    provenance: list[tuple[int, Expr]] = []
    scaled_seen: set[Expr] = set()
    for coefficient, e_idx, monomial in produced:
        if coefficient in exact_seen:
            continue
        exact_seen.add(coefficient)
        final.append(coefficient)
        provenance.append((e_idx, monomial))
        scaled_seen.add(_scalar_normalize(coefficient))

    det = DeterminingSystem(
        ctx_u,
        tuple(final),
        tuple(provenance),
        tuple(assumptions),
        {"raw": raw_count, "count": len(final), "count_up_to_scale": len(scaled_seen)},
    )
    _check_determining_invariants(det, system)
    return det


def _check_determining_invariants(det: DeterminingSystem, system: PdeSystem) -> None:
    for eqn in det.equations:
        if eqn.is_zero:
            raise LieError("determining system contains an identically zero equation")
        for mono in eqn._terms:
            unknown_degree = 0
            for a, k in mono:
                if isinstance(a, Symbol) and a.is_jet:
                    raise LieError(
                        f"determining equation still contains derivative coordinate {a.name}"
                    )
                if isinstance(a, FnAtom):
                    unknown_degree += k
            if unknown_degree != 1:
                raise LieError(
                    "determining equation is not linear-homogeneous in the tangent unknowns: "
                    f"{pretty(eqn)}"
                )


# ---------------------------------------------------------------------------
# Candidate generators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CandidateGenerator:
    """Concrete tangent-field components over (x, u) and free parameters."""

    context: Context
    xi: dict[Symbol, Expr] = field(repr=False)
    eta: dict[Symbol, Expr] = field(repr=False)
    label: str = ""

    def __post_init__(self):
        for comp in (*self.xi.values(), *self.eta.values()):
            for a in comp.atoms():
                if isinstance(a, Symbol) and a.is_jet:
                    raise LieError("generator components must not contain derivative coordinates")
                if isinstance(a, FnAtom) and a.head.startswith(("xi_", "eta_")):
                    raise LieError("generator components must be fully concrete")

    def component(self, sym: Symbol) -> Expr:
        if sym.kind == "independent":
            return self.xi.get(sym, ZERO)
        return self.eta.get(sym, ZERO)

    def __add__(self, other: "CandidateGenerator") -> "CandidateGenerator":
        mine = {p.name for p in self.context.parameters}
        extra = [p.name for p in other.context.parameters if p.name not in mine]
        ctx = self.context.extended(parameters=extra) if extra else self.context
        xi = {x: self.xi.get(x, ZERO) + other.xi.get(x, ZERO) for x in {*self.xi, *other.xi}}
        eta = {u: self.eta.get(u, ZERO) + other.eta.get(u, ZERO) for u in {*self.eta, *other.eta}}
        return CandidateGenerator(ctx, xi, eta, f"{self.label}+{other.label}")


@dataclass(frozen=True)
class Verification:
    """Residuals of one candidate: the coefficients of every surviving
    derivative monomial, per source equation.  Iterating yields the
    residuals; the candidate generates a point symmetry iff all are the
    structural zero."""

    residuals: tuple[Expr, ...]
    assumptions: tuple[str, ...]

    def __iter__(self):
        return iter(self.residuals)


def verify_generator(system: PdeSystem, cand: CandidateGenerator) -> Verification:
    """Prolong the candidate, apply it to every source equation and reduce on
    the solution manifold.  ``assumptions`` are the system's genericity
    assumptions plus the denominators the reduction divided out."""
    ctx = system.context
    known = set(ctx._by_name) | {p.name for p in cand.context.parameters}
    for comp in (*cand.xi.values(), *cand.eta.values()):
        for s in comp.symbols():
            if s.name not in known:
                raise LieError(f"generator component references undeclared symbol {s.name!r}")

    xi = {x: cand.component(x) for x in ctx.independents}
    eta = {u: cand.component(u) for u in ctx.dependents}
    splits, assumptions = _apply_and_split(system, xi, eta)
    residuals = tuple(r for split in splits for r in split.values())
    return Verification(residuals, tuple(assumptions))


# ---------------------------------------------------------------------------
# Generator files
# ---------------------------------------------------------------------------


def parse_generator(base: Context, text: str, label: str = "") -> CandidateGenerator:
    """Parse generator component assignments.

    Grammar: ``param a, b;`` statements plus ``xi(<independent>) = <expr>;``
    and ``eta(<dependent>) = <expr>;`` assignments, with ``#`` comments, as
    in PDE files.  Components not assigned are zero; assigning one twice is
    an error, and so is a text that assigns none (it would verify as a
    symmetry of any system).
    """
    params: list[str] = []
    assigns = []
    for stmt in _statements(text):
        if stmt[0].text == "param":
            params.extend(_name_list(stmt))
        else:
            assigns.append(stmt)
    if not assigns:
        raise LieError("no xi(...) or eta(...) assignment")
    ctx = base.extended(parameters=params) if params else base
    components: dict[str, dict[Symbol, Expr]] = {"xi": {}, "eta": {}}
    for stmt in assigns:
        # xi ( <name> ) = <body>
        head = stmt[0]
        if not (
            len(stmt) > 4
            and head.text in components
            and stmt[2].type == "ident"
            and [t.text for t in (stmt[1], stmt[3], stmt[4])] == ["(", ")", "="]
        ):
            raise ParseError(f"unrecognized generator statement starting with {head.text!r}", head.line, head.col)
        kind, name = head.text, stmt[2].text
        try:
            sym = ctx.symbol(name)
        except KeyError:
            raise LieError(f"{kind}({name}): undeclared variable {name!r}") from None
        if kind == "xi" and sym.kind != "independent":
            raise LieError(f"xi({name}) requires an independent variable")
        if kind == "eta" and sym.kind != "dependent":
            raise LieError(f"eta({name}) requires a dependent variable")
        if sym in components[kind]:
            raise ParseError(f"{kind}({name}) is assigned twice", head.line, head.col)
        components[kind][sym] = _parse_token_slice(stmt[5:], ctx, stmt[4])
    return CandidateGenerator(ctx, components["xi"], components["eta"], label)
