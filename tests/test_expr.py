import copy
import gc
import os
import pickle
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest
from fractions import Fraction

from hypothesis import example, given, settings, strategies as st

from plasmeq.expr import (
    _DERIVATIVES,
    NUMERIC_FUNCTIONS,
    CollectError,
    Context,
    EvalError,
    Expr,
    ExprError,
    FnAtom,
    ParseError,
    Symbol,
    collect,
    compile_numeric,
    parse_program,
    pretty,
)
from reference import total_derivative


@pytest.fixture
def ctx():
    return Context(["x", "y", "z"], ["B1", "B2", "B3", "P"], ["c"])


@pytest.fixture
def uctx():
    return Context(["x", "y"], ["u"])


def test_parse_divergence_sum(ctx):
    e = ctx.parse("diff(B1,x)+diff(B2,y)+diff(B3,z)")
    expected = (
        Expr.from_atom(ctx.jet("B1", ["x"]))
        + Expr.from_atom(ctx.jet("B2", ["y"]))
        + Expr.from_atom(ctx.jet("B3", ["z"]))
    )
    assert e == expected


def test_parse_distributes_products(ctx):
    e = ctx.parse("(1-c)*B2")
    assert e == ctx.var("B2") - ctx.var("c") * ctx.var("B2")


def test_mixed_partials_canonicalized(ctx):
    assert ctx.parse("diff(B1,y,x)") == ctx.parse("diff(B1,x,y)")


def test_parse_errors_carry_position(ctx):
    with pytest.raises(ParseError) as err:
        ctx.parse("B1 + ) * 2")
    assert "line 1" in str(err.value)
    with pytest.raises(ParseError, match="undeclared"):
        ctx.parse("B1 + nosuch")
    with pytest.raises(ParseError, match="not a dependent"):
        ctx.parse("diff(x, y)")
    with pytest.raises(ParseError, match="not an independent"):
        ctx.parse("diff(B1, B2)")


@pytest.mark.parametrize(
    "text, message, line, col",
    [
        ("diff(x, y)", "cannot differentiate 'x': not a dependent variable", 1, 6),
        ("diff(c, x)", "cannot differentiate 'c': not a dependent variable", 1, 6),
        ("u + diff(u, v)", "cannot differentiate with respect to 'v': not an independent variable", 1, 10),
        ("diff(u, c)", "cannot differentiate with respect to 'c': not an independent variable", 1, 6),
        ("2*diff(f, y)", "'f' does not depend on 'y'", 1, 3),
    ],
)
def test_diff_errors_name_the_cause_and_position(text, message, line, col):
    ctx = Context(["x", "y"], ["u", "v"], ["c"], {"f": ("x",)})
    with pytest.raises(ParseError) as err:
        ctx.parse(text)
    assert str(err.value) == f"{message} (line {line}, column {col})"
    assert (err.value.line, err.value.col) == (line, col)


def test_rational_and_decimal_literals(ctx):
    assert ctx.parse("3/2").constant_value() == Fraction(3, 2)
    assert ctx.parse("0.5*B1") == ctx.var("B1") / 2


def test_total_derivative_of_dependent(uctx):
    u = uctx.var("u")
    assert total_derivative(uctx, u, "x") == Expr.from_atom(uctx.jet("u", ["x"]))


def test_total_derivative_product_rule(uctx):
    e = uctx.parse("x*u")
    expected = uctx.var("u") + uctx.var("x") * Expr.from_atom(uctx.jet("u", ["x"]))
    assert total_derivative(uctx, e, "x") == expected


def test_total_derivative_promotes_jets(uctx):
    ux = Expr.from_atom(uctx.jet("u", ["x"]))
    assert total_derivative(uctx, ux, "y") == Expr.from_atom(uctx.jet("u", ["x", "y"]))


def test_collect_linear_first_order(uctx):
    ctx = Context(["x", "y"], ["u", "a", "b"])
    e = ctx.parse("a*diff(u,x) + b*diff(u,y) + x^2")
    got = collect(e, [ctx.jet("u", ["x"]), ctx.jet("u", ["y"])])
    assert got[ctx.parse("diff(u,x)")] == ctx.var("a")
    assert got[ctx.parse("diff(u,y)")] == ctx.var("b")
    assert got[Expr.number(1)] == ctx.parse("x^2")


def test_collect_merges_like_terms(uctx):
    e = uctx.parse("diff(u,x)*diff(u,y) + 2*diff(u,x)*diff(u,y)")
    got = collect(e, [uctx.jet("u", ["x"]), uctx.jet("u", ["y"])])
    assert got == {uctx.parse("diff(u,x)*diff(u,y)"): Expr.number(3)}


def test_collect_square_expansion(uctx):
    # oracle: hand expansion of (u_x + u_y)^2
    e = uctx.parse("(diff(u,x) + diff(u,y))^2")
    got = collect(e, [uctx.jet("u", ["x"]), uctx.jet("u", ["y"])])
    assert got == {
        uctx.parse("diff(u,x)^2"): Expr.number(1),
        uctx.parse("diff(u,x)*diff(u,y)"): Expr.number(2),
        uctx.parse("diff(u,y)^2"): Expr.number(1),
    }


def test_collect_rejects_opaque_basis_use(uctx):
    e = Expr.number(1) / uctx.parse("1 + diff(u,x)")
    with pytest.raises(CollectError):
        collect(e, [uctx.jet("u", ["x"])])


def test_a_negative_power_is_not_polynomial(uctx):
    # 1/u_x is the Laurent monomial u_x^-1, which no polynomial split takes
    jet = uctx.jet("u", ["x"])
    e = uctx.parse("u + 1/diff(u,x)")
    with pytest.raises(CollectError, match="^basis symbol 'u_x' has the power -1; not polynomial in the basis$"):
        collect(e, [jet])
    with pytest.raises(CollectError, match="^not a polynomial in diff\\(u,x\\): it has the power -1$"):
        e.coefficients_in(jet)
    with pytest.raises(CollectError, match="^not a polynomial in psi"):
        compile_numeric("2 + 1/psi", ["psi"]).antiderivative("psi")
    # a negative power of an atom outside the basis is part of a coefficient
    assert collect(uctx.parse("diff(u,x)/u"), [jet]) == {Expr.from_atom(jet): uctx.parse("1/u")}
    assert uctx.parse("diff(u,x)/u").coefficients_in(jet) == {1: uctx.parse("u^-1")}


def test_quotient_constant_vs_opaque(uctx):
    assert uctx.var("u") / Expr.number(4) == uctx.parse("u/4")
    e = Expr.number(1) / uctx.parse("1+u")
    assert e.evaluate({"u": 1.0}) == pytest.approx(0.5)


# spellings of one reciprocal -> its normal form, as ``pretty`` prints it
RECIPROCAL_SPELLINGS = {
    ("1/(2*sqrt(psi))", "0.5/sqrt(psi)", "inv(2*sqrt(psi))"): "1/2*sqrt(psi)^-1",
    ("x^-2", "(1/x)^2", "inv(x^2)", "1/x^2"): "x^-2",
    ("1/(-x)", "-1/x", "inv(-x)", "(-x)^-1"): "-x^-1",
    ("1/(x^2*y - 2*x)", "inv(x)*inv(x*y - 2)", "0.5/(0.5*x^2*y - x)"): "-x^-1*inv(2 - x*y)",
    ("1/(x/2 + y/3)", "6/(3*x + 2*y)"): "6*inv(3*x + 2*y)",
    ("1/(1 - x)", "-1/(x - 1)"): "inv(1 - x)",
    ("inv(4)", "2^-2", "1/4"): "1/4",
    # an atom cancels against its reciprocal
    ("x/x", "x^-1*x", "inv(x)*x"): "1",
    ("x^2/x", "x^3*x^-2"): "x",
    ("sqrt(1+x)*inv(sqrt(1+x))", "sqrt(1+x)/sqrt(1+x)"): "1",
    # an atom's negative least power goes back to the terms that lack it
    ("1/(1 + 1/x)", "x/(x + 1)", "inv(x^-1 + 1)"): "x*inv(1 + x)",
    ("1/(x^-2*y + 3*x^-1)", "x^2/(y + 3*x)"): "x^2*inv(3*x + y)",
    # a denominator of several terms stays whole: P*inv(P) is not 1
    ("(1+x)/(1+x)", "(1+x)*inv(1+x)"): "x*inv(1 + x) + inv(1 + x)",
}


@pytest.mark.parametrize("spellings", list(RECIPROCAL_SPELLINGS))
def test_every_spelling_of_a_reciprocal_has_one_normal_form(spellings):
    ctx = Context(independents=["psi", "x", "y"])
    want = RECIPROCAL_SPELLINGS[spellings]
    for text in spellings:
        e = ctx.parse(text)
        assert pretty(e) == want, text
        # the printed form reads back to itself
        assert ctx.parse(pretty(e)) == e
    # the normal form evaluates to the reciprocal of the first spelling
    at = {"psi": 0.7, "x": 1.3, "y": -0.4}
    assert ctx.parse(want).evaluate(at) == pytest.approx(ctx.parse(spellings[0]).evaluate(at), rel=1e-14)


def test_a_reciprocal_of_zero_is_refused():
    ctx = Context(independents=["x"])
    with pytest.raises(ZeroDivisionError, match="^division by zero$"):
        ctx.var("x") / Expr.number(0)
    for text, col in (("inv(0)", 1), ("x*inv(x - x)", 3), ("0^-1", 4)):
        with pytest.raises(ParseError, match=f"\\(line 1, column {col}\\)$"):
            ctx.parse(text)


def test_numeric_evaluation_vectorized():
    f = compile_numeric("1 + psi*sin(psi)", ["psi"])
    psi = np.linspace(-1, 1, 11)
    assert np.allclose(f(psi), 1 + psi * np.sin(psi))
    # undeclared names are parse errors, missing values are eval errors
    with pytest.raises(ParseError):
        compile_numeric("q", ["psi"])
    g = compile_numeric("psi", ["psi"])
    with pytest.raises(EvalError):
        g.expression.evaluate({})


@pytest.mark.parametrize("text", ["1e400", "psi - 1e400", "exp(10^400*psi)", "sin(1 + psi/3*10^309)"])
def test_compile_numeric_refuses_a_constant_beyond_the_float_range(text):
    with pytest.raises(ExprError, match=r"^constant beyond the float range in "):
        compile_numeric(text, ["psi"])


def test_a_literal_is_refused_past_4300_digits_written_out():
    ctx = Context(independents=["psi"])
    # digits plus the magnitude of the exponent: 4300 is read, 4301 is not
    for text in ("1e4299", "1.5e4298", "1e-4299", "9" * 4300, "1e999"):
        ctx.parse(text)
    for text in ("1e4300", "1.5e4299", "1e-4300", "9" * 4301, "1e" + "9" * 5000, "1e0000000000000000000005000"):
        with pytest.raises(ParseError, match=r"^number literal of more than 4300 digits when written out \(line 1"):
            ctx.parse(text)
    # 1e999 is read, and refused as a float constant
    with pytest.raises(ExprError, match=r"^constant beyond the float range in '1e999'"):
        compile_numeric("1e999", ["psi"])


def test_a_built_constant_is_refused_past_4300_digits_written_out():
    ctx = Context(independents=["psi"])
    # 2^14000 has 4215 digits, 3^9000 4295 and 10^4000 4001: each is built and printed
    for text in ("2^14000", "(1/3)^9000", "1e2000*1e2000", "(1 + psi)^200"):
        pretty(ctx.parse(text))
    for text in ("2^14300", "(1/3)^9100", "1e2200*1e2200"):
        with pytest.raises(ParseError, match=r"^constant of more than 4300 digits when written out \(line 1"):
            ctx.parse(text)


@pytest.mark.parametrize(
    "text, at",
    [("psi^2", 1e200), ("psi^2", 10**200), ("psi^-2", 1e-200), ("1 + psi^3", -1e150), ("psi^2 - psi^4", 1e200)],
    ids=["square of a float", "square of an int", "reciprocal square", "cube", "inf minus inf"],
)
def test_a_python_number_overflows_to_inf_as_an_array_does(text, at):
    f = compile_numeric(text, ["psi"])
    want = f(np.array([float(at)]))
    # a Python float or int gives numpy's inf (or nan), not an OverflowError
    got = f(at)
    assert np.array_equal([got], want, equal_nan=True) and not np.isfinite(got), (got, want)


def test_compile_numeric_keeps_constants_a_float_can_hold():
    # 1e-400 rounds to zero and 10^308 is finite: neither is refused
    assert compile_numeric("psi + 1e-400 + 10^308", ["psi"])(1.0) == 1.0 + 1e308


@pytest.mark.parametrize("text", ["2", "0", "q", "q*sin(q) - 1", "psi*q + 1"])
def test_a_compiled_profile_returns_its_arguments_broadcast_shape(text):
    # a constant, or an expression that leaves out psi, fills a new array of
    # the shape of psi and q together; so does one that uses both
    f = compile_numeric(text, ["psi", "q"])
    psi, q = np.linspace(0.0, 1.0, 20).reshape(4, 5), np.arange(1.0, 5.0)[:, None]
    out = f(psi, q)
    assert out.shape == (4, 5) and out.dtype == np.float64 and out.flags.writeable
    assert not np.shares_memory(out, psi) and not np.shares_memory(out, q)
    want = np.broadcast_to(f.expression.evaluate({"psi": psi, "q": q}), (4, 5))
    assert np.array_equal(out, want)
    out[...] = -7.0
    assert np.array_equal(f(psi, q), want)
    # numbers give a number
    assert np.shape(f(0.5, 2.0)) == () and f(0.5, 2.0) == f.expression.evaluate({"psi": 0.5, "q": 2.0})


@pytest.mark.parametrize(
    "dtype, values, text",
    [(np.int16, [200, -7], "psi^2"), (np.int64, [3000000, 5], "psi^3"), (np.float32, [0.1, 7.0], "psi/3")],
    ids=["int16", "int64", "float32"],
)
def test_each_value_is_read_as_float64(dtype, values, text):
    # an integer array's power does not wrap, and float32 does not round the result
    psi = np.array(values, dtype=dtype)
    got = compile_numeric(text, ["psi"])(psi)
    assert got.dtype == np.float64
    assert np.array_equal(got, compile_numeric(text, ["psi"])(psi.astype(np.float64)))


def test_program_file_parsing():
    prog = parse_program(
        """
        # toy system
        indep x, y;
        dep u;
        target_count: 7;
        solve_for: diff(u,x);
        eq diff(u,x) + diff(u,y) = 0;
        """
    )
    assert prog.target_count == 7
    assert len(prog.equations) == 1
    assert prog.solve_for == [prog.context.jet("u", ["x"])]


def test_program_with_unknown_function_declarations():
    prog = parse_program(
        """
        indep x, y;
        dep u, v;
        unknown w(x, y, u);
        eq w + diff(w, x) + diff(w, x, u) = 0;
        """
    )
    ctx = prog.context
    e = prog.equations[0]
    assert e == ctx.parse("w") + ctx.parse("diff(w,x)") + ctx.parse("diff(w,u,x)")
    # bare references and tagged partials survive a print/parse cycle
    assert ctx.parse(pretty(e)) == e
    with pytest.raises(ParseError, match="does not depend"):
        ctx.parse("diff(w, v)")


# -- property tests ---------------------------------------------------------


def _expr_strategy(ctx):
    names = ["x", "y", "u", "c"]
    # opaque applications stay off the collect basis (u_x, u_y) so every
    # property holds for them too
    leaves = st.one_of(
        st.integers(-4, 4).map(Expr.number),
        st.sampled_from(names).map(ctx.var),
        st.sampled_from(["x", "y"]).map(lambda n: Expr.from_atom(ctx.jet("u", [n]))),
        st.sampled_from(["sin(x)", "cos(c*y)", "sin(u)"]).map(ctx.parse),
        # reciprocals: negative powers of atoms, and an inv atom
        st.sampled_from(["1/x", "c^-2", "u/sin(x)", "1/(1 + y)"]).map(ctx.parse),
    )

    def combine(children):
        a = children[0]
        for i, b in enumerate(children[1:]):
            a = a + b if i % 2 else a * b
        return a

    return st.recursive(leaves, lambda s: st.lists(s, min_size=2, max_size=3).map(combine), max_leaves=12)


_pctx = Context(["x", "y"], ["u"], ["c"])


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx))
def test_roundtrip_through_pretty(e):
    assert _pctx.parse(pretty(e)) == e


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx), _expr_strategy(_pctx), st.integers(-3, 3))
def test_total_derivative_linearity(e1, e2, a):
    lhs = total_derivative(_pctx, Expr.number(a) * e1 + e2, "x")
    rhs = Expr.number(a) * total_derivative(_pctx, e1, "x") + total_derivative(_pctx, e2, "x")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx))
def test_total_derivatives_commute(e):
    dxy = total_derivative(_pctx, total_derivative(_pctx, e, "x"), "y")
    dyx = total_derivative(_pctx, total_derivative(_pctx, e, "y"), "x")
    assert dxy == dyx


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx))
def test_collect_reconstructs_input(e):
    basis = [_pctx.jet("u", ["x"]), _pctx.jet("u", ["y"])]
    total = Expr.number(0)
    for mono, coeff in collect(e, basis).items():
        total = total + mono * coeff
    assert total == e


@settings(max_examples=40, deadline=None)
@given(_expr_strategy(_pctx), _expr_strategy(_pctx))
def test_normal_form_idempotent_under_rebuild(e1, e2):
    # arithmetic always lands in normal form: rebuilding from terms is a no-op
    s = e1 * e2 + e1
    rebuilt = Expr.number(0)
    for mono, coeff in s.terms():
        rebuilt = rebuilt + Expr({mono: coeff})
    assert rebuilt == s


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx), _expr_strategy(_pctx))
def test_no_zero_coefficient_survives_arithmetic(e1, e2):
    # sums and products skip the zero filter unless two coefficients met
    u = next(_pctx.var("u").atoms())
    results = [e1 + e2, e1 - e2, e1 * e2, (e1 + e2) * (e1 - e2), -e1, e1 - e1]
    results += (e1 * e2 + e1).coefficients_in(u).values()
    for r in results:
        assert all(c != 0 for _m, c in r.terms())
    assert (e1 - e1).is_zero
    assert (e1 + e2) * (e1 - e2) == e1 * e1 - e2 * e2


_hatoms = [
    _pctx.var("x"),
    _pctx.var("u"),
    _pctx.var("c"),
    Expr.from_atom(_pctx.jet("u", ["y"])),
    _pctx.parse("sin(x)"),
]


@settings(max_examples=40, deadline=None)
@given(
    st.dictionaries(
        st.tuples(*[st.integers(0, 2)] * len(_hatoms)),
        st.fractions(min_value=-5, max_value=5, max_denominator=6).filter(bool),
        max_size=6,
    ),
    st.randoms(use_true_random=False),
)
def test_hash_and_term_order_do_not_depend_on_construction(poly, rnd):
    def monomial(exps):
        out = Expr.number(1)
        for atom, k in zip(_hatoms, exps):
            out = out * atom**k
        return out

    # one polynomial summed term by term, and again in another order with each
    # coefficient split into two unreduced halves such as Fraction(2, 4)
    forward = Expr.number(0)
    for exps, q in poly.items():
        forward = forward + monomial(exps) * Expr.number(q)
    items = list(poly.items())
    rnd.shuffle(items)
    split = Expr.number(0)
    for exps, q in items:
        half = Expr.number(Fraction(q.numerator * 2, q.denominator * 4))
        split = split + half * monomial(exps) + monomial(exps) * half
    # and straight from a term map in reversed insertion order
    direct = Expr({m: c for m, c in reversed(list(forward.terms()))})
    for other in (split, direct):
        assert other == forward
        assert hash(other) == hash(forward)
        assert list(other.terms()) == list(forward.terms())


# -- exact coefficients ---------------------------------------------------------


def _coefficients(e):
    return [c for _m, c in e.terms()]


def _is_exact(c):
    # an int when integral, a Fraction only when not; never a float or a bool
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def test_negative_powers_of_integers_stay_exact(ctx):
    # int ** -n is a float in Python; the kernel must not take that path
    assert _coefficients(Expr.number(3) ** -1) == [Fraction(1, 3)]
    assert _coefficients(ctx.parse("3^-2")) == [Fraction(1, 9)]
    assert _coefficients(ctx.parse("B1*2^-1")) == [Fraction(1, 2)]
    assert _coefficients(Expr.number(Fraction(1, 2)) ** -2) == [4]
    for e in (Expr.number(3) ** -1, ctx.parse("3^-2"), Expr.number(Fraction(1, 2)) ** -2):
        assert all(_is_exact(c) for c in _coefficients(e))


def test_division_by_an_integer_constant_stays_exact(ctx):
    b = ctx.var("B1")
    assert _coefficients(b / 3) == [Fraction(1, 3)]
    assert _coefficients(b / Expr.number(3)) == [Fraction(1, 3)]
    assert _coefficients(ctx.parse("B1/3")) == [Fraction(1, 3)]
    assert _coefficients(b / Expr.number(4)) == [Fraction(1, 4)]
    # and back to an int once the quotient is integral
    for e in (b / 3 * 3, Expr.number(6) / 3, ctx.parse("6*B1/3"), (b / 2 + b / 2)):
        assert all(type(c) is int for c in _coefficients(e))
    assert (Expr.number(6) / 3).constant_value() == 2


@pytest.mark.parametrize("value, expected", [(True, 1), (2.0, 2), (Fraction(4, 2), 2), (7, 7), (-3.0, -3)])
def test_integral_numbers_store_int_coefficients(value, expected):
    (c,) = _coefficients(Expr.number(value))
    assert type(c) is int and c == expected


# reference arithmetic on {exponent tuple over _hatoms: Fraction}, with no
# use of the kernel
def _ref_clean(p):
    return {e: c for e, c in p.items() if c}


def _ref_add(p, q):
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, Fraction(0)) + c
    return _ref_clean(out)


def _ref_mul(p, q):
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, Fraction(0)) + c1 * c2
    return _ref_clean(out)


def _ref_pdiff(p, i):
    return {e[:i] + (e[i] - 1,) + e[i + 1 :]: c * e[i] for e, c in p.items() if e[i]}


_hatom_index = {next(h.atoms()): i for i, h in enumerate(_hatoms)}


def _exponents(mono):
    exps = [0] * len(_hatoms)
    for atom, k in mono:
        exps[_hatom_index[atom]] += k
    return tuple(exps)


def _as_ref(e):
    """The kernel's result in reference form, after checking every coefficient."""
    out = {}
    for mono, c in e.terms():
        assert _is_exact(c), (c, type(c))
        out[_exponents(mono)] = c
    return out


_coefficient_values = st.one_of(
    st.integers(-6, 6),
    st.booleans(),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
    st.integers(-6, 6).map(float),
)
_polys = st.dictionaries(st.tuples(*[st.integers(0, 2)] * len(_hatoms)), _coefficient_values, max_size=5)


def _build(poly):
    out = Expr.number(0)
    for exps, q in poly.items():
        mono = Expr.number(q)
        for atom, k in zip(_hatoms, exps):
            mono = mono * atom**k
        out = out + mono
    return out


@settings(max_examples=60, deadline=None)
@given(_polys, _polys, st.integers(0, 3), _coefficient_values.filter(bool), st.integers(1, 3))
def test_arithmetic_keeps_coefficients_exact_and_equal_to_fraction_arithmetic(p, q, n, k, m):
    a, b = _build(p), _build(q)
    ra = _ref_clean({e: Fraction(c) for e, c in p.items()})
    rb = _ref_clean({e: Fraction(c) for e, c in q.items()})
    assert _as_ref(a) == ra and _as_ref(b) == rb
    assert _as_ref(a + b) == _ref_add(ra, rb)
    assert _as_ref(a - b) == _ref_add(ra, {e: -c for e, c in rb.items()})
    assert _as_ref(-a) == {e: -c for e, c in ra.items()}
    assert _as_ref(a * b) == _ref_mul(ra, rb)
    power = {(0,) * len(_hatoms): Fraction(1)}
    for _ in range(n):
        power = _ref_mul(power, ra)
    assert _as_ref(a**n) == power
    assert _as_ref(Expr.number(k) ** -m) == {(0,) * len(_hatoms): Fraction(k) ** -m}
    assert _as_ref(a / Expr.number(k)) == {e: c / Fraction(k) for e, c in ra.items()}
    # d/dc scales by the exponent, so (1/2)*c^2 gives an integral c
    c_sym = next(_hatoms[2].atoms())
    assert _as_ref(a.gradient([c_sym])[c_sym]) == _ref_pdiff(ra, 2)
    assert _as_ref((a * b).gradient([c_sym])[c_sym]) == _ref_pdiff(_ref_mul(ra, rb), 2)
    # collect on u and u_y: every coefficient exact, and the split recombines
    basis = [next(_hatoms[1].atoms()), next(_hatoms[3].atoms())]
    recombined = {}
    for mono, coeff in collect(a * b, basis).items():
        (key_mono, key_c), = mono.terms()
        assert type(key_c) is int and key_c == 1
        for e, c in _as_ref(coeff).items():
            whole = tuple(i + j for i, j in zip(e, _exponents(key_mono)))
            assert whole not in recombined
            recombined[whole] = c
    assert recombined == _ref_mul(ra, rb)


# -- numeric evaluation -------------------------------------------------------


def _evaluate_term_by_term(e, env):
    """The reference walk: every term evaluates each of its atoms afresh."""
    total = 0.0
    for mono, c in e._terms.items():
        term = float(c)
        for atom, k in mono:
            if isinstance(atom, Symbol):
                value = env[atom.name]
            else:
                fn = (lambda x: np.divide(1.0, x)) if atom.head == "inv" else getattr(np, atom.head)
                value = fn(*[_evaluate_term_by_term(arg, env) for arg in atom.args])
            term = term * (value**k if k > 0 else np.divide(1.0, value) ** -k)
        total = total + term
    return total


@pytest.mark.parametrize("text", ["(1 + psi*sin(psi))^3", "1 + psi*sin(psi)", "(1 + 0.3*psi*exp(-psi) + 0.1*cos(2*psi))^2"])
def test_evaluation_is_bit_identical_to_a_term_by_term_walk(text):
    f = compile_numeric(text, ["psi"])
    psi = np.linspace(-2.5, 3.5, 4097).reshape(17, 241)
    with np.errstate(all="ignore"):
        expected = _evaluate_term_by_term(f.expression, {"psi": psi})
    assert np.array_equal(f(psi), expected)
    assert np.array_equal(f(0.75), _evaluate_term_by_term(f.expression, {"psi": 0.75}))


def test_a_number_is_evaluated_as_python_evaluates_it():
    # a number is read as a numpy float, whose powers are Python's; a 0-d
    # array's differ from them in the last bit for about one value in fifty
    f = compile_numeric("psi^3 - psi^4/3 + psi^-2", ["psi"])
    for x in np.random.default_rng(7).uniform(-3.0, 3.0, 500).tolist():
        assert f(x) == _evaluate_term_by_term(f.expression, {"psi": x}), x


# the shapes an input may take: a Python float, broadcasting rows and
# columns, and full arrays
_INPUT_SHAPES = [(), (5,), (4, 1), (1, 5), (4, 5)]


@settings(max_examples=120, deadline=None)
@given(
    _expr_strategy(_pctx),
    st.lists(st.sampled_from(_INPUT_SHAPES), min_size=6, max_size=6),
    st.integers(0, 2**32 - 1),
)
def test_in_place_evaluation_is_bit_identical_to_a_plain_sum(e, shapes, seed):
    rng = np.random.default_rng(seed)
    env = {}
    for name, shape in zip(("x", "y", "u", "c", "u_x", "u_y"), shapes):
        values = rng.uniform(-3.0, 3.0, shape)
        # signed zeros: a sum that did not start at 0.0 could keep a -0.0
        values = np.where(rng.random(shape) < 0.2, -0.0, values)
        env[name] = float(values) if shape == () else values
    inputs = {name: np.copy(v) for name, v in env.items()}
    with np.errstate(all="ignore"):
        want = _evaluate_term_by_term(e, env)
    got = e.evaluate(env)
    assert np.shape(got) == np.shape(want)
    assert np.asarray(got, dtype=float).tobytes() == np.asarray(want, dtype=float).tobytes()
    # products and sums went in place only into arrays the evaluation made
    for name, value in env.items():
        assert np.asarray(value).tobytes() == inputs[name].tobytes()


def test_each_atom_is_evaluated_once_per_call(monkeypatch):
    from plasmeq import expr

    calls = {}
    rules, numpy = expr._numeric()

    def counted(name, fn):
        def call(*args):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args)

        return call

    monkeypatch.setattr(expr, "_numeric", lambda: ({n: counted(n, fn) for n, fn in rules.items()}, numpy))

    class Env(dict):
        def __getitem__(self, name):
            calls[name] = calls.get(name, 0) + 1
            return super().__getitem__(name)

    e = compile_numeric("(1 + psi*sin(psi))^3 + cos(psi)*sin(psi)", ["psi"]).expression
    psi = np.array([0.25, 0.5, 2.0])
    value = e.evaluate(Env(psi=psi))
    assert calls == {"psi": 1, "sin": 1, "cos": 1}
    assert np.array_equal(value, _evaluate_term_by_term(e, {"psi": psi}))
    # a second call evaluates afresh
    e.evaluate(Env(psi=psi))
    assert calls == {"psi": 2, "sin": 2, "cos": 2}


# -- interned atoms ---------------------------------------------------------------


def test_equal_atoms_are_one_object():
    a, b = Context(["x", "y"], ["u"]), Context(["x", "y"], ["u"])
    assert a.jet("u", ["y", "x"]) is b.jet("u", ["x", "y"])
    assert a.symbol("x") is b.symbol("x")
    wider = a.extended(parameters=["k"], unknowns={"f": ("x", "u")})
    again = b.extended(parameters=["k"], unknowns={"f": ("x", "u")})
    assert wider.symbol("k") is again.symbol("k")
    assert wider.unknown_atom("f") is again.unknown_atom("f")
    x = a.var("x")
    assert FnAtom("sin", (x,)) is FnAtom("sin", [x], (0,))
    assert FnAtom("sin", (x,)) is next(b.parse("sin(x)").atoms())
    assert FnAtom("sin", (x,)).bump(0) is FnAtom("sin", (x,), [1])
    # fields that differ give another atom
    assert Symbol("x", "independent") is not Symbol("x", "parameter")
    assert FnAtom("sin", (x,)) is not FnAtom("cos", (x,))


def test_copies_and_pickles_return_the_interned_atom():
    ctx = Context(["x", "y"], ["u"], ["c"])
    e = ctx.parse("sin(c*x)*diff(u,x,y) + u")
    for atom in e.atoms():
        assert copy.copy(atom) is atom
        assert copy.deepcopy(atom) is atom
        assert pickle.loads(pickle.dumps(atom)) is atom
    assert copy.deepcopy(e) == e
    assert pickle.loads(pickle.dumps(e)) == e


def test_an_expression_pickled_in_another_process_keeps_its_hash():
    text = "sin(c*x)*diff(u,x,y) + u"
    child = (
        "import pickle, sys\n"
        "from plasmeq.expr import Context\n"
        f"e = Context(['x', 'y'], ['u'], ['c']).parse({text!r})\n"
        "hash(e)\n"
        "sys.stdout.buffer.write(pickle.dumps(e))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run([sys.executable, "-c", child], capture_output=True, check=True,
                          env={**os.environ, "PYTHONPATH": src})
    loaded = pickle.loads(done.stdout)
    here = Context(["x", "y"], ["u"], ["c"]).parse(text)
    assert loaded == here and hash(loaded) == hash(here)
    assert loaded in {here}


def test_an_atom_no_one_holds_leaves_the_table():
    from plasmeq import expr

    key = ("only_here", "parameter", "", ())
    atom = FnAtom("gone", (Expr.from_atom(Symbol(*key)),))
    printed = FnAtom("sin", atom.args)
    refs = [weakref.ref(atom), weakref.ref(printed)]
    assert key in expr._ATOMS and atom in expr._ATOMS.values()
    # a printed atom keeps its text on itself, and leaves the table all the same
    assert pretty(Expr.from_atom(printed) * Expr.from_atom(atom)) == "gone*sin(only_here)"
    assert (atom._text, printed._text) == ("gone", "sin(only_here)")
    del atom, printed
    gc.collect()
    assert [ref() for ref in refs] == [None, None]
    assert key not in expr._ATOMS


def test_an_invalid_atom_is_not_registered():
    from plasmeq import expr

    one = Expr.number(1)
    invalid = {
        ("w", "nonsense", "", ()): (lambda: Symbol("w", "nonsense"), "unknown symbol kind"),
        ("u_x", "jet", "u", ()): (lambda: Symbol("u_x", "jet", base="u"), "jet symbol requires base and wrt"),
        ("sin", (one,), (0, 1)): (lambda: FnAtom("sin", (one,), (0, 1)), "derivative tag length"),
    }
    # each failure is held, so that a half-built atom that its traceback
    # holds would still be alive, and in the table, had it been registered
    held = []
    for build, message in invalid.values():
        with pytest.raises(ValueError, match=message) as failure:
            build()
        held.append(failure.value)
    for key in invalid:
        assert key not in expr._ATOMS
    # and the table still refuses them the second time
    with pytest.raises(ValueError, match="unknown symbol kind"):
        Symbol("w", "nonsense")


def test_atoms_are_immutable():
    x = Symbol("x", "independent")
    with pytest.raises(AttributeError):
        x.name = "y"
    assert x.name == "x"


def test_atoms_compare_and_hash_by_identity():
    # no Python-level __eq__/__hash__: both are object's, run in C
    for cls in (Symbol, FnAtom):
        assert cls.__eq__ is object.__eq__
        assert cls.__hash__ is object.__hash__


def _structure(e):
    """The terms of ``e`` with every atom spelled out field by field."""

    def atom(a):
        if isinstance(a, Symbol):
            return ("symbol", a.name, a.kind, a.base, a.wrt)
        return ("fn", a.head, tuple(_structure(arg) for arg in a.args), a.dtag)

    return tuple((tuple((atom(a), k) for a, k in m), c) for m, c in e.terms())


_pctx_again = Context(["x", "y"], ["u"], ["c"])


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx), _expr_strategy(_pctx))
def test_equality_and_hash_agree_with_structure(e1, e2):
    # the same text read in a second context builds its atoms afresh
    again = _pctx_again.parse(pretty(e1))
    assert _structure(again) == _structure(e1)
    assert again == e1 and hash(again) == hash(e1)
    assert (e1 == e2) == (_structure(e1) == _structure(e2))
    if e1 == e2:
        assert hash(e1) == hash(e2)


# -- exact derivatives of the numeric functions ------------------------------------

# f(u) -> f'(u), as the kernel writes each
DERIVATIVE_TABLE = {
    "sin(u)": "cos(u)",
    "cos(u)": "-sin(u)",
    "tan(u)": "1 + tan(u)^2",
    "exp(u)": "exp(u)",
    "log(u)": "1/u",
    "sqrt(u)": "1/(2*sqrt(u))",
    "inv(u)": "-inv(u)^2",
    "sinh(u)": "cosh(u)",
    "cosh(u)": "sinh(u)",
    "tanh(u)": "1 - tanh(u)^2",
}


def test_the_derivative_table_covers_the_numeric_functions():
    assert {f.split("(")[0] for f in DERIVATIVE_TABLE} == NUMERIC_FUNCTIONS


@pytest.mark.parametrize("f, df", list(DERIVATIVE_TABLE.items()))
def test_each_numeric_function_has_its_exact_derivative(f, df):
    ctx = Context(independents=["u", "v"])
    u = ctx.symbol("u")
    assert ctx.parse(f).gradient([u])[u] == ctx.parse(df)
    # the chain rule through the argument: d f(1 + u^2 v) = 2 u v f'(1 + u^2 v),
    # on an argument of two terms, which a reciprocal keeps whole
    chained = ctx.parse(f.replace("u", "(1 + u^2*v)")).gradient([u])[u]
    assert chained == ctx.parse(f"2*u*v*({df.replace('u', '(1 + u^2*v)')})")
    # the total derivative, as lie takes it, uses the same table: D_x f(u) = f'(u) u_x
    jet = Context(["x"], ["u"])
    assert total_derivative(jet, jet.parse(f), "x") == jet.parse(f"({df})*diff(u,x)")


def _inv_form(e):
    """``e`` with each negative power a^-k written inv(a)^k: the normal form
    a reciprocal of one atom had before monomials took negative exponents."""
    out = Expr.number(0)
    for mono, c in e.terms():
        term = Expr.number(c)
        for atom, k in mono:
            inv = FnAtom("inv", (Expr.from_atom(atom),))
            term = term * (Expr.from_atom(inv, -k) if k < 0 else Expr.from_atom(atom, k))
        out = out + term
    return out


# atoms whose derivative holds no positive power of the atom: exp(x) and
# tanh(x) are left out, since their a^-k now cancels against a' = exp(x)
# and 1 - tanh(x)^2 where inv(a) did not
@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["x", "sin(x)", "cos(x)", "sqrt(1 + x)", "log(x)", "sinh(x)", "cosh(x)"]),
    st.integers(1, 6),
    st.floats(1.1, 3.0),  # where none of the atoms is 0
)
def test_the_power_rule_on_a_reciprocal_evaluates_as_the_inv_rule(atom, k, at):
    ctx = Context(independents=["x"])
    x = ctx.symbol("x")
    got = ctx.parse(f"({atom})^-{k}").gradient([x])[x]
    # the inv rule: d inv(a)^k = -k inv(a)^(k + 1) a', inv(a) evaluated as 1/a
    a = ctx.parse(atom)
    want = Expr.number(-k) * Expr.from_atom(FnAtom("inv", (a,)), k + 1) * _inv_form(a.gradient([x])[x])
    assert _inv_form(got) == want
    # the same factors, in another order at most: one rounding apart
    got, want = got.evaluate({"x": at}), want.evaluate({"x": at})
    assert abs(got - want) <= np.spacing(abs(want))


_SAFE_INNER = ["", "sin", "tanh"]  # values in (0.3, 1) on the arguments below


@st.composite
def _profiles(draw):
    """The text of a sum of products of numeric functions of affine
    arguments in psi, defined and smooth for psi in [0.1, 0.5]."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        factors = [f"psi^{draw(st.integers(0, 2))}"]
        for _ in range(draw(st.integers(1, 2))):
            outer, inner = draw(st.sampled_from(sorted(NUMERIC_FUNCTIONS))), draw(st.sampled_from(_SAFE_INNER))
            c, d = draw(st.sampled_from(["0.6", "0.8", "1"])), draw(st.sampled_from(["-0.5", "0.25", "0.5"]))
            factors.append(f"{outer}({inner}({c} + {d}*psi))^{draw(st.integers(1, 2))}")
        terms.append("*".join(factors))
    return " + ".join(terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_profiles())
def test_compiled_derivatives_match_central_differences(text):
    f = compile_numeric(text, ["psi"])
    df = f.derivative("psi")
    psi, h = np.linspace(0.1, 0.5, 9), 1e-5
    central = (f(psi + h) - f(psi - h)) / (2.0 * h)
    assert np.max(np.abs(df(psi) - central)) <= 1e-8 * max(1.0, np.max(np.abs(central))), (text, df.text)


_antiderivative_ctx = Context(independents=["psi", "x"])
_antiderivative_atoms = [_antiderivative_ctx.var("psi"), _antiderivative_ctx.var("x"), _antiderivative_ctx.parse("sin(x)")]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
            st.tuples(st.integers(0, 6), st.integers(0, 2), st.integers(0, 1)),
        ),
        max_size=6,
    )
)
def test_the_antiderivative_of_a_polynomial_differentiates_back_to_it(terms):
    # polynomials in psi whose coefficients hold x and sin(x)
    psi = _antiderivative_ctx.symbol("psi")
    p = Expr.number(0)
    for c, exponents in terms:
        mono = Expr.number(c)
        for atom, k in zip(_antiderivative_atoms, exponents):
            mono = mono * atom**k
        p = p + mono
    integral = p.antiderivative(psi)
    assert integral.gradient([psi])[psi] == p
    assert integral.substitute_atoms(lambda a: Expr.number(0) if a is psi else None).is_zero


def test_the_antiderivative_refuses_a_function_of_the_variable():
    ctx = Context(independents=["psi"])
    with pytest.raises(CollectError, match="^not a polynomial in psi"):
        ctx.parse("1 + cos(3*psi)").antiderivative(ctx.symbol("psi"))
    with pytest.raises(CollectError):
        compile_numeric("psi*inv(1 + psi)", ["psi"]).antiderivative("psi")
    assert compile_numeric("2*psi*sin(2)", ["psi"]).antiderivative("psi").text == "psi^2*sin(2)"


# -- gradient -------------------------------------------------------------------

_gctx = Context(["x", "y"], ["u"], ["c"])
# an unknown function's atom whose argument mentions wanted symbols, and two
# of its derivatives
_gg = FnAtom("g", (_gctx.parse("x + c*u"),))
_gatoms = [
    Expr.from_atom(a)
    for a in (_gctx.symbol("x"), _gctx.symbol("u"), _gctx.jet("u", "x"), _gg, _gg.bump(0), _gg.bump(0).bump(0))
]
_gwanted = (*_gctx.independents, *_gctx.dependents, _gctx.jet("u", "x"), _gctx.jet("u", "y"), *_gctx.parameters)


def _term_lists(n_atoms):
    """Lists of (coefficient, exponent of each atom) terms."""
    return st.lists(
        st.tuples(
            st.one_of(st.sampled_from([-2, -1, 1, 2]), st.fractions(min_value=-3, max_value=3, max_denominator=3)),
            st.tuples(*[st.integers(0, 2)] * n_atoms),
        ),
        max_size=8,
    )


_gterms = _term_lists(len(_gatoms))
# d/dx of the second term gives -2*g'(.)*g''(.)^2, that of the fourth
# cancels it, and that of the sixth brings it back
_CANCELLING = [
    (2, (1, 0, 0, 1, 0, 0)),
    (-2, (1, 0, 0, 0, 1, 2)),
    (2, (1, 0, 0, 1, 2, 2)),
    (2, (0, 0, 0, 1, 0, 2)),
    (-2, (0, 0, 0, 0, 2, 0)),
    (1, (0, 0, 0, 0, 2, 1)),
]


def _gbuild(terms, atoms=_gatoms):
    e = Expr.number(0)
    for q, exps in terms:
        mono = Expr.number(q)
        for atom, k in zip(atoms, exps):
            mono = mono * atom**k
        e = e + mono
    return e


def _ref_derive(e, atom_rule):
    """A derivative as a running sum, the reference for the kernel's walk:
    each factor's term is added to the sum built so far."""
    from plasmeq.expr import _coefficient

    out = Expr.number(0)
    for m, c in e._terms.items():
        for i, (a, k) in enumerate(m):
            da = atom_rule(a)
            if da.is_zero:
                continue
            # lowering one exponent keeps the factors in order
            rest = m[:i] + ((a, k - 1),) + m[i + 1 :] if k > 1 else m[:i] + m[i + 1 :]
            out = out + Expr._trusted({rest: _coefficient(c * k)}) * da
    return out


def _ref_chain_rule(atom, dargs):
    """Each slot's outer derivative, a numeric function's table entry or an
    unknown function's tagged atom, times that argument's derivative."""
    table = _DERIVATIVES.get(atom.head)
    out = Expr.number(0)
    for slot, darg in enumerate(dargs):
        if not darg.is_zero:
            outer = table(atom.args[slot]) if table else Expr.from_atom(atom.bump(slot))
            out = out + outer * darg
    return out


def _walk_pdiff(e, sym):
    """The partial derivative as a total-derivative walk builds it: one
    symbol at a time, each factor's term added to a running sum."""

    def rule(atom):
        if isinstance(atom, Symbol):
            return Expr.number(1 if atom is sym else 0)
        return _ref_chain_rule(atom, [_walk_pdiff(arg, sym) for arg in atom.args])

    return _ref_derive(e, rule)


def _walk_total(ctx, e, x):
    """D_x as a running sum, one independent at a time."""

    def rule(atom):
        if isinstance(atom, Symbol):
            if atom.kind == "independent":
                return Expr.number(1 if atom is x else 0)
            if atom.kind in ("dependent", "jet"):
                return Expr.from_atom(ctx.jet(atom, (x,)))
            return Expr.number(0)
        return _ref_chain_rule(atom, [_walk_total(ctx, arg, x) for arg in atom.args])

    return _ref_derive(e, rule)


@settings(max_examples=80, deadline=None)
@given(_gterms)
@example(_CANCELLING)
def test_gradient_is_each_pdiff_in_value_and_term_order(terms):
    e = _gbuild(terms)
    grad = e.gradient(_gwanted)
    assert list(grad) == list(_gwanted)
    for s in _gwanted:
        walked = list(_walk_pdiff(e, s)._terms.items())
        assert list(grad[s]._terms.items()) == walked
        assert list(e.gradient([s])[s]._terms.items()) == walked


def test_a_monomial_that_cancels_mid_walk_comes_back_at_the_end():
    e = _gbuild(_CANCELLING)
    x = _gctx.symbol("x")
    back = (_gg.bump(0), 1), (_gg.bump(0).bump(0), 2)
    # summed with cancelled monomials kept in place, it would come third of
    # twelve; the walk drops it and appends it again
    order = list(e.gradient([x])[x]._terms)
    assert len(order) == 12 and order.index(back) == 10 and e.gradient([x])[x]._terms[back] == 2
    assert e.gradient([x])[x] == e.gradient(_gwanted)[x] == _walk_pdiff(e, x)


# -- total derivative ---------------------------------------------------------------

_tctx = Context(["x", "y"], ["u", "v"], ["c"], {"f": ("x", "u")})
# the first six slots follow _gatoms, with g(x + c*u) and two of its
# derivatives; then a second independent, a parameter, an unknown function
# and one of its derivatives, and a nested sin
_tg = FnAtom("g", (_tctx.parse("x + c*u"),))
_tatoms = [
    Expr.from_atom(a)
    for a in (
        _tctx.symbol("x"),
        _tctx.symbol("u"),
        _tctx.jet("v", "x"),
        _tg,
        _tg.bump(0),
        _tg.bump(0).bump(0),
        _tctx.symbol("y"),
        _tctx.symbol("c"),
        _tctx.unknown_atom("f"),
        _tctx.unknown_pdiff("f", [_tctx.symbol("u")]),
        FnAtom("sin", (_tctx.parse("y*sin(u*v) + c"),)),
    )
]
_tterms = _term_lists(len(_tatoms))
# D_x multiplies the derivative of each g atom by 1 + c*u_x, so the terms
# of _CANCELLING cancel and bring back a monomial of D_x as they do one of d/dx
_TOTAL_CANCELLING = [(q, exps + (0,) * 5) for q, exps in _CANCELLING]


@settings(max_examples=80, deadline=None)
@given(_tterms)
@example(_TOTAL_CANCELLING)
def test_total_derivative_is_the_running_sum_in_value_and_term_order(terms):
    e = _gbuild(terms, _tatoms)
    for x in _tctx.independents:
        walked = list(_walk_total(_tctx, e, x)._terms.items())
        assert list(total_derivative(_tctx, e, x)._terms.items()) == walked


@settings(max_examples=40, deadline=None)
@given(_tterms)
@example(_TOTAL_CANCELLING)
def test_total_derivatives_are_each_total_derivative_in_term_order(terms):
    e = _gbuild(terms, _tatoms)
    both = _tctx.total_derivatives(e, ["y", _tctx.symbol("x")])
    assert list(both) == [_tctx.symbol("y"), _tctx.symbol("x")]
    for x, d in both.items():
        assert list(d._terms.items()) == list(total_derivative(_tctx, e, x)._terms.items())


def test_total_derivatives_refuse_a_dependent():
    with pytest.raises(ValueError, match="along an independent variable, got 'u'"):
        _tctx.total_derivatives(_tctx.var("x"), ["x", "u"])


# -- error positions ----------------------------------------------------------------

# kind -> {case: (text, (line, column) of the ParseError)}: tabs count one
# column, a comment runs to its line's end, and a statement may span lines
PARSE_ERROR_POSITIONS = {
    "pde": {
        "tab and blank line before a bad character": ("indep x;\n\tdep u;\n\neq diff(u,x) = $;\n", (4, 16)),
        "comment at a line end, then a statement over two lines": (
            "indep x; # the coordinate\ndep u;\neq diff(u,x)\n   + diff(u,y) = 0;\n",
            (4, 13),
        ),
        "operator at the end of a statement over two lines": ("indep x;\ndep u;\n\n\teq diff(u,x) = u\n\t\t+ ;\n", (5, 3)),
        "missing semicolon before a closing comment": ("indep x;\ndep u;\neq diff(u,x) = 0\n# no semicolon\n", (3, 16)),
        "tabs between the names": ("indep\tx,\ty;\ndep u;\neq diff(u,x)^x = 0;\n", (3, 14)),
        "carriage returns": ("indep x;\r\ndep u;\r\neq u = 1/0;\r\n", (3, 9)),
        "unrecognized statement": ("indep x;\ndep u;\n  foo u;\n", (3, 3)),
        "differentiation by a dependent": ("indep x;\ndep u;\neq diff(u, x) = diff(u,\n\tu);\n", (3, 22)),
        "bad character after blank lines": ("indep x;\n\n\n   \t@", (4, 5)),
        "malformed unknown after a tab": ("indep x;\ndep u;\n\tunknown f x;\n", (3, 2)),
        "number literal too long to write out": ("indep x;\ndep u;\neq diff(u,x) =\n\t2*1e3000000*u;\n", (4, 4)),
        "square of a literal of three thousand digits": ("indep x;\ndep u;\neq diff(u,x) = (1e3000)^2*u;\n", (3, 24)),
        "product of two literals of three thousand digits": ("indep x;\ndep u;\neq u = 2*\n  1e3000 * 1e3000;\n", (4, 10)),
        "unknown declared twice": ("indep x, y;\ndep u;\nunknown f(x);\n  unknown f(y);\n", (4, 3)),
        "unknown with a repeated argument": ("indep x, y;\ndep u;\nunknown f(x, y, x);\n", (3, 1)),
        "Arabic-Indic digit": ("indep x;\ndep u;\neq diff(u,x) = \u0661;\n", (3, 16)),
        "target_count in Arabic-Indic digits": ("indep x;\ndep u;\ntarget_count: \u0667;\n", (3, 15)),
    },
    "gen": {
        "bad character on a continued line": ("xi(x) = x\n  + @;\n", (2, 5)),
        "undeclared name after a comment and a tab": ("param a;\n# a comment\neta(u) = a*\n\tb;\n", (4, 2)),
        "component assigned twice": ("xi(x) = 1;\n\txi(x) = 2;\n", (2, 2)),
        "statement without parentheses": ("  xi x = 1;\n", (1, 3)),
        "empty component over two lines": ("xi(x) =\n\n  ;\n", (1, 7)),
        "number literal of 5000 digits": ("xi(x) = 1;\neta(u) = x - " + "9" * 5000 + ";\n", (2, 14)),
        "Arabic-Indic digit": ("xi(x) = \u0661;\n", (1, 9)),
    },
    "M": {
        "unclosed call after a tab": ("1 + psi*\tsin(psi", (1, 17)),
        "exponent that is a name": ("psi^-x", (1, 6)),
        "bad character on a second line": ("1 +\n psi $", (2, 6)),
        "Arabic-Indic exponent": ("psi^\u0662 + 10", (1, 5)),
        "Arabic-Indic number": ("psi^2 + \u0661\u0660", (1, 9)),
        "fullwidth digit": ("psi + \uff11", (1, 7)),
        "undeclared name after a comment": ("psi # comment\n + q", (2, 4)),
        "division by zero": ("psi / (1 - 1)", (1, 5)),
        "number literal too long to write out": ("psi*1e10000000", (1, 5)),
        "number literal with a small exponent over many digits": ("1 + 0." + "0" * 4300 + "1e4", (1, 5)),
        "power of ten million": ("1 + 3^10000000", (1, 6)),
        "negative power of a literal of three thousand digits": ("psi*1e3000^-2", (1, 11)),
        "power of a sum": ("(1 + psi)^20000", (1, 10)),
    },
}


@pytest.mark.parametrize(
    "kind, case", [(kind, case) for kind, cases in PARSE_ERROR_POSITIONS.items() for case in cases]
)
def test_parse_error_positions(kind, case):
    from plasmeq.lie import parse_generator

    text, where = PARSE_ERROR_POSITIONS[kind][case]
    parse = {
        "pde": parse_program,
        "gen": lambda t: parse_generator(parse_program("indep x, y;\ndep u;\neq diff(u,x) = 0;\n").context, t),
        "M": Context(independents=["psi"]).parse,
    }[kind]
    with pytest.raises(ParseError) as err:
        parse(text)
    assert (err.value.line, err.value.col) == where
    assert str(err.value).endswith(f"(line {where[0]}, column {where[1]})")
