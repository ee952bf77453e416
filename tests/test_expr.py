import numpy as np
import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from plasmeq.expr import (
    CollectError,
    Context,
    EvalError,
    Expr,
    ParseError,
    collect,
    compile_numeric,
    parse_program,
    pretty,
    quotient,
)


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
    assert uctx.total_derivative(u, "x") == Expr.from_atom(uctx.jet("u", ["x"]))


def test_total_derivative_product_rule(uctx):
    e = uctx.parse("x*u")
    expected = uctx.var("u") + uctx.var("x") * Expr.from_atom(uctx.jet("u", ["x"]))
    assert uctx.total_derivative(e, "x") == expected


def test_total_derivative_promotes_jets(uctx):
    ux = Expr.from_atom(uctx.jet("u", ["x"]))
    assert uctx.total_derivative(ux, "y") == Expr.from_atom(uctx.jet("u", ["x", "y"]))


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
    e = quotient(Expr.number(1), uctx.parse("1 + diff(u,x)"))
    with pytest.raises(CollectError):
        collect(e, [uctx.jet("u", ["x"])])


def test_quotient_constant_vs_opaque(uctx):
    assert quotient(uctx.var("u"), Expr.number(4)) == uctx.parse("u/4")
    e = quotient(Expr.number(1), uctx.parse("1+u"))
    assert e.evaluate({"u": 1.0}) == pytest.approx(0.5)


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
    lhs = _pctx.total_derivative(Expr.number(a) * e1 + e2, "x")
    rhs = Expr.number(a) * _pctx.total_derivative(e1, "x") + _pctx.total_derivative(e2, "x")
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(_expr_strategy(_pctx))
def test_total_derivatives_commute(e):
    dxy = _pctx.total_derivative(_pctx.total_derivative(e, "x"), "y")
    dyx = _pctx.total_derivative(_pctx.total_derivative(e, "y"), "x")
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
