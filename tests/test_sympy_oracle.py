"""The expression kernel against sympy, a computer-algebra system that
shares no code with it.

Hypothesis draws pairs of expressions (``_expr_strategy``); ``pretty``
prints each, and sympy reads the text back with ``u`` a function of
``x`` and ``y``.  The kernel's product, difference and total x- and
y-derivatives (``tests/reference.py``) must then equal sympy's own under
``sympy.simplify``.  A disagreement is a finding about one side or the
other, never a reason to weaken the relation.
"""

import sympy
from hypothesis import example, given, settings
from sympy.parsing.sympy_parser import auto_number, convert_xor, parse_expr

from plasmeq.expr import pretty
from reference import total_derivative
from test_expr import _expr_strategy, _pctx

X, Y, C = sympy.symbols("x y c")

# every name the kernel prints for _pctx; any other name is a NameError
# (there is no auto_symbol transformation), not a fresh sympy symbol
NAMES = {"x": X, "y": Y, "c": C, "u": sympy.Function("u")(X, Y), "diff": sympy.diff, "inv": lambda a: 1 / a}


def _sympy(e):
    """sympy's reading of the kernel's printed form of ``e``."""
    return parse_expr(pretty(e), local_dict=NAMES, transformations=(auto_number, convert_xor))


def _agree(kernel, oracle):
    """Whether the kernel's result minus sympy's is zero: at once after
    expansion (the cheap case), else under ``sympy.simplify``."""
    difference = _sympy(kernel) - oracle
    return sympy.expand(difference) == 0 or sympy.simplify(difference) == 0


@settings(max_examples=50, deadline=None, derandomize=True, database=None)
@given(_expr_strategy(_pctx), _expr_strategy(_pctx))
# reciprocals that the kernel cancels: x/x, x^2/x and 1/(1 + 1/x)
@example(_pctx.parse("x"), _pctx.parse("1/x"))
@example(_pctx.parse("x^2"), _pctx.parse("1/x"))
@example(_pctx.parse("1/(1 + 1/x)"), _pctx.parse("1 + 1/x"))
def test_kernel_agrees_with_sympy(e1, e2):
    s1, s2 = _sympy(e1), _sympy(e2)
    assert _agree(e1 * e2, s1 * s2)
    assert _agree(e1 - e2, s1 - s2)
    # D_y too: the strategy's one cosine, cos(c*y), has no x-dependence
    for e, s in ((e1, s1), (e2, s2)):
        for name, var in (("x", X), ("y", Y)):
            assert _agree(total_derivative(_pctx, e, name), sympy.diff(s, var))
