"""Exact polynomial expressions over jet-space variables.

The expression kernel keeps every value in a fully expanded normal form: a
sum of monomials, each monomial a rational coefficient times a sorted
product of powers of atoms.  An atom is either a named ``Symbol`` (an
independent variable, a dependent variable, a derivative coordinate, or a
free parameter) or an opaque ``FnAtom`` application such as ``sin(psi)`` or
an undetermined tangent-field component ``xi_x(x, y, z, B1, ...)``.
Opaque applications are never rewritten; their partial derivatives are
fresh atoms carrying a derivative multi-index, or for the numeric
functions, with ``exact``, the entries of one table.  Partial and total
derivatives come from one walk of the terms, ``Expr.derivatives``, which
takes a rule for the derivative of each atom.  Structural equality of
normal forms therefore decides equality of polynomials in jet coordinates
with atomic unknowns, the class the symmetry analysis works in.

A monomial is a Laurent monomial: an exponent may be any nonzero integer,
so 1/a is ``a^-1`` and an atom cancels against its reciprocal (``x/x`` is
1, ``x^2/x`` is ``x``).  A reciprocal has one normal form however it is
written (``a/b``, ``b^-n``, ``inv(b)``): 1/(c m P) = (1/c) m^-1 inv(P),
with c the signed rational content, m the monomial of each atom's least
power over the terms, and P primitive, of several terms, with a positive
first coefficient; so ``0.5/sqrt(psi)`` is ``1/2*sqrt(psi)^-1`` and
``1/(1 + 1/x)`` is ``x*inv(1 + x)``.  Left undecided: ``P*inv(P)`` for a
P of several terms does not cancel, a polynomial factor of such a
denominator stays in it (``(x + 1)^-2`` is not ``(1/(x + 1))^2``), and
``sqrt(u)^2`` is not ``u``.

Text input and output use a small declaration grammar::

    indep x, y, z;
    dep B1, B2, B3, P;
    param c;
    eq diff(B1,x) + diff(B2,y) + diff(B3,z) = 0;

``diff(B1, x, y)`` denotes the derivative coordinate of ``B1`` with respect
to ``x`` and ``y`` (order of the differentiation variables is irrelevant).
The pretty-printer emits the same grammar, so parsing its output returns a
structurally equal expression.
"""

from __future__ import annotations

import functools
import math
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple

__all__ = [
    "ExprError",
    "ParseError",
    "CollectError",
    "EvalError",
    "Symbol",
    "FnAtom",
    "Expr",
    "Context",
    "ProgramFile",
    "collect",
    "parse_program",
    "compile_numeric",
    "NUMERIC_FUNCTIONS",
]


class ExprError(ValueError):
    """Base class for expression-kernel failures."""


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.col = col


class CollectError(ExprError):
    """Raised when an expression is not polynomial in the requested basis."""


class EvalError(ExprError):
    """Raised when numeric evaluation hits an unbound name or opaque atom."""


_KIND_RANK = {"independent": 0, "dependent": 1, "jet": 2, "parameter": 3}


# The live atoms, one object per distinct atom, keyed by the fields that tell
# atoms apart: ``(name, kind, base, wrt)`` for a Symbol and ``(head, args,
# dtag)`` for an FnAtom (keys of four and of three fields, which never meet).
# Equal atoms are therefore one object, and atoms compare and hash by
# identity, in C.  The values are weak: an atom that no expression holds any
# more leaves the table.
_ATOMS: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


class _Atom:
    """Immutable, interned: construct through the subclass, never mutate.

    ``_text`` holds the atom's printed form once ``pretty`` has printed it,
    and dies with the atom."""

    __slots__ = ("sort_key", "_text", "__weakref__")

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _register(self, key: tuple, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_text", None)
        _ATOMS[key] = self
        return self


class Symbol(_Atom):
    """A named coordinate of the jet space.

    ``kind`` is one of ``independent``, ``dependent``, ``jet`` or
    ``parameter``.  Jet symbols carry the parent dependent name in ``base``
    and the canonical (sorted) tuple of differentiation variables in
    ``wrt``.
    """

    __slots__ = ("name", "kind", "base", "wrt")

    def __new__(cls, name: str, kind: str, base: str = "", wrt: Iterable[str] = ()):
        wrt = tuple(wrt)
        key = (name, kind, base, wrt)
        atom = _ATOMS.get(key)
        if atom is not None:
            return atom
        if kind not in _KIND_RANK:
            raise ValueError(f"unknown symbol kind {kind!r}")
        if kind == "jet" and (not base or not wrt):
            raise ValueError("jet symbol requires base and wrt")
        sort_key = (0, _KIND_RANK[kind], base or name, wrt, name)
        return object.__new__(cls)._register(key, name=name, kind=kind, base=base, wrt=wrt, sort_key=sort_key)

    def __reduce__(self):
        # copies and unpickled atoms come back through the table
        return Symbol, (self.name, self.kind, self.base, self.wrt)

    @property
    def is_jet(self) -> bool:
        return self.kind == "jet"

    @property
    def order(self) -> int:
        return len(self.wrt)

    def __repr__(self):
        return self.name


class FnAtom(_Atom):
    """An opaque function application, optionally derivative-tagged.

    ``dtag[k]`` counts differentiations with respect to the k-th argument
    slot; an empty ``dtag`` means no differentiation.  A tagged atom is
    never evaluated symbolically; it only compares and prints.
    """

    __slots__ = ("head", "args", "dtag")

    def __new__(cls, head: str, args: Iterable["Expr"], dtag: Iterable[int] = ()):
        args = tuple(args)
        dtag = tuple(dtag) or (0,) * len(args)
        key = (head, args, dtag)
        atom = _ATOMS.get(key)
        if atom is not None:
            return atom
        if len(dtag) != len(args):
            raise ValueError("derivative tag length must match argument count")
        sort_key = (1, head, dtag, tuple(a.sort_key for a in args))
        return object.__new__(cls)._register(key, head=head, args=args, dtag=dtag, sort_key=sort_key)

    def __reduce__(self):
        return FnAtom, (self.head, self.args, self.dtag)

    def bump(self, slot: int) -> "FnAtom":
        tag = list(self.dtag)
        tag[slot] += 1
        return FnAtom(self.head, self.args, tag)

    def __repr__(self):
        inner = ",".join(repr(a) for a in self.args)
        tag = "" if not any(self.dtag) else f"@{self.dtag}"
        return f"{self.head}({inner}){tag}"


Atom = Symbol | FnAtom

# A monomial is a tuple of (atom, nonzero exponent) pairs sorted by the
# atom sort key; the empty tuple is the constant monomial.
Monomial = tuple


def _mono_key(mono: Monomial) -> tuple:
    return tuple((a.sort_key, k) for a, k in mono)


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product of two monomials: one merge of their sorted factors."""
    if not a:
        return b
    if not b:
        return a
    out = []
    i = j = 0
    na, nb = len(a), len(b)
    while i < na and j < nb:
        x, kx = a[i]
        y, ky = b[j]
        if x is y:
            if kx + ky:
                out.append((x, kx + ky))
            i += 1
            j += 1
        elif y.sort_key < x.sort_key:
            out.append(b[j])
            j += 1
        else:
            out.append(a[i])
            i += 1
    out.extend(a[i:])
    out.extend(b[j:])
    return tuple(out)


def _coefficient(value) -> int | Fraction:
    """``value`` as an exact coefficient: an ``int`` when it is integral,
    else a ``Fraction``."""
    if type(value) is int:
        return value
    q = value if isinstance(value, Fraction) else Fraction(value)
    return q.numerator if q.denominator == 1 else q


class Expr:
    """Immutable expression in expanded normal form.

    Every coefficient is exact: an ``int`` when it is integral, a
    ``Fraction`` only when it is not, and never a float or a bool.  The
    constructors and the arithmetic keep that invariant, so integral
    coefficients take Python's machine-integer arithmetic.
    """

    __slots__ = ("_terms", "_key", "_hash")

    def __init__(self, terms: Mapping[Monomial, int | Fraction]):
        clean = {m: _coefficient(c) for m, c in terms.items() if c}
        self._terms = clean
        # the sorted term tuple and the hash are built on first use; most
        # intermediate expressions never need either
        self._key = None
        self._hash = None

    @classmethod
    def _trusted(cls, terms: dict) -> "Expr":
        """Wrap a term map that holds no zero coefficient, skipping the filter."""
        out = cls.__new__(cls)
        out._terms = terms
        out._key = None
        out._hash = None
        return out

    # -- construction -----------------------------------------------------
    @staticmethod
    def number(value) -> "Expr":
        q = _coefficient(value)
        return Expr._trusted({(): q}) if q else ZERO

    @staticmethod
    def from_atom(atom: Atom, exp: int = 1) -> "Expr":
        return Expr._trusted({((atom, exp),): 1}) if exp else ONE

    # -- basic queries ------------------------------------------------------
    @property
    def sort_key(self) -> tuple:
        if self._key is None:
            self._key = tuple(sorted((_mono_key(m), m, c) for m, c in self._terms.items()))
        return self._key

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[Monomial, int | Fraction]]:
        for _k, m, c in self.sort_key:
            yield m, c

    def constant_value(self) -> int | Fraction | None:
        """The rational value if the expression is constant, else None."""
        if not self._terms:
            return 0
        if len(self._terms) == 1 and () in self._terms:
            return self._terms[()]
        return None

    def atoms(self) -> Iterator[Atom]:
        """Top-level atoms of every monomial (no recursion into arguments)."""
        seen = set()
        for m in self._terms:
            for a, _k in m:
                if a not in seen:
                    seen.add(a)
                    yield a

    def symbols(self) -> set[Symbol]:
        """All symbols, including those inside opaque arguments."""
        out: set[Symbol] = set()
        for a in self.atoms():
            if isinstance(a, Symbol):
                out.add(a)
            else:
                for arg in a.args:
                    out |= arg.symbols()
        return out

    def mentions(self, sym: Symbol, recurse: bool = True) -> bool:
        for m in self._terms:
            for a, _k in m:
                if a is sym:
                    return True
                if recurse and isinstance(a, FnAtom):
                    if any(arg.mentions(sym, True) for arg in a.args):
                        return True
        return False

    def coefficients_in(self, atom: Atom) -> dict[int, "Expr"]:
        """Split as a polynomial in one atom: power -> coefficient; a
        CollectError names the atom where it has a negative power."""
        # a monomial is its power of ``atom`` and the rest, so no two terms
        # meet in one bucket and every coefficient stays nonzero
        buckets: dict[int, dict] = {}
        for m, c in self._terms.items():
            power = 0
            rest = []
            for a, k in m:
                if a is atom:
                    power = k
                else:
                    rest.append((a, k))
            if power < 0:
                raise CollectError(f"not a polynomial in {_atom_text(atom)}: it has the power {power}")
            buckets.setdefault(power, {})[tuple(rest)] = c
        return {p: Expr._trusted(t) for p, t in buckets.items()}

    # -- arithmetic ---------------------------------------------------------
    def __add__(self, other) -> "Expr":
        other = _as_expr(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        terms = dict(self._terms)
        cancelled = False
        for m, c in other._terms.items():
            acc = terms.get(m)
            if acc is None:
                terms[m] = c
            else:
                acc = acc + c
                if type(acc) is not int and acc.denominator == 1:
                    acc = acc.numerator
                terms[m] = acc
                cancelled = cancelled or not acc
        # only a sum of two coefficients can be zero
        return Expr(terms) if cancelled else Expr._trusted(terms)

    __radd__ = __add__

    def __neg__(self) -> "Expr":
        return Expr._trusted({m: -c for m, c in self._terms.items()})

    def __sub__(self, other) -> "Expr":
        return self + (-_as_expr(other))

    def __rsub__(self, other) -> "Expr":
        return _as_expr(other) + (-self)

    def __mul__(self, other) -> "Expr":
        other = _as_expr(other)
        if self is ONE:
            return other
        if other is ONE:
            return self
        if self.is_zero or other.is_zero:
            return ZERO
        out: dict = {}
        cancelled = False
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                m = _mono_mul(m1, m2)
                c = c1 * c2
                acc = out.get(m)
                if acc is not None:
                    c = acc + c
                    cancelled = cancelled or not c
                if type(c) is not int and c.denominator == 1:
                    c = c.numerator
                out[m] = c
        # a product of nonzero coefficients is nonzero; only a sum can vanish
        return Expr(out) if cancelled else Expr._trusted(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        if n < 0:
            return _reciprocal(self**-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __truediv__(self, other) -> "Expr":
        return self * _reciprocal(_as_expr(other))

    def __eq__(self, other):
        if not isinstance(other, Expr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(frozenset(self._terms.items()))
        return self._hash

    def __repr__(self):
        return pretty(self)

    def __reduce__(self):
        # the terms only: the cached hash is of this process's atoms
        return Expr, (self._terms,)

    # -- rewriting ----------------------------------------------------------
    def substitute_atoms(self, resolver: Callable[[Atom], "Expr | None"]) -> "Expr":
        """Replace atoms via ``resolver`` (None keeps the atom).

        The resolver is applied recursively to opaque-function arguments, so
        a symbol replacement also reaches inside ``sin(...)`` atoms.
        """
        out = ZERO
        for m, c in self._terms.items():
            term = Expr.number(c)
            for a, k in m:
                if isinstance(a, FnAtom):
                    new_args = tuple(arg.substitute_atoms(resolver) for arg in a.args)
                    if new_args != a.args:
                        a = FnAtom(a.head, new_args, a.dtag)
                rep = resolver(a)
                factor = Expr.from_atom(a) if rep is None else rep
                term = term * factor**k
            out = out + term
        return out

    def gradient(self, symbols: Iterable[Symbol], exact: bool = False) -> dict[Symbol, "Expr"]:
        """The partial derivative along each of ``symbols``, from one walk of
        the terms (``derivatives``): symbol -> derivative.  Opaque
        applications chain through their arguments to tagged atoms, or with
        ``exact``, the ``NUMERIC_FUNCTIONS`` to their ``_DERIVATIVES``."""
        wanted = dict.fromkeys(symbols)

        def rule(atom: Atom):
            if isinstance(atom, Symbol):
                return ((atom, ONE),) if atom in wanted else ()
            return _chain_rule(atom, [arg.derivatives(wanted, rule) for arg in atom.args], wanted, exact)

        return self.derivatives(wanted, rule)

    def antiderivative(self, sym: Symbol) -> "Expr":
        """The antiderivative in ``sym``, zero at sym = 0, of a polynomial in
        ``sym``; a CollectError when ``sym`` is inside a function argument."""
        parts = self.coefficients_in(sym)
        if any(c.mentions(sym) for c in parts.values()):
            raise CollectError(f"not a polynomial in {sym.name}: it appears inside a function application")
        return sum((c * Expr.from_atom(sym, k + 1) / (k + 1) for k, c in parts.items()), ZERO)

    def derivatives(self, keys: Iterable, rule: Callable[[Atom], Iterable[tuple]]) -> dict:
        """One derivative per key, from one walk of the terms: key ->
        derivative.  ``rule(atom)`` gives the pairs (key, derivative of the
        atom) whose derivative is nonzero; the product rule does the rest.
        The terms come in the order of a sum built term by term and factor
        by factor: a monomial whose coefficient cancels leaves the sum, and
        comes back at its end if a later factor brings it again."""
        maps: dict = {key: {} for key in keys}
        for m, c in self._terms.items():
            for i, (a, k) in enumerate(m):
                parts = rule(a)
                if not parts:
                    continue
                # lowering one exponent keeps the factors in order
                rest = m[:i] + ((a, k - 1),) + m[i + 1 :] if k != 1 else m[:i] + m[i + 1 :]
                ck = _coefficient(c * k)
                for key, da in parts:
                    for dm, dc in da._terms.items():
                        _accumulate(maps[key], _mono_mul(rest, dm), _coefficient(ck * dc))
        return {key: Expr._trusted(t) if t else ZERO for key, t in maps.items()}

    # -- numeric evaluation ---------------------------------------------------
    def evaluate(self, env: Mapping[str, object]):
        """Evaluate numerically; values may be scalars or numpy arrays.

        Each atom, including those inside function arguments, is evaluated
        once per call.  Out-of-domain inputs yield inf/nan rather than
        warnings; callers that need totality check finiteness themselves.
        """
        rules, errstate = _numeric()
        with errstate(all="ignore"):
            try:
                return self._evaluate(env, rules, {})
            except OverflowError:
                # a Python number's power raises where numpy's is inf: redo it in numpy floats
                import numpy as np

                env = {name: np.float64(v) if isinstance(v, (int, float)) else v for name, v in env.items()}
                return self._evaluate(env, rules, {})

    def _evaluate(self, env, rules, values: dict):
        """The float sum ``0.0 + t1 + t2 + ...`` of the terms, each the float
        coefficient times its atom powers in monomial order; ``values``
        holds the atom values of the current call.

        A running product or sum that is an array was allocated here, so it
        takes the next factor or term in place wherever the result keeps
        its shape and dtype; every IEEE operation is the one out of place.
        """
        total = 0.0
        for m, c in self._terms.items():
            term = float(c)
            for a, k in m:
                value = values.get(a)
                if value is None:
                    value = values[a] = _atom_value(a, env, rules, values)
                # x^-k is inv(x)^k; x^1 is x, and leaves the value unallocated
                if k < 0:
                    value, k = rules["inv"](value), -k
                factor = value if k == 1 else value**k
                if _takes_in_place(term, factor):
                    term *= factor
                else:
                    term = term * factor
            if _takes_in_place(total, term):
                total += term
            else:
                total = total + term
        return total


ZERO = Expr({})
ONE = Expr({(): 1})


def _as_expr(value) -> Expr:
    if isinstance(value, Expr):
        return value
    if isinstance(value, (int, Fraction)):
        return Expr.number(value)
    raise TypeError(f"cannot coerce {type(value).__name__} to Expr")


def _accumulate(terms: dict, mono: Monomial, c) -> None:
    """Add ``c * mono`` into a term map in place, as ``Expr.__add__`` adds a
    term: a new monomial goes to the end, and one that cancels leaves."""
    acc = terms.get(mono)
    if acc is None:
        terms[mono] = c
        return
    acc = acc + c
    if type(acc) is not int and acc.denominator == 1:
        acc = acc.numerator
    if acc:
        terms[mono] = acc
    else:
        del terms[mono]


def _chain_rule(atom: FnAtom, dargs: list[dict], keys: Iterable, exact: bool = False) -> list[tuple]:
    """The nonzero derivatives of an application along ``keys``, as (key,
    derivative) pairs: each the sum over argument slots of the slot-tagged
    atom, or with ``exact`` a numeric function's ``_DERIVATIVES`` entry,
    times that argument's derivative, ``dargs[slot][key]``."""
    numeric = exact and atom.head in _DERIVATIVES and not any(atom.dtag)
    parts = []
    for key in keys:
        out = ZERO
        for slot, darg in enumerate(dargs):
            if not darg[key].is_zero:
                outer = _DERIVATIVES[atom.head](atom.args[slot]) if numeric else Expr.from_atom(atom.bump(slot))
                out = out + outer * darg[key]
        if not out.is_zero:
            parts.append((key, out))
    return parts


def _takes_in_place(acc, value) -> bool:
    """Whether ``acc``, a running product or sum, is an array whose shape
    and dtype ``acc op value`` keeps: a scalar ``value``, or one of
    ``acc``'s own shape and of a dtype that does not widen it."""
    shape = getattr(acc, "shape", ())
    return (
        shape != ()
        and getattr(value, "shape", ()) in (shape, ())
        and _numpy().result_type(acc, value) == acc.dtype
    )


@functools.cache
def _numpy():
    import numpy

    return numpy


def _atom_value(atom: Atom, env, rules: Mapping[str, Callable], values: dict):
    if isinstance(atom, Symbol):
        try:
            return env[atom.name]
        except KeyError:
            raise EvalError(f"no value bound for {atom.name!r}") from None
    if any(atom.dtag):
        raise EvalError(f"cannot evaluate derivative-tagged atom {atom!r}")
    try:
        fn = rules[atom.head]
    except KeyError:
        raise EvalError(f"no numeric rule for function {atom.head!r}") from None
    return fn(*[a._evaluate(env, rules, values) for a in atom.args])


def _apply(head: str, u: Expr) -> Expr:
    return Expr.from_atom(FnAtom(head, (u,)))


# the functions with a numeric rule, by name: u -> the derivative f'(u)
_DERIVATIVES: dict[str, Callable[[Expr], Expr]] = {
    "sin": lambda u: _apply("cos", u),
    "cos": lambda u: -_apply("sin", u),
    "tan": lambda u: ONE + _apply("tan", u) ** 2,
    "exp": lambda u: _apply("exp", u),
    "log": lambda u: _reciprocal(u),
    "sqrt": lambda u: _reciprocal(2 * _apply("sqrt", u)),
    "inv": lambda u: -_reciprocal(u) ** 2,
    "sinh": lambda u: _apply("cosh", u),
    "cosh": lambda u: _apply("sinh", u),
    "tanh": lambda u: ONE - _apply("tanh", u) ** 2,
}
NUMERIC_FUNCTIONS = frozenset(_DERIVATIVES)


@functools.cache
def _numeric() -> tuple[dict[str, Callable], Callable]:
    """The numeric rules of ``NUMERIC_FUNCTIONS`` (numpy's function of the
    same name; for ``inv`` numpy's 1/x, which is inf, not an error, at a
    Python 0.0) and numpy's ``errstate``, built on first numeric use, so
    that the symbolic half never imports numpy."""
    import numpy as np

    rules = {name: getattr(np, name) for name in NUMERIC_FUNCTIONS - {"inv"}}
    rules["inv"] = functools.partial(np.divide, 1.0)
    return rules, np.errstate


def _reciprocal(den: Expr) -> Expr:
    """1/den in the normal form of the module docstring, "first" meaning
    first in canonical term order; every ``inv`` atom is built here."""
    if den.is_zero:
        raise ZeroDivisionError("division by zero")
    # m^-1: each atom at minus its least power over the terms (0 in a term
    # that lacks it); dividing by m gives every term of P its sorted factors
    powers = [dict(m) for m in den._terms]
    atoms = dict.fromkeys(a for p in powers for a in p)
    least = ((a, -min(p.get(a, 0) for p in powers)) for a in atoms)
    inverse = tuple(sorted(((a, k) for a, k in least if k), key=lambda f: f[0].sort_key))
    rest = Expr._trusted({_mono_mul(m, inverse): c for m, c in den._terms.items()})
    cs = [Fraction(c) for _m, c in rest.terms()]
    content = Fraction(math.gcd(*(c.numerator for c in cs)), math.lcm(*(c.denominator for c in cs)))
    content = content if cs[0] > 0 else -content
    out = Expr({inverse: 1 / content})
    return out if len(cs) == 1 else out * _apply("inv", Expr({m: c / content for m, c in rest._terms.items()}))


def collect(e: Expr, basis: Iterable[Symbol]) -> dict[Expr, Expr]:
    """Split ``e`` as a polynomial over monomials in the basis symbols.

    Returns a map from basis monomial (an Expr with unit coefficient; the
    constant ``1`` keys the basis-free part) to its coefficient.  Summing
    ``monomial * coefficient`` over the result reproduces ``e`` exactly.
    Raises CollectError if a basis symbol is buried inside an opaque
    application or has a negative power, since the split would then not be
    polynomial.
    """
    basis_set = set(basis)
    buckets: dict[Monomial, dict] = {}
    checked: set[FnAtom] = set()
    for m, c in e._terms.items():
        in_basis = []
        rest = []
        for a, k in m:
            if isinstance(a, Symbol) and a in basis_set:
                if k < 0:
                    raise CollectError(f"basis symbol {a.name!r} has the power {k}; not polynomial in the basis")
                in_basis.append((a, k))
            else:
                if isinstance(a, FnAtom) and a not in checked:
                    checked.add(a)
                    for arg in a.args:
                        hidden = arg.symbols() & basis_set
                        if hidden:
                            name = sorted(hidden, key=lambda s: s.name)[0].name
                            raise CollectError(
                                f"{a.head}(...) applies an opaque function to "
                                f"basis symbol {name!r}; not polynomial in the basis"
                            )
                rest.append((a, k))
        key = tuple(in_basis)
        bucket = buckets.setdefault(key, {})
        rk = tuple(rest)
        bucket[rk] = bucket.get(rk, 0) + c
    return {Expr._trusted({m: 1}): Expr(t) for m, t in buckets.items() if any(t.values())}


# ---------------------------------------------------------------------------
# Declaration context
# ---------------------------------------------------------------------------


class Context:
    """Variable declarations shared by a family of expressions.

    Holds independent variables, dependent variables, free parameters and
    (optionally) named opaque unknown functions with a fixed argument list.
    Contexts are immutable; ``extended`` returns an enlarged copy.
    """

    def __init__(
        self,
        independents: Iterable[str] = (),
        dependents: Iterable[str] = (),
        parameters: Iterable[str] = (),
        unknowns: Mapping[str, tuple[str, ...]] | None = None,
    ):
        self.independents = tuple(Symbol(n, "independent") for n in independents)
        self.dependents = tuple(Symbol(n, "dependent") for n in dependents)
        self.parameters = tuple(Symbol(n, "parameter") for n in parameters)
        self._by_name: dict[str, Symbol] = {}
        for s in (*self.independents, *self.dependents, *self.parameters):
            if s.name in self._by_name:
                raise ValueError(f"duplicate declaration of {s.name!r}")
            self._by_name[s.name] = s
        self._indep_rank = {s.name: i for i, s in enumerate(self.independents)}
        self._jets: dict[tuple, Symbol] = {}  # (dep, wrt) as ``jet`` was called -> jet
        self.unknowns: dict[str, tuple[Symbol, ...]] = {}
        for head, argnames in (unknowns or {}).items():
            if head in self._by_name:
                raise ValueError(f"unknown function {head!r} collides with a variable")
            self.unknowns[head] = tuple(self.symbol(n) for n in argnames)

    def symbol(self, name: str) -> Symbol:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"undeclared identifier {name!r}") from None

    def var(self, name: str) -> Expr:
        return Expr.from_atom(self.symbol(name))

    def extended(
        self,
        parameters: Iterable[str] = (),
        unknowns: Mapping[str, tuple[str, ...]] | None = None,
    ) -> "Context":
        unk = {h: tuple(a.name for a in args) for h, args in self.unknowns.items()}
        for h, argnames in (unknowns or {}).items():
            unk[h] = tuple(argnames)
        return Context(
            (s.name for s in self.independents),
            (s.name for s in self.dependents),
            [*(s.name for s in self.parameters), *parameters],
            unk,
        )

    # -- jet coordinates -----------------------------------------------------
    def jet(self, dep: Symbol | str, wrt: Iterable[Symbol | str]) -> Symbol:
        """The derivative coordinate of ``dep`` with canonical multi-index.

        Each distinct call is worked out once per context."""
        wrt = tuple(wrt)
        jet = self._jets.get((dep, wrt))
        if jet is None:
            jet = self._jets[dep, wrt] = self._jet(dep, wrt)
        return jet

    def _jet(self, dep: Symbol | str, wrt: tuple[Symbol | str, ...]) -> Symbol:
        if isinstance(dep, str):
            dep = self.symbol(dep)
        if dep.kind == "jet":
            base = dep.base
            names = list(dep.wrt)
        elif dep.kind == "dependent":
            base = dep.name
            names = []
        else:
            raise ValueError(f"cannot differentiate {dep.name!r}: not a dependent variable")
        for w in wrt:
            wname = w if isinstance(w, str) else w.name
            if self._by_name.get(wname, None) not in self.independents:
                raise ValueError(
                    f"cannot differentiate with respect to {wname!r}: not an independent variable"
                )
            names.append(wname)
        names.sort(key=lambda n: self._indep_rank[n])
        return Symbol("_".join([base, *names]), "jet", base=base, wrt=tuple(names))

    def unknown_atom(self, head: str, dtag: Iterable[int] = ()) -> FnAtom:
        return FnAtom(head, (Expr.from_atom(s) for s in self.unknowns[head]), dtag)

    def unknown_pdiff(self, head: str, wrt: Iterable[Symbol]) -> FnAtom:
        """Derivative-tagged atom for an unknown function."""
        slots = {s: i for i, s in enumerate(self.unknowns[head])}
        tag = [0] * len(slots)
        for s in wrt:
            if s not in slots:
                raise ValueError(f"{head!r} does not depend on {s.name!r}")
            tag[slots[s]] += 1
        return self.unknown_atom(head, tag)

    # -- total derivative ------------------------------------------------------
    def total_derivatives(self, e: Expr, along: Iterable[Symbol | str]) -> dict[Symbol, Expr]:
        """The total derivative D_x along each independent ``x`` of
        ``along``, from one walk of the terms (``Expr.derivatives``):
        promotes dependents and jets, chains through opaque arguments,
        annihilates other independents and parameters."""
        xs = dict.fromkeys(self.symbol(x) if isinstance(x, str) else x for x in along)
        for x in xs:
            if x not in self.independents:
                raise ValueError(f"total derivative is taken along an independent variable, got {x.name!r}")

        def rule(atom: Atom):
            if isinstance(atom, FnAtom):
                return _chain_rule(atom, [arg.derivatives(xs, rule) for arg in atom.args], xs)
            if atom.kind in ("independent", "parameter"):
                return ((atom, ONE),) if atom in xs else ()
            return [(x, Expr.from_atom(self.jet(atom, (x,)))) for x in xs]

        return e.derivatives(xs, rule)

    # -- parsing ----------------------------------------------------------------
    def parse(self, text: str) -> Expr:
        return _Parser(_tokenize(text), self).parse_single_expression()


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>\#[^\n]*)
  | (?P<number>(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),;=:])
    """,
    re.VERBOSE,
)


def _literal_too_long(text: str) -> bool:
    """Whether the literal ``text`` has more digits plus exponent magnitude
    than 4300, Python's bound on an int's digits in text, judged without
    big-integer work: an exponent of five digits is over it."""
    mantissa, _, exponent = text.lower().partition("e")
    exponent = exponent.lstrip("+-").lstrip("0")
    return len(exponent) > 4 or len(mantissa.replace(".", "")) + int(exponent or 0) > 4300


def _bound_constants(op: "_Token", operands: Iterable[Expr], n: int = 1) -> None:
    """A ParseError at ``op`` where a coefficient of the product of
    ``operands``, to the n-th power, may pass the 4300 digits of printing an
    int: judged by log2 of their term counts and coefficients, not built."""
    bits = n * sum(
        math.log2(len(e._terms) or 1)
        + max((math.log2(max(abs(c.numerator), c.denominator)) for c in e._terms.values()), default=0.0)
        for e in operands
    )
    if bits >= 4300 * math.log2(10):
        raise ParseError("constant of more than 4300 digits when written out", op.line, op.col)


class _Token(NamedTuple):
    type: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    """The tokens of ``text``, each with its line and column (from 1), and a
    closing ``eof`` token.  A column is counted from the start of the
    current line; only blanks hold line ends."""
    tokens = []
    line, line_start = 1, 0
    pos, end = 0, len(text)
    match = _TOKEN_RE.match
    while pos < end:
        m = match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        kind = m.lastgroup
        stop = m.end()
        if kind == "ws":
            newlines = text.count("\n", pos, stop)
            if newlines:
                line += newlines
                line_start = text.rindex("\n", pos, stop) + 1
        elif kind != "comment":
            if kind == "number" and _literal_too_long(m.group()):
                raise ParseError("number literal of more than 4300 digits when written out", line, pos - line_start + 1)
            tokens.append(_Token(kind, m.group(), line, pos - line_start + 1))
        pos = stop
    tokens.append(_Token("eof", "", line, pos - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], ctx: Context):
        self.tokens = tokens
        self.pos = 0
        self.ctx = ctx

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def next(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        return tok

    # expression grammar: sum of products of signed powers
    def parse_single_expression(self) -> Expr:
        e = self.expression()
        tok = self.peek()
        if tok.type != "eof":
            raise ParseError(f"trailing input starting at {tok.text!r}", tok.line, tok.col)
        return e

    def expression(self) -> Expr:
        e = self.term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self.term()
            e = e + rhs if op == "+" else e - rhs
        return e

    def term(self) -> Expr:
        e = self.factor()
        while self.peek().text in ("*", "/"):
            op = self.next()
            rhs = self.factor()
            _bound_constants(op, (e, rhs))
            if op.text == "*":
                e = e * rhs
            elif rhs.constant_value() == 0:
                raise ParseError("division by zero", op.line, op.col)
            else:
                e = e / rhs
        return e

    def factor(self) -> Expr:
        sign = 1
        while self.peek().text in ("+", "-"):
            if self.next().text == "-":
                sign = -sign
        e = self.power()
        return e if sign == 1 else -e

    def power(self) -> Expr:
        base = self.primary()
        if self.peek().text != "^":
            return base
        op = self.next()
        neg = False
        while self.peek().text in ("+", "-"):
            neg ^= self.next().text == "-"
        tok = self.next()
        if tok.type != "number" or not re.fullmatch(r"\d+", tok.text):
            raise ParseError("exponent must be an integer literal", tok.line, tok.col)
        n = int(tok.text)
        _bound_constants(op, (base,), n)
        if neg and base.constant_value() == 0:
            raise ParseError("zero to a negative power", tok.line, tok.col)
        return base ** (-n if neg else n)

    def primary(self) -> Expr:
        tok = self.next()
        if tok.type == "number":
            return Expr.number(Fraction(tok.text))
        if tok.text == "(":
            e = self.expression()
            self.expect(")")
            return e
        if tok.type != "ident":
            raise ParseError(f"expected a value, found {tok.text or 'end of input'!r}", tok.line, tok.col)
        name = tok.text
        if self.peek().text == "(":
            return self.application(name, tok)
        return self.name_reference(name, tok)

    def name_reference(self, name: str, tok: _Token) -> Expr:
        if name in self.ctx.unknowns:
            return Expr.from_atom(self.ctx.unknown_atom(name))
        return Expr.from_atom(self.symbol(tok))

    def symbol(self, tok: _Token) -> Symbol:
        try:
            return self.ctx.symbol(tok.text)
        except KeyError:
            raise ParseError(f"undeclared identifier {tok.text!r}", tok.line, tok.col) from None

    def application(self, name: str, tok: _Token) -> Expr:
        self.expect("(")
        if name == "diff":
            return self.diff_application(tok)
        args = [self.expression()]
        while self.peek().text == ",":
            self.next()
            args.append(self.expression())
        self.expect(")")
        if name in self.ctx.unknowns:
            declared = self.ctx.unknowns[name]
            if tuple(args) != tuple(Expr.from_atom(s) for s in declared):
                raise ParseError(
                    f"unknown function {name!r} must be applied to its declared arguments",
                    tok.line,
                    tok.col,
                )
            return Expr.from_atom(self.ctx.unknown_atom(name))
        if name in NUMERIC_FUNCTIONS:
            if len(args) != 1:
                raise ParseError(f"{name} takes one argument", tok.line, tok.col)
            if name == "inv" and args[0].constant_value() == 0:
                raise ParseError("division by zero", tok.line, tok.col)
            return _reciprocal(args[0]) if name == "inv" else _apply(name, args[0])
        raise ParseError(f"undeclared function {name!r}", tok.line, tok.col)

    def diff_application(self, tok: _Token) -> Expr:
        first = self.next()
        if first.type != "ident":
            raise ParseError("diff() expects a dependent variable or unknown function first", first.line, first.col)
        wrt: list[Symbol] = []
        while self.peek().text == ",":
            self.next()
            vtok = self.next()
            if vtok.type != "ident":
                raise ParseError("diff() differentiation variables must be identifiers", vtok.line, vtok.col)
            wrt.append(self.symbol(vtok))
        self.expect(")")
        if not wrt:
            raise ParseError("diff() needs at least one differentiation variable", tok.line, tok.col)
        # the context validates; its errors are reported at the diff token
        # for an unknown function and at the differentiated name otherwise
        unknown = first.text in self.ctx.unknowns
        at = tok if unknown else first
        dep = None if unknown else self.symbol(first)
        try:
            atom = self.ctx.unknown_pdiff(first.text, wrt) if unknown else self.ctx.jet(dep, wrt)
        except ValueError as err:
            raise ParseError(str(err), at.line, at.col) from None
        return Expr.from_atom(atom)


# ---------------------------------------------------------------------------
# Program files: declarations + equations
# ---------------------------------------------------------------------------


@dataclass
class ProgramFile:
    context: Context
    equations: list[Expr]
    solve_for: list[Symbol]
    target_count: int | None = None


def parse_program(text: str) -> ProgramFile:
    """Parse a declaration file: indep/dep/param/unknown statements, an
    optional ``solve_for:`` header, an optional ``target_count:`` line and
    ``eq lhs = rhs;`` statements."""
    # first pass: pull declarations so the context exists before expressions
    indep: list[str] = []
    dep: list[str] = []
    par: list[str] = []
    unknowns: dict[str, tuple[str, ...]] = {}
    deferred: list[list[_Token]] = []
    for stmt in _statements(text):
        head = stmt[0]
        if head.type == "ident" and head.text in ("indep", "dep", "param"):
            {"indep": indep, "dep": dep, "param": par}[head.text].extend(_name_list(stmt))
        elif head.type == "ident" and head.text == "unknown":
            # unknown name(arg, arg, ...): the arguments follow _name_list's rule
            if len(stmt) < 4 or stmt[1].type != "ident" or stmt[2].text != "(" or stmt[-1].text != ")":
                raise ParseError("malformed unknown declaration", head.line, head.col)
            unknowns[stmt[1].text] = tuple(_name_list([head, *stmt[3:-1]]))
        else:
            deferred.append(stmt)

    ctx = Context(indep, dep, par, unknowns)
    equations: list[Expr] = []
    solve_for: list[Symbol] = []
    target_count: int | None = None
    for stmt in deferred:
        head = stmt[0]
        if head.type == "ident" and head.text == "eq":
            body = stmt[1:]
            eq_idx = [i for i, t in enumerate(body) if t.text == "="]
            if len(eq_idx) != 1:
                raise ParseError("eq statement needs exactly one '='", head.line, head.col)
            equals = body[eq_idx[0]]
            lhs = _parse_token_slice(body[: eq_idx[0]], ctx, equals)
            rhs = _parse_token_slice(body[eq_idx[0] + 1 :], ctx, equals)
            equations.append(lhs - rhs)
        elif head.type == "ident" and head.text == "solve_for":
            if solve_for:
                raise ParseError("solve_for is declared twice", head.line, head.col)
            if len(stmt) < 3 or stmt[1].text != ":":
                raise ParseError("solve_for must be followed by ':'", head.line, head.col)
            body = stmt[2:]
            for piece in _split_on_commas(body):
                jet = _single_symbol(_parse_token_slice(piece, ctx, head))
                if jet is None or not jet.is_jet:
                    raise ParseError("solve_for entries must be single derivative coordinates", head.line, head.col)
                solve_for.append(jet)
        elif head.type == "ident" and head.text == "target_count":
            if target_count is not None:
                raise ParseError("target_count is declared twice", head.line, head.col)
            if len(stmt) != 3 or stmt[1].text != ":" or not re.fullmatch(r"\d+", stmt[2].text):
                raise ParseError("target_count must be 'target_count: <integer>'", head.line, head.col)
            target_count = int(stmt[2].text)
        else:
            raise ParseError(f"unrecognized statement starting with {head.text!r}", head.line, head.col)
    return ProgramFile(ctx, equations, solve_for, target_count)


def _statements(text: str) -> list[list[_Token]]:
    """The token lists of the ``;``-terminated statements of a file
    (``#`` comments are dropped by the tokenizer)."""
    statements: list[list[_Token]] = []
    current: list[_Token] = []
    for tok in _tokenize(text)[:-1]:
        if tok.text == ";":
            if current:
                statements.append(current)
                current = []
        else:
            current.append(tok)
    if current:
        raise ParseError("missing ';' at end of statement", current[-1].line, current[-1].col)
    return statements


def _name_list(stmt: list[_Token]) -> list[str]:
    """The names of a ``<keyword> a, b, c`` declaration statement."""
    head, names, seps = stmt[0], stmt[1::2], stmt[2::2]
    if len(stmt) % 2 or any(t.type != "ident" for t in names) or any(t.text != "," for t in seps):
        raise ParseError(f"malformed {head.text} declaration", head.line, head.col)
    return [t.text for t in names]


def _split_on_commas(body: list[_Token]) -> list[list[_Token]]:
    pieces: list[list[_Token]] = [[]]
    depth = 0
    for t in body:
        if t.text == "(":
            depth += 1
        elif t.text == ")":
            depth -= 1
        if t.text == "," and depth == 0:
            pieces.append([])
        else:
            pieces[-1].append(t)
    return [p for p in pieces if p]


def _parse_token_slice(body: list[_Token], ctx: Context, at: _Token) -> Expr:
    """Parse the tokens of one expression; ``at`` is a neighbouring token,
    whose position an empty body is reported at."""
    if not body:
        raise ParseError("empty expression", at.line, at.col)
    toks = list(body) + [_Token("eof", "", body[-1].line, body[-1].col)]
    return _Parser(toks, ctx).parse_single_expression()


# ---------------------------------------------------------------------------
# Pretty printing (inverse of the expression grammar)
# ---------------------------------------------------------------------------


def _atom_text(atom: Atom) -> str:
    """The atom as ``pretty`` prints it, worked out on its first print and
    kept on the atom from then on."""
    text = atom._text
    if text is None:
        text = _print_atom(atom)
        object.__setattr__(atom, "_text", text)
    return text


def _print_atom(atom: Atom) -> str:
    if isinstance(atom, Symbol):
        if atom.is_jet:
            return f"diff({atom.base},{','.join(atom.wrt)})"
        return atom.name
    if any(atom.dtag):
        names = []
        for slot, count in enumerate(atom.dtag):
            arg = atom.args[slot]
            sym = _single_symbol(arg)
            names.extend([sym.name if sym else pretty(arg)] * count)
        return f"diff({atom.head},{','.join(names)})"
    if all(_single_symbol(a) is not None for a in atom.args) and atom.head not in NUMERIC_FUNCTIONS:
        # unknown-function reference prints bare; arguments are implied
        return atom.head
    inner = ",".join(pretty(a) for a in atom.args)
    return f"{atom.head}({inner})"


def _single_symbol(e: Expr) -> Symbol | None:
    # read the term map directly: a single term needs no sorting
    if len(e._terms) != 1:
        return None
    ((mono, c),) = e._terms.items()
    if c != 1 or len(mono) != 1:
        return None
    atom, k = mono[0]
    return atom if k == 1 and isinstance(atom, Symbol) else None


def pretty(e: Expr) -> str:
    """Render in the expression grammar; parsing the result (in a context
    declaring the same names) returns a structurally equal expression.

    Terms come in canonical order; each atom's text is worked out on its
    first print and kept on the atom (``_atom_text``)."""
    if e.is_zero:
        return "0"
    parts: list[str] = []
    for mono, c in e.terms():
        factors = [f"{_atom_text(a)}^{k}" if k != 1 else _atom_text(a) for a, k in mono]
        mag = abs(c)
        if not factors:
            body = str(mag)
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = "*".join([str(mag), *factors])
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Numeric helper for profile / transform expressions
# ---------------------------------------------------------------------------


def compile_numeric(text: str, variables: Iterable[str]):
    """Compile an expression over the given variable names into a vectorized
    callable of keyword or positional arrays.

    Used for constitutive profiles (``J``, ``dN``, ``tau``) and transform
    magnitude expressions, keeping the command-line surface free of
    arbitrary code execution.
    """
    names = list(variables)
    return _numeric_function(Context(independents=names).parse(text), names, text)


def _numeric_function(e: Expr, names: list[str], text: str | None = None):
    """The callable of ``e`` (``text`` by ``pretty`` if not given), with its
    exact ``derivative(name)`` and, if polynomial, ``antiderivative(name)``."""
    text = pretty(e) if text is None else text
    _require_float_constants(e, text)

    def fn(*args, **kwargs):
        env = dict(zip(names, args), **kwargs)
        missing = [n for n in names if n not in env]
        if missing:
            raise EvalError(f"missing values for {missing}")
        return e.evaluate(env)

    symbol = {name: Symbol(name, "independent") for name in names}
    fn.expression, fn.text = e, text
    fn.derivative = lambda name: _numeric_function(e.gradient([symbol[name]], exact=True)[symbol[name]], names)
    fn.antiderivative = lambda name: _numeric_function(e.antiderivative(symbol[name]), names)
    return fn


def _require_float_constants(e: Expr, text: str) -> None:
    """Refuse a coefficient of ``e``, or of a function argument in it, that
    no float can hold: numeric evaluation could only overflow on it."""
    for m, c in e._terms.items():
        try:
            float(c)
        except OverflowError:
            raise ExprError(f"constant beyond the float range in {text!r}") from None
        for arg in (arg for a, _k in m if isinstance(a, FnAtom) for arg in a.args):
            _require_float_constants(arg, text)
