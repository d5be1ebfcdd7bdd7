"""Polynomial construction, arithmetic, evaluation and raw expression
trees, kept apart from eqsolve.poly.

eqsolve's entry polynomials are raw {factor tuple: coefficient} dicts
(poly.Polynomial) that only slot_grid_sum fills.  The references here build
them through the one constructor, Polynomial(domain, terms), which sorts
factors, merges equal factor tuples and drops zero sums.  A sum passes both
term lists to it, a product the pairwise concatenated terms, and a negation
the negated coefficients; evaluate() computes a raw value from raw values.
Each takes the domain first, since a polynomial does not carry one.
sorted_terms() reads the terms in the canonical order that `dump-system`
prints.  length() and product_length() are two size measures; the paper's
rewriting size bounds are stated in product_length().  normalize() rewrites
an expression tree into that normal form and eval_expr() evaluates the tree
directly; comparing the two gives the poly tests an evaluation path that is
independent of the normal-form arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from eqsolve import poly as eqpoly


def Polynomial(domain, terms=()) -> eqpoly.Polynomial:
    """Sum (factor iterable, raw coefficient) terms: factors are sorted by
    name, equal factor tuples merged and zero sums dropped."""
    coeffs = {}
    for factors, raw in terms:
        factors = tuple(sorted(factors))
        acc = coeffs.get(factors)
        coeffs[factors] = domain.radd(acc, raw) if acc is not None else raw
    return eqpoly.Polynomial((f, c) for f, c in coeffs.items()
                             if c != domain.rzero)


def _sort_terms(terms):
    """Canonical order of (factor tuple, raw coefficient) terms: more
    factors first, then by factor tuple."""
    return tuple(sorted(terms, key=lambda t: (-len(t[0]), t[0])))


def poly(domain, *terms) -> eqpoly.Polynomial:
    """The polynomial of (coefficient, factor tuple) pairs; a coefficient
    is anything domain.coerce takes."""
    return Polynomial(domain, [(tuple(factors), domain.coerce(coeff))
                               for coeff, factors in terms])


def constant(domain, value) -> eqpoly.Polynomial:
    return poly(domain, (value, ()))


def variable(domain, var: str) -> eqpoly.Polynomial:
    return Polynomial(domain, [((var,), domain.rone)])


def add(domain, f, g) -> eqpoly.Polynomial:
    return Polynomial(domain, [*f.items(), *g.items()])


def neg(domain, f) -> eqpoly.Polynomial:
    rneg = domain.rneg
    return Polynomial(domain, [(fs, rneg(c)) for fs, c in f.items()])


def mul(domain, f, g) -> eqpoly.Polynomial:
    rmul = domain.rmul
    return Polynomial(domain, [(f1 + f2, rmul(c1, c2))
                               for f1, c1 in f.items()
                               for f2, c2 in g.items()])


def evaluate(domain, f, assignment):
    """Raw value under a {variable name: raw value} assignment."""
    total = domain.rzero
    for factors, acc in f.items():
        for v in factors:
            acc = domain.rmul(acc, assignment[v])
        total = domain.radd(total, acc)
    return total


def sorted_terms(f) -> tuple:
    """(factor tuple, raw coefficient) pairs in the canonical order."""
    return _sort_terms(f.items())


def length(f) -> int:
    """Symbol count: each variable occurrence and each coefficient is 1."""
    return sum(len(factors) + 1 for factors, _ in f.items())


def product_length(f) -> int:
    """Factor-symbol count: a monomial of d factors counts max(d, 1), so a
    bare constant counts as one."""
    return sum(max(len(factors), 1) for factors, _ in f.items())


class Expr:
    def __add__(self, other):
        return EAdd((self, _as_expr(other)))

    __radd__ = __add__

    def __mul__(self, other):
        return EMul((self, _as_expr(other)))

    __rmul__ = __mul__

    def __sub__(self, other):
        return EAdd((self, ENeg(_as_expr(other))))

    def __neg__(self):
        return ENeg(self)


@dataclass(frozen=True)
class EConst(Expr):
    value: object  # a raw value


@dataclass(frozen=True)
class EVar(Expr):
    var: str


@dataclass(frozen=True)
class EAdd(Expr):
    parts: tuple


@dataclass(frozen=True)
class EMul(Expr):
    parts: tuple


@dataclass(frozen=True)
class ENeg(Expr):
    part: Expr


def _as_expr(obj):
    if isinstance(obj, Expr):
        return obj
    if isinstance(obj, str):
        return EVar(obj)
    return EConst(obj)


def normalize(expr, domain) -> eqpoly.Polynomial:
    """Rewrite a raw expression into sum-of-monomials normal form."""
    if isinstance(expr, eqpoly.Polynomial):
        return expr
    if isinstance(expr, str):
        return variable(domain, expr)
    if isinstance(expr, EConst):
        return constant(domain, expr.value)
    if isinstance(expr, EVar):
        return normalize(expr.var, domain)
    if isinstance(expr, ENeg):
        return neg(domain, normalize(expr.part, domain))
    if isinstance(expr, EAdd):
        total = Polynomial(domain)
        for part in expr.parts:
            total = add(domain, total, normalize(part, domain))
        return total
    if isinstance(expr, EMul):
        total = constant(domain, 1)
        for part in expr.parts:
            total = mul(domain, total, normalize(part, domain))
        return total
    raise ValueError("not a polynomial expression: %r" % (expr,))


def eval_expr(expr, assignment, domain):
    """Evaluate a raw expression tree directly, without normalizing."""
    if isinstance(expr, eqpoly.Polynomial):
        return evaluate(domain, expr, assignment)
    if isinstance(expr, str):
        return assignment[expr]
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, EVar):
        return eval_expr(expr.var, assignment, domain)
    if isinstance(expr, ENeg):
        return domain.rneg(eval_expr(expr.part, assignment, domain))
    if isinstance(expr, (EAdd, EMul)):
        op, total = ((domain.radd, domain.rzero) if isinstance(expr, EAdd)
                     else (domain.rmul, domain.rone))
        for part in expr.parts:
            total = op(total, eval_expr(part, assignment, domain))
        return total
    raise ValueError("not a polynomial expression: %r" % (expr,))
