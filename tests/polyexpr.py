"""Polynomial arithmetic, evaluation and raw expression trees, kept apart
from eqsolve.poly.

eqsolve's entry polynomials are read-only; the references here build
polynomials through the one constructor, Polynomial(domain, terms), which
sorts factors, merges equal factor tuples and drops zero sums.  A sum passes
both term lists to it, a product the pairwise concatenated terms, and a
negation the negated coefficients; evaluate() computes a raw value from
raw values.  length() and product_length() are two size measures; the paper's
rewriting size bounds are stated in product_length().  normalize() rewrites
an expression tree into that normal form and eval_expr() evaluates the tree
directly; comparing the two gives the poly tests an evaluation path that is
independent of the normal-form arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from eqsolve.poly import Polynomial, _sort_terms


def poly(domain, *terms) -> Polynomial:
    """The polynomial of (coefficient, factor tuple) pairs; a coefficient
    is anything domain.coerce takes."""
    return Polynomial(domain, [(tuple(factors), domain.coerce(coeff))
                               for coeff, factors in terms])


def constant(domain, value) -> Polynomial:
    return poly(domain, (value, ()))


def variable(domain, var: str) -> Polynomial:
    return Polynomial(domain, [((var,), domain.rone)])


def add(f: Polynomial, g: Polynomial) -> Polynomial:
    return Polynomial(f.domain, [*f.items(), *g.items()])


def neg(f: Polynomial) -> Polynomial:
    rneg = f.domain.rneg
    return Polynomial(f.domain, [(fs, rneg(c)) for fs, c in f.items()])


def mul(f: Polynomial, g: Polynomial) -> Polynomial:
    rmul = f.domain.rmul
    return Polynomial(f.domain, [(f1 + f2, rmul(c1, c2))
                                 for f1, c1 in f.items()
                                 for f2, c2 in g.items()])


def evaluate(f: Polynomial, assignment):
    """Raw value under a {variable name: raw value} assignment."""
    dom = f.domain
    total = dom.rzero
    for factors, acc in f.items():
        for v in factors:
            acc = dom.rmul(acc, assignment[v])
        total = dom.radd(total, acc)
    return total


def sorted_terms(f: Polynomial) -> tuple:
    """(factor tuple, raw coefficient) pairs in the canonical order."""
    return _sort_terms(f.items())


def length(f: Polynomial) -> int:
    """Symbol count: each variable occurrence and each coefficient is 1."""
    return sum(len(factors) + 1 for factors, _ in f.items())


def product_length(f: Polynomial) -> int:
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


def normalize(expr, domain) -> Polynomial:
    """Rewrite a raw expression into sum-of-monomials normal form."""
    if isinstance(expr, Polynomial):
        if expr.domain != domain:
            raise ValueError("mixed domains in expression")
        return expr
    if isinstance(expr, str):
        return variable(domain, expr)
    if isinstance(expr, EConst):
        return constant(domain, expr.value)
    if isinstance(expr, EVar):
        return normalize(expr.var, domain)
    if isinstance(expr, ENeg):
        return neg(normalize(expr.part, domain))
    if isinstance(expr, EAdd):
        total = Polynomial(domain)
        for part in expr.parts:
            total = add(total, normalize(part, domain))
        return total
    if isinstance(expr, EMul):
        total = constant(domain, 1)
        for part in expr.parts:
            total = mul(total, normalize(part, domain))
        return total
    raise ValueError("not a polynomial expression: %r" % (expr,))


def eval_expr(expr, assignment, domain):
    """Evaluate a raw expression tree directly, without normalizing."""
    if isinstance(expr, Polynomial):
        return evaluate(expr, assignment)
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
