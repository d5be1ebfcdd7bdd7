"""Raw polynomial expression trees, kept apart from eqsolve.poly.

normalize() rewrites a tree into eqsolve's sum-of-monomials normal form, and
eval_expr() evaluates the tree directly; comparing the two gives the poly
tests an evaluation path that is independent of the normal-form arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from eqsolve.domains import Scalar
from eqsolve.poly import PolyError, Polynomial, Variable


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
    value: Scalar


@dataclass(frozen=True)
class EVar(Expr):
    var: Variable


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
    if isinstance(obj, Scalar):
        return EConst(obj)
    if isinstance(obj, Variable):
        return EVar(obj)
    raise PolyError("cannot use %r in a polynomial expression" % (obj,))


def normalize(expr, domain) -> Polynomial:
    """Rewrite a raw expression into sum-of-monomials normal form."""
    if isinstance(expr, Polynomial):
        if expr.domain != domain:
            raise PolyError("mixed domains in expression")
        return expr
    if isinstance(expr, Scalar):
        if expr.domain != domain:
            raise PolyError("mixed domains in expression")
        return Polynomial.constant(expr)
    if isinstance(expr, Variable):
        return Polynomial.variable(domain, expr)
    if isinstance(expr, EConst):
        return normalize(expr.value, domain)
    if isinstance(expr, EVar):
        return normalize(expr.var, domain)
    if isinstance(expr, ENeg):
        return -normalize(expr.part, domain)
    if isinstance(expr, EAdd):
        total = Polynomial.zero(domain)
        for part in expr.parts:
            total = total + normalize(part, domain)
        return total
    if isinstance(expr, EMul):
        total = Polynomial.constant(domain.one())
        for part in expr.parts:
            total = total * normalize(part, domain)
        return total
    raise PolyError("not a polynomial expression: %r" % (expr,))


def eval_expr(expr, assignment, domain) -> Scalar:
    """Evaluate a raw expression tree directly, without normalizing."""
    if isinstance(expr, Polynomial):
        return expr.evaluate(assignment)
    if isinstance(expr, Scalar):
        return expr
    if isinstance(expr, Variable):
        try:
            return assignment[expr]
        except KeyError:
            raise PolyError("no value for variable %s" % expr.name) from None
    if isinstance(expr, EConst):
        return expr.value
    if isinstance(expr, EVar):
        return eval_expr(expr.var, assignment, domain)
    if isinstance(expr, ENeg):
        return -eval_expr(expr.part, assignment, domain)
    if isinstance(expr, EAdd):
        total = domain.zero()
        for part in expr.parts:
            total = total + eval_expr(part, assignment, domain)
        return total
    if isinstance(expr, EMul):
        total = domain.one()
        for part in expr.parts:
            total = total * eval_expr(part, assignment, domain)
        return total
    raise PolyError("not a polynomial expression: %r" % (expr,))
