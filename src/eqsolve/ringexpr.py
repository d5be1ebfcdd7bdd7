"""Nilpotent matrix rings and expressions over them.

A ring M(m, Z_{p^a}) holds the m x m matrices over Z_{p^a} with every entry
on or below the main diagonal a multiple of p.  It is nilpotent of class at
most m*a: along any index chain through a product, each on-or-below-diagonal
step contributes a factor p and at most m - 1 consecutive strictly-above
steps can occur, so products of m*a elements vanish.  Expressions are trees
of variables, constants, sums, products, negations and integer multiples.
fold_expr is the one walk that combines their values and the one place
that checks them: sigma_expand folds them into sums of monomials with that
truncation applied, and eval_ring_expr evaluates them directly.  The
equation layer on top of this module is eqsolve.rings, which also
re-exports every name here.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

from .domains import (MATRIX_LIMIT, ModularRing, exceeds_domain_limit,
                      is_prime, residue_matadd, residue_matmul,
                      residue_matscale)


class RingError(ValueError):
    """Invalid ring description, element, or expression."""


@dataclass(frozen=True)
class NilpotentMatrixRing:
    """Descriptor of the ring; build via make_ring()."""

    p: int
    alpha: int
    m: int

    @cached_property
    def modulus(self) -> int:
        return self.p ** self.alpha

    @property
    def nilpotency_bound(self) -> int:
        """Every product of this many elements is zero."""
        return self.m * self.alpha

    @property
    def cardinality(self) -> int:
        above = self.m * (self.m - 1) // 2
        on_below = self.m * (self.m + 1) // 2
        return (self.p ** self.alpha) ** above * (self.p ** (self.alpha - 1)) ** on_below

    @cached_property
    def domain(self) -> ModularRing:
        return ModularRing(self.p, self.alpha)

    # the unrolled residue kernels of RingElement's *, +, - and scale
    @cached_property
    def _matmul(self):
        return residue_matmul(self.modulus, self.m, False)

    @cached_property
    def _matadd(self):
        return residue_matadd(self.modulus, self.m, 1)

    @cached_property
    def _matsub(self):
        return residue_matadd(self.modulus, self.m, -1)

    @cached_property
    def _matscale(self):
        return residue_matscale(self.modulus, self.m)

    def zero(self) -> "RingElement":
        row = (0,) * self.m
        return RingElement(self, (row,) * self.m)

    def element(self, rows) -> "RingElement":
        """Build a validated element from an m x m grid of residues."""
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise RingError("element grid must be %d x %d" % (self.m, self.m))
        n = self.modulus
        raw = tuple(tuple(int(v) % n for v in r) for r in rows)
        for i in range(self.m):
            for j in range(self.m):
                if i >= j and raw[i][j] % self.p != 0:
                    raise RingError(
                        "entry (%d,%d) = %d must be a multiple of %d"
                        % (i + 1, j + 1, raw[i][j], self.p))
        return RingElement(self, raw)

    def elements(self):
        """All elements in canonical (row-major slot) order."""
        n = self.modulus
        above = tuple(range(n))
        on_below = tuple(v * self.p for v in range(self.p ** (self.alpha - 1)))
        slot_ranges = []
        for i in range(self.m):
            for j in range(self.m):
                slot_ranges.append(above if i < j else on_below)
        shared = {}  # equal rows share one tuple across the elements
        m = self.m
        for combo in itertools.product(*slot_ranges):
            rows = tuple(shared.setdefault(row, row) for row in
                         (combo[i * m:(i + 1) * m] for i in range(m)))
            yield RingElement(self, rows)

    def __repr__(self):
        return "M(%d, Z(%d))" % (self.m, self.modulus)


class RingElement:
    """Matrix over Z_{p^a} with p | entry on or below the diagonal; immutable."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = rows

    def _check(self, other):
        # one shared descriptor is the usual case, and cheaper than ==
        if not isinstance(other, RingElement) or (other.ring is not self.ring
                                                  and other.ring != self.ring):
            raise RingError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._matadd(self.rows, other.rows))

    def __sub__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._matsub(self.rows, other.rows))

    def __neg__(self):
        return self.scale(-1)

    def __mul__(self, other):
        self._check(other)
        return RingElement(self.ring, self.ring._matmul(self.rows, other.rows))

    def scale(self, c: int) -> "RingElement":
        return RingElement(self.ring, self.ring._matscale(self.rows, c))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.ring == other.ring and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "[%s]" % ",".join(
            "[%s]" % ",".join(str(v) for v in row) for row in self.rows)


def make_ring(p: int, alpha: int, m: int) -> NilpotentMatrixRing:
    if alpha < 1 or m < 1:
        raise RingError("need alpha >= 1 and m >= 1")
    if m > MATRIX_LIMIT:
        raise RingError("matrix size %d exceeds the limit of %d"
                        % (m, MATRIX_LIMIT))
    if exceeds_domain_limit(p, alpha):
        raise RingError("Z_(%d^%d) exceeds the limit of 2^20 residues per "
                        "domain" % (p, alpha))
    if not is_prime(p):
        raise RingError("p = %d is not prime" % p)
    return NilpotentMatrixRing(p, alpha, m)


@lru_cache(maxsize=None)
def ring_elements(ring: NilpotentMatrixRing):
    """Canonically ordered tuple of all elements (cached)."""
    return tuple(ring.elements())


# -- expressions and the sum-of-monomials (sigma) form -------------------------

class RingExpr:
    def __add__(self, other):
        return RSum((self, other))

    def __sub__(self, other):
        return RSum((self, RNeg(other)))

    def __mul__(self, other):
        return RProd((self, other))

    def __neg__(self):
        return RNeg(self)


@dataclass(frozen=True)
class RVar(RingExpr):
    name: str


@dataclass(frozen=True)
class RConst(RingExpr):
    value: RingElement


@dataclass(frozen=True)
class RSum(RingExpr):
    parts: tuple


@dataclass(frozen=True)
class RProd(RingExpr):
    parts: tuple


@dataclass(frozen=True)
class RNeg(RingExpr):
    part: RingExpr


@dataclass(frozen=True)
class RScale(RingExpr):
    """Integer multiple of an expression (repeated addition)."""

    coeff: int
    part: RingExpr


def fold_expr(expr, ring: NilpotentMatrixRing, ops):
    """Fold an expression tree bottom-up through
    ops = (var, const, neg, scale, add, mul, zero).

    var(name) and const(element) give the values of the leaves (a bare
    element is a constant); neg(x) and scale(coeff, x) map a value, add and
    mul combine the list of a sum's or a product's part values, in order,
    and zero(ring) is the value of an empty sum.

    This is the one place that checks an expression: a constant of another
    ring, an empty product and anything that is not an expression node
    raise RingError.
    """
    var, const, neg, scale, add, mul, zero = ops
    # recursion goes through the module function, not through a nested
    # closure, whose reference cycle would leave every call to the collector
    if isinstance(expr, RVar):
        return var(expr.name)
    if isinstance(expr, (RConst, RingElement)):
        value = expr.value if isinstance(expr, RConst) else expr
        if not isinstance(value, RingElement) or (value.ring is not ring
                                                  and value.ring != ring):
            raise RingError("constant %r is not an element of %s"
                            % (value, ring))
        return const(value)
    if isinstance(expr, RProd):
        if not expr.parts:
            raise RingError(
                "empty product has no meaning in a non-unital ring")
        return mul([fold_expr(part, ring, ops) for part in expr.parts])
    if isinstance(expr, RSum):
        if not expr.parts:
            return zero(ring)
        return add([fold_expr(part, ring, ops) for part in expr.parts])
    if isinstance(expr, RNeg):
        return neg(fold_expr(expr.part, ring, ops))
    if isinstance(expr, RScale):
        return scale(expr.coeff, fold_expr(expr.part, ring, ops))
    raise RingError("not a ring expression: %r" % (expr,))


def sigma_expand(expr, ring: NilpotentMatrixRing) -> tuple:
    """Expand an expression into a sum of monomials: a tuple of
    (coeff, letters) pairs, the letters being variable names or constant
    elements.

    Products are distributed over sums, and every monomial with at least
    m*alpha letter factors is dropped: such a product of ring elements is
    already the zero matrix.  Equal letter tuples are merged, coefficients
    reduced mod p^a, and zero terms and terms with a zero constant dropped;
    the pairs keep the order in which their letters first appear in the
    expansion.
    """
    cutoff = ring.nilpotency_bound
    n = ring.modulus

    def mul(left, right):
        # partial products only ever grow, so pruning at the bound is safe
        return [(c1 * c2, l1 + l2) for c1, l1 in left for c2, l2 in right
                if len(l1) + len(l2) < cutoff]

    merged = {}
    for coeff, letters in fold_expr(expr, ring, (
            lambda name: [(1, (name,))],
            lambda value: [(1, (value,))],
            lambda terms: [(-c, letters) for c, letters in terms],
            lambda coeff, terms: [(coeff * c, l) for c, l in terms],
            partial(reduce, operator.add), partial(reduce, mul),
            lambda ring: [])):
        coeff %= n
        if coeff == 0 or len(letters) >= cutoff:
            continue
        if any(isinstance(l, RingElement) and l.is_zero() for l in letters):
            continue
        acc = merged.get(letters)
        merged[letters] = (acc + coeff) % n if acc is not None else coeff
    return tuple((c, letters) for letters, c in merged.items() if c)


# RingElement operations for eval_ring_expr, which adds the variable lookup
_ELEMENT_OPS = (lambda value: value, operator.neg,
                lambda coeff, value: value.scale(coeff),
                partial(reduce, operator.add), partial(reduce, operator.mul),
                NilpotentMatrixRing.zero)


def eval_ring_expr(expr, assignment, ring) -> RingElement:
    """Evaluate an expression tree directly, without expanding it."""

    def var(name):
        try:
            value = assignment[name]
        except KeyError:
            raise RingError("no value for ring variable %r" % name) from None
        if not isinstance(value, RingElement) or value.ring != ring:
            raise RingError("value for %r is not an element of %s"
                            % (name, ring))
        return value

    return fold_expr(expr, ring, (var,) + _ELEMENT_OPS)


def expr_variables(expr):
    """Distinct variable names in order of first occurrence."""
    # an explicit stack: build_ring_system calls this on every build, and a
    # recursive closure would leave a reference cycle per call
    seen = {}
    stack = [expr]
    while stack:
        e = stack.pop()
        if isinstance(e, RVar):
            seen.setdefault(e.name, None)
        elif isinstance(e, (RSum, RProd)):
            stack.extend(reversed(e.parts))
        elif isinstance(e, (RNeg, RScale)):
            stack.append(e.part)
    return tuple(seen)
