"""Multivariate polynomials over a scalar domain, in sum-of-monomials normal form.

Normal form means: no two monomials share a factor list and no monomial has a
zero coefficient.  Field- and subgroup-sorted variables commute, so their
factor lists are kept sorted by variable name; ring-sorted variables do not
commute and their factor order is preserved.  The length measure ``length()``
counts one symbol per variable occurrence plus one per coefficient;
``product_length()`` counts factor symbols only (a bare constant counts as
one), which is the measure the rewriting size bounds are stated in.

slot_grid_product is the one matrix product both reductions use: group words
and ring monomials are products of slot_letter matrices of slots.
"""

from __future__ import annotations

from operator import itemgetter

from .domains import Scalar, _same_domain

FIELD = "field"
SUBGROUP = "subgroup"
RING = "ring"


class PolyError(ValueError):
    """Malformed polynomial expression or evaluation request."""


class Variable(tuple):
    """A sorted variable; subgroup-valued variables carry their row index.

    The tuple (name, sort, row), so hashing a factor tuple of variables runs
    in C; the slot constructors of the reductions return one shared object
    per slot, so equal factor tuples also compare in C, element by element
    by identity, without calling __eq__.  Equal variables need not be one
    object, and a Variable never equals a plain tuple.
    """

    __slots__ = ()

    def __new__(cls, name: str, sort: str = FIELD, row: int = None):
        return tuple.__new__(cls, (name, sort, row))

    name = property(itemgetter(0))
    sort = property(itemgetter(1))
    row = property(itemgetter(2))

    def __reduce__(self):
        return Variable, tuple(self)

    def __eq__(self, other):
        return isinstance(other, Variable) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__

    def __repr__(self):
        return self.name


_by_name = itemgetter(0)


def _canon_factors(factors):
    factors = tuple(factors)
    for v in factors:
        if v.sort == RING:
            return factors
    return tuple(sorted(factors, key=_by_name))


def _term_key(factors):
    return (-len(factors), tuple(v.name for v in factors))


def _sort_terms(terms):
    """Canonical order of (factor tuple, raw coefficient) terms."""
    return tuple(sorted(terms, key=lambda t: _term_key(t[0])))


def _merge(acc, terms, radd, rzero):
    """Add terms with distinct factor tuples into the raw dict acc, deleting
    sums that cancel."""
    if not acc:
        acc.update(terms)
        return
    for factors, c in terms:
        prev = acc.get(factors)
        if prev is None:
            acc[factors] = c
        else:
            c = radd(prev, c)
            if c == rzero:
                del acc[factors]
            else:
                acc[factors] = c


class Polynomial:
    """Immutable polynomial; arithmetic keeps the normal form invariant.

    The terms are the raw {factor tuple: coefficient} dict the polynomial
    was built from, held as it is and never changed.  items()
    reads them in no particular order, which is all that evaluation, the
    solver, equality and hashing need; _terms sorts them into the canonical
    order on first read, for printing and monomials().
    """

    __slots__ = ("domain", "_coeffs", "_sorted")

    def __init__(self, domain, terms=()):
        coeffs = {}
        for factors, raw in terms:
            factors = _canon_factors(factors)
            acc = coeffs.get(factors)
            coeffs[factors] = domain.radd(acc, raw) if acc is not None else raw
        self.domain = domain
        self._coeffs = {f: c for f, c in coeffs.items() if c != domain.rzero}
        self._sorted = None

    @classmethod
    def _raw(cls, domain, coeffs):
        """Internal: a dict of canonical factor tuples and nonzero raw
        coefficients, which the polynomial now owns."""
        self = cls.__new__(cls)
        self.domain = domain
        self._coeffs = coeffs
        self._sorted = None
        return self

    @classmethod
    def zero(cls, domain):
        return cls._raw(domain, {})

    @classmethod
    def constant(cls, value: Scalar):
        if value.raw == value.domain.rzero:
            return cls.zero(value.domain)
        return cls._raw(value.domain, {(): value.raw})

    @classmethod
    def variable(cls, domain, var: Variable):
        return cls._raw(domain, {(var,): domain.rone})

    @classmethod
    def from_terms(cls, domain, terms):
        """Build from (coefficient Scalar, factor iterable) pairs."""
        raw_terms = []
        for coeff, factors in terms:
            coeff = domain.scalar(coeff)
            raw_terms.append((tuple(factors), coeff.raw))
        return cls(domain, raw_terms)

    # -- inspection ---------------------------------------------------------

    @property
    def _terms(self):
        """(factor tuple, raw coefficient) pairs in canonical order."""
        terms = self._sorted
        if terms is None:
            terms = self._sorted = _sort_terms(self._coeffs.items())
        return terms

    def items(self):
        """(factor tuple, raw coefficient) pairs, in no particular order."""
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def monomials(self):
        """(coefficient Scalar, factor tuple) pairs in canonical order."""
        return tuple((Scalar(self.domain, c), f) for f, c in self._terms)

    def monomial_count(self) -> int:
        return len(self._coeffs)

    def variables(self):
        seen = {}
        for factors, _ in self._terms:
            for v in factors:
                seen[v] = None
        return tuple(seen)

    def degree(self) -> int:
        return max(map(len, self._coeffs), default=0)

    def length(self) -> int:
        """Symbol count: each variable occurrence and each coefficient is 1."""
        return sum(len(f) + 1 for f in self._coeffs)

    def product_length(self) -> int:
        """Factor-symbol count: a monomial of d factors counts max(d, 1)."""
        return sum(max(len(f), 1) for f in self._coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _lift(self, other):
        if isinstance(other, Polynomial):
            if not _same_domain(other.domain, self.domain):
                raise PolyError("mixed polynomial domains: %s vs %s"
                                % (self.domain, other.domain))
            return other
        if isinstance(other, Variable):
            return Polynomial.variable(self.domain, other)
        if isinstance(other, (Scalar, int)):
            return Polynomial.constant(self.domain.scalar(other))
        return NotImplemented

    def __add__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        dom = self.domain
        coeffs = dict(self._coeffs)
        _merge(coeffs, other.items(), dom.radd, dom.rzero)
        return Polynomial._raw(dom, coeffs)

    __radd__ = __add__

    def __neg__(self):
        rneg = self.domain.rneg
        return Polynomial._raw(
            self.domain, {f: rneg(c) for f, c in self._coeffs.items()})

    def __sub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, Variable):
            return self.times_variable(other)
        if isinstance(other, (Scalar, int)):
            return self.times_scalar(self.domain.scalar(other))
        other = self._lift(other)
        if other is NotImplemented:
            return NotImplemented
        dom = self.domain
        return Polynomial(dom, ((f1 + f2, dom.rmul(c1, c2))
                                for f1, c1 in self.items()
                                for f2, c2 in other.items()))

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int, Variable)):
            return self.__mul__(other)
        return NotImplemented

    def times_scalar(self, s: Scalar) -> "Polynomial":
        dom = self.domain
        s = dom.scalar(s).raw
        # over Z_{p^a} a product of nonzeros can be zero
        terms = ((f, dom.rmul(c, s)) for f, c in self.items())
        return Polynomial._raw(dom, {f: c for f, c in terms if c != dom.rzero})

    def times_variable(self, var: Variable) -> "Polynomial":
        return Polynomial._raw(self.domain, {
            _canon_factors(f + (var,)): c for f, c in self.items()})

    # -- evaluation ---------------------------------------------------------

    def evaluate(self, assignment, domains=None) -> Scalar:
        """Exact value under a {Variable: Scalar} assignment.

        When a per-variable domain map is supplied, values are checked
        against it (subgroup-valued variables must receive subgroup members).
        """
        dom = self.domain
        if domains is not None:
            for v in self.variables():
                if v not in assignment:
                    raise PolyError("no value for variable %s" % v.name)
                allowed = domains.get(v)
                if allowed is not None and assignment[v] not in allowed:
                    raise PolyError("value %r outside the domain of %s"
                                    % (assignment[v], v.name))
        total = dom.rzero
        try:
            for factors, raw in self.items():
                acc = raw
                for v in factors:
                    acc = dom.rmul(acc, assignment[v].raw)
                total = dom.radd(total, acc)
        except KeyError as exc:
            raise PolyError("no value for variable %s"
                            % exc.args[0].name) from None
        return Scalar(dom, total)

    # -- comparison / rendering --------------------------------------------

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return (_same_domain(self.domain, other.domain)
                    and self._coeffs == other._coeffs)
        if isinstance(other, (Scalar, int)):
            return self._coeffs == self._lift(other)._coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.domain, frozenset(self._coeffs.items())))

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for factors, raw in self._terms:
            coeff = self.domain.encode(raw)
            names = [v.name for v in factors]
            if not names:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(names))
            else:
                parts.append("*".join([str(coeff)] + names))
        return " + ".join(parts)


# -- slot-grid products ------------------------------------------------------

def scalar_grid(dom, m: int, raw) -> list:
    """raw * I as an m x m grid of raw {factor tuple: coefficient} dicts."""
    entry = {(): raw} if raw != dom.rzero else {}
    return [[dict(entry) if i == j else {} for j in range(m)]
            for i in range(m)]


def slot_letter(dom, rows, slots=()) -> list:
    """A matrix as a letter of slot_grid_product: the nonzero entries of
    the raw rows as constants, except that each slot (i, j, coeff, var,
    values), 0-based, puts coeff * var at (i, j)."""
    zero = dom.rzero
    letter = [[(j, raw, None) for j, raw in enumerate(row) if raw != zero]
              for row in rows]
    for i, j, coeff, var, _ in slots:
        letter[i] = [s for s in letter[i] if s[0] != j] + [(j, coeff, var)]
    return letter


def slot_grid_product(dom, grid, letters, orders=None) -> list:
    """Multiply a raw grid (left unchanged) by letters, left to right.

    Each letter is one list per row of (column, raw coefficient, Variable or
    None) slots, 0-based, with no zero coefficient.  Entries stay raw dicts
    with no zero coefficient; entry_polynomial wraps them unsorted.
    orders maps variables that satisfy var^d = 1 to d; their exponents are
    cut below d as the product is formed.
    """
    rzero, rone, radd, rmul = dom.rzero, dom.rone, dom.radd, dom.rmul
    # over a field, nonzero times nonzero stays nonzero
    zero_divisors = dom.kind != "field"
    for letter in letters:
        new = []
        for row in grid:
            out = [{} for _ in row]
            for left, slots in zip(row, letter):
                if not left:
                    continue
                for j, coeff, var in slots:
                    terms = left.items()
                    if var is not None:
                        # distinct keys of left stay distinct, also where
                        # var^d = 1 cancels d copies of var (a unit)
                        d = orders.get(var) if orders else None
                        terms = [(_canon_factors(f + (var,))
                                  if d is None or f.count(var) < d - 1
                                  else tuple(v for v in f if v != var), c)
                                 for f, c in terms]
                    if coeff != rone:
                        terms = [(f, rmul(c, coeff)) for f, c in terms]
                        if zero_divisors:
                            terms = [t for t in terms if t[1] != rzero]
                    _merge(out[j], terms, radd, rzero)
            new.append(out)
        grid = new
    return grid


def merge_grid(dom, total, grid) -> None:
    """Add a raw grid into the raw grid total, entry by entry."""
    for acc_row, row in zip(total, grid):
        for acc, entry in zip(acc_row, row):
            _merge(acc, entry.items(), dom.radd, dom.rzero)


def entry_polynomial(dom, entry) -> Polynomial:
    """One raw entry of a grid as a Polynomial, which owns the dict: no
    product or merge may change the entry afterwards."""
    return Polynomial._raw(dom, entry)


def grid_polynomials(dom, grid) -> tuple:
    """Each raw entry of a grid as a Polynomial (see entry_polynomial)."""
    return tuple(tuple(entry_polynomial(dom, entry) for entry in row)
                 for row in grid)
