"""Read-only entry polynomials, and the slot-grid product that makes them.

An entry polynomial is a read-only view of one raw {factor tuple: raw
coefficient} dict: no two monomials share a factor tuple, no monomial has a
zero coefficient, and variables, which are their name strings, commute, so
each factor tuple is sorted.  The solver reads the terms unordered (items());
only printing sorts them into the canonical order.

slot_grid_product is the one matrix product both reductions use: group words
and ring monomials are products of slot_letter matrices of slots, started
from the first letter scaled by 1 or by the ring monomial's coefficient.
"""

from __future__ import annotations


def _term_key(factors):
    return (-len(factors), factors)


def _sort_terms(terms):
    """Canonical order of (factor tuple, raw coefficient) terms."""
    return tuple(sorted(terms, key=lambda t: _term_key(t[0])))


class Polynomial:
    """Read-only polynomial: the raw {factor tuple: coefficient} dict it was
    built from, held as it is and never changed.

    items() reads the terms in no particular order, which is all the solver
    needs; repr sorts them into the canonical order.  Polynomials compare
    and hash by identity: compare dict(p.items()) for equal terms.
    """

    __slots__ = ("domain", "_coeffs")

    def __init__(self, domain, terms=()):
        """Sum (factor iterable, raw coefficient) terms: factors are sorted
        by name, equal factor tuples merged and zero sums dropped."""
        coeffs = {}
        for factors, raw in terms:
            factors = tuple(sorted(factors))
            acc = coeffs.get(factors)
            coeffs[factors] = domain.radd(acc, raw) if acc is not None else raw
        self.domain = domain
        self._coeffs = {f: c for f, c in coeffs.items() if c != domain.rzero}

    def items(self):
        """(factor tuple, raw coefficient) pairs, in no particular order."""
        return self._coeffs.items()

    def is_zero(self) -> bool:
        return not self._coeffs

    def monomial_count(self) -> int:
        return len(self._coeffs)

    def __repr__(self):
        if not self._coeffs:
            return "0"
        parts = []
        for factors, raw in _sort_terms(self._coeffs.items()):
            coeff = self.domain.encode(raw)
            if not factors:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append("*".join(factors))
            else:
                parts.append("*".join((str(coeff),) + factors))
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


def slot_grid_product(dom, scalar, letters, orders=None) -> list:
    """scalar times the product of letters (not empty), left to right,
    started from the first letter.

    Each letter is one list per row of (column, raw coefficient, variable
    or None) slots, 0-based, with no zero coefficient.  Each term is added
    into its output entry as it is formed, so entries stay raw dicts with
    no zero coefficient; entry_polynomial wraps them unsorted.  orders maps
    variables that satisfy var^d = 1 to d; their exponents are cut below d
    as the product is formed, from the first letter on.
    """
    rzero, rone, radd, rmul = dom.rzero, dom.rone, dom.radd, dom.rmul
    orders = orders or {}
    first, *rest = letters
    grid = [[{} for _ in first] for _ in first]
    for out, slots in zip(grid, first):
        for j, coeff, var in slots:
            c = rmul(scalar, coeff)
            if c != rzero:
                # y^1 = 1 leaves the constant 1
                out[j][() if var is None or orders.get(var) == 1
                       else (var,)] = c
    for letter in rest:
        new = []
        for row in grid:
            out = [{} for _ in row]
            for left, slots in zip(row, letter):
                if not left:
                    continue
                for j, coeff, var in slots:
                    acc = out[j]
                    d = orders.get(var)
                    for f, c in left.items():
                        # distinct keys of left stay distinct, also where
                        # var^d = 1 cancels d copies of var (a unit)
                        if var is not None:
                            f = (tuple(sorted(f + (var,)))
                                 if d is None or f.count(var) < d - 1
                                 else tuple(v for v in f if v != var))
                        if coeff != rone:
                            c = rmul(c, coeff)
                            if c == rzero:   # a zero divisor's product
                                continue
                        prev = acc.get(f)
                        if prev is None:
                            acc[f] = c
                        else:
                            c = radd(prev, c)
                            if c == rzero:
                                del acc[f]
                            else:
                                acc[f] = c
            new.append(out)
        grid = new
    return grid


def merge_grid(dom, total, grid) -> None:
    """Add a raw grid into the raw grid total, entry by entry, deleting
    sums that cancel."""
    radd, rzero = dom.radd, dom.rzero
    for acc_row, row in zip(total, grid):
        for acc, entry in zip(acc_row, row):
            for factors, c in entry.items():
                prev = acc.get(factors)
                if prev is None:
                    acc[factors] = c
                else:
                    c = radd(prev, c)
                    if c == rzero:
                        del acc[factors]
                    else:
                        acc[factors] = c


def entry_polynomial(dom, entry) -> Polynomial:
    """One raw entry of a grid as a Polynomial, which owns the dict: no
    product or merge may change the entry afterwards."""
    poly = Polynomial.__new__(Polynomial)
    poly.domain, poly._coeffs = dom, entry
    return poly


def grid_polynomials(dom, grid) -> tuple:
    """Each raw entry of a grid as a Polynomial (see entry_polynomial)."""
    return tuple(tuple(entry_polynomial(dom, entry) for entry in row)
                 for row in grid)
