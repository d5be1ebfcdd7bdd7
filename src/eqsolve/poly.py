"""Read-only entry polynomials, and the slot-grid sum that makes them.

An entry polynomial is a read-only view of one raw {factor tuple: raw
coefficient} dict: no two monomials share a factor tuple, no monomial has a
zero coefficient, and variables, which are their name strings, commute, so
each factor tuple is sorted.  The solver reads the terms unordered (items());
only printing sorts them into the canonical order.

slot_grid_sum is the one grid both reductions build: a signed sum of
products of slot_letter matrices of slots, F - G for a group equation
between words and the sum of c * monomial less t[k] * a_k for a ring
question.  The y^d = 1 cut lives in the letters' slots.
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


# -- slot-grid sums -----------------------------------------------------------

def slot_letter(dom, rows, slots=(), row_orders=None) -> list:
    """A matrix as a letter of slot_grid_sum: one list per row of (column,
    raw coefficient, variable or None, cut) slots, 0-based, holding the
    nonzero entries of the raw rows as constants, except that each slot
    (i, j, coeff, var, values) of a layout puts coeff * var at (i, j).
    Given the rows' subgroup orders, a diagonal slot in a row of order d
    has cut d (var^d = 1); every other slot has cut None."""
    zero = dom.rzero
    letter = [[(j, raw, None, None) for j, raw in enumerate(row) if raw != zero]
              for row in rows]
    for i, j, coeff, var, _ in slots:
        cut = row_orders[i] if row_orders and i == j else None
        letter[i] = [s for s in letter[i] if s[0] != j] + [(j, coeff, var, cut)]
    return letter


def slot_grid_sum(dom, m: int, products) -> list:
    """The sum of scalar * (product of letters, left to right) over the
    (scalar, letters) pairs, as one m x m grid of raw {factor tuple:
    coefficient} dicts.

    Letters are slot_letter's, with no zero coefficient.  A product starts
    at its first letter, scaled, and its last letter adds straight into the
    sum; an empty product is the identity, and a one-letter product adds
    through the identity.  Each term is added into its output entry as it
    is formed, deleting sums that cancel, so entries stay raw dicts with no
    zero coefficient; entry_polynomial wraps them unsorted.  A slot with
    cut d cuts its variable's exponent below d as the product is formed,
    from the first letter on: var^d = 1, and var^1 = 1 leaves the constant.
    """
    rzero, rone, radd, rmul = dom.rzero, dom.rone, dom.radd, dom.rmul
    identity = ([[(i, rone, None, None)] for i in range(m)],)
    total = [[{} for _ in range(m)] for _ in range(m)]
    for scalar, letters in products:
        if scalar == rzero:
            continue
        first, *rest = letters or identity
        # each row as its nonzero (column, entry) pairs
        rows = [[(j, {() if var is None or cut == 1 else (var,): c})
                 for j, coeff, var, cut in slots
                 for c in (rmul(scalar, coeff),) if c != rzero]
                for slots in first]
        rest = rest or identity
        for n, letter in enumerate(rest, 1 - len(rest)):
            outs = [[{} for _ in range(m)] for _ in range(m)] if n else total
            for row, out in zip(rows, outs):
                for col, left in row:
                    for j, coeff, var, cut in letter[col]:
                        acc = out[j]
                        for f, c in left.items():
                            # distinct keys of left stay distinct, also
                            # where var^cut = 1 drops cut copies of var
                            if var is not None:
                                f = (tuple(sorted(f + (var,)))
                                     if cut is None or f.count(var) < cut - 1
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
            rows = [[(j, e) for j, e in enumerate(out) if e] for out in outs]
    return total


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
