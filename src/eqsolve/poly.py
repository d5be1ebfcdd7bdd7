"""Entry polynomials, and the slot-grid sum that makes them.

An entry polynomial is a {factor tuple: raw coefficient} dict with no zero
coefficient; variables, which are their name strings, commute, so each
factor tuple is sorted.  The solver reads the terms unordered; only
cli.render_system sorts them, into the canonical order.

slot_grid_sum is the one grid both reductions build: a signed sum of
products of slot_letter matrices of slots, F - G for a group equation
between words and the sum of c * monomial less t[k] * a_k for a ring
question.  The y^d = 1 cut lives in the letters' slots.  Each row of a
running product, and of the sum, is one {(column, factor tuple):
coefficient} dict; the sum's rows are split into entries at the end.
"""

from __future__ import annotations


class Polynomial(dict):
    """An entry polynomial: the raw {factor tuple: coefficient} dict itself,
    which no product or merge changes once its grid is summed."""

    __slots__ = ()

    def monomial_count(self) -> int:
        return len(self)


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
    (scalar, letters) pairs, as one m x m grid of Polynomials.

    Letters are slot_letter's, with no zero coefficient.  A product's rows
    are {(column, factor tuple): coefficient} dicts; it starts at its first
    letter, scaled, and its last letter adds straight into the sum's row
    dicts.  An empty product is the identity, and a one-letter product adds
    through the identity.  Each term is added into its row as it is formed,
    deleting sums that cancel, so no entry holds a zero coefficient.  A
    slot with cut d cuts its variable's exponent below d as the product is
    formed, from the first letter on: var^d = 1, and var^1 = 1 leaves the
    constant.
    """
    rzero, rone, radd, rmul = dom.rzero, dom.rone, dom.radd, dom.rmul
    identity = ([[(i, rone, None, None)] for i in range(m)],)
    total = [{} for _ in range(m)]
    for scalar, letters in products:
        if scalar == rzero:
            continue
        first, *rest = letters or identity
        rows = [{(j, () if var is None or cut == 1 else (var,)): c
                 for j, coeff, var, cut in slots
                 for c in (rmul(scalar, coeff),) if c != rzero}
                for slots in first]
        rest = rest or identity
        for n, letter in enumerate(rest, 1 - len(rest)):
            outs = [{} for _ in range(m)] if n else total
            for row, acc in zip(rows, outs):
                for (col, f), c in row.items():
                    for j, coeff, var, cut in letter[col]:
                        # var^cut = 1: a cut-th copy of var drops them all
                        key = (j, f if var is None
                               else tuple(sorted(f + (var,)))
                               if cut is None or f.count(var) < cut - 1
                               else tuple(v for v in f if v != var))
                        t = c if coeff == rone else rmul(c, coeff)
                        if t == rzero:   # a zero divisor's product
                            continue
                        prev = acc.get(key)
                        if prev is not None:
                            t = radd(prev, t)
                            if t == rzero:
                                del acc[key]
                                continue
                        acc[key] = t
            rows = outs
    grid = [[Polynomial() for _ in range(m)] for _ in range(m)]
    for row, entries in zip(total, grid):
        for (j, f), c in row.items():
            entries[j][f] = c
    return grid
