"""Symbolic letters, the entries of their product, and its numeric
evaluation, kept apart from eqsolve.

symbolic_letters() lays out a word's letters in the formal reduction, and
word_product() multiplies them out through reduction.symbolic_product,
which returns a raw grid; entry() and upper_entries() read its entries,
and evaluate_matrix() evaluates every entry at a slot
assignment and rebuilds the group element.  The commutation tests compare
it with evaluate_word.  reference_product() forms a product the way
poly.slot_grid_sum did before it started from its first letter: a starting
grid (such as scalar_grid's c * I) times every letter, each slot's terms
merged by merge_terms.
"""

from __future__ import annotations

from eqsolve import reduction
from eqsolve.groups import GroupElement
from eqsolve.poly import slot_letter
from polyexpr import evaluate


def formal_letter(group, k: int, cut=False) -> list:
    """Unknown k's letter in its formal layout.  With cut, it is built
    through slot_letter with the row orders, so that each diagonal slot
    cuts y^d = 1 and the y slot of an order-1 row becomes the constant."""
    layout, letter, _ = group.unknown(k, True)
    if not cut:
        return letter
    return slot_letter(group.domain, group.identity().rows, layout,
                       group.orders)


def symbolic_letters(group, word, var_index, cut=False) -> list:
    """slot_grid_sum letter per word position, variable var_index[name]
    in its formal layout (formal_letter); equal variables share slot
    variables."""
    return group.letters(word, {
        name: formal_letter(group, k, cut) for name, k in var_index.items()})


def word_product(group, letters) -> list:
    """The raw grid of one word's letters: symbolic_product of the product
    scaled by 1."""
    return reduction.symbolic_product(group, ((group.domain.rone, letters),))


def scalar_grid(dom, m: int, raw) -> list:
    """raw * I as an m x m grid of raw {factor tuple: coefficient} dicts."""
    entry = {(): raw} if raw != dom.rzero else {}
    return [[dict(entry) if i == j else {} for j in range(m)]
            for i in range(m)]


def merge_terms(acc, terms, radd, rzero):
    """Add terms with distinct factor tuples into the raw dict acc, deleting
    sums that cancel."""
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


def reference_product(dom, grid, letters) -> list:
    """A raw grid (left unchanged, e.g. scalar_grid's c * I) times
    slot_grid_sum letters, left to right, each slot's terms listed and then
    merged into its output entry; a slot's cut d cuts exponents as in
    slot_grid_sum."""
    rzero, radd, rmul = dom.rzero, dom.radd, dom.rmul
    for letter in letters:
        new = []
        for row in grid:
            out = [{} for _ in row]
            for left, slots in zip(row, letter):
                for j, coeff, var, d in slots:
                    terms = left.items()
                    if var is not None:
                        terms = [(tuple(sorted(f + (var,)))
                                  if d is None or f.count(var) < d - 1
                                  else tuple(v for v in f if v != var), c)
                                 for f, c in terms]
                    terms = [(f, rmul(c, coeff)) for f, c in terms]
                    merge_terms(out[j], [t for t in terms if t[1] != rzero],
                                radd, rzero)
            new.append(out)
        grid = new
    return grid


def entry(group, grid, i: int, j: int):
    """Entry (i, j), 1-based, of a raw grid."""
    return grid[i - 1][j - 1]


def upper_entries(group, grid) -> tuple:
    """((i, j), polynomial) for all 1 <= i <= j <= m."""
    m = group.m
    return tuple(((i, j), entry(group, grid, i, j))
                 for i in range(1, m + 1) for j in range(i, m + 1))


def evaluate_matrix(group, grid, assignment) -> GroupElement:
    """Evaluate every entry at a slot assignment and rebuild the element."""
    m = group.m
    rows = [[group.domain.rzero] * m for _ in range(m)]
    for (i, j), poly in upper_entries(group, grid):
        rows[i - 1][j - 1] = evaluate(group.domain, poly, assignment)
    element = GroupElement(group, tuple(tuple(r) for r in rows))
    group._check_membership(element.rows)
    return element
