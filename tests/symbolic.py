"""Symbolic letters, the entries of their product, and its numeric
evaluation, kept apart from eqsolve.

symbolic_letters() lays out a word's letters in the formal reduction, for
reduction.symbolic_product, which returns a raw grid; entry() and
upper_entries() read its entries as polynomials, and evaluate_matrix()
evaluates every entry at a slot assignment and rebuilds the group element.
The commutation tests compare it with evaluate_word.
"""

from __future__ import annotations

from eqsolve.groups import GroupElement
from eqsolve.poly import entry_polynomial
from eqsolve.reduction import _variable_letter, _word_letters
from polyexpr import evaluate


def symbolic_letters(group, word, var_index) -> list:
    """slot_grid_product letter per word position, variable var_index[name]
    in its formal layout; equal variables share slot variables."""
    return _word_letters(group, word, {
        name: _variable_letter(group, k, True)
        for name, k in var_index.items()})


def entry(group, grid, i: int, j: int):
    """Entry (i, j), 1-based, of a raw grid as a Polynomial."""
    return entry_polynomial(group.domain, grid[i - 1][j - 1])


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
        rows[i - 1][j - 1] = evaluate(poly, assignment)
    element = GroupElement(group, tuple(tuple(r) for r in rows))
    group._check_membership(element.rows)
    return element
