"""Symbolic letters and the numeric evaluation of their product, kept apart
from eqsolve.

symbolic_letters() lays out a word's letters in the formal reduction, for
reduction.symbolic_product; evaluate_matrix() evaluates every entry
polynomial of the resulting reduction.SymbolicMatrix at a slot assignment
and rebuilds the group element.  The commutation tests compare it with
evaluate_word.
"""

from __future__ import annotations

from eqsolve.groups import GroupElement
from eqsolve.reduction import _variable_letter, _word_letters
from polyexpr import evaluate


def symbolic_letters(group, word, var_index) -> list:
    """slot_grid_product letter per word position, variable var_index[name]
    in its formal layout; equal variables share slot variables."""
    return _word_letters(group, word, {
        name: _variable_letter(group, k, True)
        for name, k in var_index.items()})


def evaluate_matrix(matrix, assignment) -> GroupElement:
    """Evaluate every entry at a slot assignment and rebuild the element."""
    group = matrix.group
    m = group.m
    rows = [[group.domain.rzero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = evaluate(matrix.entry(i + 1, j + 1), assignment)
    element = GroupElement(group, tuple(tuple(r) for r in rows))
    group._check_membership(element.rows)
    return element
