"""Numeric evaluation of a symbolic matrix product, kept apart from eqsolve.

evaluate_matrix() evaluates every entry polynomial of a
reduction.SymbolicMatrix at a slot assignment and rebuilds the group element;
the commutation tests compare it with evaluate_word.
"""

from __future__ import annotations

from eqsolve.groups import GroupElement


def evaluate_matrix(matrix, assignment) -> GroupElement:
    """Evaluate every entry at a slot assignment and rebuild the element."""
    group = matrix.group
    m = group.m
    rows = [[group.domain.rzero] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            rows[i][j] = matrix.grid[i][j].evaluate(assignment).raw
    element = GroupElement(group, tuple(tuple(r) for r in rows))
    group._check_membership(element.rows)
    return element
