"""Reduction of group word equations to polynomial systems over the field.

Every letter of a word becomes a symbolic upper triangular matrix: constant
letters carry their entries, and the k-th distinct variable is the identity
with a diagonal slot y[i][k] per row (over the row's subgroup) and a slot
x[i][j][k] per pattern position (over the field), laid out by _variable_slots.
The layout and its letter (_variable_letter) depend only on the group, k and
formal, so they are built once per process and shared by every equation.
Multiplying the symbolic letters left to right yields an m x m grid of entry
polynomials: the diagonal entries are single monomials (products of the y
slots) and each above-diagonal entry is a sum of products, one per
non-decreasing index chain through the pattern, with constants folded into
the coefficients.  Positions outside the pattern hold the constant zero, so
chains through them vanish as the product is formed; this keeps the grid
within its O(n^m) size bound instead of enumerating chains up front.  The
grid stays raw (unsorted monomial dicts): an entry polynomial holds its
dict as it is, and the solver reads it unordered.

A word equation F = rhs then holds for a substitution exactly when all the
entry polynomials attain the corresponding rhs entries, which is a
solvability question decided by solver.SlotSystem, the path ring equations
share: SAT witnesses are reassembled from the layout into group elements
and re-checked through evaluate_word before being returned.  For a word
right side G, the raw grid of -G takes in F's grid entry by entry, as
rings.entrywise_rewrite sums its monomials, and only the m(m+1)/2 upper
entries of F - G become constraint polynomials.

build_system gives every diagonal slot its variable by default: that is the
paper's formal reduction, which `eqsolve dump-system` prints.  The two
decision paths, decide_equation and separating_substitution, build with
formal=False instead, which applies one rule: a diagonal slot y of a row
whose subgroup has order d satisfies y^d = 1 on its whole domain.  For
d = 1 the layout has no slot there, so the identity's 1 enters the product
as a constant and is the witness entry; for d > 1 symbolic_product cancels
the d copies of y in a monomial once its exponent reaches d.  Monomials
that then coincide merge or cancel as the product is formed.  The witness of
decide_equation is the lexicographically first solution in the variable
order of this reduced system.

Equivalence needs no solver.  Field slots occur at most once in a monomial
(an index chain never repeats an above-diagonal position), and after the
cut every diagonal exponent is below its slot's order d, so every variable
has an exponent below its domain size.  That is the unique polynomial of
the function on the slot domains, so two words agree everywhere iff every
constraint polynomial of the reduced system F = G is zero.  A nonzero one
is kept nonzero while its variables are fixed one at a time, which the
Combinatorial Nullstellensatz always allows; the values found separate the
words.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .groups import (DEFAULT_GUARD, GroupElement, GroupError, SemipatternGroup,
                     _same_group, evaluate_word, word_variables)
from .poly import (Polynomial, entry_polynomial, merge_grid, scalar_grid,
                   slot_grid_product, slot_letter)
from .solver import Constraint, Decision, SlotSystem


@lru_cache(maxsize=None)
def x_variable(i: int, j: int, k: int) -> str:
    return "x[%d][%d][%d]" % (i, j, k)


@lru_cache(maxsize=None)
def y_variable(i: int, k: int) -> str:
    return "y[%d][%d]" % (i, k)


@lru_cache(maxsize=None)
def _variable_slots(group: SemipatternGroup, k: int, formal) -> tuple:
    """Unknown k's layout over the identity, every coefficient 1: y[i][k]
    over row i's subgroup on the diagonal, except in a row of order 1
    unless formal (y^1 = 1 leaves the identity's 1 there), and x[i][j][k]
    over the field at each pattern position: the diagonal holds exactly the
    subgroup slots, which symbolic_product's y^d = 1 cut reads."""
    rone, field = group.domain.rone, group.domain.elements()
    slots = [(i, i, rone, y_variable(i + 1, k), sub)
             for i, (sub, d) in enumerate(zip(group.subgroups, group.orders))
             if formal or d > 1]
    slots += [(i - 1, j - 1, rone, x_variable(i, j, k), field)
              for i, j in group.pattern]
    return tuple(slots)


@lru_cache(maxsize=None)
def _variable_letter(group: SemipatternGroup, k: int, formal) -> list:
    """Unknown k as a letter of slot_grid_product; one list per (group, k,
    formal), shared by every product that reads it."""
    return slot_letter(group.domain, group.identity().rows,
                       _variable_slots(group, k, formal))


def _word_letters(group: SemipatternGroup, word, unknowns) -> list:
    """Letter per word position: unknowns[name] or a constant's entries."""
    letters = []
    for letter in word:
        if isinstance(letter, str):
            letters.append(unknowns[letter])
        elif not _same_group(letter.group, group):
            raise GroupError("constant letter from a different group")
        else:
            letters.append(slot_letter(group.domain, letter.rows))
    return letters


def symbolic_product(group: SemipatternGroup, letters, *,
                     formal=True) -> list:
    """Multiply symbolic letters left to right into slot_grid_product's
    m x m grid of raw entry dicts, zero below the diagonal.

    The empty product is the symbolic identity.  Constants are folded into
    monomial coefficients as the product is formed, and entries at positions
    forced to zero by the pattern stay structurally zero.  formal=False
    applies y^d = 1 to every diagonal slot of row order d as the product is
    formed (see the module docstring).
    """
    dom = group.domain
    # (i, i) holds row i's subgroup slot, or None in a constant letter
    orders = None if formal else {
        var: group.orders[i] for letter in letters
        for i, row in enumerate(letter) for j, _, var in row if j == i}
    return slot_grid_product(dom, scalar_grid(dom, group.m, dom.rone),
                             letters, orders)


class ReducedSystem(SlotSystem):
    """The system of lhs = rhs (a GroupElement or a word tuple) over the
    group, whose unknowns are laid out over the identity by _variable_slots."""

    def __init__(self, group: SemipatternGroup, lhs: tuple, rhs, slots):
        super().__init__(group.domain, group.identity().rows, slots)
        self.group, self.lhs, self.rhs = group, lhs, rhs

    def assemble_witness(self, assignment) -> dict:
        """Slot assignment -> {variable name: GroupElement}."""
        group = self.group
        out = {}
        for name, rows in self.witness_rows(assignment):
            group._check_membership(rows)
            out[name] = GroupElement(group, rows)
        return out

    def holds(self, witness) -> bool:
        right = (self.rhs if isinstance(self.rhs, GroupElement)
                 else evaluate_word(self.group, self.rhs, witness))
        return evaluate_word(self.group, self.lhs, witness) == right


def build_system(group: SemipatternGroup, lhs, rhs, *,
                 formal=True) -> ReducedSystem:
    """Reduce the word equation lhs = rhs to a polynomial system over GF(q).

    rhs may be a constant element (targets are its entries) or another word
    (the two entry polynomials are equated by moving everything left: the
    raw grid of -rhs takes in lhs's).
    Domains: x variables range over the field, y variables over their row's
    subgroup.  formal=False applies y^d = 1 in symbolic_product, so every
    constraint polynomial is the reduced normal form of its entry.
    """
    lhs = tuple(lhs)
    if not isinstance(rhs, GroupElement):
        rhs = tuple(rhs)
    words = (lhs, rhs) if isinstance(rhs, tuple) else (lhs,)
    # equal variable names share slot variables across the two words
    names = word_variables(itertools.chain(*words))
    reduced = ReducedSystem(group, lhs, rhs, {
        name: _variable_slots(group, k, formal)
        for k, name in enumerate(names, start=1)})
    unknowns = {name: _variable_letter(group, k, formal)
                for k, name in enumerate(names, start=1)}
    grid, *rest = [
        symbolic_product(group, _word_letters(group, word, unknowns),
                         formal=formal)
        for word in words]
    dom, m = group.domain, group.m
    if rest:
        rneg = dom.rneg
        total = [[{f: rneg(c) for f, c in entry.items()} for entry in row]
                 for row in rest[0]]
        merge_grid(dom, total, grid)
        grid, targets = total, ((dom.rzero,) * m,) * m
    elif not _same_group(rhs.group, group):
        raise GroupError("right-hand side from a different group")
    else:
        targets = rhs.rows
    reduced.constrain([Constraint(entry_polynomial(dom, grid[i][j]),
                                  targets[i][j])
                       for i in range(m) for j in range(i, m)])
    return reduced


def decide_equation(group: SemipatternGroup, lhs, rhs, *,
                    guard: int = DEFAULT_GUARD) -> Decision:
    """Decide solvability of lhs = rhs over the group via the reduction.

    The system is built with y^d = 1 applied (formal=False), so on SAT the
    witness is the lexicographically first solution in the variable order
    of that reduced system.  It maps variable names to group elements and
    has been re-verified through evaluate_word.
    """
    return build_system(group, lhs, rhs, formal=False).decide(guard)


def _nonzero_point(poly: Polynomial, domains) -> dict:
    """Slot values, chosen in name order, at which a reduced polynomial is
    nonzero: each variable takes the first value of its domain that leaves
    the rest nonzero.  Variables that drop out stay unassigned.
    """
    dom = poly.domain
    assignment = {}
    while True:
        present = [factors[0] for factors, _ in poly.items() if factors]
        if not present:
            return assignment
        var = min(present)
        for value in domains[var]:
            # var, first in name order, leads every monomial it occurs in
            rest = Polynomial(dom, (
                (f[f.count(var):], dom.rmul(c, dom.rpow(value, f.count(var))))
                for f, c in poly.items()))
            if not rest.is_zero():
                break
        else:
            raise RuntimeError("internal error: reduced polynomial vanishes "
                               "on the domain of %s" % var)
        assignment[var] = value
        poly = rest


def separating_substitution(group: SemipatternGroup, f, g):
    """A substitution where f and g differ, or None if they agree everywhere.

    The first constraint of the reduced system f = g (in row-major upper
    triangle order) whose polynomial is nonzero is made nonzero by greedy
    slot values; slots it does not fix take the identity's entries.  The
    result is re-checked through evaluate_word.
    """
    reduced = build_system(group, f, g, formal=False)
    system = reduced.system
    for c in system.constraints:
        if not c.poly.is_zero():
            break
    else:
        return None
    witness = reduced.assemble_witness(_nonzero_point(c.poly, system.domains))
    if reduced.holds(witness):
        raise RuntimeError("internal error: separating substitution failed "
                           "re-check")
    return witness


def decide_equivalence(group: SemipatternGroup, f, g) -> bool:
    """True iff f and g take the same value under every substitution."""
    return separating_substitution(group, f, g) is None
