"""Reduction of group word equations to polynomial systems over the field.

Every letter of a word becomes a symbolic upper triangular matrix: constant
letters carry their entries, and the k-th distinct variable is the identity
with a diagonal slot y[i][k] per row (over the row's subgroup) and a slot
x[i][j][k] per pattern position (over the field).  Its record from _unknown
(layout, letter, slot domains) depends only on the group, k and formal, so
it is built once per process and shared by every equation.
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
right side G, symbolic_product sums F - G in one grid, as
rings.entrywise_rewrite sums its monomials, and only the m(m+1)/2 upper
entries become constraint polynomials.

build_system gives every diagonal slot its variable by default: that is the
paper's formal reduction, which `eqsolve dump-system` prints.  The two
decision paths, decide_equation and separating_substitution, build with
formal=False instead, which applies one rule: a diagonal slot y of a row
whose subgroup has order d satisfies y^d = 1 on its whole domain.  For
d = 1 the layout has no slot there, so the identity's 1 enters the product
as a constant and is the witness entry; for d > 1 the letter's slot
carries the cut d, and the product cancels the d copies of y in a
monomial once its exponent reaches d.  Monomials that then coincide merge
or cancel as the product is formed.  The witness of decide_equation is the
lexicographically first solution in the variable order of this reduced
system.

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
from .poly import Polynomial, entry_polynomial, slot_grid_sum, slot_letter
from .solver import Constraint, Decision, SlotSystem


@lru_cache(maxsize=None)
def x_variable(i: int, j: int, k: int) -> str:
    return "x[%d][%d][%d]" % (i, j, k)


@lru_cache(maxsize=None)
def y_variable(i: int, k: int) -> str:
    return "y[%d][%d]" % (i, k)


@lru_cache(maxsize=None)
def _unknown(group: SemipatternGroup, k: int, formal) -> tuple:
    """Unknown k's record (layout, letter, slot domains), built once per
    (group, k, formal) and shared by every equation.

    The layout lies over the identity, every coefficient 1: y[i][k] over
    row i's subgroup on the diagonal, except in a row of order 1 unless
    formal (y^1 = 1 leaves the identity's 1 there), and x[i][j][k] over
    the field at each pattern position.  Unless formal, the letter cuts
    y^d = 1 in each diagonal slot of a row of order d.  The slot domains
    map each slot variable to its values."""
    dom = group.domain
    rone, field = dom.rone, dom.elements()
    layout = tuple(
        [(i, i, rone, y_variable(i + 1, k), sub)
         for i, (sub, d) in enumerate(zip(group.subgroups, group.orders))
         if formal or d > 1]
        + [(i - 1, j - 1, rone, x_variable(i, j, k), field)
           for i, j in group.pattern])
    return (layout,
            slot_letter(dom, group.identity().rows, layout,
                        None if formal else group.orders),
            {var: values for _, _, _, var, values in layout})


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


def symbolic_product(group: SemipatternGroup, products) -> list:
    """Sum (scalar, letters) pairs of symbolic letter products into
    slot_grid_sum's m x m grid of raw entry dicts, zero below the diagonal.

    Constants are folded into monomial coefficients as each product is
    formed, and entries at positions forced to zero by the pattern stay
    structurally zero.
    """
    return slot_grid_sum(group.domain, group.m, products)


class ReducedSystem(SlotSystem):
    """The system of lhs = rhs (a GroupElement or a word tuple) over the
    group, whose unknowns are laid out over the identity (_unknown)."""

    def __init__(self, group: SemipatternGroup, lhs: tuple, rhs, unknowns):
        super().__init__(group.domain, group.identity().rows, unknowns)
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
    (everything moves left: the constraint polynomials are F - G = 0).
    Domains: x variables range over the field, y variables over their row's
    subgroup.  formal=False cuts y^d = 1 in the unknowns' letters, so every
    constraint polynomial is the reduced normal form of its entry.
    """
    lhs = tuple(lhs)
    if not isinstance(rhs, GroupElement):
        rhs = tuple(rhs)
    words = (lhs, rhs) if isinstance(rhs, tuple) else (lhs,)
    # equal variable names share slot variables across the two words
    unknowns = {name: _unknown(group, k, formal) for k, name in
                enumerate(word_variables(itertools.chain(*words)), start=1)}
    reduced = ReducedSystem(group, lhs, rhs, unknowns)
    letters = {name: letter for name, (_, letter, _) in unknowns.items()}
    dom, m = group.domain, group.m
    products = [(dom.rone, _word_letters(group, lhs, letters))]
    if isinstance(rhs, tuple):
        products.append((dom.rneg(dom.rone),
                         _word_letters(group, rhs, letters)))
        targets = ((dom.rzero,) * m,) * m
    elif not _same_group(rhs.group, group):
        raise GroupError("right-hand side from a different group")
    else:
        targets = rhs.rows
    grid = symbolic_product(group, products)
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
