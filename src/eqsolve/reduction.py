"""Reduction of group word equations to polynomial systems over the field.

Every letter of a word becomes a symbolic upper triangular matrix
(group.letters): constant letters carry their entries, and the k-th
distinct variable is the group's generic element, its slots
(SemipatternGroup.slots) named y[i][k] on the diagonal and x[i][j][k] in
P.  Its record, group.unknown(k, formal), depends only on the group, k and
formal, so it is built once per process and shared.
Multiplying the symbolic letters left to right yields an m x m grid of entry
polynomials: the diagonal entries are single monomials (products of the y
slots) and each above-diagonal entry is a sum of products, one per
non-decreasing index chain through the pattern, with constants folded into
the coefficients.  Positions outside the pattern hold the constant zero, so
chains through them vanish as the product is formed; this keeps the grid
within its O(n^m) size bound instead of enumerating chains up front.  The
grid stays raw: each entry polynomial is an unsorted monomial dict, which
the constraints hold as it is and the solver reads unordered.

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

from .groups import (DEFAULT_GUARD, GroupElement, SemipatternGroup,
                     evaluate_word, word_variables)
from .poly import slot_grid_sum
from .solver import Constraint, Decision, SlotSystem


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
    group; its unknowns are the words' variables, laid out by
    group.unknown.  A constant rhs of another group is refused here,
    before anything is expanded."""

    def __init__(self, group: SemipatternGroup, lhs, rhs, formal=False):
        letters = lhs + (rhs if isinstance(rhs, tuple)
                         else (group._own(rhs, "right-hand side"),))
        # equal variable names share slot variables across the two words
        super().__init__(group, word_variables(letters), formal)
        self.group, self.lhs, self.rhs = group, lhs, rhs

    def assemble_witness(self, assignment) -> dict:
        """Slot assignment -> {variable name: GroupElement}."""
        return {name: self.group._member(rows)
                for name, rows in self.witness_rows(assignment)}

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
    reduced = ReducedSystem(group, lhs, rhs, formal)
    letters = {name: letter for name, (_, letter, _)
               in reduced.unknowns.items()}
    dom, m = group.domain, group.m
    products = [(dom.rone, group.letters(lhs, letters))]
    if isinstance(rhs, tuple):
        products.append((dom.rneg(dom.rone), group.letters(rhs, letters)))
        targets = ((dom.rzero,) * m,) * m
    else:
        targets = rhs.rows
    grid = symbolic_product(group, products)
    reduced.constrain([Constraint(grid[i][j], targets[i][j])
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


def _nonzero_point(dom, poly, domains) -> dict:
    """Slot values, chosen in name order, at which a reduced polynomial over
    dom is nonzero: each variable takes the first value of its domain that
    leaves the rest nonzero.  Variables that drop out stay unassigned.
    """
    radd, rmul, rpow, zero = dom.radd, dom.rmul, dom.rpow, dom.rzero
    assignment = {}
    while True:
        present = [factors[0] for factors in poly if factors]
        if not present:
            return assignment
        var = min(present)
        for value in domains[var]:
            # var, first in name order, leads every monomial it occurs in, so
            # dropping its copies keeps each factor tuple sorted
            rest = {}
            for f, c in poly.items():
                n = f.count(var)
                rest[f[n:]] = radd(rest.get(f[n:], zero),
                                   rmul(c, rpow(value, n)))
            rest = {f: c for f, c in rest.items() if c != zero}
            if rest:
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
    result is re-checked through evaluate_word.  A constant g is the word (g,).
    """
    if isinstance(g, GroupElement):
        g = (g,)
    reduced = build_system(group, f, g, formal=False)
    system = reduced.system
    c = next((c for c in system.constraints if c.poly), None)
    if c is None:
        return None
    witness = reduced.assemble_witness(
        _nonzero_point(system.domain, c.poly, system.domains))
    if reduced.holds(witness):
        raise RuntimeError("internal error: separating substitution failed "
                           "re-check")
    return witness


def decide_equivalence(group: SemipatternGroup, f, g) -> bool:
    """True iff f and g take the same value under every substitution."""
    return separating_substitution(group, f, g) is None
