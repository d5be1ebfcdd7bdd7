"""Reduction of group word equations to polynomial systems over the field.

Every letter of a word becomes a symbolic upper triangular matrix: constant
letters carry their concrete entries, and each distinct variable gets one
diagonal slot variable y[i][k] per row (ranging over the row's subgroup) and
one slot variable x[i][j][k] per pattern position (ranging over the field).
Multiplying the symbolic letters left to right yields an m x m grid of entry
polynomials: the diagonal entries are single monomials (products of the y
slots) and each above-diagonal entry is a sum of products, one per
non-decreasing index chain through the pattern, with constants folded into
the coefficients.  Positions outside the pattern hold the constant zero, so
chains through them vanish as the product is formed; this keeps the grid
within its O(n^m) size bound instead of enumerating chains up front.

A word equation F = rhs then holds for a substitution exactly when all the
entry polynomials attain the corresponding rhs entries, which is a
solvability question handed to the system solver.  SAT witnesses are
reassembled into group elements and re-checked through evaluate_word before
being returned.

build_system gives every diagonal slot its variable by default: that is the
paper's formal reduction, which `eqsolve dump-system` prints.  The two
decision paths, decide_equation and separating_substitution, build with
formal=False instead, which applies one rule inside symbolic_product: a
diagonal slot y of a row whose subgroup has order d satisfies y^d = 1 on
its whole domain.  For d = 1 the slot enters the product as the constant
1, so it never becomes a variable and its witness entry is 1; for d > 1 the
d copies of y in a monomial cancel once its exponent reaches d.  Monomials
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
import math
from dataclasses import dataclass
from functools import lru_cache

from .groups import (DEFAULT_GUARD, GroupElement, GroupError, SemipatternGroup,
                     evaluate_word, word_variables)
from .poly import (FIELD, SUBGROUP, Polynomial, Variable, grid_polynomials,
                   scalar_grid, slot_grid_product)
from .solver import Constraint, Decision, PolySystem, SolveRequest, solve


@lru_cache(maxsize=None)
def x_variable(i: int, j: int, k: int) -> Variable:
    return Variable("x[%d][%d][%d]" % (i, j, k), FIELD)


@lru_cache(maxsize=None)
def y_variable(i: int, k: int) -> Variable:
    return Variable("y[%d][%d]" % (i, k), SUBGROUP, row=i)


class SymbolicLetter:
    """One word letter as a grid of slots: Scalars, Variables, or zero (None)."""

    __slots__ = ("m", "slots")

    def __init__(self, m, slots):
        self.m = m
        self.slots = slots  # dict (i, j) -> Scalar | Variable, 1-based, i <= j

    def slot(self, i, j):
        return self.slots.get((i, j))

    @classmethod
    def from_constant(cls, group: SemipatternGroup, element: GroupElement):
        slots = {}
        for i in range(1, group.m + 1):
            slots[(i, i)] = element.scalar(i, i)
        for (i, j) in group.pattern:
            v = element.scalar(i, j)
            if not v.is_zero():
                slots[(i, j)] = v
        return cls(group.m, slots)

    @classmethod
    def for_variable(cls, group: SemipatternGroup, k: int):
        """Slots of variable k: y[i][k] on the diagonal, x[i][j][k] on the
        pattern."""
        slots = {(i, i): y_variable(i, k) for i in range(1, group.m + 1)}
        slots.update(((i, j), x_variable(i, j, k)) for i, j in group.pattern)
        return cls(group.m, slots)


@dataclass(frozen=True)
class SymbolicMatrix:
    """Entry polynomials of a symbolic letter product; zero below the diagonal."""

    group: SemipatternGroup
    grid: tuple  # m x m tuple of Polynomial

    def entry(self, i: int, j: int) -> Polynomial:
        return self.grid[i - 1][j - 1]

    def upper_entries(self):
        """((i, j), polynomial) for all 1 <= i <= j <= m."""
        m = self.group.m
        return tuple(((i, j), self.grid[i - 1][j - 1])
                     for i in range(1, m + 1) for j in range(i, m + 1))


def symbolic_letters(group: SemipatternGroup, word, var_index):
    """Symbolic letter per word position; equal variables share slot variables."""
    letters = []
    for letter in word:
        if isinstance(letter, str):
            letters.append(SymbolicLetter.for_variable(group,
                                                       var_index[letter]))
        else:
            if letter.group != group:
                raise GroupError("constant letter from a different group")
            letters.append(SymbolicLetter.from_constant(group, letter))
    return letters


def _slot_rows(group: SemipatternGroup, letter: SymbolicLetter, orders):
    """A letter's slots per row, as slot_grid_product takes them.  Unless
    orders is None, a diagonal slot of row order d = 1 becomes the constant
    1 and one of order d > 1 is entered in orders as y -> d."""
    rone, rzero = group.domain.rone, group.domain.rzero
    rows = [[] for _ in range(letter.m)]
    for (i, j), slot in letter.slots.items():
        if isinstance(slot, Variable):
            if orders is not None and i == j:
                d = group.orders[i - 1]
                if d == 1:
                    slot = None
                else:
                    orders[slot] = d
            rows[i - 1].append((j - 1, rone, slot))
        elif slot.raw != rzero:
            rows[i - 1].append((j - 1, slot.raw, None))
    return rows


def symbolic_product(group: SemipatternGroup, letters, *,
                     formal=True) -> SymbolicMatrix:
    """Multiply symbolic letters left to right into entry polynomials.

    The empty product is the symbolic identity.  Constants are folded into
    monomial coefficients as the product is formed, and entries at positions
    forced to zero by the pattern stay structurally zero.  formal=False
    applies y^d = 1 to every diagonal slot of row order d as the product is
    formed (see the module docstring).
    """
    dom = group.domain
    orders = None if formal else {}
    rows = [_slot_rows(group, letter, orders) for letter in letters]
    grid = slot_grid_product(dom, scalar_grid(dom, group.m, dom.rone), rows,
                             orders)
    return SymbolicMatrix(group, grid_polynomials(dom, grid))


def entry_monomial_count(n: int, i: int, j: int) -> int:
    """Products contributing to entry (i, j) of an n-letter all-variable word."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return math.comb(n + j - i - 1, j - i)


@dataclass
class ReducedSystem:
    """Polynomial system for one word equation, plus the witness bookkeeping."""

    group: SemipatternGroup
    lhs: tuple
    rhs: object                  # GroupElement or word tuple
    var_names: tuple             # distinct variable names, first occurrence order
    system: PolySystem
    lhs_matrix: SymbolicMatrix

    def assemble_witness(self, assignment) -> dict:
        """Slot assignment -> {variable name: GroupElement}.

        Slots that dropped out of the system (cancelled, folded or never
        constrained) default to the identity's entries.
        """
        group = self.group
        dom = group.domain
        out = {}
        for k, name in enumerate(self.var_names, start=1):
            rows = [[dom.rzero] * group.m for _ in range(group.m)]
            for i in range(1, group.m + 1):
                val = assignment.get(y_variable(i, k))
                rows[i - 1][i - 1] = val.raw if val is not None else dom.rone
            for (i, j) in group.pattern:
                val = assignment.get(x_variable(i, j, k))
                if val is not None:
                    rows[i - 1][j - 1] = val.raw
            element = GroupElement(group, tuple(tuple(r) for r in rows))
            group._check_membership(element.rows)
            out[name] = element
        return out


def build_system(group: SemipatternGroup, lhs, rhs, *,
                 formal=True) -> ReducedSystem:
    """Reduce the word equation lhs = rhs to a polynomial system over GF(q).

    rhs may be a constant element (targets are its entries) or another word
    (the two entry polynomials are equated by moving everything left).
    Domains: x variables range over the field, y variables over their row's
    subgroup.  formal=False applies y^d = 1 in symbolic_product, so every
    constraint polynomial is the reduced normal form of its entry.
    """
    lhs = tuple(lhs)
    words = (lhs,) if isinstance(rhs, GroupElement) else (lhs, tuple(rhs))
    # equal variable names share slot variables across the two words
    names = word_variables(itertools.chain(*words))
    var_index = {name: k for k, name in enumerate(names, start=1)}
    lhs_matrix, *rest = [
        symbolic_product(group, symbolic_letters(group, word, var_index),
                         formal=formal)
        for word in words]
    if rest:
        rhs, zero = words[1], group.domain.zero()
        constraints = [Constraint(left - rest[0].entry(*pos), zero)
                       for pos, left in lhs_matrix.upper_entries()]
    elif rhs.group != group:
        raise GroupError("right-hand side from a different group")
    else:
        constraints = [Constraint(left, rhs.scalar(*pos))
                       for pos, left in lhs_matrix.upper_entries()]

    domains = {}
    field_elements = tuple(group.domain.elements())
    for c in constraints:
        for factors, _ in c.poly._terms:
            for v in factors:
                if v not in domains:
                    domains[v] = (group.subgroups[v.row - 1].elements
                                  if v.sort == SUBGROUP else field_elements)
    system = PolySystem(group.domain, tuple(constraints), domains)
    return ReducedSystem(group, lhs, rhs, names, system, lhs_matrix)


def decide_equation(group: SemipatternGroup, lhs, rhs, *,
                    guard: int = DEFAULT_GUARD) -> Decision:
    """Decide solvability of lhs = rhs over the group via the reduction.

    The system is built with y^d = 1 applied (formal=False), so on SAT the
    witness is the lexicographically first solution in the variable order
    of that reduced system.  It maps variable names to group elements and
    has been re-verified through evaluate_word.
    """
    reduced = build_system(group, lhs, rhs, formal=False)
    decision = solve(SolveRequest(reduced.system, guard=guard))
    if not decision.sat:
        return Decision(False, None, decision.stats)
    witness = reduced.assemble_witness(decision.witness)
    left = evaluate_word(group, reduced.lhs, witness)
    if isinstance(reduced.rhs, GroupElement):
        right = reduced.rhs
    else:
        right = evaluate_word(group, reduced.rhs, witness)
    if left != right:
        raise RuntimeError("internal error: reduction witness failed re-check")
    return Decision(True, witness, decision.stats)


def _nonzero_point(poly: Polynomial, domains) -> dict:
    """Slot values, chosen in name order, at which a reduced polynomial is
    nonzero: each variable takes the first value of its domain that leaves
    the rest nonzero.  Variables that drop out stay unassigned.
    """
    dom = poly.domain
    assignment = {}
    while True:
        present = [factors[0] for factors, _ in poly._terms if factors]
        if not present:
            return assignment
        var = min(present, key=lambda v: v.name)
        for value in domains[var]:
            # var, first in name order, leads every monomial it occurs in
            rest = Polynomial(dom, (
                (f[f.count(var):], dom.rmul(c, (value ** f.count(var)).raw))
                for f, c in poly._terms))
            if not rest.is_zero():
                break
        else:
            raise RuntimeError("internal error: reduced polynomial vanishes "
                               "on the domain of %s" % var.name)
        assignment[var] = value
        poly = rest


def separating_substitution(group: SemipatternGroup, f, g):
    """A substitution where f and g differ, or None if they agree everywhere.

    The first constraint of the reduced system f = g (in upper_entries()
    order) whose polynomial is nonzero is made nonzero by greedy slot
    values; slots it does not fix take the identity's entries.  The result
    is re-checked through evaluate_word.
    """
    reduced = build_system(group, f, g, formal=False)
    system = reduced.system
    for c in system.constraints:
        if not c.poly.is_zero():
            break
    else:
        return None
    witness = reduced.assemble_witness(_nonzero_point(c.poly, system.domains))
    if (evaluate_word(group, reduced.lhs, witness)
            == evaluate_word(group, reduced.rhs, witness)):
        raise RuntimeError("internal error: separating substitution failed "
                           "re-check")
    return witness


def decide_equivalence(group: SemipatternGroup, f, g) -> bool:
    """True iff f and g take the same value under every substitution."""
    return separating_substitution(group, f, g) is None
