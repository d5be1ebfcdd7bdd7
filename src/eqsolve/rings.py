"""Equations over nilpotent matrix rings, their factor rings, and the
brute-force oracle.

The rings and their expressions live in eqsolve.ringexpr (see there for the
nilpotency bound that truncates expansions); this module re-exports those
names.  After expansion to a sum of monomials (sigma_expand's
(coeff, letters) pairs), the monomials, less t[k] * a_k over M/I, are summed
as products of slot letters into one grid (poly.slot_grid_sum, as group
words are), whose entries are scalar polynomials in the slot variables.
Unknown k is the k-th variable in order of first occurrence in the
expression, as in a group word; its record, ring.unknown(k), is the ring's
generic element, its slots named s[i][j][k] and a[i][j][k].  Coefficients are
tracked exactly, so any chain accumulating a p-power of at least a dies on
its own; surviving monomials have at most m*a - 1 factors.  An equation
F = rhs reduces to the m^2 entry constraints over Z_{p^a}, decided by
solver.SlotSystem as group equations are; over M/I it is F - rhs in I, one
system over I's coset coordinates as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import add, getitem, mul

from . import lanes
from .poly import slot_grid_sum
# rings is the public module for every ring name, so it re-exports the
# structure layer in full
from .ringexpr import (NilpotentMatrixRing, RConst, RingElement, RingError,
                       RingExpr, RNeg, RProd, RScale, RSum, RVar,
                       eval_ring_expr, expr_variables, fold_expr, make_ring,
                       ring_elements, sigma_expand)
from .solver import (DEFAULT_GUARD, Constraint, Decision, GuardExceeded,
                     SlotSystem, SolveStats)

# Largest ideal enumerate_ideal builds.  The ideal keeps every element, its
# rows a tuple of tuples, in one set (about 0.6 KB per element in M(4, Z_8)),
# so this bound stops a runaway closure within seconds and under 100 MB.
IDEAL_GUARD = 10 ** 5


@lru_cache(maxsize=None)
def t_variable(k: int) -> str:
    return "t[%d]" % k


# -- entrywise rewriting -------------------------------------------------------

def entrywise_rewrite(monomials, ring: NilpotentMatrixRing, names,
                      cosets=()) -> list:
    """Rewrite a sum of monomials, sigma_expand's (coeff, letters) pairs,
    minus t[k] * a_k per coset (a_k, r_k) of an ideal, into m x m scalar
    entry polynomials; the k-th of names (from 1) is unknown k.

    slot_grid_sum forms the whole sum: each monomial's product starts at
    its first letter scaled by the coefficient mod p^a, so a slot that the
    coefficient kills (2 * (2 a) over Z4) leaves no term, and each coset
    adds -1 times one letter, a_k's nonzero entries times t[k].
    Exact coefficient tracking performs the pruning: a chain picking up b
    on/below-diagonal factors carries a coefficient divisible by p^b, so it
    disappears from the normal form once b reaches alpha.  Surviving
    monomials therefore have at most m*alpha - 1 factors.
    """
    dom = ring.domain
    unknowns = {name: ring.unknown(k)[1]
                for k, name in enumerate(names, start=1)}
    products = []
    for coeff, letters in monomials:
        if not letters:
            raise RingError("monomial with no letters")
        products.append((coeff % ring.modulus,
                         ring.letters(letters, unknowns)))
    minus_one = dom.rneg(dom.rone)
    for k, (a, _) in enumerate(cosets, start=1):
        products.append((minus_one, ([
            [(j, raw, t_variable(k), None) for j, raw in enumerate(row) if raw]
            for row in a.rows],)))
    return slot_grid_sum(dom, ring.m, products)


# -- deciding equations --------------------------------------------------------

class ReducedRingSystem(SlotSystem):
    """The system of expr = rhs over the ring, or over M/I given the ideal;
    its unknowns are expr's variables, laid out by ring.unknown.  An rhs of
    another ring is refused here, before anything is expanded."""

    def __init__(self, ring: NilpotentMatrixRing, expr, rhs, ideal=None):
        ring._own(rhs, "right-hand side")
        super().__init__(ring, expr_variables(expr))
        self.ring, self.expr, self.rhs, self.ideal = ring, expr, rhs, ideal

    def assemble_witness(self, assignment) -> dict:
        """Slot assignment -> {variable name: RingElement}."""
        return {name: self.ring._member(rows)
                for name, rows in self.witness_rows(assignment)}

    def holds(self, witness) -> bool:
        diff = eval_ring_expr(self.expr, witness, self.ring) - self.rhs
        return diff in self.ideal if self.ideal else diff.is_zero()


def build_ring_system(ring: NilpotentMatrixRing, expr, rhs: RingElement,
                      ideal=None) -> ReducedRingSystem:
    """Reduce F = rhs over the ring, or over M/I given the ideal, to the m^2
    entry constraints over Z_{p^a}.

    Unknowns are numbered by first occurrence in expr, as group words
    number theirs, so a variable that the truncation drops still gets a
    layout and comes back as zero in a witness."""
    reduced = ReducedRingSystem(ring, expr, rhs, ideal)
    cosets = ideal.cosets if ideal else ()
    entry_polys = entrywise_rewrite(sigma_expand(expr, ring), ring,
                                    tuple(reduced.unknowns), cosets)
    reduced.constrain(map(Constraint, itertools.chain(*entry_polys),
                          itertools.chain(*rhs.rows)),
                      {t_variable(k): tuple(range(r))
                       for k, (_, r) in enumerate(cosets, start=1)})
    return reduced


def decide_ring_equation(ring: NilpotentMatrixRing, expr, rhs=None, *,
                         guard: int = DEFAULT_GUARD) -> Decision:
    """Decide solvability of expr = rhs (default rhs: zero) over the ring."""
    if rhs is None:
        rhs = ring.zero()
    return build_ring_system(ring, expr, rhs).decide(guard)


# -- ideals and factor rings ---------------------------------------------------

@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal: its elements (a frozenset), and the cosets
    (a_k, r_k) by which enumerate_ideal grew it."""

    ring: NilpotentMatrixRing
    elements: frozenset
    cosets: tuple

    def __contains__(self, x) -> bool:
        return x in self.elements

    def __len__(self):
        return len(self.elements)

    @cached_property
    def transversal(self) -> list:
        """The first ring element, in canonical order, of each coset."""
        return _transversal(ring_elements(self.ring), self.elements, add)


def enumerate_ideal(ring: NilpotentMatrixRing, generators,
                    guard: int = IDEAL_GUARD) -> Ideal:
    """The two-sided ideal generated by the generators.

    Multiplication is bilinear, so an additive subgroup closed under
    multiplication on both sides by an additive basis of the ring (at most
    m^2 elements) is an ideal; the ring's elements are never enumerated.
    Each queued element a_k not yet in the subgroup joins it one coset at a
    time, r_k cosets until r_k * a_k is in it, and its products with the
    basis are queued in turn.  So each element of the ideal is exactly one
    sum of c_k * a_k with 0 <= c_k < r_k, over the (a_k, r_k) of cosets.
    GuardExceeded is raised once the subgroup grows past guard elements;
    its message names the ideal, the size reached and the ideal guard.
    """
    gens = tuple(generators)
    for g in gens:
        if not isinstance(g, RingElement) or g.ring is not ring:
            raise RingError("generator %r is not an element of %s" % (g, ring))
    basis = ring._additive_basis
    closed = {ring.zero()}
    cosets = []
    work = list(gens)
    while work:
        a = work.pop()
        if a in closed:
            continue
        size = len(closed)
        coset = list(closed)
        while True:
            coset = [c + a for c in coset]
            if coset[0] in closed:
                break
            closed.update(coset)
            if len(closed) > guard:
                raise GuardExceeded(len(closed), guard,
                                    "ideal of at least %s elements exceeds "
                                    "the ideal guard %s")
        cosets.append((a, len(closed) // size))
        for b in basis:
            work.append(b * a)
            work.append(a * b)
    return Ideal(ring, frozenset(closed), tuple(cosets))


def decide_factor_ring(ring: NilpotentMatrixRing, ideal: Ideal, expr, *,
                       guard: int = DEFAULT_GUARD) -> Decision:
    """Decide solvability of expr = 0 over the factor ring M/I.

    The image of expr vanishes in M/I for some substitution iff expr is
    some sum of c_k * a_k over I's cosets, so one system, expr - sum of
    t[k] * a_k = 0 with t[k] in range(r_k), decides it.  The witness is its
    lexicographically first solution, and the ideal element reported is
    expr there.  The guard bounds the space of the slots alone, as over M.
    """
    if ideal.ring is not ring:
        raise RingError("ideal of a different ring")
    reduced = build_ring_system(ring, expr, ring.zero(), ideal)
    space = reduced.system.search_space() // len(ideal)
    if space > guard:
        raise GuardExceeded(space, guard)
    decision = reduced.decide(guard * len(ideal))
    if decision.sat:
        decision.ideal_element = eval_ring_expr(expr, decision.witness, ring)
    return decision


@lru_cache(maxsize=None)
def _ring_tables(ring: NilpotentMatrixRing):
    """(index by rows, add, mul) over canonical element indices; add and
    mul are lanes.table's (rows, cols).  Addition is closed from the rows
    of ring._additive_basis (lanes.closure); each product row is its closure
    parent's plus a basis row, (a + e) * b = a * b + e * b, in one lane
    sum.  So the build costs |basis| * n ring sums and products, not n^2."""
    elems = ring_elements(ring)
    index = {e.rows: i for i, e in enumerate(elems)}
    n, zero = len(elems), index[ring.zero().rows]
    pad = bytes(lanes.LIMIT - n)

    def row(op, g):
        return bytes(index[op(elems[g], b).rows] for b in elems)

    basis = [index[e.rows] for e in ring._additive_basis]
    plus, steps = lanes.closure(n, zero, basis, partial(row, add))
    generators = {e: row(mul, e) for e in {e for _, _, e in steps}}
    times = [None] * n
    times[zero] = bytes((zero,)) * n + pad
    for c, a, e in steps:
        times[c] = bytes(map(getitem, map(plus.__getitem__, times[a][:n]),
                             generators[e])) + pad
    return index, lanes.table(plus), lanes.table(times)


@lru_cache(maxsize=None)
def _scale_table(ring: NilpotentMatrixRing, coeff: int) -> bytes:
    """x -> coeff * x over element indices, as a padded 256-byte row."""
    index = _ring_tables(ring)[0]
    elems = ring_elements(ring)
    return (bytes(index[e.scale(coeff).rows] for e in elems)
            + bytes(lanes.LIMIT - len(elems)))


def _lane_node(expr, ring: NilpotentMatrixRing, names, lane: bytes):
    """expr compiled into a lanes node over element indices, with lane as
    the values of the last name (see eqsolve.lanes).  Sums and products
    fold as balanced trees (lanes.fold), so a long expression compiles to
    a shallow node."""
    index, plus, times = _ring_tables(ring)

    def const(value):
        return index[value.rows], False

    def scale(coeff, node):
        coeff %= ring.modulus
        if coeff == 1:
            return node
        return lanes.unary(_scale_table(ring, coeff), node)

    return fold_expr(expr, ring, (
        lanes.variables(names, lane).__getitem__, const, scale,
        partial(lanes.fold, partial(lanes.binary, plus)),
        partial(lanes.fold, partial(lanes.binary, times)),
        lambda ring: const(ring.zero())))


def brute_force_ring_solve(ring: NilpotentMatrixRing, expr, rhs=None,
                           ideal: Ideal = None,
                           guard: int = DEFAULT_GUARD) -> Decision:
    """Exhaustive oracle over the ring, or over M/I when an ideal is given.

    Over M/I, assignments range over canonical coset representatives and
    equality means the difference lands in the ideal.  Assignments are
    scanned lexicographically (variables in first occurrence order, values
    in canonical order).  On rings of at most lanes.LIMIT elements the
    expression is compiled once per call and evaluated a row at a time:
    each value of the last variable at once, as a lane of element indices
    in bytes, through +, * and scale tables built once per ring (see
    _table_scan).  Larger rings evaluate each assignment with
    eval_ring_expr (lanes.first_assignment); without an ideal they scan
    the cached ring_elements, every element in canonical order.  Both
    give the same verdict, witness and explored count.  Without variables
    nothing is enumerated and explored is 1.
    """
    if rhs is None:
        rhs = ring.zero()
    ring._own(rhs, "right-hand side")
    if ideal is not None and ideal.ring is not ring:
        raise RingError("ideal of a different ring")
    names = expr_variables(expr)
    n = ring.order
    space = (n if ideal is None else n // len(ideal)) ** len(names)
    if space > guard:
        raise GuardExceeded(space, guard)
    if n <= lanes.LIMIT:
        explored, witness = _table_scan(ring, expr, rhs, ideal, names)
    else:
        members = (ring.zero(),) if ideal is None else ideal.elements
        carrier = ((ring_elements(ring) if ideal is None
                    else ideal.transversal) if names else ())
        explored, witness = lanes.first_assignment(
            carrier, names,
            lambda a: (eval_ring_expr(expr, a, ring) - rhs) in members)
    return Decision(witness is not None, witness, SolveStats(explored))


def _transversal(elements, members, plus) -> list:
    """The first of elements in each coset of the additive subgroup
    members, in elements' order; plus(e, i) adds a member to an element."""
    seen = set()
    firsts = []
    for e in elements:
        if e not in seen:
            firsts.append(e)
            seen.update(plus(e, i) for i in members)
    return firsts


def _table_scan(ring, expr, rhs, ideal, names):
    """The oracle's lane scan (lanes.first_hit) over element indices: every
    value of the last name at once, for each assignment of the others in
    scan order, so SAT reports (k * width + j + 1, witness) for the j-th
    entry of row k, and UNSAT (the full space, None).  A 0/1 mask marks
    the indices of rhs + I (just rhs without an ideal); without an ideal
    the carrier is every index, skipping the transversal of {0}."""
    index, (plus, _), _ = _ring_tables(ring)
    elems = ring_elements(ring)
    target = index[rhs.rows]
    mask = bytearray(lanes.LIMIT)
    if ideal is None:
        carrier = range(len(elems))
        mask[target] = 1
    else:
        members = [index[i.rows] for i in ideal.elements]
        for i in members:
            mask[plus[target][i]] = 1
        carrier = _transversal(range(len(elems)), members,
                               lambda e, i: plus[e][i])
    lane = bytes(carrier)
    return lanes.first_hit(lane, names, _lane_node(expr, ring, names, lane),
                           mask, elems)
