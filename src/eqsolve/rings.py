"""Equations over nilpotent matrix rings, their factor rings, and the
brute-force oracle.

The rings and their expressions live in eqsolve.ringexpr (see there for the
nilpotency bound that truncates expansions); this module re-exports those
names.  After expansion to sums of monomials, every matrix entry of each
monomial is rewritten as a scalar polynomial in the letters' slot
variables: the k-th unknown is zero with s[i][j][k] above the diagonal
(full range) and p * a[i][j][k] on and below it (_variable_slots).
Coefficients are tracked exactly, so any chain accumulating a p-power of
at least a dies on its own; surviving monomials have at most m*a - 1
factors.  An equation F = rhs reduces to the m^2 entry constraints over
Z_{p^a}, decided by solver.SlotSystem as group equations are; over M/I
it is F - rhs in I, one system over I's coset coordinates as well.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial
from operator import add, getitem, mul

from . import lanes
from .poly import (grid_polynomials, merge_grid, scalar_grid,
                   slot_grid_product, slot_letter)
# rings is the public module for every ring name, so it re-exports the
# structure layer in full
from .ringexpr import (NilpotentMatrixRing, RConst, RingElement, RingError,
                       RingExpr, RNeg, RProd, RScale, RSum, RVar, SigmaForm,
                       eval_ring_expr, expr_variables, fold_expr, make_ring,
                       ring_elements, sigma_expand)
from .solver import (DEFAULT_GUARD, Constraint, Decision, GuardExceeded,
                     SlotSystem, SolveStats)

# Largest ideal enumerate_ideal builds.  The closure keeps every element as a
# tuple of tuples in a set (about 0.6 KB per element in M(4, Z_8)), so this
# bound stops a runaway closure within seconds and under 100 MB.
IDEAL_GUARD = 10 ** 5
# Largest ring for which the oracle builds +/* tables: the byte-lane limit.
_TABLE_LIMIT = lanes.LIMIT


@lru_cache(maxsize=None)
def s_variable(i: int, j: int, k: int) -> str:
    return "s[%d][%d][%d]" % (i, j, k)


@lru_cache(maxsize=None)
def a_variable(i: int, j: int, k: int) -> str:
    return "a[%d][%d][%d]" % (i, j, k)


@lru_cache(maxsize=None)
def t_variable(k: int) -> str:
    return "t[%d]" % k


@lru_cache(maxsize=None)
def _variable_slots(ring: NilpotentMatrixRing, k: int) -> tuple:
    """Unknown k's layout over zero: s[i][j][k] over the whole of Z_{p^a}
    above the diagonal, and p * a[i][j][k] with a[i][j][k] below p^(a-1)
    on and below it (no such slots for alpha = 1)."""
    dom, m = ring.domain, ring.m
    p = ring.p % ring.modulus
    small = tuple(range(ring.p ** (ring.alpha - 1)))
    return tuple((i, j, 1, s_variable(i + 1, j + 1, k), dom.elements())
                 if i < j else (i, j, p, a_variable(i + 1, j + 1, k), small)
                 for i in range(m) for j in range(m) if i < j or p)


@lru_cache(maxsize=None)
def _variable_letter(ring: NilpotentMatrixRing, k: int) -> list:
    """Unknown k as a letter of slot_grid_product."""
    return slot_letter(ring.domain, ring.zero().rows, _variable_slots(ring, k))


# -- entrywise rewriting -------------------------------------------------------

def sigma_var_index(sigma: SigmaForm) -> dict:
    return {name: k for k, name in enumerate(sigma.variables(), start=1)}


def entrywise_rewrite(sigma: SigmaForm, ring: NilpotentMatrixRing,
                      var_index=None, cosets=()) -> tuple:
    """Rewrite a sum of monomials, minus t[k] * a_k per coset (a_k, r_k)
    of an ideal, into m x m scalar entry polynomials.

    Each monomial's grid is the product of its letters, coefficient first.
    Exact coefficient tracking performs the pruning: a chain picking up b
    on/below-diagonal factors carries a coefficient divisible by p^b, so it
    disappears from the normal form once b reaches alpha.  Surviving
    monomials therefore have at most m*alpha - 1 factors.
    """
    if var_index is None:
        var_index = sigma_var_index(sigma)
    dom = ring.domain
    unknowns = {name: _variable_letter(ring, k)
                for name, k in var_index.items()}
    total = scalar_grid(dom, ring.m, dom.rzero)
    for coeff, letters in sigma.monomials:
        if not letters:
            raise RingError("monomial with no letters")
        merge_grid(dom, total, slot_grid_product(
            dom, scalar_grid(dom, ring.m, coeff % ring.modulus),
            [unknowns[letter] if isinstance(letter, str)
             else slot_letter(dom, letter.rows) for letter in letters]))
    for k, (a, _) in enumerate(cosets, start=1):
        for entries, row in zip(total, a.rows):
            for entry, raw in zip(entries, row):
                if raw:
                    entry[(t_variable(k),)] = dom.rneg(raw)
    return grid_polynomials(dom, total)


# -- deciding equations --------------------------------------------------------

class ReducedRingSystem(SlotSystem):
    """The system of expr = rhs over the ring, or over M/I given the ideal:
    its m^2 entry polynomials (less t[k] * a_k over M/I) equal rhs's entries,
    and its unknowns are laid out over zero by _variable_slots."""

    def __init__(self, ring: NilpotentMatrixRing, expr, rhs: RingElement,
                 slots, entry_polys: tuple, ideal=None):
        super().__init__(ring.domain, ring.zero().rows, slots)
        if rhs.ring is not ring and rhs.ring != ring:
            raise RingError("right-hand side from a different ring")
        self.ring, self.expr, self.rhs, self.ideal = ring, expr, rhs, ideal
        self.constrain(tuple(
            Constraint(poly, target) for poly, target
            in zip(itertools.chain(*entry_polys), itertools.chain(*rhs.rows))),
            {t_variable(k): tuple(range(r)) for k, (_, r)
             in enumerate(ideal.cosets if ideal else (), start=1)})

    def assemble_witness(self, assignment) -> dict:
        """Slot assignment -> {variable name: RingElement}."""
        ring = self.ring
        return {name: ring.element(rows)
                for name, rows in self.witness_rows(assignment)}

    def holds(self, witness) -> bool:
        diff = eval_ring_expr(self.expr, witness, self.ring) - self.rhs
        return diff in self.ideal if self.ideal else diff.is_zero()


def build_ring_system(ring: NilpotentMatrixRing, expr, rhs: RingElement,
                      ideal=None) -> ReducedRingSystem:
    """Reduce F = rhs over the ring, or over M/I given the ideal, to the m^2
    entry constraints over Z_{p^a}.

    A variable of expr that the truncation drops still gets a layout, so
    that it comes back as zero in a witness."""
    sigma = sigma_expand(expr, ring)
    var_index = sigma_var_index(sigma)
    names = dict.fromkeys(itertools.chain(var_index, expr_variables(expr)))
    return ReducedRingSystem(ring, expr, rhs, {
        name: _variable_slots(ring, k)
        for k, name in enumerate(names, start=1)},
        entrywise_rewrite(sigma, ring, var_index,
                          ideal.cosets if ideal else ()), ideal)


def decide_ring_equation(ring: NilpotentMatrixRing, expr, rhs=None, *,
                         guard: int = DEFAULT_GUARD) -> Decision:
    """Decide solvability of expr = rhs (default rhs: zero) over the ring."""
    if rhs is None:
        rhs = ring.zero()
    return build_ring_system(ring, expr, rhs).decide(guard)


# -- ideals and factor rings ---------------------------------------------------

@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal: its full element set, and the cosets (a_k, r_k)
    by which enumerate_ideal grew it."""

    ring: NilpotentMatrixRing
    elements: tuple
    cosets: tuple

    def __contains__(self, x) -> bool:
        return x in self._element_set

    @cached_property
    def _element_set(self):
        return frozenset(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


@lru_cache(maxsize=None)
def _additive_basis(ring: NilpotentMatrixRing) -> tuple:
    """Elements spanning the ring as an abelian group: E_ij above the
    diagonal, and p * E_ij on and below it when alpha > 1."""
    m, p = ring.m, ring.p % ring.modulus
    basis = []
    for i in range(m):
        for j in range(m):
            value = 1 if i < j else p
            if value:
                rows = [[0] * m for _ in range(m)]
                rows[i][j] = value
                basis.append(ring.element(rows))
    return tuple(basis)


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
    GuardExceeded is raised once the subgroup grows past guard elements.
    """
    gens = tuple(generators)
    for g in gens:
        if not isinstance(g, RingElement) or g.ring != ring:
            raise RingError("generator %r is not an element of %s" % (g, ring))
    basis = _additive_basis(ring)
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
                raise GuardExceeded(len(closed), guard)
        cosets.append((a, len(closed) // size))
        for b in basis:
            work.append(b * a)
            work.append(a * b)
    elements = sorted(closed, key=RingElement.key)
    return Ideal(ring, tuple(elements), tuple(cosets))


def decide_factor_ring(ring: NilpotentMatrixRing, ideal: Ideal, expr, *,
                       guard: int = DEFAULT_GUARD) -> Decision:
    """Decide solvability of expr = 0 over the factor ring M/I.

    The image of expr vanishes in M/I for some substitution iff expr is
    some sum of c_k * a_k over I's cosets, so one system, expr - sum of
    t[k] * a_k = 0 with t[k] in range(r_k), decides it.  The witness is its
    lexicographically first solution, and the ideal element reported is
    expr there.  The guard bounds the space of the slots alone, as over M.
    """
    if ideal.ring != ring:
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
    of _additive_basis (lanes.closure); each product row is its closure
    parent's plus a basis row, (a + e) * b = a * b + e * b, in one lane
    sum.  So the build costs |basis| * n ring sums and products, not n^2."""
    elems = ring_elements(ring)
    index = {e.rows: i for i, e in enumerate(elems)}
    n, zero = len(elems), index[ring.zero().rows]
    pad = bytes(lanes.LIMIT - n)

    def row(op, g):
        return bytes(index[op(elems[g], b).rows] for b in elems)

    basis = [index[e.rows] for e in _additive_basis(ring)]
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
    the values of the last name (see eqsolve.lanes)."""
    index, plus, times = _ring_tables(ring)

    def const(value):
        return index[value.rows], False

    def scale(coeff, node):
        coeff %= ring.modulus
        if coeff == 1:
            return node
        return lanes.unary(_scale_table(ring, coeff), node)

    return fold_expr(expr, ring, (
        lanes.variables(names, lane).__getitem__, const,
        partial(scale, -1), scale, partial(lanes.binary, plus),
        partial(lanes.binary, times), lambda ring: const(ring.zero())))


def brute_force_ring_solve(ring: NilpotentMatrixRing, expr, rhs=None,
                           ideal: Ideal = None,
                           guard: int = DEFAULT_GUARD) -> Decision:
    """Exhaustive oracle over the ring, or over M/I when an ideal is given.

    Over M/I, assignments range over canonical coset representatives and
    equality means the difference lands in the ideal.  Assignments are
    scanned lexicographically (variables in first occurrence order, values
    in canonical order).  On rings of at most _TABLE_LIMIT elements the
    expression is compiled once per call and evaluated a row at a time:
    each value of the last variable at once, as a lane of element indices
    in bytes, through +, * and scale tables built once per ring (see
    _table_scan).  Larger rings evaluate each assignment with
    eval_ring_expr.  Both give the same verdict, witness and explored
    count.  Without variables nothing is enumerated and explored is 1.
    """
    if rhs is None:
        rhs = ring.zero()
    if rhs.ring != ring:
        raise RingError("right-hand side from a different ring")
    if ideal is not None and ideal.ring != ring:
        raise RingError("ideal of a different ring")
    names = expr_variables(expr)
    n = ring.cardinality
    space = (n if ideal is None else n // len(ideal)) ** len(names)
    if space > guard:
        raise GuardExceeded(space, guard)
    if n <= _TABLE_LIMIT:
        return _table_scan(ring, expr, rhs, ideal, names, space)
    if not names:
        carrier = ()
    elif ideal is not None:
        seen = set()
        carrier = []
        for e in ring_elements(ring):
            if e in seen:
                continue
            carrier.append(e)
            for i in ideal.elements:
                seen.add(e + i)
    else:
        carrier = ring_elements(ring)
    stats = SolveStats()
    for combo in itertools.product(carrier, repeat=len(names)):
        stats.explored += 1
        assignment = dict(zip(names, combo))
        value = eval_ring_expr(expr, assignment, ring)
        if ideal is not None:
            if (value - rhs) in ideal:
                return Decision(True, assignment, stats)
        elif value == rhs:
            return Decision(True, assignment, stats)
    return Decision(False, None, stats)


def _table_scan(ring, expr, rhs, ideal, names, space) -> Decision:
    """The oracle's lane scan (lanes.first_hit) over element indices: every
    value of the last name at once, for each assignment of the others in
    scan order, so SAT reports explored = k * width + j + 1 for the j-th
    entry of row k, and UNSAT the full space.  A 0/1 mask marks the
    indices of rhs + I (just rhs without an ideal)."""
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
        carrier = []
        seen = set()
        for e in range(len(elems)):
            if e not in seen:
                carrier.append(e)
                seen.update(plus[e][i] for i in members)
    lane = bytes(carrier)
    explored, values = lanes.first_hit(
        lane, len(names), _lane_node(expr, ring, names, lane), mask)
    if values is None:
        return Decision(False, None, SolveStats(space))
    witness = {name: elems[i] for name, i in zip(names, values)}
    return Decision(True, witness, SolveStats(explored))
