"""Semipattern matrix groups: upper triangular groups N_P*D inside T_m(GF(q)).

A group is described by a field, a matrix size m, a pattern set P of
above-diagonal positions (closed under (i,j),(j,k) -> (i,k), which is exactly
what makes the unipotent part multiplicatively closed), and per-row
multiplicative subgroup orders for the diagonal.  Elements are upper
triangular matrices whose diagonal entry i lies in the row-i subgroup and
whose entry (i,j) vanishes unless (i,j) is in P.

Words are sequences of letters; a letter is either a constant element or a
variable name (equal names denote the same unknown).  The brute-force solver
here is the reference oracle for the symbolic reduction pipeline: it
enumerates assignments in canonical order and returns the first witness,
re-checked with evaluate_word.  Both group oracles admit a question in one
place (_first_lane) and end in one of the two scans of eqsolve.lanes.  On
groups of at most 256 elements that is first_hit, a row at a time on byte
lanes through a multiplication table built once per group, closed from at
most log2|G| generator rows: every value of the last variable at once, so
its cost follows the rows explored before the first witness, not the size
of the space.  Larger groups multiply out each assignment
(first_assignment), without membership checks.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache, partial, reduce

from . import lanes
from .domains import (MATRIX_LIMIT, DomainError, PrimeField, residue_matmul,
                      subgroup_of_order)
from .solver import DEFAULT_GUARD, Decision, GuardExceeded, SolveStats


class GroupError(ValueError):
    """Invalid group description, element, or word."""


class PatternError(GroupError):
    """Pattern set not closed; carries a witnessing position triple."""

    def __init__(self, i, j, k):
        super().__init__(
            "pattern not closed: (%d,%d) and (%d,%d) require (%d,%d)"
            % (i, j, j, k, i, k))
        self.triple = ((i, j), (j, k), (i, k))


@dataclass(frozen=True)
class SemipatternGroup:
    """Validated descriptor of N_P*D; build via make_group().

    The descriptor keys the per-group caches (the oracle's tables, the
    reduction's unknown layouts), so its hash, which walks the nested
    subgroup tuples, is computed once."""

    domain: object
    m: int
    pattern: tuple           # sorted (i, j) pairs, 1-based, i < j
    orders: tuple            # diagonal subgroup orders d_1..d_m
    subgroups: tuple         # per row, subgroup_of_order's raw values

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self):
        return hash((self.domain, self.m, self.pattern, self.orders,
                     self.subgroups))

    @property
    def order(self) -> int:
        return (self.domain.size ** len(self.pattern)) * math.prod(self.orders)

    def identity(self) -> "GroupElement":
        """The identity matrix; one shared element, as elements are immutable."""
        return self._identity

    @cached_property
    def _identity(self):
        one, zero = self.domain.rone, self.domain.rzero
        rows = tuple(tuple(one if i == j else zero for j in range(self.m))
                     for i in range(self.m))
        return GroupElement(self, rows)

    def element(self, rows) -> "GroupElement":
        """Build a validated element from an m x m grid of entries, each
        anything the domain's coerce() takes."""
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise GroupError("element grid must be %d x %d" % (self.m, self.m))
        coerce = self.domain.coerce
        raw = tuple(tuple(map(coerce, r)) for r in rows)
        self._check_membership(raw)
        return GroupElement(self, raw)

    @cached_property
    def _membership_plan(self):
        """Row-major (i, j, allowed) for every entry the definition
        constrains: allowed holds the row's diagonal raws, or is None where
        the entry must be zero (below the diagonal or outside P)."""
        pat = frozenset(self.pattern)
        plan = []
        for i, sub in enumerate(self.subgroups):
            for j in range(self.m):
                if i == j:
                    plan.append((i, j, frozenset(sub)))
                elif i > j or (i + 1, j + 1) not in pat:
                    plan.append((i, j, None))
        return tuple(plan)

    @cached_property
    def _matmul(self):
        """The upper triangular residue kernel over a PrimeField, or None
        over a FiniteField GF(p^k), whose raws are coefficient tuples."""
        if not isinstance(self.domain, PrimeField):
            return None
        return residue_matmul(self.domain.p, self.m, True)

    def _check_membership(self, raw):
        zero = self.domain.rzero
        for i, j, allowed in self._membership_plan:
            v = raw[i][j]
            if allowed is None:
                if v != zero:
                    raise GroupError(
                        "entry (%d,%d) must be zero" % (i + 1, j + 1))
            elif v not in allowed:
                raise GroupError(
                    "diagonal entry %d = %d outside its subgroup of order %d"
                    % (i + 1, self.domain.encode(v), self.orders[i]))

    def elements(self):
        """All group elements, in canonical (diagonal, then pattern-slot) order."""
        dom = self.domain
        zero = dom.rzero
        slots = list(self.pattern)
        slot_values = dom.elements()
        for diag in itertools.product(*self.subgroups):
            for fill in itertools.product(slot_values, repeat=len(slots)):
                rows = [[zero] * self.m for _ in range(self.m)]
                for i in range(self.m):
                    rows[i][i] = diag[i]
                for (i, j), v in zip(slots, fill):
                    rows[i - 1][j - 1] = v
                yield GroupElement(self, tuple(tuple(r) for r in rows))

    def __repr__(self):
        return "SemipatternGroup(q=%d, m=%d, pattern=%s, orders=%s)" % (
            self.domain.size, self.m, list(self.pattern), list(self.orders))


class GroupElement:
    """Upper triangular matrix over the group's field; immutable."""

    __slots__ = ("group", "rows")

    def __init__(self, group, rows):
        self.group = group
        self.rows = rows  # raw values of the field, tuple of tuples

    def __mul__(self, other):
        if (not isinstance(other, GroupElement)
                or not _same_group(other.group, self.group)):
            return NotImplemented
        return multiply(self, other)

    def inverse(self) -> "GroupElement":
        """Exact inverse by back substitution; stays in the group."""
        g = self.group
        dom = g.domain
        m = g.m
        rows = self.rows
        inv = [[dom.rzero] * m for _ in range(m)]
        for i in range(m):
            inv[i][i] = dom.rinv(rows[i][i])
        for i in range(m - 1, -1, -1):  # rows below i must be ready first
            for j in range(i + 1, m):
                acc = dom.rzero
                for l in range(i + 1, j + 1):
                    acc = dom.radd(acc, dom.rmul(rows[i][l], inv[l][j]))
                inv[i][j] = dom.rneg(dom.rmul(dom.rinv(rows[i][i]), acc))
        result = GroupElement(g, tuple(tuple(r) for r in inv))
        g._check_membership(result.rows)
        return result

    def __eq__(self, other):
        return (isinstance(other, GroupElement)
                and _same_group(self.group, other.group)
                and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        enc = self.group.domain.encode
        return "[%s]" % ",".join(
            "[%s]" % ",".join(str(enc(v)) for v in row) for row in self.rows)


def make_group(domain, m: int, pattern, orders) -> SemipatternGroup:
    """Validate and build a semipattern group descriptor.

    The pattern must satisfy the closure condition (i,j),(j,k) in P implies
    (i,k) in P; a violation is reported with the witnessing triple.  Each
    diagonal order must divide q - 1.
    """
    if getattr(domain, "kind", None) != "field":
        raise GroupError("semipattern groups live over a field domain")
    if m < 1:
        raise GroupError("matrix size must be positive")
    if m > MATRIX_LIMIT:
        raise GroupError("matrix size %d exceeds the limit of %d"
                         % (m, MATRIX_LIMIT))
    pat = set()
    for i, j in pattern:
        if not (1 <= i < j <= m):
            raise GroupError("pattern position (%d,%d) out of range" % (i, j))
        pat.add((i, j))
    positions = tuple(sorted(pat))
    # each row's columns, ascending: the first violation found is the least
    # (i, j), then the least k
    columns = {}
    for i, j in positions:
        columns.setdefault(i, []).append(j)
    for i, j in positions:
        for k in columns.get(j, ()):
            if (i, k) not in pat:
                raise PatternError(i, j, k)
    orders = tuple(int(d) for d in orders)
    if len(orders) != m:
        raise GroupError("expected %d diagonal orders, got %d" % (m, len(orders)))
    try:
        subgroups = tuple(subgroup_of_order(domain, d) for d in orders)
    except DomainError as exc:
        raise GroupError("bad diagonal subgroup order: %s" % exc) from exc
    return SemipatternGroup(domain, m, positions, orders, subgroups)


def full_pattern(m: int):
    return tuple((i, j) for i in range(1, m + 1) for j in range(i + 1, m + 1))


def unitriangular_group(domain, m: int) -> SemipatternGroup:
    """UT(m, GF(q)): full pattern, trivial diagonal."""
    return make_group(domain, m, full_pattern(m), (1,) * m)


def _same_group(g, h) -> bool:
    """Group equality, with the usual case of one shared descriptor first."""
    return g is h or g == h


def _product(a: GroupElement, b: GroupElement) -> GroupElement:
    """Matrix product of two elements of one group, unchecked: members of a
    closed pattern (make_group checks closure) multiply to members.  Over a
    PrimeField it is the group's unrolled residue kernel; over a
    FiniteField GF(p^k), each entry is one rdot fold."""
    g = a.group
    if g._matmul is not None:
        return GroupElement(g, g._matmul(a.rows, b.rows))
    dom = g.domain
    m = g.m
    rdot, zero = dom.rdot, dom.rzero
    ra = a.rows
    cols = tuple(zip(*b.rows))
    # both factors are upper triangular: entry (i, j) sums over i <= l <= j
    rows = tuple(tuple(rdot(ra[i][i:j + 1], cols[j][i:j + 1]) if j >= i
                       else zero for j in range(m))
                 for i in range(m))
    return GroupElement(g, rows)


def multiply(a: GroupElement, b: GroupElement) -> GroupElement:
    """Matrix product; validates that the result stays in the group."""
    if not _same_group(a.group, b.group):
        raise GroupError("elements of different groups")
    product = _product(a, b)
    a.group._check_membership(product.rows)
    return product


# -- words --------------------------------------------------------------------
#
# A word is a sequence whose letters are GroupElement constants or variable
# name strings.

def word_variables(word):
    """Distinct variable names in order of first occurrence."""
    seen = {}
    for letter in word:
        if isinstance(letter, str):
            seen.setdefault(letter, None)
    return tuple(seen)


def evaluate_word(group: SemipatternGroup, word, assignment) -> GroupElement:
    """Left-to-right product of the letters; the empty word gives the identity."""
    result = None
    for letter in word:
        if isinstance(letter, str):
            try:
                value = assignment[letter]
            except KeyError:
                raise GroupError("no value for word variable %r" % letter) from None
            if (not isinstance(value, GroupElement)
                    or not _same_group(value.group, group)):
                raise GroupError("value for %r is not an element of the group"
                                 % letter)
        else:
            value = letter
            if not _same_group(value.group, group):
                raise GroupError("constant letter from a different group")
        result = value if result is None else multiply(result, value)
    return group.identity() if result is None else result


def exponent_bound(group: SemipatternGroup) -> int:
    """E with g^E = identity for every g: p^ceil(log_p m) * lcm of the orders."""
    p = group.domain.p
    e = 0
    while p ** e < group.m:
        e += 1
    return (p ** e) * math.lcm(*group.orders)


def invert_word(group: SemipatternGroup, word):
    """Word w' with w'(a) = w(a)^-1 for every assignment.

    The word is reversed; constant letters are inverted as matrices and each
    variable letter x becomes E - 1 consecutive copies of x, where E is the
    group exponent bound.
    """
    e = exponent_bound(group)
    out = []
    for letter in reversed(word):
        if isinstance(letter, str):
            out.extend([letter] * (e - 1))
        else:
            out.append(letter.inverse())
    return tuple(out)


# -- enumeration and the brute-force oracle -----------------------------------

@lru_cache(maxsize=None)
def element_list(group: SemipatternGroup):
    """Canonically ordered tuple of all elements (cached)."""
    return tuple(group.elements())


@lru_cache(maxsize=None)
def _cayley(group: SemipatternGroup):
    """(elements, index map, multiplication table, inverse row) over
    canonical element indices, for the lane scan: the table is lanes.table's
    (rows, cols), the inverse row is padded like them.  The rows are closed
    from greedy generator rows (lanes.closure), so the build costs at most
    |G| * log2|G| calls of multiply, not |G|^2."""
    elems = element_list(group)
    index = {el: i for i, el in enumerate(elems)}
    n, one = len(elems), index[group.identity()]
    rows, _ = lanes.closure(n, one, range(n), lambda g: bytes(
        index[multiply(elems[g], b)] for b in elems))
    # each row holds the identity once within the group, before the padding
    inverse = bytes(row.index(one) for row in rows)
    return elems, index, lanes.table(rows), inverse + bytes(lanes.LIMIT - n)


def _word_node(word, leaves, index, table, last):
    """The lanes node of a word's product, None for the empty word.  Each
    run of letters that does not read the last variable is multiplied out
    first, so that a row is translated once per run, not once per letter;
    runs and letters are folded as balanced trees (lanes.fold)."""
    def leaf(letter):
        return leaves[letter] if isinstance(letter, str) else (index[letter],
                                                               False)

    product = partial(lanes.fold, partial(lanes.binary, table))
    runs = [product(map(leaf, run)) for _, run
            in itertools.groupby(word, lambda letter: letter == last)]
    return product(runs) if runs else None


def _first_lane(group, left, right, equal, guard):
    """(explored, assignment) for the first assignment in canonical order at
    which the words left and right evaluate equal (equal=True) or different
    (equal=False); (space, None) when there is none.  GuardExceeded when
    the space is larger than guard, before any letter is checked or any
    table or element list built; without variables neither is built.  On
    groups of at most lanes.LIMIT elements both words compile into lanes
    nodes for lanes.first_hit: a right side that folds to a constant is
    the mask's own index, any other is scanned as left * right^-1 against
    the identity, and separators use the complement mask.  Larger groups
    use lanes.first_assignment."""
    names = word_variables(left + right)
    size = group.order
    space = size ** len(names)
    if space > guard:
        raise GuardExceeded(space, guard)
    for letter in left + right:
        if not isinstance(letter, str) and not _same_group(letter.group, group):
            raise GroupError("constant letter from a different group")
    if names and size <= lanes.LIMIT:
        elems, index, table, inverse = _cayley(group)
        lane = bytes(range(size))
        leaves = lanes.variables(names, lane)
        identity = (index[group.identity()], False)
        node = _word_node(left, leaves, index, table, names[-1]) or identity
        other = _word_node(right, leaves, index, table, names[-1]) or identity
        target, other_lane = other
        if callable(target) or other_lane:
            node = lanes.binary(table, node, lanes.unary(inverse, other))
            target = identity[0]
        mask = bytearray((not equal,)) * lanes.LIMIT
        mask[target] = equal
        return lanes.first_hit(lane, names, node, mask, elems)

    def value(word, assignment):
        return reduce(_product, [assignment[x] if isinstance(x, str) else x
                                 for x in word] or [group.identity()])

    return lanes.first_assignment(
        element_list(group) if names else (), names,
        lambda a: (value(left, a) == value(right, a)) == equal)


def brute_force_solve(group: SemipatternGroup, word, target,
                      guard: int = DEFAULT_GUARD) -> Decision:
    """Exhaustive oracle: SAT with the first witness in canonical order.

    The target may be a constant element or another word.  Assignments are
    scanned lexicographically over (variables in first occurrence order) x
    (elements in canonical enumeration order); the witness is re-verified
    through evaluate_word before it is returned.
    """
    word = tuple(word)
    right = (target,) if isinstance(target, GroupElement) else tuple(target)
    explored, witness = _first_lane(group, word, right, True, guard)
    if witness is not None and (evaluate_word(group, word, witness)
                                != evaluate_word(group, right, witness)):
        raise RuntimeError("internal error: oracle witness failed")
    return Decision(witness is not None, witness, SolveStats(explored))


def words_agree_everywhere(group: SemipatternGroup, f, g):
    """Exhaustively compare two words at every substitution, refusing
    spaces past DEFAULT_GUARD.

    Returns (True, None) when they agree everywhere, else (False, assignment)
    with the first separating substitution in canonical order.
    """
    _, separator = _first_lane(group, tuple(f), tuple(g), False,
                               DEFAULT_GUARD)
    return separator is None, separator
