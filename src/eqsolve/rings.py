"""Nilpotent matrix rings: m x m matrices over Z_{p^a} with every entry on or
below the main diagonal a multiple of p.

Such a ring is nilpotent of class at most m*a: along any index chain through
a product, each on-or-below-diagonal step contributes a factor p and at most
m - 1 consecutive strictly-above steps can occur, so products of m*a elements
vanish.  Expressions are expanded to sums of monomials with that truncation
applied, then every matrix entry of each monomial is rewritten as a scalar
polynomial in the letters' slot variables: s[i][j][k] for above-diagonal
slots (full range) and a[i][j][k] for on/below slots, whose entry value is
p * a[i][j][k].  Coefficients are tracked exactly, so any chain accumulating
a p-power of at least a dies on its own; surviving monomials have at most
m*a - 1 factors.  An equation F = rhs reduces to the solvability of the m^2
entry constraints over Z_{p^a}.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .domains import ModularRing, is_prime
from .poly import FIELD, Polynomial, Variable
from .solver import (DEFAULT_GUARD, Constraint, Decision, GuardExceeded,
                     PolySystem, SolveRequest, SolveStats, solve)

IDEAL_GUARD = 10 ** 7


class RingError(ValueError):
    """Invalid ring description, element, or expression."""


def s_variable(i: int, j: int, k: int) -> Variable:
    return Variable("s[%d][%d][%d]" % (i, j, k), FIELD)


def a_variable(i: int, j: int, k: int) -> Variable:
    return Variable("a[%d][%d][%d]" % (i, j, k), FIELD)


@dataclass(frozen=True)
class NilpotentMatrixRing:
    """Descriptor of the ring; build via make_ring()."""

    p: int
    alpha: int
    m: int

    @property
    def modulus(self) -> int:
        return self.p ** self.alpha

    @property
    def nilpotency_bound(self) -> int:
        """Every product of this many elements is zero."""
        return self.m * self.alpha

    @property
    def cardinality(self) -> int:
        above = self.m * (self.m - 1) // 2
        on_below = self.m * (self.m + 1) // 2
        return (self.p ** self.alpha) ** above * (self.p ** (self.alpha - 1)) ** on_below

    @cached_property
    def domain(self) -> ModularRing:
        return ModularRing(self.p, self.alpha)

    def zero(self) -> "RingElement":
        row = (0,) * self.m
        return RingElement(self, (row,) * self.m)

    def element(self, rows) -> "RingElement":
        """Build a validated element from an m x m grid of residues."""
        if len(rows) != self.m or any(len(r) != self.m for r in rows):
            raise RingError("element grid must be %d x %d" % (self.m, self.m))
        n = self.modulus
        raw = tuple(tuple(int(v) % n for v in r) for r in rows)
        for i in range(self.m):
            for j in range(self.m):
                if i >= j and raw[i][j] % self.p != 0:
                    raise RingError(
                        "entry (%d,%d) = %d must be a multiple of %d"
                        % (i + 1, j + 1, raw[i][j], self.p))
        return RingElement(self, raw)

    def elements(self):
        """All elements in canonical (row-major slot) order."""
        n = self.modulus
        above = tuple(range(n))
        on_below = tuple(v * self.p for v in range(self.p ** (self.alpha - 1)))
        slot_ranges = []
        for i in range(self.m):
            for j in range(self.m):
                slot_ranges.append(above if i < j else on_below)
        for combo in itertools.product(*slot_ranges):
            rows = tuple(tuple(combo[i * self.m + j] for j in range(self.m))
                         for i in range(self.m))
            yield RingElement(self, rows)

    def __repr__(self):
        return "M(%d, Z(%d))" % (self.m, self.modulus)


class RingElement:
    """Matrix over Z_{p^a} with p | entry on or below the diagonal; immutable."""

    __slots__ = ("ring", "rows")

    def __init__(self, ring, rows):
        self.ring = ring
        self.rows = rows

    def _check(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise RingError("elements of different rings")

    def __add__(self, other):
        self._check(other)
        n = self.ring.modulus
        return RingElement(self.ring, tuple(
            tuple((a + b) % n for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        self._check(other)
        n = self.ring.modulus
        return RingElement(self.ring, tuple(
            tuple((a - b) % n for a, b in zip(ra, rb))
            for ra, rb in zip(self.rows, other.rows)))

    def __neg__(self):
        n = self.ring.modulus
        return RingElement(self.ring, tuple(
            tuple((-a) % n for a in ra) for ra in self.rows))

    def __mul__(self, other):
        self._check(other)
        m = self.ring.m
        n = self.ring.modulus
        ra, rb = self.rows, other.rows
        return RingElement(self.ring, tuple(
            tuple(sum(ra[i][l] * rb[l][j] for l in range(m)) % n
                  for j in range(m))
            for i in range(m)))

    def scale(self, c: int) -> "RingElement":
        n = self.ring.modulus
        return RingElement(self.ring, tuple(
            tuple((c * a) % n for a in ra) for ra in self.rows))

    def is_zero(self) -> bool:
        return all(v == 0 for row in self.rows for v in row)

    def key(self):
        return tuple(v for row in self.rows for v in row)

    def __eq__(self, other):
        return (isinstance(other, RingElement)
                and self.ring == other.ring and self.rows == other.rows)

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return "[%s]" % ",".join(
            "[%s]" % ",".join(str(v) for v in row) for row in self.rows)


def make_ring(p: int, alpha: int, m: int) -> NilpotentMatrixRing:
    if not is_prime(p):
        raise RingError("p = %d is not prime" % p)
    if alpha < 1 or m < 1:
        raise RingError("need alpha >= 1 and m >= 1")
    return NilpotentMatrixRing(p, alpha, m)


@lru_cache(maxsize=None)
def ring_elements(ring: NilpotentMatrixRing):
    """Canonically ordered tuple of all elements (cached)."""
    return tuple(ring.elements())


# -- expressions and the sum-of-monomials (sigma) form -------------------------

class RingExpr:
    def __add__(self, other):
        return RSum((self, other))

    def __sub__(self, other):
        return RSum((self, RNeg(other)))

    def __mul__(self, other):
        return RProd((self, other))

    def __neg__(self):
        return RNeg(self)


@dataclass(frozen=True)
class RVar(RingExpr):
    name: str


@dataclass(frozen=True)
class RConst(RingExpr):
    value: RingElement


@dataclass(frozen=True)
class RSum(RingExpr):
    parts: tuple


@dataclass(frozen=True)
class RProd(RingExpr):
    parts: tuple


@dataclass(frozen=True)
class RNeg(RingExpr):
    part: RingExpr


@dataclass(frozen=True)
class RScale(RingExpr):
    """Integer multiple of an expression (repeated addition)."""

    coeff: int
    part: RingExpr


@dataclass(frozen=True)
class RingMonomial:
    """coeff * letters, the letters being variable names or constant elements."""

    coeff: int
    letters: tuple

    def degree(self) -> int:
        return len(self.letters)


def _letter_key(letter):
    if isinstance(letter, str):
        return (0, letter)
    return (1, letter.key())


def _monomial_key(mono: RingMonomial):
    return (len(mono.letters), tuple(_letter_key(l) for l in mono.letters))


@dataclass(frozen=True)
class SigmaForm:
    """Sum of monomials over the ring, truncated at the nilpotency bound."""

    ring: NilpotentMatrixRing
    monomials: tuple

    def variables(self):
        seen = {}
        for mono in self.monomials:
            for letter in mono.letters:
                if isinstance(letter, str):
                    seen.setdefault(letter, None)
        return tuple(seen)

    def evaluate(self, assignment) -> RingElement:
        total = self.ring.zero()
        for mono in self.monomials:
            acc = None
            for letter in mono.letters:
                value = _letter_value(self.ring, letter, assignment)
                acc = value if acc is None else acc * value
            total = total + acc.scale(mono.coeff)
        return total

    def __repr__(self):
        if not self.monomials:
            return "0"
        parts = []
        for mono in self.monomials:
            names = [l if isinstance(l, str) else repr(l) for l in mono.letters]
            if mono.coeff == 1:
                parts.append("*".join(names))
            else:
                parts.append("*".join([str(mono.coeff)] + names))
        return " + ".join(parts)


def _letter_value(ring, letter, assignment):
    if isinstance(letter, str):
        try:
            value = assignment[letter]
        except KeyError:
            raise RingError("no value for ring variable %r" % letter) from None
        if not isinstance(value, RingElement) or value.ring != ring:
            raise RingError("value for %r is not an element of %s" % (letter, ring))
        return value
    return letter


def _normalize_monomials(ring, raw):
    cutoff = ring.nilpotency_bound
    n = ring.modulus
    merged = {}
    for coeff, letters in raw:
        coeff %= n
        if coeff == 0 or len(letters) >= cutoff:
            continue
        if any(isinstance(l, RingElement) and l.is_zero() for l in letters):
            continue
        acc = merged.get(letters)
        merged[letters] = (acc + coeff) % n if acc is not None else coeff
    monos = [RingMonomial(c, letters) for letters, c in merged.items() if c]
    monos.sort(key=_monomial_key)
    return SigmaForm(ring, tuple(monos))


def sigma_expand(expr, ring: NilpotentMatrixRing) -> SigmaForm:
    """Expand an expression into a sum of monomials.

    Products are distributed over sums, and every monomial with at least
    m*alpha letter factors is dropped: such a product of ring elements is
    already the zero matrix.
    """
    if isinstance(expr, SigmaForm):
        if expr.ring != ring:
            raise RingError("expression over a different ring")
        return _normalize_monomials(
            ring, ((mono.coeff, mono.letters) for mono in expr.monomials))
    return _normalize_monomials(ring, _expand(expr, ring))


def _expand(expr, ring):
    if isinstance(expr, RVar):
        return [(1, (expr.name,))]
    if isinstance(expr, RConst):
        if expr.value.ring != ring:
            raise RingError("constant from a different ring")
        return [(1, (expr.value,))]
    if isinstance(expr, RingElement):
        if expr.ring != ring:
            raise RingError("constant from a different ring")
        return [(1, (expr,))]
    if isinstance(expr, str):
        return [(1, (expr,))]
    if isinstance(expr, RNeg):
        return [(-c, letters) for c, letters in _expand(expr.part, ring)]
    if isinstance(expr, RScale):
        return [(expr.coeff * c, letters)
                for c, letters in _expand(expr.part, ring)]
    if isinstance(expr, RSum):
        out = []
        for part in expr.parts:
            out.extend(_expand(part, ring))
        return out
    if isinstance(expr, RProd):
        if not expr.parts:
            raise RingError("empty product has no meaning in a non-unital ring")
        out = [(1, ())]
        cutoff = ring.nilpotency_bound
        for part in expr.parts:
            expanded = _expand(part, ring)
            # partial products only ever grow, so pruning at the bound is safe
            out = [(c1 * c2, l1 + l2)
                   for c1, l1 in out for c2, l2 in expanded
                   if len(l1) + len(l2) < cutoff]
        return [t for t in out if t[1]]
    raise RingError("not a ring expression: %r" % (expr,))


def eval_ring_expr(expr, assignment, ring) -> RingElement:
    """Evaluate an expression tree directly, without expanding it."""
    if isinstance(expr, SigmaForm):
        return expr.evaluate(assignment)
    if isinstance(expr, (RingElement, str)):
        return _letter_value(ring, expr, assignment)
    if isinstance(expr, RVar):
        return _letter_value(ring, expr.name, assignment)
    if isinstance(expr, RConst):
        return _letter_value(ring, expr.value, assignment)
    if isinstance(expr, RNeg):
        return -eval_ring_expr(expr.part, assignment, ring)
    if isinstance(expr, RScale):
        return eval_ring_expr(expr.part, assignment, ring).scale(expr.coeff)
    if isinstance(expr, RSum):
        total = ring.zero()
        for part in expr.parts:
            total = total + eval_ring_expr(part, assignment, ring)
        return total
    if isinstance(expr, RProd):
        acc = None
        for part in expr.parts:
            value = eval_ring_expr(part, assignment, ring)
            acc = value if acc is None else acc * value
        if acc is None:
            raise RingError("empty product has no meaning in a non-unital ring")
        return acc
    raise RingError("not a ring expression: %r" % (expr,))


def expr_variables(expr):
    """Distinct variable names in order of first occurrence."""
    seen = {}

    def walk(e):
        if isinstance(e, SigmaForm):
            for name in e.variables():
                seen.setdefault(name, None)
        elif isinstance(e, str):
            seen.setdefault(e, None)
        elif isinstance(e, RVar):
            seen.setdefault(e.name, None)
        elif isinstance(e, (RNeg, RScale)):
            walk(e.part)
        elif isinstance(e, (RSum, RProd)):
            for part in e.parts:
                walk(part)

    walk(expr)
    return tuple(seen)


# -- entrywise rewriting -------------------------------------------------------

def _letter_grid(ring, letter, k):
    """Symbolic m x m grid of one letter: entry polynomials over Z_{p^a}.

    For a variable letter, above-diagonal entries are the variables
    s[i][j][k] and on/below entries are p * a[i][j][k]; for alpha = 1 the
    latter vanish outright.
    """
    dom = ring.domain
    m = ring.m
    grid = []
    if isinstance(letter, str):
        p_scalar = dom.scalar(ring.p)
        for i in range(1, m + 1):
            row = []
            for j in range(1, m + 1):
                if i < j:
                    row.append(Polynomial.variable(dom, s_variable(i, j, k)))
                else:
                    row.append(Polynomial.variable(
                        dom, a_variable(i, j, k)).times_scalar(p_scalar))
            grid.append(tuple(row))
    else:
        for i in range(m):
            row = []
            for j in range(m):
                row.append(Polynomial.constant(dom.scalar(letter.rows[i][j])))
            grid.append(tuple(row))
    return tuple(grid)


def _grid_mul(ring, a, b):
    m = ring.m
    zero = Polynomial.zero(ring.domain)
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            acc = zero
            for l in range(m):
                left = a[i][l]
                right = b[l][j]
                if left.is_zero() or right.is_zero():
                    continue
                acc = acc + left * right
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


def monomial_entry_polys(ring: NilpotentMatrixRing, mono: RingMonomial,
                         var_index) -> tuple:
    """Entry polynomials of one monomial's matrix product.

    Exact coefficient tracking performs the pruning: a chain picking up b
    on/below-diagonal factors carries a coefficient divisible by p^b, so it
    disappears from the normal form once b reaches alpha.  Surviving
    monomials therefore have at most m*alpha - 1 factors.
    """
    grid = None
    for letter in mono.letters:
        k = var_index[letter] if isinstance(letter, str) else None
        lg = _letter_grid(ring, letter, k)
        grid = lg if grid is None else _grid_mul(ring, grid, lg)
    if grid is None:
        raise RingError("monomial with no letters")
    if mono.coeff != 1:
        c = ring.domain.scalar(mono.coeff)
        grid = tuple(tuple(p.times_scalar(c) for p in row) for row in grid)
    return grid


def sigma_var_index(sigma: SigmaForm) -> dict:
    return {name: k for k, name in enumerate(sigma.variables(), start=1)}


def entrywise_rewrite(sigma: SigmaForm, ring: NilpotentMatrixRing,
                      var_index=None) -> tuple:
    """Rewrite a sum of monomials into m x m scalar entry polynomials."""
    if var_index is None:
        var_index = sigma_var_index(sigma)
    m = ring.m
    zero = Polynomial.zero(ring.domain)
    total = [[zero] * m for _ in range(m)]
    for mono in sigma.monomials:
        grid = monomial_entry_polys(ring, mono, var_index)
        for i in range(m):
            for j in range(m):
                total[i][j] = total[i][j] + grid[i][j]
    return tuple(tuple(row) for row in total)


# -- deciding equations --------------------------------------------------------

@dataclass
class ReducedRingSystem:
    ring: NilpotentMatrixRing
    expr: object
    rhs: RingElement
    var_names: tuple
    system: PolySystem
    entry_polys: tuple

    def assemble_witness(self, assignment) -> dict:
        ring = self.ring
        n = ring.modulus
        out = {}
        for k, name in enumerate(self.var_names, start=1):
            rows = []
            for i in range(1, ring.m + 1):
                row = []
                for j in range(1, ring.m + 1):
                    if i < j:
                        val = assignment.get(s_variable(i, j, k))
                        row.append(val.raw if val is not None else 0)
                    else:
                        val = assignment.get(a_variable(i, j, k))
                        row.append((ring.p * val.raw) % n if val is not None else 0)
                rows.append(tuple(row))
            out[name] = ring.element(rows)
        return out


def build_ring_system(ring: NilpotentMatrixRing, expr,
                      rhs: RingElement) -> ReducedRingSystem:
    """Reduce F = rhs over the ring to the m^2 entry constraints over Z_{p^a}."""
    if rhs.ring != ring:
        raise RingError("right-hand side from a different ring")
    sigma = sigma_expand(expr, ring)
    var_index = sigma_var_index(sigma)
    entries = entrywise_rewrite(sigma, ring, var_index)
    dom = ring.domain
    constraints = []
    for i in range(ring.m):
        for j in range(ring.m):
            constraints.append(
                Constraint(entries[i][j], dom.scalar(rhs.rows[i][j])))
    s_domain = tuple(dom.elements())
    a_domain = tuple(dom.scalar(v) for v in range(ring.p ** (ring.alpha - 1)))
    domains = {}
    for c in constraints:
        for v in c.poly.variables():
            if v not in domains:
                domains[v] = s_domain if v.name.startswith("s") else a_domain
    system = PolySystem(dom, tuple(constraints), domains)
    return ReducedRingSystem(ring, expr, rhs, tuple(var_index), system, entries)


def decide_ring_equation(ring: NilpotentMatrixRing, expr, rhs=None, *,
                         guard: int = DEFAULT_GUARD,
                         backend: str = "pruned") -> Decision:
    """Decide solvability of expr = rhs (default rhs: zero) over the ring."""
    if rhs is None:
        rhs = ring.zero()
    reduced = build_ring_system(ring, expr, rhs)
    decision = solve(SolveRequest(reduced.system, backend=backend, guard=guard))
    if not decision.sat:
        return Decision(False, None, decision.stats)
    witness = reduced.assemble_witness(decision.witness)
    for name in expr_variables(expr):
        witness.setdefault(name, ring.zero())
    if eval_ring_expr(expr, witness, ring) != rhs:
        raise RuntimeError("internal error: ring witness failed re-check")
    return Decision(True, witness, decision.stats)


# -- ideals and factor rings ---------------------------------------------------

@dataclass(frozen=True)
class Ideal:
    """A two-sided ideal given by its full element set."""

    ring: NilpotentMatrixRing
    generators: tuple
    elements: tuple

    def __contains__(self, x) -> bool:
        return x in self._element_set

    @cached_property
    def _element_set(self):
        return frozenset(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)


def enumerate_ideal(ring: NilpotentMatrixRing, generators,
                    guard: int = IDEAL_GUARD) -> Ideal:
    """Smallest set containing the generators and closed under +, -, and
    two-sided multiplication by every ring element (fixed-point closure)."""
    if ring.cardinality > guard:
        raise GuardExceeded(ring.cardinality, guard)
    gens = tuple(generators)
    for g in gens:
        if not isinstance(g, RingElement) or g.ring != ring:
            raise RingError("generator %r is not an element of %s" % (g, ring))
    all_elems = ring_elements(ring)
    closed = {ring.zero()}
    work = list(gens)
    while work:
        a = work.pop()
        if a in closed:
            continue
        closed.add(a)
        work.append(-a)
        for b in list(closed):
            work.append(a + b)
        for x in all_elems:
            work.append(x * a)
            work.append(a * x)
    elements = sorted(closed, key=RingElement.key)
    return Ideal(ring, gens, tuple(elements))


def decide_factor_ring(ring: NilpotentMatrixRing, ideal: Ideal, expr, *,
                       guard: int = DEFAULT_GUARD,
                       backend: str = "pruned") -> Decision:
    """Decide solvability of expr = 0 over the factor ring M/I.

    The image of expr vanishes in M/I for some substitution iff expr = a is
    solvable over M for some ideal element a; candidates are tried in
    canonical order and the successful one is reported on the decision.
    """
    stats = SolveStats()
    for a in ideal.elements:
        decision = decide_ring_equation(ring, expr, a, guard=guard,
                                        backend=backend)
        stats.explored += decision.stats.explored
        stats.prunes += decision.stats.prunes
        if decision.sat:
            return Decision(True, decision.witness, stats, ideal_element=a)
    return Decision(False, None, stats)


def brute_force_ring_solve(ring: NilpotentMatrixRing, expr, rhs=None,
                           ideal: Ideal = None,
                           guard: int = DEFAULT_GUARD) -> Decision:
    """Exhaustive oracle over the ring, or over M/I when an ideal is given.

    Over M/I, assignments range over canonical coset representatives and
    equality means the difference lands in the ideal.
    """
    if rhs is None:
        rhs = ring.zero()
    names = expr_variables(expr)
    if ideal is not None:
        seen = set()
        carrier = []
        for e in ring_elements(ring):
            if e in seen:
                continue
            carrier.append(e)
            for i in ideal.elements:
                seen.add(e + i)
    else:
        carrier = list(ring_elements(ring))
    space = len(carrier) ** len(names)
    if space > guard:
        raise GuardExceeded(space, guard)
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
