"""Solvability of polynomial constraint systems by exhaustive search with pruning.

The solver is a complete decision procedure on guarded instances, not a
heuristic: it enumerates assignments variable by variable (variables ordered
by descending occurrence count, ties broken by name; domain values in
canonical order) on an explicit stack, so the depth of a system is not
bounded by Python's recursion limit.  Each monomial carries the product of
its coefficient and its assigned factors, updated as each of its variables
is assigned.  A monomial whose product is 0 (a zero value, or over Z_{p^a}
a product of zero divisors) is dead: it adds nothing whatever its other
variables take.  A dead or completed monomial lowers its constraint's live
count, and a constraint whose live count reaches 0 is checked at once, not
at its deepest variable.  A variable that no live monomial reads is pinned:
only its first domain value is tried (one explored node), since every other
value would repeat that subtree.  Assigning a value appends each surviving
monomial to the list of its next variable; a trail per depth undoes this.
Every dropped branch either holds no solution or differs from the first-value
branch only in a variable no constraint still reads, so the witness is the
lexicographically first satisfying assignment in that order and repeated
runs are bit-for-bit reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .domains import _same_domain
from .poly import Polynomial

DEFAULT_GUARD = 10 ** 8


def _magnitude(n: int) -> str:
    """n exactly below 10^15, else 10^ and its log10 to one decimal."""
    return str(n) if n < 10 ** 15 else "10^%.1f" % math.log10(n)


class GuardExceeded(RuntimeError):
    """Search space larger than the configured guard, or, with its own
    message, another size past its limit; space and guard are kept exact,
    and the message writes a huge one as a power of ten."""

    def __init__(self, space: int, guard: int,
                 message: str = "search space %s exceeds guard %s"):
        super().__init__(message % (_magnitude(space), _magnitude(guard)))
        self.space = space
        self.guard = guard


class SolverError(ValueError):
    """Malformed system or witness."""


class Constraint:
    """poly = target, a raw value of poly's domain; compared by identity."""

    __slots__ = ("poly", "target")

    def __init__(self, poly: Polynomial, target):
        self.poly, self.target = poly, target

    def __repr__(self):
        return "%r = %d" % (self.poly, self.poly.domain.encode(self.target))


@dataclass
class PolySystem:
    """Constraints plus a per-variable domain map over one scalar domain;
    targets and domain values are raw values of that domain.

    A read variable that domains does not name takes its domain from the
    {variable: values} map slot_domains, so domains gains only the slots
    read.  Construction validates the system and counts, in the same walk
    over the terms, how often each variable occurs (the variable order).
    """

    domain: object
    constraints: tuple
    domains: dict
    slot_domains: dict = field(default=None, repr=False, compare=False)
    _occurrences: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        domains, lookup = self.domains, self.slot_domains or {}
        occurrences = dict.fromkeys(domains, 0)
        for c in self.constraints:
            if not _same_domain(c.poly.domain, self.domain):
                raise SolverError("constraint domain differs from system domain")
            if c.target not in self.domain:
                raise SolverError("target %r is not an element of %s"
                                  % (c.target, self.domain))
            for factors, _ in c.poly.items():
                for v in factors:
                    count = occurrences.get(v)
                    if count is None:
                        if v not in lookup:
                            raise SolverError("variable %s has no domain entry"
                                              % v)
                        domains[v], count = lookup[v], 0
                    occurrences[v] = count + 1
        for v, values in domains.items():
            if not values:
                raise SolverError("variable %s has an empty domain" % v)
        self._occurrences = occurrences

    def search_space(self) -> int:
        return math.prod(len(vals) for vals in self.domains.values())


@dataclass
class SolveStats:
    explored: int = 0
    prunes: int = 0


@dataclass
class Decision:
    """SAT with a verified witness, or UNSAT; witnesses map names to values."""

    sat: bool
    witness: dict = None
    stats: SolveStats = field(default_factory=SolveStats)
    ideal_element: object = None

    def __bool__(self):
        return self.sat

    def __repr__(self):
        if self.sat:
            return "SAT(%r)" % (self.witness,)
        return "UNSAT"


@dataclass
class SolveRequest:
    system: PolySystem
    guard: int = DEFAULT_GUARD


def _ordered_variables(system: PolySystem):
    """Descending total occurrence count, ties by variable name."""
    occurrences = system._occurrences
    return sorted(system.domains, key=lambda v: (-occurrences[v], v))


def verify_witness(system: PolySystem, assignment: dict) -> bool:
    """True iff every constraint holds exactly; domain violations raise.

    Every variable of the domain map needs one of its domain's raw values;
    the constraints are then evaluated on them."""
    for v, values in system.domains.items():
        if v not in assignment:
            raise SolverError("witness is missing variable %s" % v)
        if assignment[v] not in values:
            raise SolverError("witness value %r outside the domain of %s"
                              % (assignment[v], v))
    dom = system.domain
    radd, rmul, zero = dom.radd, dom.rmul, dom.rzero
    for c in system.constraints:
        total = zero
        for factors, acc in c.poly.items():
            for v in factors:
                acc = rmul(acc, assignment[v])
            total = radd(total, acc)
        if total != c.target:
            return False
    return True


def solve(request: SolveRequest) -> Decision:
    system = request.system
    space = system.search_space()
    if space > request.guard:
        raise GuardExceeded(space, request.guard)
    decision = _solve_pruned(system)
    if decision.sat and not verify_witness(system, decision.witness):
        raise RuntimeError("internal error: unverified witness returned")
    return decision


class SlotSystem:
    """An equation's system whose unknowns are matrices of slots, and the
    one path that decides it.

    Each unknown has one record (layout, letter, slot domains), cached per
    structure by _unknown in reduction and rings.  Its layout lists its
    slots (i, j, coeff, var, values), 0-based: entry (i, j) of the base
    matrix (raw rows) is replaced by coeff * var, var ranging over values,
    and base[i][j] == coeff * values[0], so a slot no constraint reads keeps
    base's entry, the value the search pins an unread variable to.  Its
    letter is what the subclass multiplies out, and its slot domains map
    each var to its values.  A subclass calls constrain() and says how rows
    become elements (assemble_witness) and if a witness holds.
    """

    def __init__(self, domain, base, unknowns):
        self.domain = domain
        self.base = base
        # {name: record}, in first-occurrence order
        self.unknowns = unknowns

    def constrain(self, constraints, scalars=()) -> None:
        """system := constraints over the domains of the slots they read,
        and of the scalars they read: variables outside the unknowns, given
        as a {var: values} map."""
        values = {}
        for _, _, domains in self.unknowns.values():
            values.update(domains)
        values.update(scalars)
        self.system = PolySystem(self.domain, constraints, {}, values)

    def witness_rows(self, assignment):
        """(name, raw rows) per unknown from a {variable name: raw value}
        assignment; unassigned slots keep base's."""
        rmul = self.domain.rmul
        for name, (layout, _, _) in self.unknowns.items():
            rows = [list(row) for row in self.base]
            for i, j, coeff, var, _ in layout:
                value = assignment.get(var)
                if value is not None:
                    rows[i][j] = rmul(coeff, value)
            yield name, tuple(map(tuple, rows))

    def decide(self, guard: int = DEFAULT_GUARD) -> Decision:
        """Solve the system; on SAT the witness maps names to elements and
        has been re-checked on the original equation."""
        decision = solve(SolveRequest(self.system, guard=guard))
        if not decision.sat:
            return Decision(False, None, decision.stats)
        witness = self.assemble_witness(decision.witness)
        if not self.holds(witness):
            raise RuntimeError("internal error: witness failed re-check")
        return Decision(True, witness, decision.stats)


def _solve_pruned(system: PolySystem) -> Decision:
    dom = system.domain
    variables = _ordered_variables(system)
    nvars = len(variables)
    position = {v: i for i, v in enumerate(variables)}
    domain_raws = [system.domains[v] for v in variables]
    stats = SolveStats()
    radd, rmul, zero = dom.radd, dom.rmul, dom.rzero

    ncons = len(system.constraints)
    targets = [c.target for c in system.constraints]
    sums = [zero] * ncons   # constant term plus the completed monomials
    live = [0] * ncons      # monomials neither dead nor completed
    # waiting[d]: (cidx, partial product, depths, k) for every live monomial
    # whose next unassigned factor is depths[k] == d; depths holds the sorted
    # depths of the monomial's factors, a repeated factor once per copy, and
    # ends in nvars.
    waiting = [[] for _ in range(nvars)]
    depth_of = position.__getitem__
    for cidx, c in enumerate(system.constraints):
        for factors, coeff in c.poly.items():
            if not factors:
                sums[cidx] = radd(sums[cidx], coeff)
                continue
            depths = sorted(map(depth_of, factors))
            depths.append(nvars)
            waiting[depths[0]].append((cidx, coeff, depths, 0))
            live[cidx] += 1
    for cidx in range(ncons):
        if not live[cidx] and sums[cidx] != targets[cidx]:
            return Decision(False, None, stats)

    tried = [-1] * nvars                     # index of the value at each depth
    entry = [(sums, live)] + [None] * nvars  # (sums, live) on entering a depth
    trails = [[] for _ in range(nvars)]      # lists the value appended to
    depth = 0
    while depth < nvars:
        trail = trails[depth]
        for appended in trail:
            appended.pop()
        trail.clear()
        values = domain_raws[depth]
        monomials = waiting[depth]
        index = tried[depth] + 1
        # pinned: no live monomial reads this variable, so every later value
        # would repeat the first value's subtree
        if index == len(values) or (index and not monomials):
            if depth == 0:
                return Decision(False, None, stats)
            tried[depth] = -1
            depth -= 1
            continue
        tried[depth] = index
        raw = values[index]
        stats.explored += 1
        sums, live = entry[depth]
        if monomials:
            sums, live = sums[:], live[:]
            violated = False
            for cidx, prod, depths, k in monomials:
                prod = rmul(prod, raw)
                k += 1
                while depths[k] == depth:   # a repeated factor
                    prod = rmul(prod, raw)
                    k += 1
                following = depths[k]
                if prod != zero and following != nvars:
                    queue = waiting[following]
                    queue.append((cidx, prod, depths, k))
                    trail.append(queue)
                    continue
                if prod != zero:
                    sums[cidx] = radd(sums[cidx], prod)
                live[cidx] -= 1   # completed or dead
                if not live[cidx] and sums[cidx] != targets[cidx]:
                    violated = True
                    break
            if violated:
                stats.prunes += 1
                continue
        depth += 1
        entry[depth] = (sums, live)
    witness = {v: domain_raws[d][tried[d]] for d, v in enumerate(variables)}
    return Decision(True, witness, stats)

