"""Solvability of polynomial constraint systems by exhaustive search with pruning.

The solver is a complete decision procedure on guarded instances, not a
heuristic: it enumerates assignments variable by variable (variables ordered
by descending occurrence count, ties broken by name; domain values in
canonical order) and prunes a branch as soon as any fully-assigned constraint
is violated.  Constraint evaluation is incremental: each monomial is indexed
by its deepest variable and evaluated exactly once per branch.  The witness
is the lexicographically first satisfying assignment in that order, so
repeated runs are bit-for-bit reproducible.  A "naive" backend without
pruning backs the prune-safety tests.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .domains import Scalar
from .poly import Polynomial

DEFAULT_GUARD = 10 ** 8


class GuardExceeded(RuntimeError):
    """Search space larger than the configured guard."""

    def __init__(self, space: int, guard: int):
        super().__init__("search space %d exceeds guard %d" % (space, guard))
        self.space = space
        self.guard = guard


class SolverError(ValueError):
    """Malformed system or witness."""


@dataclass(frozen=True)
class Constraint:
    poly: Polynomial
    target: Scalar

    def __repr__(self):
        return "%r = %r" % (self.poly, self.target)


@dataclass
class PolySystem:
    """Constraints plus a per-variable domain map over one scalar domain.

    Construction validates the system and counts, in the same walk over the
    terms, how often each variable occurs (the solver's variable order).
    """

    domain: object
    constraints: tuple
    domains: dict
    _occurrences: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.constraints = tuple(self.constraints)
        occurrences = dict.fromkeys(self.domains, 0)
        for c in self.constraints:
            if c.poly.domain != self.domain or c.target.domain != self.domain:
                raise SolverError("constraint domain differs from system domain")
            for factors, _ in c.poly._terms:
                for v in factors:
                    count = occurrences.get(v)
                    if count is None:
                        raise SolverError("variable %s has no domain entry"
                                          % v.name)
                    occurrences[v] = count + 1
        for v, values in self.domains.items():
            if not values:
                raise SolverError("variable %s has an empty domain" % v.name)
        self._occurrences = occurrences

    def variables(self):
        return tuple(self.domains)

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
    backend: str = "pruned"
    guard: int = DEFAULT_GUARD


def _ordered_variables(system: PolySystem):
    """Descending total occurrence count, ties by variable name."""
    occurrences = system._occurrences
    return sorted(system.domains, key=lambda v: (-occurrences[v], v.name))


def verify_witness(system: PolySystem, assignment: dict) -> bool:
    """True iff every constraint holds exactly; domain violations raise."""
    for v, values in system.domains.items():
        if v not in assignment:
            raise SolverError("witness is missing variable %s" % v.name)
        if not any(assignment[v] == allowed for allowed in values):
            raise SolverError("witness value %r outside the domain of %s"
                              % (assignment[v], v.name))
    return all(c.poly.evaluate(assignment) == c.target
               for c in system.constraints)


def solve(request: SolveRequest) -> Decision:
    system = request.system
    space = system.search_space()
    if space > request.guard:
        raise GuardExceeded(space, request.guard)
    if request.backend == "pruned":
        decision = _solve_pruned(system)
    elif request.backend == "naive":
        decision = _solve_naive(system)
    else:
        raise SolverError("unknown backend %r" % request.backend)
    if decision.sat and not verify_witness(system, decision.witness):
        raise RuntimeError("internal error: unverified witness returned")
    return decision


def _solve_pruned(system: PolySystem) -> Decision:
    dom = system.domain
    variables = _ordered_variables(system)
    nvars = len(variables)
    position = {v: i for i, v in enumerate(variables)}
    domain_raws = [tuple(s.raw for s in system.domains[v]) for v in variables]
    stats = SolveStats()

    ncons = len(system.constraints)
    targets = [c.target.raw for c in system.constraints]
    base_sums = [dom.rzero] * ncons
    buckets = [[] for _ in range(nvars)]     # per depth: (cidx, coeff, positions)
    completion = [[] for _ in range(nvars)]  # constraints fully assigned at depth
    completion_depth = [-1] * ncons

    for cidx, c in enumerate(system.constraints):
        for factors, coeff in c.poly._terms:
            if not factors:
                base_sums[cidx] = dom.radd(base_sums[cidx], coeff)
                continue
            positions = tuple(position[v] for v in factors)
            depth = max(positions)
            buckets[depth].append((cidx, coeff, positions))
            completion_depth[cidx] = max(completion_depth[cidx], depth)

    for cidx, depth in enumerate(completion_depth):
        if depth < 0:
            if base_sums[cidx] != targets[cidx]:
                return Decision(False, None, stats)
        else:
            completion[depth].append(cidx)

    current = [None] * nvars
    radd, rmul = dom.radd, dom.rmul

    def search(depth, sums):
        if depth == nvars:
            return {v: Scalar(dom, current[i]) for i, v in enumerate(variables)}
        bucket = buckets[depth]
        checks = completion[depth]
        for raw in domain_raws[depth]:
            current[depth] = raw
            stats.explored += 1
            if bucket:
                new_sums = sums[:]
                for cidx, coeff, positions in bucket:
                    val = coeff
                    for pos in positions:
                        val = rmul(val, current[pos])
                    new_sums[cidx] = radd(new_sums[cidx], val)
            else:
                new_sums = sums
            if checks:
                violated = False
                for cidx in checks:
                    if new_sums[cidx] != targets[cidx]:
                        violated = True
                        break
                if violated:
                    stats.prunes += 1
                    continue
            found = search(depth + 1, new_sums)
            if found is not None:
                return found
        return None

    witness = search(0, base_sums)
    if witness is None:
        return Decision(False, None, stats)
    return Decision(True, witness, stats)


def _solve_naive(system: PolySystem) -> Decision:
    variables = _ordered_variables(system)
    value_lists = [system.domains[v] for v in variables]
    stats = SolveStats()
    for combo in itertools.product(*value_lists):
        stats.explored += 1
        assignment = dict(zip(variables, combo))
        if all(c.poly.evaluate(assignment) == c.target
               for c in system.constraints):
            return Decision(True, assignment, stats)
    return Decision(False, None, stats)
