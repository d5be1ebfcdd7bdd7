"""The unpropagated reference search, kept apart from eqsolve.solver.

solve_naive() scans every assignment in the solver's variable order (domain
values in canonical order) and returns the first that satisfies every
constraint.  The pruned solver promises the lexicographically first witness
in that order, so the prune-safety tests compare the two witness for
witness.
"""

from __future__ import annotations

import itertools

from eqsolve.solver import Decision, SolveStats, _ordered_variables
from polyexpr import evaluate


def solve_naive(system) -> Decision:
    variables = _ordered_variables(system)
    value_lists = [system.domains[v] for v in variables]
    stats = SolveStats()
    for combo in itertools.product(*value_lists):
        stats.explored += 1
        assignment = dict(zip(variables, combo))
        if all(evaluate(system.domain, c.poly, assignment) == c.target
               for c in system.constraints):
            return Decision(True, assignment, stats)
    return Decision(False, None, stats)
