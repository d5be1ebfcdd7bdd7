"""Equation solvability over semipattern matrix groups and nilpotent matrix
rings, decided by symbolic reduction to polynomial systems over the scalars,
with brute-force oracles for cross-checking."""

from .domains import (DomainError, FiniteField, ModularRing, PrimeField,
                      make_domain, subgroup_of_order)
from .groups import (GroupElement, GroupError, PatternError, SemipatternGroup,
                     brute_force_solve, element_list, evaluate_word,
                     exponent_bound, full_pattern, invert_word, make_group,
                     multiply, unitriangular_group, word_variables,
                     words_agree_everywhere)
from .poly import Polynomial
from .reduction import (ReducedSystem, build_system, decide_equation,
                        decide_equivalence, separating_substitution,
                        symbolic_product)
from .rings import (Ideal, NilpotentMatrixRing, RConst, RingElement,
                    RingError, RNeg, RProd, RScale, RSum, RVar,
                    brute_force_ring_solve, build_ring_system,
                    decide_factor_ring, decide_ring_equation, enumerate_ideal,
                    entrywise_rewrite, eval_ring_expr, expr_variables,
                    make_ring, ring_elements, sigma_expand)
from .solver import (Constraint, Decision, GuardExceeded, PolySystem,
                     SolveRequest, SolveStats, SolverError, solve,
                     verify_witness)

__all__ = [name for name in dir() if not name.startswith("_")]
