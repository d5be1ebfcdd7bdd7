import itertools
import random

import pytest

from eqsolve import (Constraint, GuardExceeded, PolySystem, Polynomial,
                     SolveRequest, SolverError, Variable, make_domain, solve,
                     verify_witness)

from naive import solve_naive

F2 = make_domain(2)
F3 = make_domain(3)
X = Variable("x")
Y = Variable("y")
Z = Variable("z")


def poly(domain, *terms):
    return Polynomial.from_terms(domain, terms)


def full_domain(d):
    return tuple(d.elements())


def test_constant_system_sat():
    system = PolySystem(F3, (Constraint(poly(F3, (1, ())), F3.one()),), {})
    decision = solve(SolveRequest(system))
    assert decision.sat and decision.witness == {}


def test_constant_system_unsat():
    system = PolySystem(F3, (Constraint(poly(F3, (1, ())), F3.zero()),), {})
    assert not solve(SolveRequest(system)).sat


def test_subgroup_restricted_variable():
    sub = (F3.one(), F3.scalar(2))
    system = PolySystem(F3, (Constraint(poly(F3, (1, (Y,))), F3.scalar(2)),),
                        {Y: sub})
    decision = solve(SolveRequest(system))
    assert decision.sat and decision.witness[Y] == F3.scalar(2)


def test_two_constraint_example():
    # x*y + 1 = 0 and x + y = 0 over GF(3)
    system = PolySystem(F3, (
        Constraint(poly(F3, (1, (X, Y)), (1, ())), F3.zero()),
        Constraint(poly(F3, (1, (X,)), (1, (Y,))), F3.zero()),
    ), {X: full_domain(F3), Y: full_domain(F3)})
    # oracle: first (x, y) pair in scan order satisfying both
    expected = None
    for a, b in itertools.product(range(3), repeat=2):
        if (a * b + 1) % 3 == 0 and (a + b) % 3 == 0:
            expected = (a, b)
            break
    assert expected == (1, 2)
    decision = solve(SolveRequest(system))
    assert decision.sat
    assert decision.witness[X] == F3.scalar(1)
    assert decision.witness[Y] == F3.scalar(2)


def test_verify_witness():
    system = PolySystem(F2, (Constraint(poly(F2, (1, (X,))), F2.one()),),
                        {X: full_domain(F2)})
    assert verify_witness(system, {X: F2.one()})
    assert not verify_witness(system, {X: F2.zero()})
    with pytest.raises(SolverError):
        verify_witness(system, {})
    assert verify_witness(PolySystem(F2, (), {}), {})


def test_witness_domain_violation_raises():
    sub = (F3.one(),)
    system = PolySystem(F3, (Constraint(poly(F3, (1, (Y,))), F3.one()),),
                        {Y: sub})
    with pytest.raises(SolverError):
        verify_witness(system, {Y: F3.scalar(2)})


_W = Variable("w")


def _random_system(rng, domain):
    variables = [X, Y, Z, _W][:rng.randint(1, 4)]
    constraints = []
    for _ in range(rng.randint(1, 3)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = tuple(rng.choice(variables)
                            for _ in range(rng.randint(0, 3)))
            terms.append((rng.randrange(domain.size), factors))
        constraints.append(Constraint(
            Polynomial.from_terms(domain, terms),
            domain.scalar(rng.randrange(domain.size))))
    domains = {v: full_domain(domain) for v in variables}
    return PolySystem(domain, tuple(constraints), domains)


def test_pruned_equals_naive_on_random_systems():
    rng = random.Random(42)
    domains = [F2, F3, make_domain(2, 2, "modular")]
    for trial in range(200):
        system = _random_system(rng, domains[trial % 3])
        pruned = solve(SolveRequest(system))
        naive = solve_naive(system)
        assert pruned.sat == naive.sat, trial
        if pruned.sat:
            assert pruned.witness == naive.witness, trial


_U = Variable("u")


def _restricted_system(rng, domain):
    """Random system whose variables range over random subsets of the domain
    in random order; factors repeat, and u is in the domain map but in no
    constraint."""
    read = [X, Y, Z, _W][:rng.randint(1, 4)]
    elements = full_domain(domain)
    constraints = []
    for _ in range(rng.randint(1, 3)):
        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = [rng.choice(read) for _ in range(rng.randint(0, 3))]
            if factors and rng.random() < 0.5:
                factors.append(rng.choice(factors))
            terms.append((rng.randrange(domain.size), tuple(factors)))
        constraints.append(Constraint(
            Polynomial.from_terms(domain, terms),
            domain.scalar(rng.randrange(domain.size))))
    domains = {v: tuple(rng.sample(elements, rng.randint(1, 4)))
               for v in read + [_U]}
    return PolySystem(domain, tuple(constraints), domains)


def test_pruned_equals_naive_on_restricted_domains():
    """Dead monomials, early checks and pinning drop only branches without a
    solution or copies of a first-value branch: over Z8, Z9 and GF(4), with
    restricted domains whose first value is often not 0, repeated factors
    and an unread variable, pruned and naive agree witness for witness."""
    rng = random.Random(12)
    domains = [make_domain(2, 3, "modular"), make_domain(3, 2, "modular"),
               make_domain(2, 2)]
    nonzero_first = repeated = sat = 0
    for trial in range(900):
        system = _restricted_system(rng, domains[trial % 3])
        nonzero_first += not system.domains[_U][0].is_zero()
        repeated += any(len(set(factors)) < len(factors)
                        for c in system.constraints
                        for factors, _ in c.poly._terms)
        pruned = solve(SolveRequest(system))
        naive = solve_naive(system)
        assert pruned.sat == naive.sat, trial
        if pruned.sat:
            sat += 1
            assert pruned.witness == naive.witness, trial
    assert min(nonzero_first, repeated, sat, 900 - sat) >= 100


def test_guard_exceeded():
    system = PolySystem(F3, (Constraint(poly(F3, (1, (X,))), F3.zero()),),
                        {X: full_domain(F3)})
    with pytest.raises(GuardExceeded) as err:
        solve(SolveRequest(system, guard=2))
    assert err.value.space == 3


def test_determinism():
    rng = random.Random(7)
    system = _random_system(rng, F3)
    first = solve(SolveRequest(system))
    second = solve(SolveRequest(system))
    assert first.sat == second.sat
    assert first.witness == second.witness
    assert (first.stats.explored, first.stats.prunes) == \
           (second.stats.explored, second.stats.prunes)


def test_empty_domain_rejected():
    with pytest.raises(SolverError):
        PolySystem(F3, (Constraint(poly(F3, (1, (X,))), F3.zero()),), {X: ()})


def test_missing_domain_entry_rejected():
    with pytest.raises(SolverError):
        PolySystem(F3, (Constraint(poly(F3, (1, (X,))), F3.zero()),), {})


def test_variable_order_by_occurrence():
    # z appears three times, x twice, y once: order z, x, y
    from eqsolve.solver import _ordered_variables
    system = PolySystem(F3, (
        Constraint(poly(F3, (1, (Z, Z, X)), (1, (Y,))), F3.zero()),
        Constraint(poly(F3, (1, (Z, X))), F3.zero()),
    ), {X: full_domain(F3), Y: full_domain(F3), Z: full_domain(F3)})
    assert [v.name for v in _ordered_variables(system)] == ["z", "x", "y"]


def test_every_slot_starts_at_its_base_entry(group_family):
    """base[i][j] == coeff * values[0] for every slot of every layout: an
    unread slot keeps base's entry, so the witness agrees with the value
    the search pins an unread variable to."""
    from eqsolve import make_group, make_ring
    from eqsolve.reduction import _variable_slots as group_slots
    from eqsolve.rings import _variable_slots as ring_slots
    f4 = make_domain(2, 2)
    groups = group_family + (make_group(f4, 2, ((1, 2),), (3, 3)),
                             make_group(f4, 3, ((1, 2), (1, 3)), (3, 3, 1)))
    layouts = [(group.domain, group.identity().rows,
                group_slots(group, 2, formal))
               for group in groups for formal in (True, False)]
    # M(2,Z2), M(2,Z4), M(3,Z3), M(3,Z4), M(2,Z9)
    for p, alpha, m in ((2, 1, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3),
                        (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        layouts.append((ring.domain, ring.zero().rows, ring_slots(ring, 2)))
    for dom, base, slots in layouts:
        assert slots
        for i, j, coeff, var, values in slots:
            assert base[i][j] == dom.rmul(coeff, values[0].raw), (dom, var)
