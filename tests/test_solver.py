import collections
import itertools
import random

import pytest

from eqsolve import (Constraint, GuardExceeded, PolySystem, SolveRequest,
                     SolverError, make_domain, solve, verify_witness)

from naive import solve_naive
from polyexpr import poly

F2 = make_domain(2)
F3 = make_domain(3)
X = "x"
Y = "y"
Z = "z"


def full_domain(d):
    return tuple(d.elements())


def test_constant_system_sat():
    system = PolySystem(F3, (Constraint(poly(F3, (1, ())), 1),), {})
    decision = solve(SolveRequest(system))
    assert decision.sat and decision.witness == {}


def test_constant_system_unsat():
    system = PolySystem(F3, (Constraint(poly(F3, (1, ())), 0),), {})
    assert not solve(SolveRequest(system)).sat


def test_subgroup_restricted_variable():
    sub = (1, 2)
    system = PolySystem(F3, (Constraint(poly(F3, (1, (Y,))), 2),),
                        {Y: sub})
    decision = solve(SolveRequest(system))
    assert decision.sat and decision.witness[Y] == 2


def test_two_constraint_example():
    # x*y + 1 = 0 and x + y = 0 over GF(3)
    system = PolySystem(F3, (
        Constraint(poly(F3, (1, (X, Y)), (1, ())), 0),
        Constraint(poly(F3, (1, (X,)), (1, (Y,))), 0),
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
    assert decision.witness[X] == 1
    assert decision.witness[Y] == 2


def test_verify_witness():
    system = PolySystem(F2, (Constraint(poly(F2, (1, (X,))), 1),),
                        {X: full_domain(F2)})
    assert verify_witness(system, {X: 1})
    assert not verify_witness(system, {X: 0})
    with pytest.raises(SolverError):
        verify_witness(system, {})
    assert verify_witness(PolySystem(F2, (), {}), {})


def test_witness_domain_violation_raises():
    sub = (1,)
    system = PolySystem(F3, (Constraint(poly(F3, (1, (Y,))), 1),),
                        {Y: sub})
    with pytest.raises(SolverError):
        verify_witness(system, {Y: 2})


_W = "w"


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
            poly(domain, *terms),
            domain.coerce(rng.randrange(domain.size))))
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


_U = "u"


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
            poly(domain, *terms),
            domain.coerce(rng.randrange(domain.size))))
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
        domain = domains[trial % 3]
        system = _restricted_system(rng, domain)
        nonzero_first += system.domains[_U][0] != domain.rzero
        repeated += any(len(set(factors)) < len(factors)
                        for c in system.constraints
                        for factors, _ in c.poly.items())
        pruned = solve(SolveRequest(system))
        naive = solve_naive(system)
        assert pruned.sat == naive.sat, trial
        if pruned.sat:
            sat += 1
            assert pruned.witness == naive.witness, trial
    assert min(nonzero_first, repeated, sat, 900 - sat) >= 100


def _scalar_verify_witness(system, assignment):
    """verify_witness as a term-by-term reference: domain membership by
    ==, each constraint evaluated monomial by monomial and compared by ==."""
    for v, values in system.domains.items():
        if v not in assignment:
            raise SolverError("witness is missing variable %s" % v)
        if not any(assignment[v] == allowed for allowed in values):
            raise SolverError("witness value %r outside the domain of %s"
                              % (assignment[v], v))
    for c in system.constraints:
        dom = c.poly.domain
        total = dom.rzero
        for factors, coeff in c.poly.items():
            for v in factors:
                coeff = dom.rmul(coeff, assignment[v])
            total = dom.radd(total, coeff)
        if not total == c.target:
            return False
    return True


def _outcome(check, system, assignment):
    try:
        return "value", check(system, assignment)
    except SolverError as exc:
        return "error", str(exc)


def test_verify_witness_matches_scalar_evaluation():
    """verify_witness gives the reference's verdicts and messages over Z8,
    Z9 and GF(4): on solver witnesses and altered ones, with a variable
    missing or a value outside its domain."""
    rng = random.Random(19)
    specs = ((2, 3, "modular"), (3, 2, "modular"), (2, 2, "field"))
    doms = [make_domain(*spec) for spec in specs]
    seen = collections.Counter()
    for trial in range(900):
        dom = doms[trial % 3]
        system = _restricted_system(rng, dom)
        decision = solve(SolveRequest(system))
        assignment = dict(decision.witness) if decision.sat else {
            v: rng.choice(values) for v, values in system.domains.items()}
        v = rng.choice(list(system.domains))
        case = rng.choice(("kept", "missing", "outside", "moved"))
        outside = [s for s in full_domain(dom)
                   if s not in system.domains[v]]
        if case == "missing":
            del assignment[v]
        elif case == "outside" and outside:
            assignment[v] = rng.choice(outside)
        elif case == "moved":
            assignment[v] = rng.choice(system.domains[v])
        expected = _outcome(_scalar_verify_witness, system, assignment)
        assert _outcome(verify_witness, system, assignment) == expected, trial
        seen[case, expected[0] if expected[0] == "error" else expected[1]] += 1
    assert min(seen["kept", True], seen["moved", False],
               seen["missing", "error"], seen["outside", "error"]) >= 20, seen


def test_targets_outside_the_domain_rejected():
    """A target must be one of the domain's raw values."""
    z9 = make_domain(3, 2, "modular")
    system = _restricted_system(random.Random(29), z9)
    for bad in (9, (0, 1)):
        targets = [0] * len(system.constraints)
        targets[-1] = bad
        with pytest.raises(SolverError):
            PolySystem(z9, tuple(Constraint(c.poly, t) for c, t
                                 in zip(system.constraints, targets)),
                       system.domains)


def test_target_check_accepts_exactly_the_elements():
    """`t in domain` accepts what `t in domain.elements()` accepts."""
    odd = (-1, True, False, 1.0, 2.5, None, "a", (), (0,), (0, 1), [0, 1],
           (1, 0, 1), (0, 3), (0.0, 1))
    for dom in (make_domain(3, 2, "modular"), make_domain(5), F2,
                make_domain(2, 2), make_domain(2, 3), make_domain(3, 2)):
        for target in dom.elements() + (dom.size,) + odd:
            assert (target in dom) == (target in dom.elements()), \
                (dom, target)


def test_target_check_does_not_list_the_domain(monkeypatch):
    """A target is checked without the domain's element list, so the check
    costs the same at any q (GF(1048573) here)."""
    big = make_domain(1048573)
    constraint = Constraint(poly(big, (1, (X,))), big.size - 1)
    monkeypatch.setattr(type(big), "elements", None)
    assert PolySystem(big, (constraint,), {X: (0, 1)}).constraints
    with pytest.raises(SolverError):
        PolySystem(big, (Constraint(constraint.poly, big.size),),
                   {X: (0, 1)})


def test_guard_exceeded():
    system = PolySystem(F3, (Constraint(poly(F3, (1, (X,))), 0),),
                        {X: full_domain(F3)})
    with pytest.raises(GuardExceeded) as err:
        solve(SolveRequest(system, guard=2))
    assert err.value.space == 3


def test_guard_message_writes_huge_numbers_as_powers_of_ten():
    assert str(GuardExceeded(3, 2)) == "search space 3 exceeds guard 2"
    err = GuardExceeded(2 ** 2016, 10 ** 8)
    assert len(str(err)) < 80
    assert "10^606.9" in str(err)
    assert (err.space, err.guard) == (2 ** 2016, 10 ** 8)


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
        PolySystem(F3, (Constraint(poly(F3, (1, (X,))), 0),), {X: ()})


def test_missing_domain_entry_rejected():
    with pytest.raises(SolverError):
        PolySystem(F3, (Constraint(poly(F3, (1, (X,))), 0),), {})


def test_variable_order_by_occurrence():
    # z appears three times, x twice, y once: order z, x, y
    from eqsolve.solver import _ordered_variables
    system = PolySystem(F3, (
        Constraint(poly(F3, (1, (Z, Z, X)), (1, (Y,))), 0),
        Constraint(poly(F3, (1, (Z, X))), 0),
    ), {X: full_domain(F3), Y: full_domain(F3), Z: full_domain(F3)})
    assert _ordered_variables(system) == ["z", "x", "y"]


def test_every_slot_starts_at_its_base_entry(group_family):
    """base[i][j] == coeff * values[0] for every slot of every layout: an
    unread slot keeps base's entry, so the witness agrees with the value
    the search pins an unread variable to."""
    from eqsolve import make_group, make_ring
    from eqsolve.reduction import _unknown as group_unknown
    from eqsolve.rings import _unknown as ring_unknown
    f4 = make_domain(2, 2)
    groups = group_family + (make_group(f4, 2, ((1, 2),), (3, 3)),
                             make_group(f4, 3, ((1, 2), (1, 3)), (3, 3, 1)))
    layouts = [(group.domain, group.identity().rows,
                group_unknown(group, 2, formal)[0])
               for group in groups for formal in (True, False)]
    # M(2,Z2), M(2,Z4), M(3,Z3), M(3,Z4), M(2,Z9)
    for p, alpha, m in ((2, 1, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3),
                        (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        layouts.append((ring.domain, ring.zero().rows,
                        ring_unknown(ring, 2)[0]))
    for dom, base, slots in layouts:
        assert slots
        for i, j, coeff, var, values in slots:
            assert base[i][j] == dom.rmul(coeff, values[0]), (dom, var)


def test_unknown_records_map_each_slot_to_its_layout_values(group_family,
                                                           ring_m2z4,
                                                           ring_m3z3):
    """Each cached _unknown record's slot domains are exactly its layout's
    {var: values}, in layout order and with the same tuple objects, and a
    built system holds the cached records themselves, so constrain reads
    the domains without rebuilding them."""
    from eqsolve import RVar, build_ring_system, build_system, reduction, rings
    records = [(reduction._unknown, (group, k, formal))
               for group in group_family for k in (1, 2, 3)
               for formal in (True, False)]
    records += [(rings._unknown, (ring, k))
                for ring in (ring_m2z4, ring_m3z3) for k in (1, 2, 3)]
    for cache, args in records:
        layout, _, domains = cache(*args)
        assert list(domains) == [var for _, _, _, var, _ in layout], args
        for _, _, _, var, values in layout:
            assert domains[var] is values, (args, var)
    for group in group_family:
        for formal in (True, False):
            reduced = build_system(group, ("x", "y", "x"), ("y",),
                                   formal=formal)
            assert list(reduced.unknowns) == ["x", "y"]
            for k, record in enumerate(reduced.unknowns.values(), start=1):
                assert record is reduction._unknown(group, k, formal)
    x, y = RVar("x"), RVar("y")
    reduced = build_ring_system(ring_m2z4, y * x * y, ring_m2z4.zero())
    assert list(reduced.unknowns) == ["y", "x"]
    for k, record in enumerate(reduced.unknowns.values(), start=1):
        assert record is rings._unknown(ring_m2z4, k)


def _reference_walk(system):
    """(variables in order of first reading, occurrence counts) of a
    system's terms."""
    first = {}
    counts = collections.Counter()
    for c in system.constraints:
        for factors, _ in c.poly.items():
            for v in factors:
                first.setdefault(v, None)
                counts[v] += 1
    return list(first), dict(counts)


def test_slot_systems_keep_exactly_the_variables_they_read(group_family,
                                                          ring_m2z4,
                                                          ring_m3z3):
    """A system that SlotSystem.constrain builds keeps the domain of each
    variable its constraints read, in order of first reading, and no
    other, and counts their occurrences in the same walk: group systems
    (formal or cut, constant or word right side), ring systems, and factor
    systems, which read the t[k] scalars as well."""
    from eqsolve import (build_ring_system, build_system, element_list,
                         enumerate_ideal, ring_elements)
    from eqsolve.rings import t_variable
    from conftest import random_ring_expr, random_word
    rng = random.Random(4133)
    reduced = []
    for group in group_family:
        for trial in range(20):
            lhs = random_word(rng, group)
            rhs = (random_word(rng, group, max_len=4, min_len=0)
                   if trial % 3 == 2 else rng.choice(element_list(group)))
            reduced.append(build_system(group, lhs, rhs,
                                        formal=trial % 2 == 0))
    scalars = 0
    for ring, generator in ((ring_m2z4, [[0, 2], [0, 0]]),
                            (ring_m3z3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])):
        ideal = enumerate_ideal(ring, [ring.element(generator)])
        for _ in range(20):
            expr = random_ring_expr(rng, ring)
            reduced.append(build_ring_system(
                ring, expr, rng.choice(ring_elements(ring))))
            factor = build_ring_system(ring, expr, ring.zero(), ideal)
            reduced.append(factor)
            scalars += any(v.startswith("t[") for v in factor.system.domains)
            for k, (_, r) in enumerate(ideal.cosets, start=1):
                if t_variable(k) in factor.system.domains:
                    assert factor.system.domains[t_variable(k)] == \
                        tuple(range(r))
    unread = 0
    for red in reduced:
        system = red.system
        order, counts = _reference_walk(system)
        assert list(system.domains) == order
        assert system._occurrences == counts
        records = {}
        for _, _, domains in red.unknowns.values():
            records.update(domains)
        for v, values in system.domains.items():
            assert v.startswith("t[") or values is records[v]
        unread += len(set(records) - set(system.domains))
    assert scalars >= 30 and unread >= 50


def test_hand_built_systems_keep_unread_variables():
    """A domain map given in full is kept in full: u, which no constraint
    reads, stays with 0 occurrences.  slot_domains only fills in the read
    variables that the map leaves out."""
    system = _restricted_system(random.Random(12),
                                make_domain(3, 2, "modular"))
    assert _U in system.domains
    assert system._occurrences[_U] == 0
    constraint = Constraint(poly(F3, (1, (X, Y)), (2, (Y,))), 0)
    system = PolySystem(F3, (constraint,), {Y: (1, 2), _U: (0,)},
                        {X: (0, 1), Y: (0,), Z: (2,)})
    assert system.domains == {Y: (1, 2), _U: (0,), X: (0, 1)}
    assert system._occurrences == {Y: 2, _U: 0, X: 1}


@pytest.mark.parametrize("lookup", [None, {X: (0, 1)}])
def test_every_validation_message_is_kept(lookup):
    """The four malformed-system errors, with or without slot_domains."""
    good = poly(F3, (1, (X,)))
    cases = [
        ((Constraint(poly(F2, (1, (X,))), 0),), {X: (0, 1)},
         "constraint domain differs from system domain"),
        ((Constraint(good, 3),), {X: (0, 1)}, "target 3 is not an element"),
        ((Constraint(poly(F3, (1, (X, Y))), 0),), {X: (0, 1)},
         "variable y has no domain entry"),
        ((Constraint(good, 0),), {X: ()}, "variable x has an empty domain"),
    ]
    for constraints, domains, message in cases:
        with pytest.raises(SolverError, match=message):
            PolySystem(F3, constraints, dict(domains), lookup)
    if lookup:
        with pytest.raises(SolverError, match="variable x has an empty"):
            PolySystem(F3, (Constraint(good, 0),), {}, {X: ()})
