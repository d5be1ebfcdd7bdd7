import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eqsolve import (GuardExceeded, RConst, RNeg, RProd, RingError,
                     RScale, RSum, RVar, brute_force_ring_solve,
                     decide_factor_ring, decide_ring_equation,
                     entrywise_rewrite, enumerate_ideal, eval_ring_expr,
                     expr_variables, make_ring, ring_elements,
                     sigma_expand)
from eqsolve import cli, lanes, rings, solver
from eqsolve.domains import residue_matadd, residue_matmul, residue_matscale
from eqsolve.rings import RingElement
from conftest import random_ring_element, random_ring_expr
from entries import as_expr, monomial_entry_polys
from polyexpr import (Polynomial, add, constant, evaluate, mul,
                      product_length, sorted_terms, variable)

X, Y = RVar("x"), RVar("y")


def test_m2z2_is_strictly_upper(ring_m2z2):
    assert ring_m2z2.cardinality == 2
    assert len(ring_elements(ring_m2z2)) == 2
    for a, b in itertools.product(ring_elements(ring_m2z2), repeat=2):
        assert (a * b).is_zero()  # nilpotency class 2


def test_m2z4_cardinality(ring_m2z4):
    # one free slot above the diagonal (4 values), three even slots (2 each)
    assert ring_m2z4.cardinality == 4 * 2 * 2 * 2 == 32
    assert len(ring_elements(ring_m2z4)) == 32


def test_m3z3_nilpotency_class_three(ring_m3z3):
    assert ring_m3z3.cardinality == 27
    elems = ring_elements(ring_m3z3)
    assert any(not (a * b).is_zero()
               for a, b in itertools.product(elems, repeat=2))
    for a, b, c in itertools.product(elems, repeat=3):
        assert ((a * b) * c).is_zero()


def test_make_ring_errors():
    with pytest.raises(RingError):
        make_ring(4, 1, 2)
    with pytest.raises(RingError):
        make_ring(2, 0, 2)



def test_make_ring_limits():
    assert make_ring(2, 20, 64).modulus == 2 ** 20
    for args in ((2, 40, 2), (2, 10 ** 20, 2), (2 ** 61 - 1, 1, 2),
                 (2, 1, 65)):
        with pytest.raises(RingError, match="limit"):
            make_ring(*args)


def test_membership_validation(ring_m2z4):
    with pytest.raises(RingError):
        ring_m2z4.element([[1, 0], [0, 0]])  # odd on the diagonal
    with pytest.raises(RingError):
        ring_m2z4.element([[0, 0], [1, 0]])  # odd below the diagonal
    e = ring_m2z4.element([[2, 3], [0, 2]])
    assert e.rows == ((2, 3), (0, 2))


def _reference_ops(ring, a, b):
    """a * b, a + b and a - b by plain loops over the entries."""
    m, n = ring.m, ring.modulus
    product = tuple(tuple(sum(a[i][l] * b[l][j] for l in range(m)) % n
                          for j in range(m)) for i in range(m))
    total = tuple(tuple((a[i][j] + b[i][j]) % n for j in range(m))
                  for i in range(m))
    difference = tuple(tuple((a[i][j] - b[i][j]) % n for j in range(m))
                       for i in range(m))
    return product, total, difference


def test_ring_operations_match_entry_loops():
    """*, +, -, negation and scaling go through one compiled residue
    kernel per (modulus, size, operation), shared by every descriptor of
    the same ring; -a and c*a are checked and then fed back in as inputs."""
    residue_matmul.cache_clear()
    residue_matadd.cache_clear()
    residue_matscale.cache_clear()
    rng = random.Random(23)
    shapes = ((2, 3, 1), (2, 2, 2), (3, 2, 3), (2, 3, 4))  # (p, alpha, m)
    for p, alpha, m in shapes:
        ring = make_ring(p, alpha, m)
        n = ring.modulus
        for _ in range(60):
            a, b = (ring.element([[rng.randrange(n) if i < j
                                   else p * rng.randrange(n // p)
                                   for j in range(m)] for i in range(m)])
                    for _ in range(2))
            assert ((a * b).rows, (a + b).rows, (a - b).rows) == \
                _reference_ops(ring, a.rows, b.rows)
            for c in (0, 1, -1, 3, n + 2):
                assert a.scale(c).rows == tuple(
                    tuple(c * v % n for v in row) for row in a.rows)
            assert (-a).rows == tuple(tuple(-v % n for v in row)
                                      for row in a.rows)
            for x in (-a, a.scale(3)):
                assert ((x * b).rows, (x + b).rows, (x - b).rows) == \
                    _reference_ops(ring, x.rows, b.rows)
        twin = make_ring(p, alpha, m)
        assert twin is not ring
        assert (twin.zero() * twin.zero()).rows == ring.zero().rows
    assert residue_matmul.cache_info().misses == len(shapes)
    assert residue_matmul.cache_info().hits == len(shapes)
    assert residue_matadd.cache_info().misses == 2 * len(shapes)
    assert residue_matadd.cache_info().currsize == 2 * len(shapes)
    assert residue_matscale.cache_info().misses == len(shapes)


def test_sigma_of_sigma_is_normal_form(ring_m2z4):
    sigma = sigma_expand(X * Y + X * Y, ring_m2z4)
    again = sigma_expand(as_expr(sigma), ring_m2z4)
    assert again == sigma
    assert sigma == ((2, ("x", "y")),)


def test_sigma_distributes(ring_m2z4):
    sigma = sigma_expand(RProd((RSum((X, Y)), RVar("z"))), ring_m2z4)
    assert sigma == ((1, ("x", "z")), (1, ("y", "z")))


def test_sigma_keeps_the_order_of_first_appearance(ring_m2z4):
    """Monomials are merged, not sorted: yx comes first as it does in the
    expression, and a shorter later monomial stays later."""
    assert sigma_expand(Y * X + X * Y, ring_m2z4) == \
        ((1, ("y", "x")), (1, ("x", "y")))
    assert sigma_expand(Y * X + X + RScale(3, Y * X), ring_m2z4) == \
        ((1, ("x",)),)


def test_sigma_cube_truncation(ring_m2z4, ring_m2z2):
    cube = RProd((RSum((X, Y)),) * 3)
    sigma = sigma_expand(cube, ring_m2z4)  # bound 4: length-3 products stay
    assert len(sigma) == 8
    assert all(len(letters) == 3 for _, letters in sigma)
    sigma2 = sigma_expand(cube, ring_m2z2)  # bound 2: everything dies
    assert sigma2 == ()


def test_sigma_semantics_exhaustive(ring_m2z2, ring_m2z4):
    rng = random.Random(37)
    for ring, trials in ((ring_m2z2, 10), (ring_m2z4, 10)):
        elems = ring_elements(ring)
        for _ in range(trials):
            expr = random_ring_expr(rng, ring)
            sigma = sigma_expand(expr, ring)
            for u, v in itertools.product(elems, repeat=2):
                assignment = {"u": u, "v": v}
                assert eval_ring_expr(as_expr(sigma), assignment, ring) == \
                    eval_ring_expr(expr, assignment, ring)


def test_entrywise_constant(ring_m2z4):
    c = ring_m2z4.element([[2, 3], [0, 2]])
    grid = entrywise_rewrite(sigma_expand(RConst(c), ring_m2z4), ring_m2z4,
                             ())
    for i in range(2):
        for j in range(2):
            assert evaluate(ring_m2z4.domain, grid[i][j], {}) == c.rows[i][j]


def test_entrywise_xy_vanishes_in_class_two(ring_m2z2):
    grid = entrywise_rewrite(sigma_expand(X * Y, ring_m2z2), ring_m2z2,
                             expr_variables(X * Y))
    assert all(not grid[i][j] for i in range(2) for j in range(2))


def test_entrywise_three_letter_chains(ring_m2z4):
    word = RProd((RVar("x"), RVar("y"), RVar("z")))
    sigma = sigma_expand(word, ring_m2z4)
    assert len(sigma) == 1
    grid = monomial_entry_polys(ring_m2z4, sigma[0], expr_variables(word))
    # only the chain 1 -> 2 -> 1 -> 2 survives in the top-right entry
    assert cli._render_poly(ring_m2z4.domain, grid[0][1]) == \
        "2*a[2][1][2]*s[1][2][1]*s[1][2][3]"
    bound = (ring_m2z4.nilpotency_bound - 1)
    for i in range(2):
        for j in range(2):
            for factors, _ in grid[i][j].items():
                assert len(factors) <= bound
            assert product_length(grid[i][j]) <= bound * 2 ** (4 - 2)


def test_entrywise_matches_matrix_evaluation(ring_m2z4, ring_m3z3):
    rng = random.Random(41)
    for ring in (ring_m2z4, ring_m3z3):
        trials = 0
        for _ in range(100):
            expr = random_ring_expr(rng, ring)
            sigma = sigma_expand(expr, ring)
            names = expr_variables(expr)
            grid = entrywise_rewrite(sigma, ring, names)
            for _ in range(10):
                assignment = {name: random_ring_element(rng, ring)
                              for name in names}
                expected = eval_ring_expr(expr, assignment, ring)
                slots = _slot_assignment(ring, assignment, names)
                for i in range(ring.m):
                    for j in range(ring.m):
                        value = evaluate(ring.domain, grid[i][j], slots)
                        assert value == expected.rows[i][j], (expr, i, j)
                trials += 1
        assert trials == 1000


def _fold_monomial(ring, mono, names):
    """Reference for monomial_entry_polys: letter grids of Polynomials
    multiplied with polynomial products and sums, every addition merged,
    zero-filtered and sorted, then scaled by the coefficient."""
    from eqsolve.rings import a_variable, s_variable
    dom = ring.domain
    m = ring.m
    zero = Polynomial(dom)
    coeff, letters = mono
    grid = None
    for letter in letters:
        if isinstance(letter, str):
            k = names.index(letter) + 1
            p = constant(dom, ring.p)
            lg = [[variable(dom, s_variable(i + 1, j + 1, k))
                   if i < j else mul(dom, variable(
                       dom, a_variable(i + 1, j + 1, k)), p)
                   for j in range(m)] for i in range(m)]
        else:
            lg = [[constant(dom, v) for v in row]
                  for row in letter.rows]
        if grid is None:
            grid = lg
            continue
        new = [[zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(m):
                for l in range(m):
                    new[i][j] = add(dom, new[i][j],
                                    mul(dom, grid[i][l], lg[l][j]))
        grid = new
    c = constant(dom, coeff)
    return [[mul(dom, entry, c) for entry in row] for row in grid]


def test_entrywise_matches_per_addition_fold():
    rng = random.Random(4201)
    for p, alpha, m in ((2, 1, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3),
                        (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        # the coefficient p is a zero divisor over Z4 and Z9
        exprs = [RScale(p, X * Y), RScale(p, X) + RScale(p, Y * X),
                 RScale(ring.modulus - 1, X * Y * X)]
        exprs += [random_ring_expr(rng, ring) for _ in range(40)]
        for expr in exprs:
            sigma = sigma_expand(expr, ring)
            names = expr_variables(expr)
            zero = Polynomial(ring.domain)
            total = [[zero] * m for _ in range(m)]
            for mono in sigma:
                reference = _fold_monomial(ring, mono, names)
                grid = monomial_entry_polys(ring, mono, names)
                for i in range(m):
                    for j in range(m):
                        assert sorted_terms(grid[i][j]) == \
                            sorted_terms(reference[i][j]), (ring, mono, i, j)
                        total[i][j] = add(ring.domain, total[i][j],
                                          reference[i][j])
            grid = entrywise_rewrite(sigma, ring, names)
            for i in range(m):
                for j in range(m):
                    assert sorted_terms(grid[i][j]) == \
                        sorted_terms(total[i][j]), (ring, expr, i, j)


def test_factor_ring_rejects_ideal_of_another_ring(ring_m2z4, ring_m3z3):
    ideal = enumerate_ideal(ring_m3z3, ())
    with pytest.raises(RingError, match="ideal of a different ring"):
        decide_factor_ring(ring_m2z4, ideal, X * Y)


def _slot_assignment(ring, assignment, names):
    from eqsolve.rings import a_variable, s_variable
    slots = {}
    for k, name in enumerate(names, start=1):
        element = assignment[name]
        for i in range(1, ring.m + 1):
            for j in range(1, ring.m + 1):
                v = element.rows[i - 1][j - 1]
                if i < j:
                    slots[s_variable(i, j, k)] = v
                else:
                    slots[a_variable(i, j, k)] = v // ring.p
    return slots


def test_decide_single_variable(ring_m2z4):
    decision = decide_ring_equation(ring_m2z4, X)
    assert decision.sat and decision.witness == {"x": ring_m2z4.zero()}


def test_decide_xy_all_targets(ring_m2z4):
    # oracle: all products over 32 x 32 pairs
    products = {(a * b) for a, b in
                itertools.product(ring_elements(ring_m2z4), repeat=2)}
    for target in ring_elements(ring_m2z4):
        decision = decide_ring_equation(ring_m2z4, X * Y, target)
        assert decision.sat == (target in products), target
        if decision.sat:
            w = decision.witness
            assert w["x"] * w["y"] == target


def test_nilpotency_length_word(ring_m2z2, ring_m2z4):
    for ring in (ring_m2z2, ring_m2z4):
        n = ring.nilpotency_bound
        word = RProd(tuple(RVar("x%d" % i) for i in range(n)))
        assert decide_ring_equation(ring, word).sat
        nonzero = next(e for e in ring_elements(ring) if not e.is_zero())
        assert not decide_ring_equation(ring, word, nonzero).sat


def test_enumerate_ideal_trivial(ring_m2z4):
    ideal = enumerate_ideal(ring_m2z4, ())
    assert ideal.elements == {ring_m2z4.zero()}


def test_enumerate_ideal_whole_ring(ring_m2z4):
    gens = [ring_m2z4.element([[0, 1], [0, 0]]),
            ring_m2z4.element([[2, 0], [0, 0]]),
            ring_m2z4.element([[0, 0], [2, 0]]),
            ring_m2z4.element([[0, 0], [0, 2]])]
    ideal = enumerate_ideal(ring_m2z4, gens)
    assert len(ideal) == ring_m2z4.cardinality


def test_enumerate_ideal_two_torsion(ring_m2z4):
    gen = ring_m2z4.element([[0, 2], [0, 0]])
    ideal = enumerate_ideal(ring_m2z4, [gen])
    assert set(ideal.elements) == {ring_m2z4.zero(), gen}


def test_ideal_closure_properties(ring_m2z2, ring_m2z4, ring_m3z3):
    rng = random.Random(59)
    for ring in (ring_m2z4, ring_m3z3, make_ring(2, 1, 3), ring_m2z2):
        for _ in range(5):
            gens = [random_ring_element(rng, ring) for _ in range(2)]
            ideal = enumerate_ideal(ring, gens)
            members = set(ideal.elements)
            assert set(gens) <= members
            for a in members:
                assert -a in members
            for a, b in itertools.product(ideal.elements, repeat=2):
                assert a + b in members
            for x in ring_elements(ring):
                for a in ideal.elements:
                    assert x * a in members
                    assert a * x in members


def _fixed_point_ideal(ring, generators):
    """Reference ideal: the element-by-element fixed-point closure under +,
    - and two-sided multiplication by every ring element."""
    all_elems = ring_elements(ring)
    closed = {ring.zero()}
    work = list(generators)
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
    return closed


def test_ideal_matches_fixed_point_reference():
    # (p, alpha, m, scale): each generator is a random element times scale,
    # which keeps the reference's |I| * |M| products small on M(2,Z8) and
    # M(3,Z4)
    rng = random.Random(79)
    for p, alpha, m, scale in ((2, 1, 2, 1), (2, 2, 2, 1), (3, 1, 3, 1),
                               (2, 1, 3, 1), (2, 3, 2, 2), (3, 2, 2, 1),
                               (2, 2, 3, 2)):
        ring = make_ring(p, alpha, m)
        for count in range(4):
            gens = [random_ring_element(rng, ring).scale(scale)
                    for _ in range(count)]
            assert enumerate_ideal(ring, gens).elements == \
                _fixed_point_ideal(ring, gens), (ring, gens)


def _unit_matrix(ring, i, j, value):
    """value * E_ij, with 1-based i and j."""
    return ring.element([[value if (r, c) == (i, j) else 0
                          for c in range(1, ring.m + 1)]
                         for r in range(1, ring.m + 1)])


def test_ideal_closes_without_enumerating_the_ring():
    ring = make_ring(2, 2, 4)  # |M| = 4^6 * 2^10, about 4.2e6
    before = ring_elements.cache_info()
    ideal = enumerate_ideal(ring, [_unit_matrix(ring, 1, 4, 1)])
    assert ring_elements.cache_info() == before
    assert len(ideal) == 256
    # a small ideal of a ring far larger than the guard
    big = make_ring(2, 3, 4)
    assert big.cardinality > rings.IDEAL_GUARD
    assert len(enumerate_ideal(big, [_unit_matrix(big, 1, 4, 2)])) == 256


def test_ideal_guard_bounds_the_closure(ring_m2z4):
    gen = _unit_matrix(ring_m2z4, 1, 2, 1)
    assert len(enumerate_ideal(ring_m2z4, [gen], guard=16)) == 16
    with pytest.raises(GuardExceeded) as err:
        enumerate_ideal(ring_m2z4, [gen], guard=15)
    assert err.value.guard == 15
    assert err.value.space == 16


def test_default_ideal_guard_stops_a_huge_closure():
    # E14 generates an ideal of M(4,Z8) far beyond memory; the default guard
    # must refuse it after one coset step past 10^5, in seconds
    ring = make_ring(2, 3, 4)
    with pytest.raises(GuardExceeded) as err:
        enumerate_ideal(ring, [_unit_matrix(ring, 1, 4, 1)])
    assert err.value.guard == rings.IDEAL_GUARD
    assert err.value.space == 131072
    assert str(err.value) == ("ideal of at least 131072 elements exceeds "
                              "the ideal guard 100000")


def test_factor_ring_zero_ideal_matches_plain(ring_m2z4):
    rng = random.Random(61)
    zero_ideal = enumerate_ideal(ring_m2z4, ())
    for _ in range(30):
        expr = random_ring_expr(rng, ring_m2z4)
        plain = decide_ring_equation(ring_m2z4, expr)
        factored = decide_factor_ring(ring_m2z4, zero_ideal, expr)
        assert plain.sat == factored.sat


def test_factor_ring_whole_ring_always_sat(ring_m2z4):
    rng = random.Random(67)
    gens = [ring_m2z4.element([[0, 1], [0, 0]]),
            ring_m2z4.element([[2, 0], [0, 0]]),
            ring_m2z4.element([[0, 0], [2, 0]]),
            ring_m2z4.element([[0, 0], [0, 2]])]
    everything = enumerate_ideal(ring_m2z4, gens)
    for _ in range(5):
        expr = random_ring_expr(rng, ring_m2z4)
        assert decide_factor_ring(ring_m2z4, everything, expr).sat


def test_factor_ring_example_vs_coset_oracle(ring_m2z4):
    target = ring_m2z4.element([[0, 2], [0, 0]])
    ideal = enumerate_ideal(ring_m2z4, [target])
    expr = RSum((RProd((X, Y)), RConst(-target)))
    decision = decide_factor_ring(ring_m2z4, ideal, expr)
    oracle = brute_force_ring_solve(ring_m2z4, expr, ideal=ideal)
    assert decision.sat == oracle.sat
    assert decision.sat
    assert decision.ideal_element in ideal


def test_brute_force_constant(ring_m2z4):
    c = ring_m2z4.element([[0, 3], [2, 2]])
    assert brute_force_ring_solve(ring_m2z4, RConst(c), c).sat
    assert not brute_force_ring_solve(ring_m2z4, RConst(c)).sat


def test_brute_force_characteristic_two(ring_m2z2):
    doubled = RSum((X, X))
    nonzero = next(e for e in ring_elements(ring_m2z2) if not e.is_zero())
    assert not brute_force_ring_solve(ring_m2z2, doubled, nonzero).sat
    assert brute_force_ring_solve(ring_m2z2, doubled).sat


def test_decide_matches_brute_force_random(ring_m2z4):
    rng = random.Random(71)
    for _ in range(40):
        expr = random_ring_expr(rng, ring_m2z4)
        rhs = random_ring_element(rng, ring_m2z4)
        decision = decide_ring_equation(ring_m2z4, expr, rhs)
        oracle = brute_force_ring_solve(ring_m2z4, expr, rhs)
        assert decision.sat == oracle.sat, expr


def test_nonzero_triple_product_found_by_search(ring_m2z4):
    found = None
    elems = ring_elements(ring_m2z4)
    for a, b, c in itertools.product(elems, repeat=3):
        if not ((a * b) * c).is_zero():
            found = (a, b, c)
            break
    assert found is not None
    a, b, c = found
    assert not ((a * b) * c).is_zero()


# -- the table-driven oracle ---------------------------------------------------

def _plain_oracle(ring, expr, rhs, ideal=None):
    """(sat, witness, explored) by evaluating every assignment with
    eval_ring_expr, in the oracle's scan order."""
    names = expr_variables(expr)
    carrier = []
    covered = set()
    for e in ring_elements(ring):
        if ideal is None or e not in covered:
            carrier.append(e)
            if ideal is not None:
                covered.update(e + i for i in ideal.elements)
    explored = 0
    for combo in itertools.product(carrier, repeat=len(names)):
        explored += 1
        assignment = dict(zip(names, combo))
        value = eval_ring_expr(expr, assignment, ring)
        if value == rhs if ideal is None else (value - rhs) in ideal:
            return True, assignment, explored
    return False, None, explored


def _table_oracle(ring, expr, rhs, ideal=None):
    """The oracle's table scan, whatever its cost rule would choose."""
    explored, witness = rings._table_scan(ring, expr, rhs, ideal,
                                          expr_variables(expr))
    return witness is not None, witness, explored


def _public_oracle(ring, expr, rhs, ideal=None):
    d = brute_force_ring_solve(ring, expr, rhs, ideal=ideal)
    return d.sat, d.witness, d.stats.explored


def test_table_oracle_matches_plain_enumeration(ring_m2z2, ring_m2z4,
                                                ring_m3z3):
    rng = random.Random(20261018)
    sweep = (ring_m2z2, ring_m2z4, ring_m3z3)
    for idx in range(90):
        ring = sweep[idx % 3]
        expr = random_ring_expr(rng, ring)
        rhs = random_ring_element(rng, ring)
        expected = _plain_oracle(ring, expr, rhs)
        assert _table_oracle(ring, expr, rhs) == expected, (ring, expr, rhs)
        assert _public_oracle(ring, expr, rhs) == expected, (ring, expr, rhs)


def test_table_oracle_matches_plain_enumeration_on_cosets(ring_m2z4,
                                                          ring_m3z3):
    rng = random.Random(1018)
    ideals = (enumerate_ideal(ring_m2z4, [ring_m2z4.element([[0, 2], [0, 0]])]),
              enumerate_ideal(ring_m2z4, [ring_m2z4.element([[0, 0], [2, 0]])]),
              enumerate_ideal(ring_m3z3, [ring_m3z3.element(
                  [[0, 1, 0], [0, 0, 0], [0, 0, 0]])]))
    for idx in range(60):
        ideal = ideals[idx % 3]
        ring = ideal.ring
        expr = random_ring_expr(rng, ring)
        rhs = random_ring_element(rng, ring)
        expected = _plain_oracle(ring, expr, rhs, ideal)
        assert _table_oracle(ring, expr, rhs, ideal) == expected, expr
        assert _public_oracle(ring, expr, rhs, ideal) == expected, expr


def test_table_oracle_node_kinds(ring_m2z4):
    c = ring_m2z4.element([[2, 3], [0, 2]])
    d = ring_m2z4.element([[0, 1], [2, 0]])
    exprs = (RScale(3, X * Y), RScale(-1, X), RScale(4, X + Y), RNeg(X * Y),
             RNeg(RSum((X, RConst(c)))), RSum(()), RSum((X,)), RProd((c, Y)),
             as_expr(sigma_expand(X * Y + RScale(2, RConst(c) * X),
                                  ring_m2z4)),
             as_expr(sigma_expand(X * Y - Y * X, ring_m2z4)), X,
             RProd((X, RConst(d), Y, X)))
    for expr in exprs:
        for rhs in (ring_m2z4.zero(), c, d):
            expected = _plain_oracle(ring_m2z4, expr, rhs)
            assert _table_oracle(ring_m2z4, expr, rhs) == expected, expr
            assert _public_oracle(ring_m2z4, expr, rhs) == expected, expr


def test_table_oracle_every_target(ring_m3z3):
    # factor order and coefficients, checked against every right-hand side
    # in a noncommutative ring
    e12 = ring_m3z3.element([[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    exprs = (X * Y, RConst(e12) * X, X * RConst(e12),
             as_expr(sigma_expand(RScale(2, X * Y) + Y, ring_m3z3)))
    for expr in exprs:
        for rhs in ring_elements(ring_m3z3):
            expected = _plain_oracle(ring_m3z3, expr, rhs)
            assert _table_oracle(ring_m3z3, expr, rhs) == expected, (expr, rhs)


Z = RVar("z")


def _three_variable_exprs(ring):
    """Nodes with two names ahead of the last one: products and constants
    around z, z squared, every scale of z*x, negations, and sums whose both
    sides read the last name."""
    c = ring_elements(ring)[-2]
    d = ring_elements(ring)[5]
    return ((RProd((X, Z, Y, Z)), RSum((Z * Z, X * Y)), RSum((X * Y, Z * Z)),
             RNeg(X * Z * Y), RNeg(RSum((X * Z, Y))),
             RSum((X, RConst(c) * Z * RConst(d), Y)),
             RProd((X, RConst(c), Z, RConst(d), Y)),
             RSum((X * Y, Z)) * RSum((Z, Y)))
            + tuple(RSum((RScale(k, Z * X), X * Y))
                    for k in range(ring.modulus)))


def _three_variable_targets(ring, expr):
    """Zero, a value planted past the first row, and the last element,
    which most of these expressions never reach."""
    elems = ring_elements(ring)
    planted = eval_ring_expr(expr, {"x": elems[2], "y": elems[7],
                                    "z": elems[5]}, ring)
    return ring.zero(), planted, elems[-1]


def test_table_oracle_three_variable_node_kinds(ring_m2z4):
    unsat = 0
    for n, expr in enumerate(_three_variable_exprs(ring_m2z4)):
        targets = _three_variable_targets(ring_m2z4, expr)
        # a plain scan of all 32^3 assignments takes about a second, so only
        # x*z*y*z meets the unreachable target here; the coset test meets it
        # with every expression
        for rhs in targets if n == 0 else targets[:2]:
            expected = _plain_oracle(ring_m2z4, expr, rhs)
            assert _table_oracle(ring_m2z4, expr, rhs) == expected, (expr, rhs)
            assert _public_oracle(ring_m2z4, expr, rhs) == expected, (expr, rhs)
            unsat += not expected[0]
    assert unsat >= 1


def test_table_oracle_three_variables_on_cosets(ring_m2z4, ring_m3z3):
    ideals = (enumerate_ideal(ring_m2z4, [ring_m2z4.element([[0, 2], [0, 0]])]),
              enumerate_ideal(ring_m3z3, [ring_m3z3.element(
                  [[0, 1, 0], [0, 0, 0], [0, 0, 0]])]))
    unsat = 0
    for ideal in ideals:
        ring = ideal.ring
        for expr in _three_variable_exprs(ring):
            for rhs in _three_variable_targets(ring, expr):
                expected = _plain_oracle(ring, expr, rhs, ideal)
                assert _table_oracle(ring, expr, rhs, ideal) == expected, expr
                unsat += not expected[0]
    assert unsat >= 10


def test_scale_tables_built_once_per_ring(monkeypatch, ring_m2z4):
    expr = RSum((RScale(3, X * Y), RScale(2, X), RNeg(Y), RScale(-1, Y * X)))
    rhs = ring_m2z4.element([[0, 1], [0, 0]])
    first = _public_oracle(ring_m2z4, expr, rhs)
    calls = []
    scale = RingElement.scale

    def counting(self, coeff):
        calls.append(coeff)
        return scale(self, coeff)

    monkeypatch.setattr(RingElement, "scale", counting)
    assert _public_oracle(ring_m2z4, expr, rhs) == first
    assert calls == []


def test_table_oracle_on_a_ring_of_256_elements():
    # rows are bytes: the last index, 255, must survive every translation
    ring = make_ring(2, 9, 1)
    assert ring.cardinality == lanes.LIMIT == 256
    elems = ring_elements(ring)
    last, two = elems[-1], elems[1]
    cases = ((X, last), (RNeg(X), elems[1]), (RScale(3, X) + RConst(two), last),
             (X * X, two), (X * X, elems[128]), (X * RConst(last), elems[4]),
             (RSum((X, Y)), last), (X * Y + Y, elems[-3]),
             (RConst(last), last), (RConst(last), two))
    for expr, rhs in cases:
        expected = _plain_oracle(ring, expr, rhs)
        assert _table_oracle(ring, expr, rhs) == expected, (expr, rhs)
        assert _public_oracle(ring, expr, rhs) == expected, (expr, rhs)
    assert _table_oracle(ring, X, last)[1:] == ({"x": last}, 256)
    assert not _table_oracle(ring, X * X, two)[0]


def test_table_oracle_without_variables(ring_m2z4):
    c = ring_m2z4.element([[0, 3], [2, 2]])
    expr = RSum((RConst(c), RProd((RConst(c), RConst(c)))))
    value = eval_ring_expr(expr, {}, ring_m2z4)
    assert value != c
    assert _table_oracle(ring_m2z4, expr, value) == (True, {}, 1)
    assert _table_oracle(ring_m2z4, expr, c) == (False, None, 1)
    assert _public_oracle(ring_m2z4, expr, value) == (True, {}, 1)


def test_table_oracle_on_long_expressions(ring_m2z4):
    # over Z_4, 1201 * xy = xy, and every product of four letters of
    # M(2,Z4) vanishes: a sum of 1201 terms and a product of 1200 letters
    # give the short expressions' verdicts, witnesses and explored counts
    ring = ring_m2z4
    pairs = ((RSum((X * Y,) * 1201), X * Y),
             (RProd((X, Y) * 600), RProd((X, Y, X, Y))))
    for long, short in pairs:
        # [[2, 0], [0, 0]] = E12 * 2E21 is a nonzero value of xy
        for rhs in ring_elements(ring)[::11] + (ring.element([[2, 0],
                                                              [0, 0]]),):
            assert (_public_oracle(ring, long, rhs)
                    == _public_oracle(ring, short, rhs)), (short, rhs)


def test_table_oracle_rejects_foreign_constants(ring_m2z2, ring_m2z4):
    foreign = ring_elements(ring_m2z2)[1]
    for expr in (X * RConst(foreign) * Y, RSum((X, foreign)), RConst(foreign),
                 as_expr(sigma_expand(X + RConst(foreign), ring_m2z2))):
        with pytest.raises(RingError):
            _table_oracle(ring_m2z4, expr, ring_m2z4.zero())
    with pytest.raises(RingError):
        brute_force_ring_solve(ring_m2z4, X * RConst(foreign) * Y)
    with pytest.raises(RingError):
        brute_force_ring_solve(ring_m2z4, X * Y, foreign)
    with pytest.raises(RingError):
        brute_force_ring_solve(ring_m2z4, as_expr(sigma_expand(
            X + Y + RConst(foreign), ring_m2z2)))


def test_foreign_constants_rejected_on_every_path(ring_m2z2, ring_m2z4):
    # nothing adds or multiplies these constants, so no ring operation
    # notices that they belong to M(2, Z2)
    foreign = RConst(ring_elements(ring_m2z2)[1])
    ideal = enumerate_ideal(ring_m2z4, [ring_m2z4.element([[0, 2], [0, 0]])])
    # M(3, Z4) is too large for the tables: its oracle evaluates each
    # assignment
    m3z4 = make_ring(2, 2, 3)
    m3z4_ideal = enumerate_ideal(m3z4, [m3z4.element(
        [[0, 0, 2], [0, 0, 0], [0, 0, 0]])])
    exprs = (foreign, RNeg(foreign), RScale(3, foreign), RProd((foreign,)),
             as_expr(sigma_expand(foreign, ring_m2z2)),
             # X * Y is truncated, the constant stays
             as_expr(sigma_expand(X * Y + foreign, ring_m2z2)))
    for expr in exprs:
        for ring in (ring_m2z4, m3z4):
            with pytest.raises(RingError):
                eval_ring_expr(expr, {}, ring)
        for coset in (None, ideal):
            with pytest.raises(RingError):
                _table_oracle(ring_m2z4, expr, ring_m2z4.zero(), coset)
        for coset in (None, m3z4_ideal):
            before = _table_calls()
            with pytest.raises(RingError):
                brute_force_ring_solve(m3z4, expr, ideal=coset)
            assert _table_calls() == before


def test_malformed_nodes_rejected_on_every_path(ring_m2z4):
    # an empty product has no meaning; 5 is no ring element
    for ring in (ring_m2z4, make_ring(2, 2, 3)):
        tables = ring.cardinality <= lanes.LIMIT
        for bad in (RProd(()), RConst(5)):
            for expr in (bad, X + bad):
                with pytest.raises(RingError):
                    eval_ring_expr(expr, {"x": ring.zero()}, ring)
                with pytest.raises(RingError):
                    sigma_expand(expr, ring)
                with pytest.raises(RingError):
                    decide_ring_equation(ring, expr)
                before = _table_calls()
                with pytest.raises(RingError):
                    brute_force_ring_solve(ring, expr)
                assert (_table_calls() > before) == tables


def test_table_oracle_guard(ring_m2z4):
    with pytest.raises(GuardExceeded):
        brute_force_ring_solve(ring_m2z4, X * Y, guard=32 * 32 - 1)
    m3z4 = make_ring(2, 2, 3)
    with pytest.raises(GuardExceeded):
        brute_force_ring_solve(m3z4, X * Y * RVar("z"))


def _table_calls():
    info = rings._ring_tables.cache_info()
    return info.hits + info.misses


def test_table_limit_keeps_large_rings_per_assignment():
    """M(3,Z4) has 4096 elements, past the lane limit: no table is built
    and each assignment is evaluated in turn, over every element without
    an ideal (the transversal of {0}) and over the 64 coset
    representatives of the ideal of E13, with the verdict, witness and
    explored count of a plain enumeration."""
    ring = make_ring(2, 2, 3)
    assert ring.cardinality > lanes.LIMIT
    e12, e13, e23 = (_unit_matrix(ring, i, j, 1)
                     for i, j in ((1, 2), (1, 3), (2, 3)))
    ideal = enumerate_ideal(ring, [e13])
    assert len(ideal) == 64
    c = RConst(ring.element([[2, 1, 0], [0, 0, 3], [0, 0, 2]]))
    cases = ((X * c, e13, None, True, 641), (X * X, e13, None, True, 521),
             (X * X * X, e13, None, False, 4096),
             (c * X + X, e12, ideal, True, 33),
             (c * X + X, e23, ideal, True, 5),
             (X * X, e12, ideal, False, 64))
    for expr, rhs, coset, sat, explored in cases:
        expected = _plain_oracle(ring, expr, rhs, coset)
        assert (expected[0], expected[2]) == (sat, explored)
        before = _table_calls()
        assert _public_oracle(ring, expr, rhs, coset) == expected, expr
        assert _table_calls() == before


def test_large_ring_oracle_without_variables():
    """|M(4,Z8)| is about 2.7e11: a question without variables enumerates
    neither the ring nor coset representatives, with or without the
    256-element ideal of 2*E14, and explores its one assignment."""
    ring = make_ring(2, 3, 4)
    e14, twice = _unit_matrix(ring, 1, 4, 1), _unit_matrix(ring, 1, 4, 2)
    ideal = enumerate_ideal(ring, [twice])
    assert len(ideal) == 256
    before = ring_elements.cache_info()
    for expr, rhs, coset, sat in ((RConst(e14), ring.zero(), None, False),
                                  (RConst(e14), e14, None, True),
                                  (RConst(e14), ring.zero(), ideal, False),
                                  (RConst(twice), ring.zero(), ideal, True)):
        decision = brute_force_ring_solve(ring, expr, rhs, ideal=coset)
        assert decision.sat == sat
        assert decision.stats.explored == 1
        if sat:
            assert decision.witness == {}
    assert ring_elements.cache_info() == before


def test_ring_oracle_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, %r); "
             "from eqsolve import RVar, brute_force_ring_solve, make_ring; "
             "d = brute_force_ring_solve(make_ring(2, 2, 2), "
             "RVar('x') * RVar('y') + RVar('x')); "
             "print(d.stats.explored, 'numpy' in sys.modules)" % str(src))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.split()[1] == "False"


def _per_element_factor(ring, ideal, expr):
    """Reference factor-ring verdict: one ring equation expr = a per ideal
    element a, in canonical order, until one is solvable."""
    return any(decide_ring_equation(ring, expr, a).sat
               for a in ideal.elements)


def _check_factor_decision(ring, ideal, expr, decision):
    """A factor decision's verdict is the per-element reference's, and a
    SAT witness sends expr to the reported ideal element."""
    assert decision.sat == _per_element_factor(ring, ideal, expr), expr
    if decision.sat:
        assert decision.ideal_element in ideal
        assert eval_ring_expr(expr, decision.witness, ring) == \
            decision.ideal_element


def test_factor_ring_expands_once(monkeypatch, ring_m3z3):
    ideal = enumerate_ideal(ring_m3z3, [ring_m3z3.element(
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]])])
    assert len(ideal) == 9
    calls = []
    expand = rings.sigma_expand

    def counting(expr, ring):
        calls.append(expr)
        return expand(expr, ring)

    rng = random.Random(73)
    for _ in range(20):
        expr = random_ring_expr(rng, ring_m3z3) - RConst(
            random_ring_element(rng, ring_m3z3))
        monkeypatch.setattr(rings, "sigma_expand", counting)
        calls.clear()
        decision = decide_factor_ring(ring_m3z3, ideal, expr)
        monkeypatch.setattr(rings, "sigma_expand", expand)
        assert len(calls) == 1
        _check_factor_decision(ring_m3z3, ideal, expr, decision)


def test_factor_ring_validates_one_system(monkeypatch, ring_m3z3):
    """decide_factor_ring validates one system and calls solve once per
    question, whatever the size of the ideal."""
    ring = ring_m3z3
    ideal = enumerate_ideal(ring, [ring.element(
        [[0, 1, 0], [0, 0, 0], [0, 0, 0]])])
    validated, solved = [], []
    post_init, solve = solver.PolySystem.__post_init__, solver.solve

    def counting(system):
        validated.append(system)
        post_init(system)

    def counting_solve(request):
        solved.append(request)
        return solve(request)

    monkeypatch.setattr(solver.PolySystem, "__post_init__", counting)
    monkeypatch.setattr(solver, "solve", counting_solve)
    rng = random.Random(79)
    for _ in range(15):
        expr = random_ring_expr(rng, ring) - RConst(
            random_ring_element(rng, ring))
        validated.clear()
        solved.clear()
        decide_factor_ring(ring, ideal, expr)
        assert len(validated) == len(solved) == 1


def _factor_rings():
    """M(2,Z4), M(2,Z8), M(3,Z3), M(2,Z9) and M(3,Z4)."""
    return (make_ring(2, 2, 2), make_ring(2, 3, 2), make_ring(3, 1, 3),
            make_ring(3, 2, 2), make_ring(2, 2, 3))


def _seeded_ideals(rng, ring, count):
    """count ideals of the ring by 0-3 random generators each."""
    return [enumerate_ideal(ring, [random_ring_element(rng, ring)
                                   for _ in range(rng.randint(0, 3))])
            for _ in range(count)]


def test_cosets_decompose_the_ideal_bijectively():
    """Each element of an ideal is exactly one sum of c_k * a_k over its
    cosets (a_k, r_k), 0 <= c_k < r_k."""
    rng = random.Random(83)
    for ring in _factor_rings():
        for ideal in _seeded_ideals(rng, ring, 8):
            sums = [ring.zero()]
            for a, r in ideal.cosets:
                assert r >= 2 and a in ideal
                sums = [s + a.scale(c) for s in sums for c in range(r)]
            assert len(sums) == len(ideal)
            assert set(sums) == set(ideal.elements)


def test_factor_ring_guard_bounds_the_slots_alone():
    """A factor question is refused iff the space of the slots of expr = 0
    over M exceeds the guard, with that space; the t's never count."""
    rng = random.Random(89)
    for ring in _factor_rings():
        for ideal in _seeded_ideals(rng, ring, 3):
            expr = random_ring_expr(rng, ring)
            space = rings.build_ring_system(
                ring, expr, ring.zero()).system.search_space()
            decide_factor_ring(ring, ideal, expr, guard=space)
            with pytest.raises(GuardExceeded) as err:
                decide_factor_ring(ring, ideal, expr, guard=space - 1)
            assert (err.value.space, err.value.guard) == (space, space - 1)


def test_factor_ring_matches_per_element_reference(ring_m2z4, ring_m3z3):
    rng = random.Random(97)
    unsat = 0
    for ring in (ring_m2z4, ring_m3z3, make_ring(3, 2, 2)):
        for ideal in _seeded_ideals(rng, ring, 6):
            if len(ideal) > 81:
                continue
            for _ in range(5):
                expr = random_ring_expr(rng, ring) - RConst(
                    random_ring_element(rng, ring))
                decision = decide_factor_ring(ring, ideal, expr)
                _check_factor_decision(ring, ideal, expr, decision)
                unsat += not decision.sat
    assert unsat >= 5


def test_witness_names_follow_the_expression(ring_m2z4, ring_m3z3):
    """A ring decision's witness lists the unknowns in order of first
    occurrence in the expression, as the oracle's does, also when the
    expansion meets them in another order."""
    rng = random.Random(3307)
    cases = [(ring_m2z4, Y * X * X + X), (ring_m3z3, Y * RVar("z") + X)]
    for ring in (ring_m2z4, ring_m3z3):
        cases += [(ring, random_ring_expr(rng, ring, max_vars=2))
                  for _ in range(20)]
    sat = 0
    for ring, expr in cases:
        decision = decide_ring_equation(ring, expr)
        oracle = brute_force_ring_solve(ring, expr)
        assert decision.sat == oracle.sat
        if decision.sat:
            assert tuple(decision.witness) == expr_variables(expr) == \
                tuple(oracle.witness), expr
            sat += 1
    assert sat >= 20


def test_unknown_dropped_by_truncation_comes_back_zero(ring_m2z4):
    """x0...x3 reaches the nilpotency bound of M(2,Z4), so the expansion
    keeps only u; the dropped unknowns take their layout's base, zero."""
    ring = ring_m2z4
    names = ["x%d" % i for i in range(ring.nilpotency_bound)]
    expr = RProd(tuple(map(RVar, names))) + RVar("u")
    assert sigma_expand(expr, ring) == ((1, ("u",)),)
    c = ring.element([[2, 3], [0, 2]])
    decision = decide_ring_equation(ring, expr, c)
    assert decision.sat
    assert decision.witness == dict({"u": c}, **dict.fromkeys(names,
                                                               ring.zero()))
    assert list(decision.witness) == names + ["u"]
