"""End-to-end acceptance suite.

Each test covers one numbered criterion, checks it exactly (no tolerances:
all arithmetic is exact; the only numeric limits are the stated runtime
budgets), and prints one pass line.  Run with `pytest tests/test_acceptance.py
-v -s` to see the per-criterion lines.
"""

import itertools
import math
import random
import time
from functools import lru_cache

import pytest

from eqsolve import (GuardExceeded, brute_force_ring_solve, brute_force_solve,
                     decide_equation, decide_equivalence, decide_factor_ring,
                     decide_ring_equation, element_list, enumerate_ideal,
                     evaluate_word, expr_variables, full_pattern, make_domain, make_group,
                     make_ring, ring_elements, sigma_expand,
                     unitriangular_group, word_variables,
                     words_agree_everywhere)
from conftest import (random_assignment, random_group_element,
                      random_ring_element, random_ring_expr, random_word)
from entries import (entry_monomial_count, monomial_entry_polys, x_variable,
                     y_variable)
from polyexpr import length, product_length
from symbolic import entry, evaluate_matrix, symbolic_letters, word_product


def _family():
    f2 = make_domain(2)
    f3 = make_domain(3)
    return (unitriangular_group(f2, 3),
            unitriangular_group(f2, 4),
            make_group(f3, 3, full_pattern(3), (1, 2, 1)),
            make_group(f3, 3, ((1, 2), (1, 3)), (2, 1, 1)))


def test_criterion_1_group_reduction_matches_oracle():
    """>= 500 random instances across the group family, verdicts identical."""
    rng = random.Random(1001)
    started = time.perf_counter()
    total = agreements = 0
    for group in _family():
        for trial in range(125):
            word = random_word(rng, group, max_len=8, max_vars=3)
            if trial % 5 == 4:  # every fifth right-hand side is a word
                target = random_word(rng, group, max_len=4, max_vars=3)
            else:
                target = random_group_element(rng, group)
            decision = decide_equation(group, word, target)
            oracle = brute_force_solve(group, word, target)
            total += 1
            agreements += decision.sat == oracle.sat
            assert decision.sat == oracle.sat, (group, word, target)
            if decision.sat:
                left = evaluate_word(group, word, decision.witness)
                right = (target if not isinstance(target, tuple)
                         else evaluate_word(group, target, decision.witness))
                assert left == right
    elapsed = time.perf_counter() - started
    assert total == 500 and agreements == 500
    assert elapsed < 300, "runtime budget exceeded: %.1fs" % elapsed
    print("criterion 1: PASS - 500/500 oracle agreements in %.1fs" % elapsed)


def test_criterion_2_product_count_law():
    """Entry (i, j) of an n-letter all-variable product holds exactly
    C(n+j-i-1, j-i) products, for full patterns with m <= 4, n <= 6."""
    f2 = make_domain(2)
    checked = 0
    for m in (2, 3, 4):
        group = make_group(f2, m, full_pattern(m), (1,) * m)
        for n in range(0, 7):
            word = tuple("v%d" % (i + 1) for i in range(n))
            index = {name: k for k, name in enumerate(word, start=1)}
            matrix = word_product(group,
                                  symbolic_letters(group, word, index))
            for i in range(1, m + 1):
                for j in range(i + 1, m + 1):
                    expected = entry_monomial_count(n, i, j)
                    assert expected == math.comb(n + j - i - 1, j - i)
                    assert entry(group, matrix, i, j).monomial_count() \
                        == expected, (m, n, i, j)
                    checked += 1
    print("criterion 2: PASS - %d entry counts match the binomial law"
          % checked)


def test_criterion_3_symbolic_numeric_commutation():
    """Evaluating the entry polynomials equals multiplying the matrices,
    on >= 1000 random (word, assignment) pairs per group."""
    rng = random.Random(3003)
    for group in _family():
        pairs = 0
        for _ in range(200):
            word = random_word(rng, group, max_len=8, max_vars=3)
            index = {name: k for k, name in
                     enumerate(word_variables(word), start=1)}
            matrix = word_product(group,
                                  symbolic_letters(group, word, index))
            for _ in range(5):
                assignment = random_assignment(rng, group, word)
                slots = {}
                for name, k in index.items():
                    element = assignment[name]
                    for i in range(1, group.m + 1):
                        slots[y_variable(i, k)] = element.rows[i - 1][i - 1]
                    for (i, j) in group.pattern:
                        slots[x_variable(i, j, k)] = element.rows[i - 1][j - 1]
                assert evaluate_matrix(group, matrix, slots) == \
                    evaluate_word(group, word, assignment)
                pairs += 1
        assert pairs == 1000
    print("criterion 3: PASS - 4 x 1000 symbolic/numeric evaluations agree")


def test_criterion_4_ring_nilpotency_bounds():
    """Products of m*alpha elements vanish (10^4 random tuples per ring);
    a nonzero (m*alpha - 1)-fold product exists in M(2, Z_4)."""
    rng = random.Random(404)
    for (p, alpha, m) in ((2, 1, 2), (2, 2, 2), (3, 1, 3), (2, 2, 3)):
        ring = make_ring(p, alpha, m)
        elems = ring_elements(ring)
        n = ring.nilpotency_bound
        for _ in range(10 ** 4):
            product = rng.choice(elems)
            for _ in range(n - 1):
                product = product * rng.choice(elems)
            assert product.is_zero(), (p, alpha, m)
    ring = make_ring(2, 2, 2)
    witness = None
    for a, b, c in itertools.product(ring_elements(ring), repeat=3):
        if not ((a * b) * c).is_zero():
            witness = (a, b, c)
            break
    assert witness is not None, "no nonzero triple product in M(2, Z_4)"
    print("criterion 4: PASS - 4 x 10^4 vanishing products; nonzero "
          "3-fold product found: %r * %r * %r" % witness)


@lru_cache(maxsize=1)
def _ring_sweep():
    """The shared sweep: 500 seeded random (ring, expression, rhs) triples."""
    rng = random.Random(20260810)
    rings = (make_ring(2, 1, 2), make_ring(2, 2, 2), make_ring(3, 1, 3))
    out = []
    for idx in range(500):
        ring = rings[idx % 3]
        out.append((ring, random_ring_expr(rng, ring),
                    random_ring_element(rng, ring)))
    return tuple(out)


def test_criterion_5_entry_length_bounds():
    """On every sweep instance: rewritten monomials have at most
    m*alpha - 1 factors and every per-monomial entry polynomial g satisfies
    the factor-count bound ||g|| <= (m*alpha - 1) * m^(m*alpha - 2)."""
    checked = 0
    for ring, expr, _ in _ring_sweep():
        sigma = sigma_expand(expr, ring)
        names = expr_variables(expr)
        cutoff = ring.nilpotency_bound
        factor_bound = (cutoff - 1) * ring.m ** (cutoff - 2)
        for mono in sigma:
            grid = monomial_entry_polys(ring, mono, names)
            for row in grid:
                for poly in row:
                    for factors, _ in poly.items():
                        assert len(factors) <= cutoff - 1
                    assert product_length(poly) <= factor_bound
                    # same bound in the coefficient-counting measure: each
                    # monomial carries one extra symbol
                    assert length(poly) <= cutoff * ring.m ** (cutoff - 2)
                    checked += 1
    assert checked > 0
    print("criterion 5: PASS - length bounds hold on %d entry polynomials, "
          "zero violations" % checked)


def test_criterion_6_ring_reduction_matches_oracle():
    """>= 500 random expressions over M(2,Z_2), M(2,Z_4), M(3,Z_3):
    reduction verdict equals exhaustive search."""
    total = agreements = 0
    for ring, expr, rhs in _ring_sweep():
        decision = decide_ring_equation(ring, expr, rhs)
        oracle = brute_force_ring_solve(ring, expr, rhs)
        total += 1
        agreements += decision.sat == oracle.sat
        assert decision.sat == oracle.sat, (ring, expr, rhs)
    assert total == 500 and agreements == 500
    print("criterion 6: PASS - 500/500 ring oracle agreements")


def test_criterion_7_factor_ring_trick():
    """decide over M/I (I = {0, 2*E12} in M(2, Z_4)) equals a direct
    coset-arithmetic brute force, on 100 random expressions."""
    ring = make_ring(2, 2, 2)
    ideal = enumerate_ideal(ring, (ring.element([[0, 2], [0, 0]]),))
    assert set(i.rows for i in ideal.elements) == \
        {((0, 0), (0, 0)), ((0, 2), (0, 0))}
    rng = random.Random(707)
    for _ in range(100):
        expr = random_ring_expr(rng, ring)
        decision = decide_factor_ring(ring, ideal, expr)
        oracle = brute_force_ring_solve(ring, expr, ideal=ideal)
        assert decision.sat == oracle.sat, expr
        if decision.sat:
            assert decision.ideal_element in ideal
    print("criterion 7: PASS - 100/100 factor-ring verdicts match the "
          "coset oracle")


def test_criterion_8_equivalence_agreement():
    """decide_equivalence equals all-substitution checking on 100 random
    word pairs over groups of order <= 100 with <= 2 variables."""
    f2 = make_domain(2)
    f3 = make_domain(3)
    groups = (unitriangular_group(f2, 3),
              make_group(f3, 3, ((1, 2), (1, 3)), (2, 1, 1)),
              make_group(f3, 3, full_pattern(3), (1, 2, 1)))
    counts = (34, 33, 33)
    rng = random.Random(808)
    total = 0
    for group, count in zip(groups, counts):
        assert group.order <= 100
        for _ in range(count):
            f = random_word(rng, group, max_len=5, max_vars=2)
            g = random_word(rng, group, max_len=5, max_vars=2)
            verdict = decide_equivalence(group, f, g)
            oracle, separator = words_agree_everywhere(group, f, g)
            assert verdict == oracle, (group, f, g)
            if separator is not None:
                assert evaluate_word(group, f, separator) != \
                    evaluate_word(group, g, separator)
            total += 1
    assert total == 100
    print("criterion 8: PASS - 100/100 equivalence verdicts match "
          "exhaustion")


def test_criterion_9_scaling_smoke():
    """Six distinct unknowns over the order-54 group: brute force is out of
    reach under the default guard, the reduction still answers quickly and
    its witnesses re-verify."""
    f3 = make_domain(3)
    group = make_group(f3, 3, full_pattern(3), (1, 2, 1))
    elems = element_list(group)
    six = tuple("v%d" % i for i in range(1, 7))
    assert group.order ** 6 > 10 ** 8
    with pytest.raises(GuardExceeded):
        brute_force_solve(group, six, group.identity())
    instances = (
        (six, elems[37]),
        (six + ("v1", "v2"), group.identity()),
        (("v1", "v2", "v3", "v1", "v4", "v5", "v2", "v6"), elems[11]),
    )
    worst = 0.0
    for word, rhs in instances:
        started = time.perf_counter()
        decision = decide_equation(group, word, rhs, guard=10 ** 11)
        elapsed = time.perf_counter() - started
        worst = max(worst, elapsed)
        assert elapsed < 60, "instance took %.1fs" % elapsed
        if decision.sat:
            assert evaluate_word(group, word, decision.witness) == rhs
    print("criterion 9: PASS - 3 six-variable instances decided, worst "
          "%.2fs (< 60s)" % worst)
