import itertools
import math
import random
import re

import pytest

from eqsolve import (brute_force_solve, build_system,
                     decide_equation, decide_equivalence, element_list,
                     evaluate_word, exponent_bound, full_pattern, invert_word,
                     make_domain, make_group, multiply, solve, SolveRequest,
                     separating_substitution, unitriangular_group, word_variables,
                     words_agree_everywhere)
from eqsolve.poly import slot_letter
from eqsolve.reduction import _nonzero_point
from eqsolve.solver import Constraint
from conftest import (random_assignment, random_group_element, random_word)
from entries import entry_monomial_count, x_variable, y_variable
from naive import solve_naive
from polyexpr import (Polynomial, add, constant, length, mul, neg,
                      product_length, sorted_terms, variable)
from symbolic import (entry, evaluate_matrix, symbolic_letters,
                      upper_entries, word_product)

_SLOT = re.compile(r"^([xy])\[(\d+)\](?:\[(\d+)\])?\[(\d+)\]$")


def _parse_slot(name):
    """-> (kind, i, j, k); for y-variables j == i."""
    m = _SLOT.match(name)
    assert m, name
    kind, i, j, k = m.group(1), int(m.group(2)), m.group(3), int(m.group(4))
    return kind, i, int(j) if j is not None else i, k


def distinct_word(n):
    return tuple("v%d" % (i + 1) for i in range(n))


def index_of(word):
    return {name: k for k, name in enumerate(word_variables(word), start=1)}


def subgroup_rows(group, ks):
    """{slot: row, 1-based} for the subgroup slots of unknowns ks: the
    diagonal slots of their formal layouts."""
    return {var: i + 1 for k in ks
            for i, j, _, var, _ in group.unknown(k, True)[0] if i == j}


def slot_assignment(group, word, assignment):
    """Induced assignment of the slot variables from a word assignment."""
    out = {}
    for name, k in index_of(word).items():
        element = assignment[name]
        for i in range(1, group.m + 1):
            out[y_variable(i, k)] = element.rows[i - 1][i - 1]
        for (i, j) in group.pattern:
            out[x_variable(i, j, k)] = element.rows[i - 1][j - 1]
    return out


def test_empty_product_is_identity(order54):
    sm = word_product(order54, ())
    for (i, j), poly in upper_entries(order54, sm):
        if i == j:
            assert dict(poly.items()) == \
                dict(constant(order54.domain, 1).items())
        else:
            assert not poly


def test_single_variable_letter_gives_slots(order54):
    word = ("x",)
    sm = word_product(order54, symbolic_letters(order54, word, {"x": 1}))
    for (i, j), poly in upper_entries(order54, sm):
        if i == j:
            assert dict(poly.items()) == dict(
                variable(order54.domain, y_variable(i, 1)).items())
        else:
            assert dict(poly.items()) == dict(
                variable(order54.domain, x_variable(i, j, 1)).items())


def _fold_product(group, letters):
    """Reference for symbolic_product: the letter-by-letter fold with
    polynomial sums and products, every addition merged, zero-filtered and
    sorted."""
    dom, m = group.domain, group.m
    zero = Polynomial(dom)
    one = constant(dom, 1)
    grid = [[one if i == j else zero for j in range(m)] for i in range(m)]
    for letter in letters:
        new = [[zero] * m for _ in range(m)]
        for i in range(m):
            for j in range(i, m):
                acc = zero
                for l in range(i, j + 1):
                    for col, coeff, var, _ in letter[l]:
                        if col != j:
                            continue
                        term = mul(dom, grid[i][l], constant(dom, coeff))
                        if var is not None:
                            term = mul(dom, term, variable(dom, var))
                        acc = add(dom, acc, term)
                new[i][j] = acc
        grid = new
    return grid


def test_symbolic_product_matches_per_addition_fold(group_family):
    gf4 = make_group(make_domain(2, 2), 3, ((1, 2), (1, 3)), (3, 3, 1))
    rng = random.Random(7321)
    for group in group_family + (gf4,):
        words = [()]
        words += [random_word(rng, group, max_len=5, const_prob=1.0)
                  for _ in range(5)]
        words += [random_word(rng, group, max_len=9, max_vars=3)
                  for _ in range(40)]
        # slot_letter drops zero constants of every constant letter
        identity = slot_letter(group.domain, group.identity().rows)
        for word in words:
            letters = symbolic_letters(group, word, index_of(word))
            if len(word) % 3 == 1:
                letters.insert(len(word) // 2, identity)
            matrix = word_product(group, letters)
            reference = _fold_product(group, letters)
            for i in range(group.m):
                for j in range(group.m):
                    assert sorted_terms(entry(group, matrix, i + 1, j + 1)) \
                        == sorted_terms(reference[i][j]), (group, word, i, j)


def _reference_constraints(group, lhs, rhs, formal):
    """The constraints of lhs = rhs built the plain way: each word's product
    sorted in full, then polynomial subtraction entry by entry."""
    words = (lhs, rhs) if isinstance(rhs, tuple) else (lhs,)
    base = group.identity().rows
    letters = {name: slot_letter(group.domain, base,
                                 group.unknown(k, formal)[0],
                                 None if formal else group.orders)
               for k, name in enumerate(
                   word_variables(itertools.chain(*words)), start=1)}
    left, *rest = [word_product(group, group.letters(w, letters))
                   for w in words]
    dom = group.domain
    upper = [(i, j) for i in range(group.m) for j in range(i, group.m)]
    if rest:
        return tuple(Constraint(add(dom, left[i][j],
                                    neg(dom, rest[0][i][j])), dom.rzero)
                     for i, j in upper)
    return tuple(Constraint(left[i][j], rhs.rows[i][j])
                 for i, j in upper)


def test_build_system_matches_plain_subtraction(group_family):
    """build_system merges raw grids and sorts each constraint once; its
    constraints equal the plain construction's, and the product of lhs,
    read again after it, is the product of lhs alone."""
    gf4 = make_group(make_domain(2, 2), 3, ((1, 2), (1, 3)), (3, 3, 1))
    rng = random.Random(6151)
    for group in group_family + (gf4,):
        for n in range(40):
            lhs = random_word(rng, group, max_len=7, max_vars=3)
            rhs = (random_word(rng, group, max_len=5, max_vars=3)
                   if n % 2 else random_group_element(rng, group))
            for formal in (True, False):
                reduced = build_system(group, lhs, rhs, formal=formal)
                assert [(dict(c.poly.items()), c.target)
                        for c in reduced.system.constraints] == \
                    [(dict(c.poly.items()), c.target)
                     for c in _reference_constraints(group, lhs, rhs, formal)], \
                    (group, lhs, rhs, formal)
                alone = build_system(group, lhs, group.identity(),
                                     formal=formal)
                unknowns = {name: group.unknown(k, formal)[1]
                            for k, name in enumerate(
                                word_variables(lhs), start=1)}
                product = word_product(group, group.letters(lhs, unknowns))
                assert [dict(c.poly.items())
                        for c in alone.system.constraints] == \
                    [dict(poly.items())
                     for _, poly in upper_entries(group, product)]


def test_entry_monomial_count_values():
    assert entry_monomial_count(1, 1, 2) == 1
    assert entry_monomial_count(4, 1, 3) == 10
    assert entry_monomial_count(6, 1, 4) == math.comb(8, 3) == 56
    assert entry_monomial_count(0, 1, 3) == 0


def test_entry_count_m3_n4(f3):
    from eqsolve import full_pattern, make_group
    group = make_group(f3, 3, full_pattern(3), (1, 1, 1))
    word = distinct_word(4)
    sm = word_product(group, symbolic_letters(group, word, index_of(word)))
    poly = entry(group, sm, 1, 3)
    assert poly.monomial_count() == 10
    assert all(len(factors) == 4 for factors, _ in poly.items())
    assert product_length(poly) == 40
    assert length(poly) == 50


def test_size_law(f2):
    """The paper's size law: the top-right entry of a full-pattern word of n
    distinct variables over UT(3, F2) has n*C(n+1, 2) factor symbols, and
    the empty word has none above the diagonal."""
    group = make_group(f2, 3, full_pattern(3), (1, 1, 1))
    for n in (0, 2, 4, 6):
        reduced = build_system(group, distinct_word(n), group.identity())
        # one constraint per entry (i, j), i <= j, in row-major order
        assert len(reduced.system.constraints) == 6
        entries = dict(zip(
            [(i, j) for i in range(1, 4) for j in range(i, 4)],
            [c.poly for c in reduced.system.constraints]))
        assert product_length(entries[1, 3]) == n * math.comb(n + 1, 2)
        if n == 0:
            assert sum(product_length(poly) for (i, j), poly
                       in entries.items() if i < j) == 0


@pytest.mark.parametrize("m", [2, 3, 4])
def test_monomial_count_law(m, f2):
    from eqsolve import full_pattern, make_group
    group = make_group(f2, m, full_pattern(m), (1,) * m)
    for n in range(0, 7):
        word = distinct_word(n)
        sm = word_product(group, symbolic_letters(group, word,
                                                  index_of(word)))
        for i in range(1, m + 1):
            for j in range(i + 1, m + 1):
                assert entry(group, sm, i, j).monomial_count() == \
                    entry_monomial_count(n, i, j), (m, n, i, j)


def test_monomial_structure(f2):
    # every monomial is a chain: starts at row i, ends at column j, adjacent
    # factors share indices, and there is one factor per letter
    from eqsolve import full_pattern, make_group
    group = make_group(f2, 4, full_pattern(4), (1,) * 4)
    n = 5
    word = distinct_word(n)
    sm = word_product(group, symbolic_letters(group, word, index_of(word)))
    for (i, j), poly in upper_entries(group, sm):
        if i == j:
            continue
        for factors, _ in poly.items():
            chain = sorted((_parse_slot(v) for v in factors),
                           key=lambda slot: slot[3])
            assert len(chain) == n
            assert [slot[3] for slot in chain] == list(range(1, n + 1))
            assert chain[0][1] == i
            assert chain[-1][2] == j
            for left, right in zip(chain, chain[1:]):
                assert left[2] == right[1]


def test_diagonal_entries_are_single_monomials(group_family):
    rng = random.Random(303)
    for group in group_family:
        for _ in range(20):
            word = random_word(rng, group, max_len=8, max_vars=3)
            sm = word_product(group, symbolic_letters(group, word,
                                                      index_of(word)))
            subgroup = subgroup_rows(group, index_of(word).values())
            for i in range(1, group.m + 1):
                poly = entry(group, sm, i, i)
                assert poly.monomial_count() <= 1
                for factors, _ in poly.items():
                    assert all(v in subgroup for v in factors)


def test_pipeline_over_extension_field():
    # the whole reduction path also works over GF(4)
    from eqsolve import full_pattern, make_domain, make_group
    gf4 = make_domain(2, 2, "field")
    group = make_group(gf4, 2, full_pattern(2), (3, 1))
    assert group.order == 4 * 3
    rng = random.Random(404)
    for _ in range(10):
        word = random_word(rng, group, max_len=5, max_vars=2)
        target = random_group_element(rng, group)
        decision = decide_equation(group, word, target)
        oracle = brute_force_solve(group, word, target)
        assert decision.sat == oracle.sat
        if decision.sat:
            assert evaluate_word(group, word, decision.witness) == target


def test_symbolic_numeric_commutation_random(group_family):
    rng = random.Random(101)
    for group in group_family:
        for _ in range(60):
            word = random_word(rng, group, max_len=8, max_vars=3)
            assignment = random_assignment(rng, group, word)
            sm = word_product(group, symbolic_letters(group, word,
                                                      index_of(word)))
            slots = slot_assignment(group, word, assignment)
            assert evaluate_matrix(group, sm, slots) == evaluate_word(
                group, word, assignment)


def test_build_system_empty_word(order54):
    reduced = build_system(order54, (), order54.identity())
    decision = solve(SolveRequest(reduced.system))
    assert decision.sat and decision.witness == {}


def test_build_system_single_variable_pins_entries(order54):
    c = element_list(order54)[20]
    reduced = build_system(order54, ("x",), c)
    decision = solve(SolveRequest(reduced.system))
    assert decision.sat
    assert reduced.assemble_witness(decision.witness) == {"x": c}


def test_build_system_domains(order54):
    reduced = build_system(order54, ("x", "y"), order54.identity())
    rows = subgroup_rows(order54, (1, 2))
    for var, values in reduced.system.domains.items():
        if var in rows:
            assert values == order54.subgroups[rows[var] - 1]
        else:
            assert values == tuple(order54.domain.elements())


def test_two_sided_equation_matches_brute_force(order54):
    word = ("x", "y", "x", "y")
    decision = decide_equation(order54, word, order54.identity())
    oracle = brute_force_solve(order54, word, order54.identity())
    assert decision.sat == oracle.sat
    rhs_word = ("y", "x")
    decision = decide_equation(order54, ("x", "y"), rhs_word)
    oracle = brute_force_solve(order54, ("x", "y"), rhs_word)
    assert decision.sat == oracle.sat


def test_decide_identity_equation(group_family):
    for group in group_family:
        decision = decide_equation(group, ("x",), group.identity())
        assert decision.sat
        assert decision.witness == {"x": group.identity()}


def test_decide_square_example(ut3_f2):
    target = ut3_f2.element([[1, 0, 1], [0, 1, 0], [0, 0, 1]])
    decision = decide_equation(ut3_f2, ("x", "x"), target)
    assert decision.sat
    w = decision.witness["x"]
    assert evaluate_word(ut3_f2, ("x", "x"), {"x": w}) == target


def test_decide_agrees_with_oracle_random(group_family):
    rng = random.Random(55)
    for group in group_family:
        for _ in range(15):
            word = random_word(rng, group, max_len=6, max_vars=2)
            target = random_group_element(rng, group)
            decision = decide_equation(group, word, target)
            oracle = brute_force_solve(group, word, target)
            assert decision.sat == oracle.sat, (group, word, target)


def test_witnesses_are_reverified(order54):
    rng = random.Random(91)
    for _ in range(20):
        word = random_word(rng, order54, max_len=6, max_vars=2)
        target = random_group_element(rng, order54)
        decision = decide_equation(order54, word, target)
        if decision.sat:
            assert evaluate_word(order54, word, decision.witness) == target


def test_folded_identity_word_of_367_letters(f2):
    """367 distinct letters in UT(2,F2): the formal system has 1101 slot
    variables, the folded one only the 367 field slots x[1][2][k]."""
    group = unitriangular_group(f2, 2)
    word = distinct_word(367)
    decision = decide_equation(group, word, group.identity(), guard=2 ** 400)
    assert decision.sat
    assert evaluate_word(group, word, decision.witness) == group.identity()


def test_identity_word_of_1000_letters_searched_without_recursion(f2):
    """1000 slot variables: the search runs on an explicit stack, so its
    depth is not bounded by the interpreter's recursion limit."""
    group = unitriangular_group(f2, 2)
    word = distinct_word(1000)
    decision = decide_equation(group, word, group.identity(), guard=10 ** 400)
    assert decision.sat
    assert evaluate_word(group, word, decision.witness) == group.identity()


def _corner(group, c):
    """E + c*E_{1m}."""
    m = group.m
    return group.element([[1 if i == j else (c if (i, j) == (0, m - 1) else 0)
                           for j in range(m)] for i in range(m)])


def test_cube_chain_decided_in_linear_nodes(f3):
    """x1^3 ... xk^3 = E + 2*E14 in UT(4,F3): once a variable's slots are 0,
    its monomials are dead and the next variables read by no live monomial
    are pinned, so the nodes grow linearly in k, not by x9 per k."""
    group = unitriangular_group(f3, 4)
    target = _corner(group, 2)
    for k in range(2, 6):
        word = tuple(x for i in range(1, k + 1) for x in ("x%d" % i,) * 3)
        decision = decide_equation(group, word, target, guard=10 ** 400)
        assert decision.sat
        assert decision.stats.explored <= 3 * k + 4, (k, decision.stats)


def test_commutator_chain_decided_in_linear_nodes(f2):
    """[x1,y1] ... [xk,yk] = E + E14 in UT(4,F2), inverses by invert_word."""
    group = unitriangular_group(f2, 4)
    target = _corner(group, 1)
    for k in range(2, 5):
        word = ()
        for i in range(1, k + 1):
            x, y = "x%d" % i, "y%d" % i
            word += (invert_word(group, (x,)) + invert_word(group, (y,))
                     + (x, y))
        decision = decide_equation(group, word, target, guard=10 ** 400)
        assert decision.sat
        assert decision.stats.explored <= 10 * k + 2, (k, decision.stats)


def test_folded_square_chain_refuted_before_search(ut4_f2):
    """Over GF(2) the superdiagonal of x^2 cancels once the diagonal slots
    are folded, so a target outside the subgroup generated by squares is
    refuted by a constraint without variables."""
    squares = {multiply(g, g) for g in element_list(ut4_f2)}
    frontier = list(squares)
    while frontier:
        a = frontier.pop()
        for b in list(squares):
            for c in (multiply(a, b), multiply(b, a)):
                if c not in squares:
                    squares.add(c)
                    frontier.append(c)
    target = next(g for g in element_list(ut4_f2) if g not in squares)
    word = ("x1", "x1", "x2", "x2", "x3", "x3", "x4", "x4")
    decision = decide_equation(ut4_f2, word, target)
    assert not decision.sat
    assert decision.stats.explored == 0


def test_cut_square_chain_refuted_before_search(sparse18, order54):
    """x1^2 ... xk^2 has diagonal 1 in a row of order 2, since y^2 = 1 there,
    so a target holding the non-square 2 in that row is refuted by a
    constraint without variables.  No diagonal exponent of the cut product
    reaches its row order."""
    for group, row in ((sparse18, 1), (order54, 2)):
        assert group.orders[row - 1] == 2
        target = next(g for g in element_list(group)
                      if g.rows[row - 1][row - 1] == 2)
        for k in range(1, 5):
            word = tuple(x for i in range(1, k + 1) for x in ("x%d" % i,) * 2)
            decision = decide_equation(group, word, target)
            assert not decision.sat
            assert decision.stats.explored == 0, (group, k)
            matrix = word_product(group, symbolic_letters(
                group, word, index_of(word), cut=True))
            rows = subgroup_rows(group, index_of(word).values())
            for _, poly in upper_entries(group, matrix):
                for factors, _ in poly.items():
                    for v in factors:
                        if v in rows:
                            assert factors.count(v) < group.orders[rows[v] - 1]


def test_folded_system_agrees_with_formal_and_oracle(group_family):
    """Criterion-1 words (at most two variables, so that the naive scan
    stays small): the folded decision, the formal system and the oracle give
    one verdict; the folded system has no one-value domain, and the pruned
    and naive backends return the same witness on it.  The GF(4) and GF(5)
    groups cut diagonal exponents at d = 3 and 4."""
    rng = random.Random(1001)
    f4, f5 = make_domain(2, 2), make_domain(5)
    beyond = (make_group(f4, 3, ((1, 2),), (3, 3, 1)),
              make_group(f5, 3, ((1, 2), (1, 3)), (2, 4, 1)))
    for group in group_family + beyond:
        for trial in range(25):
            word = random_word(rng, group, max_len=8, max_vars=2)
            if trial % 5 == 4:
                target = random_word(rng, group, max_len=4, max_vars=2)
            else:
                target = random_group_element(rng, group)
            verdict = decide_equation(group, word, target).sat
            formal = solve(SolveRequest(build_system(group, word,
                                                     target).system))
            assert formal.sat == verdict, (group, word, target)
            assert brute_force_solve(group, word, target).sat == verdict
            folded = build_system(group, word, target, formal=False).system
            assert all(len(values) > 1
                       for values in folded.domains.values())
            pruned = solve(SolveRequest(folded))
            naive = solve_naive(folded)
            assert pruned.sat == naive.sat == verdict
            assert pruned.witness == naive.witness


def test_equivalence_syntactic_identity(ut3_f2):
    assert decide_equivalence(ut3_f2, ("x", "y"), ("x", "y"))


def test_equivalence_noncommuting(ut3_f2):
    assert not decide_equivalence(ut3_f2, ("x", "y"), ("y", "x"))
    separator = separating_substitution(ut3_f2, ("x", "y"), ("y", "x"))
    assert separator is not None
    left = evaluate_word(ut3_f2, ("x", "y"), separator)
    right = evaluate_word(ut3_f2, ("y", "x"), separator)
    assert left != right


def test_equivalence_exponent_word(ut3_f2, sparse18):
    for group in (ut3_f2, sparse18):
        e = exponent_bound(group)
        # oracle: every element really has g^e = identity
        for g in element_list(group):
            assert evaluate_word(group, ("x",) * e, {"x": g}) == group.identity()
        assert decide_equivalence(group, ("x",) * e, ())


def test_equivalence_with_a_constant_right_side(ut3_f2, order54):
    """A constant right side g is read as the word (g,): over two family
    groups, decide_equivalence(group, f, g) agrees with
    words_agree_everywhere(group, f, (g,)) on equivalent and non-equivalent
    pairs, and every separator separates."""
    one = ut3_f2.identity()
    assert decide_equivalence(ut3_f2, (one,), one)
    assert not decide_equivalence(ut3_f2, ("x",), one)
    rng = random.Random(36)
    for group in (ut3_f2, order54):
        one = group.identity()
        pairs = [((one,), one), (("x",), one),
                 (("x",) * exponent_bound(group), one)]
        for _ in range(8):
            word = random_word(rng, group, max_len=5, max_vars=2)
            pairs += [(word, random_group_element(rng, group)),
                      (word + invert_word(group, word), one)]
        verdicts = set()
        for f, g in pairs:
            agree, _ = words_agree_everywhere(group, f, (g,))
            assert decide_equivalence(group, f, g) == agree, (f, g)
            separator = separating_substitution(group, f, g)
            assert (separator is None) == agree, (f, g)
            if separator is not None:
                _check_separator(group, f, (g,), separator)
            verdicts.add(agree)
        assert verdicts == {True, False}


def _check_separator(group, f, g, separator):
    assert set(separator) == set(word_variables(f + g))
    assert evaluate_word(group, f, separator) != evaluate_word(group, g, separator)


def _scan_place(group, names, assignment):
    """1-based place of an assignment in the oracles' canonical scan."""
    index = {g: i for i, g in enumerate(element_list(group))}
    place = 0
    for name in names:
        place = place * group.order + index[assignment[name]]
    return place + 1


@pytest.mark.parametrize("m,pattern,orders,max_vars", [
    (3, ((1, 2), (1, 3)), (2, 1, 1), 2),   # 162 elements: the lane oracle
    (2, ((1, 2),), (8, 4), 1),             # 288 elements: per assignment
])
def test_gf9_decisions_match_the_oracles(m, pattern, orders, max_vars):
    """GF(9) adds digitwise mod 3.  decide_equation agrees with
    brute_force_solve, and decide_equivalence with words_agree_everywhere,
    on both oracle branches.  Every witness and separator checks out, and
    the oracle's is the first in canonical order: its scan place is its
    explored count, and no later than the reduction's."""
    group = make_group(make_domain(3, 2), m, pattern, orders)
    rng = random.Random(9)
    verdicts = set()
    for trial in range(24):
        word = random_word(rng, group, max_len=6, max_vars=max_vars)
        names = word_variables(word)
        target = (evaluate_word(group, word,
                                random_assignment(rng, group, word))
                  if trial % 2 else random_group_element(rng, group))
        decision = decide_equation(group, word, target)
        oracle = brute_force_solve(group, word, target)
        assert decision.sat == oracle.sat, (word, target)
        verdicts.add(oracle.sat)
        if oracle.sat:
            for witness in (decision.witness, oracle.witness):
                assert evaluate_word(group, word, witness) == target
            assert (oracle.stats.explored
                    == _scan_place(group, names, oracle.witness)
                    <= _scan_place(group, names, decision.witness))
        other = (word + ("v1",) + invert_word(group, ("v1",)) if trial % 3 == 0
                 else random_word(rng, group, max_len=6, max_vars=max_vars))
        agree, first = words_agree_everywhere(group, word, other)
        separator = separating_substitution(group, word, other)
        assert decide_equivalence(group, word, other) == agree
        assert (separator is None) == agree, (word, other)
        if not agree:
            names = word_variables(word + other)
            for assignment in (first, separator):
                _check_separator(group, word, other, assignment)
            assert (_scan_place(group, names, first)
                    <= _scan_place(group, names, separator))
    assert verdicts == {True, False}


def test_field_slots_occur_at_most_once_per_monomial(group_family):
    """The equivalence normal form cuts only diagonal exponents: it relies on
    every field slot having exponent <= 1 in a symbolic product."""
    rng = random.Random(31)
    for group in group_family:
        for _ in range(20):
            word = random_word(rng, group, max_len=8, max_vars=2)
            names = word_variables(word)
            index = {name: k for k, name in enumerate(names, start=1)}
            matrix = word_product(group,
                                  symbolic_letters(group, word, index))
            subgroup = subgroup_rows(group, index.values())
            for _, poly in upper_entries(group, matrix):
                for factors, _ in poly.items():
                    field = [v for v in factors if v not in subgroup]
                    assert len(field) == len(set(field)), (word, factors)


def test_equivalence_agrees_with_exhaustion_beyond_prime_fields():
    """GF(4) and GF(5) groups with diagonal orders 2..4: the normal form
    agrees with exhaustion, planted equivalent pairs included."""
    f4, f5 = make_domain(2, 2), make_domain(5)
    family = (make_group(f4, 3, ((1, 2),), (3, 3, 1)),
              make_group(f5, 3, ((1, 2), (1, 3)), (2, 4, 1)))
    rng = random.Random(2024)
    equivalent = 0
    for group in family:
        e = exponent_bound(group)
        pairs = [(random_word(rng, group, max_len=5, max_vars=2),
                  random_word(rng, group, max_len=5, max_vars=2))
                 for _ in range(30)]
        pairs += [(("v1",) * e, ()), ((), ("v1",) * e)]
        for _ in range(3):
            w = random_word(rng, group, max_len=3, max_vars=2)
            u = random_word(rng, group, max_len=2, max_vars=3)
            pairs.append((w + u + invert_word(group, u), w))
        for f, g in pairs:
            verdict = decide_equivalence(group, f, g)
            agree, _ = words_agree_everywhere(group, f, g)
            assert verdict == agree, (group, f, g)
            separator = separating_substitution(group, f, g)
            assert (separator is None) == agree
            if separator is not None:
                _check_separator(group, f, g, separator)
            equivalent += agree
    assert equivalent >= 10


def test_equivalence_eight_variables_beyond_guard(ut4_f2):
    """The space 64^8 is far beyond any guard; the normal form needs none."""
    word = tuple("v%d" % i for i in range(1, 9))
    assert exponent_bound(ut4_f2) == 4
    assert decide_equivalence(ut4_f2, word, word + ("v8",) * 4)
    rotated = word[1:] + word[:1]
    separator = separating_substitution(ut4_f2, word, rotated)
    assert separator is not None
    _check_separator(ut4_f2, word, rotated, separator)


def test_separator_is_deterministic(order54):
    f, g = ("x", "y", "x"), ("y", "x", "x")
    first = separating_substitution(order54, f, g)
    assert first is not None
    assert separating_substitution(order54, f, g) == first
    _check_separator(order54, f, g, first)


def test_nonzero_point_merges_the_terms_it_fixes(f3):
    """a*b + 2*a^2*b over GF(3): a = 0 leaves two zero terms and a = 1
    merges both into 3*b = 0, so a takes 2 (b + 8*b = 1*b); then b takes
    1.  Keeping a zero term picks a = 0, and not summing equal factor
    tuples picks a = 1."""
    poly = {("a", "b"): 1, ("a", "a", "b"): 2}
    domains = {"a": f3.elements(), "b": f3.elements()}
    assert _nonzero_point(f3, poly, domains) == {"a": 2, "b": 1}
    assert poly == {("a", "b"): 1, ("a", "a", "b"): 2}


def test_equivalence_calls_no_solver(monkeypatch, order54):
    import eqsolve.solver

    def refuse(*args, **kwargs):
        raise AssertionError("equivalence called the solver")

    monkeypatch.setattr(eqsolve.solver, "solve", refuse)
    e = exponent_bound(order54)
    assert decide_equivalence(order54, ("x",) * e, ())
    assert not decide_equivalence(order54, ("x", "y"), ("y", "x"))


def test_unknown_whose_slots_cancel_comes_back_identity(group_family):
    """x y y^(E-1) reduces to x: no constraint reads a slot of y, so y
    takes its layout's base, the identity."""
    rng = random.Random(5077)
    for group in group_family:
        word = ("x", "y") + invert_word(group, ("y",))
        identity = group.identity()
        decision = decide_equation(group, word, ("x",))
        assert decision.sat
        assert decision.witness == {"x": identity, "y": identity}
        c = random_group_element(rng, group)
        system = build_system(group, word, c, formal=False).system
        assert not any(v.endswith("[2]") for v in system.domains)
        decision = decide_equation(group, word, c)
        assert decision.sat
        assert decision.witness == {"x": c, "y": identity}


def test_build_system_refuses_foreign_constants_before_expanding(
        monkeypatch, ut3_f2, order54):
    """A constant letter or a constant right side of another group is a
    GroupError.  A foreign right side is named before any letter is laid
    out or multiplied: with a foreign letter in lhs too, and with the
    product replaced by a failure, the right side is what is refused."""
    from eqsolve import GroupError, reduction
    foreign = order54.identity()
    for formal in (True, False):
        with pytest.raises(GroupError, match="constant letter from a "
                                             "different group"):
            build_system(ut3_f2, ("x", foreign), ut3_f2.identity(),
                         formal=formal)
        with pytest.raises(GroupError, match="constant letter from a "
                                             "different group"):
            build_system(ut3_f2, ("x",), (foreign, "x"), formal=formal)

    def expand(*args):
        raise AssertionError("expanded before the right side was checked")

    monkeypatch.setattr(reduction, "symbolic_product", expand)
    for formal in (True, False):
        with pytest.raises(GroupError, match="right-hand side from a "
                                             "different group"):
            build_system(ut3_f2, ("x", foreign), foreign, formal=formal)
    with pytest.raises(GroupError, match="right-hand side"):
        decide_equation(ut3_f2, ("x",), foreign)
