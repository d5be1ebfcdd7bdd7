import itertools
import random
import subprocess
import sys
from pathlib import Path

import pytest

from eqsolve import (GroupError, GuardExceeded, PatternError,
                     brute_force_solve, element_list, evaluate_word,
                     exponent_bound, full_pattern, invert_word, make_domain,
                     make_group, multiply, unitriangular_group,
                     word_variables, words_agree_everywhere)
from eqsolve import groups, lanes
from conftest import random_assignment, random_word


def elem(group, *rows):
    return group.element(rows)


def test_order54_group(order54):
    assert order54.order == 54
    assert len(element_list(order54)) == 54


def test_ut3f2_order8(ut3_f2):
    assert ut3_f2.order == 8
    assert len(element_list(ut3_f2)) == 8


def test_sparse_pattern_group(sparse18):
    assert sparse18.order == 18
    assert len(element_list(sparse18)) == 18


def test_pattern_closure_violation_reported(f3):
    with pytest.raises(PatternError) as err:
        make_group(f3, 3, ((1, 2), (2, 3)), (1, 1, 1))
    assert err.value.triple == ((1, 2), (2, 3), (1, 3))
    # the reason: multiplying I+E12 by I+E23 inside the full group leaves a
    # nonzero (1,3) entry, which the sparse pattern cannot hold
    full = unitriangular_group(f3, 3)
    a = elem(full, (1, 1, 0), (0, 1, 0), (0, 0, 1))
    b = elem(full, (1, 0, 0), (0, 1, 1), (0, 0, 1))
    assert (a * b).rows[0][2] == 1


def _first_open_triple(pattern):
    """The closure check's former double loop over the sorted pattern: the
    reference for the triple that make_group reports."""
    pat = set(pattern)
    for (i, j) in sorted(pat):
        for (j2, k) in sorted(pat):
            if j2 == j and (i, k) not in pat:
                return ((i, j), (j, k), (i, k))
    return None


def test_pattern_violation_triple_matches_double_loop(f2):
    rng = random.Random(5407)
    violations = 0
    for _ in range(300):
        m = rng.randint(3, 6)
        pattern = [p for p in full_pattern(m) if rng.random() < 0.5]
        rng.shuffle(pattern)
        expected = _first_open_triple(pattern)
        if expected is None:
            make_group(f2, m, pattern, (1,) * m)
            continue
        with pytest.raises(PatternError) as err:
            make_group(f2, m, pattern, (1,) * m)
        assert err.value.triple == expected, (m, pattern)
        violations += 1
    assert violations >= 100


def test_bad_subgroup_order(f3):
    with pytest.raises(GroupError):
        make_group(f3, 2, ((1, 2),), (3, 1))  # 3 does not divide q - 1 = 2


def test_matrix_size_limit(f3):
    with pytest.raises(GroupError, match="limit of 64"):
        make_group(f3, 65, (), (1,) * 65)


def test_bad_pattern_position(f3):
    with pytest.raises(GroupError):
        make_group(f3, 2, ((2, 1),), (1, 1))


def test_membership_validation(order54):
    with pytest.raises(GroupError):
        elem(order54, (1, 0, 0), (0, 1, 0), (1, 0, 1))  # below diagonal
    with pytest.raises(GroupError):
        elem(order54, (2, 0, 0), (0, 1, 0), (0, 0, 1))  # diagonal outside S_1


def test_multiply_identity(order54):
    rng = random.Random(3)
    identity = order54.identity()
    for _ in range(20):
        a = rng.choice(element_list(order54))
        assert multiply(a, identity) == a
        assert multiply(identity, a) == a


def test_multiply_elementary_f2(ut3_f2):
    a = elem(ut3_f2, (1, 1, 0), (0, 1, 0), (0, 0, 1))
    b = elem(ut3_f2, (1, 0, 0), (0, 1, 1), (0, 0, 1))
    expected = elem(ut3_f2, (1, 1, 1), (0, 1, 1), (0, 0, 1))
    assert a * b == expected


def test_multiply_closure_random(order54):
    rng = random.Random(9)
    elems = element_list(order54)
    for _ in range(1000):
        a, b = rng.choice(elems), rng.choice(elems)
        product = multiply(a, b)  # membership-checked internally
        for i in range(1, 4):
            assert product.rows[i - 1][i - 1] in order54.subgroups[i - 1]


def test_group_axioms_sampled(group_family):
    rng = random.Random(31)
    for group in group_family:
        elems = element_list(group)
        identity = group.identity()
        for _ in range(60):
            a, b, c = (rng.choice(elems) for _ in range(3))
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        for a in elems:
            inv = a.inverse()
            assert multiply(a, inv) == identity
            assert multiply(inv, a) == identity


def test_conjugation_stability(group_family):
    # d * u * d^-1 stays unipotent-with-pattern for diagonal d, exhaustively
    for group in group_family:
        if group.order > 100:
            continue
        unipotent = [g for g in element_list(group)
                     if all(g.rows[i][i] == group.domain.rone
                            for i in range(group.m))]
        diagonal = [g for g in element_list(group)
                    if all(g.rows[i][j] == group.domain.rzero
                           for i in range(group.m)
                           for j in range(i + 1, group.m))]
        for d in diagonal:
            dinv = d.inverse()
            for u in unipotent:
                conj = multiply(multiply(d, u), dinv)
                assert all(conj.rows[i][i] == group.domain.rone
                           for i in range(group.m))


def test_order_matches_enumeration(group_family, f3):
    for group in group_family:
        assert group.order == len(element_list(group))
    # a larger one, still enumerable: m = 4 over GF(3) with two nontrivial
    # diagonal subgroups gives 3^6 * 4 = 2916 elements
    big = make_group(f3, 4, full_pattern(4), (2, 2, 1, 1))
    assert big.order == 2916
    assert big.order == sum(1 for _ in big.elements())


def test_evaluate_word_empty_and_single(order54):
    assert evaluate_word(order54, (), {}) == order54.identity()
    c = element_list(order54)[7]
    assert evaluate_word(order54, ("x",), {"x": c}) == c


def test_evaluate_word_multiplies_once_per_extra_letter(monkeypatch, order54):
    calls = []
    product = groups.multiply

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(groups, "multiply", counting)
    c = element_list(order54)[7]
    for n in range(4):
        calls.clear()
        evaluate_word(order54, ("x", c) * n, {"x": c})
        assert len(calls) == max(2 * n - 1, 0)


def test_evaluate_word_matches_fold(order54):
    rng = random.Random(12)
    for _ in range(50):
        word = random_word(rng, order54, max_len=6)
        assignment = random_assignment(rng, order54, word)
        expected = order54.identity()
        for letter in word:
            value = assignment[letter] if isinstance(letter, str) else letter
            expected = multiply(expected, value)
        assert evaluate_word(order54, word, assignment) == expected


def test_evaluate_word_errors(order54, ut3_f2):
    with pytest.raises(GroupError):
        evaluate_word(order54, ("x",), {})
    with pytest.raises(GroupError):
        evaluate_word(order54, ("x",), {"x": ut3_f2.identity()})


def test_exponent_bound_examples(ut3_f2, order54, f3):
    assert exponent_bound(ut3_f2) == 4
    for g in element_list(ut3_f2):
        assert evaluate_word(ut3_f2, ("x",) * 4, {"x": g}) == ut3_f2.identity()
    assert exponent_bound(order54) == 6
    for g in element_list(order54):
        assert evaluate_word(order54, ("x",) * 6, {"x": g}) == order54.identity()
    trivial = make_group(f3, 1, (), (1,))
    assert exponent_bound(trivial) == 1


def test_exponent_bound_family(group_family):
    for group in group_family:
        e = exponent_bound(group)
        for g in element_list(group):
            assert evaluate_word(group, ("x",) * e, {"x": g}) == group.identity()


def test_invert_word_examples(ut3_f2):
    assert invert_word(ut3_f2, ()) == ()
    c = element_list(ut3_f2)[5]
    assert invert_word(ut3_f2, (c,)) == (c.inverse(),)
    assert invert_word(ut3_f2, ("x",)) == ("x", "x", "x")
    for g in element_list(ut3_f2):
        value = evaluate_word(ut3_f2, ("x",) + invert_word(ut3_f2, ("x",)),
                              {"x": g})
        assert value == ut3_f2.identity()


def test_invert_word_random(order54):
    rng = random.Random(77)
    for _ in range(25):
        word = random_word(rng, order54, max_len=4)
        inverse = invert_word(order54, word)
        assignment = random_assignment(rng, order54, word)
        left = evaluate_word(order54, word, assignment)
        right = evaluate_word(order54, inverse, assignment)
        assert multiply(left, right) == order54.identity()


def test_brute_force_single_variable(order54):
    c = element_list(order54)[13]
    decision = brute_force_solve(order54, ("x",), c)
    assert decision.sat and decision.witness == {"x": c}


def test_brute_force_squares(ut3_f2):
    # oracle: the set of squares, by enumerating all 8 elements
    squares = {multiply(g, g) for g in element_list(ut3_f2)}
    target = elem(ut3_f2, (1, 0, 1), (0, 1, 0), (0, 0, 1))
    assert target in squares
    u = elem(ut3_f2, (1, 1, 0), (0, 1, 1), (0, 0, 1))
    assert multiply(u, u) == target
    for candidate in element_list(ut3_f2):
        decision = brute_force_solve(ut3_f2, ("x", "x"), candidate)
        assert decision.sat == (candidate in squares)


def test_brute_force_commutator_unsat(order54):
    elems = element_list(order54)
    commutators = {multiply(multiply(a, b), multiply(a.inverse(), b.inverse()))
                   for a in elems for b in elems}
    outside = [g for g in elems if g not in commutators]
    assert outside, "commutators cover the whole group?"
    word = ("x", "y") + invert_word(order54, ("x",)) + invert_word(order54, ("y",))
    unsat = brute_force_solve(order54, word, outside[0])
    assert not unsat.sat
    inside = next(iter(commutators))
    assert brute_force_solve(order54, word, inside).sat


def test_brute_force_word_target(ut3_f2):
    # two-sided oracle: x y = y x is satisfiable (take both the identity)
    decision = brute_force_solve(ut3_f2, ("x", "y"), ("y", "x"))
    assert decision.sat
    witness = decision.witness
    assert (evaluate_word(ut3_f2, ("x", "y"), witness)
            == evaluate_word(ut3_f2, ("y", "x"), witness))


def test_oracles_on_long_words(ut3_f2):
    # UT(3,F2) has exponent 4, so (xy)^600 = 1, (xy)^601 = xy and
    # x^1501 y = xy: on words of over a thousand letters both oracles give
    # the short words' verdicts, witnesses and explored counts
    identity = ut3_f2.identity()
    decision = brute_force_solve(ut3_f2, ("x", "y") * 600, identity)
    assert (decision.sat, decision.stats.explored) == (True, 1)
    for long in (("x", "y") * 601, ("x",) * 1501 + ("y",)):
        for target in element_list(ut3_f2):
            got = brute_force_solve(ut3_f2, long, target)
            want = brute_force_solve(ut3_f2, ("x", "y"), target)
            assert ((got.sat, got.witness, got.stats.explored)
                    == (want.sat, want.witness, want.stats.explored))
        assert words_agree_everywhere(ut3_f2, long, ("x", "y")) == (True,
                                                                   None)
        assert (words_agree_everywhere(ut3_f2, long, ("y", "x"))
                == words_agree_everywhere(ut3_f2, ("x", "y"), ("y", "x")))


def test_brute_force_guard(order54, ut3_f2):
    """Both oracles refuse 54^6 assignments at the default guard, before a
    foreign constant is noticed and before a Cayley table or element list
    is built or read."""
    foreign = ut3_f2.identity()
    before = groups._cayley.cache_info(), element_list.cache_info()
    for word in (tuple("abcdef"), tuple("abc") + (foreign,) + tuple("def")):
        for oracle in (brute_force_solve, words_agree_everywhere):
            with pytest.raises(GuardExceeded) as refused:
                oracle(order54, word, (order54.identity(),))
            assert refused.value.space == 54 ** 6
            assert refused.value.guard == 10 ** 8
    assert (groups._cayley.cache_info(), element_list.cache_info()) == before


def test_words_agree_everywhere(ut3_f2):
    agree, _ = words_agree_everywhere(ut3_f2, ("x", "y"), ("x", "y"))
    assert agree
    agree, separator = words_agree_everywhere(ut3_f2, ("x", "y"), ("y", "x"))
    assert not agree
    left = evaluate_word(ut3_f2, ("x", "y"), separator)
    right = evaluate_word(ut3_f2, ("y", "x"), separator)
    assert left != right


def test_oracles_without_variables_build_no_table(f3):
    # a group no other test uses, so that its table is not already cached
    group = make_group(f3, 2, (), (2, 2))
    a, b = element_list(group)[1:3]
    before = groups._cayley.cache_info()
    assert brute_force_solve(group, (a, b), multiply(a, b)).stats.explored == 1
    assert not brute_force_solve(group, (a, b), a).sat
    assert words_agree_everywhere(group, (a, b), (b, a)) == (True, None)
    assert words_agree_everywhere(group, (a,), ()) == (False, {})
    assert groups._cayley.cache_info() == before


def test_oracles_reject_constants_from_other_groups(ut3_f2, order54):
    """A foreign constant letter or target is a GroupError on the table path
    too, as in evaluate_word, not a KeyError from the Cayley index."""
    foreign = order54.identity()
    with pytest.raises(GroupError):
        brute_force_solve(ut3_f2, ("x",), foreign)
    with pytest.raises(GroupError):
        brute_force_solve(ut3_f2, ("x", foreign), ("x",))
    with pytest.raises(GroupError):
        words_agree_everywhere(ut3_f2, ("x", foreign), ("x",))
    with pytest.raises(GroupError):
        words_agree_everywhere(ut3_f2, ("x",), (foreign, "x"))


def _raw_matmul(domain, a, b, m):
    return tuple(tuple(
        _sum_terms(domain, [domain.rmul(a[i][l], b[l][j]) for l in range(m)])
        for j in range(m)) for i in range(m))


def _sum_terms(domain, values):
    acc = domain.rzero
    for v in values:
        acc = domain.radd(acc, v)
    return acc


def _pattern_is_closed(pattern):
    pat = set(pattern)
    return all((i, k) in pat
               for (i, j) in pat for (j2, k) in pat if j2 == j)


def _unipotent_set(domain, m, pattern):
    """All matrices I + sum of arbitrary entries at the pattern positions."""
    values = domain.elements()
    zero, one = domain.rzero, domain.rone
    out = []
    for fill in itertools.product(values, repeat=len(pattern)):
        rows = [[one if i == j else zero for j in range(m)] for i in range(m)]
        for (i, j), v in zip(pattern, fill):
            rows[i - 1][j - 1] = v
        out.append(tuple(tuple(r) for r in rows))
    return out


@pytest.mark.parametrize("m,q", [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)])
def test_pattern_closure_criterion_is_exact(m, q):
    # transitive closure of the pattern <=> the unipotent set is closed
    # under matrix multiplication, checked exhaustively
    domain = make_domain(q)
    positions = full_pattern(m)
    for bits in itertools.product((0, 1), repeat=len(positions)):
        pattern = tuple(p for p, b in zip(positions, bits) if b)
        matrices = _unipotent_set(domain, m, pattern)
        mset = set(matrices)
        closed = all(_raw_matmul(domain, a, b, m) in mset
                     for a in matrices for b in matrices)
        assert closed == _pattern_is_closed(pattern), pattern


def _random_element(rng, group):
    """A uniform element of a group too large to list."""
    dom, m = group.domain, group.m
    rows = [[dom.rzero] * m for _ in range(m)]
    for i, sub in enumerate(group.subgroups):
        rows[i][i] = rng.choice(sub)
    for i, j in group.pattern:
        rows[i - 1][j - 1] = rng.randrange(dom.size)
    return group.element(rows)


def test_multiply_matches_matrix_product(ut3_f2, order54, sparse18):
    # every entry one dot product: GF(4) takes the k > 1 fold, the prime
    # fields the group's residue kernel
    f3, f4, f5 = make_domain(3), make_domain(2, 2), make_domain(5)
    for group in (make_group(f4, 3, ((1, 2), (1, 3)), (3, 1, 1)),
                  make_group(f5, 3, ((1, 3),), (4, 1, 2)),
                  ut3_f2, order54, sparse18, make_group(f3, 1, (), (2,))):
        elems = element_list(group)
        for a in elems:
            for b in elems:
                assert multiply(a, b).rows == _raw_matmul(
                    group.domain, a.rows, b.rows, group.m)
    rng = random.Random(17)
    for group in (unitriangular_group(make_domain(2), 6),
                  unitriangular_group(make_domain(7), 5)):
        for _ in range(200):
            a, b = _random_element(rng, group), _random_element(rng, group)
            assert multiply(a, b).rows == _raw_matmul(
                group.domain, a.rows, b.rows, group.m)


def test_identity_and_group_checks(f3, ut3_f2):
    group = make_group(f3, 3, full_pattern(3), (1, 2, 1))
    twin = make_group(f3, 3, full_pattern(3), (1, 2, 1))
    assert twin is not group and twin == group
    assert group.identity() == group.identity() == twin.identity()
    a, b = element_list(group)[31], element_list(twin)[44]
    product = multiply(a, b)
    assert product == a * b == multiply(a, element_list(group)[44])
    assert evaluate_word(group, ("x", b), {"x": a}) == product
    with pytest.raises(GroupError):
        multiply(a, ut3_f2.identity())


def test_equal_descriptors_hash_equal_and_share_caches():
    """Equal groups from separate make_group calls hash equal, so the
    reduction's unknown records and the oracle's table are built once."""
    from eqsolve.reduction import _unknown

    # a group no other test uses, so that neither cache holds it yet
    group, twin = (make_group(make_domain(5), 2, ((1, 2),), (2, 4))
                   for _ in range(2))
    assert twin is not group and twin == group
    assert hash(twin) == hash(group)
    for cache, args in ((_unknown, (1, False)), (groups._cayley, ())):
        before = cache.cache_info()
        built = cache(group, *args)
        assert cache(twin, *args) is built
        after = cache.cache_info()
        assert (after.misses - before.misses,
                after.hits - before.hits) == (1, 1), cache


def test_import_loads_no_numpy():
    """numpy is imported by the table oracles only, not by import eqsolve."""
    src = Path(__file__).resolve().parent.parent / "src"
    probe = ("import sys; sys.path.insert(0, %r); import eqsolve; "
             "print('numpy' in sys.modules)" % str(src))
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def _member_by_definition(group, raw):
    """Membership read straight off the definition of N_P*D."""
    dom = group.domain
    for i in range(group.m):
        for j in range(group.m):
            v = raw[i][j]
            if i == j:
                if not any(s == v for s in group.subgroups[i]):
                    return False
            elif (i + 1, j + 1) not in group.pattern and v != dom.rzero:
                return False
    return True


def test_membership_check_matches_definition(sparse18):
    f4 = make_domain(2, 2)
    groups = (sparse18, make_group(f4, 2, ((1, 2),), (3, 1)),
              make_group(make_domain(5), 2, (), (4, 2)))
    for group in groups:
        raws = group.domain.elements()
        m = group.m
        for flat in itertools.product(raws, repeat=m * m):
            raw = tuple(flat[i * m:(i + 1) * m] for i in range(m))
            try:
                group._check_membership(raw)
                accepted = True
            except GroupError:
                accepted = False
            assert accepted == _member_by_definition(group, raw), raw
    with pytest.raises(GroupError, match="diagonal entry 2 = 2 outside its "
                                         "subgroup of order 2"):
        group._check_membership(((1, 0), (0, 2)))
    with pytest.raises(GroupError, match=r"entry \(2,1\) must be zero"):
        group._check_membership(((1, 0), (3, 1)))
    # over GF(4) the message encodes the raw coefficient tuple of z
    gf4 = make_group(f4, 2, ((1, 2),), (1, 1))
    with pytest.raises(GroupError, match="diagonal entry 1 = 2 outside its "
                                         "subgroup of order 1"):
        gf4.element([[2, 0], [0, 1]])


# -- the table oracle against a plain scan -------------------------------------

def _reference_solve(group, word, target):
    """(sat, witness, explored) by scanning itertools.product(element_list)
    with evaluate_word: the canonical order in which brute_force_solve must
    find the same first hit."""
    target_is_word = isinstance(target, tuple)
    names = word_variables(tuple(word) + (target if target_is_word else ()))
    explored = 0
    for combo in itertools.product(element_list(group), repeat=len(names)):
        explored += 1
        assignment = dict(zip(names, combo))
        right = (evaluate_word(group, target, assignment) if target_is_word
                 else target)
        if evaluate_word(group, word, assignment) == right:
            return True, assignment, explored
    return False, None, explored


def _reference_agree(group, f, g):
    names = word_variables(tuple(f) + tuple(g))
    for combo in itertools.product(element_list(group), repeat=len(names)):
        assignment = dict(zip(names, combo))
        if (evaluate_word(group, f, assignment)
                != evaluate_word(group, g, assignment)):
            return False, assignment
    return True, None


def _oracle_outcome(group, word, target):
    decision = brute_force_solve(group, word, target)
    return decision.sat, decision.witness, decision.stats.explored


def _commutator(group, x, y):
    return (x, y) + invert_word(group, (x,)) + invert_word(group, (y,))


def _oracle_groups(ut4_f2, order54, sparse18):
    gf4 = make_group(make_domain(2, 2), 2, ((1, 2),), (3, 3))
    return (ut4_f2, order54, sparse18, gf4)


def test_oracle_matches_reference_scan(ut4_f2, order54, sparse18):
    rng = random.Random(808)
    for group in _oracle_groups(ut4_f2, order54, sparse18):
        elems = element_list(group)
        for trial in range(12):
            word = random_word(rng, group, max_len=6, max_vars=2)
            target = (random_word(rng, group, max_len=3, max_vars=2)
                      if trial % 3 == 2 else rng.choice(elems))
            assert (_oracle_outcome(group, word, target)
                    == _reference_solve(group, word, target))
        # the last element lies outside the derived subgroup of each group:
        # UNSAT, and every one of the |G|^2 assignments is scanned
        word = _commutator(group, "x", "y")
        expected = (False, None, group.order ** 2)
        assert _reference_solve(group, word, elems[-1]) == expected
        assert _oracle_outcome(group, word, elems[-1]) == expected


def test_separators_match_reference_scan(ut4_f2, order54, sparse18):
    rng = random.Random(809)
    for group in _oracle_groups(ut4_f2, order54, sparse18):
        for _ in range(12):
            f = random_word(rng, group, max_len=5, max_vars=2)
            g = random_word(rng, group, max_len=5, max_vars=2)
            assert (words_agree_everywhere(group, f, g)
                    == _reference_agree(group, f, g))
        # agreeing words scan the whole space
        c = element_list(group)[-1]
        f = ("x", c, "y") + invert_word(group, ("y",))
        assert words_agree_everywhere(group, f, ("x", c)) == (True, None)
        assert _reference_agree(group, f, ("x", c)) == (True, None)


def test_oracle_first_hits_at_row_and_lane_offsets(ut4_f2, sparse18):
    """The lane scan reports explored = k * |G| + j + 1 for a first hit in
    lane j of row k: hits inside a row (lane 21 of row 3, lane 19 of row
    10) and in the first lane of rows 4, 20, 43 and 84 of two- and
    three-variable scans, and an UNSAT scan past every row."""
    def cyclic(p):  # GF(p)^*, elements in order of their residues
        return make_group(make_domain(p), 1, (), (p - 1,))

    def pinned(group, k):  # x = e_k, then a free y: first hit at k*|G| + 1
        return group, ("x", "y") + invert_word(group, ("y",)), \
            element_list(group)[k]

    ut4 = element_list(ut4_f2)
    c79, c127 = cyclic(79), cyclic(127)
    cases = (
        ((c79, ("x", "y", "y", "y"), c79.element([[11]])), 256),
        (pinned(ut4_f2, 4), 257),
        ((c127, ("x",) + ("y",) * 9, c127.element([[116]])), 1280),
        (pinned(ut4_f2, 20), 1281),
        (pinned(unitriangular_group(make_domain(5), 3), 43), 5376),
        ((ut4_f2, (ut4[61], ut4[29], "x", "y", ut4[11], "y"),
          (ut4[58],) + ("z",) * 4), 5377),
        # squares have diagonal entry 1: UNSAT, all 18^3 lanes scanned
        ((sparse18, ("x", "x", "y", "y", "z", "z"),
          element_list(sparse18)[-1]), 18 ** 3),
    )
    for (group, word, target), explored in cases:
        expected = _reference_solve(group, word, target)
        assert expected[2] == explored
        assert _oracle_outcome(group, word, target) == expected


def test_oracle_at_the_byte_lane_limit():
    """GF(257)^* has exactly 256 elements, the largest group the lane scan
    takes: index 255 must survive every translation, as a lane value and as
    a prefix value.  GF(263)^* has 262 and is scanned per assignment,
    without a table."""
    c257 = make_group(make_domain(257), 1, (), (256,))
    elems = element_list(c257)   # in order of residues: elems[255] = -1
    assert c257.order == lanes.LIMIT == 256
    last, three = elems[255], elems[2]
    cases = (
        (("x",), last, 256),                         # lane index 255
        (("x", "y"), last, 256),                     # last lane of row 0
        (("x", "y", "z"), ("x", last, "y"), 256),    # a word target
        (("x", "y"), ("y", last), 255 * 256 + 1),    # prefix index 255
        (("x", "x"), three, 256),                    # 3 is no square mod 257
        (("x", three, "y"), ("y", "x"), 256 ** 2),   # UNSAT: 3 is not 1
    )
    for word, target, explored in cases:
        expected = _reference_solve(c257, word, target)
        assert expected[2] == explored
        assert _oracle_outcome(c257, word, target) == expected, word
    assert words_agree_everywhere(c257, ("x", "y"), ("y", "x")) == (True,
                                                                     None)
    assert words_agree_everywhere(c257, ("x", "x"), ("x", last)) == (
        False, {"x": elems[0]})

    c263 = make_group(make_domain(263), 1, (), (262,))
    before = groups._cayley.cache_info()
    elems = element_list(c263)
    for word, target in ((("x",), elems[-1]), (("x", "x"), elems[-1]),
                         (("x", "y"), (elems[5], "y"))):
        assert (_oracle_outcome(c263, word, target)
                == _reference_solve(c263, word, target))
    assert words_agree_everywhere(c263, ("x", "x"), ("x", elems[-1])) == (
        False, {"x": elems[0]})
    assert groups._cayley.cache_info() == before


def test_oracles_run_without_numpy():
    """Both oracles and `decide --oracle` work where numpy cannot be
    imported."""
    root = Path(__file__).resolve().parent.parent
    probe = """
import sys
sys.modules["numpy"] = None
sys.path.insert(0, %r)
from eqsolve import (RVar, brute_force_ring_solve, brute_force_solve,
                     element_list, make_domain, make_group, make_ring,
                     unitriangular_group, words_agree_everywhere)
from eqsolve.cli import main
ut3 = unitriangular_group(make_domain(2), 3)
order54 = make_group(make_domain(3), 3, [(1, 2), (1, 3), (2, 3)], (1, 2, 1))
e8, e54 = element_list(ut3), element_list(order54)

def show(decision):
    witness = sorted((k, e54.index(v)) for k, v in decision.witness.items())
    return decision.sat, witness, decision.stats.explored

print(show(brute_force_solve(order54, ("x", "x", e54[7]), e54[14])))
print(show(brute_force_solve(order54, ("x", e54[1], "y"), ("y", "x"))))
agree, separator = words_agree_everywhere(ut3, ("x", "y"), ("y", "x"))
print(agree, sorted((k, e8.index(v)) for k, v in separator.items()))
ring = brute_force_ring_solve(make_ring(2, 2, 2),
                              RVar("x") * RVar("y") + RVar("x"))
print(ring.sat, ring.stats.explored)
code = main(["decide", "problems/order54_identity.prob", "--oracle"])
print("exit", code)
""" % str(root / "src")
    out = subprocess.run([sys.executable, "-c", probe], cwd=root,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    order54 = make_group(make_domain(3), 3, full_pattern(3), (1, 2, 1))
    ut3 = unitriangular_group(make_domain(2), 3)
    e8, e54 = element_list(ut3), element_list(order54)

    def shown(outcome):
        sat, witness, explored = outcome
        witness = sorted((k, e54.index(v)) for k, v in witness.items())
        return str((sat, witness, explored))

    assert lines[0] == shown(_reference_solve(
        order54, ("x", "x", e54[7]), e54[14]))
    assert lines[1] == shown(_reference_solve(
        order54, ("x", e54[1], "y"), ("y", "x")))
    agree, separator = _reference_agree(ut3, ("x", "y"), ("y", "x"))
    assert lines[2] == "%s %s" % (agree, sorted(
        (k, e8.index(v)) for k, v in separator.items()))
    assert lines[3].split()[0] == "True"
    assert "oracle agrees (SAT)" in lines
    assert lines[-1] == "exit 0"


def test_per_assignment_scan_makes_no_membership_checks(monkeypatch):
    """Groups over 256 elements are scanned per assignment with unchecked
    products: the outcome equals the evaluate_word reference, and the only
    membership checks left are those of the SAT witness's re-check."""
    c263 = make_group(make_domain(263), 1, (), (262,))
    ut4f3 = unitriangular_group(make_domain(3), 4)
    c, u = element_list(c263), element_list(ut4f3)
    cases = ((c263, ("x", "x"), c[-1]),            # -1 is no square mod 263
             (c263, ("x", c[5], "x"), c[130] * c[5] * c[130]),  # x = 131
             (ut4f3, ("x", "x", "x"), u[-1]),       # UNSAT, 729 explored
             (ut4f3, ("x", u[5], "x"), u[-1]))
    checks = []
    check = groups.SemipatternGroup._check_membership
    for group, word, target in cases:
        expected = _reference_solve(group, word, target)
        assert expected[2] > 100
        monkeypatch.setattr(groups.SemipatternGroup, "_check_membership",
                            lambda self, raw: checks.append(raw)
                            or check(self, raw))
        checks.clear()
        assert _oracle_outcome(group, word, target) == expected, word
        monkeypatch.undo()
        assert len(checks) == (len(word) - 1 if expected[0] else 0), word
