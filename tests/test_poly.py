import itertools
import random
import re
from pathlib import Path

from eqsolve import (Polynomial, RScale, RVar, build_system, decide_equation,
                     decide_equivalence, decide_factor_ring,
                     decide_ring_equation, element_list, entrywise_rewrite,
                     enumerate_ideal, expr_variables, make_domain,
                     make_group, make_ring, ring_elements, sigma_expand,
                     symbolic_product, word_variables)
from eqsolve import poly as poly_module
from eqsolve import rings
from eqsolve.poly import entry_polynomial, slot_letter
from eqsolve.reduction import _unknown, _word_letters, x_variable, y_variable
from eqsolve.rings import a_variable, s_variable, t_variable
from conftest import random_ring_expr, random_word
from entries import monomial_entry_polys
from polyexpr import (EAdd, EConst, EMul, EVar, add, eval_expr, evaluate,
                      length, mul, normalize, poly, product_length,
                      sorted_terms, variable)
from symbolic import (formal_letter, merge_terms, reference_product,
                      scalar_grid, symbolic_letters, word_product)

F3 = make_domain(3)
X = "x"
Y = "y"
Z = "z"


def test_normalize_doubles_coefficient():
    e = EVar(X) + EVar(X)
    assert dict(normalize(e, F3).items()) == dict(poly(F3, (2, (X,))).items())


def test_normalize_characteristic_three():
    e = EVar(X) + EVar(X) + EVar(X)
    result = normalize(e, F3)
    assert result.is_zero()
    assert dict(result.items()) == dict(Polynomial(F3).items())
    assert length(result) == 0


def test_normalize_product_mod_three():
    # (x + 1)(x + 2) = x^2 + 3x + 2 = x^2 + 2 over GF(3)
    e = (EVar(X) + EConst(1)) * (EVar(X) + EConst(2))
    assert dict(normalize(e, F3).items()) == \
        dict(poly(F3, (1, (X, X)), (2, ())).items())


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        e = _random_expr(rng, depth=3)
        once = normalize(e, F3)
        assert dict(normalize(once, F3).items()) == dict(once.items())


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return EVar(rng.choice([X, Y, Z]))
        return EConst(rng.randrange(3))
    parts = tuple(_random_expr(rng, depth - 1)
                  for _ in range(rng.randint(2, 3)))
    return EAdd(parts) if rng.random() < 0.5 else EMul(parts)


def test_normalize_agrees_with_tree_evaluation():
    rng = random.Random(23)
    points = [{X: a, Y: b, Z: c}
              for a in range(3) for b in range(3) for c in range(3)]
    for _ in range(40):
        e = _random_expr(rng, depth=3)
        f = normalize(e, F3)
        for assignment in rng.sample(points, 10):
            assert evaluate(f, assignment) == eval_expr(e, assignment, F3)


def test_evaluate_examples():
    zero = Polynomial(F3)
    assert evaluate(zero, {}) == 0
    f = poly(F3, (1, (X, Y)), (1, ()))  # xy + 1
    assert evaluate(f, {X: 1, Y: 2}) == 0


def test_length_measures():
    assert length(Polynomial(F3)) == 0
    assert product_length(Polynomial(F3)) == 0
    assert Polynomial(F3).monomial_count() == 0
    m = poly(F3, (1, (X, Y, Z)))
    assert length(m) == 4           # three variables plus the coefficient
    assert product_length(m) == 3  # factor symbols only
    c = poly(F3, (2, ()))
    assert length(c) == 1
    assert product_length(c) == 1
    assert poly(F3, (1, (X, Y)), (1, (X,))).monomial_count() == 2


def test_length_additive_over_monomials():
    f = poly(F3, (1, (X, X)), (2, (Y,)), (1, ()))
    assert length(f) == (2 + 1) + (1 + 1) + (0 + 1)


def test_evaluation_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        f = normalize(_random_expr(rng, 2), F3)
        g = normalize(_random_expr(rng, 2), F3)
        a = {v: rng.randrange(3) for v in (X, Y, Z)}
        fa, ga = evaluate(f, a), evaluate(g, a)
        assert evaluate(add(f, g), a) == F3.radd(fa, ga)
        assert evaluate(mul(f, g), a) == F3.rmul(fa, ga)


def test_product_length_bound():
    rng = random.Random(17)
    for _ in range(30):
        f = normalize(_random_expr(rng, 2), F3)
        g = normalize(_random_expr(rng, 2), F3)
        if f.is_zero() or g.is_zero():
            continue
        assert length(mul(f, g)) <= length(f) * length(g)


def test_commutative_factors_are_sorted():
    f = mul(variable(F3, Y), variable(F3, X))
    ((factors, coeff),) = f.items()
    assert list(factors) == ["x", "y"]


def test_times_scalar_drops_zero_products():
    z4 = make_domain(2, 2, kind="modular")
    two = poly(z4, (2, ()))
    twice = mul(mul(variable(z4, X), two), two)
    assert sorted_terms(twice) == ()
    assert twice.is_zero()
    assert dict(twice.items()) == dict(Polynomial(z4).items())
    f = poly(z4, (2, (X,)), (1, (Y,)), (3, ()))
    assert dict(mul(f, two).items()) == \
        dict(poly(z4, (2, (Y,)), (2, ())).items())


def test_render_stable():
    f = poly(F3, (1, (X, X)), (2, (Y,)), (1, ()))
    assert repr(f) == "x*x + 2*y + 1"
    assert repr(Polynomial(F3)) == "0"


def test_slot_variables_are_shared_objects():
    assert x_variable(1, 2, 3) is x_variable(1, 2, 3)
    assert y_variable(2, 5) is y_variable(2, 5)
    assert s_variable(1, 2, 1) is s_variable(1, 2, 1)
    assert a_variable(2, 1, 4) is a_variable(2, 1, 4)
    assert x_variable(1, 2, 3) == "x[1][2][3]"
    assert y_variable(2, 5) == "y[2][5]"


def test_variables_mix_as_dict_keys():
    slot = x_variable(1, 3, 2)
    table = {X: 1, slot: 2}
    assert table["x"] == 1
    assert table["x[1][3][2]"] == 2
    made = variable(F3, "x[1][3][2]")
    assert dict(add(made, variable(F3, slot)).items()) == \
        dict(poly(F3, (2, (slot,))).items())
    assert evaluate(mul(made, variable(F3, X)),
                    {slot: 2, "x": 1}) == 2


def _assert_normal_form(entry, where):
    zero = entry.domain.rzero
    terms = list(entry.items())
    factors = [f for f, _ in terms]
    assert all(c != zero for _, c in terms), where
    assert len(set(factors)) == len(factors), where
    assert all(list(f) == sorted(f) for f in factors), where


def test_grid_products_are_in_normal_form(group_family):
    """Every entry from both reductions: no zero coefficient, no repeated
    factor tuple, and each factor tuple sorted by variable name."""
    rng = random.Random(4093)
    for group in group_family:
        for _ in range(30):
            word = random_word(rng, group, max_len=8, max_vars=3)
            index = {name: k for k, name in
                     enumerate(word_variables(word), start=1)}
            matrix = word_product(group, symbolic_letters(group, word, index))
            for row in matrix:
                for entry in row:
                    _assert_normal_form(entry_polynomial(group.domain, entry),
                                        (group, word))
    for p, alpha, m in ((2, 2, 2), (3, 1, 3), (2, 2, 3), (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        exprs = [RScale(2, RVar("x") * RVar("y"))]
        exprs += [random_ring_expr(rng, ring) for _ in range(30)]
        for expr in exprs:
            sigma = sigma_expand(expr, ring)
            names = expr_variables(expr)
            grids = [monomial_entry_polys(ring, mono, names)
                     for mono in sigma]
            grids.append(entrywise_rewrite(sigma, ring, names))
            for grid in grids:
                for row in grid:
                    for entry in row:
                        _assert_normal_form(entry, (ring, expr))


def test_first_letter_start_equals_identity_start(group_family):
    """slot_grid_sum starts each product at its first letter, scaled, and
    adds its last letter straight into the sum; its grids equal, dict for
    dict, the reference's product of I by every letter, and for lhs = rhs
    the reference F minus the reference G.  Words are empty, single letters
    or longer, also on the right, and x ... = x ... pairs share a prefix or
    the whole word, so that terms cancel.  Letters are multiplied formally,
    in the cut layout, and in the formal layout with the cut (through
    slot_letter with the row orders), so that a y slot of an order-1 row,
    the first letter's too, becomes the constant key."""
    rng = random.Random(4127)
    f4 = make_domain(2, 2)
    lengths = {0: 0, 1: 0}
    cancelled = 0
    for group in group_family + (make_group(f4, 3, ((1, 2), (1, 3)),
                                            (3, 3, 1)),):
        dom, m = group.domain, group.m
        identity = scalar_grid(dom, m, dom.rone)
        for trial in range(45):
            size = (0, 1, 8)[trial % 3]
            lhs = random_word(rng, group, max_len=size, min_len=min(size, 1))
            rhs = random_word(rng, group, max_len=(0, 4)[trial % 2],
                              min_len=0)
            if trial % 4 == 3 and lhs:
                # x ... = x ...: rhs shares a prefix of lhs, or all of it
                rhs = lhs[:rng.randint(1, len(lhs))] + rhs
            names = word_variables(lhs + rhs)
            for formal, cut in ((True, False), (False, True), (True, True)):
                unknowns = {name: formal_letter(group, k, cut) if formal
                            else _unknown(group, k, False)[1]
                            for k, name in enumerate(names, start=1)}
                words = [_word_letters(group, word, unknowns)
                         for word in (lhs, rhs)]
                grids = []
                for word, letters in zip((lhs, rhs), words):
                    want = reference_product(dom, identity, letters)
                    assert symbolic_product(
                        group, [(dom.rone, letters)]) == want, word
                    grids.append(want)
                    lengths[len(word)] = lengths.get(len(word), 0) + 1
                # lhs = rhs: the reference F plus -1 times the reference G
                want = [[dict(entry) for entry in row] for row in grids[0]]
                for acc_row, row in zip(want, grids[1]):
                    for acc, entry in zip(acc_row, row):
                        merge_terms(acc, [(f, dom.rneg(c))
                                          for f, c in entry.items()],
                                    dom.radd, dom.rzero)
                assert symbolic_product(group, [
                    (dom.rone, words[0]),
                    (dom.rneg(dom.rone), words[1])]) == want, (lhs, rhs)
                cancelled += bool(lhs and rhs) and (
                    sum(map(len, itertools.chain(*want)))
                    < sum(len(entry) for grid in grids
                          for entry in itertools.chain(*grid)))
                if formal == cut:
                    continue
                system = build_system(group, lhs, rhs, formal=formal).system
                assert [dict(c.poly.items()) for c in system.constraints] \
                    == [want[i][j] for i in range(m) for j in range(i, m)]
    assert lengths[0] >= 50 and lengths[1] >= 50
    assert cancelled >= 100


def test_first_letter_start_drops_zero_divisor_products():
    """entrywise_rewrite sums ring monomials over Z4, Z8 and Z9 whose
    coefficient is mostly a zero divisor, less t[k] * a_k per coset: the
    first letter's slots scaled to 0 mod p^a, such as 2 * (2 a) over Z4,
    leave no term, and each entry equals the reference sum of every
    monomial's c * I times its letters, minus t[k] * a_k."""
    rng = random.Random(4129)
    vanished = cosets_seen = 0
    for p, alpha, m in ((2, 2, 2), (2, 2, 3), (2, 3, 2), (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        dom, q = ring.domain, ring.modulus
        names = ("x", "y")
        unknowns = {name: rings._unknown(ring, k)[1]
                    for k, name in enumerate(names, start=1)}
        scalars = [c for c in range(q) if c % p == 0] + [1, q - 1]

        def element():
            return ring.element([[rng.randrange(q) * (1 if i < j else p) % q
                                  for j in range(m)] for i in range(m)])

        for _ in range(30):
            monomials = [(rng.choice(scalars),
                          [rng.choice(names) if rng.random() < 0.7
                           else element()
                           for _ in range(rng.randint(1, 4))])
                         for _ in range(rng.randint(1, 3))]
            cosets = [(element(), 2) for _ in range(rng.randint(0, 2))]
            want = scalar_grid(dom, m, dom.rzero)
            for coeff, letters in monomials:
                letters = [unknowns[letter] if isinstance(letter, str)
                           else slot_letter(dom, letter.rows)
                           for letter in letters]
                product = reference_product(
                    dom, scalar_grid(dom, m, coeff % q), letters)
                for acc_row, row in zip(want, product):
                    for acc, entry in zip(acc_row, row):
                        merge_terms(acc, entry.items(), dom.radd, dom.rzero)
                vanished += any(coeff and coeff * c % q == 0
                                for row in letters[0] for _, c, _, _ in row)
            for k, (a, _) in enumerate(cosets, start=1):
                for acc_row, row in zip(want, a.rows):
                    for acc, raw in zip(acc_row, row):
                        merge_terms(acc, [((t_variable(k),), dom.rneg(raw))]
                                    if raw else (), dom.radd, dom.rzero)
                cosets_seen += any(map(any, a.rows))
            got = entrywise_rewrite(monomials, ring, names, cosets)
            assert [[dict(e.items()) for e in row] for row in got] == want, \
                (ring, monomials, cosets)
    assert vanished >= 50 and cosets_seen >= 50


def test_raw_entries_equal_their_sorted_polynomials(group_family):
    """entry_polynomial wraps a raw grid entry as it is; its repr, terms
    and sorted terms are those of the Polynomial built from the same terms
    in another order."""
    rng = random.Random(4099)
    f4 = make_domain(2, 2)
    entries = []
    for group in group_family + (make_group(f4, 3, ((1, 2), (1, 3)),
                                            (3, 3, 1)),):
        for _ in range(20):
            word = random_word(rng, group, max_len=8, max_vars=3)
            index = {name: k for k, name in
                     enumerate(word_variables(word), start=1)}
            matrix = word_product(group, symbolic_letters(
                group, word, index, cut=rng.random() < 0.5))
            entries += [(group.domain, e) for row in matrix for e in row]
    for p, alpha, m in ((2, 2, 2), (3, 1, 3), (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        for _ in range(20):
            expr = random_ring_expr(rng, ring)
            grid = entrywise_rewrite(sigma_expand(expr, ring), ring,
                                     expr_variables(expr))
            entries += [(ring.domain, dict(e.items()))
                        for row in grid for e in row]
    assert sum(len(e) > 1 for _, e in entries) >= 100
    for dom, entry in entries:
        terms = list(entry.items())
        rng.shuffle(terms)
        kept = entry_polynomial(dom, entry)
        sorted_ = Polynomial(dom, terms)
        assert kept._coeffs is entry
        assert repr(kept) == repr(sorted_)
        assert dict(kept.items()) == dict(sorted_.items())
        assert sorted_terms(kept) == sorted_terms(sorted_)


def test_decide_paths_never_sort(monkeypatch, group_family, ring_m2z4,
                                 ring_m3z3):
    """Deciding an equation, an equivalence or a factor-ring question reads
    entry polynomials unordered: no _sort_terms call."""
    calls = []
    sort = poly_module._sort_terms

    def counting(terms):
        calls.append(terms)
        return sort(terms)

    monkeypatch.setattr(poly_module, "_sort_terms", counting)
    rng = random.Random(4111)
    sat = 0
    for group in group_family:
        for trial in range(25):
            lhs = random_word(rng, group)
            rhs = (random_word(rng, group, max_len=4) if trial % 5 == 4
                   else rng.choice(element_list(group)))
            sat += decide_equation(group, lhs, rhs).sat
            decide_equivalence(group, random_word(rng, group, max_len=5),
                               random_word(rng, group, max_len=5))
    for ring, generator in ((ring_m2z4, [[0, 2], [0, 0]]),
                            (ring_m3z3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])):
        ideal = enumerate_ideal(ring, [ring.element(generator)])
        for _ in range(20):
            expr = random_ring_expr(rng, ring)
            sat += decide_ring_equation(ring, expr,
                                        rng.choice(ring_elements(ring))).sat
            sat += decide_factor_ring(ring, ideal, expr).sat
    assert sat >= 50
    assert calls == []
    repr(build_system(group_family[2], ("v1", "v1"), ("v2",)).system
         .constraints[0].poly)
    assert calls


def test_public_poly_api_is_read_outside_tests():
    """No production code that only tests use: every public method or
    property of Polynomial is read somewhere under src/ or
    perfbench/ (tests/test_api.py checks the module-level names of every
    module).  A text search, so it can miss a name that only tests use but
    that also spells some other attribute."""
    root = Path(__file__).resolve().parent.parent
    files = sorted((root / "src").rglob("*.py")) + \
        sorted((root / "perfbench").rglob("*.py"))
    assert Path(poly_module.__file__).resolve() in files
    source = "\n".join(f.read_text() for f in files
                       if f.name != "__init__.py")
    methods = sorted(name for name in vars(Polynomial)
                     if not name.startswith("_"))
    assert "items" in methods
    unread = [n for n in methods if not re.search(r"\.%s\b" % n, source)]
    assert unread == [], "public poly methods only tests read"
