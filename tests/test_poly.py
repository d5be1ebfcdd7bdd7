import pickle
import random

import pytest

from eqsolve import (FIELD, RING, SUBGROUP, PolyError, Polynomial, RScale,
                     RVar, Variable, entrywise_rewrite, make_domain, make_ring,
                     sigma_expand, symbolic_letters, symbolic_product,
                     word_variables)
from eqsolve.poly import _term_key
from eqsolve.reduction import x_variable, y_variable
from eqsolve.rings import a_variable, s_variable, sigma_var_index
from conftest import random_ring_expr, random_word
from entries import monomial_entry_polys
from polyexpr import EAdd, EConst, EMul, EVar, eval_expr, normalize

F3 = make_domain(3)
X = Variable("x")
Y = Variable("y")
Z = Variable("z")


def poly(domain, *terms):
    return Polynomial.from_terms(domain, terms)


def test_normalize_doubles_coefficient():
    e = EVar(X) + EVar(X)
    assert normalize(e, F3) == poly(F3, (2, (X,)))


def test_normalize_characteristic_three():
    e = EVar(X) + EVar(X) + EVar(X)
    result = normalize(e, F3)
    assert result.is_zero()
    assert result == Polynomial.zero(F3)
    assert result.length() == 0


def test_normalize_product_mod_three():
    # (x + 1)(x + 2) = x^2 + 3x + 2 = x^2 + 2 over GF(3)
    e = (EVar(X) + EConst(F3.one())) * (EVar(X) + EConst(F3.scalar(2)))
    assert normalize(e, F3) == poly(F3, (1, (X, X)), (2, ()))


def test_normalize_idempotent():
    rng = random.Random(11)
    for _ in range(50):
        e = _random_expr(rng, depth=3)
        once = normalize(e, F3)
        assert normalize(once, F3) == once


def _random_expr(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        if rng.random() < 0.5:
            return EVar(rng.choice([X, Y, Z]))
        return EConst(F3.scalar(rng.randrange(3)))
    parts = tuple(_random_expr(rng, depth - 1)
                  for _ in range(rng.randint(2, 3)))
    return EAdd(parts) if rng.random() < 0.5 else EMul(parts)


def test_normalize_agrees_with_tree_evaluation():
    rng = random.Random(23)
    points = [{X: F3.scalar(a), Y: F3.scalar(b), Z: F3.scalar(c)}
              for a in range(3) for b in range(3) for c in range(3)]
    for _ in range(40):
        e = _random_expr(rng, depth=3)
        f = normalize(e, F3)
        for assignment in rng.sample(points, 10):
            assert f.evaluate(assignment) == eval_expr(e, assignment, F3)


def test_evaluate_examples():
    zero = Polynomial.zero(F3)
    assert zero.evaluate({}) == F3.zero()
    f = poly(F3, (1, (X, Y)), (1, ()))  # xy + 1
    assert f.evaluate({X: F3.one(), Y: F3.scalar(2)}) == F3.zero()


def test_evaluate_missing_variable():
    f = poly(F3, (1, (X, Y)))
    with pytest.raises(PolyError):
        f.evaluate({X: F3.one()})


def test_evaluate_domain_violation():
    yvar = Variable("y[1][1]", SUBGROUP, row=1)
    f = poly(F3, (1, (yvar,)))
    domains = {yvar: (F3.one(),)}
    assert f.evaluate({yvar: F3.one()}, domains) == F3.one()
    with pytest.raises(PolyError):
        f.evaluate({yvar: F3.scalar(2)}, domains)


def test_length_measures():
    assert Polynomial.zero(F3).length() == 0
    assert Polynomial.zero(F3).product_length() == 0
    m = poly(F3, (1, (X, Y, Z)))
    assert m.length() == 4          # three variables plus the coefficient
    assert m.product_length() == 3  # factor symbols only
    c = poly(F3, (2, ()))
    assert c.length() == 1
    assert c.product_length() == 1


def test_length_additive_over_monomials():
    f = poly(F3, (1, (X, X)), (2, (Y,)), (1, ()))
    assert f.length() == (2 + 1) + (1 + 1) + (0 + 1)


def test_evaluation_homomorphism():
    rng = random.Random(5)
    for _ in range(30):
        f = normalize(_random_expr(rng, 2), F3)
        g = normalize(_random_expr(rng, 2), F3)
        a = {v: F3.scalar(rng.randrange(3)) for v in (X, Y, Z)}
        assert (f + g).evaluate(a) == f.evaluate(a) + g.evaluate(a)
        assert (f * g).evaluate(a) == f.evaluate(a) * g.evaluate(a)


def test_product_length_bound():
    rng = random.Random(17)
    for _ in range(30):
        f = normalize(_random_expr(rng, 2), F3)
        g = normalize(_random_expr(rng, 2), F3)
        if f.is_zero() or g.is_zero():
            continue
        assert (f * g).length() <= f.length() * g.length()


def test_commutative_factors_are_sorted():
    f = Polynomial.variable(F3, Y) * X
    ((coeff, factors),) = f.monomials()
    assert [v.name for v in factors] == ["x", "y"]


def test_ring_sort_preserves_factor_order():
    a = Variable("a", RING)
    b = Variable("b", RING)
    ab = Polynomial.variable(F3, a) * b
    ba = Polynomial.variable(F3, b) * a
    assert ab != ba
    ((_, fa),) = ab.monomials()
    ((_, fb),) = ba.monomials()
    assert [v.name for v in fa] == ["a", "b"]
    assert [v.name for v in fb] == ["b", "a"]
    # normalizing again must not reorder
    assert normalize(ab, F3) == ab


def test_times_scalar_drops_zero_products():
    z4 = make_domain(2, 2, kind="modular")
    twice = Polynomial.variable(z4, X).times_scalar(2).times_scalar(2)
    assert twice._terms == ()
    assert twice.is_zero()
    assert twice == Polynomial.zero(z4)
    f = Polynomial.from_terms(z4, ((2, (X,)), (1, (Y,)), (3, ())))
    assert f * 2 == Polynomial.from_terms(z4, ((2, (Y,)), (2, ())))


def test_mixed_domains_rejected():
    f5 = make_domain(5)
    with pytest.raises(PolyError):
        Polynomial.variable(F3, X) + Polynomial.variable(f5, X)
    with pytest.raises(PolyError):
        normalize(EConst(f5.one()), F3)


def test_render_stable():
    f = poly(F3, (1, (X, X)), (2, (Y,)), (1, ()))
    assert repr(f) == "x*x + 2*y + 1"
    assert repr(Polynomial.zero(F3)) == "0"


def test_variables_and_degree():
    f = poly(F3, (1, (X, Y)), (1, (X,)))
    assert {v.name for v in f.variables()} == {"x", "y"}
    assert f.degree() == 2
    assert f.monomial_count() == 2


def test_variable_equality_and_hash():
    a = Variable("v", SUBGROUP, row=2)
    b = Variable("v", sort=SUBGROUP, row=2)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != Variable("v", FIELD, row=2)
    assert a != Variable("v", SUBGROUP, row=3)
    assert Variable("x") == Variable("x", FIELD, None) == X
    assert a != "v"
    assert repr(a) == "v" and (a.name, a.sort, a.row) == ("v", SUBGROUP, 2)
    assert pickle.loads(pickle.dumps(a)) == a


def test_variable_is_immutable():
    with pytest.raises(AttributeError):
        X.name = "w"
    with pytest.raises(AttributeError):
        X.row = 1
    with pytest.raises(AttributeError):
        del X.sort
    assert X.name == "x" and X.row is None


def test_slot_variables_are_shared_objects():
    assert x_variable(1, 2, 3) is x_variable(1, 2, 3)
    assert y_variable(2, 5) is y_variable(2, 5)
    assert s_variable(1, 2, 1) is s_variable(1, 2, 1)
    assert a_variable(2, 1, 4) is a_variable(2, 1, 4)
    assert x_variable(1, 2, 3) == Variable("x[1][2][3]")
    assert y_variable(2, 5) == Variable("y[2][5]", SUBGROUP, row=2)
    assert y_variable(2, 5) != Variable("y[2][5]")


def test_variables_mix_as_dict_keys():
    slot = x_variable(1, 3, 2)
    table = {X: 1, slot: 2}
    assert table[Variable("x")] == 1
    assert table[Variable("x[1][3][2]", FIELD)] == 2
    made = Polynomial.variable(F3, Variable("x[1][3][2]"))
    assert made + Polynomial.variable(F3, slot) == poly(F3, (2, (slot,)))
    assert (made * X).evaluate({slot: F3.scalar(2), Variable("x"): F3.one()}) \
        == F3.scalar(2)


def _assert_normal_form(entry, where):
    zero = entry.domain.rzero
    factors = [f for f, _ in entry._terms]
    assert all(c != zero for _, c in entry._terms), where
    assert len(set(factors)) == len(factors), where
    assert factors == sorted(factors, key=_term_key), where


def test_grid_products_are_in_normal_form(group_family):
    """Every entry from both reductions: no zero coefficient, no repeated
    factor tuple, terms sorted by _term_key."""
    rng = random.Random(4093)
    for group in group_family:
        for _ in range(30):
            word = random_word(rng, group, max_len=8, max_vars=3)
            index = {name: k for k, name in
                     enumerate(word_variables(word), start=1)}
            matrix = symbolic_product(group,
                                      symbolic_letters(group, word, index))
            for row in matrix.grid:
                for entry in row:
                    _assert_normal_form(entry, (group, word))
    for p, alpha, m in ((2, 2, 2), (3, 1, 3), (2, 2, 3), (3, 2, 2)):
        ring = make_ring(p, alpha, m)
        exprs = [RScale(2, RVar("x") * RVar("y"))]
        exprs += [random_ring_expr(rng, ring) for _ in range(30)]
        for expr in exprs:
            sigma = sigma_expand(expr, ring)
            var_index = sigma_var_index(sigma)
            grids = [monomial_entry_polys(ring, mono, var_index)
                     for mono in sigma.monomials]
            grids.append(entrywise_rewrite(sigma, ring, var_index))
            for grid in grids:
                for row in grid:
                    for entry in row:
                        _assert_normal_form(entry, (ring, expr))
