import itertools

import pytest

from eqsolve import (DomainError, element_order, make_domain,
                     subgroup_of_order)
from eqsolve.domains import (_BUILTIN_POLYS, _poly_mul, _poly_rem,
                             is_irreducible)


def test_prime_field_elements():
    d = make_domain(3, 1, "field")
    assert d.size == 3
    assert [s.key() for s in d.elements()] == [0, 1, 2]


def test_f3_units_form_full_multiplicative_group():
    # the scalar domain of the order-54 group: units {1, 2}, a,b,c free
    d = make_domain(3)
    assert tuple(s.key() for s in d.units()) == (1, 2)
    assert subgroup_of_order(d, 2).elements == d.units()


def test_z4_inverse_of_three():
    d = make_domain(2, 2, "modular")
    assert d.size == 4
    three = d.scalar(3)
    assert three.inverse() == three  # 3 * 3 = 9 = 1 mod 4


def test_non_prime_p_rejected():
    with pytest.raises(DomainError):
        make_domain(4)
    with pytest.raises(DomainError):
        make_domain(1)


def test_bad_exponent_rejected():
    with pytest.raises(DomainError):
        make_domain(3, 0)


def test_reducible_defining_polynomial_rejected():
    # z^2 + 1 = (z + 1)^2 over GF(2)
    with pytest.raises(DomainError):
        make_domain(2, 2, "field", irreducible=(1, 0, 1))


def test_unsupported_extension_degree_without_polynomial():
    with pytest.raises(DomainError):
        make_domain(2, 6, "field")
    # but an explicit irreducible polynomial works: z^6 + z + 1 over GF(2)
    d = make_domain(2, 6, "field", irreducible=(1, 1, 0, 0, 0, 0, 1))
    assert d.size == 64


def test_builtin_polynomials_are_irreducible():
    for q, coeffs in _BUILTIN_POLYS.items():
        p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else 5)
        assert is_irreducible(coeffs, p), q


def test_subgroup_examples():
    assert [s.key() for s in subgroup_of_order(make_domain(3), 2)] == [1, 2]
    assert [s.key() for s in subgroup_of_order(make_domain(7), 1)] == [1]
    # oracle: enumerate x in GF(5) with x^2 = 1
    d5 = make_domain(5)
    expected = sorted(x.key() for x in d5.units() if (x * x) == 1)
    assert expected == [1, 4]
    assert [s.key() for s in subgroup_of_order(d5, 2)] == expected


def test_subgroup_errors():
    with pytest.raises(DomainError):
        subgroup_of_order(make_domain(5), 3)  # 3 does not divide 4
    with pytest.raises(DomainError):
        subgroup_of_order(make_domain(2, 2, "modular"), 1)


@pytest.mark.parametrize("q,exp", [(2, 1), (3, 1), (4, 2), (5, 1), (7, 1),
                                   (8, 3), (9, 2)])
def test_field_axioms_exhaustive(q, exp):
    p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else q)
    d = make_domain(p, exp, "field")
    elems = d.elements()
    one = d.one()
    for a, b in itertools.product(elems, repeat=2):
        assert a * b == b * a
        assert a + b == b + a
    for a, b, c in itertools.product(elems, repeat=3):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
    for a in elems:
        if not a.is_zero():
            assert a * a.inverse() == one


@pytest.mark.parametrize("p,k,poly", [(2, 2, None), (2, 5, None),
                                      (3, 3, None), (5, 2, None),
                                      (3, 5, (1, 2, 0, 0, 0, 1))])
def test_log_tables_match_polynomial_arithmetic(p, k, poly):
    """rmul and rinv read log/antilog tables; they agree with the product
    modulo the defining polynomial, on built-in and supplied polynomials."""
    d = make_domain(p, k, irreducible=poly)
    raws = [e.raw for e in d.elements()]
    for a, b in itertools.product(raws[:40], raws):
        rem = _poly_rem(_poly_mul(list(a), list(b), p), list(d.modpoly), p)
        assert d.rmul(a, b) == tuple(rem + [0] * (k - len(rem)))
    for a in raws[1:]:
        assert d.rmul(a, d.rinv(a)) == d.rone
    log = d._log_tables[0]
    assert sorted(log.values()) == list(range(d.size - 1))


@pytest.mark.parametrize("q,exp", [(2, 1), (3, 1), (4, 2), (5, 1), (7, 1),
                                   (8, 3), (9, 2)])
def test_subgroup_closure_and_order(q, exp):
    p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else q)
    d = make_domain(p, exp, "field")
    for order in range(1, q):
        if (q - 1) % order != 0:
            continue
        sub = subgroup_of_order(d, order)
        assert len(sub.elements) == order
        for a, b in itertools.product(sub.elements, repeat=2):
            assert (a * b) in sub
        for a in sub.elements:
            assert a ** order == d.one()


def test_modular_units_are_coprime_residues():
    d = make_domain(2, 3, "modular")  # Z_8
    units = [s.key() for s in d.units()]
    assert units == [1, 3, 5, 7]
    for u in d.units():
        assert u * u.inverse() == d.one()
    with pytest.raises(DomainError):
        d.scalar(2).inverse()


def test_element_order_examples():
    assert element_order(make_domain(7).one()) == 1
    two = make_domain(5).scalar(2)
    # oracle: repeated multiplication gives 2, 4, 3, 1
    powers = [two, two * two, two * two * two, two * two * two * two]
    assert [s.key() for s in powers] == [2, 4, 3, 1]
    assert element_order(two) == 4
    assert element_order(make_domain(2, 2, "modular").scalar(3)) == 2
    with pytest.raises(DomainError):
        element_order(make_domain(2, 2, "modular").scalar(2))


def test_extension_field_encode_decode_roundtrip():
    d = make_domain(3, 2, "field")
    for v in range(9):
        assert d.scalar(v).key() == v
    x = d.scalar(3)
    assert x == d.scalar((0, 1))  # encoding 3 is the basis element z
    # z^2 = -1 = 2 for the defining polynomial z^2 + 1
    assert (x * x).key() == 2


def test_scalar_mixed_domain_rejected():
    a = make_domain(3).one()
    b = make_domain(5).one()
    with pytest.raises(DomainError):
        a + b
