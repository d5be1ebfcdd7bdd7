import itertools

import pytest

from eqsolve import (DomainError, FiniteField, ModularRing, PrimeField,
                     make_domain, subgroup_of_order)
from eqsolve.domains import (_BUILTIN_POLYS, residue_matadd, residue_matmul,
                             residue_matscale)


# Coefficient-list polynomial arithmetic over Z_p, lowest degree first: the
# reference that is_irreducible and the log-table check use.

def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, b, p):
    """Remainder of a modulo monic b, coefficients in Z_p, lowest degree first."""
    a = [x % p for x in a]
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _poly_trim(a[:db])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _monic_polys(p, degree):
    """All monic polynomials of the given degree over Z_p."""
    def rec(prefix, left):
        if left == 0:
            yield prefix + [1]
            return
        for c in range(p):
            yield from rec(prefix + [c], left - 1)
    yield from rec([], degree)


def is_irreducible(coeffs, p) -> bool:
    """Trial-division irreducibility test for a monic polynomial over Z_p."""
    c = _poly_trim([x % p for x in coeffs])
    deg = len(c) - 1
    if deg < 1 or c[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if not _poly_rem(c, cand, p):
                return False
    return True


def test_prime_field_elements():
    d = make_domain(3, 1, "field")
    assert d.size == 3
    assert list(d.elements()) == [0, 1, 2]


def test_prime_field_is_z_p_as_a_field():
    """GF(p) has Z_p's residue arithmetic but is a distinct field domain;
    FiniteField is for k >= 2 only."""
    f5, z5 = make_domain(5), make_domain(5, 1, "modular")
    assert f5 == PrimeField(5) and isinstance(f5, ModularRing)
    assert (f5.kind, repr(f5), z5.kind, repr(z5)) == \
        ("field", "GF(5)", "modular", "Z(5)")
    assert f5 != z5
    for a, b in itertools.product(range(5), repeat=2):
        assert (f5.radd(a, b), f5.rmul(a, b)) == (z5.radd(a, b), z5.rmul(a, b))
    assert f5.units() == f5.elements()[1:]
    assert f5.rpow(2, 4) == 1
    with pytest.raises(DomainError):
        FiniteField(5, 1, None)


def test_f3_units_form_full_multiplicative_group():
    # the scalar domain of the order-54 group: units {1, 2}, a,b,c free
    d = make_domain(3)
    assert d.units() == (1, 2)
    assert subgroup_of_order(d, 2) == d.units()


def test_non_prime_p_rejected():
    with pytest.raises(DomainError):
        make_domain(4)
    with pytest.raises(DomainError):
        make_domain(1)


def test_bad_exponent_rejected():
    with pytest.raises(DomainError):
        make_domain(3, 0)


def test_unknown_domain_kind_rejected():
    with pytest.raises(DomainError, match="unknown domain kind 'x'"):
        make_domain(2, 1, "x")


@pytest.mark.parametrize("args", [(2, 2.0), (5.0,), ("5",)])
def test_p_and_exponent_must_be_ints(args):
    # a float exponent used to build a GF(4) of size 4.0, equal to the real one
    with pytest.raises(TypeError):
        make_domain(*args)


def test_unsupported_extension_degree_without_polynomial():
    with pytest.raises(DomainError):
        make_domain(2, 6, "field")
    # but the field of an irreducible polynomial works: z^6 + z + 1 over GF(2)
    d = FiniteField(2, 6, (1, 1, 0, 0, 0, 0, 1))
    assert d.size == 64


def test_builtin_polynomials_are_irreducible():
    for q, coeffs in _BUILTIN_POLYS.items():
        p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else 5)
        assert is_irreducible(coeffs, p), q


def test_subgroup_examples():
    assert list(subgroup_of_order(make_domain(3), 2)) == [1, 2]
    assert list(subgroup_of_order(make_domain(7), 1)) == [1]
    # oracle: enumerate x in GF(5) with x^2 = 1
    d5 = make_domain(5)
    expected = sorted(x for x in d5.units() if d5.rmul(x, x) == d5.rone)
    assert expected == [1, 4]
    assert list(subgroup_of_order(d5, 2)) == expected


@pytest.mark.parametrize("q", [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31]
                         + sorted(_BUILTIN_POLYS))
def test_subgroup_equals_root_scan(q):
    """For every d | q - 1, the order-d subgroup is {x : x^d = 1}, in
    ascending order."""
    p = next(p for p in range(2, q + 1) if q % p == 0)
    k = next(k for k in range(1, q) if p ** k == q)
    d = make_domain(p, k)
    for order in range(1, q):
        if (q - 1) % order == 0:
            roots = tuple(x for x in d.units()
                          if d.rpow(x, order) == d.rone)
            assert subgroup_of_order(d, order) == roots, (q, order)


def test_subgroup_errors():
    with pytest.raises(DomainError):
        subgroup_of_order(make_domain(5), 3)  # 3 does not divide 4
    with pytest.raises(DomainError):
        subgroup_of_order(make_domain(2, 2, "modular"), 1)


def test_domain_size_limit():
    """At most 2^20 residues; a huge exponent is refused without computing
    the power, and a huge p without the primality test."""
    assert make_domain(2, 20, "modular").size == 2 ** 20
    for p, exponent in ((2, 21), (1048583, 1), (2, 10 ** 20),
                        (2 ** 61 - 1, 1), (1000003, 2)):
        with pytest.raises(DomainError, match=r"limit of 2\^20"):
            make_domain(p, exponent, "modular")


@pytest.mark.parametrize("q,exp", [(2, 1), (3, 1), (4, 2), (5, 1), (7, 1),
                                   (8, 3), (9, 2)])
def test_field_axioms_exhaustive(q, exp):
    p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else q)
    d = make_domain(p, exp, "field")
    elems = d.elements()
    add, mul = d.radd, d.rmul
    for a, b in itertools.product(elems, repeat=2):
        assert mul(a, b) == mul(b, a)
        assert add(a, b) == add(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    for a in elems:
        if a != d.rzero:
            assert mul(a, d.rpow(a, q - 2)) == d.rone


def _digits(value, p, k):
    """The k base-p digits of value, lowest first: its coefficient list."""
    return [value // p ** i % p for i in range(k)]


def _from_coeffs(coeffs, p):
    return sum(c * p ** i for i, c in enumerate(coeffs))


@pytest.mark.parametrize("p,k,poly", [(2, 2, None), (2, 5, None),
                                      (3, 3, None), (5, 2, None),
                                      (3, 5, (1, 2, 0, 0, 0, 1)),
                                      (2, 3, None), (3, 2, None),
                                      (2, 4, None),
                                      (2, 6, (1, 1, 0, 0, 0, 0, 1))])
def test_log_tables_match_polynomial_arithmetic(p, k, poly):
    """Int raws agree, through their base-p digits, with coefficient-list
    arithmetic modulo the defining polynomial: radd, rneg, rmul, rpow
    and coerce of coefficient vectors, on built-in and supplied
    polynomials.  Every pair for q <= 32; past that the first 40 raws
    against every raw."""
    d = make_domain(p, k) if poly is None else FiniteField(p, k, poly)
    q, mod = d.size, list(d.modpoly)

    def times(a, b):
        return _from_coeffs(_poly_rem(_poly_mul(_digits(a, p, k),
                                                _digits(b, p, k), p),
                                      mod, p), p)

    raws = d.elements()
    assert raws == tuple(range(q))
    sample = raws if q <= 32 else raws[:40]
    for a, b in itertools.product(sample, raws):
        assert d.radd(a, b) == _from_coeffs(
            [(x + y) % p for x, y in zip(_digits(a, p, k), _digits(b, p, k))],
            p), (a, b)
        assert d.rmul(a, b) == times(a, b), (a, b)
    for a in sample:
        digits = _digits(a, p, k)
        assert d.rneg(a) == _from_coeffs([-c % p for c in digits], p)
        assert d.coerce(digits) == d.coerce(tuple(digits)) == a
        assert d.coerce([c + p for c in digits]) == a
        power = 1
        for n in range(2 * q + 1):
            assert d.rpow(a, n) == power, (a, n)
            power = times(power, a)
    log = d._log_tables[0]
    assert log[0] is None and sorted(log[1:]) == list(range(q - 1))


@pytest.mark.parametrize("q,exp", [(2, 1), (3, 1), (4, 2), (5, 1), (7, 1),
                                   (8, 3), (9, 2)])
def test_subgroup_closure_and_order(q, exp):
    p = 2 if q % 2 == 0 else (3 if q % 3 == 0 else q)
    d = make_domain(p, exp, "field")
    for order in range(1, q):
        if (q - 1) % order != 0:
            continue
        sub = subgroup_of_order(d, order)
        assert len(sub) == order
        for a, b in itertools.product(sub, repeat=2):
            assert d.rmul(a, b) in sub
        for a in sub:
            assert d.rpow(a, order) == d.rone


def test_modular_units_are_coprime_residues():
    d = make_domain(2, 3, "modular")  # Z_8
    assert d.units() == (1, 3, 5, 7)


@pytest.mark.parametrize("d", [make_domain(2, 2), make_domain(3, 2),
                               make_domain(2, 3), make_domain(5),
                               make_domain(2, 3, "modular")])
def test_rpow_matches_repeated_products(d):
    for a in d.elements():
        power = d.rone
        for n in range(d.size + 2):
            assert d.rpow(a, n) == power, (a, n)
            power = d.rmul(power, a)


def test_coerce_rejects_what_it_cannot_read():
    for d, bad in ((make_domain(5), 1.5), (make_domain(2, 2), (1, 0, 1)),
                   (make_domain(2, 2), 4), (make_domain(2, 2), "1"),
                   (make_domain(2, 2), (1.5, 0.9)),
                   (make_domain(3, 2), ("2", "1"))):
        with pytest.raises(DomainError):
            d.coerce(bad)
    assert make_domain(2, 3, "modular").coerce(-1) == 7
    for d in (make_domain(5), make_domain(2, 2), make_domain(2, 3, "modular")):
        assert d.coerce(True) == 1 and type(d.coerce(True)) is int


def test_extension_field_coerce_takes_ints_and_vectors():
    """An int below q is its own raw, and its coefficient vector gives the
    same raw; over GF(9) = GF(3)[z]/(z^2 + 1), z = 3 and z * z = -1 = 2."""
    d = make_domain(3, 2, "field")
    for v in range(9):
        assert d.coerce(v) == v
        assert d.coerce((v % 3, v // 3)) == v
        assert type(d.coerce([v % 3 + 3, v // 3])) is int
    z = d.coerce((0, 1))
    assert z == 3
    assert d.rmul(z, z) == 2


def test_residue_kernels_reject_bad_shapes():
    """Kernel source is formatted from checked integers only."""
    for n, m in ((0, 2), (2, 0), ("2", 2), (2, 1.5)):
        with pytest.raises(DomainError):
            residue_matmul(n, m, True)
        with pytest.raises(DomainError):
            residue_matadd(n, m)
        with pytest.raises(DomainError):
            residue_matscale(n, m)
