"""Shared fixtures: the standing family of test groups and rings, plus
seeded random generators for words, expressions, and assignments, and the
failure message of a golden comparison."""

from __future__ import annotations

import random

import pytest

from eqsolve import (RConst, RProd, RScale, RSum, RVar, element_list,
                     full_pattern, make_domain, make_group, make_ring,
                     ring_elements, unitriangular_group)


@pytest.fixture(scope="session")
def f2():
    return make_domain(2)


@pytest.fixture(scope="session")
def f3():
    return make_domain(3)


@pytest.fixture(scope="session")
def ut3_f2(f2):
    """Unitriangular 3x3 over GF(2); order 8."""
    return unitriangular_group(f2, 3)


@pytest.fixture(scope="session")
def ut4_f2(f2):
    """Unitriangular 4x4 over GF(2); order 64."""
    return unitriangular_group(f2, 4)


@pytest.fixture(scope="session")
def order54(f3):
    """Full pattern over GF(3) with middle diagonal entry of order 2."""
    return make_group(f3, 3, full_pattern(3), (1, 2, 1))


@pytest.fixture(scope="session")
def sparse18(f3):
    """Sparse pattern {(1,2),(1,3)} over GF(3), first diagonal entry order 2."""
    return make_group(f3, 3, ((1, 2), (1, 3)), (2, 1, 1))


@pytest.fixture(scope="session")
def group_family(ut3_f2, ut4_f2, order54, sparse18):
    return (ut3_f2, ut4_f2, order54, sparse18)


@pytest.fixture(scope="session")
def ring_m2z2():
    return make_ring(2, 1, 2)


@pytest.fixture(scope="session")
def ring_m2z4():
    return make_ring(2, 2, 2)


@pytest.fixture(scope="session")
def ring_m3z3():
    return make_ring(3, 1, 3)


# -- generators ----------------------------------------------------------------

def random_word(rng: random.Random, group, max_len=8, max_vars=3,
                const_prob=0.3, min_len=1):
    """Random word mixing variable letters v1.. and constant elements."""
    n = rng.randint(min_len, max_len)
    nvars = rng.randint(1, max_vars)
    names = ["v%d" % (i + 1) for i in range(nvars)]
    elems = element_list(group)
    word = []
    for _ in range(n):
        if rng.random() < const_prob:
            word.append(rng.choice(elems))
        else:
            word.append(rng.choice(names))
    return tuple(word)


def random_group_element(rng: random.Random, group):
    return rng.choice(element_list(group))


def random_assignment(rng: random.Random, group, word):
    from eqsolve import word_variables
    return {name: random_group_element(rng, group)
            for name in word_variables(word)}


def random_ring_expr(rng: random.Random, ring, max_monomials=3, max_vars=2,
                     max_letters=4, const_prob=0.25):
    """Random sum of monomials as an expression tree."""
    names = ["u", "v"][:max_vars]
    elems = ring_elements(ring)
    terms = []
    for _ in range(rng.randint(1, max_monomials)):
        letters = []
        for _ in range(rng.randint(1, max_letters)):
            if rng.random() < const_prob:
                letters.append(RConst(rng.choice(elems)))
            else:
                letters.append(RVar(rng.choice(names)))
        term = letters[0] if len(letters) == 1 else RProd(tuple(letters))
        if rng.random() < 0.3:
            term = RScale(rng.randint(2, ring.modulus - 1), term) \
                if ring.modulus > 2 else term
        terms.append(term)
    return terms[0] if len(terms) == 1 else RSum(tuple(terms))


def random_ring_element(rng: random.Random, ring):
    return rng.choice(ring_elements(ring))


def golden_diff(got: dict, want: dict) -> str:
    """Which labels of a {label: record} golden changed, went missing or
    are extra."""
    changed = sorted(k for k in got.keys() & want.keys() if got[k] != want[k])
    return "changed %s; missing %s; extra %s" % (
        changed, sorted(want.keys() - got.keys()),
        sorted(got.keys() - want.keys()))
