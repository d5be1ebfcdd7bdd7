"""Small-scope agreement: every small question, decided by the reduction and
read off one table pass per structure.

Run the campaign from the repository root as

    PYTHONPATH=src python tests/small_scope.py

Groups: UT(3,F2), order-54, sparse-18, the 12-element GF(4) group and
UT(4,F2).  Each word up to renaming (a restricted-growth string: x1, x2, ...
appear in order of first occurrence) is evaluated at every assignment of
its variables in one pass through groups._cayley's table.  That gives its
image, the targets t for which w = t is SAT, and its value table: two words
over the same variables are equivalent iff their tables are equal.
decide_equation runs on every target and decide_equivalence on every pair.

Rings: expressions of one or two monomials, each monomial 1-3 letters over
x and y up to renaming, with coefficients 1, p and -1 (distinct nonzero
residues only).  One pass through rings._ring_tables gives each image, and
decide_ring_equation runs on every target.  Over a factor ring M/I the
question F - t = 0 is SAT iff some value of F lies in t + I, and
decide_factor_ring runs on one target per coset.

Only verdicts are compared: the oracle's witness order is not the solver's.
tests/test_small_scope.py runs the tier-1 scope; the campaign (main) takes
words of length <= 5 over <= 3 variables, words of length <= 4 that also
hold constant letters (the group's elements at canonical indices 1, n // 2
and n - 1), M(2,Z9) besides M(2,Z4) and M(3,Z2), and ring-corpus's two
factor rings.  It prints the questions and mismatches per structure and
one SHA-256 over every verdict in order.
"""

from __future__ import annotations

import hashlib
import itertools
from operator import getitem

from eqsolve import groups, rings
from eqsolve.domains import make_domain
from eqsolve.reduction import decide_equation, decide_equivalence


GROUP_NAMES = ("UT(3,F2)", "order-54", "sparse-18", "GF(4)-12", "UT(4,F2)")


def family_groups():
    """The groups GROUP_NAMES names; GF(4)-12 is problems/gf4_square.prob's."""
    f2, f3 = make_domain(2), make_domain(3)
    return (groups.unitriangular_group(f2, 3),
            groups.make_group(f3, 3, groups.full_pattern(3), (1, 2, 1)),
            groups.make_group(f3, 3, ((1, 2), (1, 3)), (2, 1, 1)),
            groups.make_group(make_domain(2, 2), 2, groups.full_pattern(2),
                              (3, 1)),
            groups.unitriangular_group(f2, 4))


def words(length, nvars, constants=()):
    """Every word of 1..length letters up to renaming of its at most nvars
    variables x1, x2, ...; any letter may also be one of the constants."""
    out = []

    def grow(word, used):
        if word:
            out.append(word)
        if len(word) < length:
            for k in range(min(used + 1, nvars)):
                grow(word + ("x%d" % (k + 1),), max(used, k + 1))
            for c in constants:
                grow(word + (c,), used)

    grow((), 0)
    return out


def _lanes(n, names):
    """name -> its value, an index below n, at every assignment of names in
    canonical order, as bytes of length n ** len(names)."""
    v = len(names)
    return {name: bytes(e for e in range(n) for _ in range(n ** (v - 1 - k)))
            * n ** k for k, name in enumerate(names)}


def _times(rows, a, b):
    """Entrywise product of two value tables under a padded table."""
    return bytes(map(getitem, map(rows.__getitem__, a), b))


def word_tables(group, word_list, nvars):
    """{word: value table} over every assignment of x1..x<nvars>, each word
    one product of its prefix's table."""
    elems, index, (rows, _), _ = groups._cayley(group)
    leaves = _lanes(len(elems), ["x%d" % (k + 1) for k in range(nvars)])
    space = len(elems) ** nvars
    tables = {}

    def table(word):
        if word not in tables:
            last = word[-1]
            leaf = (leaves[last] if isinstance(last, str)
                    else bytes((index[last],)) * space)
            tables[word] = (_times(rows, table(word[:-1]), leaf)
                            if len(word) > 1 else leaf)
        return tables[word]

    return {word: table(word) for word in word_list}


def check_group(group, word_list, nvars, pairs=True):
    """(verdicts, mismatches) of decide_equation on every word and target,
    then, with pairs, of decide_equivalence on every two words over the
    same variables."""
    tables = word_tables(group, word_list, nvars)
    verdicts, mismatches = [], []
    for word in word_list:
        image = set(tables[word])
        for t, target in enumerate(groups.element_list(group)):
            sat = decide_equation(group, word, target).sat
            verdicts.append(sat)
            if sat != (t in image):
                mismatches.append((group, word, target))
    if pairs:
        by_names = {}
        for word in word_list:
            by_names.setdefault(groups.word_variables(word), []).append(word)
        for same in by_names.values():
            for f, g in itertools.combinations(same, 2):
                equal = decide_equivalence(group, f, g)
                verdicts.append(equal)
                if equal != (tables[f] == tables[g]):
                    mismatches.append((group, f, g))
    return verdicts, mismatches


def ring_terms(ring, length, sum_length):
    """Every expression of one monomial of 1..length letters or two of
    1..sum_length letters over x and y, up to renaming, as a tuple of
    (coeff, letters) pairs: each coeff one of 1, p and -1 that is a
    distinct nonzero residue."""
    coeffs = {}
    for c in (1, ring.p, -1):
        if c % ring.modulus:
            coeffs.setdefault(c % ring.modulus, c)
    terms = [(c, letters) for k in range(1, length + 1)
             for letters in itertools.product("xy", repeat=k)
             for c in coeffs.values()]
    sums = [(t,) for t in terms] + [
        (s, t) for s, t in itertools.combinations(terms, 2)
        if s[1] != t[1] and len(t[1]) <= sum_length]

    def key(terms, rename=str):
        return sorted((len(letters), tuple(map(rename, letters)), c)
                      for c, letters in terms)

    # one expression of each pair that renaming x <-> y swaps
    return [e for e in sums if key(e) <= key(e, {"x": "y", "y": "x"}.get)]


def ring_expr(terms):
    parts = tuple(rings.RScale(c, rings.RProd(tuple(map(rings.RVar, l))))
                  for c, l in terms)
    return parts[0] if len(parts) == 1 else rings.RSum(parts)


def ring_tables(ring, expressions):
    """{terms: value table} over every assignment of x and y, through the
    ring's +, * and scale tables."""
    _, (plus, _), (times, _) = rings._ring_tables(ring)
    leaves = _lanes(ring.order, "xy")
    products, tables = {}, {}

    def product(letters):
        if letters not in products:
            last = leaves[letters[-1]]
            products[letters] = (_times(times, product(letters[:-1]), last)
                                 if len(letters) > 1 else last)
        return products[letters]

    for terms in expressions:
        values = [product(letters).translate(rings._scale_table(ring, c))
                  for c, letters in terms]
        tables[terms] = (values[0] if len(values) == 1
                         else _times(plus, *values))
    return tables


def check_ring(ring, expressions, ideal=None):
    """(verdicts, mismatches) of decide_ring_equation on every expression
    and target, or with an ideal, of decide_factor_ring on F - t for one
    target t per coset."""
    index = rings._ring_tables(ring)[0]
    tables = ring_tables(ring, expressions)
    targets = (rings.ring_elements(ring) if ideal is None
               else ideal.transversal)
    verdicts, mismatches = [], []
    for terms in expressions:
        image, expr = set(tables[terms]), ring_expr(terms)
        for t in targets:
            if ideal is None:
                sat = rings.decide_ring_equation(ring, expr, t).sat
                expected = index[t.rows] in image
            else:
                sat = rings.decide_factor_ring(ring, ideal, rings.RSum(
                    (expr, rings.RNeg(rings.RConst(t))))).sat
                expected = any(index[(t + i).rows] in image
                               for i in ideal.elements)
            verdicts.append(sat)
            if sat != expected:
                mismatches.append((ring, terms, t))
    return verdicts, mismatches


def _campaign():
    """(name, verdicts, mismatches) per structure of the full scope."""
    for name, group in zip(GROUP_NAMES, family_groups()):
        elems = groups.element_list(group)
        n = len(elems)
        yield name, *check_group(group, words(5, 3), 3)
        with_constants = [w for w in words(4, 3, [elems[k] for k in
                                                  (1, n // 2, n - 1)])
                          if not all(isinstance(x, str) for x in w)]
        yield name + " with constants", *check_group(
            group, with_constants, 3, pairs=False)
    for p, alpha, m in ((2, 2, 2), (2, 1, 3), (3, 2, 2)):
        ring = rings.make_ring(p, alpha, m)
        yield "%r" % ring, *check_ring(ring, ring_terms(ring, 3, 3))
    m2z4, m3z3 = rings.make_ring(2, 2, 2), rings.make_ring(3, 1, 3)
    for ring, generator in ((m2z4, [[0, 2], [0, 0]]),
                            (m3z3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])):
        ideal = rings.enumerate_ideal(ring, (ring.element(generator),))
        yield "%r / %r" % (ring, generator), *check_ring(
            ring, ring_terms(ring, 3, 3), ideal)


def main():
    digest = hashlib.sha256()
    questions = wrong = 0
    for name, verdicts, mismatches in _campaign():
        print("%-50s %7d questions %5d mismatches"
              % (name, len(verdicts), len(mismatches)))
        for mismatch in mismatches[:3]:
            print("    mismatch:", mismatch)
        digest.update(repr((name, verdicts)).encode())
        questions += len(verdicts)
        wrong += len(mismatches)
    print("total %d questions, %d mismatches" % (questions, wrong))
    print("verdicts sha256", digest.hexdigest())
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
