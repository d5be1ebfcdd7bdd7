"""Small-scope agreement at tier-1 size (see tests/small_scope.py, which
also runs the full campaign).

Groups: every word of length <= 4 over <= 2 variables, up to renaming (15
words), on every target of UT(3,F2), order-54, sparse-18, the GF(4) group
and UT(4,F2), and every pair of those words over the same variables: 2,340
equations and 305 equivalence pairs.  Rings: over M(2,Z4), one monomial of
<= 3 letters or two of <= 2 letters (93 expressions, 2,976 equations); over
M(3,Z2), one or two monomials of <= 3 letters (56 expressions, 448
equations).  Pinning a variable that fewer than 2 live monomials read, in
solver._solve_pruned, gives 737 wrong group verdicts and 1,005 wrong ring
verdicts here.
"""

import pytest

from eqsolve import rings

from small_scope import (GROUP_NAMES, check_group, check_ring, family_groups,
                         ring_terms, words)


@pytest.mark.parametrize("group", family_groups(), ids=GROUP_NAMES)
def test_group_verdicts_match_the_table(group):
    verdicts, mismatches = check_group(group, words(4, 2), 2)
    assert len(verdicts) == {8: 181, 54: 871, 18: 331, 12: 241,
                             64: 1021}[group.order]
    assert mismatches == []


@pytest.mark.parametrize("args, sum_length, questions",
                         [((2, 2, 2), 2, 2976), ((2, 1, 3), 3, 448)],
                         ids=["M(2,Z4)", "M(3,Z2)"])
def test_ring_verdicts_match_the_table(args, sum_length, questions):
    ring = rings.make_ring(*args)
    verdicts, mismatches = check_ring(ring, ring_terms(ring, 3, sum_length))
    assert len(verdicts) == questions
    assert mismatches == []
