"""Counts and per-monomial grids of the reductions' entry polynomials,
kept apart from eqsolve.

entry_monomial_count() is the binomial law for an entry of an all-variable
group word; monomial_entry_polys() rewrites one ring monomial on its own,
which the ring tests compare with a per-addition fold; as_expr() rebuilds
an expression from sigma_expand's monomials.
"""

from __future__ import annotations

import math

from eqsolve.rings import (RConst, RingElement, RProd, RScale, RSum, RVar,
                           entrywise_rewrite)


def entry_monomial_count(n: int, i: int, j: int) -> int:
    """Products contributing to entry (i, j) of an n-letter all-variable word."""
    if not 1 <= i < j:
        raise ValueError("need 1 <= i < j")
    return math.comb(n + j - i - 1, j - i)


def monomial_entry_polys(ring, mono, names) -> tuple:
    """Entry polynomials of one monomial's matrix product: the rewrite of
    the sum whose only monomial it is."""
    return entrywise_rewrite((mono,), ring, names)


def as_expr(monomials):
    """The sum of coeff * (product of letters) over (coeff, letters) pairs,
    as sigma_expand returns them, as an expression tree; a name letter is a
    variable and an element a constant."""
    return RSum(tuple(
        RScale(coeff, RProd(tuple(RConst(letter)
                                  if isinstance(letter, RingElement)
                                  else RVar(letter) for letter in letters)))
        for coeff, letters in monomials))
