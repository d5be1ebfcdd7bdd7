"""Canonical problem-file text for a parsed problem, kept apart from
eqsolve.problemfile: only the round-trip tests render a problem back to
text.  Words and ring expressions are rendered from their resolved values,
a constant by its name in the problem's constants (or I / 0).
"""

from __future__ import annotations

import json

from eqsolve.groups import GroupElement
from eqsolve.problemfile import ProblemFile
from eqsolve.rings import RConst, RNeg, RProd, RScale, RSum, RVar


def _flat(element) -> str:
    """Row-major entries, each its raw value."""
    return json.dumps([v for row in element.rows for v in row],
                      separators=(",", ","))


def _constant(pf: ProblemFile, value) -> str:
    """A constant's name, the builtin I or 0, or a ring matrix inline."""
    for name in sorted(pf.constants):
        if pf.constants[name] == value:
            return name
    if pf.kind == "group":
        assert value == pf.group.identity(), value
        return "I"
    return "0" if value == pf.ring.zero() else _flat(value)


def _word(pf: ProblemFile, word) -> str:
    return " ".join(letter if isinstance(letter, str)
                    else _constant(pf, letter) for letter in word)


def _ring_term(pf: ProblemFile, term) -> str:
    """coeff*letter*letter..., the inverse of one term of the parser."""
    if isinstance(term, RScale):
        return "%d*%s" % (term.coeff, _ring_term(pf, term.part))
    if isinstance(term, RProd):
        return "*".join(_ring_term(pf, part) for part in term.parts)
    if isinstance(term, RVar):
        return term.name
    assert isinstance(term, RConst), term
    return _constant(pf, term.value)


def _ring_expr(pf: ProblemFile, expr) -> str:
    terms = expr.parts if isinstance(expr, RSum) else (expr,)
    out = []
    for n, term in enumerate(terms):
        if isinstance(term, RNeg):
            out += ["-", _ring_term(pf, term.part)]
        else:
            out += ["+"] * (n > 0) + [_ring_term(pf, term)]
    return " ".join(out)


def render_problem(pf: ProblemFile) -> str:
    """Canonical text for a parsed problem; parse(render(p)) == p."""
    lines = []
    if pf.kind == "group":
        g = pf.group
        lines += ["[group]",
                  "q = %d" % g.domain.size,
                  "m = %d" % g.m,
                  "pattern = %s" % json.dumps([list(pos) for pos in g.pattern],
                                              separators=(",", ",")),
                  "orders = %s" % json.dumps(list(g.orders),
                                             separators=(",", ","))]
    else:
        r = pf.ring
        lines += ["[ring]",
                  "p = %d" % r.p,
                  "alpha = %d" % r.alpha,
                  "m = %d" % r.m]
        if pf.ideal_generators:
            gens = [[v for row in g.rows for v in row]
                    for g in pf.ideal_generators]
            lines.append("ideal = %s" % json.dumps(gens, separators=(",", ",")))
    if pf.constants:
        lines.append("")
        lines.append("[constants]")
        for name in sorted(pf.constants):
            lines.append("%s = %s" % (name, _flat(pf.constants[name])))
    lines.append("")
    lines.append("[equation]")
    if pf.variables:
        lines.append("vars = %s" % " ".join(pf.variables))
    if pf.kind == "group":
        lines.append("lhs = %s" % _word(pf, pf.lhs))
        rhs = (_constant(pf, pf.rhs) if isinstance(pf.rhs, GroupElement)
               else _word(pf, pf.rhs))
    else:
        lines.append("lhs = %s" % _ring_expr(pf, pf.lhs))
        rhs = _constant(pf, pf.rhs)
    lines.append("rhs = %s" % rhs)
    return "\n".join(lines) + "\n"
