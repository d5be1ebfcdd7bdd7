"""Canonical problem-file text for a parsed problem, kept apart from
eqsolve.problemfile: only the round-trip tests render a problem back to
text.
"""

from __future__ import annotations

import json

from eqsolve.problemfile import ProblemFile


def _flat(element) -> str:
    return json.dumps([v for row in element.rows for v in row],
                      separators=(",", ","))


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
    lines.append("lhs = %s" % " ".join(pf.lhs_tokens))
    lines.append("rhs = %s" % " ".join(pf.rhs_tokens))
    return "\n".join(lines) + "\n"
