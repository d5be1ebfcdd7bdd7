"""Every decision and oracle result on a fixed seeded corpus, against a
golden recorded from the code.

The questions come from conftest's generators with fixed seeds: equations
and equivalence pairs over the group family and a GF(4) group, equations
over M(2,Z2), M(2,Z4) and M(3,Z3), and factor-ring questions by the ideals
of [[0,2],[0,0]] in M(2,Z4) and E12 in M(3,Z3).  Each records the verdict,
witness, explored and prunes of the decision (and the ideal element of a
factor question), the oracle's verdict, witness and explored, and for an
equivalence pair the separating substitution and the oracle's separator.
A change to the reduction, the solver or the oracles that moves any of
them fails here; `PYTHONPATH=src python tests/test_decision_golden.py`
rewrites the golden from the current code.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

from eqsolve import (GroupElement, RNeg, RSum, brute_force_ring_solve,
                     brute_force_solve, decide_equation, decide_factor_ring,
                     decide_ring_equation, enumerate_ideal,
                     full_pattern, make_domain, make_group, make_ring,
                     separating_substitution, unitriangular_group,
                     words_agree_everywhere)
from conftest import (golden_diff, random_group_element, random_ring_element,
                      random_ring_expr, random_word)

GOLDEN = Path(__file__).resolve().parent / "data" / "decision_golden.json"


def _groups():
    f2, f3 = make_domain(2), make_domain(3)
    return (("ut3f2", unitriangular_group(f2, 3)),
            ("ut4f2", unitriangular_group(f2, 4)),
            ("order54", make_group(f3, 3, full_pattern(3), (1, 2, 1))),
            ("sparse18", make_group(f3, 3, ((1, 2), (1, 3)), (2, 1, 1))),
            ("gf4", make_group(make_domain(2, 2), 3, ((1, 2), (1, 3)),
                               (3, 3, 1))))


def _value(value):
    """A group or ring element as its encoded rows."""
    if isinstance(value, GroupElement):
        encode = value.group.domain.encode
        return [[encode(v) for v in row] for row in value.rows]
    return [list(row) for row in value.rows]


def _assignment(witness):
    if witness is None:
        return None
    return {name: _value(v) for name, v in sorted(witness.items())}


def _decision(d):
    record = {"sat": d.sat, "witness": _assignment(d.witness),
              "explored": d.stats.explored, "prunes": d.stats.prunes}
    if d.ideal_element is not None:
        record["ideal_element"] = _value(d.ideal_element)
    return record


def _oracle(o):
    return {"sat": o.sat, "witness": _assignment(o.witness),
            "explored": o.stats.explored}


def record_decisions():
    """{question label: {"decide": ..., "oracle": ...}} or, for an
    equivalence pair, {"separator": ..., "oracle": [agree, separator]}."""
    out = {}
    rng = random.Random(2501)
    for name, group in _groups():
        for trial in range(60):
            lhs = random_word(rng, group, max_len=7)
            rhs = (random_word(rng, group, max_len=4) if trial % 5 == 4
                   else random_group_element(rng, group))
            out["%s-eq%d" % (name, trial)] = {
                "decide": _decision(decide_equation(group, lhs, rhs)),
                "oracle": _oracle(brute_force_solve(group, lhs, rhs))}
        for trial in range(15):
            f = random_word(rng, group, max_len=5, max_vars=2)
            g = random_word(rng, group, max_len=5, max_vars=2)
            agree, separator = words_agree_everywhere(group, f, g)
            out["%s-pair%d" % (name, trial)] = {
                "separator": _assignment(separating_substitution(group, f, g)),
                "oracle": [agree, _assignment(separator)]}
    rng = random.Random(2502)
    for ring in (make_ring(2, 1, 2), make_ring(2, 2, 2), make_ring(3, 1, 3)):
        for trial in range(60):
            expr = random_ring_expr(rng, ring)
            rhs = random_ring_element(rng, ring)
            out["%r-eq%d" % (ring, trial)] = {
                "decide": _decision(decide_ring_equation(ring, expr, rhs)),
                "oracle": _oracle(brute_force_ring_solve(ring, expr, rhs))}
    m2z4, m3z3 = make_ring(2, 2, 2), make_ring(3, 1, 3)
    rng = random.Random(2503)
    for ring, generator in ((m2z4, [[0, 2], [0, 0]]),
                            (m3z3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])):
        ideal = enumerate_ideal(ring, (ring.element(generator),))
        for trial in range(30):
            expr = RSum((random_ring_expr(rng, ring),
                         RNeg(random_ring_element(rng, ring))))
            out["%r-factor%d" % (ring, trial)] = {
                "decide": _decision(decide_factor_ring(ring, ideal, expr)),
                "oracle": _oracle(brute_force_ring_solve(ring, expr,
                                                         ideal=ideal))}
    return out


def test_decisions_golden():
    got, want = record_decisions(), json.loads(GOLDEN.read_text())
    assert got == want, golden_diff(got, want)


def test_golden_diff_names_the_moved_fields():
    want = {"q": {"decide": {"explored": 3, "sat": True,
                             "witness": {"u": [[1]], "v": [[0]]}}},
            "same": {"sat": False}, "gone": {}}
    got = {"q": {"decide": {"explored": 4, "sat": True,
                            "witness": {"u": [[2]], "v": [[0]]}}},
           "same": {"sat": False}, "new": {}}
    assert golden_diff(got, want) == (
        "changed [q: decide.explored, decide.witness.u]; missing ['gone']; "
        "extra ['new']")


if __name__ == "__main__":
    # one question per line
    GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(
        "%s: %s" % (json.dumps(label), json.dumps(record, sort_keys=True))
        for label, record in sorted(record_decisions().items())))
