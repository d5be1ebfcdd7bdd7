"""One SHA-256 per benchmark workload and seed over every decision it makes.

Run from the repository root as

    PYTHONPATH=src python tests/corpus_digest.py

For group-corpus and ring-corpus seeds 1-3 it builds the instances through
perfbench/workloads.py (imported, not changed) and hashes, question by
question in workload order: each decision's verdict, witness, explored and
prunes counts and ideal element, each brute-force oracle's verdict, witness
and explored count, and each equivalence pair's separating substitution
and oracle separator.  A change that should move no verdict, witness or
counter prints the same six digests as its parent.
"""

from __future__ import annotations

import hashlib
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "perfbench"))

import workloads  # noqa: E402
from workloads import groups, reduction, rings  # noqa: E402

SEEDS = (1, 2, 3)


def _plain(value):
    """value with elements as their rows and dicts as sorted pairs."""
    if isinstance(value, dict):
        return sorted((k, _plain(v)) for k, v in value.items())
    if isinstance(value, (tuple, list)):
        return tuple(map(_plain, value))
    return getattr(value, "rows", value)


def _decision(d):
    return (d.sat, _plain(d.witness), d.stats.explored, d.stats.prunes,
            _plain(d.ideal_element))


def _oracle(d):
    return (d.sat, _plain(d.witness), d.stats.explored)


def _outcome(inst):
    """What eqsolve answers to one instance, as plain data."""
    if inst.kind == "group_eq":
        group, lhs, rhs = inst.args
        out = (_decision(reduction.decide_equation(group, lhs, rhs,
                                                   guard=inst.guard)),)
        if inst.oracle:
            out += (_oracle(groups.brute_force_solve(group, lhs, rhs,
                                                     guard=inst.guard)),)
        return out
    if inst.kind == "group_equiv":
        group, f, g = inst.args
        agree, separator = groups.words_agree_everywhere(group, f, g)
        return (_plain(reduction.separating_substitution(group, f, g)),
                agree, _plain(separator))
    if inst.kind == "ring_eq":
        ring, expr, rhs = inst.args
        out = (_decision(rings.decide_ring_equation(ring, expr, rhs)),)
        if inst.oracle:
            out += (_oracle(rings.brute_force_ring_solve(ring, expr, rhs)),)
        return out
    if inst.kind == "factor":
        ring, generators, _, expr = inst.args
        ideal = rings.enumerate_ideal(ring, generators)
        return (_decision(rings.decide_factor_ring(ring, ideal, expr)),
                _oracle(rings.brute_force_ring_solve(ring, expr,
                                                     ideal=ideal)))
    raise ValueError("unknown instance kind %r" % inst.kind)


def digest(name: str, seed: int) -> str:
    h = hashlib.sha256()
    for inst in workloads.setup(name, seed):
        h.update(repr((inst.label, _outcome(inst))).encode())
    return h.hexdigest()


def main():
    for name in ("group-corpus", "ring-corpus"):
        for seed in SEEDS:
            print(name, seed, digest(name, seed))


if __name__ == "__main__":
    main()
