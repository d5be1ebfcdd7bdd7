"""Command-line front end: decide, equiv, oracle and dump-system.

Exit codes are the machine contract: 0 = SAT / equivalent, 1 = UNSAT / not
equivalent, 2 = error (parse, validation, guard), 3 = oracle disagreement.
"""

from __future__ import annotations

import argparse
import sys
from functools import lru_cache

from .groups import brute_force_solve, evaluate_word
from .problemfile import ParseError, ProblemFile, parse_problem_file
from .reduction import build_system, decide_equation, separating_substitution
from .rings import (RNeg, RSum, brute_force_ring_solve, build_ring_system,
                    decide_factor_ring, decide_ring_equation, enumerate_ideal)
from .solver import DEFAULT_GUARD, GuardExceeded, PolySystem

_ERRORS = (ValueError, GuardExceeded, OSError)


def _term_key(term):
    """Canonical term order: more factors first, then the factor tuple."""
    return -len(term[0]), term[0]


def _render_poly(poly) -> str:
    """A polynomial's terms in the canonical order, each its coefficient
    (left out if 1 and followed by a factor) and its factors."""
    parts = []
    for factors, coeff in sorted(poly.items(), key=_term_key):
        head = () if coeff == 1 and factors else (str(coeff),)
        parts.append("*".join(head + factors))
    return " + ".join(parts) or "0"


def render_system(system: PolySystem) -> str:
    """Stable text dump of a system and its domain table: the one term sort."""
    dom = system.domain
    lines = ["# system over %r: %d constraints, %d variables"
             % (dom, len(system.constraints), len(system.domains))]
    lines += ["constraint %s = %d" % (_render_poly(c.poly), c.target)
              for c in system.constraints]
    for v in sorted(system.domains):
        values = system.domains[v]
        if values == dom.elements():
            lines.append("domain %s = %r" % (v, dom))
        else:
            lines.append("domain %s = {%s}" % (
                v, ", ".join(map(str, values))))
    return "\n".join(lines) + "\n"


def _print_witness(witness):
    for name in sorted(witness):
        print("  %s = %r" % (name, witness[name]))


def _ring_question(pf: ProblemFile):
    """(expr, rhs) of a ring problem; over a factor ring, lhs - rhs = 0."""
    if pf.ideal_generators:
        return RSum((pf.lhs, RNeg(pf.rhs))), pf.ring.zero()
    return pf.lhs, pf.rhs


def _problem_system(pf: ProblemFile):
    if pf.kind == "group":
        return build_system(pf.group, pf.lhs, pf.rhs).system
    return build_ring_system(pf.ring, *_ring_question(pf)).system


def cmd_decide(args) -> int:
    pf = parse_problem_file(args.path)
    if args.dump_system:
        with open(args.dump_system, "w", encoding="utf-8") as handle:
            handle.write(render_system(_problem_system(pf)))
    ideal = _problem_ideal(pf)
    if pf.kind == "group":
        decision = decide_equation(pf.group, pf.lhs, pf.rhs, guard=args.guard)
    elif ideal is not None:
        decision = decide_factor_ring(pf.ring, ideal, _ring_question(pf)[0],
                                      guard=args.guard)
    else:
        decision = decide_ring_equation(pf.ring, *_ring_question(pf),
                                        guard=args.guard)
    print("SAT" if decision.sat else "UNSAT")
    if decision.sat and decision.witness is not None:
        _print_witness(decision.witness)
        if decision.ideal_element is not None:
            print("  (ideal element %r)" % decision.ideal_element)
    print("explored %d assignments, %d prunes"
          % (decision.stats.explored, decision.stats.prunes))
    if args.oracle:
        oracle = _run_oracle(pf, args.guard, ideal)
        if oracle.sat != decision.sat:
            print("ORACLE DISAGREES: oracle says %s"
                  % ("SAT" if oracle.sat else "UNSAT"))
            return 3
        print("oracle agrees (%s)" % ("SAT" if oracle.sat else "UNSAT"))
    return 0 if decision.sat else 1


def _problem_ideal(pf: ProblemFile):
    """The ideal of a factor-ring problem; None for any other problem."""
    if not pf.ideal_generators:
        return None
    return enumerate_ideal(pf.ring, pf.ideal_generators)


def _run_oracle(pf: ProblemFile, guard, ideal):
    if pf.kind == "group":
        return brute_force_solve(pf.group, pf.lhs, pf.rhs, guard=guard)
    return brute_force_ring_solve(pf.ring, pf.lhs, pf.rhs, ideal=ideal,
                                  guard=guard)


def cmd_oracle(args) -> int:
    pf = parse_problem_file(args.path)
    decision = _run_oracle(pf, args.guard, _problem_ideal(pf))
    print("SAT" if decision.sat else "UNSAT")
    if decision.sat and decision.witness:
        _print_witness(decision.witness)
    return 0 if decision.sat else 1


def cmd_equiv(args) -> int:
    pf = parse_problem_file(args.path)
    if pf.kind != "group":
        raise ParseError("equiv expects a [group] problem with two words")
    rhs = pf.rhs
    if not isinstance(rhs, tuple):
        rhs = (rhs,)
    witness = separating_substitution(pf.group, pf.lhs, rhs)
    if witness is None:
        print("EQUIVALENT")
        return 0
    print("NOT EQUIVALENT")
    _print_witness(witness)
    print("  lhs value = %r" % evaluate_word(pf.group, pf.lhs, witness))
    print("  rhs value = %r" % evaluate_word(pf.group, rhs, witness))
    return 1


def cmd_dump_system(args) -> int:
    pf = parse_problem_file(args.path)
    text = render_system(_problem_system(pf))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _guard(text) -> int:
    """A --guard value: an int of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError("invalid int value: %r" % text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1, got %d" % value)
    return value


@lru_cache(maxsize=1)
def _build_parser():
    """The argument parser, built once per process: parse_args leaves it
    unchanged, so every main() call parses as a fresh process would."""
    parser = argparse.ArgumentParser(
        prog="eqsolve",
        description="Decide equation solvability over semipattern matrix "
                    "groups and nilpotent matrix rings.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide solvability of a problem file")
    p.add_argument("path")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against the brute-force oracle")
    p.add_argument("--dump-system", metavar="PATH",
                   help="write the formal polynomial system, as dump-system "
                        "prints it, to PATH")
    p.add_argument("--guard", type=_guard, default=DEFAULT_GUARD,
                   help="max search-space size (default %d)" % DEFAULT_GUARD)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("equiv", help="decide whether lhs and rhs agree "
                                     "under every substitution (by normal "
                                     "form: no search, no guard)")
    p.add_argument("path")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("oracle", help="run only the brute-force oracle")
    p.add_argument("path")
    p.add_argument("--guard", type=_guard, default=DEFAULT_GUARD)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-system",
                       help="print the paper's formal reduction: every "
                            "diagonal slot is a variable (decide and equiv "
                            "apply y^d = 1 to a slot of row order d)")
    p.add_argument("path")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_dump_system)

    return parser


def _innermost_layer(exc) -> str:
    """module.function of the deepest eqsolve frame in exc's traceback."""
    layer = "eqsolve"
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.startswith("eqsolve."):
            layer = "%s.%s" % (module[len("eqsolve."):],
                               tb.tb_frame.f_code.co_name)
        tb = tb.tb_next
    return layer


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except RecursionError as exc:
        # ringexpr.fold_expr recurses once per nesting level of an expression
        print("error: recursion limit %d exceeded in %s"
              % (sys.getrecursionlimit(), _innermost_layer(exc)),
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
