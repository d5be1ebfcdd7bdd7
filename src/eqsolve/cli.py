"""Command-line front end: decide, equiv, oracle, dump-system, and bench.

Exit codes are the machine contract: 0 = SAT / equivalent, 1 = UNSAT / not
equivalent, 2 = error (parse, validation, guard), 3 = oracle disagreement.
"""

from __future__ import annotations

import argparse
import csv
import random
import sys
import time

from .domains import DomainError
from .groups import (GroupError, brute_force_solve, evaluate_word,
                     word_variables)
from .poly import PolyError
from .problemfile import (ParseError, ProblemFile, parse_bench_config,
                          parse_problem_file)
from .reduction import build_system, decide_equation, separating_substitution
from .rings import (RNeg, RingError, RSum, brute_force_ring_solve,
                    build_ring_system, decide_factor_ring,
                    decide_ring_equation, enumerate_ideal)
from .solver import DEFAULT_GUARD, GuardExceeded, PolySystem, SolverError

_ERRORS = (ParseError, GuardExceeded, DomainError, GroupError, RingError,
           PolyError, SolverError, OSError, ValueError)


def render_system(system: PolySystem) -> str:
    """Stable text dump of a polynomial system plus its domain table."""
    lines = ["# system over %r: %d constraints, %d variables"
             % (system.domain, len(system.constraints), len(system.domains))]
    for c in system.constraints:
        lines.append("constraint %r = %r" % (c.poly, c.target))
    full = tuple(system.domain.elements())
    for v in sorted(system.domains, key=lambda v: v.name):
        values = system.domains[v]
        if tuple(values) == full:
            lines.append("domain %s = %r" % (v.name, system.domain))
        else:
            lines.append("domain %s = {%s}"
                         % (v.name, ", ".join(repr(s) for s in values)))
    return "\n".join(lines) + "\n"


def _print_witness(witness):
    for name in sorted(witness):
        print("  %s = %r" % (name, witness[name]))


def _problem_system(pf: ProblemFile):
    if pf.kind == "group":
        return build_system(pf.group, pf.lhs, pf.rhs).system
    rhs = pf.rhs
    expr = pf.lhs
    if pf.ideal_generators:
        expr = RSum((expr, RNeg(rhs)))
        rhs = pf.ring.zero()
    return build_ring_system(pf.ring, expr, rhs).system


def cmd_decide(args) -> int:
    pf = parse_problem_file(args.path)
    if args.dump_system:
        with open(args.dump_system, "w", encoding="utf-8") as handle:
            handle.write(render_system(_problem_system(pf)))
    ideal = _problem_ideal(pf)
    if pf.kind == "group":
        decision = decide_equation(pf.group, pf.lhs, pf.rhs, guard=args.guard)
    elif ideal is not None:
        expr = RSum((pf.lhs, RNeg(pf.rhs)))
        decision = decide_factor_ring(pf.ring, ideal, expr, guard=args.guard)
    else:
        decision = decide_ring_equation(pf.ring, pf.lhs, pf.rhs,
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


# -- bench ----------------------------------------------------------------

BENCH_HEADER = ("family", "m", "q", "n", "variables", "rep",
                "sym_size_total", "sym_size_top", "reduce_ms", "solve_ms",
                "verdict", "explored", "prunes", "oracle_ms",
                "oracle_verdict", "agree")


def _bench_word(group, n, nvars, rng):
    """All-distinct variables when enough are allowed, else seeded choices."""
    names = ["v%d" % (i + 1) for i in range(nvars)]
    if nvars >= n:
        return tuple(names[:n])
    return tuple(rng.choice(names) for _ in range(n))


def cmd_bench(args) -> int:
    with open(args.config, "r", encoding="utf-8") as handle:
        families = parse_bench_config(handle.read())
    rng = random.Random(args.seed)
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out \
        else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(BENCH_HEADER)
        for label, group, lengths, nvars, reps in families:
            identity = group.identity()
            for n in lengths:
                for rep in range(reps):
                    word = _bench_word(group, n, nvars, rng)
                    t0 = time.perf_counter()
                    reduced = build_system(group, word, identity)
                    reduce_ms = 1000 * (time.perf_counter() - t0)
                    top = reduced.lhs_matrix.entry(1, group.m)
                    total = sum(poly.product_length() for (i, j), poly
                                in reduced.lhs_matrix.upper_entries() if i < j)
                    t0 = time.perf_counter()
                    explored = prunes = ""
                    try:
                        decision = decide_equation(group, word, identity,
                                                   guard=args.guard)
                        verdict = "SAT" if decision.sat else "UNSAT"
                        explored = decision.stats.explored
                        prunes = decision.stats.prunes
                    except GuardExceeded:
                        verdict = "guard-exceeded"
                    solve_ms = 1000 * (time.perf_counter() - t0)
                    space = group.order ** len(word_variables(word))
                    if space <= args.guard:
                        t0 = time.perf_counter()
                        oracle = brute_force_solve(group, word, identity,
                                                   guard=args.guard)
                        oracle_ms = "%.3f" % (1000 * (time.perf_counter() - t0))
                        oracle_verdict = "SAT" if oracle.sat else "UNSAT"
                        agree = "yes" if oracle_verdict == verdict else "no"
                    else:
                        oracle_ms = "skipped"
                        oracle_verdict = "skipped"
                        agree = ""
                    writer.writerow([
                        label, group.m, group.domain.size, n, nvars, rep,
                        total, top.product_length(),
                        "%.3f" % reduce_ms, "%.3f" % solve_ms, verdict,
                        explored, prunes, oracle_ms, oracle_verdict, agree])
    finally:
        if args.out:
            out.close()
    return 0


def _build_parser():
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
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD,
                   help="max search-space size (default %d)" % DEFAULT_GUARD)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("equiv", help="decide whether lhs and rhs agree "
                                     "under every substitution (by normal "
                                     "form: no search, no guard)")
    p.add_argument("path")
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("oracle", help="run only the brute-force oracle")
    p.add_argument("path")
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("dump-system",
                       help="print the paper's formal reduction: every "
                            "diagonal slot is a variable (decide and equiv "
                            "apply y^d = 1 to a slot of row order d)")
    p.add_argument("path")
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_dump_system)

    p = sub.add_parser("bench", help="run a benchmark family grid, CSV output")
    p.add_argument("config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--guard", type=int, default=DEFAULT_GUARD)
    p.add_argument("--out", metavar="PATH")
    p.set_defaults(func=cmd_bench)

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
