"""Spans and exact work counters at eqsolve's module boundaries.

The tracer rebinds, for each traced pass, the module attributes
through which one layer calls the next: `eqsolve.reduction.solve` and
`eqsolve.rings.solve` as well as `eqsolve.solver.solve`, because both modules
import it by name; `eqsolve.cli.decide_equation` as well as
`eqsolve.reduction.decide_equation`; and so on.  Nothing under src/ changes.

`poly` and `domains` run once per term and per search node, so they get no
spans: a wrapper there would time the tracer.  Nor do functions the oracles
call once per assignment, such as `eval_ring_expr`; `evaluate_word` is
wrapped only where `reduction` and `cli` call it, for the witness re-check.
Their work shows up as counters and as self time of the spans that call them.

Spans nest on one stack (one caller, one question at a time).  A span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import sys
import time
from collections import defaultdict


def _system_counts(prefix):
    def count(tracer, stack, args, kwargs, result):
        system = result.system
        tracer.counts[prefix + ".builds"] += 1
        tracer.counts[prefix + ".constraints"] += len(system.constraints)
        tracer.counts[prefix + ".slot_vars"] += len(system.domains)
        tracer.counts[prefix + ".monomials"] += sum(
            c.poly.monomial_count() for c in system.constraints)
        if any(frame[0] == "reduction.decide_equivalence" for frame in stack):
            tracer.counts["reduction.equiv_builds"] += 1
    return count


def _solve_counts(tracer, stack, args, kwargs, result):
    tracer.counts["solver.nodes"] += result.stats.explored
    tracer.counts["solver.prunes"] += result.stats.prunes


def _solve_space(tracer, stack, args, kwargs):
    request = args[0] if args else kwargs["request"]
    tracer.space_log10.append(math.log10(request.system.search_space()))


def _oracle_counts(prefix):
    def count(tracer, stack, args, kwargs, result):
        tracer.counts[prefix + ".oracle_assignments"] += result.stats.explored
    return count


def _agree_counts(tracer, stack, args, kwargs, result):
    """Assignments words_agree_everywhere scans: all of them, or up to and
    including the first separator in canonical order."""
    from eqsolve import groups

    group, f, g = args[:3]
    names = groups.word_variables(tuple(f) + tuple(g))
    size = group.order
    agree, separator = result
    if separator is None or not names:
        scanned = size ** len(names) if agree else 1
    else:
        index = {el: i for i, el in enumerate(groups.element_list(group))}
        scanned = 1
        for name in names:
            scanned += index[separator[name]] * size ** (
                len(names) - 1 - names.index(name))
    tracer.counts["groups.oracle_assignments"] += scanned


def _ideal_counts(tracer, stack, args, kwargs, result):
    tracer.counts["rings.ideals"] += 1
    tracer.counts["rings.ideal_size"] += len(result)


def _factor_child(tracer, stack, args, kwargs, result):
    if stack and stack[-1][0] == "rings.decide_factor_ring":
        tracer.counts["rings.factor_solves"] += 1


# (span name, module, attribute, modules whose binding is rebound or None
#  for every eqsolve module holding the same function, result hook)
BOUNDARIES = (
    ("cli.main", "eqsolve.cli", "main", None, None),
    ("problemfile.parse", "eqsolve.problemfile", "parse_problem_file", None,
     None),
    ("reduction.decide_equivalence", "eqsolve.reduction",
     "decide_equivalence", None, None),
    ("reduction.separating_substitution", "eqsolve.reduction",
     "separating_substitution", None, None),
    ("reduction.decide_equation", "eqsolve.reduction", "decide_equation",
     None, None),
    ("reduction.build_system", "eqsolve.reduction", "build_system", None,
     _system_counts("reduction")),
    ("reduction.symbolic_product", "eqsolve.reduction", "symbolic_product",
     None, None),
    ("groups.evaluate_word", "eqsolve.groups", "evaluate_word",
     ("eqsolve.reduction", "eqsolve.cli"), None),
    ("groups.brute_force_solve", "eqsolve.groups", "brute_force_solve", None,
     _oracle_counts("groups")),
    ("groups.words_agree_everywhere", "eqsolve.groups",
     "words_agree_everywhere", None, _agree_counts),
    ("rings.decide_factor_ring", "eqsolve.rings", "decide_factor_ring", None,
     None),
    ("rings.decide_ring_equation", "eqsolve.rings", "decide_ring_equation",
     None, _factor_child),
    ("rings.build_ring_system", "eqsolve.rings", "build_ring_system", None,
     _system_counts("rings")),
    ("rings.sigma_expand", "eqsolve.rings", "sigma_expand", None, None),
    ("rings.entrywise_rewrite", "eqsolve.rings", "entrywise_rewrite", None,
     None),
    ("rings.enumerate_ideal", "eqsolve.rings", "enumerate_ideal", None,
     _ideal_counts),
    ("rings.brute_force_ring_solve", "eqsolve.rings", "brute_force_ring_solve",
     None, _oracle_counts("rings")),
    ("solver.solve", "eqsolve.solver", "solve", None, _solve_counts),
    ("solver.verify_witness", "eqsolve.solver", "verify_witness", None, None),
)
METHODS = (
    ("reduction.assemble_witness", "eqsolve.reduction", "ReducedSystem",
     "assemble_witness"),
)
BEFORE = {"solver.solve": _solve_space}


class Tracer:
    """In-memory span totals and exact counters for one traced segment."""

    def __init__(self):
        self.stack = []                   # [name, child seconds] per open span
        self.total = defaultdict(float)   # seconds per span name
        self.self_time = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)    # exact work counters
        self.space_log10 = []             # nominal space of each solve call
        self._undo = []

    def reset(self):
        """Start a new pass: clear totals and counters, keep the wrappers."""
        self.total.clear()
        self.self_time.clear()
        self.calls.clear()
        self.counts.clear()
        self.space_log10 = []

    def _wrap(self, name, fn, after=None):
        tracer = self
        before = BEFORE.get(name)
        clock = time.perf_counter

        def span(*args, **kwargs):
            stack = tracer.stack
            if before is not None:
                before(tracer, stack, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - t0
                stack.pop()
                tracer.total[name] += duration
                tracer.self_time[name] += duration - frame[1]
                tracer.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer, stack, args, kwargs, result)
            return result

        span.__wrapped__ = fn
        return span

    def install(self):
        loaded = [(key, mod) for key, mod in sys.modules.items()
                  if key == "eqsolve" or key.startswith("eqsolve.")]
        for name, home, attr, where, after in BOUNDARIES:
            if home not in sys.modules:
                continue
            original = getattr(sys.modules[home], attr)
            wrapper = self._wrap(name, original, after)
            for key, mod in loaded:
                if where is not None and key not in where:
                    continue
                if getattr(mod, attr, None) is original:
                    setattr(mod, attr, wrapper)
                    self._undo.append((mod, attr, original))
        for name, home, cls_name, attr in METHODS:
            cls = getattr(sys.modules[home], cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append((cls, attr, original))

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def exact_counters(self):
        """Counters that must repeat bit for bit on the same inputs."""
        out = dict(self.counts)
        out.update(("calls." + k, v) for k, v in self.calls.items())
        out["solver.space_log10_sum"] = round(sum(self.space_log10), 9)
        return dict(sorted(out.items()))
