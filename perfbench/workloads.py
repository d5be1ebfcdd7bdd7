"""Seeded instance sets for the eqsolve benchmark, with independent verdicts.

Each workload is a list of `Instance`s built from a seed.  An instance is
one question put to eqsolve's public API (or, for the `cli` workload, to the
command line).  It carries a reference verdict that does not come from the
reduction under test: a construction checked here in set-up (a planted
witness, a letter that occurs once, a target outside the subgroup generated
by squares), or else the brute-force oracle that runs next to the decision.

Every call into eqsolve goes through a module attribute such as
`reduction.decide_equation`, never through a name bound at import time, so
that the tracer in `spans.py` can rebind those attributes for a traced run.

This module imports only the standard library pieces it needs and eqsolve
itself, so that the set-up time it measures moves with eqsolve's imports.
"""

from __future__ import annotations

import os
import random
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

if not os.path.isfile(os.path.join(SRC, "eqsolve", "__init__.py")):
    raise SystemExit("perfbench: no eqsolve sources under %s" % SRC)
sys.path.insert(0, SRC)

import eqsolve  # noqa: E402
from eqsolve import domains, groups, reduction, rings, solver  # noqa: E402

if not os.path.abspath(eqsolve.__file__).startswith(SRC + os.sep):
    raise SystemExit("perfbench: eqsolve was imported from %s, not from %s"
                     % (eqsolve.__file__, SRC))

LIFTED_GUARD = 10 ** 400   # "lifted": far above any space in group-deep
CRIT9_GUARD = 10 ** 11     # the guard criterion 9 uses


class Mismatch(Exception):
    """A verdict or witness that disagrees with the reference: aborts a run."""


class Instance:
    """One question: `kind` selects the runner, `expected` is the reference
    verdict (None when the oracle that runs alongside supplies it)."""

    __slots__ = ("kind", "label", "args", "expected", "guard", "oracle")

    def __init__(self, kind, label, args, expected=None,
                 guard=solver.DEFAULT_GUARD, oracle=True):
        self.kind = kind
        self.label = label
        self.args = args
        self.expected = expected
        self.guard = guard
        self.oracle = oracle


class Samples:
    """Time samples in seconds, per operation and per question.

    Each sample is kept as measured and scaled: multiplied by the ratio of
    the reference calibration time to the calibration times measured around
    it (see run.py).  Samples wait in `pending` until that scale is known.
    """

    def __init__(self):
        self.ops = {}      # op -> {question key -> [seconds, one per pass]}
        self.scaled = {}   # the same, scaled
        self.key = None    # the question being run
        self.pending = []

    def add(self, op, seconds):
        self.pending.append((op, seconds))

    def commit(self, scale):
        for op, seconds in self.pending:
            self.ops.setdefault(op, {}).setdefault(self.key, []).append(
                seconds)
            self.scaled.setdefault(op, {}).setdefault(self.key, []).append(
                seconds * scale)
        self.pending = []

    def time(self, op, fn, *args, **kwargs):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        self.add(op, time.perf_counter() - t0)
        return result

    def typical(self, op, scaled=True):
        """Each question's median time for op over the passes run."""
        table = self.scaled if scaled else self.ops
        return [statistics.median(v) for v in table.get(op, {}).values()]


# -- structures ---------------------------------------------------------------

def group_family():
    """UT(3,F2), UT(4,F2), the order-54 group and sparse-18 (the test family)."""
    f2 = domains.make_domain(2)
    f3 = domains.make_domain(3)
    return (("ut3f2", groups.unitriangular_group(f2, 3)),
            ("ut4f2", groups.unitriangular_group(f2, 4)),
            ("order54", groups.make_group(f3, 3, groups.full_pattern(3),
                                          (1, 2, 1))),
            ("sparse18", groups.make_group(f3, 3, ((1, 2), (1, 3)),
                                           (2, 1, 1))))


def random_word(rng, group, max_len, max_vars, const_prob=0.3):
    """Criterion-1/8 word generator: variables v1.. and constant letters."""
    n = rng.randint(1, max_len)
    names = ["v%d" % (i + 1) for i in range(rng.randint(1, max_vars))]
    elems = groups.element_list(group)
    return tuple(rng.choice(elems) if rng.random() < const_prob
                 else rng.choice(names) for _ in range(n))


def random_ring_expr(rng, ring, max_monomials=3, max_letters=4,
                     const_prob=0.25):
    """Criterion-6 generator: a random sum of monomials in u, v and constants."""
    elems = rings.ring_elements(ring)
    terms = []
    for _ in range(rng.randint(1, max_monomials)):
        letters = [rings.RConst(rng.choice(elems)) if rng.random() < const_prob
                   else rings.RVar(rng.choice("uv"))
                   for _ in range(rng.randint(1, max_letters))]
        term = letters[0] if len(letters) == 1 else rings.RProd(tuple(letters))
        if rng.random() < 0.3 and ring.modulus > 2:
            term = rings.RScale(rng.randint(2, ring.modulus - 1), term)
        terms.append(term)
    return terms[0] if len(terms) == 1 else rings.RSum(tuple(terms))


def single_occurrence_sat(lhs, rhs):
    """True when some variable occurs exactly once in the whole equation.

    Then the equation is solvable: fix every other variable, and that one
    letter is the product of the inverses around it.  Otherwise None.
    """
    letters = list(lhs) + (list(rhs) if isinstance(rhs, tuple) else [])
    names = [x for x in letters if isinstance(x, str)]
    return True if any(names.count(x) == 1 for x in set(names)) else None


def square_subgroup(group):
    """The subgroup generated by all squares, by closure over element_list."""
    closed = {groups.multiply(g, g) for g in groups.element_list(group)}
    frontier = list(closed)
    while frontier:
        a = frontier.pop()
        for b in list(closed):
            c = groups.multiply(a, b)
            if c not in closed:
                closed.add(c)
                frontier.append(c)
    return closed


# -- workloads ----------------------------------------------------------------

def group_corpus(seed):
    """500 criterion-1 equations and 120 equivalence pairs over the family."""
    rng = random.Random(seed)
    family = group_family()
    out = []
    for name, group in family:
        # build the oracle's Cayley table now: users of one process pay it once
        groups.brute_force_solve(group, ("v1",), group.identity())
        for trial in range(125):
            lhs = random_word(rng, group, 8, 3)
            if trial % 5 == 4:
                rhs = random_word(rng, group, 4, 3)
            else:
                rhs = rng.choice(groups.element_list(group))
            out.append(Instance("group_eq", "%s-eq%d" % (name, trial),
                                (group, lhs, rhs),
                                single_occurrence_sat(lhs, rhs)))
    for name, group in family:
        for trial in range(25):
            f = random_word(rng, group, 5, 2)
            g = random_word(rng, group, 5, 2)
            out.append(Instance("group_equiv", "%s-pair%d" % (name, trial),
                                (group, f, g)))
    for name, group in family:
        e = groups.exponent_bound(group)
        identity = group.identity()
        power = ("v1",) * e
        for g in groups.element_list(group):  # check the construction: g^E = 1
            if groups.evaluate_word(group, power, {"v1": g}) != identity:
                raise Mismatch("%s: exponent bound %d fails" % (name, e))
        out.append(Instance("group_equiv", "%s-power" % name,
                            (group, power, ()), True))
        out.append(Instance("group_equiv", "%s-power-swapped" % name,
                            (group, (), power), True))
        for trial in range(3):
            # w = v1 c or c v1, u = v2: the same shape, and so nearly the same
            # work, on every seed
            c = rng.choice(groups.element_list(group))
            w = ("v1", c) if rng.random() < 0.5 else (c, "v1")
            u = ("v2",)
            f = w + u + groups.invert_word(group, u)
            for g in groups.element_list(group):  # check: u u^-1 = 1
                if groups.evaluate_word(group, f[2:], {"v2": g}) != identity:
                    raise Mismatch("%s: invert_word fails" % name)
            out.append(Instance("group_equiv", "%s-cancel%d" % (name, trial),
                                (group, f, w), True))
    rng.shuffle(out)
    return out


def group_deep(seed):
    """Instances beyond enumeration: no oracle, verdicts by construction."""
    rng = random.Random(seed)
    f2 = domains.make_domain(2)
    ut4 = groups.unitriangular_group(f2, 4)
    squares = square_subgroup(ut4)
    # the first element outside, as in the baseline measurements: other
    # choices are refuted after a few hundred nodes at k = 4, not 656k
    target = next(g for g in groups.element_list(ut4) if g not in squares)
    out = []
    for k in (2, 3, 4):
        word = tuple(x for i in range(1, k + 1) for x in ("x%d" % i,) * 2)
        out.append(Instance("group_eq", "square-chain-k%d" % k,
                            (ut4, word, target), False,
                            guard=LIFTED_GUARD, oracle=False))
    for m, n in ((5, 12), (6, 12), (6, 16)):
        group = groups.unitriangular_group(f2, m)
        word = tuple("v%d" % i for i in range(1, n + 1))
        out.append(Instance("group_eq", "wide-ut%d-n%d" % (m, n),
                            (group, word, group.identity()), True,
                            guard=LIFTED_GUARD, oracle=False))
    order54 = dict(group_family())["order54"]
    elems = groups.element_list(order54)
    six = tuple("v%d" % i for i in range(1, 7))
    crit9 = ((six, elems[37]),
             (six + ("v1", "v2"), order54.identity()),
             (("v1", "v2", "v3", "v1", "v4", "v5", "v2", "v6"), elems[11]))
    for i, (word, rhs) in enumerate(crit9):
        out.append(Instance("group_eq", "crit9-%d" % (i + 1),
                            (order54, word, rhs),
                            single_occurrence_sat(word, rhs),
                            guard=CRIT9_GUARD, oracle=False))
    word = tuple("v%d" % i for i in range(1, 9))
    out.append(Instance("group_eq", "identity-ut4-n8-default-guard",
                        (ut4, word, ut4.identity()), True, oracle=False))
    # 367 distinct letters give 1101 slot variables (3 per letter in UT(2,F2)),
    # deeper than the recursive search can go
    ut2 = groups.unitriangular_group(f2, 2)
    word = tuple("v%d" % i for i in range(1, 368))
    out.append(Instance("group_eq", "identity-ut2-1101-slots",
                        (ut2, word, ut2.identity()), True,
                        guard=LIFTED_GUARD, oracle=False))
    for inst in out:
        if inst.expected is None:
            raise Mismatch("%s has no reference verdict" % inst.label)
    rng.shuffle(out)
    return out


def ring_corpus(seed):
    """300 criterion-6 equations, 60 factor-ring questions, 40 planted M(3,Z4)."""
    rng = random.Random(seed)
    sweep = (rings.make_ring(2, 1, 2), rings.make_ring(2, 2, 2),
             rings.make_ring(3, 1, 3))
    out = []
    for idx in range(300):
        ring = sweep[idx % 3]
        out.append(Instance("ring_eq", "%r-eq%d" % (ring, idx),
                            (ring, random_ring_expr(rng, ring),
                             rng.choice(rings.ring_elements(ring)))))
    m2z4, m3z3 = sweep[1], sweep[2]
    factors = ((m2z4, m2z4.element([[0, 2], [0, 0]]), 2),
               (m3z3, m3z3.element([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), 9))
    for ring, generator, size in factors:
        for trial in range(30):
            lhs = random_ring_expr(rng, ring)
            rhs = rng.choice(rings.ring_elements(ring))
            expr = rings.RSum((lhs, rings.RNeg(rhs)))
            out.append(Instance("factor", "%r-factor%d" % (ring, trial),
                                (ring, (generator,), size, expr)))
    m3z4 = rings.make_ring(2, 2, 3)
    elems = rings.ring_elements(m3z4)
    for trial in range(40):
        expr = random_ring_expr(rng, m3z4)
        planted = {"u": rng.choice(elems), "v": rng.choice(elems)}
        rhs = rings.eval_ring_expr(expr, planted, m3z4)
        out.append(Instance("ring_eq", "M3Z4-planted%d" % trial,
                            (m3z4, expr, rhs), True, oracle=False))
    rng.shuffle(out)
    return out


def setup(name, seed):
    """Build a workload's instances; `cli` lives in cliwork.py."""
    if name == "cli":
        import cliwork
        return cliwork.setup(seed)
    return {"group-corpus": group_corpus, "group-deep": group_deep,
            "ring-corpus": ring_corpus}[name](seed)


# -- running and checking -----------------------------------------------------

def _check_group_witness(inst, witness, who):
    group, lhs, rhs = inst.args
    left = groups.evaluate_word(group, lhs, witness)
    right = (groups.evaluate_word(group, rhs, witness)
             if isinstance(rhs, tuple) else rhs)
    if left != right:
        raise Mismatch("%s: %s witness fails re-evaluation" % (inst.label, who))


def _check_ring_value(inst, ring, expr, witness, target, ideal, who):
    value = rings.eval_ring_expr(expr, witness, ring)
    ok = (value - target) in ideal if ideal is not None else value == target
    if not ok:
        raise Mismatch("%s: %s witness fails re-evaluation" % (inst.label, who))


def _verdict(inst, decided, oracle):
    """Compare the decision with the reference; return the checked verdict."""
    reference = inst.expected
    if oracle is not None:
        if reference is not None and reference != oracle:
            raise Mismatch("%s: oracle %s contradicts the construction"
                           % (inst.label, oracle))
        reference = oracle
    if reference is None:
        raise Mismatch("%s: no reference verdict" % inst.label)
    if decided != reference:
        raise Mismatch("%s: decided %s, reference %s"
                       % (inst.label, decided, reference))
    return decided


def run_instance(inst, samples):
    """Run one question, check it, and return its exact work counters."""
    kind = inst.kind
    if kind == "group_eq":
        group, lhs, rhs = inst.args
        d = samples.time("decide", reduction.decide_equation, group, lhs, rhs,
                         guard=inst.guard)
        if d.sat:
            _check_group_witness(inst, d.witness, "decision")
        counters = (d.sat, d.stats.explored, d.stats.prunes)
        oracle = None
        if inst.oracle:
            o = samples.time("oracle", groups.brute_force_solve, group, lhs,
                             rhs, guard=inst.guard)
            if o.sat:
                _check_group_witness(inst, o.witness, "oracle")
            oracle = o.sat
            counters += (o.stats.explored,)
        _verdict(inst, d.sat, oracle)
        return counters
    if kind == "group_equiv":
        group, f, g = inst.args
        same = samples.time("equiv", reduction.decide_equivalence, group, f, g)
        agree, separator = samples.time(
            "equiv_oracle", groups.words_agree_everywhere, group, f, g)
        if separator is not None and (groups.evaluate_word(group, f, separator)
                                      == groups.evaluate_word(group, g,
                                                              separator)):
            raise Mismatch("%s: oracle separator does not separate"
                           % inst.label)
        _verdict(inst, same, agree)
        return (same,)
    if kind == "ring_eq":
        ring, expr, rhs = inst.args
        d = samples.time("decide", rings.decide_ring_equation, ring, expr, rhs)
        if d.sat:
            _check_ring_value(inst, ring, expr, d.witness, rhs, None,
                              "decision")
        counters = (d.sat, d.stats.explored, d.stats.prunes)
        oracle = None
        if inst.oracle:
            o = samples.time("oracle", rings.brute_force_ring_solve, ring,
                             expr, rhs)
            if o.sat:
                _check_ring_value(inst, ring, expr, o.witness, rhs, None,
                                  "oracle")
            oracle = o.sat
            counters += (o.stats.explored,)
        _verdict(inst, d.sat, oracle)
        return counters
    if kind == "factor":
        ring, generators, size, expr = inst.args

        def decide():
            ideal = rings.enumerate_ideal(ring, generators)
            return ideal, rings.decide_factor_ring(ring, ideal, expr)

        ideal, d = samples.time("decide", decide)
        if len(ideal) != size:
            raise Mismatch("%s: ideal has %d elements, expected %d"
                           % (inst.label, len(ideal), size))
        zero = ring.zero()
        if d.sat:
            if d.ideal_element not in ideal:
                raise Mismatch("%s: reported ideal element outside the ideal"
                               % inst.label)
            _check_ring_value(inst, ring, expr, d.witness, zero, ideal,
                              "decision")
        o = samples.time("oracle", rings.brute_force_ring_solve, ring, expr,
                         ideal=ideal)
        if o.sat:
            _check_ring_value(inst, ring, expr, o.witness, zero, ideal,
                              "oracle")
        _verdict(inst, d.sat, o.sat)
        return (d.sat, d.stats.explored, d.stats.prunes, o.stats.explored,
                len(ideal))
    raise ValueError("unknown instance kind %r" % kind)
