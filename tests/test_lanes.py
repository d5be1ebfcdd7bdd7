"""The oracles' operation tables, closed from generator rows, against the
plain |G|^2 build they replace, and the work the closure does."""

import math

import pytest

from eqsolve import (RNeg, RSum, RVar, element_list, eval_ring_expr,
                     evaluate_word, expr_variables, full_pattern, make_domain,
                     make_group, make_ring, multiply, ring_elements,
                     unitriangular_group, word_variables)
from eqsolve import groups, lanes, rings
from eqsolve.rings import RingElement


def op_table(n, op):
    """The reference build, one op call per pair: (rows, cols) over indices
    0..n-1 with rows[a][b] = cols[b][a] = op(a, b), each a 256-byte row
    padded with zeros."""
    pad = bytes(lanes.LIMIT - n)
    rows = [bytes(op(a, b) for b in range(n)) for a in range(n)]
    cols = [bytes(row[b] for row in rows) + pad for b in range(n)]
    return [row + pad for row in rows], cols


F2, F3 = make_domain(2), make_domain(3)
GROUPS = {
    "UT(3,F2)": unitriangular_group(F2, 3),
    "UT(4,F2)": unitriangular_group(F2, 4),
    "order-54": make_group(F3, 3, full_pattern(3), (1, 2, 1)),
    "sparse-18": make_group(F3, 3, ((1, 2), (1, 3)), (2, 1, 1)),
    "GF(4)-(3,3)": make_group(make_domain(2, 2), 2, ((1, 2),), (3, 3)),
    "GF(5)-(4,2)": make_group(make_domain(5), 2, ((1, 2),), (4, 2)),
    "GF(257)*": make_group(make_domain(257), 1, (), (256,)),
    "trivial": make_group(F2, 1, (), (1,)),
}
RINGS = {"M(1,Z2)": make_ring(2, 1, 1), "M(2,Z2)": make_ring(2, 1, 2),
         "M(2,Z4)": make_ring(2, 2, 2), "M(3,Z3)": make_ring(3, 1, 3),
         "M(4,Z2)": make_ring(2, 1, 4), "M(2,Z9)": make_ring(3, 2, 2),
         "M(1,Z27)": make_ring(3, 3, 1)}


def _cases(argname, structures, *names):
    names = names or tuple(structures)
    return pytest.mark.parametrize(
        argname, [structures[name] for name in names], ids=names)


@_cases("group", GROUPS)
def test_cayley_equals_reference_table(group):
    elems = element_list(group)
    n = len(elems)
    index = {el: i for i, el in enumerate(elems)}
    reference = op_table(n, lambda a, b: index[multiply(elems[a], elems[b])])
    inverse = bytes(index[el.inverse()] for el in elems)
    assert groups._cayley(group) == (
        elems, index, reference, inverse + bytes(lanes.LIMIT - n))


@_cases("ring", RINGS)
def test_ring_tables_equal_reference_tables(ring):
    elems = ring_elements(ring)
    index = {e.rows: i for i, e in enumerate(elems)}

    def reference(op):
        return op_table(len(elems),
                        lambda a, b: index[op(elems[a], elems[b]).rows])

    assert rings._ring_tables(ring) == (
        index, reference(RingElement.__add__), reference(RingElement.__mul__))


def test_closure_reaches_each_index_once_from_its_parent():
    n = 12  # Z_12 under addition: 0 is the identity and 1 generates it
    calls = []

    def generator_row(g):
        calls.append(g)
        return bytes((g + b) % n for b in range(n))

    rows, steps = lanes.closure(n, 0, range(n), generator_row)
    assert rows == op_table(n, lambda a, b: (a + b) % n)[0]
    assert calls == [1]
    assert sorted(c for c, _, _ in steps) == list(range(1, n))
    order = [0] + [c for c, _, _ in steps]
    for c, a, g in steps:
        assert g == 1 and rows[a][g] == c
        assert order.index(a) < order.index(c)


@_cases("group", GROUPS, "UT(4,F2)", "GF(257)*")
def test_cayley_build_multiplies_n_log_n_times(monkeypatch, group):
    n = len(element_list(group))
    calls = []
    product = groups.multiply

    def counting(a, b):
        calls.append(1)
        return product(a, b)

    monkeypatch.setattr(groups, "multiply", counting)
    groups._cayley.__wrapped__(group)   # a fresh build, past the cache
    assert 0 < len(calls) <= n * math.ceil(math.log2(n))


@_cases("ring", RINGS, "M(4,Z2)", "M(2,Z9)")
def test_ring_tables_build_basis_times_n_products(monkeypatch, ring):
    n = len(ring_elements(ring))
    bound = len(rings._additive_basis(ring)) * n
    counts = {}
    for name in ("__add__", "__mul__"):
        method = getattr(RingElement, name)

        def counting(a, b, name=name, method=method):
            counts[name] = counts.get(name, 0) + 1
            return method(a, b)

        monkeypatch.setattr(RingElement, name, counting)
    rings._ring_tables.__wrapped__(ring)   # a fresh build, past the cache
    assert 0 < counts["__add__"] <= bound
    assert 0 < counts["__mul__"] <= bound


def test_fold_is_a_balanced_left_to_right_tree():
    pair = lambda x, y: (x, y)  # noqa: E731
    assert lanes.fold(pair, [0]) == 0
    assert lanes.fold(pair, range(5)) == (((0, 1), (2, 3)), 4)
    assert lanes.fold(str.__add__, "abcdefg") == "abcdefg"

    def depth(tree):
        return 1 + max(map(depth, tree)) if isinstance(tree, tuple) else 0

    assert depth(lanes.fold(pair, range(3000))) == 12  # ceil(log2(3000))


def _group_scans(group, left, right):
    """(table, per-assignment) scans of left = right over the group."""
    table = groups._first_lane(group, left, right, True, 10 ** 8)
    names = word_variables(left + right)
    plain = lanes.first_assignment(element_list(group), names, lambda a: (
        evaluate_word(group, left, a) == evaluate_word(group, right, a)))
    return table, plain


def _ring_scans(ring, expr, rhs):
    """(table, per-assignment) scans of expr = rhs over the ring."""
    names = expr_variables(expr)
    table = rings._table_scan(ring, expr, rhs, None, names)
    plain = lanes.first_assignment(ring_elements(ring), names, lambda a: (
        eval_ring_expr(expr, a, ring) == rhs))
    return table, plain


def test_assignment_scan_matches_table_scan():
    """lanes.first_assignment gives the table scan's (explored, witness) on
    hits in the first and the last row and on UNSAT questions, over
    UT(3,F2) (8 elements) and M(2,Z4) (32 elements)."""
    group = GROUPS["UT(3,F2)"]
    elems = element_list(group)
    c = elems[5]
    x, y = RVar("x"), RVar("y")
    ring = RINGS["M(2,Z4)"]
    relems = ring_elements(ring)
    e12 = ring.element([[0, 1], [0, 0]])
    cases = (
        # x * y = c first holds at x = 1, y = c: row 0, entry 5
        (_group_scans(group, ("x", "y"), (c,)), True, 6),
        # x * y = last * y only at x = last: row 7, entry 0
        (_group_scans(group, ("x", "y"), (elems[-1], "y")), True, 7 * 8 + 1),
        # products of two squares lie in the centre {1, z}
        (_group_scans(group, ("x", "x", "y", "y"), (c,)), False, 8 ** 2),
        (_ring_scans(ring, x + y, relems[9]), True, 10),
        (_ring_scans(ring, RSum((x, y, RNeg(y))), relems[-1]), True,
         31 * 32 + 1),
        # entry (1,2) of x * y is x11 y12 + x12 y22, even
        (_ring_scans(ring, x * y, e12), False, 32 ** 2))
    for (table, plain), sat, explored in cases:
        assert table == plain
        assert plain[0] == explored
        assert (plain[1] is not None) == sat
