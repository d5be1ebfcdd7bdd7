"""Byte-lane scans: the evaluation engine of both brute-force oracles.

Every oracle ends in one of two scans here, both in canonical order and
giving the same (explored, witness): first_hit, a row at a time, up to
LIMIT elements, and first_assignment, one assignment at a time, past it.

An oracle compiles its question once into a node over element indices.  A
node is (value, is_lane): a value is an index, or a lane (bytes) holding
one index per value of the last variable once it depends on that variable.
A value that depends on no other (prefix) variable is computed at compile
time; any other is a function of the prefix's indices, nested about
log2(n) calls deep for n operations, as fold builds it.  Operations are
tables padded to 256-byte rows, so a lane goes through a unary operation,
or a binary one with one lane operand, in one bytes.translate.  A table
is closed from a few generator rows the same way, by translating rows.
"""

import itertools
from operator import getitem, itemgetter

# Lanes are bytes, so a carrier holds at most 256 element indices.
LIMIT = 256


def closure(n, identity, candidates, generator_row):
    """(rows, steps): padded rows, rows[a][b] = a.b, of a group operation
    over indices 0..n-1, closed breadth-first from the identity.  Each
    candidate not yet reached is a generator g with row generator_row(g),
    and row(a.g) = row(g).translate(row(a)) by associativity; steps lists
    (a.g, a, g) in the order reached.  Candidates range(n) give greedy
    generators, each at least doubling the reached subgroup: <= log2(n)."""
    pad = bytes(LIMIT - n)
    rows = [None] * n
    rows[identity] = bytes(range(n)) + pad
    reached, generators, steps = [identity], {}, []
    for g in candidates:
        if rows[g] is not None:
            continue
        generators[g] = generator_row(g)
        for a in reached:
            for h, row in generators.items():
                c = rows[a][h]
                if rows[c] is None:
                    rows[c] = row.translate(rows[a]) + pad
                    reached.append(c)
                    steps.append((c, a, h))
    return rows, steps


def table(rows):
    """(rows, cols) with cols[b][a] = rows[a][b], padded like the rows."""
    n = len(rows)
    pad = bytes(LIMIT - n)
    return rows, [bytes(col) + pad for col in itertools.islice(zip(*rows), n)]


def variables(names, lane):
    """name -> node: the prefix's index for every name but the last, the
    lane for the last."""
    nodes = {name: (itemgetter(d), False)
             for d, name in enumerate(names[:-1])}
    if names:
        nodes[names[-1]] = (lane, True)
    return nodes


def lift(fn, f, g):
    """fn(f, g) now if neither is a function of the prefix, else the
    function of the prefix that computes it."""
    if callable(f):
        if callable(g):
            return lambda p: fn(f(p), g(p))
        return lambda p: fn(f(p), g)
    if callable(g):
        return lambda p: fn(f, g(p))
    return fn(f, g)


def fold(fn, nodes):
    """fn folded over the nodes (at least one) as a balanced tree, so that
    a compiled node nests about log2(len(nodes)) calls deep, not one per
    operation; for an associative fn the value is the left fold's."""
    nodes = list(nodes)
    while len(nodes) > 1:
        pairs = [fn(x, y) for x, y in zip(nodes[::2], nodes[1::2])]
        nodes = pairs + nodes[-1:] if len(nodes) % 2 else pairs
    return nodes[0]


def unary(table, node):
    """The node mapped through a padded 256-byte table."""
    f, is_lane = node
    if is_lane:
        return lift(bytes.translate, f, table), True
    return lift(getitem, table, f), False


def binary(op, x, y):
    """x op y for op = (rows, cols) from table."""
    (f, f_lane), (g, g_lane) = x, y
    rows, cols = op
    if f_lane and g_lane:
        return lift(lambda a, b: bytes(map(getitem, map(rows.__getitem__, a),
                                           b)), f, g), True
    if f_lane:
        return lift(lambda a, b: a.translate(cols[b]), f, g), True
    if g_lane:
        return lift(lambda a, b: b.translate(rows[a]), f, g), True
    return lift(lambda a, b: rows[a][b], f, g), False


def first_hit(carrier, names, node, mask, elements):
    """Scan node over every assignment of names to the carrier (bytes, in
    scan order), one row per prefix, for the first value the 0/1 mask
    marks: (k * width + j + 1, {name: element}) for the j-th entry of row
    k, elements mapping indices back, or (width ** len(names), None).
    Without names the row is one index."""
    value, is_lane = node
    if callable(value):
        row_at = value
    else:
        row = value if is_lane else bytes((value,))
        row_at = lambda prefix: row
    width = len(carrier)
    prefixes = itertools.product(carrier, repeat=max(len(names) - 1, 0))
    for k, prefix in enumerate(prefixes):
        j = row_at(prefix).translate(mask).find(1)
        if j >= 0:
            return k * width + j + 1, dict(zip(names, map(
                elements.__getitem__, prefix + (carrier[j],))))
    return width ** len(names), None


def first_assignment(carrier, names, holds):
    """(explored, {name: element}) for the first assignment of names to
    the carrier, in canonical order and counted from 1, at which holds is
    true; (len(carrier) ** len(names), None) when there is none."""
    combos = itertools.product(carrier, repeat=len(names))
    for explored, combo in enumerate(combos, start=1):
        assignment = dict(zip(names, combo))
        if holds(assignment):
            return explored, assignment
    return len(carrier) ** len(names), None
