"""Line-oriented problem files: a structure section, named constants, and an
equation.

The format is deliberately plain so files stay diffable and trivially
parseable: bracketed section headers, one `key = value` per line, `#`
comments, lists in JSON syntax, matrices as row-major residue lists, words as
whitespace-separated letters.  Unknown sections or keys are rejected, and
every referenced constant is membership-validated on load.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .domains import DOMAIN_LIMIT, MATRIX_LIMIT, make_domain
from .groups import GroupElement, SemipatternGroup, full_pattern, make_group
from .rings import (NilpotentMatrixRing, RConst, RNeg, RProd, RScale,
                    RSum, RVar, make_ring)


class ParseError(ValueError):
    def __init__(self, message, line=None, col=None):
        where = ""
        if line is not None:
            where = " (line %d%s)" % (line, ", col %d" % col if col else "")
        super().__init__(message + where)
        self.line = line
        self.col = col


@dataclass
class ProblemFile:
    kind: str                      # "group" or "ring"
    group: SemipatternGroup = None
    ring: NilpotentMatrixRing = None
    ideal_generators: tuple = ()
    constants: dict = field(default_factory=dict)
    variables: tuple = ()
    lhs: object = None
    rhs: object = None


def _split_sections(text):
    """[(section name, header line, [(line, key, value), ...]), ...]"""
    sections = []
    current = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        if stripped.startswith("[") and stripped.endswith("]"):
            current = (stripped[1:-1].strip(), lineno, [])
            sections.append(current)
            continue
        if "=" not in stripped:
            raise ParseError("expected `key = value`", lineno,
                             raw.find(stripped) + 1)
        if current is None:
            raise ParseError("key outside of any section", lineno)
        key, value = stripped.split("=", 1)
        current[2].append((lineno, key.strip(), value.strip()))
    return sections


def _as_int(value, lineno):
    """An integer from a key's text."""
    try:
        return int(value)
    except ValueError:
        raise ParseError("expected an integer, got %r" % value, lineno) from None


def _entry_int(entry, lineno):
    """A JSON list entry that is an integer: never a float or a bool."""
    if isinstance(entry, bool) or not isinstance(entry, int):
        raise ParseError("expected an integer, got %s" % json.dumps(entry),
                         lineno)
    return entry


def _as_list(value, lineno):
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError as exc:
        raise ParseError("bad list syntax: %s" % exc.msg, lineno,
                         exc.colno) from None
    if not isinstance(parsed, list):
        raise ParseError("expected a list, got %r" % value, lineno)
    return parsed


def _matrix_rows(value, m, lineno):
    """Accept a flat row-major list of m*m residues (or m nested rows)."""
    data = _as_list(value, lineno)
    if len(data) == m and all(isinstance(r, list) for r in data):
        rows = data
    else:
        if len(data) != m * m or any(isinstance(v, list) for v in data):
            raise ParseError("expected %d row-major entries" % (m * m), lineno)
        rows = [data[i * m:(i + 1) * m] for i in range(m)]
    if any(len(r) != m for r in rows):
        raise ParseError("matrix rows must hold %d integers each" % m, lineno)
    return [[_entry_int(v, lineno) for v in r] for r in rows]


def _factor_prime_power(q, lineno):
    if q < 2:
        raise ParseError("q must be at least 2", lineno)
    # before trial division, which grows with q's least prime factor
    if q > DOMAIN_LIMIT:
        raise ParseError("q = %d exceeds the limit of 2^20 residues per "
                         "domain" % q, lineno)
    p = 2
    while q % p != 0:
        p += 1
    k = 0
    rest = q
    while rest % p == 0:
        rest //= p
        k += 1
    if rest != 1:
        raise ParseError("q = %d is not a prime power" % q, lineno)
    return p, k


_GROUP_KEYS = {"q", "m", "pattern", "orders"}
_RING_KEYS = {"p", "alpha", "m", "ideal"}
_EQUATION_KEYS = {"vars", "lhs", "rhs"}


def parse_problem(text: str) -> ProblemFile:
    sections = _split_sections(text)
    by_name = {}
    for name, lineno, entries in sections:
        if name not in {"group", "ring", "constants", "equation"}:
            raise ParseError("unknown section [%s]" % name, lineno)
        if name in by_name:
            raise ParseError("duplicate section [%s]" % name, lineno)
        by_name[name] = (lineno, entries)

    if ("group" in by_name) == ("ring" in by_name):
        raise ParseError("need exactly one of [group] or [ring]")
    if "equation" not in by_name:
        raise ParseError("missing [equation] section")

    pf = ProblemFile(kind="group" if "group" in by_name else "ring")
    if pf.kind == "group":
        lineno, entries = by_name["group"]
        pf.group = _parse_group(_entries_to_dict(entries, _GROUP_KEYS),
                                lineno)
    else:
        _parse_ring_section(pf, *by_name["ring"])
    if "constants" in by_name:
        _parse_constants(pf, *by_name["constants"])
    _parse_equation(pf, *by_name["equation"])
    return pf


def _entries_to_dict(entries, allowed):
    out = {}
    for lineno, key, value in entries:
        if key not in allowed:
            raise ParseError("unknown key %r" % key, lineno)
        if key in out:
            raise ParseError("duplicate key %r" % key, lineno)
        out[key] = (lineno, value)
    return out


def _require(table, key, section, header_line):
    if key not in table:
        raise ParseError("missing key %r in [%s]" % (key, section), header_line)
    return table[key]


def _parse_group(table, header_line) -> SemipatternGroup:
    """The group of a [group] section."""
    lineno, value = _require(table, "q", "group", header_line)
    p, k = _factor_prime_power(_as_int(value, lineno), lineno)
    domain = make_domain(p, k, "field")
    lineno, value = _require(table, "m", "group", header_line)
    m = _as_int(value, lineno)
    if m > MATRIX_LIMIT:
        raise ParseError("matrix size %d exceeds the limit of %d"
                         % (m, MATRIX_LIMIT), lineno)
    lineno, value = _require(table, "pattern", "group", header_line)
    if value.strip() == "full":
        pattern = full_pattern(m)
    else:
        raw = _as_list(value, lineno)
        if any(not isinstance(pos, list) or len(pos) != 2 for pos in raw):
            raise ParseError("pattern must be a list of [i, j] pairs", lineno)
        pattern = tuple((_entry_int(i, lineno), _entry_int(j, lineno))
                        for i, j in raw)
    lineno, value = _require(table, "orders", "group", header_line)
    orders = [_entry_int(d, lineno) for d in _as_list(value, lineno)]
    return make_group(domain, m, pattern, orders)


def _parse_ring_section(pf, header_line, entries):
    table = _entries_to_dict(entries, _RING_KEYS)
    lineno, value = _require(table, "p", "ring", header_line)
    p = _as_int(value, lineno)
    lineno, value = _require(table, "alpha", "ring", header_line)
    alpha = _as_int(value, lineno)
    lineno, value = _require(table, "m", "ring", header_line)
    m = _as_int(value, lineno)
    pf.ring = make_ring(p, alpha, m)
    if "ideal" in table:
        lineno, value = table["ideal"]
        gens = []
        for entry in _as_list(value, lineno):
            gens.append(pf.ring.element(_matrix_rows(json.dumps(entry), m, lineno)))
        pf.ideal_generators = tuple(gens)


def _parse_constants(pf, header_line, entries):
    structure = pf.group if pf.kind == "group" else pf.ring
    m = structure.m
    for lineno, key, value in entries:
        if not key.isidentifier():
            raise ParseError("constant name %r is not an identifier" % key, lineno)
        if key in ("I", "0"):
            raise ParseError("constant name %r is reserved" % key, lineno)
        rows = _matrix_rows(value, m, lineno)
        pf.constants[key] = structure.element(rows)


def _constant(pf, token):
    """The element a token names: I in a group, 0 in a ring, or a
    [constants] entry; None for any other token."""
    if pf.kind == "group" and token == "I":
        return pf.group.identity()
    if pf.kind == "ring" and token == "0":
        return pf.ring.zero()
    return pf.constants.get(token)


def _letter(pf, token, lineno):
    """A declared variable's name, else the element the token names."""
    if token in pf.variables:
        return token
    value = _constant(pf, token)
    if value is None:
        raise ParseError("unknown letter %r (not a declared variable or "
                         "constant)" % token, lineno)
    return value


def _resolve_word(pf, tokens, lineno):
    return tuple(_letter(pf, token, lineno) for token in tokens)


def _resolve_ring_expr(pf, tokens, lineno):
    """Sum-of-monomials syntax: terms joined by + or -, letters joined by *."""
    if not tokens:
        return RConst(pf.ring.zero())
    terms = []
    sign = 1
    current = []

    def flush():
        if not current:
            raise ParseError("empty term in ring expression", lineno)
        coeff = 1
        letters = []
        for idx, letter_token in enumerate(current):
            # a constant is a letter, also the ring's 0, which looks like a
            # coefficient
            if (_constant(pf, letter_token) is None
                    and letter_token.lstrip("-").isdigit()):
                if idx != 0:
                    raise ParseError("coefficient %r must lead its term"
                                     % letter_token, lineno)
                coeff = int(letter_token)
                continue
            letter = _letter(pf, letter_token, lineno)
            letters.append(RVar(letter) if isinstance(letter, str)
                           else RConst(letter))
        if not letters:
            raise ParseError("a term needs at least one letter", lineno)
        term = letters[0] if len(letters) == 1 else RProd(tuple(letters))
        if coeff != 1:
            term = RScale(coeff, term)
        if sign < 0:
            term = RNeg(term)
        terms.append(term)

    for token in tokens:
        if token == "+":
            flush()
            sign, current = 1, []
        elif token == "-":
            flush()
            sign, current = -1, []
        else:
            current.extend(t for t in token.split("*") if t)
    flush()
    return terms[0] if len(terms) == 1 else RSum(tuple(terms))


def _parse_equation(pf, header_line, entries):
    table = _entries_to_dict(entries, _EQUATION_KEYS)
    if "vars" in table:
        lineno, value = table["vars"]
        names = tuple(value.split())
        for name in names:
            if not name.isidentifier():
                raise ParseError("variable name %r is not an identifier"
                                 % name, lineno)
            if _constant(pf, name) is not None:
                raise ParseError("variable %r collides with a constant" % name,
                                 lineno)
        pf.variables = names
    lineno, value = _require(table, "lhs", "equation", header_line)
    lhs_tokens = tuple(value.split())
    rhs_lineno, rhs_value = _require(table, "rhs", "equation", header_line)
    rhs_tokens = tuple(rhs_value.split())

    if pf.kind == "group":
        pf.lhs = _resolve_word(pf, lhs_tokens, lineno)
        rhs_word = _resolve_word(pf, rhs_tokens, rhs_lineno)
        if len(rhs_word) == 1 and isinstance(rhs_word[0], GroupElement):
            pf.rhs = rhs_word[0]
        else:
            pf.rhs = rhs_word
    else:
        pf.lhs = _resolve_ring_expr(pf, lhs_tokens, lineno)
        if len(rhs_tokens) != 1:
            raise ParseError("ring rhs must be a single constant", rhs_lineno)
        token = rhs_tokens[0]
        pf.rhs = _constant(pf, token)
        if pf.rhs is None:
            if not token.startswith("["):
                raise ParseError("ring rhs must be a constant", rhs_lineno)
            pf.rhs = pf.ring.element(
                _matrix_rows(token, pf.ring.m, rhs_lineno))


def parse_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())
