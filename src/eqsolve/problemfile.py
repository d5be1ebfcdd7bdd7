"""Line-oriented problem files: a structure section, named constants, and an
equation.

The format is deliberately plain so files stay diffable and trivially
parseable: bracketed section headers, one `key = value` per line, `#`
comments, lists in JSON syntax, matrices as row-major residue lists, words as
whitespace-separated letters.  Unknown sections or keys are rejected, and
every referenced constant is membership-validated on load.  The bench
configs of `eqsolve bench` use the same section syntax.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .domains import make_domain
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
    lhs_tokens: tuple = ()
    rhs_tokens: tuple = ()
    lhs: object = None
    rhs: object = None

    def __eq__(self, other):
        if not isinstance(other, ProblemFile):
            return NotImplemented
        return (self.kind, self.group, self.ring, self.ideal_generators,
                self.constants, self.variables, self.lhs_tokens,
                self.rhs_tokens) == \
               (other.kind, other.group, other.ring, other.ideal_generators,
                other.constants, other.variables, other.lhs_tokens,
                other.rhs_tokens)


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
    """An integer from a key's text or a JSON list entry."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ParseError("expected an integer, got %r" % value, lineno) from None


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
    if any(len(r) != m or any(not isinstance(v, int) for v in r) for r in rows):
        raise ParseError("matrix rows must hold %d integers each" % m, lineno)
    return rows


def _factor_prime_power(q, lineno):
    if q < 2:
        raise ParseError("q must be at least 2", lineno)
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
                                "group", lineno)
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


def _parse_group(table, section, header_line) -> SemipatternGroup:
    """The group of a [group] section or of a bench config's [family]."""
    lineno, value = _require(table, "q", section, header_line)
    p, k = _factor_prime_power(_as_int(value, lineno), lineno)
    domain = make_domain(p, k, "field")
    lineno, value = _require(table, "m", section, header_line)
    m = _as_int(value, lineno)
    lineno, value = _require(table, "pattern", section, header_line)
    if value.strip() == "full":
        pattern = full_pattern(m)
    else:
        raw = _as_list(value, lineno)
        if any(not isinstance(pos, list) or len(pos) != 2 for pos in raw):
            raise ParseError("pattern must be a list of [i, j] pairs", lineno)
        pattern = tuple((_as_int(i, lineno), _as_int(j, lineno))
                        for i, j in raw)
    lineno, value = _require(table, "orders", section, header_line)
    orders = [_as_int(d, lineno) for d in _as_list(value, lineno)]
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


def _builtin_constant(pf, token):
    if pf.kind == "group" and token == "I":
        return pf.group.identity()
    if pf.kind == "ring" and token == "0":
        return pf.ring.zero()
    return None


def _resolve_word(pf, tokens, lineno):
    word = []
    for token in tokens:
        if token in pf.variables:
            word.append(token)
            continue
        builtin = _builtin_constant(pf, token)
        if builtin is not None:
            word.append(builtin)
        elif token in pf.constants:
            word.append(pf.constants[token])
        else:
            raise ParseError("unknown letter %r (not a declared variable or "
                             "constant)" % token, lineno)
    return tuple(word)


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
            if letter_token.lstrip("-").isdigit():
                if idx != 0:
                    raise ParseError("coefficient %r must lead its term"
                                     % letter_token, lineno)
                coeff = int(letter_token)
                continue
            builtin = _builtin_constant(pf, letter_token)
            if letter_token in pf.variables:
                letters.append(RVar(letter_token))
            elif builtin is not None:
                letters.append(RConst(builtin))
            elif letter_token in pf.constants:
                letters.append(RConst(pf.constants[letter_token]))
            else:
                raise ParseError("unknown letter %r (not a declared variable "
                                 "or constant)" % letter_token, lineno)
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
            if name in pf.constants or _builtin_constant(pf, name) is not None:
                raise ParseError("variable %r collides with a constant" % name,
                                 lineno)
        pf.variables = names
    lineno, value = _require(table, "lhs", "equation", header_line)
    lhs_tokens = tuple(value.split())
    rhs_lineno, rhs_value = _require(table, "rhs", "equation", header_line)
    rhs_tokens = tuple(rhs_value.split())
    pf.lhs_tokens, pf.rhs_tokens = lhs_tokens, rhs_tokens

    if pf.kind == "group":
        pf.lhs = _resolve_word(pf, lhs_tokens, lineno)
        rhs_word = _resolve_word(pf, rhs_tokens, rhs_lineno)
        if len(rhs_word) == 1 and isinstance(rhs_word[0], GroupElement):
            pf.rhs = rhs_word[0]
        else:
            pf.rhs = rhs_word
    else:
        pf.lhs = _resolve_ring_expr(pf, lhs_tokens, lineno)
        if len(rhs_tokens) == 1:
            token = rhs_tokens[0]
            builtin = _builtin_constant(pf, token)
            if builtin is not None:
                pf.rhs = builtin
            elif token in pf.constants:
                pf.rhs = pf.constants[token]
            elif token.startswith("["):
                pf.rhs = pf.ring.element(
                    _matrix_rows(token, pf.ring.m, rhs_lineno))
            else:
                raise ParseError("ring rhs must be a constant", rhs_lineno)
        else:
            raise ParseError("ring rhs must be a single constant", rhs_lineno)


def parse_problem_file(path) -> ProblemFile:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_problem(handle.read())


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


# -- bench configs -----------------------------------------------------------

_FAMILY_KEYS = {"name", "q", "m", "pattern", "orders", "lengths",
                "variables", "reps"}


def parse_bench_config(text: str):
    """Bench config: repeatable [family] sections describing instance grids."""
    families = []
    for name, header_line, entries in _split_sections(text):
        if name != "family":
            raise ParseError("unknown section [%s] in bench config" % name,
                             header_line)
        table = _entries_to_dict(entries, _FAMILY_KEYS)
        group = _parse_group(table, "family", header_line)
        lineno, value = _require(table, "lengths", "family", header_line)
        lengths = tuple(_as_int(n, lineno) for n in _as_list(value, lineno))
        lineno, value = _require(table, "variables", "family", header_line)
        variables = _as_int(value, lineno)
        reps = 1
        if "reps" in table:
            reps = _as_int(*reversed(table["reps"]))
        label = table["name"][1] if "name" in table else "family%d" % (
            len(families) + 1)
        families.append((label, group, lengths, variables, reps))
    if not families:
        raise ParseError("bench config has no [family] sections")
    return families
