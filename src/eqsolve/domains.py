"""Exact scalar arithmetic: residue rings Z_{p^a} and finite fields GF(p^k).

Domains are immutable values, safe to share, hash and use as dictionary
keys.  ModularRing is residue arithmetic mod p^a; PrimeField, GF(p), is the
same arithmetic mod p as a field, differing from Z_p only in kind and repr.
FiniteField is GF(p^k) for k >= 2, in a polynomial basis modulo a built-in
monic irreducible polynomial (orders up to 32), with products and powers
read from per-field log/antilog tables.  Every domain's raw value is its
canonical integer: a residue, or over GF(p^k) the integer whose base-p
digits are the polynomial's coefficients, so raws print and order as they
are.  A domain's r* methods are its arithmetic, elements() and
units() list its raw values in canonical order, and coerce() is the one
conversion of user input.
Square matrices of residues (group elements over GF(p), ring elements over
Z_{p^a}) multiply, add and scale through kernels compiled once per modulus,
size and operation (residue_matmul, residue_matadd, residue_matscale).
MatrixStructure reads a group's or ring's free entries, its slots, through
slot_entries into its order, base element, membership and enumeration,
and lays them out as the unknowns and letters of both reductions.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

from .poly import slot_letter


class DomainError(ValueError):
    """Bad domain description or out-of-domain operand."""


# Construction limits, checked before anything is built: a slot over a whole
# scalar domain holds every residue in one tuple, and a structure's size m
# sets the grids, layouts and unrolled kernels it builds.
DOMAIN_LIMIT = 2 ** 20   # most residues in one scalar domain
MATRIX_LIMIT = 64        # largest matrix size m


def exceeds_domain_limit(p: int, exponent: int) -> bool:
    """p^exponent > DOMAIN_LIMIT, for exponent >= 1.  exponent * log2(p),
    rounded down, is compared first, so a huge power is never computed."""
    return (exponent * (p.bit_length() - 1) >= DOMAIN_LIMIT.bit_length()
            or p ** exponent > DOMAIN_LIMIT)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Monic irreducible defining polynomials for the built-in extension fields,
# lowest degree first, leading coefficient included.
_BUILTIN_POLYS = {
    4: (1, 1, 1),            # z^2 + z + 1        over GF(2)
    8: (1, 1, 0, 1),         # z^3 + z + 1        over GF(2)
    9: (1, 0, 1),            # z^2 + 1            over GF(3)
    16: (1, 1, 0, 0, 1),     # z^4 + z + 1        over GF(2)
    25: (2, 0, 1),           # z^2 + 2            over GF(5)
    27: (1, 2, 0, 1),        # z^3 + 2z + 1       over GF(3)
    32: (1, 0, 1, 0, 0, 1),  # z^5 + z^2 + 1      over GF(2)
}


class _IntRaws:
    """Raw values are the ints 0 .. size - 1, in canonical order."""

    rzero = 0
    rone = 1

    @cached_property
    def _element_tuple(self):
        return tuple(range(self.size))

    def elements(self):
        return self._element_tuple

    def __contains__(self, raw) -> bool:
        """raw in elements(), without a scan: an int below 2^61 - 1 hashes
        to itself, and whatever equals it hashes as it does."""
        if type(raw) is int:
            return 0 <= raw < self.size
        try:
            h = hash(raw)
        except TypeError:   # unhashable, so equal to no int
            return False
        return 0 <= h < self.size and h == raw


@dataclass(frozen=True)
class FiniteField(_IntRaws):
    """GF(p^k) for k >= 2; the raw value sum c_i p^i is the polynomial
    sum c_i z^i, its base-p digits c_i the coefficients."""

    p: int
    k: int
    modpoly: tuple  # defining polynomial, low degree first, monic

    kind = "field"

    def __post_init__(self):
        if self.k < 2:
            raise DomainError("FiniteField needs k >= 2, got k = %d" % self.k)

    @cached_property
    def size(self) -> int:
        return self.p ** self.k

    def _scaled(self, c, a):
        """c * a digitwise mod p, for an integer c."""
        p, total, place = self.p, 0, 1
        while a:
            total += c * a % p * place
            a //= p
            place *= p
        return total

    def radd(self, a, b):
        p, total, place = self.p, 0, 1
        while a or b:
            total += (a + b) % p * place
            a //= p
            b //= p
            place *= p
        return total

    def rneg(self, a):
        return self._scaled(-1, a)

    @cached_property
    def _log_tables(self):
        """(log, exp) from a generator g of GF(q)*: log[x] is the i in
        [0, q - 1) with g^i = x for each nonzero x (log[0] is None), and
        exp[i] = g^(i mod (q - 1)) for i < 2(q - 1), so that a product of
        two nonzeros is exp[log[a] + log[b]].  Built once per field by a
        shift-and-reduce product modulo the defining polynomial."""
        p, q = self.p, self.size
        # z^k = -(the lower terms of modpoly), so a digit c shifted past
        # z^(k-1) comes back as c * wrap
        wrap = self._scaled(-1, sum(c * p ** i
                                    for i, c in enumerate(self.modpoly[:-1])))
        wraps = [self._scaled(c, wrap) for c in range(p)]

        def times(a, g):   # a * g, Horner over g's digits from the top
            acc = 0
            for place in reversed(range(self.k)):
                top, acc = divmod(acc * p, q)
                digit = g // p ** place % p
                acc = self.radd(self.radd(acc, wraps[top]),
                                self._scaled(digit, a) if digit else 0)
            return acc

        for g in range(2, q):
            powers = [1]
            while len(powers) < q - 1:
                x = times(powers[-1], g)
                if x == 1:
                    break
                powers.append(x)
            if len(powers) == q - 1:
                log = [None] * q
                for i, x in enumerate(powers):
                    log[x] = i
                return log, powers * 2
        raise DomainError("%r has no multiplicative generator" % self)

    def rmul(self, a, b):
        if a and b:
            log, exp = self._log_tables
            return exp[log[a] + log[b]]
        return 0

    def rdot(self, xs, ys):
        """Sum of the products xs[i] * ys[i]; zero for empty sequences."""
        return reduce(self.radd, map(self.rmul, xs, ys), 0)

    def rpow(self, a, n: int):
        """a^n for n >= 0, read from the log tables."""
        if not a:
            return 1 if n == 0 else 0
        log, exp = self._log_tables
        return exp[log[a] * n % (self.size - 1)]

    def coerce(self, value):
        """The raw value, an int, of an int below q or of a vector of ints."""
        if isinstance(value, int):
            if value not in self:
                raise DomainError("value %d out of range for %s"
                                  % (value, self))
            return int(value)
        if isinstance(value, (tuple, list)):
            if len(value) != self.k:
                raise DomainError("coefficient vector of length %d expected"
                                  % self.k)
            if not all(isinstance(c, int) for c in value):
                raise DomainError("coefficients must be integers, got %r"
                                  % (value,))
            return sum(c % self.p * self.p ** i for i, c in enumerate(value))
        raise DomainError("cannot interpret %r as an element of %s"
                          % (value, self))

    def units(self):
        return self._element_tuple[1:]

    def __repr__(self):
        return "GF(%d)" % self.size


@dataclass(frozen=True)
class ModularRing(_IntRaws):
    """Z_{p^alpha} with canonical residues; units are residues coprime to p."""

    p: int
    alpha: int

    kind = "modular"

    @cached_property
    def size(self) -> int:
        return self.p ** self.alpha

    def radd(self, a, b):
        return (a + b) % self.size

    def rneg(self, a):
        return (-a) % self.size

    def rmul(self, a, b):
        return (a * b) % self.size

    def rpow(self, a, n: int):
        """a^n for n >= 0."""
        return pow(a, n, self.size)

    def coerce(self, value):
        """The residue of an integer."""
        if isinstance(value, int):
            return value % self.size
        raise DomainError("cannot interpret %r as an element of %s"
                          % (value, self))

    @cached_property
    def _unit_tuple(self):
        return tuple(v for v in self._element_tuple if v % self.p)

    def units(self):
        return self._unit_tuple

    def __repr__(self):
        return "Z(%d)" % self.size


@dataclass(frozen=True)
class PrimeField(ModularRing):
    """GF(p): the residues mod p, with Z_p's arithmetic, as a field."""

    alpha: int = field(default=1, init=False)

    kind = "field"

    def __repr__(self):
        return "GF(%d)" % self.p


def make_domain(p: int, exponent: int = 1, kind: str = "field"):
    """Build a validated GF(p^exponent) or Z_{p^exponent} domain; an
    extension field uses the built-in defining polynomial of its order.
    p and exponent must be ints (operator.index): a float or a string
    raises TypeError."""
    p, exponent = operator.index(p), operator.index(exponent)
    if exponent < 1:
        raise DomainError("exponent must be positive, got %d" % exponent)
    # before the primality test, whose trial division grows with p
    if exceeds_domain_limit(p, exponent):
        raise DomainError("%d^%d residues exceed the limit of 2^20 per domain"
                          % (p, exponent))
    if not is_prime(p):
        raise DomainError("p = %d is not prime" % p)
    if kind == "modular":
        return ModularRing(p, exponent)
    if kind != "field":
        raise DomainError("unknown domain kind %r" % kind)
    if exponent == 1:
        return PrimeField(p)
    q = p ** exponent
    if q not in _BUILTIN_POLYS:
        raise DomainError("no built-in defining polynomial for GF(%d)" % q)
    return FiniteField(p, exponent, _BUILTIN_POLYS[q])


def subgroup_of_order(domain, d: int) -> tuple:
    """The unique order-d subgroup {x : x^d = 1} of the cyclic group GF(q)*,
    its raw values in ascending order; requires d | q - 1."""
    if getattr(domain, "kind", None) != "field":
        raise DomainError("multiplicative subgroups require a field domain")
    q = domain.size
    if d < 1 or (q - 1) % d != 0:
        raise DomainError("order %d does not divide q - 1 = %d" % (d, q - 1))
    # GF(q)* is cyclic, so x -> x^((q-1)/d) maps the units onto the d roots
    e = (q - 1) // d
    roots = set()
    for x in domain.units():
        roots.add(domain.rpow(x, e))
        if len(roots) == d:
            break
    members = tuple(sorted(roots))
    if len(members) != d:
        raise DomainError("expected %d solutions of x^%d = 1, found %d"
                          % (d, d, len(members)))
    return members


# -- unrolled residue-matrix kernels -------------------------------------------
#
# A kernel takes two matrices as tuples of row tuples (or, to scale, one
# matrix and an integer).  Its source spells out every entry, so a product
# costs one arithmetic expression per entry and no Python-level loop.  The
# source is formatted with %d from integers checked here; its only other
# text is fixed.

def _grid_kernel(n, m, entry, scalar=False):
    """Compile def kernel(a, b) over the row tuples of an m x m matrix a of
    residues mod n and b, another such matrix or, with scalar, one integer:
    it unpacks the matrices' entries into locals a<i>_<j> (and b<i>_<j>)
    and returns the m x m tuple of the expressions entry(i, j)."""
    if not (isinstance(n, int) and isinstance(m, int) and n >= 1 and m >= 1):
        raise DomainError("kernel needs a positive modulus and size, got %r, %r"
                          % (n, m))

    def rows(cell):
        return "".join("(%s,), " % ", ".join(cell(i, j) for j in range(m))
                       for i in range(m))

    def unpack(x):
        return "    %s= %s\n" % (rows(lambda i, j: "%s%d_%d" % (x, i, j)), x)

    source = "def kernel(a, b):\n%s%s    return %s\n" % (
        unpack("a"), "" if scalar else unpack("b"), rows(entry))
    namespace = {}
    exec(compile(source, "<residue kernel>", "exec"), namespace)
    return namespace["kernel"]


@lru_cache(maxsize=None)
def residue_matmul(n: int, m: int, upper: bool):
    """kernel(a, b): the product of two m x m matrices of residues mod n,
    each entry one unrolled (a[i][l] * b[l][j] + ...) % n.  With upper the
    factors are read as upper triangular: entry (i, j) sums over
    i <= l <= j only, and every entry below the diagonal is a literal 0.
    Compiling costs about 0.3 ms at m = 4 and grows as m^3."""
    def entry(i, j):
        if upper and j < i:
            return "0"
        return "(%s) %% %d" % (" + ".join(
            "a%d_%d * b%d_%d" % (i, l, l, j)
            for l in (range(i, j + 1) if upper else range(m))), n)

    return _grid_kernel(n, m, entry)


@lru_cache(maxsize=None)
def residue_matadd(n: int, m: int):
    """kernel(a, b): a + b for two m x m matrices of residues mod n, each
    entry one (a[i][j] + b[i][j]) % n."""
    return _grid_kernel(n, m, lambda i, j: "(a%d_%d + b%d_%d) %% %d"
                        % (i, j, i, j, n))


@lru_cache(maxsize=None)
def residue_matscale(n: int, m: int):
    """kernel(a, c): c * a for an m x m matrix a of residues mod n and an
    integer c, each entry one (a[i][j] * c) % n."""
    return _grid_kernel(n, m, lambda i, j: "(a%d_%d * b) %% %d" % (i, j, n),
                        scalar=True)


# -- free entries of a matrix structure ----------------------------------------

def slot_entries(slot):
    """The raws coeff * v, v in values, that a slot (i, j, coeff, values)
    puts at its entry, in order: values for coeff 1; otherwise values is a
    ring's range(p^(a-1)) and coeff p, so the image is a range below p^a."""
    _, _, c, values = slot
    return values if c == 1 else range(0, c * len(values), c)


class MatrixStructure:
    """Everything a matrix structure's slots say, read in one place.  A
    subclass is a frozen dataclass with m, a domain and slots, one
    (i, j, coeff, values) per free entry in canonical element order; its
    class names _element (called with the structure and raw rows), _error
    and _owner, the attribute by which an element names its structure.
    _outside(i, j, v) words the error for a raw v at (i, j), and
    _slot_name(i, j, k) names slot (i, j) of unknown k."""

    _row_orders = None   # per-row diagonal orders d, cut as y^d = 1

    @cached_property
    def order(self) -> int:
        return math.prod(len(values) for *_, values in self.slots)

    @cached_property
    def _base(self):
        """Every slot at its first entry, 0 elsewhere: a group's identity
        (each subgroup tuple is sorted, so it starts with 1), a ring's zero."""
        rows = [[0] * self.m for _ in range(self.m)]
        for slot in self.slots:
            rows[slot[0]][slot[1]] = slot_entries(slot)[0]
        return self._element(self, tuple(map(tuple, rows)))

    @cached_property
    def _membership_plan(self) -> tuple:
        """Row-major (i, j, allowed) for each entry that no slot leaves free
        over the whole domain: allowed is its slot's entries (a range or a
        frozenset, so a test is O(1) in time and size), or {0} where no
        slot lies."""
        entries = {slot[:2]: slot_entries(slot) for slot in self.slots}
        plan = ((i, j, entries.get((i, j), (0,)))
                for i in range(self.m) for j in range(self.m))
        return tuple((i, j, a if isinstance(a, range) else frozenset(a))
                     for i, j, a in plan if len(a) < self.domain.size)

    def element(self, rows):
        """Build a validated element from an m x m grid of entries, each
        anything the domain's coerce() takes."""
        m = self.m
        if len(rows) != m or any(len(r) != m for r in rows):
            raise self._error("element grid must be %d x %d" % (m, m))
        coerce = self.domain.coerce
        return self._member(tuple(tuple(map(coerce, r)) for r in rows))

    def _member(self, raw):
        """The element of raw rows that pass the membership check."""
        self._check_membership(raw)
        return self._element(self, raw)

    def _own(self, value, what):
        """value, if it is an element of this structure; otherwise the
        structure's error says that what is from a different one."""
        if getattr(value, self._owner, None) is not self:
            raise self._error("%s from a different %s" % (what, self._owner))
        return value

    def _check_membership(self, raw):
        for i, j, allowed in self._membership_plan:
            if raw[i][j] not in allowed:
                raise self._error(self._outside(i, j, raw[i][j]))

    def elements(self):
        """All elements in canonical (slot) order: each fill of the slots
        is picked into row-major entries over the base's, and equal rows
        share one tuple."""
        m, slots = self.m, self.slots
        at = {slot[:2]: k for k, slot in enumerate(slots)}
        base = tuple(itertools.chain(*self._base.rows))
        # indices into fill + base; the trailing 0 keeps m = 1 a tuple
        pick = operator.itemgetter(*[at.get(divmod(e, m), len(slots) + e)
                                     for e in range(m * m)], 0)
        cuts = [slice(i * m, (i + 1) * m) for i in range(m)]
        share = {}.setdefault
        for fill in itertools.product(*map(slot_entries, slots)):
            entries = pick(fill + base)
            rows = [entries[cut] for cut in cuts]
            yield self._element(self, tuple(map(share, rows, rows)))

    def unknown(self, k: int, formal=False) -> tuple:
        """Unknown k's record (layout, letter, slot domains), built once per
        (structure, k, formal): its slots (i, j, coeff, var, values), var
        named by _slot_name, less, unless formal, each one-value slot (a
        group row of order 1 keeps the base's 1); unless formal, the letter
        cuts y^d = 1 in each diagonal slot of a row of order d (_row_orders).
        The slot domains map each slot variable to its values."""
        return self._lay_out(k, bool(formal))

    @lru_cache(maxsize=None)
    def _lay_out(self, k, formal):
        layout = tuple((i, j, coeff, self._slot_name(i, j, k), values)
                       for i, j, coeff, values in self.slots
                       if formal or len(values) > 1)
        return (layout, slot_letter(self.domain, self._base.rows, layout,
                                    None if formal else self._row_orders),
                {var: values for _, _, _, var, values in layout})

    def letters(self, word, unknown_letters) -> list:
        """slot_grid_sum's letter per word position: unknown_letters[name]
        for a name, slot_letter's rows for a constant of this structure."""
        return [unknown_letters[x] if isinstance(x, str) else slot_letter(
            self.domain, self._own(x, "constant letter").rows) for x in word]
