"""Exact scalar arithmetic: small finite fields GF(p^k) and modular rings Z_{p^a}.

Domains and their elements are immutable values, so they are safe to share,
hash, and use as dictionary keys.  Extension fields use a polynomial basis
modulo a monic irreducible polynomial; a built-in table covers every
extension field of order <= 32.  Their products and inverses read per-field
log/antilog tables over a generator of the multiplicative group.  Elements are always kept in canonical form
(a residue, or a fixed-length coefficient tuple), which makes equality
structural and cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import mul


class DomainError(ValueError):
    """Bad domain description or out-of-domain operand."""


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


def _poly_trim(coeffs):
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_rem(a, b, p):
    """Remainder of a modulo monic b, coefficients in Z_p, lowest degree first."""
    a = [x % p for x in a]
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i]
        if c:
            for j in range(db + 1):
                a[i - db + j] = (a[i - db + j] - c * b[j]) % p
    return _poly_trim(a[:db])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _poly_trim(out)


def _monic_polys(p, degree):
    """All monic polynomials of the given degree over Z_p."""
    def rec(prefix, left):
        if left == 0:
            yield prefix + [1]
            return
        for c in range(p):
            yield from rec(prefix + [c], left - 1)
    yield from rec([], degree)


def is_irreducible(coeffs, p) -> bool:
    """Trial-division irreducibility test for a monic polynomial over Z_p."""
    c = _poly_trim([x % p for x in coeffs])
    deg = len(c) - 1
    if deg < 1 or c[-1] != 1:
        return False
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for cand in _monic_polys(p, d):
            if not _poly_rem(c, cand, p):
                return False
    return True


class Scalar:
    """An element of a ScalarDomain, stored as a canonical raw value."""

    __slots__ = ("domain", "raw")

    def __init__(self, domain, raw):
        self.domain = domain
        self.raw = raw

    def _coerce(self, other):
        if isinstance(other, Scalar):
            if other.domain != self.domain:
                raise DomainError("mixed scalar domains: %s vs %s"
                                  % (self.domain, other.domain))
            return other
        if isinstance(other, int):
            return self.domain.scalar(other)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain.radd(self.raw, other.raw))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain.rsub(self.raw, other.raw))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain.rsub(other.raw, self.raw))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return Scalar(self.domain, self.domain.rmul(self.raw, other.raw))

    __rmul__ = __mul__

    def __neg__(self):
        return Scalar(self.domain, self.domain.rneg(self.raw))

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.domain.rone
        base = self.raw
        while n:
            if n & 1:
                result = self.domain.rmul(result, base)
            base = self.domain.rmul(base, base)
            n >>= 1
        return Scalar(self.domain, result)

    def inverse(self) -> "Scalar":
        return Scalar(self.domain, self.domain.rinv(self.raw))

    def is_unit(self) -> bool:
        return self.domain.runit(self.raw)

    def is_zero(self) -> bool:
        return self.raw == self.domain.rzero

    def key(self) -> int:
        """Canonical integer encoding, used for deterministic ordering."""
        return self.domain.encode(self.raw)

    def __eq__(self, other):
        if isinstance(other, Scalar):
            return self.domain == other.domain and self.raw == other.raw
        if isinstance(other, int):
            try:
                return self.raw == self.domain.scalar(other).raw
            except DomainError:
                return False
        return NotImplemented

    def __hash__(self):
        return hash((self.domain, self.raw))

    def __repr__(self):
        return str(self.domain.encode(self.raw))


@dataclass(frozen=True)
class FiniteField:
    """GF(p^k); raw values are residues (k = 1) or coefficient tuples (k > 1)."""

    p: int
    k: int = 1
    modpoly: tuple = None  # defining polynomial, low degree first, monic

    kind = "field"

    @property
    def size(self) -> int:
        return self.p ** self.k

    @property
    def exponent(self) -> int:
        return self.k

    @property
    def rzero(self):
        return 0 if self.k == 1 else (0,) * self.k

    @property
    def rone(self):
        return 1 if self.k == 1 else (1,) + (0,) * (self.k - 1)

    def radd(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        return tuple((x + y) % self.p for x, y in zip(a, b))

    def rsub(self, a, b):
        if self.k == 1:
            return (a - b) % self.p
        return tuple((x - y) % self.p for x, y in zip(a, b))

    def rneg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return tuple((-x) % self.p for x in a)

    @cached_property
    def _log_tables(self):
        """(log, exp) for k > 1, from a generator g of GF(q)*: log maps each
        nonzero raw value x to the i in [0, q - 1) with g^i = x, and
        exp[i] = g^(i mod (q - 1)) for i < 2(q - 1), so that a product of two
        nonzeros is exp[log[a] + log[b]].  Built once per field, by
        polynomial arithmetic modulo the defining polynomial."""
        order, p, k = self.size - 1, self.p, self.k
        for v in range(2, self.size):
            g, powers = list(self.decode(v)), [self.rone]
            while len(powers) < order:
                rem = _poly_rem(_poly_mul(list(powers[-1]), g, p),
                                list(self.modpoly), p)
                if rem == [1]:
                    break
                powers.append(tuple(rem + [0] * (k - len(rem))))
            if len(powers) == order:
                return {x: i for i, x in enumerate(powers)}, powers * 2
        raise DomainError("%r has no multiplicative generator" % self)

    def rmul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        log, exp = self._log_tables
        i, j = log.get(a), log.get(b)
        if i is None or j is None:
            return self.rzero
        return exp[i + j]

    def rdot(self, xs, ys):
        """Sum of the products xs[i] * ys[i]; zero for empty sequences."""
        if self.k == 1:
            return sum(map(mul, xs, ys)) % self.p
        return reduce(self.radd, map(self.rmul, xs, ys), self.rzero)

    def rinv(self, a):
        if a == self.rzero:
            raise DomainError("zero is not invertible in %s" % self)
        if self.k == 1:
            return pow(a, self.p - 2, self.p)
        log, exp = self._log_tables
        return exp[len(log) - log[a]]

    def runit(self, a) -> bool:
        return a != self.rzero

    def encode(self, raw) -> int:
        if self.k == 1:
            return raw
        total = 0
        for c in reversed(raw):
            total = total * self.p + c
        return total

    def decode(self, value: int):
        if self.k == 1:
            return value % self.p
        if not 0 <= value < self.size:
            raise DomainError("value %d out of range for %s" % (value, self))
        digits = []
        for _ in range(self.k):
            digits.append(value % self.p)
            value //= self.p
        return tuple(digits)

    def scalar(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.domain != self:
                raise DomainError("scalar belongs to %s, not %s" % (value.domain, self))
            return value
        if isinstance(value, int):
            if self.k == 1:
                return Scalar(self, value % self.p)
            return Scalar(self, self.decode(value))
        if isinstance(value, (tuple, list)):
            if self.k == 1 or len(value) != self.k:
                raise DomainError("coefficient vector of length %d expected" % self.k)
            return Scalar(self, tuple(int(c) % self.p for c in value))
        raise DomainError("cannot interpret %r as an element of %s" % (value, self))

    def zero(self) -> Scalar:
        return Scalar(self, self.rzero)

    def one(self) -> Scalar:
        return Scalar(self, self.rone)

    @cached_property
    def _element_tuple(self):
        return tuple(Scalar(self, self.decode(v)) for v in range(self.size))

    def elements(self):
        return self._element_tuple

    def units(self):
        return self._element_tuple[1:]

    def __repr__(self):
        return "GF(%d)" % self.size


@dataclass(frozen=True)
class ModularRing:
    """Z_{p^alpha} with canonical residues; units are residues coprime to p."""

    p: int
    alpha: int

    kind = "modular"
    rzero = 0
    rone = 1

    @property
    def size(self) -> int:
        return self.p ** self.alpha

    @property
    def exponent(self) -> int:
        return self.alpha

    def radd(self, a, b):
        return (a + b) % self.size

    def rsub(self, a, b):
        return (a - b) % self.size

    def rneg(self, a):
        return (-a) % self.size

    def rmul(self, a, b):
        return (a * b) % self.size

    def rinv(self, a):
        if a % self.p == 0:
            raise DomainError("%d is not a unit in %s" % (a, self))
        return pow(a, -1, self.size)

    def runit(self, a) -> bool:
        return a % self.p != 0

    def encode(self, raw) -> int:
        return raw

    def decode(self, value: int):
        return value % self.size

    def scalar(self, value) -> Scalar:
        if isinstance(value, Scalar):
            if value.domain != self:
                raise DomainError("scalar belongs to %s, not %s" % (value.domain, self))
            return value
        if isinstance(value, int):
            return Scalar(self, value % self.size)
        raise DomainError("cannot interpret %r as an element of %s" % (value, self))

    def zero(self) -> Scalar:
        return Scalar(self, 0)

    def one(self) -> Scalar:
        return Scalar(self, 1)

    @cached_property
    def _element_tuple(self):
        return tuple(Scalar(self, v) for v in range(self.size))

    def elements(self):
        return self._element_tuple

    def units(self):
        return tuple(s for s in self._element_tuple if self.runit(s.raw))

    def __repr__(self):
        return "Z(%d)" % self.size


ScalarDomain = (FiniteField, ModularRing)


def make_domain(p: int, exponent: int = 1, kind: str = "field",
                irreducible=None):
    """Build a validated GF(p^exponent) or Z_{p^exponent} domain.

    For extension fields a monic irreducible defining polynomial may be
    supplied (coefficients, lowest degree first); otherwise a built-in one
    is used for orders up to 32.
    """
    if not is_prime(p):
        raise DomainError("p = %d is not prime" % p)
    if exponent < 1:
        raise DomainError("exponent must be positive, got %d" % exponent)
    if kind == "modular":
        if irreducible is not None:
            raise DomainError("modular domains take no defining polynomial")
        return ModularRing(p, exponent)
    if kind != "field":
        raise DomainError("unknown domain kind %r" % kind)
    if exponent == 1:
        return FiniteField(p, 1, None)
    if irreducible is None:
        q = p ** exponent
        if q not in _BUILTIN_POLYS:
            raise DomainError(
                "no built-in defining polynomial for GF(%d); supply one" % q)
        irreducible = _BUILTIN_POLYS[q]
    coeffs = tuple(int(c) % p for c in irreducible)
    if len(_poly_trim(coeffs)) - 1 != exponent:
        raise DomainError("defining polynomial must have degree %d" % exponent)
    if not is_irreducible(coeffs, p):
        raise DomainError("defining polynomial %r is reducible over GF(%d)"
                          % (list(coeffs), p))
    return FiniteField(p, exponent, coeffs)


def element_order(x: Scalar) -> int:
    """Least e >= 1 with x^e = 1; x must be a unit."""
    if not x.is_unit():
        raise DomainError("%r is not a unit in %s" % (x, x.domain))
    one = x.domain.rone
    acc = x.raw
    e = 1
    while acc != one:
        acc = x.domain.rmul(acc, x.raw)
        e += 1
    return e


@dataclass(frozen=True)
class MultSubgroup:
    """The unique order-d subgroup {x : x^d = 1} of the cyclic group GF(q)*."""

    domain: FiniteField
    order: int
    elements: tuple

    def __contains__(self, x) -> bool:
        return any(x == e for e in self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return self.order

    def __repr__(self):
        return "{%s}" % ", ".join(repr(e) for e in self.elements)


def subgroup_of_order(domain, d: int) -> MultSubgroup:
    """Multiplicative subgroup of GF(q)* of order d; requires d | q - 1."""
    if getattr(domain, "kind", None) != "field":
        raise DomainError("multiplicative subgroups require a field domain")
    q = domain.size
    if d < 1 or (q - 1) % d != 0:
        raise DomainError("order %d does not divide q - 1 = %d" % (d, q - 1))
    members = [x for x in domain.units() if (x ** d).raw == domain.rone]
    members.sort(key=Scalar.key)
    if len(members) != d:
        raise DomainError("expected %d solutions of x^%d = 1, found %d"
                          % (d, d, len(members)))
    return MultSubgroup(domain, d, tuple(members))
