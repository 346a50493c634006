"""Exact coefficient fields: the rationals QQ, prime fields GF(p) and
cyclotomic fields QQ(zeta_M).

Every domain is a field, so every nonzero coefficient is invertible.  Each
domain object exposes ``name``, ``zero``, ``one`` and ``coerce``; plain ints
coerce into any of them.  Elements of ``PrimeField`` and ``CyclotomicField``
are small wrapper objects supporting ordinary arithmetic operators, negative
powers included, so polynomial code can stay agnostic about which field its
coefficients live in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from .errors import InputError


def power(base, e: int, one):
    """base**e for e >= 0 by square-and-multiply, starting from ``one``."""
    out = one
    while e:
        if e & 1:
            out = out * base
        e >>= 1
        if e:
            base = base * base
    return out


def _divisors(n: int) -> list[int]:
    out = [d for d in range(1, n + 1) if n % d == 0]
    return out


MAX_CYCLOTOMIC_ORDER = 1000
"""Largest order M of ``cyclotomic_polynomial`` and ``CyclotomicField``; a
larger one is an InputError.  At M <= 1000 the field's reduction table holds
at most phi(M)^2 < 10^6 integers and builds in well under a second."""


def _check_order(order: int) -> None:
    if order < 1:
        raise InputError("order must be a positive integer")
    if order > MAX_CYCLOTOMIC_ORDER:
        raise InputError(
            f"cyclotomic order {order} is above MAX_CYCLOTOMIC_ORDER = {MAX_CYCLOTOMIC_ORDER}")


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Ascending coefficients of the cyclotomic polynomial of the given order,
    at most MAX_CYCLOTOMIC_ORDER.

    Computed by dividing t^order - 1 by the cyclotomic polynomials of all
    proper divisors of the order.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    _check_order(order)
    poly = [-1] + [0] * (order - 1) + [1]
    for d in _divisors(order):
        if d < order:
            poly, rem = _q_divmod(poly, cyclotomic_polynomial(d))
            if rem:
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


# ---------------------------------------------------------------------------
# rational-coefficient polynomial helpers (cyclotomic polynomials and inverses)

def _q_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _q_divmod(a: list[Fraction], b: list[Fraction]):
    """Quotient and remainder of a by b; integer inputs stay integers when b
    is monic."""
    a = list(a)
    q = [0] * max(1, len(a) - len(b) + 1)
    lead = b[-1]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] if lead == 1 else a[-1] / lead
        q[shift] += c
        for j, bj in enumerate(b):
            a[shift + j] -= c * bj
        _q_trim(a)
    return _q_trim(q), _q_trim(a)


def _q_mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _q_trim(out)


def _q_sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * max(len(a), len(b))
    for i, ai in enumerate(a):
        out[i] += ai
    for i, bi in enumerate(b):
        out[i] -= bi
    return _q_trim(out)


def _q_ext_gcd(a: list[Fraction], b: list[Fraction]):
    """Extended Euclid over Q[t]: returns (g, s, t) with s*a + t*b = g."""
    r0, r1 = list(a), list(b)
    s0, s1 = [Fraction(1)], []
    t0, t1 = [], [Fraction(1)]
    while r1:
        q, r = _q_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _q_sub(s0, _q_mul(q, s1))
        t0, t1 = t1, _q_sub(t0, _q_mul(q, t1))
    return r0, s0, t0


# ---------------------------------------------------------------------------
# domains


class RationalDomain:
    name = "QQ"
    zero = Fraction(0)
    one = Fraction(1)

    def coerce(self, value):
        if isinstance(value, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            return Fraction(value)
        raise TypeError(f"cannot coerce {value!r} into QQ")

    def __repr__(self):
        return "QQ"


QQ = RationalDomain()


class FpElement:
    """An element of a prime field, reduced representative in [0, p)."""

    __slots__ = ("p", "val")

    def __init__(self, p: int, val: int):
        self.p = p
        self.val = val % p

    def _co(self, other):
        if isinstance(other, FpElement):
            if other.p != self.p:
                raise TypeError("mixed prime fields")
            return other
        if isinstance(other, int) and not isinstance(other, bool):
            return FpElement(self.p, other)
        return None

    def __add__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else FpElement(self.p, self.val + o.val)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else FpElement(self.p, self.val - o.val)

    def __rsub__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else FpElement(self.p, o.val - self.val)

    def __mul__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else FpElement(self.p, self.val * o.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if o.val == 0:
            raise ZeroDivisionError("division by zero in prime field")
        return FpElement(self.p, self.val * pow(o.val, -1, self.p))

    def __neg__(self):
        return FpElement(self.p, -self.val)

    def __pow__(self, e: int):
        if e < 0:
            return (FpElement(self.p, 1) / self) ** (-e)
        return FpElement(self.p, pow(self.val, e, self.p))

    def __bool__(self):
        return self.val != 0

    def __eq__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else self.val == o.val

    def __hash__(self):
        return hash((self.p, self.val))

    def __repr__(self):
        return str(self.val)


# Miller-Rabin on the first twelve prime bases is exact below this bound
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", 2017).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MILLER_RABIN_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact for n below
    _MILLER_RABIN_LIMIT (about 3.18e23)."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """GF(p) for a prime p below _MILLER_RABIN_LIMIT, the bound under which
    primality is decided exactly; a larger modulus is an InputError."""

    def __init__(self, p: int):
        if p >= _MILLER_RABIN_LIMIT:
            raise InputError(
                f"modulus {p} is above the primality-test limit {_MILLER_RABIN_LIMIT}")
        if not _is_prime(p):
            raise InputError(f"{p} is not prime")
        self.p = p

    @property
    def name(self):
        return f"GF({self.p})"

    @property
    def zero(self):
        return FpElement(self.p, 0)

    @property
    def one(self):
        return FpElement(self.p, 1)

    def coerce(self, value):
        if isinstance(value, FpElement):
            if value.p != self.p:
                raise TypeError("mixed prime fields")
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(value, int):
            return FpElement(self.p, value)
        if isinstance(value, Fraction):
            if value.denominator % self.p == 0:
                raise ZeroDivisionError(f"denominator of {value} vanishes mod {self.p}")
            return FpElement(self.p, value.numerator * pow(value.denominator, -1, self.p))
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


class CycloNum:
    """An element of a cyclotomic field: integer coordinates ``num`` in the
    power basis of zeta over one positive denominator ``den``, in lowest
    terms (gcd(den, *num) == 1), so equal elements have equal ``num`` and
    ``den``.  ``CycloNum(field, coords)`` accepts any rational coordinates."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: "CyclotomicField", coords):
        coords = [Fraction(c) for c in coords]
        if len(coords) != field.degree:
            raise ValueError("coordinate length mismatch")
        # each Fraction is in lowest terms, so no prime of their lcm divides
        # every scaled numerator
        den = lcm(*(c.denominator for c in coords))
        self.field = field
        self.num = tuple(c.numerator * (den // c.denominator) for c in coords)
        self.den = den

    @property
    def coords(self) -> tuple:
        """The rational coordinates, for printing."""
        return tuple(Fraction(c, self.den) for c in self.num)

    def _co(self, other):
        if isinstance(other, CycloNum):
            if other.field != self.field:
                raise TypeError("mixed cyclotomic fields")
            return other
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            return self.field.coerce(other)
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _cyclonum(self.field, [a + b for a, b in zip(self.num, o.num)], self.den)
        da, db = self.den, o.den
        return _cyclonum(self.field, [a * db + b * da for a, b in zip(self.num, o.num)], da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _cyclonum(self.field, [a - b for a, b in zip(self.num, o.num)], self.den)
        da, db = self.den, o.den
        return _cyclonum(self.field, [a * db - b * da for a, b in zip(self.num, o.num)], da * db)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return _cyclonum(self.field, self.field._reduce_product(self.num, o.num), self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        """The inverse, by extended Euclid over Q[t] against the cyclotomic
        polynomial.  Slow: the Fraction cofactors swell, so one call takes
        seconds for a dense element at M in the fifties and about 15 s at
        M = 840.  No CLI path calls it (certificates keep their zeta
        exponents as integers mod M); it backs division and negative powers."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = _q_ext_gcd(_q_trim(list(map(Fraction, self.num))), list(map(Fraction, self.field.phi)))
        if len(g) != 1:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        scale = self.den / g[0]
        inv = [c * scale for c in s]
        inv += [0] * (self.field.degree - len(inv))
        return CycloNum(self.field, inv[: self.field.degree])

    def __truediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __neg__(self):
        return _cyclonum(self.field, [-c for c in self.num], self.den)

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.field.one)

    def __bool__(self):
        return any(self.num)

    def __eq__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.field.order, self.num, self.den))

    def __repr__(self):
        parts = []
        for i, c in enumerate(self.coords):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            else:
                mono = "zeta" if i == 1 else f"zeta^{i}"
                if c == 1:
                    parts.append(mono)
                elif c == -1:
                    parts.append(f"-{mono}")
                else:
                    parts.append(f"{c}*{mono}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _cyclonum(field: "CyclotomicField", num, den: int) -> CycloNum:
    """The element with integer coordinates num over den > 0, divided through
    by their gcd."""
    g = gcd(den, *num)
    x = object.__new__(CycloNum)
    x.field = field
    if g == 1:
        x.num, x.den = tuple(num), den
    else:
        x.num, x.den = tuple(c // g for c in num), den // g
    return x


class CyclotomicField:
    """Q(zeta_M) as Q[t] modulo the M-th cyclotomic polynomial, for M up to
    MAX_CYCLOTOMIC_ORDER."""

    def __init__(self, order: int):
        _check_order(order)
        self.order = order
        self.phi = cyclotomic_polynomial(order)
        self.degree = len(self.phi) - 1
        # reduction table: coords of t^(degree + j) modulo phi
        red = []
        cur = [-c for c in self.phi[:-1]]  # t^degree (phi is monic)
        red.append(tuple(cur))
        for _ in range(self.degree - 1):
            shifted = [0] + cur[:-1]
            top = cur[-1]
            cur = [s + top * r for s, r in zip(shifted, red[0])]
            red.append(tuple(cur))
        self._red = red
        self.zero = _cyclonum(self, (0,) * self.degree, 1)
        self.one = self.coerce(1)

    @property
    def name(self):
        return f"QQ(zeta{self.order})"

    @property
    def zeta(self):
        return self.zeta_power(1)

    def zeta_power(self, k: int) -> CycloNum:
        k %= self.order
        if self.degree == 1:
            # t is congruent to a constant modulo a linear cyclotomic polynomial
            return self.coerce((-self.phi[0]) ** k)
        # multiply by t k times: a shift, plus t^degree's row when the top
        # coordinate overflows; the coordinates stay integers
        coords = [1] + [0] * (self.degree - 1)
        for _ in range(k):
            top = coords.pop()
            coords.insert(0, 0)
            if top:
                coords = [c + top * r for c, r in zip(coords, self._red[0])]
        return _cyclonum(self, coords, 1)

    def element(self, coords) -> CycloNum:
        return CycloNum(self, coords)

    def coerce(self, value):
        if isinstance(value, CycloNum):
            if value.field != self:
                raise TypeError("mixed cyclotomic fields")
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(value, int):
            return _cyclonum(self, (value,) + (0,) * (self.degree - 1), 1)
        if isinstance(value, Fraction):
            return _cyclonum(self, (value.numerator,) + (0,) * (self.degree - 1), value.denominator)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def _reduce_product(self, a, b) -> list:
        """Integer coordinates of the product of two integer coordinate
        vectors, reduced modulo phi."""
        n = self.degree
        b = [(j, bj) for j, bj in enumerate(b) if bj]
        prod = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in b:
                    prod[i + j] += ai * bj
        out = prod[:n]
        for j in range(n, 2 * n - 1):
            c = prod[j]
            if c:
                for i, r in enumerate(self._red[j - n]):
                    out[i] += c * r
        return out

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("cyclo", self.order))

    def __repr__(self):
        return self.name


def unify_domains(a, b):
    """The common field of a and b: a itself when they are equal, and
    QQ(zeta_M) for QQ with QQ(zeta_M).  Any other pair is a TypeError."""
    if a == b:
        return a
    if a is QQ and isinstance(b, CyclotomicField):
        return b
    if b is QQ and isinstance(a, CyclotomicField):
        return a
    raise TypeError(f"no embedding between {a.name} and {b.name}")
