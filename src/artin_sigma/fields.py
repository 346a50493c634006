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
larger one is an InputError.  At M <= 1000 the field's table of zeta powers
holds (M - phi(M)) * phi(M) <= 2.5 * 10^5 integers, one row for a prime M."""


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
            poly, rem = _divmod_monic(poly, cyclotomic_polynomial(d))
            if any(rem):
                raise ArithmeticError("inexact polynomial division")
    return tuple(poly)


def _divmod_monic(a, b):
    """Quotient and remainder of the integer polynomial a by the monic integer
    polynomial b, both as ascending coefficient lists."""
    a = list(a)
    n = len(b) - 1
    q = [0] * (len(a) - n)
    for shift in range(len(a) - 1 - n, -1, -1):
        c = a[shift + n]
        if c:
            q[shift] = c
            for j, bj in enumerate(b):
                a[shift + j] -= c * bj
    return q, a[:n]


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
        """The inverse through the norm: with P the product of the conjugates
        sigma_k(num), k a unit mod M other than 1, read off the field's table
        of zeta powers, num * P is the integer norm N, so the inverse is
        den * P / N, on ints only.  It costs O(phi(M)^3) integer products: a
        dense element at M = 59 takes a tenth of a second, at M = 840 a few
        seconds, and at a prime M near 1000 it stays out of reach.  No CLI
        path calls it (certificates keep their zeta exponents as integers
        mod M); it backs division and negative powers."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        field = self.field
        m = field.order
        conj = [1] + [0] * (field.degree - 1)
        for k in range(2, m):
            if gcd(k, m) == 1:
                sigma = [0] * field.degree
                for i, c in enumerate(self.num):
                    if c:
                        field.add_power(sigma, c, i * k % m)
                conj = field._reduce_product(conj, sigma)
        norm, *rest = field._reduce_product(self.num, conj)
        if norm == 0 or any(rest):
            raise ArithmeticError("norm of a nonzero element is not a nonzero rational")
        if norm < 0:
            norm, conj = -norm, [-c for c in conj]
        return _cyclonum(field, [self.den * c for c in conj], norm)

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
        # the coords of zeta^j for phi(M) <= j < M, each row t times the one
        # before: a shift, plus t^degree's coords times the overflowing top;
        # zeta^j below phi(M) is the unit vector e_j, which is never stored
        top_row = tuple(-c for c in self.phi[:-1])  # t^degree (phi is monic)
        high = [top_row] if order > self.degree else []
        for _ in range(order - self.degree - 1):
            row = high[-1]
            top = row[-1]
            row = (0,) + row[:-1]
            if top:
                row = tuple([c + top * r for c, r in zip(row, top_row)])
            high.append(row)
        self._high = high
        self.zero = _cyclonum(self, (0,) * self.degree, 1)
        self.one = self.coerce(1)

    @property
    def name(self):
        return f"QQ(zeta{self.order})"

    @property
    def zeta(self):
        return self.zeta_power(1)

    def zeta_power(self, k: int) -> CycloNum:
        coords = [0] * self.degree
        self.add_power(coords, 1, k % self.order)
        return _cyclonum(self, coords, 1)

    def add_power(self, coords: list, c: int, j: int) -> None:
        """Add c times the coords of zeta^j, 0 <= j < M, to ``coords`` in
        place: one entry for j below phi(M), else a row of the table."""
        n = self.degree
        if j < n:
            coords[j] += c
        else:
            for i, r in enumerate(self._high[j - n]):
                coords[i] += c * r

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
        m = self.order
        for j in range(n, 2 * n - 1):
            c = prod[j]
            if c:
                self.add_power(out, c, j % m)
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
