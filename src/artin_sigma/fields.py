"""Exact coefficient domains: integers, rationals, prime fields, cyclotomic fields.

Every domain object exposes ``name``, ``zero``, ``one``, ``is_field`` and
``coerce``.  Elements of ``PrimeField`` and ``CyclotomicField`` are small
wrapper objects supporting ordinary arithmetic operators, so polynomial code
can stay agnostic about which domain its coefficients live in.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

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


def _int_poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Divide integer polynomials (ascending coefficients), den monic, no remainder."""
    num = list(num)
    deg_d = len(den) - 1
    quot = [0] * (len(num) - deg_d)
    for i in range(len(num) - 1, deg_d - 1, -1):
        c = num[i]
        quot[i - deg_d] = c
        if c:
            for j, dj in enumerate(den):
                num[i - deg_d + j] -= c * dj
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(order: int) -> tuple[int, ...]:
    """Ascending coefficients of the cyclotomic polynomial of the given order.

    Computed by dividing t^order - 1 by the cyclotomic polynomials of all
    proper divisors of the order.

    >>> cyclotomic_polynomial(1)
    (-1, 1)
    >>> cyclotomic_polynomial(4)
    (1, 0, 1)
    >>> cyclotomic_polynomial(6)
    (1, -1, 1)
    """
    if order < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (order - 1) + [1]
    for d in _divisors(order):
        if d < order:
            poly = _int_poly_div_exact(poly, list(cyclotomic_polynomial(d)))
    return tuple(poly)


# ---------------------------------------------------------------------------
# rational-coefficient polynomial helpers (used for cyclotomic inverses)

def _q_trim(p: list[Fraction]) -> list[Fraction]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _q_divmod(a: list[Fraction], b: list[Fraction]):
    a = list(a)
    q = [Fraction(0)] * max(1, len(a) - len(b) + 1)
    inv_lead = 1 / b[-1]
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        shift = len(a) - len(b)
        c = a[-1] * inv_lead
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


class IntegerDomain:
    name = "ZZ"
    is_field = False
    zero = 0
    one = 1

    def coerce(self, value):
        if isinstance(value, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(value, int):
            return value
        if isinstance(value, Fraction):
            if value.denominator == 1:
                return int(value)
            raise TypeError(f"{value} is not an integer")
        raise TypeError(f"cannot coerce {value!r} into ZZ")

    def __repr__(self):
        return "ZZ"


class RationalDomain:
    name = "QQ"
    is_field = True
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


ZZ = IntegerDomain()
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


class PrimeField:
    def __init__(self, p: int):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise InputError(f"{p} is not prime")
        self.p = p

    @property
    def name(self):
        return f"GF({self.p})"

    is_field = True

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
            return FpElement(self.p, value.numerator) / FpElement(self.p, value.denominator)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return self.name


class CycloNum:
    """An element of a cyclotomic field, coordinates in the power basis of zeta."""

    __slots__ = ("field", "coords")

    def __init__(self, field: "CyclotomicField", coords):
        self.field = field
        coords = tuple(Fraction(c) for c in coords)
        if len(coords) != field.degree:
            raise ValueError("coordinate length mismatch")
        self.coords = coords

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
        return CycloNum(self.field, [a + b for a, b in zip(self.coords, o.coords)])

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return CycloNum(self.field, [a - b for a, b in zip(self.coords, o.coords)])

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return self.field._reduce_product(self.coords, o.coords)

    __rmul__ = __mul__

    def inverse(self) -> "CycloNum":
        if not self:
            raise ZeroDivisionError("inverse of zero")
        g, s, _ = _q_ext_gcd(_q_trim(list(self.coords)), list(map(Fraction, self.field.phi)))
        if len(g) != 1:
            raise ArithmeticError("cyclotomic polynomial not coprime to element")
        inv = [c / g[0] for c in s]
        inv += [Fraction(0)] * (self.field.degree - len(inv))
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
        return CycloNum(self.field, [-c for c in self.coords])

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        return power(self, e, self.field.one)

    def __bool__(self):
        return any(self.coords)

    def __eq__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else self.coords == o.coords

    def __hash__(self):
        return hash((self.field.order, self.coords))

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


class CyclotomicField:
    """Q(zeta_M) as Q[t] modulo the M-th cyclotomic polynomial."""

    def __init__(self, order: int):
        if order < 1:
            raise InputError("order must be a positive integer")
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

    is_field = True

    @property
    def name(self):
        return f"QQ(zeta{self.order})"

    @property
    def zero(self):
        return CycloNum(self, [0] * self.degree)

    @property
    def one(self):
        return self.coerce(1)

    @property
    def zeta(self):
        return self.zeta_power(1)

    def zeta_power(self, k: int) -> CycloNum:
        k %= self.order
        if self.degree == 1:
            # t is congruent to a constant modulo a linear cyclotomic polynomial
            return self.coerce(Fraction(-self.phi[0]) ** k)
        # multiply by t k times: a shift, plus t^degree's row when the top
        # coordinate overflows; the coordinates stay integers
        coords = [1] + [0] * (self.degree - 1)
        for _ in range(k):
            top = coords.pop()
            coords.insert(0, 0)
            if top:
                coords = [c + top * r for c, r in zip(coords, self._red[0])]
        return CycloNum(self, coords)

    def element(self, coords) -> CycloNum:
        return CycloNum(self, coords)

    def coerce(self, value):
        if isinstance(value, CycloNum):
            if value.field != self:
                raise TypeError("mixed cyclotomic fields")
            return value
        if isinstance(value, bool):
            raise TypeError("booleans are not ring elements")
        if isinstance(value, (int, Fraction)):
            coords = [Fraction(value)] + [Fraction(0)] * (self.degree - 1)
            return CycloNum(self, coords)
        raise TypeError(f"cannot coerce {value!r} into {self.name}")

    def _reduce_product(self, a, b) -> CycloNum:
        n = self.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        out = prod[:n]
        for j in range(n, 2 * n - 1):
            c = prod[j]
            if c:
                for i, r in enumerate(self._red[j - n]):
                    out[i] += c * r
        return CycloNum(self, out)

    def __eq__(self, other):
        return isinstance(other, CyclotomicField) and other.order == self.order

    def __hash__(self):
        return hash(("cyclo", self.order))

    def __repr__(self):
        return self.name


def unify_domains(a, b):
    """Smallest common domain along the chain ZZ -> QQ -> QQ(zeta_M)."""
    if a == b:
        return a
    basic = {id(ZZ), id(QQ)}
    if id(a) in basic and id(b) in basic:
        return QQ
    if isinstance(a, CyclotomicField) and id(b) in basic:
        return a
    if isinstance(b, CyclotomicField) and id(a) in basic:
        return b
    raise TypeError(f"no embedding between {a.name} and {b.name}")
