"""Multivariate Laurent polynomials with exact coefficients.

Terms are stored sparsely as a dict mapping exponent tuples (aligned with the
variable list, negative entries allowed) to nonzero coefficients from one of
the domains in :mod:`artin_sigma.fields`.

>>> p = parse_poly("1+u*v", ("u", "v"))
>>> q = parse_poly("(u*v)^2 - 1", ("u", "v"))
>>> print((p * q).to_string())
u^3*v^3 + u^2*v^2 - u*v - 1
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, log10

from .errors import MAX_COEFFICIENT_DIGITS, InputError
from .fields import QQ, CycloNum, FpElement, PrimeField, power, unify_domains


def _infer_domain(value):
    if isinstance(value, bool):
        raise TypeError("booleans are not ring elements")
    if isinstance(value, (int, Fraction)):
        return QQ
    if isinstance(value, FpElement):
        return PrimeField(value.p)
    if isinstance(value, CycloNum):
        return value.field
    raise TypeError(f"unsupported coefficient {value!r}")


class LaurentPoly:
    __slots__ = ("variables", "terms", "domain")

    def __init__(self, variables, terms, domain):
        self.variables = tuple(variables)
        n = len(self.variables)
        clean = {}
        for exps, coeff in terms.items():
            if len(exps) != n:
                raise ValueError("exponent tuple does not match variable list")
            coeff = domain.coerce(coeff)
            if coeff == domain.zero:
                continue
            clean[tuple(exps)] = coeff
        self.terms = clean
        self.domain = domain

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, variables, domain=QQ):
        return cls(variables, {}, domain)

    @classmethod
    def constant(cls, value, variables, domain=None):
        if domain is None:
            domain = _infer_domain(value)
        return cls(variables, {(0,) * len(tuple(variables)): value}, domain)

    @classmethod
    def variable(cls, name, variables, domain=QQ, power=1):
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"unknown variable {name!r}")
        exps = tuple(power if v == name else 0 for v in variables)
        return cls(variables, {exps: domain.one}, domain)

    @classmethod
    def monomial(cls, coeff, exps, variables, domain=None):
        if domain is None:
            domain = _infer_domain(coeff)
        return cls(variables, {tuple(exps): coeff}, domain)

    def _new(self, terms, domain=None):
        return LaurentPoly(self.variables, terms, domain or self.domain)

    # -- structure -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or set(self.terms) == {(0,) * len(self.variables)}

    def constant_value(self):
        if not self.terms:
            return self.domain.zero
        if not self.is_constant():
            raise ValueError("not a constant polynomial")
        return self.terms[(0,) * len(self.variables)]

    def min_exponents(self):
        """Per-variable minimum exponent over all terms (zero poly -> all 0)."""
        n = len(self.variables)
        if not self.terms:
            return (0,) * n
        mins = [min(e[i] for e in self.terms) for i in range(n)]
        return tuple(mins)

    # -- arithmetic ----------------------------------------------------

    def _pair(self, other):
        if isinstance(other, LaurentPoly):
            if other.variables != self.variables:
                raise ValueError("variable lists differ")
            dom = unify_domains(self.domain, other.domain)
            return self.coerce_to(dom), other.coerce_to(dom)
        try:
            dom = unify_domains(self.domain, _infer_domain(other))
        except TypeError:
            return None, None
        return self.coerce_to(dom), LaurentPoly.constant(dom.coerce(other), self.variables, dom)

    def __add__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, a.domain.zero) + c
        return LaurentPoly(a.variables, terms, a.domain)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        terms = dict(a.terms)
        for e, c in b.terms.items():
            terms[e] = terms.get(e, a.domain.zero) - c
        return LaurentPoly(a.variables, terms, a.domain)

    def __rsub__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        return b - a

    def __neg__(self):
        return self._new({e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        a, b = self._pair(other)
        if a is None:
            return NotImplemented
        terms: dict = {}
        zero = a.domain.zero
        for e1, c1 in a.terms.items():
            for e2, c2 in b.terms.items():
                key = tuple(x + y for x, y in zip(e1, e2))
                terms[key] = terms.get(key, zero) + c1 * c2
        return LaurentPoly(a.variables, terms, a.domain)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int):
            raise TypeError("exponent must be an integer")
        if e < 0:
            if len(self.terms) != 1:
                raise InputError("negative power of a non-monomial")
            ((exps, coeff),) = self.terms.items()
            inv_coeff = coeff ** -1
            inv = LaurentPoly.monomial(inv_coeff, tuple(-x for x in exps), self.variables, self.domain)
            return inv ** (-e)
        return power(self, e, LaurentPoly.constant(self.domain.one, self.variables, self.domain))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, FpElement, CycloNum)):
            a, b = self._pair(other)
            if a is None:
                return NotImplemented
            return a.terms == b.terms
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.variables != other.variables:
            return False
        try:
            a, b = self._pair(other)
        except TypeError:
            return False
        return a.terms == b.terms

    __hash__ = None

    # -- conversions ---------------------------------------------------

    def coerce_to(self, domain) -> "LaurentPoly":
        if domain == self.domain:
            return self
        return LaurentPoly(self.variables, dict(self.terms), domain)

    def reorder_variables(self, new_variables) -> "LaurentPoly":
        new_variables = tuple(new_variables)
        if sorted(new_variables) != sorted(self.variables):
            raise ValueError("new variable list must be a permutation")
        perm = [self.variables.index(v) for v in new_variables]
        terms = {tuple(e[i] for i in perm): c for e, c in self.terms.items()}
        return LaurentPoly(new_variables, terms, self.domain)

    def extend_variables(self, new_variables) -> "LaurentPoly":
        new_variables = tuple(new_variables)
        pos = {}
        for v in self.variables:
            if v not in new_variables:
                raise ValueError(f"variable {v!r} missing from extension")
            pos[v] = new_variables.index(v)
        n = len(new_variables)
        terms = {}
        for e, c in self.terms.items():
            out = [0] * n
            for v, ev in zip(self.variables, e):
                out[pos[v]] = ev
            terms[tuple(out)] = c
        return LaurentPoly(new_variables, terms, self.domain)

    def normalized(self) -> "LaurentPoly":
        """Multiply by the monomial clearing all negative exponents."""
        mins = self.min_exponents()
        shift = tuple(-m if m < 0 else 0 for m in mins)
        if not any(shift):
            return self
        terms = {tuple(x + s for x, s in zip(e, shift)): c for e, c in self.terms.items()}
        return self._new(terms)

    # -- evaluation ----------------------------------------------------

    def evaluate(self, values: dict):
        """Evaluate at domain elements; negative exponents invert the value."""
        dom = self.domain
        for v in self.variables:
            if v not in values:
                raise ValueError(f"no value for variable {v!r}")
            dom = unify_domains(dom, _infer_domain(values[v]))
        total = dom.zero
        for exps, coeff in self.terms.items():
            acc = dom.coerce(coeff)
            for v, e in zip(self.variables, exps):
                if e:
                    acc = acc * dom.coerce(values[v]) ** e
            total = total + acc
        return total

    # -- printing ------------------------------------------------------

    def _sorted_exps(self):
        return sorted(self.terms, reverse=True)

    def to_string(self) -> str:
        if not self.terms:
            return "0"
        chunks = []
        for exps in self._sorted_exps():
            coeff = self.terms[exps]
            mono = "*".join(
                v if e == 1 else f"{v}^{e}"
                for v, e in zip(self.variables, exps)
                if e != 0
            )
            sign = "+"
            if isinstance(coeff, (int, Fraction)) and coeff < 0:
                sign, coeff = "-", -coeff
            text = _coefficient_text(coeff)
            if isinstance(coeff, CycloNum):
                nonzero = [c for c in coeff.coords if c]
                if len(nonzero) > 1:
                    text = f"({text})"
                elif nonzero[0] < 0:
                    sign, coeff = "-", -coeff
                    text = _coefficient_text(coeff)
            if mono:
                body = mono if coeff == 1 else f"{text}*{mono}"
            else:
                body = text
            chunks.append((sign, body))
        first_sign, first_body = chunks[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in chunks[1:]:
            out += f" {sign} {body}"
        return out

    def __str__(self):
        return self.to_string()

    def __repr__(self):
        return f"LaurentPoly({self.to_string()!r}, vars={self.variables})"


def _coefficient_text(coeff) -> str:
    try:
        return str(coeff)
    except ValueError:  # Python's int-string limit
        raise InputError(
            f"a coefficient has more than MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits") from None


def common_ring(polys):
    """(variables, domain, coerced) for LaurentPolys over one variable list:
    their variable list, the field all their coefficients embed in, and the
    polys coerced to that field, in order.

    Raises TypeError for an element that is not a LaurentPoly and InputError
    for a second variable list.  An empty input gives (None, None, []).
    """
    polys = list(polys)
    variables = domain = None
    for p in polys:
        if not isinstance(p, LaurentPoly):
            raise TypeError(f"expected a LaurentPoly, got {type(p).__name__}")
        if variables is None:
            variables, domain = p.variables, p.domain
        elif p.variables != variables:
            raise InputError(f"polynomials must share one variable list: {variables} and {p.variables}")
        else:
            domain = unify_domains(domain, p.domain)
    return variables, domain, [p.coerce_to(domain) for p in polys]


# ---------------------------------------------------------------------------
# parsing

# MAX_COEFFICIENT_DIGITS (from ``errors``) bounds the digits of a number
# written in ``parse_poly``, and of a rational coefficient of a parsed power
# p^e by the bound taken before expanding: e times log10 of the larger of p's
# common denominator and the sum of its numerators over it.  A longer number
# or a larger power is an InputError, as is printing a coefficient (which
# Buchberger may grow) past the limit.

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[A-Za-z_][A-Za-z0-9_]*|\^|\*|\+|\-|\(|\))")


def _tokenize(text: str) -> list[str]:
    out = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise InputError(f"bad character in polynomial at position {pos}: {text[pos:]!r}")
        tok = m.group(1)
        if tok[0].isdigit() and max(map(len, tok.split("/"))) > MAX_COEFFICIENT_DIGITS:
            raise InputError(
                f"a number has more than MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits")
        out.append(tok)
        pos = m.end()
    return out


MAX_POWER_TERMS = 1000
"""Most terms a power p^e in ``parse_poly`` may expand to, by the bound taken
before expanding: the product over the variables of e times p's degree span
in that variable, plus one.  A larger power is an InputError."""


def _check_power(p: LaurentPoly, e: int) -> None:
    bound = 1
    for exps in zip(*p.terms):
        bound *= e * (max(exps) - min(exps)) + 1
        if bound > MAX_POWER_TERMS:
            raise InputError(f"a power may expand to more than MAX_POWER_TERMS = {MAX_POWER_TERMS} terms")
    if p.domain is QQ:
        coeffs = p.terms.values()
        den = lcm(*(c.denominator for c in coeffs))
        height = max(den, sum(abs(c.numerator) * (den // c.denominator) for c in coeffs))
        if e * log10(height) >= MAX_COEFFICIENT_DIGITS:
            raise InputError(
                "a power's coefficients may have more than "
                f"MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits")


class _PolyParser:
    def __init__(self, text: str, variables, domain):
        self.variables = tuple(variables)
        for i, name in enumerate(self.variables):
            if name in self.variables[:i]:
                raise InputError(f"variable {name!r} is declared twice")
        self.tokens = _tokenize(text)
        self.pos = 0
        self.domain = domain

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def parse(self) -> LaurentPoly:
        p = self.expr()
        if self.peek() is not None:
            raise InputError(f"unexpected token {self.peek()!r} in polynomial")
        return p

    def expr(self) -> LaurentPoly:
        sign = 1
        while self.peek() in ("+", "-"):
            if self.take() == "-":
                sign = -sign
        p = self.term()
        if sign < 0:
            p = -p
        while self.peek() in ("+", "-"):
            op = self.take()
            q = self.term()
            p = p + q if op == "+" else p - q
        return p

    def term(self) -> LaurentPoly:
        p = self.factor()
        while self.peek() == "*":
            self.take()
            p = p * self.factor()
        return p

    def factor(self) -> LaurentPoly:
        p = self.atom()
        if self.peek() == "^":
            self.take()
            neg = False
            if self.peek() == "-":
                self.take()
                neg = True
            tok = self.take()
            if tok is None or not tok.isdigit():
                raise InputError("exponent must be an integer")
            e = int(tok)
            _check_power(p, e)
            p = p ** (-e if neg else e)
        return p

    def atom(self) -> LaurentPoly:
        tok = self.take()
        if tok is None:
            raise InputError("unexpected end of polynomial")
        if tok == "(":
            p = self.expr()
            if self.take() != ")":
                raise InputError("unbalanced parentheses in polynomial")
            return p
        if tok == "-":
            return -self.atom()
        if re.fullmatch(r"\d+/\d+|\d+", tok):
            value = Fraction(tok)
            return LaurentPoly.constant(self.domain.coerce(value), self.variables, self.domain)
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            if tok not in self.variables:
                raise InputError(f"unknown variable {tok!r} (declared: {', '.join(self.variables)})")
            return LaurentPoly.variable(tok, self.variables, self.domain)
        raise InputError(f"unexpected token {tok!r} in polynomial")


def parse_poly(text: str, variables, domain=QQ) -> LaurentPoly:
    """Parse ``1 + s*u + (s*u)^2``-style syntax into a LaurentPoly.  A
    variable list that names one variable twice is an InputError.

    >>> parse_poly("(a*b)^2 - a^2*b", ("a", "b")).to_string()
    'a^2*b^2 - a^2*b'
    """
    return _PolyParser(text, variables, domain).parse()
