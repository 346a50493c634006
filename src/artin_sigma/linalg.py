"""Exact rank of Laurent-polynomial matrices via fraction-free elimination.

Entries share one variable list and are brought to one coefficient field
(``laurent.common_ring``; plain integers are already rationals).
Negative exponents are cleared row by row with monomial units, which does not
change the rank, and the Bareiss scheme keeps every intermediate entry a
polynomial: the division at each step is exact by the Sylvester identity.
"""

from __future__ import annotations

from .errors import InputError
from .laurent import LaurentPoly, common_ring
from .value import Value


def _lex_leading(f: LaurentPoly):
    lm = max(f.terms)
    return lm, f.terms[lm]


def exact_divide(f: LaurentPoly, g: LaurentPoly) -> LaurentPoly:
    """f / g when g divides f exactly (polynomial entries, field coefficients)."""
    if g.is_zero():
        raise ZeroDivisionError("exact division by zero polynomial")
    if f.is_zero():
        return f
    variables, dom, (f, g) = common_ring([f, g])
    glm, glc = _lex_leading(g)
    quot: dict = {}
    rem = f
    while rem.terms:
        lm, lc = _lex_leading(rem)
        diff = tuple(a - b for a, b in zip(lm, glm))
        if any(d < 0 for d in diff):
            raise ArithmeticError("inexact polynomial division")
        c = lc / glc
        quot[diff] = c
        rem = rem - LaurentPoly.monomial(c, diff, variables, dom) * g
    return LaurentPoly(variables, quot, dom)


class PolyMatrix(Value, frozen=False):
    """A rectangular matrix of Laurent polynomials over one variable list."""

    _fields = ("entries",)

    def __init__(self, entries: list):
        rows = [list(r) for r in entries]
        if rows:
            width = len(rows[0])
            if any(len(r) != width for r in rows):
                raise InputError("matrix rows must have equal length")
            common_ring(e for r in rows for e in r)
        super().__init__(rows)

    @property
    def nrows(self):
        return len(self.entries)

    @property
    def ncols(self):
        return len(self.entries[0]) if self.entries else 0

    def rank(self) -> int:
        return matrix_rank(self)


def matrix_rank(matrix) -> int:
    """Rank over the fraction field, by Bareiss fraction-free elimination."""
    rows = matrix.entries if isinstance(matrix, PolyMatrix) else [list(r) for r in matrix]
    if not rows or not rows[0]:
        return 0

    variables, domain, coerced = common_ring(e for r in rows for e in r)
    entries = iter(coerced)
    work = []
    for r in rows:
        row = [next(entries) for _ in r]
        # clear negative exponents with a per-row monomial unit
        shift = tuple(max(0, -m) for m in map(min, zip(*(e.min_exponents() for e in row))))
        if any(shift):
            mono = LaurentPoly.monomial(domain.one, shift, variables, domain)
            row = [e * mono for e in row]
        work.append(row)

    nrows = len(work)
    ncols = len(work[0])
    one = LaurentPoly.constant(domain.one, variables, domain)
    zero = LaurentPoly.zero(variables, domain)
    prev = one
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        pivot = None
        for i in range(pivot_row, nrows):
            if not work[i][col].is_zero():
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != pivot_row:
            work[pivot_row], work[pivot] = work[pivot], work[pivot_row]
        p = work[pivot_row][col]
        for i in range(pivot_row + 1, nrows):
            ric = work[i][col]
            for j in range(col + 1, ncols):
                num = p * work[i][j] - ric * work[pivot_row][j]
                work[i][j] = exact_divide(num, prev) if not num.is_zero() else zero
            work[i][col] = zero
        prev = p
        rank += 1
        pivot_row += 1
        if pivot_row == nrows:
            break
    return rank

