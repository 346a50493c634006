"""Buchberger Groebner bases over field coefficients, plus Laurent unit-ideal tests.

Polynomials enter with non-negative exponents only.  The Laurent-ring ideal
membership question "is 1 in the ideal?" is decided by clearing each
generator to a polynomial with a monomial unit and saturating by the product
of all variables through an auxiliary variable t_aux and the extra generator
1 - t_aux * x_1 * ... * x_n.
"""

from __future__ import annotations

import heapq

from .errors import InputError
from .fields import PrimeField, unify_domains
from .laurent import LaurentPoly


def _lex_key(e):
    return e


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


ORDER_KEYS = {"lex": _lex_key, "grevlex": _grevlex_key}
DEFAULT_ORDER = "grevlex"


def _order_key(order):
    try:
        return ORDER_KEYS[order]
    except KeyError:
        raise InputError(f"unknown monomial order {order!r}") from None


def leading_term(f: LaurentPoly, order=DEFAULT_ORDER):
    key = order if callable(order) else _order_key(order)
    lm = max(f.terms, key=key)
    return lm, f.terms[lm]


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _prepare(gens, order):
    polys = []
    domain = None
    variables = None
    for g in gens:
        if not isinstance(g, LaurentPoly):
            raise TypeError("generators must be LaurentPoly")
        if variables is None:
            variables = g.variables
        elif g.variables != variables:
            raise ValueError("generators must share one variable list")
        if any(e < 0 for exps in g.terms for e in exps):
            raise InputError("Groebner generators must have non-negative exponents")
        domain = g.domain if domain is None else unify_domains(domain, g.domain)
        polys.append(g)
    polys = [p.coerce_to(domain) for p in polys if not p.is_zero()]
    return polys, variables, domain


def reduce_poly(f: LaurentPoly, basis, order=DEFAULT_ORDER) -> LaurentPoly:
    """Normal form of f modulo the basis (full multivariate division).

    The division runs on a private copy of f's term dict; neither f nor
    any basis element is modified.
    """
    key = order if callable(order) else _order_key(order)
    if not basis:
        return f
    dom = f.domain
    for g in basis:
        dom = unify_domains(dom, g.domain)
    work = dict(f.coerce_to(dom).terms)
    table = []
    for g in basis:
        g = g.coerce_to(dom)
        if g.terms:
            table.append((g.terms,) + leading_term(g, key))
    zero = dom.zero
    rem_terms: dict = {}
    while work:
        lm = max(work, key=key)
        lc = work[lm]
        for gterms, glm, glc in table:
            if _divides(glm, lm):
                # work -= (lc / glc) * x^(lm - glm) * g, term by term
                q = lc / glc
                diff = tuple(a - b for a, b in zip(lm, glm))
                for e, c in gterms.items():
                    m = tuple(a + b for a, b in zip(e, diff))
                    v = work.pop(m, zero) - q * c
                    if v:
                        work[m] = v
                break
        else:
            rem_terms[lm] = work.pop(lm)
    return LaurentPoly(f.variables, rem_terms, dom)


def s_polynomial(f: LaurentPoly, g: LaurentPoly, order=DEFAULT_ORDER) -> LaurentPoly:
    key = order if callable(order) else _order_key(order)
    dom = unify_domains(f.domain, g.domain)
    f = f.coerce_to(dom)
    g = g.coerce_to(dom)
    flm, flc = leading_term(f, key)
    glm, glc = leading_term(g, key)
    lcm = tuple(max(a, b) for a, b in zip(flm, glm))
    mf = LaurentPoly.monomial(dom.one / flc, tuple(a - b for a, b in zip(lcm, flm)), f.variables, dom)
    mg = LaurentPoly.monomial(dom.one / glc, tuple(a - b for a, b in zip(lcm, glm)), g.variables, dom)
    return mf * f - mg * g


def buchberger(gens, order=DEFAULT_ORDER) -> list[LaurentPoly]:
    """Reduced Groebner basis (monic, sorted by leading monomial)."""
    key = _order_key(order) if not callable(order) else order
    polys, variables, domain = _prepare(gens, order)
    if not polys:
        return []

    basis = list(polys)
    lms = [leading_term(p, key)[0] for p in basis]

    def pairs_with(j):
        for i in range(j):
            lcm = tuple(max(a, b) for a, b in zip(lms[i], lms[j]))
            yield key(lcm), i, j, lcm

    # pairs pop in (key(lcm), i, j) order, each key computed once on push
    queue = [pair for j in range(len(basis)) for pair in pairs_with(j)]
    heapq.heapify(queue)
    done = set()
    while queue:
        _, i, j, lcm = heapq.heappop(queue)
        done.add((i, j))
        # product criterion: coprime leading monomials reduce to zero anyway
        if lcm == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        # chain criterion
        skip = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if _divides(lms[k], lcm):
                a = (min(i, k), max(i, k))
                b = (min(j, k), max(j, k))
                if a in done and b in done:
                    skip = True
                    break
        if skip:
            continue
        s = s_polynomial(basis[i], basis[j], key)
        r = reduce_poly(s, basis, key)
        if r.is_zero():
            continue
        if r.is_constant():
            one = LaurentPoly.constant(domain.one, variables, domain)
            return [one]
        basis.append(r)
        lms.append(leading_term(r, key)[0])
        for pair in pairs_with(len(basis) - 1):
            heapq.heappush(queue, pair)

    # minimalize: drop elements whose leading monomial another element divides
    # (on ties the earliest element survives; divisibility is transitive, so
    # the pairwise rule is safe)
    minimal = []
    for i in range(len(basis)):
        redundant = False
        for j in range(len(basis)):
            if i == j or not _divides(lms[j], lms[i]):
                continue
            if lms[j] != lms[i] or j < i:
                redundant = True
                break
        if not redundant:
            minimal.append(basis[i])

    # interreduce and normalize to monic
    reduced = []
    for i, p in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = reduce_poly(p, others, key) if others else p
        if r.is_zero():
            continue
        _, lc = leading_term(r, key)
        r = r * LaurentPoly.constant(domain.one / lc, variables, domain)
        reduced.append(r)
    reduced.sort(key=lambda p: key(leading_term(p, key)[0]))
    return reduced


def is_unit_ideal(gens, order=DEFAULT_ORDER) -> bool:
    """True iff the polynomial ideal generated by gens is the whole ring."""
    basis = buchberger(gens, order)
    return len(basis) == 1 and basis[0].is_constant()


def saturation_variable(variables) -> str:
    name = "t_aux"
    while name in variables:
        name += "_"
    return name


def laurent_unit_ideal(gens, order=DEFAULT_ORDER):
    """Unit-ideal test in the Laurent ring.

    Returns (flag, basis, aux) where basis is the reduced Groebner basis of
    the saturated polynomial system over variables + (aux,).
    """
    polys = [g for g in gens if isinstance(g, LaurentPoly)]
    if len(polys) != len(list(gens)):
        raise TypeError("generators must be LaurentPoly")
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return False, [], None
    variables = polys[0].variables
    aux = saturation_variable(variables)
    ext = variables + (aux,)
    extended = [p.normalized().extend_variables(ext) for p in polys]
    domain = extended[0].domain
    for p in extended[1:]:
        domain = unify_domains(domain, p.domain)
    one = LaurentPoly.constant(domain.one, ext, domain)
    product = one
    for v in variables:
        product = product * LaurentPoly.variable(v, ext, domain)
    sat = one - LaurentPoly.variable(aux, ext, domain) * product
    basis = buchberger(extended + [sat], order)
    flag = len(basis) == 1 and basis[0].is_constant()
    return flag, basis, aux


def to_prime_field(p: LaurentPoly, prime: int) -> LaurentPoly:
    """Map integer/rational coefficients into GF(prime).

    Raises ZeroDivisionError when a denominator vanishes mod prime.
    """
    field = PrimeField(prime)
    terms = {e: field.coerce(c) for e, c in p.terms.items()}
    return LaurentPoly(p.variables, terms, field)


def unit_ideal_mod_p(gens, prime: int, laurent: bool = True) -> bool:
    mapped = [to_prime_field(g, prime) for g in gens]
    if laurent:
        flag, _, _ = laurent_unit_ideal(mapped)
        return flag
    return is_unit_ideal(mapped)
