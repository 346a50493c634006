"""Buchberger Groebner bases over field coefficients, plus Laurent unit-ideal tests.

Polynomials enter with non-negative exponents only.  The Laurent-ring ideal
membership question "is 1 in the ideal?" is decided by clearing each
generator to a polynomial with a monomial unit and saturating by the product
of all variables through an auxiliary variable t_aux and the extra generator
1 - t_aux * x_1 * ... * x_n.

Systems whose generators all have at most two terms skip Buchberger for that
question: a binomial c1*x^a + c2*x^b is a unit multiple of x^(a-b) - lam with
lam = -c2/c1, and <x^(d_i) - lam_i> is the unit ideal iff some integer vector
c with sum c_i d_i = 0 has prod lam_i^(c_i) != 1 (Eisenbud and Sturmfels,
"Binomial ideals", 1996).  Testing a Z-basis of that kernel lattice suffices.
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


def _integer_left_kernel(rows):
    """A Z-basis of the lattice {c in Z^m : sum_i c_i * rows[i] = 0}.

    Unimodular row operations on [D | I] bring D to echelon form (Euclid on
    each column, as in a Hermite normal form; Kannan and Bachem 1979).  The
    identity part of the rows whose D part became zero is a basis of the
    whole kernel lattice, not of a sublattice of finite index, because the
    accumulated transform is invertible over Z.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    work = [list(r) + [int(i == k) for k in range(m)] for i, r in enumerate(rows)]
    rank = 0
    for j in range(n):
        while True:
            live = [i for i in range(rank, m) if work[i][j]]
            if len(live) <= 1:
                break
            p = min(live, key=lambda i: abs(work[i][j]))
            pivot = work[p]
            for i in live:
                if i != p:
                    q = work[i][j] // pivot[j]
                    work[i] = [a - q * b for a, b in zip(work[i], pivot)]
        if live:
            work[rank], work[live[0]] = work[live[0]], work[rank]
            rank += 1
    return [r[n:] for r in work[rank:]]


def _lattice_unit(polys):
    """Laurent unit-ideal test for generators of at most two terms.

    ``polys`` are nonzero and share one domain and variable list.  Returns
    None when some generator has three or more terms; otherwise
    (flag, witness).  A unit ideal's witness is {"monomial": i} when
    polys[i] has one term (a unit of the Laurent ring), else
    {"relation": c}: with a the lexicographically larger exponent of the
    binomial polys[i] = c1*x^a + c2*x^b, d_i = a - b and lam_i = -c2/c1, the
    vector c has sum c_i d_i = 0 and prod lam_i^(c_i) != 1, so the nonzero
    constant 1 - prod lam_i^(c_i) lies in the ideal.  A proper ideal has
    witness None.
    """
    if any(len(p.terms) > 2 for p in polys):
        return None
    for i, p in enumerate(polys):
        if len(p.terms) == 1:
            return True, {"monomial": i}
    rows, lams = [], []
    for p in polys:
        b, a = sorted(p.terms)
        rows.append(tuple(x - y for x, y in zip(a, b)))
        lams.append(-p.terms[b] / p.terms[a])
    for c in _integer_left_kernel(rows):
        num = den = polys[0].domain.one
        for lam, k in zip(lams, c):
            if k > 0:
                num = num * lam ** k
            elif k < 0:
                den = den * lam ** -k
        if num != den:
            return True, {"relation": c}
    return False, None


def _saturation_system(gens):
    """The nonzero generators, cleared of negative exponents and extended by
    the saturation variable, in one domain; with their positions in gens."""
    if not all(isinstance(g, LaurentPoly) for g in gens):
        raise TypeError("generators must be LaurentPoly")
    positions = [i for i, g in enumerate(gens) if not g.is_zero()]
    if not positions:
        return positions, [], None
    variables = gens[positions[0]].variables
    aux = saturation_variable(variables)
    ext = variables + (aux,)
    extended = [gens[i].normalized().extend_variables(ext) for i in positions]
    domain = extended[0].domain
    for p in extended[1:]:
        domain = unify_domains(domain, p.domain)
    return positions, [p.coerce_to(domain) for p in extended], aux


def laurent_unit_report(gens, order=DEFAULT_ORDER):
    """Unit-ideal test in the Laurent ring, with how it was decided.

    Returns (flag, basis, aux, method, witness).  ``basis`` is the reduced
    Groebner basis of the saturated polynomial system over variables +
    (aux,), or [1] for a unit ideal.  ``method`` is "lattice" when every
    generator has at most two terms (the exponent lattice decides, and
    Buchberger runs only for a proper ideal's basis), else "buchberger".
    ``witness`` is the lattice's unit witness (see ``_lattice_unit``) with
    indices and relation entries over ``gens``, zero generators included;
    it is None for a proper ideal or when Buchberger decided.
    """
    gens = list(gens)
    positions, extended, aux = _saturation_system(gens)
    if not extended:
        return False, [], None, "lattice", None
    ext, domain = extended[0].variables, extended[0].domain
    one = LaurentPoly.constant(domain.one, ext, domain)
    decided = _lattice_unit(extended)
    if decided is not None and decided[0]:
        witness = decided[1]
        if "monomial" in witness:
            witness = {"monomial": positions[witness["monomial"]]}
        else:
            relation = [0] * len(gens)
            for i, c in zip(positions, witness["relation"]):
                relation[i] = c
            witness = {"relation": relation}
        return True, [one], aux, "lattice", witness
    product = one
    for v in ext[:-1]:
        product = product * LaurentPoly.variable(v, ext, domain)
    sat = one - LaurentPoly.variable(aux, ext, domain) * product
    basis = buchberger(extended + [sat], order)
    if decided is not None:
        return False, basis, aux, "lattice", None
    flag = len(basis) == 1 and basis[0].is_constant()
    return flag, basis, aux, "buchberger", None


def laurent_unit_ideal(gens, order=DEFAULT_ORDER):
    """Unit-ideal test in the Laurent ring.

    Returns (flag, basis, aux) where basis is the reduced Groebner basis of
    the saturated polynomial system over variables + (aux,).
    """
    return laurent_unit_report(gens, order)[:3]


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
        # generators that vanished mod p are dropped, and a binomial that
        # lost a coefficient is a monomial, so a unit
        decided = _lattice_unit(_saturation_system(mapped)[1])
        if decided is not None:
            return decided[0]
        flag, _, _ = laurent_unit_ideal(mapped)
        return flag
    return is_unit_ideal(mapped)
