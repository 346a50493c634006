"""Buchberger Groebner bases over field coefficients, plus Laurent unit-ideal tests.

Polynomials enter with non-negative exponents only.  The Laurent-ring ideal
membership question "is 1 in the ideal?" is decided by clearing each
generator to a polynomial with a monomial unit and saturating by the product
of all variables through an auxiliary variable t_aux and the extra generator
1 - t_aux * x_1 * ... * x_n.  Both unit tests, ``laurent_unit_report`` over
the generators' field and ``unit_ideal_mod_p`` over GF(p), build that system
in one function, ``_saturated``: it clears the generators' term dicts,
appends t_aux and packs them, and no saturated ``LaurentPoly`` is built.
Over GF(p) the term dicts hold ints in [0, p): ``_term_dicts`` reads a
``LaurentPoly``'s ``FpElement``s once, and ``unit_ideal_mod_p`` reads each
residue as an int.

Buchberger runs on packed monomials (``_PackedRing``): each monomial is one
Python int of n + 1 fields of ``width`` bits, each topped by a guard bit
that a stored monomial keeps clear.  For grevlex the fields are, from the
top, [deg | C - x_n | ... | C - x_1], and for lex [x_1 | ... | x_n | deg],
with C = 2**width - 1 the field capacity and deg the total degree.  So one
int comparison is one comparison of ``ORDER_KEYS`` keys: the complemented
fields C - x_i make a larger x_n lose a grevlex tie, as its key -x_n says.
With the offset Z (C in every complemented field; 0 for lex), a product is
a + b - Z and a quotient a - b + Z, and b divides a iff that quotient has no
guard bit set.  A product whose degree exceeds C sets a guard bit (every
exponent is at most the degree); that is a spill.

The lcm of two packed monomials is packed too, for both orders
(``_PackedRing.lcm``).  XOR with Z makes every exponent field plain; then
(a | G) - b, G the guard bits, keeps a field's guard bit exactly where a's
field is at least b's, and subtracting those bits shifted down by ``width``
turns each into the mask of its field.  a's fields under the mask and b's
elsewhere are the per-field maxima (under grevlex the minima of the
complemented fields), and a ^ b ^ max holds the minima, the gcd's exponents.  The degree field is
deg a + deg b - deg gcd: deg gcd is at most min(deg a, deg b) <= C, so one
multiplication by an int with a 1 at the foot of each exponent field sums
them into one field with no carry.  A degree past C raises a spill, as
``pack`` does.  So the pair update never unpacks a monomial: only
``to_poly`` does.

Division takes each leading term from a max-heap of the dividend's packed
monomials (lazy deletion), so no term is re-keyed on a division step
(Monagan and Pearce, "Sparse polynomial division using a heap", JSC 46,
2011).  Reading each leading term as max(work), with no heap, measured as no
gain on the ``algebra-evidence`` systems and 1-2% slower on the label-6
five-cycle, whose dividends are long; it also makes a division quadratic in
the dividend's length, so the heap stays.

Every entry point runs its kernel through one runner, ``_run``: it packs
the term dicts once, into the ring whose capacity is at least twice every
input degree, and the kernel unpacks its answer once on exit.  The kernels
(the pair loop, its update, ``_divide`` and interreduction) raise a spill
and never catch one; ``_run`` alone does, packs the same term dicts with
fields twice as wide and reruns the kernel from the start.  Packed
comparisons do not depend on the width, so the rerun forms the pairs the
spilled run formed and gives the answer it would have given.  No golden,
benchmark or CI system of the package spills at the fitting width, and
packing every system wide from the start measured about 4% slower, so the
width stays adaptive.  ``s_polynomial`` and ``reduce_poly`` are library
entry points on ``LaurentPoly``s, which must share one variable list
(``laurent.common_ring``; a second list is an ``InputError``); the pair
loop and interreduction call neither.

Packed coefficients are ints over QQ and GF(p), and field elements over
QQ(zeta_M).  A packed polynomial is its terms over a positive int ``den``,
which is 1 but over QQ: a QQ generator packs with its denominators cleared,
and "monic" over QQ means primitive with a positive leading coefficient,
with that coefficient as ``den``.  There is one division kernel,
``_divide``, which ``s_polynomial``, ``reduce_poly``, the pair loop and
interreduction all call.  It reduces by a table of reducer rows, each a divisor's ``lead``
(leading monomial and coefficient, tail, top-degree term), tried in table
order; given a first row, it reduces the leading term by that one first,
and that first step on x^(L - lm f) * f by g is the S-polynomial of f and
g, L the lcm of their leading monomials.  It cancels a leading coefficient
c by a reducer whose leading coefficient is a without dividing: it scales the dividend by
a / gcd(a, c), subtracts c / gcd(a, c) times the reducer and folds the
scale into ``den`` (the primitive pseudo-remainder of Geddes, Czapor and
Labahn, "Algorithms for Computer Algebra", 1992, ch. 7).  So a remainder
over QQ is the field's remainder times a positive scalar: the leading
monomials, the pairs formed and the reduced bases are those of division
over the field, and unpacking divides by ``den``.  Over GF(p) and
QQ(zeta_M) every basis element is monic, so the scale is 1; over GF(p) the
coefficients lie in [0, p), converted once on packing and once on
unpacking, the ring carries p and the kernel takes ``% p`` only when there
is a prime.

The pair loop (``_pair_loop``) pops pairs in (packed lcm, i, j) order and
updates them as Gebauer and Moller do ("On an installation of Buchberger's
algorithm", JSC 6, 1988): criteria M and F and the product criterion prune
the new pairs, and criterion B the old ones.  It keeps one reducer table,
the rows of its basis in index order, which gains a row with each new
element and is never rebuilt, and it divides each pair (i, j) in one
``_divide`` call: x^(L - lm_i) * g_i, first by g_j (the S-polynomial) and
then, on the same heap and term dict, by the table.
That is the remainder of the S-polynomial divided by the basis, so the
pairs formed and the bases are those of an S-polynomial step followed by a
full division.  A packed polynomial's ``lead`` row is built with it, once,
and ``monic`` passes it on rescaled.  The basis may hold at most
``MAX_BASIS_ELEMENTS`` elements and, over QQ, no new element with a
coefficient of more than ``MAX_COEFFICIENT_DIGITS`` digits.

``buchberger`` minimalizes and interreduces its basis: it reduces the
minimal elements in increasing order of leading monomial, each only by the
smaller ones already reduced.  A larger leading monomial divides no term
of an element, nor any term its division makes, since each lies below the
element's own leading monomial; so each element comes out as the one of
the reduced Groebner basis with its leading monomial, and the reduced basis
is unique.  ``is_unit_ideal`` (and so ``unit_ideal_mod_p``) only asks
whether the loop met a nonzero constant, stops there, and never
interreduces.

Systems whose generators all have at most two terms skip Buchberger for that
question: a binomial c1*x^a + c2*x^b is a unit multiple of x^(a-b) - lam with
lam = -c2/c1, and <x^(d_i) - lam_i> is the unit ideal iff some integer vector
c with sum c_i d_i = 0 has prod lam_i^(c_i) != 1 (Eisenbud and Sturmfels,
"Binomial ideals", 1996).  Testing a Z-basis of that kernel lattice suffices.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm, prod
from operator import mul

from .errors import MAX_COEFFICIENT_DIGITS, InputError
from .fields import QQ, FpElement, PrimeField
from .laurent import LaurentPoly, common_ring


def _lex_key(e):
    return e


def _grevlex_key(e):
    return (sum(e), tuple(-x for x in reversed(e)))


ORDER_KEYS = {"lex": _lex_key, "grevlex": _grevlex_key}
DEFAULT_ORDER = "grevlex"


def _check_order(order):
    if order not in ORDER_KEYS:
        raise InputError(f"unknown monomial order {order!r}")


# -- packed monomials ---------------------------------------------------------

# a ring packs degrees up to at least 2**8 - 1
_MIN_WIDTH = 8


class _Spill(Exception):
    """A packed monomial's degree exceeded the field capacity."""


class _PackedRing:
    """Packed monomials of one order over one variable list, and the domain
    of the coefficients.

    The layout is in the module docstring; ``cap`` is the capacity C,
    ``offset`` the offset Z and ``guards`` the mask of all guard bits.
    ``prime`` is p for GF(p), whose packed coefficients are ints in [0, p),
    and None for the other fields: ints over QQ, field elements over
    QQ(zeta_M).
    """

    __slots__ = ("variables", "order", "domain", "prime", "width", "cap", "offset", "guards",
                 "_shifts", "_weights", "_deg_shift", "_fields", "_ones", "_sum_shift")

    def __init__(self, variables, order, domain, width):
        n = len(variables)
        stride = width + 1
        cap = (1 << width) - 1
        self.variables, self.order, self.domain = variables, order, domain
        self.prime = domain.p if isinstance(domain, PrimeField) else None
        self.width, self.cap = width, cap
        self.guards = sum(1 << (width + k * stride) for k in range(n + 1))
        if order == "grevlex":
            top = n * stride
            self._shifts = [k * stride for k in range(n)]
            self._weights = [(1 << top) - (1 << s) for s in self._shifts]
            self._deg_shift = top
        else:
            self._shifts = [(n - k) * stride for k in range(n)]
            self._weights = [(1 << s) + 1 for s in self._shifts]
            self._deg_shift = 0
        self._fields = sum(cap << s for s in self._shifts)
        self.offset = self._fields if order == "grevlex" else 0
        self._ones = sum(1 << (k * stride) for k in range(n))
        self._sum_shift = max(self._shifts, default=0)

    @classmethod
    def fitting(cls, variables, order, domain, systems):
        """The ring whose capacity is at least twice every degree of the
        exponent vectors in systems (term dicts)."""
        exps = [e for terms in systems for e in terms]
        if any(min(e, default=0) < 0 for e in exps):
            raise InputError("Groebner generators must have non-negative exponents")
        degree = max(map(sum, exps), default=0)
        return cls(variables, order, domain, max(_MIN_WIDTH, (2 * degree).bit_length()))

    def pack(self, exps) -> int:
        if sum(exps) > self.cap:
            raise _Spill
        return self.offset + sum(map(mul, exps, self._weights))

    def unpack(self, m) -> tuple:
        cap, m = self.cap, m ^ self.offset
        return tuple((m >> s) & cap for s in self._shifts)

    def lcm(self, a, b) -> int:
        """The lcm of the packed monomials a and b (see the module docstring)."""
        z, guards, fields, cap, shift = self.offset, self.guards, self._fields, self.cap, self._deg_shift
        a, b = a ^ z, b ^ z  # every exponent field plain, none complemented
        ge = ((a | guards) - b) & guards  # the guard bits of the fields where a >= b
        ge -= ge >> self.width  # those fields
        high = a & ge | b & ~ge
        gcd_degree = ((a ^ b ^ high) & fields) * self._ones >> self._sum_shift & cap
        degree = (a >> shift & cap) + (b >> shift & cap) - gcd_degree
        if degree > cap:
            raise _Spill
        return (high & fields ^ z) + (degree << shift)

    def degree(self, m) -> int:
        return m >> self._deg_shift & self.cap

    def to_poly(self, p: "_Packed") -> LaurentPoly:
        unpack, prime, den = self.unpack, self.prime, p.den
        if prime:
            terms = {unpack(m): FpElement(prime, c) for m, c in p.terms.items()}
        else:
            terms = {unpack(m): Fraction(c, den) if den != 1 else c for m, c in p.terms.items()}
        return LaurentPoly(self.variables, terms, self.domain)


class _Packed:
    """A polynomial as a dict from packed monomials to coefficients, over a
    positive int ``den`` that is 1 but over QQ: the polynomial is
    terms / den.

    A nonzero one has its row in a reducer table, ``lead`` = (lm, lc, tail,
    top): the leading monomial and coefficient, the other terms as
    (monomial, coefficient) pairs and a term of greatest degree (lm itself
    under grevlex); it is built on construction unless passed in."""

    __slots__ = ("ring", "terms", "den", "lead")

    def __init__(self, ring, terms, den=1, lead=None):
        self.ring, self.terms, self.den = ring, terms, den
        if lead is None and terms:
            lm = max(terms)
            top = max(terms, key=ring.degree) if ring.order == "lex" else lm
            lead = lm, terms[lm], [(m, c) for m, c in terms.items() if m != lm], top
        self.lead = lead

    def monic(self) -> "_Packed":
        """This nonzero polynomial divided by its leading coefficient; over
        QQ its primitive part with a positive leading coefficient, over that
        coefficient.  Its ``lead`` is this one's, rescaled, not recomputed."""
        ring, p = self.ring, self.ring.prime
        lm, lc, tail, top = self.lead
        if ring.domain is QQ:
            g = gcd(*self.terms.values()) if lc > 0 else -gcd(*self.terms.values())
            tail, lc = [(m, c // g) for m, c in tail], lc // g
        elif lc == 1:
            return self
        else:
            inv = pow(lc, -1, p) if p else ring.domain.one / lc
            tail = [(m, c * inv % p if p else c * inv) for m, c in tail]
            lc = lc * inv % p if p else lc * inv
        return _Packed(ring, {lm: lc, **dict(tail)}, lc if ring.domain is QQ else 1, (lm, lc, tail, top))


def _pack(ring, systems):
    """Term dicts packed into ring; over GF(p) their coefficients are ints in
    [0, p), and over QQ each packs with its denominators cleared."""
    pack = ring.pack
    if ring.domain is not QQ:
        return [_Packed(ring, {pack(e): c for e, c in t.items()}) for t in systems]
    dens = [lcm(*(c.denominator for c in t.values())) for t in systems]
    return [_Packed(ring, {pack(e): c.numerator * (den // c.denominator) for e, c in t.items()}, den)
            for t, den in zip(systems, dens)]


def _run(kernel, order, domain, variables, systems):
    """kernel(packed), for packed the term dicts systems over one domain and
    one variable list, packed into the fitting ring.  The one place a spill
    is caught (see the module docstring): the same term dicts are packed with
    fields twice as wide and the kernel reruns from the start.  A kernel
    returns no packed polynomial."""
    _check_order(order)
    ring = _PackedRing.fitting(variables, order, domain, systems)
    while True:
        try:
            return kernel(_pack(ring, systems))
        except _Spill:
            ring = _PackedRing(variables, order, domain, 2 * ring.width)


def _term_dicts(polys):
    """The variable list and domain of LaurentPolys (see ``common_ring``) and
    their term dicts, with coefficients as ``_pack`` takes them: over GF(p)
    each is read as its int in [0, p)."""
    variables, domain, polys = common_ring(polys)
    systems = [p.terms for p in polys]
    if isinstance(domain, PrimeField):
        systems = [{e: c.val for e, c in t.items()} for t in systems]
    return variables, domain, systems


def _run_on(kernel, polys, order):
    """``_run`` on LaurentPolys over one variable list (none for no
    polynomials)."""
    variables, domain, systems = _term_dicts(polys)
    return _run(kernel, order, domain, variables or (), systems)


def _divide(f, table, first=None, shift=0):
    """Remainder of x^shift * f, shift a packed monomial less the offset,
    modulo the divisors whose ``lead`` rows make up table, tried in table
    order; all in f's ring, the divisors monic but over QQ, where the
    remainder is reduced fraction-free, its scale put in ``den``.  A
    ``first`` row, whose leading monomial must divide x^shift * f's, reduces
    the leading term before the table is tried: with g's row and shift
    L - lm f, L the lcm of their leading monomials, that first step is the
    S-polynomial of f and g."""
    offset, guards, p = f.ring.offset, f.ring.guards, f.ring.prime
    if shift and (f.lead[3] + shift) & guards:
        raise _Spill
    work, den = {m + shift: c for m, c in f.terms.items()}, f.den
    heap = [-m for m in work]
    heapify(heap)
    rem = {}
    reducers = table if first is None else (first,)
    while heap:
        lm = -heappop(heap)
        lc = work.pop(lm, None)
        if lc is None:  # a stale entry: the term cancelled
            continue
        for glm, glc, gtail, gtop in reducers:
            if not (lm - glm + offset) & guards:
                # work = s * work + k * x^(lm - glm) * g with s * lc + k * glc
                # = 0, so the leading terms cancel; s = 1 but over QQ
                d = lm - glm
                if (gtop + d) & guards:
                    raise _Spill
                k = -lc
                if glc != 1:
                    h = gcd(lc, glc)
                    s, k = glc // h, k // h
                    if s != 1:
                        work = {m: c * s for m, c in work.items()}
                        rem = {m: c * s for m, c in rem.items()}
                        den *= s
                for e, c in gtail:
                    m = e + d
                    v = work.get(m)
                    if v is None:
                        work[m] = k * c % p if p else k * c
                        heappush(heap, -m)
                    else:
                        v += k * c
                        if p:
                            v %= p
                        if v:
                            work[m] = v
                        else:
                            del work[m]
                reducers = table
                break
        else:
            rem[lm] = lc
    return _Packed(f.ring, rem, den)


def _remainder(packed):
    """packed[0] modulo packed[1:], unpacked: the divisors are made monic,
    and over QQ the fraction-free remainder's scale is divided out."""
    f, *basis = packed
    r = _divide(f, [g.monic().lead for g in basis if g.terms])
    return r.ring.to_poly(r)


def _s_kernel(packed):
    """The S-polynomial of packed f and g, unpacked."""
    if not all(p.terms for p in packed):
        raise InputError("the zero polynomial has no S-polynomial")
    f, g = (p.monic() for p in packed)
    s = _divide(f, (), g.lead, f.ring.lcm(f.lead[0], g.lead[0]) - f.lead[0])
    return s.ring.to_poly(s)


def reduce_poly(f, basis, order=DEFAULT_ORDER):
    """Normal form of the LaurentPoly f modulo the LaurentPolys basis (full
    multivariate division).

    The division runs on a private copy of f's terms; neither f nor any
    basis element is modified.
    """
    return _run_on(_remainder, [f, *basis], order)


def s_polynomial(f, g, order=DEFAULT_ORDER):
    """S-polynomial of the LaurentPolys f and g."""
    return _run_on(_s_kernel, [f, g], order)


def _is_one(p: _Packed) -> bool:
    return p.lead[0] == p.ring.offset


MAX_BASIS_ELEMENTS = 1000
"""Most elements the pair loop's basis may hold, the generators and the
elements gone inactive included; the loop raises an InputError rather than
add one past it.  Measured, as the largest basis one loop held: 19 over the
golden corpus; 23 over the 35 ``algebra-evidence`` systems of ``perfbench``
(QQ in both orders, and the GF(p) reruns); 175 over QQ and at most 191
(GF(3)) over its GF(p) reruns for the label-6 five-cycle, whose reduced
basis has 57 elements.  The cap is about five times the largest.  It lets
through the GF(3) run of the label-6 seven-cycle (737 elements, about 39 s
of CPU on a shared 2-core x86 box with Python 3.11).

The cap bounds the number of elements, not their size.  Over QQ the loop
also refuses, with an InputError, a new element (primitive, after
``monic``) with a coefficient of more than ``MAX_COEFFICIENT_DIGITS`` =
4300 digits, the limit printing a coefficient already has; the input
generators are not checked.  Measured, as the largest coefficient of a new
element: 1 bit over the golden corpus, 10 bits over the ``algebra-evidence``
systems in both orders, and 2,237 bits (about 673 digits) for the label-6
five-cycle.  The label-6 seven-cycle, whose QQ run otherwise does not end
in minutes, passes 14,284 bits (4,300 digits) after about 5 s and is
refused.  GF(p) coefficients lie below p and are not checked."""

_COEFFICIENT_CEILING = 10**MAX_COEFFICIENT_DIGITS
"""The least integer with more than ``MAX_COEFFICIENT_DIGITS`` digits."""


def _pair_loop(basis):
    """Buchberger's pair loop on monic packed polynomials in one ring.

    Returns a Groebner basis of their ideal, monic but neither minimal nor
    interreduced, in their ring; or, as soon as a constant turns up (an
    input generator included, before any pair is formed), just that
    constant.

    Pairs pop in (packed lcm, i, j) order.  Adding element t updates the
    pairs as Gebauer and Moller do ("On an installation of Buchberger's
    algorithm", JSC 6, 1988): of the new pairs (i, t), i active, drop those
    whose lcm another new pair's lcm properly divides (M); of the rest keep
    one per lcm, the least i, unless one of them has coprime leading
    monomials, when none is kept (F and the product criterion).  Drop an old
    pair (i, j) whose lcm L lm_t divides, when lcm(i, t) and lcm(j, t) both
    differ from L (B).  An element whose leading monomial lm_t divides goes
    inactive: it forms no new pairs, but still reduces, as every element
    does, in index order.

    The reducer table holds the ``lead`` rows of the basis in index order;
    it gains a row with each element and is never rebuilt.  A pair (i, j)
    is one ``_divide`` call: x^(L - lm_i) * g_i, reduced first by g_j, which
    forms the S-polynomial, and on by the table.  A spill, in the pair
    update's lcm or in a division, propagates to ``_run``.
    """
    for b in basis:
        if _is_one(b):
            return [b]
    ring = basis[0].ring
    offset, guards, lcm_of = ring.offset, ring.guards, ring.lcm
    table = [b.lead for b in basis]
    active = []  # in index order
    queue = []

    def update(t):
        nonlocal active, queue
        lt = table[t][0]
        new = sorted([(lcm_of(table[i][0], lt), i) for i in active])
        with_t = {i: lcm for lcm, i in new}

        def t_keeps(k, lcm):
            # lm_t and lm_k divide lcm, so lcm(k, t) does and cannot spill
            return (with_t[k] if k in with_t else lcm_of(table[k][0], lt)) == lcm

        # B
        kept = [q for q in queue
                if (q[0] - lt + offset) & guards or t_keeps(q[1], q[0]) or t_keeps(q[2], q[0])]
        if len(kept) < len(queue):
            heapify(kept)
            queue = kept
        # M: new is sorted by lcm, and a proper divisor of a monomial precedes
        # it; then F and the product criterion: keep[lcm] is the least i with
        # that lcm, or None when one of them has coprime leading monomials
        keep = {}
        for lcm, i in new:
            if lcm in keep or all((lcm - m + offset) & guards for m in keep):
                keep[lcm] = None if lcm - table[i][0] + offset == lt else keep.get(lcm, i)
        for lcm, i in keep.items():
            if i is not None:
                heappush(queue, (lcm, i, t))
        active = [i for i in active if (table[i][0] - lt + offset) & guards]
        active.append(t)

    for t in range(len(basis)):
        update(t)
    while queue:
        lcm, i, j = heappop(queue)
        r = _divide(basis[i], table, table[j], lcm - table[i][0])
        if not r.terms:
            continue
        r = r.monic()
        if _is_one(r):
            return [r]
        if len(basis) >= MAX_BASIS_ELEMENTS:
            raise InputError(
                f"the Groebner basis would grow past MAX_BASIS_ELEMENTS = {MAX_BASIS_ELEMENTS} elements")
        if ring.domain is QQ and max(map(abs, r.terms.values())) >= _COEFFICIENT_CEILING:
            raise InputError("a Groebner basis element would have a coefficient of more than "
                             f"MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits")
        basis.append(r)
        table.append(r.lead)
        update(len(basis) - 1)
    return [basis[k] for k in active]


def _interreduced(basis):
    """The reduced Groebner basis from the pair loop's: minimal, each element
    reduced by the others, sorted by leading monomial.

    The minimal elements are reduced in increasing order of leading
    monomial, each by the smaller ones already reduced: every term of an
    element, and every term its division makes, lies below its leading
    monomial, so no larger leading monomial divides one.  Each comes out as
    the reduced basis's element with its leading monomial, which is unique.
    """
    ring = basis[0].ring
    offset, guards = ring.offset, ring.guards
    # no two leading monomials are equal (the later element deactivates the
    # earlier), and a divisor of a monomial precedes it: keep each element
    # whose leading monomial no smaller kept one divides
    minimal = []
    for b in sorted(basis, key=lambda b: b.lead[0]):
        if all((b.lead[0] - m.lead[0] + offset) & guards for m in minimal):
            minimal.append(b)
    # no other leading monomial divides a minimal element's, so its
    # remainder keeps its leading term; monic() makes a QQ remainder
    # primitive again before it reduces the larger elements
    reduced = minimal[:1]
    for p in minimal[1:]:
        reduced.append(_divide(p, [q.lead for q in reduced]).monic())
    return [ring.to_poly(p) for p in reduced]


def _groebner_basis(packed):
    """The pair loop's basis for the nonzero packed polynomials, monic; []
    for none."""
    basis = [p.monic() for p in packed if p.terms]
    return _pair_loop(basis) if basis else []


def _reduced_basis(packed):
    """The reduced Groebner basis of packed polynomials in one ring."""
    basis = _groebner_basis(packed)
    return _interreduced(basis) if basis else []


def buchberger(gens, order=DEFAULT_ORDER) -> list[LaurentPoly]:
    """Reduced Groebner basis (monic, sorted by leading monomial)."""
    return _run_on(_reduced_basis, gens, order)


def _is_unit(packed) -> bool:
    """Whether the pair loop on packed polynomials in one ring meets a
    nonzero constant."""
    basis = _groebner_basis(packed)
    return len(basis) == 1 and _is_one(basis[0])


def is_unit_ideal(gens, order=DEFAULT_ORDER) -> bool:
    """True iff the polynomial ideal generated by gens is the whole ring.

    The pair loop stops at the first constant, and nothing is interreduced.
    """
    return _run_on(_is_unit, gens, order)


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


def _lattice_unit(systems, prime=None):
    """Laurent unit-ideal test for generators of at most two terms.

    ``systems`` are the generators' term dicts, nonzero and over one
    variable list, with coefficients in one field, or with ``prime`` nonzero
    ints mod prime.  Returns None when some generator has three or more
    terms; otherwise (flag, witness).  A unit ideal's witness is
    {"monomial": i} when generator i has one term (a unit of the Laurent
    ring), else {"relation": c}: with a the lexicographically larger
    exponent of the binomial generator i, c1*x^a + c2*x^b, d_i = a - b and
    lam_i = -c2/c1, the vector c has sum c_i d_i = 0 and prod lam_i^(c_i) !=
    1, so the nonzero constant 1 - prod lam_i^(c_i) lies in the ideal.  A
    proper ideal has witness None.  Clearing negative exponents moves both
    exponents of a binomial alike, so the answer is that of the cleared
    system.
    """
    if any(len(t) > 2 for t in systems):
        return None
    for i, t in enumerate(systems):
        if len(t) == 1:
            return True, {"monomial": i}
    rows, lams = [], []
    for t in systems:
        b, a = sorted(t)
        rows.append(tuple(x - y for x, y in zip(a, b)))
        lams.append(-t[b] * pow(t[a], -1, prime))
    for c in _integer_left_kernel(rows):
        num = prod(pow(lam, k, prime) for lam, k in zip(lams, c) if k > 0)
        den = prod(pow(lam, -k, prime) for lam, k in zip(lams, c) if k < 0)
        if (num - den) % prime if prime else num != den:
            return True, {"relation": c}
    return False, None


def _saturated(variables, domain, systems):
    """The saturated system of Laurent generators: its variable list,
    variables + (t_aux,), and its term dicts, each of the term dicts
    ``systems`` (nonzero, coefficients as ``_pack`` takes them) times the
    monomial that clears its negative exponents, with a zero exponent of
    t_aux appended, and then 1 - t_aux * x_1 * ... * x_n."""
    cleared = []
    for terms in systems:
        low = [min(0, *column) for column in zip(*terms)]
        cleared.append({tuple(x - m for x, m in zip(e, low)) + (0,): c for e, c in terms.items()})
    n = len(variables) + 1
    p = domain.p if isinstance(domain, PrimeField) else None
    cleared.append({(0,) * n: 1 if p else domain.one, (1,) * n: p - 1 if p else domain.coerce(-1)})
    return variables + (saturation_variable(variables),), cleared


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
    variables, domain, terms = _term_dicts(gens)
    positions = [i for i, t in enumerate(terms) if t]
    if not positions:
        return False, [], None, "lattice", None
    aux = saturation_variable(variables)
    systems = [terms[i] for i in positions]
    decided = _lattice_unit(systems, domain.p if isinstance(domain, PrimeField) else None)
    if decided is not None and decided[0]:
        one = LaurentPoly.constant(domain.one, variables + (aux,), domain)
        ((kind, value),) = decided[1].items()
        if kind == "monomial":
            value = positions[value]
        else:  # entry 0 at each zero generator
            at = dict(zip(positions, value))
            value = [at.get(i, 0) for i in range(len(terms))]
        return True, [one], aux, "lattice", {kind: value}
    basis = _run(_reduced_basis, order, domain, *_saturated(variables, domain, systems))
    if decided is not None:
        return False, basis, aux, "lattice", None
    return len(basis) == 1 and basis[0].is_constant(), basis, aux, "buchberger", None


def laurent_unit_ideal(gens, order=DEFAULT_ORDER):
    """Unit-ideal test in the Laurent ring.

    Returns (flag, basis, aux) where basis is the reduced Groebner basis of
    the saturated polynomial system over variables + (aux,).
    """
    return laurent_unit_report(gens, order)[:3]


def _residue(c, field: PrimeField) -> int:
    """The coefficient c read in GF(p) as an int in [0, p): an int is c % p;
    a rational whose denominator p divides, or another field's element, goes
    to ``coerce``, which raises."""
    if type(c) is int:
        return c % field.p
    if isinstance(c, Fraction) and c.denominator % field.p:
        return c.numerator * pow(c.denominator, -1, field.p) % field.p
    return field.coerce(c).val


def unit_ideal_mod_p(gens, prime: int, laurent: bool = True) -> bool:
    """Unit-ideal test for gens with coefficients read in GF(prime).

    Generators that vanish mod prime are dropped, and a binomial that lost a
    coefficient is a monomial.  With ``laurent`` the ideal is taken in the
    Laurent ring: when every remaining generator has at most two terms the
    exponent lattice decides (``_lattice_unit``), and otherwise Buchberger
    runs once on the saturated system (``_saturated``, as over QQ).  Without
    it the ideal is taken in the polynomial ring.  The residues are read off
    the generators' terms in one pass and packed as they are: no GF(prime)
    polynomial is built.  A coefficient whose denominator is divisible by
    prime raises ZeroDivisionError; the generators pass ``common_ring``
    first, so a non-polynomial is a TypeError.
    """
    variables, _, polys = common_ring(gens)
    field = PrimeField(prime)
    systems = [t for g in polys if (t := {e: r for e, c in g.terms.items() if (r := _residue(c, field))})]
    if not laurent:
        return bool(systems) and _run(_is_unit, DEFAULT_ORDER, field, variables, systems)
    decided = _lattice_unit(systems, prime)
    if decided is not None:
        return decided[0]
    return _run(_is_unit, DEFAULT_ORDER, field, *_saturated(variables, field, systems))
