"""The specialization by powers of zeta, kept as the oracle for
``presentations.specialize`` and the certificate kernel.

Each vertex image is the one-term polynomial zeta^j * x^e over the field,
and ``substitute`` expands a presentation entry by raising those images to
their powers in the field and multiplying them out.  The certificate is then
checked on the resulting Laurent polynomials: the witness kills every row
and the minor is triangular with a nonzero diagonal.  The package reads the
same specialization off integer exponents and residues mod M; a differential
test compares the two.  Slow is fine.
"""

from artin_sigma import PolyMatrix
from artin_sigma.errors import InputError
from artin_sigma.fields import QQ, CycloNum, unify_domains
from artin_sigma.laurent import LaurentPoly, common_ring
from artin_sigma.presentations import (
    NOT_FINITELY_GENERATED,
    WITNESS_MINOR,
    Certificate,
    _minor,
    forest_presentation,
    specialization_data,
)


def substitute(poly: LaurentPoly, images: dict) -> LaurentPoly:
    """Map each variable to a one-term Laurent polynomial (a coefficient
    times a monomial) and expand.  All images must share one variable list;
    the result lives over that list."""
    for v in poly.variables:
        if v not in images:
            raise ValueError(f"no image for variable {v!r}")
    if not poly.variables:
        return poly
    target_vars, dom, coerced = common_ring(images.values())
    if any(len(img.terms) > 1 for img in coerced):
        raise InputError("substitution images must be single-term")
    images = dict(zip(images, coerced))
    dom = unify_domains(dom, poly.domain)
    n = len(target_vars)
    out: dict = {}
    for exps, coeff in poly.terms.items():
        acc_c = dom.coerce(coeff)
        acc_e = [0] * n
        dead = False
        for v, e in zip(poly.variables, exps):
            if e == 0:
                continue
            img = images[v]
            if not img.terms:
                if e > 0:
                    dead = True
                    break
                raise ZeroDivisionError(f"negative power of zero image for {v!r}")
            ((ie, ic),) = img.terms.items()
            acc_c = acc_c * dom.coerce(ic) ** e
            for i, x in enumerate(ie):
                acc_e[i] += x * e
        if dead:
            continue
        key = tuple(acc_e)
        out[key] = out.get(key, dom.zero) + acc_c
    return LaurentPoly(target_vars, out, dom)


def x_images(spec) -> dict:
    """Each vertex image zeta^j * x^e as a one-term Laurent polynomial in x."""
    return {
        v: LaurentPoly.monomial(
            spec.domain.zeta_power(j) if j else spec.domain.one, (exp,), ("x",), spec.domain)
        for v, (j, exp) in spec.images.items()
    }


def specialized_matrix(pres, images: dict) -> PolyMatrix:
    zero = LaurentPoly.zero(("x",), next(iter(images.values())).domain)
    return PolyMatrix([[substitute(entry, images) if entry else zero for entry in row]
                       for row in pres.rows])


def witness(images: dict, generators: tuple, domain) -> list:
    one = LaurentPoly.constant(domain.one, ("x",), domain)
    return [(images[v] - one) * (images[w] - one) for v, w in generators]


def kills(matrix: PolyMatrix, vector: list, zero: LaurentPoly) -> bool:
    if not any(vector):
        return False
    for row in matrix.entries:
        if sum((e * u for e, u in zip(row, vector) if e), zero):
            return False
    return True


def triangular(matrix: PolyMatrix, pres, forest) -> bool:
    row_at = {label: i for i, label in enumerate(pres.row_labels)}
    col_at = {gen: j for j, gen in enumerate(pres.generators)}
    labels, columns = _minor(forest)
    cols = [col_at[gen] for gen in columns]
    for i, label in enumerate(labels):
        row = matrix.entries[row_at[label]]
        if not row[cols[i]] or any(row[j] for j in cols[i + 1:]):
            return False
    return True


def entry_string(poly: LaurentPoly) -> str:
    terms = {}
    for (e,), c in poly.terms.items():
        for i, q in enumerate(c.coords if isinstance(c, CycloNum) else (c,)):
            if q:
                terms[(e, i)] = q
    return LaurentPoly(("x", "zeta"), terms, QQ).to_string()


def specialize(pres, forest, chi) -> PolyMatrix:
    return specialized_matrix(pres, x_images(specialization_data(forest, chi)))


def certify(forest, chi) -> Certificate:
    """The certificate with both checks run on the expanded polynomials; a
    failed check raises RuntimeError."""
    pres = forest_presentation(forest)
    spec = specialization_data(forest, chi)
    images = x_images(spec)
    matrix = specialized_matrix(pres, images)
    vector = witness(images, pres.generators, spec.domain)
    if not kills(matrix, vector, LaurentPoly.zero(("x",), spec.domain)):
        raise RuntimeError("oracle: the witness is not a nonzero kernel vector")
    if not triangular(matrix, pres, forest):
        raise RuntimeError("oracle: the minor is not triangular with a nonzero diagonal")
    g = len(pres.generators)
    base_exps = tuple((b, spec.images[b][1]) for b in forest.basepoints)
    report = tuple(zip(pres.generators, map(entry_string, vector)))
    return Certificate(spec.order, spec.roots, base_exps, g, g - 1, NOT_FINITELY_GENERATED,
                       WITNESS_MINOR, report)
