"""Property tests for Buchberger, drawn by the hypothesis library: the reduced
basis does not depend on the order or the scaling of the generators, every
generator reduces to zero modulo it, and so does every S-polynomial of two of
its elements."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from artin_sigma import LaurentPoly, PrimeField, QQ, buchberger, reduce_poly  # noqa: E402
from artin_sigma.groebner import s_polynomial  # noqa: E402

VARIABLES = ("x", "y", "z")


@st.composite
def ideals(draw):
    """(order, domain, generators): 1-4 generators of 1-4 terms in 2-3
    variables, total degree <= 3, over QQ or a small prime field."""
    nvars = draw(st.integers(min_value=2, max_value=3))
    variables = VARIABLES[:nvars]
    exponents = st.tuples(*[st.integers(min_value=0, max_value=3)] * nvars).filter(lambda e: sum(e) <= 3)
    coefficients = st.integers(min_value=-4, max_value=4).filter(bool)
    domain = draw(st.sampled_from([QQ, PrimeField(2), PrimeField(5), PrimeField(7)]))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        terms = draw(st.dictionaries(exponents, coefficients, min_size=1, max_size=4))
        poly = LaurentPoly(variables, terms, domain)
        hypothesis.assume(not poly.is_zero())
        gens.append(poly)
    order = draw(st.sampled_from(["grevlex", "lex"]))
    return order, domain, gens


def nonzero_scalars(domain, count):
    if domain == QQ:
        values = st.fractions(min_value=-5, max_value=5, max_denominator=4)
    else:
        values = st.integers(min_value=1, max_value=domain.p - 1)
    return st.lists(values.filter(bool), min_size=count, max_size=count)


def strings(basis):
    return [b.to_string() for b in basis]


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(st.data())
def test_basis_ignores_generator_order_and_scaling(data):
    order, domain, gens = data.draw(ideals())
    basis = buchberger(gens, order)
    perm = data.draw(st.permutations(range(len(gens))))
    scalars = data.draw(nonzero_scalars(domain, len(gens)))
    moved = [gens[i] * LaurentPoly.constant(domain.coerce(c), gens[i].variables, domain)
             for i, c in zip(perm, scalars)]
    assert strings(buchberger(moved, order)) == strings(basis)


@hypothesis.settings(max_examples=150, deadline=None, derandomize=True, database=None)
@hypothesis.given(ideals())
def test_generators_and_s_polynomials_reduce_to_zero(ideal):
    order, _, gens = ideal
    basis = buchberger(gens, order)
    for g in gens:
        assert reduce_poly(g, basis, order).is_zero(), g.to_string()
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            s = s_polynomial(basis[i], basis[j], order)
            assert reduce_poly(s, basis, order).is_zero(), (i, j)

