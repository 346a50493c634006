import random
from fractions import Fraction

import pytest

from artin_sigma import (
    CyclotomicField,
    InputError,
    LaurentPoly,
    PrimeField,
    QQ,
    ZZ,
    cyclotomic_polynomial,
    parse_poly,
)
from artin_sigma.laurent import _coeff_pow

VARS = ("x", "y")


def rand_poly(rng, variables=VARS, nterms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        key = tuple(rng.randint(-span, span) for _ in variables)
        terms[key] = rng.randint(-9, 9)
    return LaurentPoly(variables, terms, ZZ)


def test_constructors_and_equality():
    zero = LaurentPoly.zero(VARS, ZZ)
    one = LaurentPoly.constant(1, VARS, ZZ)
    x = LaurentPoly.variable("x", VARS, ZZ)
    assert zero.is_zero()
    assert not one.is_zero()
    assert one.is_constant() and one.constant_value() == 1
    assert (x - x) == zero
    assert x != one
    assert LaurentPoly.monomial(1, (1, 0), VARS, ZZ) == x


def test_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(150):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero(VARS, ZZ) == a
        assert a * LaurentPoly.constant(1, VARS, ZZ) == a
        assert a - a == LaurentPoly.zero(VARS, ZZ)


def test_laurent_negative_exponents():
    x = LaurentPoly.variable("x", VARS, ZZ)
    xinv = x ** -1
    assert x * xinv == LaurentPoly.constant(1, VARS, ZZ)
    with pytest.raises(InputError):
        (x + LaurentPoly.constant(1, VARS, ZZ)) ** -1


def test_pow():
    x = LaurentPoly.variable("x", VARS, ZZ)
    y = LaurentPoly.variable("y", VARS, ZZ)
    p = (x + y) ** 3
    assert p.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert (x * y) ** -2 == LaurentPoly.monomial(1, (-2, -2), VARS, ZZ)
    assert (x ** 0) == LaurentPoly.constant(1, VARS, ZZ)


def test_parse_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        p = rand_poly(rng)
        q = parse_poly(p.to_string(), VARS, ZZ) if not p.is_zero() else p
        assert q == p


def test_parse_examples():
    p = parse_poly("1 + x*y", VARS)
    assert p.terms == {(0, 0): Fraction(1), (1, 1): Fraction(1)}
    q = parse_poly("(x+y)^2 - x^2 - y^2 - 2*x*y", VARS)
    assert q.is_zero()
    r = parse_poly("x^-1", VARS)
    assert r.terms == {(-1, 0): Fraction(1)}
    s = parse_poly("-x + 3/2", VARS)
    assert s.terms == {(1, 0): Fraction(-1), (0, 0): Fraction(3, 2)}
    with pytest.raises(InputError):
        parse_poly("x +", VARS)
    with pytest.raises(InputError):
        parse_poly("z", VARS)


def test_normalized_clears_negatives():
    p = parse_poly("x^-2*y + x^-1", VARS)
    n = p.normalized()
    assert all(e >= 0 for exps in n.terms for e in exps)
    assert n == parse_poly("y + x", VARS)


def test_substitute_and_evaluate():
    p = parse_poly("x^2*y - 3", VARS, QQ)
    images = {
        "x": LaurentPoly.monomial(Fraction(2), (0,), ("t",), QQ),
        "y": LaurentPoly.monomial(Fraction(1), (3,), ("t",), QQ),
    }
    q = p.substitute(images)
    assert q.variables == ("t",)
    assert q.terms == {(3,): Fraction(4), (0,): Fraction(-3)}
    assert p.evaluate({"x": Fraction(2), "y": Fraction(1, 4)}) == 2 * 2 * Fraction(1, 4) - 3


def test_reorder_and_extend():
    p = parse_poly("x - y", VARS, ZZ)
    r = p.reorder_variables(("y", "x"))
    assert r.variables == ("y", "x")
    assert r.terms == {(0, 1): 1, (1, 0): -1}
    e = p.extend_variables(("x", "y", "z"))
    assert e.variables == ("x", "y", "z")
    assert e.terms == {(1, 0, 0): 1, (0, 1, 0): -1}


def test_domain_unification():
    x_zz = LaurentPoly.variable("x", VARS, ZZ)
    half = LaurentPoly.constant(Fraction(1, 2), VARS, QQ)
    s = x_zz + half
    assert s.domain is QQ
    assert s.terms[(0, 0)] == Fraction(1, 2)


# ---------------------------------------------------------------------------
# cyclotomic fields


def test_cyclotomic_polynomials_known():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)


def test_zeta_orders():
    for order in range(2, 25):
        field = CyclotomicField(order)
        z = field.zeta_power(1)
        assert z ** order == field.one
        acc = field.one
        for k in range(1, order):
            acc = acc * z
            assert acc != field.one, (order, k)


def test_zeta_power_sums_vanish():
    # 1 + zeta_m + ... + zeta_m^(m-1) = 0, computed inside Q(zeta_M)
    for m, M in ((2, 2), (2, 6), (3, 6), (3, 12), (4, 12), (6, 12)):
        field = CyclotomicField(M)
        lam = field.zeta_power(M // m)
        total = field.zero
        for k in range(m):
            total = total + lam ** k
        assert total == field.zero, (m, M)


def test_zeta_power_matches_repeated_products():
    # reference: multiply by t through the generic product, one step at a time
    for order in range(1, 61):
        field = CyclotomicField(order)
        if field.degree == 1:
            t = (Fraction(-field.phi[0]),)
        else:
            t = tuple(Fraction(int(i == 1)) for i in range(field.degree))
        powers = [field.one]
        for _ in range(2 * order - 1):
            powers.append(field._reduce_product(powers[-1].coords, t))
        assert powers[order] == field.one, order
        for k in range(-order, 2 * order):
            expect = powers[k] if k >= 0 else powers[k + order]
            assert field.zeta_power(k) == expect, (order, k)


def test_cyclo_inverse():
    rng = random.Random(12)
    field = CyclotomicField(12)
    for _ in range(40):
        coords = [Fraction(rng.randint(-5, 5)) for _ in range(field.degree)]
        x = field.element(coords)
        if x == field.zero:
            continue
        assert x * x.inverse() == field.one


def test_prime_field():
    f5 = PrimeField(5)
    a = f5.coerce(7)
    assert a == f5.coerce(2)
    assert (a / f5.coerce(3)) * f5.coerce(3) == a
    assert f5.coerce(Fraction(1, 2)) == f5.coerce(3)
    with pytest.raises(InputError):
        PrimeField(6)
    with pytest.raises(ZeroDivisionError):
        f5.coerce(Fraction(1, 5))


def test_cyclotomic_polynomials_vs_sympy():
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t")
    for n in range(1, 61):
        expected = sympy.Poly(sympy.cyclotomic_poly(n, t), t).all_coeffs()[::-1]
        assert cyclotomic_polynomial(n) == tuple(int(c) for c in expected)


@pytest.mark.parametrize(
    "domain, base",
    [
        (QQ, Fraction(-3, 2)),
        (PrimeField(7), PrimeField(7).coerce(3)),
        (CyclotomicField(12), CyclotomicField(12).element([Fraction(1, 2), -3, Fraction(2, 3), 5])),
    ],
    ids=["Fraction", "FpElement", "CycloNum"],
)
def test_coeff_pow_matches_repeated_multiplication(domain, base):
    for e in (0, 1, 2, 7, -3):
        factor = base if e >= 0 else domain.one / base
        expected = domain.one
        for _ in range(abs(e)):
            expected = expected * factor
        assert _coeff_pow(base, e, domain) == expected, e


def test_to_string_cyclotomic_coefficients():
    field = CyclotomicField(3)
    zeta = field.zeta
    p = LaurentPoly(("x",), {(1,): zeta + 1, (0,): field.coerce(-1)}, field)
    assert p.to_string() == "(1 + zeta)*x - 1"
    q = LaurentPoly(("x",), {(2,): -zeta, (1,): -3 * field.one, (0,): 1 - zeta, (-1,): 2 * zeta}, field)
    assert q.to_string() == "-zeta*x^2 - 3*x + (1 - zeta) + 2*zeta*x^-1"


def test_to_string_other_domains_unchanged():
    gf7 = PrimeField(7)
    assert parse_poly("3*x^2 - 1/2*x*y^-1 - 5", VARS).to_string() == "3*x^2 - 1/2*x*y^-1 - 5"
    assert parse_poly("-x + 4*y - 1", VARS, ZZ).to_string() == "-x + 4*y - 1"
    assert parse_poly("3*x^2 - x - 5", VARS, gf7).to_string() == "3*x^2 + 6*x + 2"


def test_power_is_repeated_product():
    from artin_sigma.fields import power

    field = CyclotomicField(12)
    p = parse_poly("1 + x - 2*y^-1", VARS)
    for base, one in ((3, 1), (Fraction(-2, 3), Fraction(1)), (field.zeta + 2, field.one),
                      (p, LaurentPoly.constant(1, VARS, ZZ))):
        expected = one
        for e in range(10):
            assert power(base, e, one) == expected
            expected = expected * base
    assert (field.zeta + 2) ** -3 == power((field.zeta + 2).inverse(), 3, field.one)
    assert p ** 4 == p * p * p * p
