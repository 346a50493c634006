import random
import tracemalloc
from fractions import Fraction
from math import gcd

import pytest

from artin_sigma import (
    CyclotomicField,
    InputError,
    LaurentPoly,
    PrimeField,
    QQ,
    cyclotomic_polynomial,
    parse_poly,
)
from artin_sigma.fields import MAX_CYCLOTOMIC_ORDER, _MILLER_RABIN_LIMIT, _is_prime, unify_domains
from artin_sigma.laurent import MAX_COEFFICIENT_DIGITS, MAX_POWER_TERMS, _check_power, common_ring
from oracles import cyclotomic_coefficients, cyclotomic_product
from specialization_oracle import substitute

VARS = ("x", "y")


def rand_poly(rng, variables=VARS, nterms=4, span=3):
    terms = {}
    for _ in range(rng.randint(0, nterms)):
        key = tuple(rng.randint(-span, span) for _ in variables)
        terms[key] = rng.randint(-9, 9)
    return LaurentPoly(variables, terms, QQ)


def test_constructors_and_equality():
    zero = LaurentPoly.zero(VARS, QQ)
    one = LaurentPoly.constant(1, VARS, QQ)
    x = LaurentPoly.variable("x", VARS, QQ)
    assert zero.is_zero()
    assert not one.is_zero()
    assert one.is_constant()
    assert (x - x) == zero
    assert x != one
    assert LaurentPoly.monomial(1, (1, 0), VARS, QQ) == x


def test_ring_axioms_random():
    rng = random.Random(99)
    for _ in range(150):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + LaurentPoly.zero(VARS, QQ) == a
        assert a * LaurentPoly.constant(1, VARS, QQ) == a
        assert a - a == LaurentPoly.zero(VARS, QQ)


def test_laurent_negative_exponents():
    x = LaurentPoly.variable("x", VARS, QQ)
    xinv = x ** -1
    assert x * xinv == LaurentPoly.constant(1, VARS, QQ)
    with pytest.raises(InputError):
        (x + LaurentPoly.constant(1, VARS, QQ)) ** -1


def test_pow():
    x = LaurentPoly.variable("x", VARS, QQ)
    y = LaurentPoly.variable("y", VARS, QQ)
    p = (x + y) ** 3
    assert p.terms == {(3, 0): 1, (2, 1): 3, (1, 2): 3, (0, 3): 1}
    assert (x * y) ** -2 == LaurentPoly.monomial(1, (-2, -2), VARS, QQ)
    assert (x ** 0) == LaurentPoly.constant(1, VARS, QQ)


def test_parse_round_trip():
    rng = random.Random(5)
    for _ in range(60):
        p = rand_poly(rng)
        q = parse_poly(p.to_string(), VARS, QQ) if not p.is_zero() else p
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
    # numbers are ASCII digits over a nonzero denominator; Fraction() would
    # read any Unicode decimal digit, and raise ZeroDivisionError on 1/0
    for text in ("1/0*x", "x + 3/00"):
        with pytest.raises(InputError, match="zero denominator"):
            parse_poly(text, VARS)
    for text in ("x^\u0663", "\u0664*x", "1/\u0663"):
        with pytest.raises(InputError, match="bad character"):
            parse_poly(text, VARS)


def test_parse_refuses_variable_names_no_polynomial_can_use():
    # a declared name must be one identifier token, or no generator could
    # name it; each refusal names the bad name
    for bad in ("x*y", "a b", "1x", "", "x ", "x\n", "\u00e4"):
        with pytest.raises(InputError, match="is not an identifier") as raised:
            parse_poly("1", ("u", bad))
        assert repr(bad) in str(raised.value)
    names = ("_t", "x0", "t_aux", "X_1")
    assert parse_poly("_t*x0 - t_aux*X_1", names).terms == {(1, 1, 0, 0): 1, (0, 0, 1, 1): -1}


def test_power_guard_fires_before_expanding(monkeypatch):
    x = LaurentPoly.variable("x", VARS, QQ)
    # the bound is the product over the variables of e * degree span + 1
    for base, e in ((1 + x, 999), (x ** -2 + x ** 3, 199), (parse_poly("1+x+y", VARS), 30)):
        _check_power(base, e)
        with pytest.raises(InputError, match=f"MAX_POWER_TERMS = {MAX_POWER_TERMS}"):
            _check_power(base, e + 1)

    def refuse(self, e):
        raise AssertionError("expanded")

    monkeypatch.setattr(LaurentPoly, "__pow__", refuse)
    for text in ("(1+x)^20000", "(x+y)^32"):
        with pytest.raises(InputError, match="more than MAX_POWER_TERMS = 1000 terms"):
            parse_poly(text, VARS)
    monkeypatch.undo()
    # a monomial has span 0 and stays one term
    assert parse_poly("(x*y)^20000", VARS).terms == {(20000, 20000): Fraction(1)}


def test_digit_guards_fire_before_converting_or_expanding(monkeypatch):
    # Python's int-string limit is the bound on a written number and on the
    # coefficients of a power; 2^14284 has 4300 digits, 2^14285 has 4301
    assert MAX_COEFFICIENT_DIGITS == 4300
    assert str(parse_poly("2^14284", VARS).terms[(0, 0)]).isdigit()
    assert parse_poly("1" * 4300 + "/7", VARS).terms[(0, 0)].denominator == 7
    for text in ("1" * 4301, "1/" + "1" * 4301, "x^" + "1" * 4301):
        with pytest.raises(InputError, match="a number has more than MAX_COEFFICIENT_DIGITS = 4300"):
            parse_poly(text, VARS)

    def refuse(self, e):
        raise AssertionError("expanded")

    monkeypatch.setattr(LaurentPoly, "__pow__", refuse)
    for text in ("2^14285", "(1/2)^-14285", "2^1000000000", f"({10**100}*x + 1)^43"):
        with pytest.raises(InputError, match="coefficients may have more than MAX_COEFFICIENT_DIGITS"):
            parse_poly(text, VARS)


def test_substitute_and_evaluate():
    # substitute, the expansion of the zeta-power specialization oracle
    p = parse_poly("x^2*y - 3", VARS, QQ)
    images = {
        "x": LaurentPoly.monomial(Fraction(2), (0,), ("t",), QQ),
        "y": LaurentPoly.monomial(Fraction(1), (3,), ("t",), QQ),
    }
    q = substitute(p, images)
    assert q.variables == ("t",)
    assert q.terms == {(3,): Fraction(4), (0,): Fraction(-3)}
    t = LaurentPoly.variable("t", ("t",))
    with pytest.raises(InputError):  # images over two variable lists
        substitute(p, {"x": t, "y": LaurentPoly.variable("s", ("s", "t"))})
    with pytest.raises(InputError):
        substitute(p, {"x": t, "y": t + 1})
    with pytest.raises(TypeError):
        substitute(p, {"x": t, "y": 2})


def test_domain_unification():
    field = CyclotomicField(5)
    zeta = LaurentPoly.constant(field.zeta, VARS)
    s = LaurentPoly.variable("x", VARS, QQ) + zeta
    assert s.domain == field
    assert s.terms == {(1, 0): field.one, (0, 0): field.zeta}
    assert unify_domains(QQ, field) == unify_domains(field, QQ) == field
    gf7 = PrimeField(7)
    for a, b in ((gf7, field), (field, gf7), (QQ, gf7), (field, CyclotomicField(3))):
        with pytest.raises(TypeError):
            unify_domains(a, b)
    with pytest.raises(TypeError):
        LaurentPoly.variable("x", VARS, gf7) + zeta
    x = LaurentPoly.variable("x", VARS)
    variables, domain, (a, b) = common_ring([x, zeta])
    assert (variables, domain) == (VARS, field) and (a.domain, b.domain) == (field, field)
    assert a == x and b is zeta
    assert common_ring([]) == (None, None, [])
    with pytest.raises(TypeError):
        common_ring([x, 1])
    with pytest.raises(InputError):
        common_ring([x, LaurentPoly.variable("x", ("x",))])
    with pytest.raises(TypeError):
        common_ring([x, LaurentPoly.variable("x", VARS, gf7)])


def test_integer_input_lands_in_qq():
    from artin_sigma import (BipartiteForest, abelianization_map, abelianize,
                             forest_presentation, parse_graph, parse_word)

    def in_qq(p):
        return p.domain is QQ and all(type(c) is Fraction for c in p.terms.values())

    assert in_qq(LaurentPoly.constant(1, VARS))
    assert in_qq(LaurentPoly.monomial(-3, (1, 2), VARS))
    assert in_qq(LaurentPoly.variable("y", VARS))
    assert LaurentPoly.zero(VARS).domain is QQ
    assert in_qq(LaurentPoly(VARS, {(0, 1): 2}, QQ) * 3 - 1)
    amap = abelianization_map(parse_graph("v a\nv b\nv c\ne a b 3\ne b c 4\n"))
    assert in_qq(abelianize(parse_word("a b^-2 c"), amap))
    pres = forest_presentation(BipartiteForest(("v", "t"), ("w",), (("v", "w", 6),)))
    assert all(in_qq(entry) for row in pres.rows for entry in row.values())


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
            powers.append(powers[-1] * field.element(t))
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


def _random_coords(rng, degree):
    return [Fraction(rng.randint(-6, 6), rng.choice((1, 1, 2, 3, 4, 6, 9))) for _ in range(degree)]


def _lowest_terms(x):
    return x.den > 0 and gcd(x.den, *x.num) == 1


def test_cyclonum_arithmetic_matches_fraction_oracle():
    # every result against Fraction coordinates multiplied modulo Phi_M
    rng = random.Random(15)
    dense_rng = random.Random(16)
    for order in range(1, 61):
        field = CyclotomicField(order)
        phi = cyclotomic_coefficients(order)
        n = field.degree
        unit = [Fraction(1)] + [Fraction(0)] * (n - 1)
        for _ in range(2):
            a, b = _random_coords(rng, n), _random_coords(rng, n)
            x, y = field.element(a), field.element(b)
            r = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            results = {
                "x": (x, a),
                "x+y": (x + y, [p + q for p, q in zip(a, b)]),
                "x-y": (x - y, [p - q for p, q in zip(a, b)]),
                "-x": (-x, [-p for p in a]),
                "r-x": (r - x, [r - a[0]] + [-p for p in a[1:]]),
                "x*y": (x * y, cyclotomic_product(a, b, phi)),
                "x*r": (x * r, [p * r for p in a]),
            }
            for name, (got, want) in results.items():
                assert got.coords == tuple(want), (order, name)
                assert _lowest_terms(got), (order, name)
                assert got == field.element(want) and hash(got) == hash(field.element(want))
                assert bool(got) == any(want), (order, name)
            # a divisor with two nonzero coordinates
            d = [Fraction(0)] * n
            for i in rng.sample(range(n), min(n, 2)):
                d[i] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2, 3, 4, 6, 9)))
            z = field.element(d)
            q = x / z
            assert cyclotomic_product(q.coords, d, phi) == a, order
            zz = z ** -2
            assert cyclotomic_product(zz.coords, cyclotomic_product(d, d, phi), phi) == unit
            assert _lowest_terms(zz) and zz * r / r == zz
            assert _lowest_terms(q)
            # a rational element equals that int or Fraction, and hashes like
            # the same element built from other denominators
            c = field.element([r] + [0] * (n - 1))
            assert c == r and c == field.coerce(r) and hash(c) == hash(field.coerce(r))
            assert (x - x) == 0 and (x - x) == Fraction(0) and not (x - x)
            assert x + y - y == x and hash(x + y - y) == hash(x)
        # and one dense divisor: the inverse through the norm takes O(phi(M)^3)
        # integer products, about a tenth of a second at M = 59
        d = [Fraction(dense_rng.choice((-5, -3, -2, -1, 1, 2, 3, 5)), dense_rng.choice((1, 2, 3, 4)))
             for _ in range(n)]
        z = field.element(d)
        zinv = z.inverse()
        assert cyclotomic_product(zinv.coords, d, phi) == unit, order
        assert _lowest_terms(zinv)


def test_cyclonum_is_kept_in_lowest_terms():
    field = CyclotomicField(3)
    half = field.element([Fraction(2, 4), 1])
    assert half == field.element([Fraction(1, 2), 1])
    assert hash(half) == hash(field.element([Fraction(1, 2), 1]))
    assert (half.num, half.den) == ((1, 2), 2)
    # sums and products are divided through by the gcd, too
    s = field.element([Fraction(1, 6), Fraction(1, 3)]) + field.element([Fraction(1, 3), Fraction(2, 3)])
    assert (s.num, s.den) == ((1, 2), 2) and s == half
    p = field.element([Fraction(2, 3), 0]) * field.element([Fraction(3, 2), 0])
    assert (p.num, p.den) == ((1, 0), 1) and p == 1
    assert (field.zero.num, field.zero.den) == ((0, 0), 1)
    assert field.zero is field.zero and field.one is field.one


def test_cyclotomic_order_guard_fires_before_building():
    assert MAX_CYCLOTOMIC_ORDER == 1000
    tracemalloc.start()
    try:
        for order in (MAX_CYCLOTOMIC_ORDER + 1, 2 * 10**9):
            with pytest.raises(InputError, match=f"MAX_CYCLOTOMIC_ORDER = {MAX_CYCLOTOMIC_ORDER}"):
                cyclotomic_polynomial(order)
            with pytest.raises(InputError, match=f"MAX_CYCLOTOMIC_ORDER = {MAX_CYCLOTOMIC_ORDER}"):
                CyclotomicField(order)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # t^(2*10^9) - 1 alone would take 16 GB
    assert len(cyclotomic_polynomial(MAX_CYCLOTOMIC_ORDER)) == 401


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


def test_is_prime_matches_a_sieve():
    sieve = [False, False] + [True] * 1998
    for i in range(2, 45):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(sieve[i * i::i])
    assert [_is_prime(n) for n in range(2000)] == sieve


def test_prime_field_modulus_checks():
    # 561 and 1105 are Carmichael numbers: Fermat tests on coprime bases pass
    for p in (0, 1, 561, 1105):
        with pytest.raises(InputError, match="not prime"):
            PrimeField(p)
    assert PrimeField(2).p == 2
    assert PrimeField(2**31 - 1).p == 2**31 - 1
    # the limit is the smallest composite passing all twelve bases
    assert _is_prime(_MILLER_RABIN_LIMIT)
    assert _MILLER_RABIN_LIMIT == 399165290221 * 798330580441
    with pytest.raises(InputError, match="limit"):
        PrimeField(_MILLER_RABIN_LIMIT)
    with pytest.raises(InputError, match="limit"):
        PrimeField(2**89 - 1)


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
        assert base ** e == expected, e


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
    assert parse_poly("-x + 4*y - 1", VARS, QQ).to_string() == "-x + 4*y - 1"
    assert parse_poly("3*x^2 - x - 5", VARS, gf7).to_string() == "3*x^2 + 6*x + 2"


def test_power_is_repeated_product():
    from artin_sigma.fields import power

    field = CyclotomicField(12)
    p = parse_poly("1 + x - 2*y^-1", VARS)
    for base, one in ((3, 1), (Fraction(-2, 3), Fraction(1)), (field.zeta + 2, field.one),
                      (p, LaurentPoly.constant(1, VARS, QQ))):
        expected = one
        for e in range(10):
            assert power(base, e, one) == expected
            expected = expected * base
    assert (field.zeta + 2) ** -3 == power((field.zeta + 2).inverse(), 3, field.one)
    assert p ** 4 == p * p * p * p
