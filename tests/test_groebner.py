import random
from fractions import Fraction

import pytest

import artin_sigma.groebner as groebner
from artin_sigma import (
    InputError,
    LaurentPoly,
    PrimeField,
    QQ,
    buchberger,
    is_unit_ideal,
    laurent_unit_ideal,
    parse_poly,
    reduce_poly,
    unit_ideal_mod_p,
)
from artin_sigma.groebner import ORDER_KEYS, leading_term, s_polynomial, saturation_variable, to_prime_field
from oracles import poly_gcd_univariate

UV = ("u", "v")
UVSW = ("u", "v", "s", "w")


def P(text, variables=UV):
    return parse_poly(text, variables, QQ)


def test_leading_term_orders():
    f = P("u^2 + u*v^2")
    assert leading_term(f, "lex") == ((2, 0), Fraction(1))
    assert leading_term(f, "grevlex") == ((1, 2), Fraction(1))


def test_reduce_poly():
    basis = [P("u^2 - 1")]
    r = reduce_poly(P("u^3 + u + 1"), basis)
    assert r == P("2*u + 1")
    assert reduce_poly(P("u^2 - 1"), basis).is_zero()


def test_s_polynomial_reduces_to_zero_in_basis():
    gens = [P("u^2 + v"), P("u*v - 1")]
    basis = buchberger(gens)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce_poly(s_polynomial(basis[i], basis[j]), basis).is_zero()


def test_buchberger_univariate_matches_gcd():
    # a Groebner basis of a univariate ideal is the monic gcd
    rng = random.Random(2024)
    T = ("t",)
    for _ in range(40):
        a = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 4)]
        b = [rng.randint(-4, 4) for _ in range(rng.randint(1, 5))] + [rng.randint(1, 4)]
        fa = LaurentPoly(T, {(i,): c for i, c in enumerate(a) if c}, QQ)
        fb = LaurentPoly(T, {(i,): c for i, c in enumerate(b) if c}, QQ)
        if fa.is_zero() or fb.is_zero():
            continue
        basis = buchberger([fa, fb])
        assert len(basis) == 1
        g = poly_gcd_univariate(a, b)
        expect = LaurentPoly(T, {(i,): c for i, c in enumerate(g) if c}, QQ)
        assert basis[0] == expect


def test_unit_ideal_univariate():
    assert is_unit_ideal([P("u^2 + u + 1", ("u",)), P("u + 1", ("u",))])
    assert not is_unit_ideal([P("u^2 + u + 1", ("u",))])


def test_buchberger_known_example():
    # lex basis of <x^2 - y, x*y - 1>: contains y^3 - 1 after elimination
    X = ("x", "y")
    basis = buchberger([P("x^2 - y", X), P("x*y - 1", X)], order="lex")
    strings = {b.to_string() for b in basis}
    assert "y^3 - 1" in strings


def test_buchberger_rejects_negative_exponents():
    with pytest.raises(InputError):
        buchberger([P("u^-1 + 1")])


def test_laurent_unit_ideal_simple():
    # 1 + u is not a unit in the polynomial ring but the ideal (u) is a unit
    # ideal in the Laurent ring
    flag, basis, aux = laurent_unit_ideal([P("u", ("u",))])
    assert flag
    assert aux == "t_aux"
    flag2, _, _ = laurent_unit_ideal([P("u + 1", ("u",))])
    assert not flag2


def test_saturation_variable_avoids_collisions():
    assert saturation_variable(("a", "b")) == "t_aux"
    assert saturation_variable(("t_aux", "b")) == "t_aux_"


def test_laurent_unit_ideal_fixture():
    gens = [
        P("1 + u*v", UVSW),
        P("1 + s*u + (s*u)^2", UVSW),
        P("1 + v*w", UVSW),
        P("1 + s*w", UVSW),
    ]
    flag, basis, _ = laurent_unit_ideal(gens)
    assert flag
    assert [b.to_string() for b in basis] == ["1"]


def test_unit_ideal_mod_p_fixture():
    gens = [
        P("1 + u*v", UVSW),
        P("1 + s*u + (s*u)^2", UVSW),
        P("1 + v*w", UVSW),
        P("1 + s*w", UVSW),
    ]
    for p in (2, 3, 5, 7, 11):
        assert unit_ideal_mod_p(gens, p, laurent=True), p


def test_unit_ideal_mod_p_can_differ_from_rationals():
    # <2> is the unit ideal over Q but vanishes mod 2
    two = P("2", ("u",))
    assert is_unit_ideal([two])
    assert not unit_ideal_mod_p([two], 2, laurent=False)
    assert unit_ideal_mod_p([two], 3, laurent=False)


def test_monomial_unit_invariance():
    # multiplying Laurent generators by monomial units leaves the answer alone
    gens = [P("1 + u*v"), P("v + u^2")]
    flag0, _, _ = laurent_unit_ideal(gens)
    u_unit = parse_poly("u^-1", UV, QQ)
    scaled = [u_unit * g for g in gens]
    flag1, _, _ = laurent_unit_ideal(scaled)
    assert flag0 == flag1


def test_basis_is_interreduced_and_monic():
    gens = [P("2*u^2 + 2*v"), P("3*u*v - 3")]
    basis = buchberger(gens)
    for b in basis:
        _, lc = leading_term(b)
        assert lc == 1
    for i, b in enumerate(basis):
        others = basis[:i] + basis[i + 1:]
        if others:
            assert reduce_poly(b, others) == b


@pytest.mark.parametrize("domain", [QQ, PrimeField(5)], ids=["QQ", "GF5"])
def test_reduce_and_buchberger_leave_inputs_unchanged(domain):
    # reduce_poly divides on a working dict; it must be a private copy
    gens = [parse_poly(t, UV, domain) for t in ("u^2 + v", "u*v - 1", "2*v^2 + u")]
    f = parse_poly("u^3*v + 3*u*v^2 - u + 1", UV, domain)
    before = [dict(p.terms) for p in gens + [f]]
    r = reduce_poly(f, gens)
    assert not r.is_zero()
    basis = buchberger(gens)
    basis_before = [dict(b.terms) for b in basis]
    reduce_poly(f, basis)
    buchberger(basis)
    assert [p.terms for p in gens + [f]] == before
    assert [b.terms for b in basis] == basis_before


def _random_ideal(rng, nvars):
    """2-4 generators of total degree <= 3 with 1-4 terms, integer coefficients."""
    monomials = _exponents(nvars, 3)
    gens = []
    for _ in range(rng.randint(2, 4)):
        chosen = rng.sample(monomials, rng.randint(1, 4))
        gens.append({e: rng.choice((-3, -2, -1, 1, 2, 3)) for e in chosen})
    return gens


def _exponents(nvars, degree):
    if nvars == 0:
        return [()]
    return [(d,) + rest for d in range(degree + 1) for rest in _exponents(nvars - 1, degree - d)]


def _sympy_reduced_basis(sympy, gens, symbols, order, modulus):
    """sympy's reduced basis made monic, coefficients as Fractions or residues in [0, p)."""
    exprs = [sum(c * sympy.prod([x ** k for x, k in zip(symbols, e)]) for e, c in g.items()) for g in gens]
    options = {"order": order} if modulus is None else {"order": order, "modulus": modulus}
    out = set()
    for poly in sympy.groebner(exprs, *symbols, **options).polys:
        if poly.is_zero:
            continue
        terms = {e: sympy.Rational(c) for e, c in poly.terms()}
        lc = terms[max(terms, key=ORDER_KEYS[order])]
        if modulus is None:
            monic = {e: Fraction(int((c / lc).p), int((c / lc).q)) for e, c in terms.items()}
        else:
            inv = pow(int(lc), -1, modulus)
            monic = {e: int(c) * inv % modulus for e, c in terms.items()}
        out.add(frozenset(monic.items()))
    return out


def test_buchberger_vs_sympy_groebner():
    # reduced Groebner bases are unique, so ours must equal sympy's exactly
    sympy = pytest.importorskip("sympy")
    rng = random.Random(5150)
    for case in range(40):
        nvars = rng.randint(2, 3)
        variables = ("x", "y", "z")[:nvars]
        symbols = sympy.symbols(variables)
        gens = _random_ideal(rng, nvars)
        polys = [LaurentPoly(variables, g, QQ) for g in gens]
        for order in ("grevlex", "lex"):
            ours = {frozenset(b.terms.items()) for b in buchberger(polys, order)}
            assert ours == _sympy_reduced_basis(sympy, gens, symbols, order, None), (case, order, gens)
            for p in (2, 3, 5, 7, 11):
                mapped = [to_prime_field(g, p) for g in polys]
                ours = {frozenset((e, c.val) for e, c in b.terms.items()) for b in buchberger(mapped, order)}
                assert ours == _sympy_reduced_basis(sympy, gens, symbols, order, p), (case, order, p, gens)


@pytest.mark.parametrize("order, expected", [("grevlex", (7, 69)), ("lex", (8, 45))])
def test_pair_order_fixes_the_s_polynomials_formed(monkeypatch, order, expected):
    # pairs pop in (order key of lcm, i, j) order; another order forms other
    # S-polynomials, so these counts pin the selection, not only the answer
    calls = []
    original = groebner.s_polynomial

    def counted(f, g, key=groebner.DEFAULT_ORDER):
        calls.append((f, g))
        return original(f, g, key)

    monkeypatch.setattr(groebner, "s_polynomial", counted)
    crit2 = [P(t, UVSW) for t in ("1 + u*v", "1 + s*u + (s*u)^2", "1 + v*w", "1 + s*w")]
    X = ("x0", "x1", "x2", "x3")
    cycle4 = [P(f"1 + {X[i]}*{X[i - 3]} + ({X[i]}*{X[i - 3]})^2", X) for i in range(4)]
    counts = []
    for gens in (crit2, cycle4):
        calls.clear()
        laurent_unit_ideal(gens, order)
        counts.append(len(calls))
    assert tuple(counts) == expected
