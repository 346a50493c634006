import itertools
import random
import sys
from fractions import Fraction

import pytest

import artin_sigma.groebner as groebner
from artin_sigma import (
    CyclotomicField,
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
from artin_sigma.fields import FpElement
from artin_sigma.groebner import ORDER_KEYS, s_polynomial, saturation_variable
from oracles import fraction_rank, poly_gcd_univariate

UV = ("u", "v")
UVW = ("u", "v", "w")
UVSW = ("u", "v", "s", "w")


def P(text, variables=UV):
    return parse_poly(text, variables, QQ)


def test_reduce_poly():
    basis = [P("u^2 - 1")]
    r = reduce_poly(P("u^3 + u + 1"), basis)
    assert r == P("2*u + 1")
    assert reduce_poly(P("u^2 - 1"), basis).is_zero()
    # a divisor over another variable list is refused, not truncated to the
    # dividend's list
    with pytest.raises(InputError):
        reduce_poly(P("u^2 + v"), [P("u + w", UVW)])
    with pytest.raises(TypeError):
        reduce_poly(P("u^2 + v"), [P("u"), 1])


def test_s_polynomial_reduces_to_zero_in_basis():
    gens = [P("u^2 + v"), P("u*v - 1")]
    basis = buchberger(gens)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert reduce_poly(s_polynomial(basis[i], basis[j]), basis).is_zero()
    with pytest.raises(InputError):
        s_polynomial(P("u^2 + v"), P("u + w", UVW))
    for f, g in ((LaurentPoly.zero(UV), P("u + v")), (P("u + v"), LaurentPoly.zero(UV))):
        with pytest.raises(InputError, match="zero polynomial"):
            s_polynomial(f, g)


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


def test_buchberger_checks_its_generators():
    assert buchberger([]) == [] and buchberger([LaurentPoly.zero(UV)]) == []
    with pytest.raises(TypeError):
        buchberger([P("u + v"), 1])
    with pytest.raises(ValueError):
        buchberger([P("u + v"), P("u + w", UVW)])
    with pytest.raises(InputError):
        buchberger([P("u"), P("u")], order="revlex")


def test_laurent_unit_ideal_simple():
    # 1 + u is not a unit in the polynomial ring but the ideal (u) is a unit
    # ideal in the Laurent ring
    flag, basis, aux = laurent_unit_ideal([P("u", ("u",))])
    assert flag
    assert aux == "t_aux"
    flag2, _, _ = laurent_unit_ideal([P("u + 1", ("u",))])
    assert not flag2
    # generators over two variable lists are refused in either order
    mixed = [P("u*v - 1"), P("u - 2", ("u",))]
    for gens in (mixed, mixed[::-1]):
        with pytest.raises(InputError):
            laurent_unit_ideal(gens)
    assert groebner.laurent_unit_report([]) == (False, [], None, "lattice", None)


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


def test_unit_ideal_mod_p_checks_its_generators():
    # the generators pass common_ring before any coefficient is mapped
    with pytest.raises(TypeError):
        unit_ideal_mod_p([1], 3)
    with pytest.raises(TypeError):
        unit_ideal_mod_p([P("u + v"), 1], 3, laurent=False)
    with pytest.raises(InputError):
        unit_ideal_mod_p([P("u + v"), P("u + w", UVW)], 3)


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
        assert b.terms[max(b.terms, key=ORDER_KEYS["grevlex"])] == 1
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
                mapped = [g.coerce_to(PrimeField(p)) for g in polys]
                ours = {frozenset((e, c.val) for e, c in b.terms.items()) for b in buchberger(mapped, order)}
                assert ours == _sympy_reduced_basis(sympy, gens, symbols, order, p), (case, order, p, gens)


def _count_pairs_divided(monkeypatch):
    """The list of pairs the pair loop divides: one ``_divide`` call each,
    the one kind of call that reduces by a first row (the S-polynomial)."""
    pairs = []
    original = groebner._divide

    def counted(f, table, first=None, shift=0):
        if first is not None:
            pairs.append((f, first))
        return original(f, table, first, shift)

    monkeypatch.setattr(groebner, "_divide", counted)
    return pairs


@pytest.mark.parametrize("order, expected", [("grevlex", (6, 68)), ("lex", (7, 38))])
def test_pair_order_fixes_the_s_polynomials_formed(monkeypatch, order, expected):
    # pairs pop in (order key of lcm, i, j) order and the Gebauer-Moller
    # update drops some; another order or update forms other S-polynomials,
    # so these counts pin the selection, not only the answer
    calls = _count_pairs_divided(monkeypatch)
    crit2 = [P(t, UVSW) for t in ("1 + u*v", "1 + s*u + (s*u)^2", "1 + v*w", "1 + s*w")]
    X = ("x0", "x1", "x2", "x3")
    cycle4 = [P(f"1 + {X[i]}*{X[i - 3]} + ({X[i]}*{X[i - 3]})^2", X) for i in range(4)]
    counts = []
    for gens in (crit2, cycle4):
        calls.clear()
        laurent_unit_ideal(gens, order)
        counts.append(len(calls))
    assert tuple(counts) == expected


@pytest.mark.parametrize("order, expected", [("grevlex", (0, 11)), ("lex", (0, 5))])
def test_pair_order_fixes_the_reductions_made(monkeypatch, order, expected):
    # interreduction calls _divide once per minimal element but the least,
    # which no smaller element reduces (the pair loop divides each pair in
    # one _divide call, counted above; crit2 is the unit ideal: the loop
    # stops at its constant and interreduces nothing); together with the
    # test above they pin the routing and the division, not only the answer
    calls = []
    original = groebner._divide

    def counted(f, table, first=None, shift=0):
        if sys._getframe(1).f_code.co_name == "_interreduced":
            calls.append(f)
        return original(f, table, first, shift)

    monkeypatch.setattr(groebner, "_divide", counted)
    crit2 = [P(t, UVSW) for t in ("1 + u*v", "1 + s*u + (s*u)^2", "1 + v*w", "1 + s*w")]
    X = ("x0", "x1", "x2", "x3")
    cycle4 = [P(f"1 + {X[i]}*{X[i - 3]} + ({X[i]}*{X[i - 3]})^2", X) for i in range(4)]
    counts = []
    for gens in (crit2, cycle4):
        calls.clear()
        laurent_unit_ideal(gens, order)
        counts.append(len(calls))
    assert tuple(counts) == expected


CRIT2 = ("1 + u*v", "1 + s*u + (s*u)^2", "1 + v*w", "1 + s*w")
CYCLE4 = tuple(f"1 + x{i}*x{(i + 1) % 4} + (x{i}*x{(i + 1) % 4})^2" for i in range(4))


def test_pair_loop_basis_past_its_cap_is_an_input_error(monkeypatch):
    # the saturated four-cycle's pair loop holds 28 elements over QQ and over
    # GF(3); a cap of 28 lets it through and 27 refuses it, naming the cap
    gens = [P(g, ("x0", "x1", "x2", "x3")) for g in CYCLE4]
    monkeypatch.setattr(groebner, "MAX_BASIS_ELEMENTS", 28)
    assert laurent_unit_ideal(gens)[0] is False
    assert unit_ideal_mod_p(gens, 3) is False
    monkeypatch.setattr(groebner, "MAX_BASIS_ELEMENTS", 27)
    for run in (lambda: laurent_unit_ideal(gens), lambda: unit_ideal_mod_p(gens, 3)):
        with pytest.raises(InputError, match="past MAX_BASIS_ELEMENTS = 27 elements"):
            run()


def test_unit_flag_vs_sympy_groebner():
    # is_unit_ideal stops at the first constant and never interreduces; its
    # flag must still say whether sympy's reduced basis is {1}, over QQ and
    # over each GF(p); a third of the systems are made unit
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1988)
    seen = {True: 0, False: 0}
    for case in range(30):
        nvars = rng.randint(2, 3)
        variables = ("x", "y", "z")[:nvars]
        symbols = sympy.symbols(variables)
        gens = _random_ideal(rng, nvars)
        if case % 3 == 0:
            # u * g_0 + 1 for a monomial u of positive degree: 1 lies in the ideal
            u = rng.choice(_exponents(nvars, 2)[1:])
            made = {tuple(a + b for a, b in zip(e, u)): c for e, c in gens[0].items()}
            gens.append({**made, (0,) * nvars: 1})
        polys = [LaurentPoly(variables, g, QQ) for g in gens]
        one = {frozenset({((0,) * nvars, 1)})}
        for order in ("grevlex", "lex"):
            expect = _sympy_reduced_basis(sympy, gens, symbols, order, None) == one
            assert is_unit_ideal(polys, order) == expect, (case, order, gens)
            seen[expect] += 1
        for p in (2, 3, 5, 7, 11):
            expect = _sympy_reduced_basis(sympy, gens, symbols, "grevlex", p) == one
            assert unit_ideal_mod_p(polys, p, laurent=False) == expect, (case, p, gens)
            seen[expect] += 1
    assert min(seen.values()) >= 50, seen


@pytest.mark.parametrize("domain, prime", [(QQ, 7), (PrimeField(5), 5)], ids=["QQ", "GF5"])
def test_a_constant_generator_forms_no_s_polynomial(monkeypatch, domain, prime):
    # the pair loop returns a constant input generator before forming a pair
    formed = _count_pairs_divided(monkeypatch)
    gens = [parse_poly(t, UV, domain) for t in ("u^2 + v", "u*v - 1", "3", "2*v^2 + u")]
    assert is_unit_ideal(gens)
    assert unit_ideal_mod_p(gens, prime, laurent=False)
    assert [b.to_string() for b in buchberger(gens)] == ["1"]
    assert formed == []


def test_mod_p_unit_test_does_no_field_element_arithmetic(monkeypatch):
    # packed GF(p) coefficients are ints in [0, p), converted once on packing,
    # so on integer generators no FpElement arithmetic runs, in the pair loop
    # or anywhere else in unit_ideal_mod_p
    systems = [[P(t, UVSW) for t in CRIT2], [P(t, tuple(f"x{i}" for i in range(4))) for t in CYCLE4]]
    cases = [(gens, p, laurent) for gens in systems for p in (2, 3, 5, 7, 11) for laurent in (True, False)]
    expected = [unit_ideal_mod_p(gens, p, laurent=laurent) for gens, p, laurent in cases]
    assert True in expected and False in expected

    def forbidden(*args):
        raise AssertionError("FpElement arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__neg__", "__truediv__"):
        monkeypatch.setattr(FpElement, name, forbidden)
    assert [unit_ideal_mod_p(gens, p, laurent=laurent) for gens, p, laurent in cases] == expected


def test_rational_unit_test_does_no_fraction_arithmetic(monkeypatch):
    # packed QQ coefficients are ints over one denominator: generators pack
    # with their denominators cleared and divide fraction-free, so no
    # Fraction arithmetic runs in the pair loop; Fractions are only built,
    # on unpacking the reduced basis
    X = tuple(f"x{i}" for i in range(4))
    scaled = ("2*u^2 + 3*v - 1", "3*u*v - 2", "5*v^2 + 1/2*u", "2/3*u^3 - 7/5")
    systems = [[P(t, UVSW) for t in CRIT2], [P(t, X) for t in CYCLE4], [P(t) for t in scaled]]

    def run():
        out = []
        for gens in systems:
            out.append(is_unit_ideal(gens))
            out.append(laurent_unit_ideal(gens)[0])
            out += [[b.terms for b in buchberger(gens, order)] for order in ("grevlex", "lex")]
        return out

    expected = run()
    assert True in expected and False in expected

    def forbidden(*args):
        raise AssertionError("Fraction arithmetic")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__",
                 "__rtruediv__", "__floordiv__", "__mod__", "__neg__", "__pow__"):
        monkeypatch.setattr(Fraction, name, forbidden)
    got = run()
    monkeypatch.undo()
    assert got == expected


def test_cyclotomic_coefficients_take_the_monic_route():
    # over QQ(zeta_3) with zeta = zeta_power(1): x = -zeta*y and x*y = 1 give
    # y^2 = -zeta^2 = 1 + zeta, a proper ideal also in the Laurent ring, and
    # x^2 = zeta^2 * (1 + zeta) = -zeta
    field = CyclotomicField(3)
    zeta = field.zeta_power(1)
    X = ("x", "y")
    gens = [LaurentPoly(X, {(1, 0): 1, (0, 1): zeta}, field), LaurentPoly(X, {(1, 1): 1, (0, 0): -1}, field)]
    basis = buchberger(gens)
    assert [b.to_string() for b in basis] == ["x + zeta*y", "y^2 + (-1 - zeta)"]
    assert not is_unit_ideal(gens)
    assert not laurent_unit_ideal(gens)[0]
    assert reduce_poly(LaurentPoly(X, {(2, 0): 1}, field), basis) == LaurentPoly.constant(-zeta, X, field)


def test_laurent_unit_report_over_a_cyclotomic_field():
    # over QQ(zeta_3) the lattice decides binomial systems, and Buchberger
    # runs on the saturated system packed from the generators' term dicts
    field = CyclotomicField(3)
    zeta = field.zeta_power(1)
    X = ("x", "y")
    x_zeta = LaurentPoly(X, {(1, 0): 1, (0, 0): -zeta}, field)
    y_zeta_x = LaurentPoly(X, {(0, 1): 1, (1, 0): zeta}, field)
    # binomials, decided on the exponent lattice: x = zeta and x^2 = 1 give
    # zeta^2 = 1, false in QQ(zeta_3), so the relation (-2, 1) is a witness
    binomials = [x_zeta, LaurentPoly(X, {(2, 0): 1, (0, 0): -1}, field), y_zeta_x]
    flag, basis, aux, method, witness = groebner.laurent_unit_report(binomials)
    assert (flag, method, witness) == (True, "lattice", {"relation": [-2, 1, 0]})
    assert [b.to_string() for b in basis] == ["1"]
    # a proper binomial system: the lattice decides, Buchberger gives the basis
    flag, basis, aux, method, witness = groebner.laurent_unit_report([x_zeta, y_zeta_x])
    assert (flag, method, witness) == (False, "lattice", None)
    assert [b.to_string() for b in basis] == ["t_aux + 1", "y + (-1 - zeta)", "x - zeta"]
    # a trinomial, decided by Buchberger: 1 + xy + (xy)^2 splits over QQ(zeta_3)
    trinomial = [LaurentPoly(X, {(0, 0): 1, (1, 1): 1, (2, 2): 1}, field),
                 LaurentPoly(X, {(1, 0): 1, (0, 1): zeta}, field)]
    expected = {
        "grevlex": ["x + zeta*y", "t_aux^2 + t_aux + 1", "y^2 + (1 + zeta)*t_aux + (1 + zeta)"],
        "lex": ["t_aux^2 + t_aux + 1", "y^2 + (1 + zeta)*t_aux + (1 + zeta)", "x + zeta*y"],
    }
    for order, strings in expected.items():
        flag, basis, aux, method, witness = groebner.laurent_unit_report(trinomial, order)
        assert (flag, aux, method, witness) == (False, "t_aux", "buchberger", None)
        assert [b.to_string() for b in basis] == strings


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_laurent_unit_report_over_a_prime_field(order):
    # over GF(5) the generators' FpElement coefficients are read as ints for
    # the lattice and for the packed saturated system alike
    field = PrimeField(5)
    X = ("x", "y")

    def L(terms):
        return LaurentPoly(X, {e: field.coerce(c) for e, c in terms.items()}, field)

    x_2, y_3x = L({(1, 0): 1, (0, 0): 3}), L({(0, 1): 1, (1, 0): 2})
    # x = 2 and x^2 = 1 give 4 = 1, false mod 5; the zero generator's entry is 0
    flag, basis, aux, method, witness = groebner.laurent_unit_report([x_2, L({}), L({(2, 0): 1, (0, 0): 4}), y_3x])
    assert (flag, method, witness) == (True, "lattice", {"relation": [-2, 0, 1, 0]})
    assert [b.to_string() for b in basis] == ["1"]
    # a proper binomial system: the lattice decides, Buchberger gives the basis
    flag, basis, aux, method, witness = groebner.laurent_unit_report([x_2, y_3x, L({})], order)
    assert (flag, aux, method, witness) == (False, "t_aux", "lattice", None)
    assert [b.to_string() for b in basis] == ["t_aux + 2", "y + 4", "x + 3"]
    # trinomials, decided by Buchberger, one with negative exponents to clear
    trinomial = [L({(0, 0): 1, (1, 1): 1, (2, 2): 1}), L({(1, 0): 1, (0, 1): 2})]
    cleared = [L({(0, 0): 1, (-1, 1): 3, (1, -2): 1}), L({(1, 0): 1, (0, 0): 4})]
    expected = {
        "grevlex": (["x + 2*y", "t_aux^2 + t_aux + 1", "y^2 + 2*t_aux + 2"],
                    ["x + 4", "3*y + t_aux^2 + 1", "y*t_aux + 4", "y^2 + 2*y + 2*t_aux"]),
        "lex": (["t_aux^2 + t_aux + 1", "y^2 + 2*t_aux + 2", "x + 2*y"],
                ["t_aux^3 + t_aux + 3", "y + 2*t_aux^2 + 2", "x + 4"]),
    }
    for gens, strings in zip((trinomial, cleared), expected[order]):
        flag, basis, aux, method, witness = groebner.laurent_unit_report(gens, order)
        assert (flag, aux, method, witness) == (False, "t_aux", "buchberger", None)
        assert [b.to_string() for b in basis] == strings


def test_residues_are_ints_read_without_field_elements(monkeypatch):
    # an int reads as c % p and a rational through its denominator's inverse,
    # with no FpElement built; a denominator that p divides has no residue
    def forbidden(*args):
        raise AssertionError("FpElement built")

    field = PrimeField(5)
    monkeypatch.setattr(FpElement, "__init__", forbidden)
    assert [groebner._residue(c, field) for c in (7, -1, 0, Fraction(3, 2), Fraction(-4))] == [2, 4, 0, 4, 1]
    gens = [P("3*u*v - 1"), P("1/2*u + 3/4")]
    assert unit_ideal_mod_p(gens, 5) is unit_ideal_mod_p(gens, 5, laurent=False) is False
    monkeypatch.undo()
    with pytest.raises(ZeroDivisionError):
        groebner._residue(Fraction(1, 5), field)


@pytest.mark.parametrize("laurent", [True, False])
def test_unit_ideal_mod_p_refuses_a_denominator_it_divides(laurent):
    # 1/2 has no residue mod 2; mod 3 it is 2, and 2x + 1 is no unit
    gens = [P("1/2*x + 1", ("x",))]
    with pytest.raises(ZeroDivisionError):
        unit_ideal_mod_p(gens, 2, laurent=laurent)
    assert unit_ideal_mod_p(gens, 3, laurent=laurent) is False


def _sympy_expr(sympy, terms, symbols):
    return sum(sympy.Rational(c.numerator, c.denominator) * sympy.prod([x ** k for x, k in zip(symbols, e)])
               for e, c in terms.items())


def test_normal_form_vs_sympy_reduced():
    # the normal form modulo a Groebner basis is unique, so reduce_poly by
    # our basis must equal sympy's remainder by sympy's basis; f has rational
    # coefficients, so the remainder comes out of a fraction-free division
    # over a denominator
    sympy = pytest.importorskip("sympy")
    rng = random.Random(1992)
    for case in range(25):
        nvars = rng.randint(2, 3)
        variables = ("x", "y", "z")[:nvars]
        symbols = sympy.symbols(variables)
        gens = [{e: Fraction(c) for e, c in g.items()} for g in _random_ideal(rng, nvars)]
        chosen = rng.sample(_exponents(nvars, 4), rng.randint(1, 6))
        f = {e: Fraction(rng.choice((-7, -3, -1, 1, 2, 5)), rng.randint(1, 6)) for e in chosen}
        exprs = [_sympy_expr(sympy, g, symbols) for g in gens]
        polys = [LaurentPoly(variables, g, QQ) for g in gens]
        for order in ("grevlex", "lex"):
            ours = reduce_poly(LaurentPoly(variables, f, QQ), buchberger(polys, order), order)
            basis = sympy.groebner(exprs, *symbols, order=order).exprs
            _, r = sympy.reduced(_sympy_expr(sympy, f, symbols), basis, *symbols, order=order)
            theirs = {e: Fraction(int(c.p), int(c.q)) for e, c in sympy.Poly(r, *symbols).terms() if c}
            assert ours.terms == theirs, (case, order, gens, f)


# -- packed monomials -----------------------------------------------------------


def _exponent_vectors(rng, n, cap, count):
    """Exponent vectors of degree at most cap; a third of them of degree
    exactly cap, and every vector with one entry equal to cap."""
    out = [tuple(cap if k == i else 0 for k in range(n)) for i in range(n)]
    for _ in range(count):
        degree = cap if rng.random() < 1 / 3 else rng.randint(0, cap)
        cuts = sorted(rng.randint(0, degree) for _ in range(n - 1))
        out.append(tuple(b - a for a, b in zip([0] + cuts, cuts + [degree])))
    return out


@pytest.mark.parametrize("order", ["grevlex", "lex"])
def test_packed_monomials_agree_with_their_definition(order):
    # ORDER_KEYS defines each order; the packing must compare, multiply,
    # divide and take lcms as the exponent tuples do, up to the capacity:
    # the lcm of two packed monomials is the packed lcm of their exponent
    # vectors, or a spill exactly when that lcm's degree passes the capacity
    rng = random.Random(1212)
    key = ORDER_KEYS[order]
    for n, width in ((1, 2), (2, 3), (3, 2), (5, 3), (4, 8)):
        ring = groebner._PackedRing(tuple(f"x{i}" for i in range(n)), order, QQ, width)
        cap, offset, guards = ring.cap, ring.offset, ring.guards
        vectors = _exponent_vectors(rng, n, cap, 60)
        packed = {e: ring.pack(e) for e in vectors}
        for e, m in packed.items():
            assert ring.unpack(m) == e and ring.degree(m) == sum(e) and not m & guards
        for a, b in itertools.product(vectors, repeat=2):
            ma, mb = packed[a], packed[b]
            assert (ma < mb) == (key(a) < key(b)) and (ma == mb) == (a == b)
            product = tuple(x + y for x, y in zip(a, b))
            if sum(product) <= cap:
                assert ma + mb - offset == ring.pack(product)
            else:  # a spill: caught by the guard bits and by pack
                assert (ma + mb - offset) & guards
                with pytest.raises(groebner._Spill):
                    ring.pack(product)
            divides = all(y <= x for x, y in zip(a, b))
            quotient = ma - mb + offset
            assert (not quotient & guards) == divides
            if divides:
                assert quotient == ring.pack(tuple(x - y for x, y in zip(a, b)))
            lcm = tuple(map(max, a, b))
            if sum(lcm) <= cap:
                assert ring.lcm(ma, mb) == ring.pack(lcm) == ring.lcm(mb, ma)
            else:
                with pytest.raises(groebner._Spill):
                    ring.pack(lcm)
                with pytest.raises(groebner._Spill):
                    ring.lcm(ma, mb)


@pytest.mark.parametrize("order, gens, path", [
    # a pair's division spills (y^256) after its first step
    ("lex", ("z - x^16", "x - y^16", "z*y - 1"), ("_pair_loop", "_divide", False)),
    # a pair's first step, the S-polynomial, spills
    ("lex", ("x^16 - y", "y^16 - z", "x*z - 1"), ("_pair_loop", "_divide", True)),
    # the lcm of a new pair spills
    ("grevlex", ("x^200*y - z", "x*y^200 - 1"), ("update", "lcm", None)),
    # interreduction spills: coprime leading monomials, so no pair is formed
    ("lex", ("z - x^16", "x - y^16"), ("_interreduced", "_divide", False)),
    # a pair's division spills on entry, before any term is reduced: under lex
    # the term of highest degree (x^3*y^100) is not the leading term (x^4*y),
    # and the shift takes it past the width
    ("lex", ("x^3*y^92 + x^2*y^80", "x^4*y + x^3*y^100 - x*y^98"), ("_pair_loop", "_divide", None)),
], ids=[
    # the step that spills: a pair's reduction, its S-polynomial, the pair
    # update, a reduction in interreduction and the entry of a pair's division
    "lex-gens0-reduce_poly", "lex-gens1-s_polynomial", "grevlex-gens2-_pair_loop",
    "lex-gens3-reduce_poly", "lex-gens4-_divide_entry",
])
def test_degree_past_the_initial_width_repacks_and_matches_sympy(monkeypatch, order, gens, path):
    # path: the site of the one spill, as the function that called the one
    # raising it (comprehension frames skipped), that one, and whether the
    # term being reduced is the pair's lcm (the first step), None when no
    # term is being reduced; _run then packs the inputs once more, at twice
    # the width, and that rerun does not spill
    sympy = pytest.importorskip("sympy")
    spills, widths = [], []

    class Recorded(groebner._Spill):
        def __init__(self):
            raised = sys._getframe(1)
            caller = raised.f_back
            while caller.f_code.co_name.startswith("<"):
                caller = caller.f_back
            lm = raised.f_locals.get("lm")
            first = None if lm is None else lm == caller.f_locals.get("lcm")
            spills.append((caller.f_code.co_name, raised.f_code.co_name, first))

    original = groebner._PackedRing.__init__

    def init(ring, variables, order, domain, width):
        widths.append(width)
        original(ring, variables, order, domain, width)

    monkeypatch.setattr(groebner, "_Spill", Recorded)
    monkeypatch.setattr(groebner._PackedRing, "__init__", init)
    variables = ("z", "x", "y")
    polys = [P(g, variables) for g in gens]
    basis = buchberger(polys, order)
    assert spills == [path]
    assert len(widths) == 2 and widths[1] == 2 * widths[0]
    assert max(sum(e) for b in basis for e in b.terms) > 255  # past _MIN_WIDTH
    terms = [p.terms for p in polys]
    ours = {frozenset(b.terms.items()) for b in basis}
    assert ours == _sympy_reduced_basis(sympy, terms, sympy.symbols(variables), order, None)


# -- binomial systems on the exponent lattice --------------------------------

BINOMIAL_PRIMES = (2, 3, 5, 7, 11)


def _saturated_flag(gens):
    """The Laurent unit-ideal flag from Buchberger alone: clear negative
    exponents, add t with 1 - t * x_1 * ... * x_n, test the basis for [1]."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return False
    ext = gens[0].variables + ("t",)
    domain = gens[0].domain
    cleared = []
    for g in gens:
        low = [min(0, *column) for column in zip(*g.terms)]
        cleared.append(LaurentPoly(ext, {tuple(x - m for x, m in zip(e, low)) + (0,): c
                                         for e, c in g.terms.items()}, domain))
    sat = LaurentPoly(ext, {(0,) * len(ext): 1, (1,) * len(ext): -1}, domain)
    basis = buchberger(cleared + [sat])
    return len(basis) == 1 and basis[0].is_constant()


def _witness_holds(polys, witness) -> bool:
    """Check a unit witness from the generators alone (see _lattice_unit)."""
    if "monomial" in witness:
        return len(polys[witness["monomial"]].terms) == 1
    c = witness["relation"]
    if len(c) != len(polys):
        return False
    domain = polys[0].domain
    total = [0] * len(polys[0].variables)
    product = domain.one
    for p, k in zip(polys, c):
        lo, hi = sorted(p.terms)
        total = [s + k * (a - b) for s, a, b in zip(total, hi, lo)]
        product = product * (-p.terms[lo] / p.terms[hi]) ** k
    return not any(total) and product != domain.one


def _random_binomials(rng, coefficients):
    """1-3 generators in 1-2 variables with exponents in [-2, 2]: mostly
    binomials, some monomials, now and then the zero polynomial."""
    variables = ("x", "y")[:rng.randint(1, 2)]
    box = list(itertools.product(range(-2, 3), repeat=len(variables)))
    gens = []
    for _ in range(rng.randint(1, 3)):
        shape = rng.random()
        nterms = 0 if shape < 0.03 else 1 if shape < 0.1 else 2
        exps = rng.sample(box, nterms)
        gens.append(LaurentPoly(variables, {e: rng.choice(coefficients) for e in exps}, QQ))
    return gens


def _assert_lattice_matches(gens, expect):
    polys = [g for g in gens if not g.is_zero()]
    flag, witness = groebner._lattice_unit([p.terms for p in polys])
    assert flag == expect, [g.to_string() for g in gens]
    if flag:
        assert _witness_holds(polys, witness), ([g.to_string() for g in gens], witness)
    else:
        assert witness is None


def test_lattice_unit_matches_saturated_buchberger_over_rationals():
    rng = random.Random(1996)
    coefficients = (1, -1, 1, -1, 2, -2, 3, Fraction(1, 2), Fraction(-2, 3))
    units = 0
    for _ in range(2000):
        gens = _random_binomials(rng, coefficients)
        expect = _saturated_flag(gens)
        _assert_lattice_matches(gens, expect)
        assert laurent_unit_ideal(gens)[0] == expect
        units += expect
    assert 200 < units < 1800


@pytest.mark.parametrize("prime", BINOMIAL_PRIMES)
def test_lattice_unit_matches_saturated_buchberger_mod_p(prime):
    # integer coefficients divisible by p make generators vanish mod p, or
    # binomials collapse to monomials
    rng = random.Random(1979 + prime)
    coefficients = tuple(c for c in range(-2 * prime, 2 * prime + 1) if c) + (1, -1) * prime
    units = collapsed = 0
    for _ in range(2000):
        gens = _random_binomials(rng, coefficients)
        mapped = [g.coerce_to(PrimeField(prime)) for g in gens]
        collapsed += any(len(m.terms) < len(g.terms) for g, m in zip(gens, mapped))
        expect = _saturated_flag(mapped)
        _assert_lattice_matches(mapped, expect)
        assert unit_ideal_mod_p(gens, prime, laurent=True) == expect
        units += expect
    assert 200 < units < 1800
    assert collapsed > 100


def test_lattice_unit_leaves_trinomials_to_buchberger():
    gens = [P("u + v + 1"), P("u*v - 1")]
    assert groebner._lattice_unit([g.terms for g in gens]) is None
    flag, basis, aux, method, witness = groebner.laurent_unit_report(gens)
    assert (flag, method, witness) == (laurent_unit_ideal(gens)[0], "buchberger", None)


def test_lattice_unit_needs_the_whole_kernel_lattice():
    # x^2 - 1 and x^2 + 1 give D = (2, 2) and lambda = (1, -1).  The kernel
    # lattice is spanned by (1, -1), and 1^1 * (-1)^-1 = -1 != 1 decides unit;
    # the sublattice spanned by (2, -2) would give 1 and call it proper.  Mod 2
    # both generators are x^2 + 1 = (x + 1)^2, a proper ideal.
    gens = [P("x^2 - 1", ("x",)), P("x^2 + 1", ("x",))]
    assert groebner._lattice_unit([g.terms for g in gens]) == (True, {"relation": [-1, 1]})
    assert laurent_unit_ideal(gens)[0]
    assert not unit_ideal_mod_p(gens, 2, laurent=True)
    assert unit_ideal_mod_p(gens, 3, laurent=True)


def _rational_coordinates(v, rows):
    """y with sum_i y_i * rows[i] = v over QQ for linearly independent rows,
    or None when v is not in their span."""
    k = len(rows)
    eqs = [[Fraction(r[j]) for r in rows] + [Fraction(v[j])] for j in range(len(v))]
    for col in range(k):
        p = next(i for i in range(col, len(eqs)) if eqs[i][col])
        eqs[col], eqs[p] = eqs[p], eqs[col]
        eqs[col] = [x / eqs[col][col] for x in eqs[col]]
        for i in range(len(eqs)):
            if i != col and eqs[i][col]:
                f = eqs[i][col]
                eqs[i] = [a - f * b for a, b in zip(eqs[i], eqs[col])]
    if any(e[-1] for e in eqs[k:]):
        return None
    return [eqs[i][-1] for i in range(k)]


def test_integer_left_kernel_is_the_whole_lattice():
    rng = random.Random(1979)
    for _ in range(120):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        entries = rng.choice(((-2, -1, 0, 1, 2), (-4, -2, 0, 2, 4), (-3, 0, 3, 6)))
        D = [[rng.choice(entries) for _ in range(n)] for _ in range(m)]
        basis = groebner._integer_left_kernel(D)
        for c in basis:
            assert len(c) == m
            assert all(sum(ci * row[j] for ci, row in zip(c, D)) == 0 for j in range(n))
        assert len(basis) == m - fraction_rank(D)
        for c in itertools.product(range(-3, 4), repeat=m):
            if any(sum(ci * row[j] for ci, row in zip(c, D)) for j in range(n)):
                continue
            y = _rational_coordinates(c, basis)
            assert y is not None and all(t.denominator == 1 for t in y), (D, basis, c)
