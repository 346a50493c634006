import random
import time
import tracemalloc

import pytest

from artin_sigma import (
    FreeWord,
    GroupRingElement,
    InputError,
    abelianization_map,
    abelianize,
    artin_relator,
    commutator,
    fox_derivative,
    graph_presentation,
    jacobian,
    parse_word,
)
from artin_sigma.fox import (
    EVEN_COMMUTATOR,
    MAX_DERIVATIVE_LETTERS,
    MAX_WORD_LETTERS,
    STANDARD,
    alternating_word,
)
from oracles import ONE, ring_add, ring_mul, ring_sub

GENS = ("x", "y", "z")


def W(text):
    return parse_word(text)


def E(word):
    """A word as a one-term element of the oracle's group ring."""
    return {word.letters: 1}


def D(word, gen):
    """The Fox derivative, read into the oracle's group ring."""
    return {w.letters: c for w, c in fox_derivative(word, gen).items()}


def rand_word(rng, length=8, gens=GENS):
    letters = []
    for _ in range(rng.randint(0, length)):
        letters.append((rng.choice(gens), rng.choice((1, -1))))
    return FreeWord(letters)


def test_free_word_reduction():
    assert W("x x^-1") == FreeWord.identity()
    assert W("x y y^-1 x") == W("x^2")
    assert (W("x y") * W("y^-1 x^-1")) == FreeWord.identity()
    assert W("x y") ** -1 == W("y^-1 x^-1")
    assert str(W("x x y^-1")) == "x^2 y^-1"
    assert str(FreeWord.identity()) == "1"


def test_parse_word_rejects_garbage():
    with pytest.raises(InputError):
        parse_word("x**2")
    with pytest.raises(InputError):
        parse_word("3x")
    with pytest.raises(InputError, match="bad word token"):
        parse_word("x^\u0663")  # a non-ASCII digit, which int() would read


@pytest.mark.parametrize(
    "text",
    ["x^1000000000", "x^500000 y^-500001", "x^-1000001", "x y " + "x^99999 " * 11, "x^" + "9" * 5000],
    ids=["one-power", "split", "negative", "many-tokens", "5000-digit-exponent"],
)
def test_parse_word_refuses_words_past_the_limit_before_expanding(text):
    # summed exponents; a 5000-digit exponent is refused too, not left to int()
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"MAX_WORD_LETTERS = {MAX_WORD_LETTERS}"):
            parse_word(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # never built the word: 10^6 letters alone take 8 MB


def test_parse_word_accepts_a_word_at_the_limit():
    assert MAX_WORD_LETTERS == 10**6
    word = parse_word(f"x^{MAX_WORD_LETTERS - 1} y^-1")
    assert len(word) == MAX_WORD_LETTERS
    assert str(word) == f"x^{MAX_WORD_LETTERS - 1} y^-1"


@pytest.mark.parametrize(
    "text, gen",
    [("a^4000", "a"), ("a^-4000", "a"), ("b^700000 a b a", "a"), ("a^1415", "a"), ("b a^2000 b^-2000 a^-1", "a")],
    ids=["power", "inverse-power", "one-late-letter", "first-past-the-limit", "mixed"],
)
def test_fox_derivative_refuses_past_the_limit_before_building(text, gen):
    # the prefix lengths are summed first; a^4000 alone would hold 8M letters
    word = parse_word(text)
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"MAX_DERIVATIVE_LETTERS = {MAX_DERIVATIVE_LETTERS}"):
            fox_derivative(word, gen)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20  # never built a prefix word


def test_fox_derivative_accepts_a_derivative_at_the_limit():
    # a^1414 has prefixes 1, a, ..., a^1413: 1414 * 1413 / 2 = 998,991 letters
    assert MAX_DERIVATIVE_LETTERS == 10**6
    deriv = fox_derivative(parse_word("a^1414"), "a")
    assert len(deriv.terms) == 1414
    assert sum(len(w) for w in deriv.terms) == 1414 * 1413 // 2
    assert all(c == 1 for c in deriv.terms.values())
    # a^-1413 has prefixes a^-1, ..., a^-1413, each with coefficient -1
    deriv = fox_derivative(parse_word("a^-1413"), "a")
    assert deriv.terms == {FreeWord.generator("a", -k): -1 for k in range(1, 1414)}


def test_group_ring_arithmetic():
    # the oracle's arithmetic, which the derivative identities below use
    a = E(W("x"))
    b = E(W("y"))
    assert ring_sub(ring_add(a, b), b) == a
    assert ring_mul(a, {}) == {}
    assert ring_sub(a, a) == {}
    assert ring_mul(ring_sub(ONE, a), ring_add(ONE, a)) == ring_sub(ONE, E(W("x^2")))
    assert ring_add(a, a) == {W("x").letters: 2}
    assert ring_mul(a, E(W("x^-1"))) == ONE
    assert ring_mul(E(W("x y")), E(W("y^-1 x^-1 y"))) == b


def test_fox_derivative_base_cases():
    assert fox_derivative(W("x"), "x") == GroupRingElement({FreeWord.identity(): 1})
    assert fox_derivative(W("x"), "y") == GroupRingElement()
    assert fox_derivative(W("x^-1"), "x") == GroupRingElement({W("x^-1"): -1})
    assert fox_derivative(FreeWord.identity(), "x").terms == {}
    # product rule spot check: d(xy)/dy = x
    assert fox_derivative(W("x y"), "y") == GroupRingElement({W("x"): 1})
    assert fox_derivative(W("x y"), "y") != fox_derivative(W("x y"), "x")


def test_group_ring_element_keeps_only_nonzero_word_terms():
    assert GroupRingElement({W("x"): 0, W("y"): 2}).terms == {W("y"): 2}
    assert str(GroupRingElement({FreeWord.identity(): -1, W("x y"): 3})) == "-1 + 3*x y"
    with pytest.raises(TypeError):
        GroupRingElement({"x": 1})


def test_fox_product_rule_random():
    rng = random.Random(42)
    for _ in range(200):
        u = rand_word(rng)
        v = rand_word(rng)
        for g in GENS:
            lhs = D(u * v, g)
            rhs = ring_add(D(u, g), ring_mul(E(u), D(v, g)))
            assert lhs == rhs


def test_fundamental_identity_random():
    # sum over generators of dw/dx * (x - 1) telescopes to w - 1
    rng = random.Random(4242)
    for _ in range(500):
        w = rand_word(rng, length=12)
        total = {}
        for g in GENS:
            total = ring_add(total, ring_mul(D(w, g), ring_sub(E(FreeWord.generator(g)), ONE)))
        assert total == ring_sub(E(w), ONE)


def test_commutator_derivative_closed_form_random():
    # d[a,b]/ds = a^-1 (b^-1 - 1) da/ds + a^-1 b^-1 (a - 1) db/ds
    rng = random.Random(31415)
    for _ in range(200):
        a = rand_word(rng)
        b = rand_word(rng)
        ainv = E(a.inverse())
        binv = E(b.inverse())
        for s in GENS:
            lhs = D(commutator(a, b), s)
            rhs = ring_add(ring_mul(ainv, ring_sub(binv, ONE), D(a, s)),
                           ring_mul(ainv, binv, ring_sub(E(a), ONE), D(b, s)))
            assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_even_relator_derivative_closed_form(m):
    # r = [(xy)^m, x]:
    #   dr/dx = (xy)^-m (y - 1) (1 + xy + ... + (xy)^(m-1))
    #   dr/dy = (xy)^-m (x^-1 - 1) (1 + ... + (xy)^(m-1)) x
    xy = W("x y")
    r = commutator(xy ** m, W("x"))
    geom = {}
    for k in range(m):
        geom = ring_add(geom, E(xy ** k))
    front = E(xy ** -m)
    dx = ring_mul(front, ring_sub(E(W("y")), ONE), geom)
    dy = ring_mul(front, ring_sub(E(W("x^-1")), ONE), geom, E(W("x")))
    assert D(r, "x") == dx
    assert D(r, "y") == dy


def test_alternating_word():
    assert alternating_word("x", "y", 4) == W("x y x y")
    assert alternating_word("x", "y", 3) == W("x y x")


def test_artin_relator_forms():
    std = artin_relator("x", "y", 4, STANDARD)
    assert std == alternating_word("x", "y", 4) * alternating_word("y", "x", 4).inverse()
    comm = artin_relator("x", "y", 4, EVEN_COMMUTATOR)
    assert comm == commutator(W("x y x y"), W("x"))
    with pytest.raises(InputError):
        artin_relator("x", "y", 3, EVEN_COMMUTATOR)
    with pytest.raises(InputError):
        artin_relator("x", "x", 4)
    with pytest.raises(InputError):
        artin_relator("x", "y", 1)


@pytest.mark.parametrize("form", [STANDARD, EVEN_COMMUTATOR])
@pytest.mark.parametrize("label", [MAX_WORD_LETTERS // 2 + 2, 2 * 10**9], ids=["first-even-past", "2e9"])
def test_artin_relator_refuses_past_the_word_limit_before_building(label, form):
    # a relator has 2 * label letters in either form; 2e9 would ask for a
    # list of 10^9 words before any letter is reduced
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=f"MAX_WORD_LETTERS = {MAX_WORD_LETTERS}"):
            artin_relator("x", "y", label, form)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_word_power_matches_repeated_products():
    rng = random.Random(19)
    for _ in range(60):
        w, k = rand_word(rng), rng.randint(-5, 5)
        expect = FreeWord.identity()
        for _ in range(abs(k)):
            expect = expect * (w if k > 0 else w.inverse())
        assert w ** k == expect
    # one reduction pass, not k: label 8000 used to take seconds
    start = time.process_time()
    relator = artin_relator("x", "y", 8000, EVEN_COMMUTATOR)
    assert time.process_time() - start < 0.5
    assert len(relator) == 16000


def test_even_forms_define_same_relation():
    # (uv)^m u = u (vu)^m makes the two relator forms conjugate, hence the
    # same normal closure; check the underlying word identity for several m
    for m in (1, 2, 3, 4):
        lhs = (W("x y") ** m) * W("x")
        rhs = W("x") * (W("y x") ** m)
        assert lhs == rhs


def test_abelianization_classes(f1, f2):
    amap2 = abelianization_map(f2)
    assert amap2.classes == (("u", "w"), ("v",))
    assert amap2.variables == ("u", "v")
    # all F1 labels are even: no merging
    amap1 = abelianization_map(f1)
    assert amap1.classes == (("v",), ("s",), ("u",), ("w",))


def test_abelianize():
    from artin_sigma import parse_graph

    g = parse_graph("v x\nv y\ne x y 4\n")
    amap = abelianization_map(g)
    p = abelianize(W("x y x^-1"), amap)
    assert p.to_string() == "y"
    q = abelianize(fox_derivative(W("x y"), "y"), amap)
    assert q.to_string() == "x"
    r = abelianize(GroupRingElement({W("x"): 2, W("y^-1"): -1}), amap)
    assert r.to_string() == "2*x - y^-1"
    with pytest.raises(InputError):
        abelianize(W("q"), amap)


def test_f3_jacobian_rows(f3):
    gens, relators = graph_presentation(f3, even_form=True)
    amap = abelianization_map(f3)
    jac = jacobian(gens, relators, amap)
    assert jac.generators == ("a", "b")
    assert len(jac.entries) == 1
    row = jac.entries[0]
    # (ab)^-2 (1 + ab) [(b - 1), -(a - 1)]
    from artin_sigma import parse_poly, QQ

    V = ("a", "b")
    front = parse_poly("a^-2*b^-2 + a^-1*b^-1", V, QQ)
    assert row[0].coerce_to(QQ) == front * parse_poly("b - 1", V, QQ)
    assert row[1].coerce_to(QQ) == front * parse_poly("-(a - 1)", V, QQ)


def test_jacobian_chain_condition_on_fixtures(f1, f2, f3, f5):
    # sum over columns of entry * (gen - 1) must vanish, since every relator
    # abelianizes to 1
    from artin_sigma import LaurentPoly, QQ

    for g in (f1, f2, f3, f5):
        gens, relators = graph_presentation(g)
        amap = abelianization_map(g)
        jac = jacobian(gens, relators, amap)
        variables = jac.variables
        for row in jac.entries:
            acc = LaurentPoly.zero(variables, QQ)
            for col, gen in zip(row, jac.generators):
                cls_var = amap.variables[amap.class_index[gen]]
                lin = LaurentPoly.variable(cls_var, variables, QQ) - LaurentPoly.constant(
                    1, variables, QQ
                )
                acc = acc + col * lin
            assert acc.is_zero()


def test_standard_and_commutator_rows_are_associates(f3):
    # the two relator forms are conjugate, so their abelianized Fox rows agree
    # up to one common monomial unit (+- a Laurent monomial)
    amap = abelianization_map(f3)
    for label in (2, 4, 6, 8):
        std = artin_relator("a", "b", label, STANDARD)
        com = artin_relator("a", "b", label, EVEN_COMMUTATOR)
        row_std = [abelianize(fox_derivative(std, g), amap) for g in ("a", "b")]
        row_com = [abelianize(fox_derivative(com, g), amap) for g in ("a", "b")]
        ratio = None
        for s, c in zip(row_std, row_com):
            assert s.is_zero() == c.is_zero()
            if s.is_zero():
                continue
            if ratio is None:
                # candidate unit from the leading terms
                (es, cs) = max(s.terms.items())
                (ec, cc) = max(c.terms.items())
                exps = tuple(a - b for a, b in zip(ec, es))
                from fractions import Fraction

                from artin_sigma import LaurentPoly, QQ

                ratio = LaurentPoly.monomial(Fraction(cc, cs), exps, s.variables, QQ)
            assert ratio * s.coerce_to(QQ) == c.coerce_to(QQ)
        assert ratio is not None


def test_abelianization_classes_are_odd_label_closures():
    # oracle: merge the classes of an odd edge's endpoints until nothing
    # changes; classes in order of their first vertex, members in vertex order
    from conftest import random_labeled_graph

    rng = random.Random(23)
    for _ in range(200):
        g = random_labeled_graph(rng, max_vertices=8, labels=(2, 3, 4, 5), p=0.3)
        cls = {v: {v} for v in g.vertices}
        changed = True
        while changed:
            changed = False
            for u, v, label in g.edges:
                if label % 2 and cls[u] is not cls[v]:
                    merged = cls[u] | cls[v]
                    for x in merged:
                        cls[x] = merged
                    changed = True
        expected = []
        for v in g.vertices:
            members = tuple(x for x in g.vertices if x in cls[v])
            if members[0] == v:
                expected.append(members)
        assert abelianization_map(g).classes == tuple(expected)
