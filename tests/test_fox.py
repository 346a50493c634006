import random

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
from artin_sigma.fox import EVEN_COMMUTATOR, STANDARD, alternating_word

GENS = ("x", "y", "z")


def W(text):
    return parse_word(text)


def E(word):
    return GroupRingElement.from_word(word)


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


def test_group_ring_arithmetic():
    a = E(W("x"))
    b = E(W("y"))
    assert (a + b) - b == a
    assert a * 0 == GroupRingElement.zero()
    assert (a - a).is_zero()
    assert (1 - a) * (1 + a) == 1 - E(W("x^2"))
    assert 2 * a == a + a


def test_fox_derivative_base_cases():
    assert fox_derivative(W("x"), "x") == GroupRingElement.one()
    assert fox_derivative(W("x"), "y").is_zero()
    assert fox_derivative(W("x^-1"), "x") == -E(W("x^-1"))
    assert fox_derivative(FreeWord.identity(), "x").is_zero()
    # product rule spot check: d(xy)/dy = x
    assert fox_derivative(W("x y"), "y") == E(W("x"))


def test_fox_product_rule_random():
    rng = random.Random(42)
    for _ in range(200):
        u = rand_word(rng)
        v = rand_word(rng)
        for g in GENS:
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + E(u) * fox_derivative(v, g)
            assert lhs == rhs


def test_fundamental_identity_random():
    # sum over generators of dw/dx * (x - 1) telescopes to w - 1
    rng = random.Random(4242)
    for _ in range(500):
        w = rand_word(rng, length=12)
        total = GroupRingElement.zero()
        for g in GENS:
            total = total + fox_derivative(w, g) * (E(FreeWord.generator(g)) - 1)
        assert total == E(w) - 1


def test_commutator_derivative_closed_form_random():
    # d[a,b]/ds = a^-1 (b^-1 - 1) da/ds + a^-1 b^-1 (a - 1) db/ds
    rng = random.Random(31415)
    for _ in range(200):
        a = rand_word(rng)
        b = rand_word(rng)
        ainv = E(a.inverse())
        binv = E(b.inverse())
        for s in GENS:
            lhs = fox_derivative(commutator(a, b), s)
            rhs = ainv * (binv - 1) * fox_derivative(a, s) + ainv * binv * (
                E(a) - 1
            ) * fox_derivative(b, s)
            assert lhs == rhs


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_even_relator_derivative_closed_form(m):
    # r = [(xy)^m, x]:
    #   dr/dx = (xy)^-m (y - 1) (1 + xy + ... + (xy)^(m-1))
    #   dr/dy = (xy)^-m (x^-1 - 1) (1 + ... + (xy)^(m-1)) x
    xy = W("x y")
    r = commutator(xy ** m, W("x"))
    geom = GroupRingElement.zero()
    for k in range(m):
        geom = geom + E(xy ** k)
    front = E(xy ** -m)
    dx = front * (E(W("y")) - 1) * geom
    dy = front * (E(W("x^-1")) - 1) * geom * E(W("x"))
    assert fox_derivative(r, "x") == dx
    assert fox_derivative(r, "y") == dy


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
    p = abelianize(E(W("x y x^-1")), amap)
    assert p.to_string() == "y"
    q = abelianize(fox_derivative(W("x y"), "y"), amap)
    assert q.to_string() == "x"
    with pytest.raises(InputError):
        abelianize(E(W("q")), amap)


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
    from artin_sigma import LaurentPoly, ZZ

    for g in (f1, f2, f3, f5):
        gens, relators = graph_presentation(g)
        amap = abelianization_map(g)
        jac = jacobian(gens, relators, amap)
        variables = jac.variables
        for row in jac.entries:
            acc = LaurentPoly.zero(variables, ZZ)
            for col, gen in zip(row, jac.generators):
                cls_var = amap.variables[amap.class_index[gen]]
                lin = LaurentPoly.variable(cls_var, variables, ZZ) - LaurentPoly.constant(
                    1, variables, ZZ
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
