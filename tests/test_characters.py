import random
from fractions import Fraction

import pytest

from artin_sigma import (
    Character,
    InputError,
    character,
    dead_edges,
    lf_subgraph,
    living_subgraph,
    parse_character,
    parse_graph,
    parse_rational,
)
from conftest import random_character, random_labeled_graph


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-1/2") == Fraction(-1, 2)
    assert parse_rational(" 7/3 ") == Fraction(7, 3)
    for bad in ("1/0", "1.5", "one", "", "1/-2"):
        with pytest.raises(InputError):
            parse_rational(bad)


def test_character_basic(f3):
    chi = character(f3, {"a": 1, "b": -1})
    assert chi.value("a") == 1
    assert chi.support() == ("a", "b")
    assert chi.is_integral()


def test_character_partial_defaults_to_zero(f5):
    chi = character(f5, {"a": 2})
    assert chi.value("b") == 0
    assert chi.support() == ("a",)


def test_character_rejects_zero(f3):
    with pytest.raises(InputError):
        character(f3, {})
    with pytest.raises(InputError):
        character(f3, {"a": 0, "b": 0})


def test_character_rejects_unknown_vertex(f3):
    with pytest.raises(InputError):
        character(f3, {"z": 1})


def test_odd_edge_equality_enforced(f2):
    # (w, u) carries label 3, so values at w and u must agree
    with pytest.raises(InputError):
        character(f2, {"u": 1, "w": 2})
    chi = character(f2, {"u": 1, "w": 1, "v": -1})
    assert chi.value("u") == chi.value("w") == 1


def test_parse_character_syntax(f5):
    chi = parse_character(f5, "a=1, b=-1/2")
    assert chi.value("b") == Fraction(-1, 2)
    with pytest.raises(InputError):
        parse_character(f5, "a=1,a=2")
    with pytest.raises(InputError):
        parse_character(f5, "a")
    with pytest.raises(InputError):
        parse_character(f5, "z=1")


def test_negate_scale_canonical(f3):
    chi = character(f3, {"a": 2, "b": -4})
    assert chi.negate().value("a") == -2
    assert chi.scale(Fraction(3, 2)).value("b") == -6
    with pytest.raises(InputError):
        chi.scale(0)
    canon = chi.canonical()
    assert canon.value("a") == 1 and canon.value("b") == -2


def test_primitive_integer(f3):
    chi = character(f3, {"a": Fraction(2, 3), "b": Fraction(-4, 3)})
    prim = chi.primitive_integer()
    assert prim.entries == (Fraction(1), Fraction(-2))
    # already-integral characters reduce to coprime entries
    chi2 = character(f3, {"a": 6, "b": -9})
    assert chi2.primitive_integer().entries == (Fraction(2), Fraction(-3))


def test_lf_subgraph(f1):
    chi = character(f1, {"v": 1, "s": 1})
    lf = lf_subgraph(chi)
    assert lf.vertices == ("v", "s")
    assert lf.edges == (("v", "s", 2),)


def test_dead_edges_f1():
    # chi = (v=1, s=1, u=-1, w=-1): every label>2 edge has endpoint sum 0
    from conftest import F1_TEXT
    from artin_sigma import parse_graph

    f1 = parse_graph(F1_TEXT)
    chi = character(f1, {"v": 1, "s": 1, "u": -1, "w": -1})
    dead = dead_edges(chi)
    # endpoints are stored in declaration order (v, s, u, w)
    assert sorted((u, v) for u, v, _ in dead) == [
        ("s", "u"),
        ("s", "w"),
        ("v", "u"),
        ("v", "w"),
    ]
    # label-2 edges are never dead
    assert all(label > 2 for _, _, label in dead)


def test_living_subgraph_f1(f1):
    chi = character(f1, {"v": 1, "s": 1, "u": -1, "w": -1})
    living = living_subgraph(chi)
    assert living.vertices == ("v", "s", "u", "w")
    assert sorted((u, v) for u, v, _ in living.edges) == [("u", "w"), ("v", "s")]


def test_living_subgraph_keeps_unbalanced_edges(f3):
    chi = character(f3, {"a": 1, "b": 2})
    assert living_subgraph(chi).edges == (("a", "b", 4),)
    chi2 = character(f3, {"a": 1, "b": -1})
    assert living_subgraph(chi2).edges == ()


def test_character_equality_and_hash(f3):
    a = character(f3, {"a": 1, "b": -1})
    b = Character(f3, (Fraction(1), Fraction(-1)))
    assert a == b
    assert hash(a) == hash(b)


def test_random_character_merges_shared_odd_endpoint():
    # two label-3 edges into c: a pairwise copy of values never settles here
    g = parse_graph("v a\nv b\nv c\ne a c 3\ne b c 3\n")
    rng = random.Random(11)
    for _ in range(20):
        values = random_character(rng, g).values
        assert values["a"] == values["b"] == values["c"]
    rng = random.Random(11)
    for _ in range(12):
        g = random_labeled_graph(rng, max_vertices=6)
        values = random_character(rng, g).values
        for u, v, label in g.edges:
            if label % 2 == 1:
                assert values[u] == values[v], (g, u, v)


def test_dead_edges_is_a_tuple_and_living_subgraph_drops_them():
    rng = random.Random(31)
    for _ in range(300):
        g = random_labeled_graph(rng, max_vertices=7, labels=(2, 3, 4, 6))
        chi = random_character(rng, g)
        dead = dead_edges(chi)
        assert isinstance(dead, tuple)
        assert dead == tuple(e for e in g.edges if e[2] in (4, 6)
                             and chi.value(e[0]) == -chi.value(e[1]))
        lf = lf_subgraph(chi)
        living = living_subgraph(chi)
        assert living.vertices == lf.vertices
        assert living.edges == tuple(e for e in lf.edges if e not in dead)
