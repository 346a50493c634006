from fractions import Fraction

import pytest

from artin_sigma import LabeledGraph, abelianization_map, character, parse_graph

F1_TEXT = """\
v v
v s
v u
v w
e v s 2
e u w 2
e u v 4
e v w 4
e w s 4
e s u 6
"""

F2_TEXT = """\
v u
v v
v w
e u v 4
e v w 6
e w u 3
"""

F3_TEXT = "v a\nv b\ne a b 4\n"

F4_TEXT = """\
v a
v b
v c
v d
e a b 4
e b c 4
e c d 4
e d a 4
"""

F5_TEXT = "v a\nv b\nv c\ne a b 4\ne b c 4\n"


@pytest.fixture
def f1():
    return parse_graph(F1_TEXT)


@pytest.fixture
def f2():
    return parse_graph(F2_TEXT)


@pytest.fixture
def f3():
    return parse_graph(F3_TEXT)


@pytest.fixture
def f4():
    return parse_graph(F4_TEXT)


@pytest.fixture
def f5():
    return parse_graph(F5_TEXT)


def random_labeled_graph(rng, max_vertices=8, labels=(2, 3, 4, 5, 6), p=0.5):
    n = rng.randint(2, max_vertices)
    names = [f"g{i}" for i in range(n)]
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((names[i], names[j], rng.choice(labels)))
    return LabeledGraph(tuple(names), tuple(edges))


def random_even_graph(rng, max_vertices=6, labels=(2, 4, 6), p=0.5):
    return random_labeled_graph(rng, max_vertices, labels, p)


def random_character(rng, graph):
    """Random rational character: components in [-5, 5], denominators <= 4,
    respecting equality across odd-labeled edges, never identically zero.
    The classes come from abelianization_map; each takes the value drawn
    for its first vertex."""
    index = graph.index
    classes = abelianization_map(graph).classes
    while True:
        raw = []
        for _ in graph.vertices:
            den = rng.randint(1, 4)
            raw.append(Fraction(rng.randint(-5 * den, 5 * den), den))
        values = {v: raw[index[cls[0]]] for cls in classes for v in cls}
        if any(values.values()):
            return character(graph, values)
