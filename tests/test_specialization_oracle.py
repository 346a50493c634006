"""Differential test of the certificate kernel against the zeta-power oracle.

``presentations`` specializes on integer exponents and residues mod M;
``specialization_oracle`` raises the images zeta^j * x^e to their powers in
the field and checks the certificate on the expanded polynomials.  The
specialized matrices and the certificate JSON, witness strings included,
must agree byte for byte.
"""

import json
import random
from math import lcm

import pytest

from artin_sigma import BipartiteForest, certify_not_finitely_generated, forest_presentation, specialize
from artin_sigma.fields import QQ

import specialization_oracle as oracle


def random_forest(rng, half_labels, max_side=3, max_order=1000):
    """A seeded forest with half-labels drawn from ``half_labels`` (redrawn
    until their lcm is at most ``max_order``), a character opposite across
    every tree edge and random basepoints."""
    while True:
        left = tuple(f"v{i}" for i in range(rng.randint(1, max_side)))
        right = tuple(f"w{i}" for i in range(rng.randint(1, max_side)))
        pairs = [(a, b) for a in left for b in right]
        rng.shuffle(pairs)
        comp = {x: x for x in left + right}
        edges = []
        for a, b in pairs:
            if comp[a] != comp[b] and rng.random() < 0.6:
                edges.append((a, b, 2 * rng.choice(half_labels)))
                old, new = comp[a], comp[b]
                comp = {x: new if c == old else c for x, c in comp.items()}
        if lcm(*(label // 2 for *_, label in edges)) <= max_order:
            break
    forest = BipartiteForest(left, right, tuple(edges))
    values = {}
    for component in forest.components():
        sign = {component[0]: rng.choice((1, 2, 3, -1, -2, -3))}
        for _ in component:
            for v, w, _label in forest.edges:
                if v in sign:
                    sign[w] = -sign[v]
                elif w in sign:
                    sign[v] = -sign[w]
        values.update(sign)
    basepoints = [rng.choice(component) for component in forest.components()]
    return forest.with_basepoints(basepoints), values


def entries(matrix):
    return [[(e.variables, e.domain, e.terms) for e in row] for row in matrix.entries]


def assert_agrees(forest, chi):
    got = json.dumps(certify_not_finitely_generated(forest, chi).to_json_dict())
    assert got == json.dumps(oracle.certify(forest, chi).to_json_dict()), (forest, chi)
    pres = forest_presentation(forest)
    assert entries(specialize(pres, forest, chi)) == entries(oracle.specialize(pres, forest, chi))
    return json.loads(got)["M"]


def test_certificates_and_specializations_match_the_zeta_power_oracle():
    rng = random.Random(20261019)
    orders = set()
    for _ in range(300):
        forest, chi = random_forest(rng, range(2, 16), max_order=120)
        orders.add(assert_agrees(forest, chi))
    # composite orders with several prime factors, and Q itself, are covered
    assert {1, 2, 6, 12, 15, 30, 60} <= orders


def test_labels_6_and_10_give_m15():
    rng = random.Random(15)
    for _ in range(20):
        forest, chi = random_forest(rng, (3, 5), max_side=4)
        assert assert_agrees(forest, chi) in (1, 3, 5, 15)
    star = BipartiteForest(("a", "c"), ("b",), (("a", "b", 6), ("c", "b", 10)))
    assert assert_agrees(star, {"a": 2, "b": -2, "c": 2}) == 15


@pytest.mark.parametrize("half_labels", [(97,), (64, 32), (100, 25, 50), (37,), (2, 99)])
def test_labels_up_to_200_match_the_oracle(half_labels):
    rng = random.Random(sum(half_labels))
    orders = {assert_agrees(*random_forest(rng, half_labels, max_side=2)) for _ in range(4)}
    assert any(order % max(half_labels) == 0 for order in orders)


def test_forest_with_no_edges_specializes_over_q():
    forest = BipartiteForest(("v", "t"), ("w",), ())
    chi = {"v": 1, "t": -2, "w": 3}
    assert assert_agrees(forest, chi) == 1
    assert {e.domain for row in specialize(forest_presentation(forest), forest, chi).entries
            for e in row} == {QQ}
