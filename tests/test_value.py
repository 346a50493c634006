"""The value classes on ``artin_sigma.value.Value``: equality, hashing,
immutability and ``repr``."""

import copy
import pickle

import pytest

from artin_sigma import (
    BipartiteForest,
    Block,
    Character,
    Diagnostics,
    LabeledGraph,
    LaurentPoly,
    PolyMatrix,
    SphericalPolyhedron,
    SubSphere,
    Verdict,
    abelianization_map,
    forest_presentation,
    graph_presentation,
    jacobian,
    parse_graph,
)


def edge():
    return LabeledGraph(("a", "b"), (("a", "b", 4),))


def diagnostics():
    return Diagnostics(True, True, False, True, True, 0)


# Each builder makes a new object from new, equal arguments; the second item
# is a field to assign.
FROZEN = {
    "LabeledGraph": (edge, "edges"),
    "Block": (lambda: Block(("a", "b"), (("a", "b", 4),)), "vertices"),
    "Character": (lambda: Character(edge(), (1, -1)), "entries"),
    "Verdict": (lambda: Verdict("out", "theorem_a", diagnostics()), "status"),
    "SubSphere": (lambda: SubSphere(edge(), "disconnection", 1, 0), "units"),
    "SphericalPolyhedron": (
        lambda: SphericalPolyhedron(edge(), (SubSphere(edge(), "disconnection", 1, 0),)), "pieces"),
    "BipartiteForest": (
        lambda: BipartiteForest(("a",), ("b",), (("a", "b", 4),), basepoints=("b",)), "basepoints"),
}


@pytest.mark.parametrize("name", sorted(FROZEN))
def test_frozen_value_class(name):
    build, field = FROZEN[name]
    first, second = build(), build()
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    assert len({first, second}) == 1
    assert repr(first) == repr(second)
    assert repr(first).startswith(f"{name}(")
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert first == second
    assert pickle.loads(pickle.dumps(first)) == first == copy.deepcopy(first)


def test_fields_decide_equality_and_other_classes_differ():
    assert Block(("a", "b"), (("a", "b", 4),)) != Block(("a", "b"), (("a", "b", 6),))
    graph = edge()
    # the same field values in another class
    assert Block(graph.vertices, graph.edges) != graph
    assert graph != (graph.vertices, graph.edges)
    assert Verdict("in", "mmw_sufficient", diagnostics()) != Verdict("out", "theorem_a",
                                                                    diagnostics())


def test_repr_names_every_field_in_order():
    assert repr(Block(("a", "b"), (("a", "b", 4),))) == (
        "Block(vertices=('a', 'b'), edges=(('a', 'b', 4),))")
    assert repr(SubSphere(edge(), "dominance", 3, 0)).startswith(
        "SubSphere(graph=LabeledGraph(vertices=('a', 'b'), edges=(('a', 'b', 4),)), "
        "kind='dominance', units=3, cut=0")


def test_json_dicts_keep_their_key_order():
    verdict = Verdict("out", "theorem_a", diagnostics())
    assert verdict.to_json_dict() == {
        "status": "out",
        "provenance": "theorem_a",
        "diagnostics": {"lf_connected": True, "lf_dominant": True, "l_connected": False,
                        "even": True, "hypothesis_holds": True, "cycle_rank": 0},
    }
    assert list(verdict.to_json_dict()) == ["status", "provenance", "diagnostics"]
    assert list(verdict.to_json_dict()["diagnostics"]) == list(Diagnostics._fields)


def jacobian_matrix():
    graph = parse_graph("v a\nv b\ne a b 4\n")
    return jacobian(*graph_presentation(graph), abelianization_map(graph))


MUTABLE = {
    "ModulePresentation": (
        lambda: forest_presentation(BipartiteForest(("a",), ("b", "c"), (("a", "b", 4),))),
        "rows"),
    "PolyMatrix": (lambda: PolyMatrix([[LaurentPoly.constant(1, ("x",))]]), "entries"),
    "JacobianMatrix": (jacobian_matrix, "entries"),
}


@pytest.mark.parametrize("name", sorted(MUTABLE))
def test_mutable_value_class(name):
    build, field = MUTABLE[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second and first == second
    with pytest.raises(TypeError):
        hash(first)
    setattr(second, field, [])
    assert first != second
