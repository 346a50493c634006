"""The value classes on ``artin_sigma.value.Value``: construction,
equality, hashing, immutability and ``repr``."""

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
    certify_not_finitely_generated,
    forest_presentation,
    graph_presentation,
    jacobian,
    parse_graph,
)
from artin_sigma.presentations import specialization_data
from artin_sigma.value import Value


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


def split_forest():
    return BipartiteForest(("a",), ("b", "c"), (("a", "b", 4),))


# the value classes the two tables above leave out
OTHERS = {
    "Diagnostics": diagnostics,
    "AbelianizationMap": lambda: abelianization_map(edge()),
    "Specialization": lambda: specialization_data(split_forest(), {"a": 1, "b": -1, "c": 2}),
    "Certificate": lambda: certify_not_finitely_generated(split_forest(),
                                                          {"a": 1, "b": -1, "c": 2}),
}
BUILDERS = {**{name: build for name, (build, _) in {**FROZEN, **MUTABLE}.items()}, **OTHERS}
# the classes that check or complete their arguments before Value.__init__ stores them
OWN_INIT = {"LabeledGraph", "Character", "BipartiteForest", "PolyMatrix"}


def value_classes():
    import artin_sigma

    for name in artin_sigma.__all__:  # loads every home module
        getattr(artin_sigma, name)
    found, todo = {}, [Value]
    while todo:
        for cls in todo.pop().__subclasses__():
            found[cls.__name__] = cls
            todo.append(cls)
    return found


def test_every_value_class_is_built_here_and_only_four_have_their_own_init():
    classes = value_classes()
    assert set(classes) == set(BUILDERS)
    assert {name for name, cls in classes.items() if "__init__" in vars(cls)} == OWN_INIT
    for name in sorted(BUILDERS):
        assert type(BUILDERS[name]()) is classes[name]


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_fresh_instance_holds_exactly_its_fields(name):
    value = BUILDERS[name]()
    slots = type(value).__dict__.get("__slots__")
    if slots is None:
        held = set(vars(value))
    else:
        assert not hasattr(value, "__dict__")
        held = {slot for slot in slots if hasattr(value, slot)}
    derived = {"graph", "_components"} if name == "BipartiteForest" else set()
    assert held == set(value._fields) | derived


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_keyword_and_positional_construction_agree(name):
    value = BUILDERS[name]()
    cls, values = type(value), value._key
    named = dict(zip(cls._fields, values))
    first, *rest = cls._fields
    assert cls(*values) == cls(**named) == value
    assert cls(values[0], **{field: named[field] for field in rest}) == value
    # keywords in any order
    assert cls(**dict(reversed(named.items()))) == value


@pytest.mark.parametrize("name", sorted(BUILDERS))
def test_a_wrong_field_list_is_a_type_error(name):
    value = BUILDERS[name]()
    cls, values = type(value), value._key
    named = dict(zip(cls._fields, values))
    first = cls._fields[0]
    own = name in OWN_INIT  # Python words the errors of a written signature
    without_first = {field: v for field, v in named.items() if field != first}
    with pytest.raises(TypeError, match=None if own else f"missing field {first!r}"):
        cls(**without_first)
    with pytest.raises(TypeError, match=None if own else "an unknown field 'colour'"):
        cls(*values, colour=1)
    with pytest.raises(TypeError, match=None if own else f"a repeated field {first!r}"):
        cls(*values, **{first: values[0]})
    with pytest.raises(TypeError, match=None if own else "fields but"):
        cls(*values, None)
