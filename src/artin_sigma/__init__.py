"""Character membership and complement geometry for Artin groups of labeled graphs.

The package decides, for a character of the Artin group attached to a finite
labeled graph, whether its ray lies in the first BNS invariant; computes the
spherical polyhedron of rays conjectured to form the complement; and backs the
conjectural region with Fox-calculus Jacobians and rank certificates for
non-finite generation built from dead-edge forests specialized at roots of
unity.

``import artin_sigma`` loads no submodule: each public name is imported from
its home module on first access (PEP 562), so a caller pays only for the
modules it uses.
"""

__version__ = "0.1.0"

# Home module of each public name, in ``__all__`` order.
_EXPORTS = {
    "errors": ("InputError", "MathError"),
    "graphs": (
        "LabeledGraph", "Block", "parse_artin", "parse_graph", "full_subgraph",
        "is_connected", "is_dominant", "connected_components", "cycle_rank", "blocks",
        "all_labels_even", "high_label_subgraph", "check_hypothesis", "hypothesis_witness",
        "HYPOTHESIS_MODES", "SIMPLE_CYCLE", "STRICT",
    ),
    "characters": (
        "Character", "character", "parse_character", "parse_rational", "lf_subgraph",
        "living_subgraph", "dead_edges",
    ),
    "decision": (
        "STATUS_IN", "STATUS_OUT", "STATUS_OUT_CONJECTURAL", "Diagnostics", "Verdict",
        "conjecture_predicate", "decide_sigma1",
    ),
    "polyhedron": (
        "SubSphere", "SphericalPolyhedron", "dominance_pieces", "disconnection_pieces",
        "complement_polyhedron", "polyhedron_contains", "polyhedron_from_json",
        "subsphere_contained",
    ),
    "fox": (
        "FreeWord", "GroupRingElement", "parse_word", "commutator", "fox_derivative",
        "artin_relator", "abelianization_map", "abelianize", "jacobian", "graph_presentation",
    ),
    "laurent": ("LaurentPoly", "parse_poly"),
    "fields": ("QQ", "PrimeField", "CyclotomicField", "cyclotomic_polynomial"),
    "groebner": (
        "buchberger", "reduce_poly", "is_unit_ideal", "laurent_unit_ideal",
        "laurent_unit_report", "unit_ideal_mod_p",
    ),
    "linalg": ("PolyMatrix", "matrix_rank"),
    "presentations": (
        "BipartiteForest", "ModulePresentation", "Certificate", "forest_presentation",
        "dead_edge_forest", "specialize", "certify_not_finitely_generated",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__, not importlib.import_module, which -X importtime does not list
    value = getattr(__import__(f"{__name__}.{home}", fromlist=[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_HOME))
