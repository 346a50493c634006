"""What importing the package and running each subcommand loads.

``import artin_sigma`` resolves its public names lazily (PEP 562) and the CLI
imports each subcommand's modules when that subcommand runs.  These tests pin
the module sets in fresh interpreters, with ``dataclasses``, ``inspect``,
``argparse`` and ``hashlib`` never among them, the public surface, and the
argument table's choice lists against their homes in ``graphs`` and
``groebner``.
"""

import ast
import importlib
import json
import sys
from pathlib import Path

import pytest

import artin_sigma
from artin_sigma import cli, graphs, groebner

from test_cli import F3_TEXT, graph_file, run_python

# The package modules each subcommand loads, besides ``cli`` and ``errors``:
# exact sets, so ``sigma1`` and ``hypothesis`` load none of the algebra stack
# (fields, laurent, groebner, linalg, presentations, polyhedron, fox),
# ``groebner`` none of the graph side, ``fox`` neither (only the Jacobian's
# abelianization runs them) and ``polyhedron`` not ``characters`` (only
# ``polyhedron_from_json`` runs it).  ``value``, the base of the value
# classes, comes with ``graphs`` and ``fox``.
SUBCOMMAND_MODULES = {
    "sigma1": {"graphs", "characters", "decision", "value"},
    "hypothesis": {"graphs", "value"},
    "polyhedron": {"graphs", "polyhedron", "value"},
    "fox": {"fox", "value"},
    "jacobian": {"fox", "graphs", "laurent", "fields", "value"},
    "kt-certify": {"presentations", "linalg", "laurent", "fields", "characters", "graphs",
                   "value"},
    "groebner": {"groebner", "laurent", "fields"},
}

# Standard-library modules that no subcommand loads: ``dataclasses`` pulls in
# ``inspect``, which pulls in ``ast``, ``dis`` and ``tokenize``; ``argparse``
# pulls in ``gettext`` and, through its lookups, ``locale``; ``hashlib`` loads
# OpenSSL's ``_hashlib``.
HEAVY_MODULES = {"dataclasses", "inspect", "argparse", "gettext", "locale", "hashlib",
                 "_hashlib"}

# The interpreter's own SHA-256 module, which hashes a graph file.
SHA_MODULE = "_sha2" if sys.version_info >= (3, 12) else "_sha256"

# Run a subcommand with stdout discarded; print every module loaded when
# ``main`` starts its clock and once the subcommand has run.
PROBE = """
import contextlib, io, json, sys
from artin_sigma import cli
argv = json.loads(sys.argv[1])
seen = {}
real_counter = cli.time.perf_counter
def counter():
    seen.setdefault("before_clock", sorted(sys.modules))
    return real_counter()
cli.time.perf_counter = counter
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(argv)
print(json.dumps({"code": code, "before_clock": seen["before_clock"], "after": sorted(sys.modules)}))
"""


def argv_for(command, path):
    return {
        "sigma1": ["sigma1", path],
        "hypothesis": ["hypothesis", path],
        "polyhedron": ["polyhedron", path],
        "fox": ["fox", "--word", "a b a^-1", "--generator", "a"],
        "jacobian": ["jacobian", path],
        "kt-certify": ["kt-certify", path],
        "groebner": ["groebner", "--vars", "x,y", "--gens", "x*y - 1", "--laurent"],
    }[command]


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_MODULES))
def test_subcommand_loads_only_its_own_modules(tmp_path, command):
    path = graph_file(tmp_path, F3_TEXT)
    proc = run_python(["-c", PROBE, json.dumps(argv_for(command, path))])
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["code"] == 0
    package = {m.split(".", 1)[1] for m in report["after"] if m.startswith("artin_sigma.")}
    assert package == SUBCOMMAND_MODULES[command] | {"cli", "errors"}
    assert HEAVY_MODULES.isdisjoint(report["after"])
    # only subcommands that read a graph file hash it
    assert (SHA_MODULE in report["after"]) == (command not in ("fox", "groebner"))
    # the body imports nothing new once the clock runs, so timing_ms leaves imports out
    assert report["before_clock"] == report["after"]


def test_bare_import_loads_no_submodule():
    code = "import sys, artin_sigma; print([m for m in sys.modules if 'artin_sigma.' in m])"
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# ``artin_sigma.__all__`` as it was when every name was imported eagerly, less
# ``LinearForm`` and ``PieceOrigin`` (a polyhedron piece is now its masks) and
# ``bipartition_presentation`` and ``koszul_differential`` (now test oracles).
PUBLIC_NAMES = [
    "InputError", "MathError", "LabeledGraph", "Block", "parse_artin", "parse_graph",
    "full_subgraph", "is_connected", "is_dominant", "connected_components", "cycle_rank",
    "blocks", "all_labels_even", "high_label_subgraph", "check_hypothesis",
    "hypothesis_witness", "HYPOTHESIS_MODES", "SIMPLE_CYCLE", "STRICT", "Character",
    "character", "parse_character", "parse_rational", "lf_subgraph", "living_subgraph",
    "dead_edges", "STATUS_IN", "STATUS_OUT", "STATUS_OUT_CONJECTURAL", "Diagnostics",
    "Verdict", "conjecture_predicate", "decide_sigma1", "SubSphere", "SphericalPolyhedron",
    "dominance_pieces", "disconnection_pieces", "complement_polyhedron",
    "polyhedron_contains", "polyhedron_from_json", "subsphere_contained", "FreeWord",
    "GroupRingElement", "parse_word", "commutator", "fox_derivative", "artin_relator",
    "abelianization_map", "abelianize", "jacobian", "graph_presentation", "LaurentPoly",
    "parse_poly", "QQ", "PrimeField", "CyclotomicField", "cyclotomic_polynomial",
    "buchberger", "reduce_poly", "is_unit_ideal", "laurent_unit_ideal",
    "laurent_unit_report", "unit_ideal_mod_p", "PolyMatrix", "matrix_rank",
    "BipartiteForest", "ModulePresentation", "Certificate", "forest_presentation",
    "dead_edge_forest", "specialize", "certify_not_finitely_generated", "__version__",
]


def test_oracles_import_nothing_from_the_package():
    # the oracles check the package, so they must not share its code: read
    # their import statements, and import them in a fresh interpreter
    path = Path(__file__).with_name("oracles.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported and not any(name.split(".")[0] in ("artin_sigma", "") for name in imported)
    code = (f"import sys; sys.path.insert(0, {str(path.parent)!r}); import oracles; "
            "print([m for m in sys.modules if m.split('.')[0] in ('artin_sigma', 'conftest')])")
    proc = run_python(["-c", code])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_public_names_unchanged_in_order():
    assert artin_sigma.__all__ == PUBLIC_NAMES


def test_each_public_name_is_the_object_from_its_home_module():
    wrong = []
    for name in PUBLIC_NAMES[:-1]:
        home = importlib.import_module(f"artin_sigma.{artin_sigma._HOME[name]}")
        value = getattr(artin_sigma, name)
        defined_in = getattr(value, "__module__", None)
        if value is not getattr(home, name) or (
            isinstance(defined_in, str)
            and defined_in.startswith("artin_sigma.")
            and defined_in != home.__name__
        ):
            wrong.append(name)
    assert wrong == []
    from artin_sigma import decision

    assert artin_sigma.decide_sigma1 is decision.decide_sigma1


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from artin_sigma import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)


def test_dir_lists_every_public_name():
    assert set(artin_sigma.__all__) <= set(dir(artin_sigma))


def test_unknown_attribute_raises_attribute_error_naming_the_module():
    message = r"module 'artin_sigma' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        artin_sigma.no_such_name


def option(command, dest):
    return next(opt for opt in cli.COMMANDS[command]["options"].values() if opt["dest"] == dest)


@pytest.mark.parametrize("command", ["sigma1", "hypothesis"])
def test_mode_choices_come_from_graphs(command):
    opt = option(command, "mode")
    assert tuple(opt["choices"]) == graphs.HYPOTHESIS_MODES
    assert opt["default"] == graphs.SIMPLE_CYCLE


def test_order_choices_come_from_groebner():
    opt = option("groebner", "order")
    assert list(opt["choices"]) == sorted(groebner.ORDER_KEYS)
    assert opt["default"] == groebner.DEFAULT_ORDER
