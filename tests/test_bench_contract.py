"""What the benchmark in ``perfbench/`` needs from the package.

The traced run (``perfbench/run.py --trace 1``) wraps the functions named in
``perfbench/spans.py``'s ``WRAPPED`` table by module and name, and
``perfbench/worker.py`` reads and clears two ``lru_cache``s.  Removing or
renaming any of them breaks the traced run; these tests fail first.  The
table is read from the source with ``ast``, so the file is neither run nor
changed.
"""

import ast
import importlib
from pathlib import Path

import pytest

from artin_sigma import fields, graphs

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _wrapped() -> dict:
    """layer.function -> (module, function name), from the WRAPPED literal."""
    for node in ast.parse(SPANS.read_text(encoding="utf-8")).body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"]:
            return {key.value: (value.elts[0].value, value.elts[1].value)
                    for key, value in zip(node.value.keys, node.value.values)}
    raise AssertionError(f"{SPANS} defines no WRAPPED table")


WRAPPED = _wrapped()


def test_wrapped_table_is_read():
    assert "polyhedron.complement_polyhedron" in WRAPPED
    assert len(WRAPPED) >= 20


@pytest.mark.parametrize("name", sorted(WRAPPED))
def test_wrapped_function_resolves(name):
    module, attr = WRAPPED[name]
    fn = getattr(importlib.import_module(f"artin_sigma.{module}"), attr, None)
    assert callable(fn), f"the traced benchmark wraps artin_sigma.{module}.{attr}"


@pytest.mark.parametrize("fn", [graphs.check_hypothesis, fields.cyclotomic_polynomial],
                         ids=["check_hypothesis", "cyclotomic_polynomial"])
def test_cached_function_keeps_cache_api(fn):
    assert callable(fn.cache_info) and callable(fn.cache_clear)
