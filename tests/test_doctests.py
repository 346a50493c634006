"""Run the ``>>>`` examples in the package docstrings."""

import doctest

import pytest

from artin_sigma import fields, fox, graphs, laurent, polyhedron


@pytest.mark.parametrize("module", [fields, fox, graphs, laurent, polyhedron],
                         ids=lambda m: m.__name__)
def test_docstring_examples(module):
    failed, attempted = doctest.testmod(module)
    assert failed == 0
    assert attempted > 0
