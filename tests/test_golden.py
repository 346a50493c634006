"""Every CLI report in the golden corpus is reproduced byte for byte.

The transcripts under ``tests/golden/`` were written by
``tests/golden_corpus.py``; see its docstring for what they cover and how
to regenerate them.  Every certificate among them is also rebuilt by
``specialization_oracle``, which runs the two checks that prove its rank.
"""

import json
import os

import pytest

from artin_sigma.characters import parse_character
from artin_sigma.graphs import parse_artin
from artin_sigma.presentations import dead_edge_forest
from golden_corpus import GOLDEN_DIR, run_case, transcript_groups
import specialization_oracle as oracle

GROUPS = transcript_groups()


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_golden_transcript(name):
    with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), encoding="utf-8") as fh:
        expected = fh.read()
    got = [run_case(argv) for argv in GROUPS[name]]
    for want, have in zip(expected.split("\n\n"), got):
        assert have.rstrip("\n") == want.rstrip("\n")
    assert "\n".join(got) == expected


def test_golden_corpus_covers_every_command():
    commands = {argv[0] for cases in GROUPS.values() for argv in cases}
    assert commands == {"sigma1", "polyhedron", "hypothesis", "jacobian",
                        "kt-certify", "groebner", "fox"}
    assert sum(name.startswith("r") and name[1:].isdigit() for name in GROUPS) == 20


def golden_certificates():
    """(argv, result) of every golden kt-certify call that exits 0 with a
    JSON report."""
    for name in sorted(GROUPS):
        with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), encoding="utf-8") as fh:
            blocks = fh.read().split("\n\n")
        for argv, block in zip(GROUPS[name], blocks):
            lines = block.split("\n")
            if argv[0] == "kt-certify" and lines[1] == "exit 0" and "--format" not in argv:
                yield argv, json.loads(lines[2].removeprefix("1> "))["result"]


def test_oracle_reproduces_every_golden_certificate():
    # the forest and character are rebuilt as kt-certify builds them; the
    # oracle checks the witness and the minor on the expanded polynomials
    cases = list(golden_certificates())
    for argv, result in cases:
        opts = dict(zip(argv[2::2], argv[3::2]))
        with open(os.path.join(GOLDEN_DIR, argv[1]), encoding="utf-8") as fh:
            graph, inline = parse_artin(fh.read())
        chi = parse_character(graph, opts.get("--char", inline))
        if not chi.is_integral():
            chi = chi.primitive_integer()
        split = opts.get("--bipartition")
        forest = dead_edge_forest(chi, split and [side.split(",") for side in split.split("/")])
        got = oracle.certify(forest, chi).to_json_dict()
        assert json.dumps(got) == json.dumps(result), argv
    assert len(cases) == 20
