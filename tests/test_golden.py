"""Every CLI report in the golden corpus is reproduced byte for byte.

The transcripts under ``tests/golden/`` were written by
``tests/golden_corpus.py``; see its docstring for what they cover and how
to regenerate them.
"""

import os

import pytest

from golden_corpus import GOLDEN_DIR, run_case, transcript_groups

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
