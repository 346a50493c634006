"""The golden corpus: recorded CLI transcripts that every change must reproduce.

``tests/golden/graphs/`` holds the input graphs: the README examples, the
F1-F5 fixtures, 20 seeded random graphs and a K4 on which the two readings
of the hypothesis differ, each random one and the K4 with its character as
``c`` lines.  For every graph a fixed battery of subcommands
(``sigma1``, ``polyhedron``, ``hypothesis``, ``jacobian``, ``kt-certify`` and
``groebner``, in both modes where a command has one) is run through
``cli.main`` in process, and its exit code, stdout and stderr are written to
``tests/golden/<graph>.txt``.  The README examples that need no graph file,
a few malformed inputs, the K4, which only ``sigma1`` runs on, in both
modes, and a forest at M = 15, which only ``kt-certify`` runs on, have their
own transcripts.

JSON reports are recorded byte for byte, minus ``timing_ms``, the one field
that is not deterministic.  ``tests/test_golden.py`` reruns every case and
compares the transcripts.

Regenerate (graphs and transcripts) with::

    PYTHONPATH=src python tests/golden_corpus.py

Only do so on purpose: a report that changes is what the test is for.
"""

from __future__ import annotations

import io
import os
import random
import re
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GRAPH_DIR = os.path.join(GOLDEN_DIR, "graphs")

SEED = 20201014
RANDOM_GRAPHS = 20

_TIMING_RE = re.compile(r', "timing_ms": \d+\}\n\Z')

README_TEXTS = {
    "square": (
        "v v\nv s\nv u\nv w\n"
        "e v s 2\ne u w 2\ne u v 4\ne v w 4\ne w s 4\ne s u 6\n"
        "c v 1\nc s 1\nc u -1\nc w -1\n"
    ),
    "path": "v a\nv b\nv c\ne a b 4\ne b c 4\nc a 1\nc b -1\nc c 1\n",
}

FIXTURE_TEXTS = {
    "f1": "v v\nv s\nv u\nv w\ne v s 2\ne u w 2\ne u v 4\ne v w 4\ne w s 4\ne s u 6\n",
    "f2": "v u\nv v\nv w\ne u v 4\ne v w 6\ne w u 3\n",
    "f3": "v a\nv b\ne a b 4\n",
    "f4": "v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c d 4\ne d a 4\n",
    "f5": "v a\nv b\nv c\ne a b 4\ne b c 4\n",
}

# Characters passed with --char on the fixtures, which carry no c lines; the
# last one of each list lacks full support or a forest, so kt-certify fails.
FIXTURE_CHARS = {
    "f1": ("v=1,s=1,u=-1,w=-1", "v=1,s=-1,u=1,w=-1", "v=1"),
    "f2": ("u=1,v=-1,w=1", "u=2,v=-2,w=2", "v=1"),
    "f3": ("a=1,b=-1", "a=1/2,b=-1/2", "a=1,b=1"),
    "f4": ("a=1,b=-1,c=1,d=-1", "a=1,b=-1,c=2,d=-2", "a=1,c=1"),
    "f5": ("a=1,b=-1,c=1", "a=2,b=-2,c=1", "b=1"),
}

FIXTURE_BIPARTITIONS = {
    "f1": "v,s/u,w",
    "f2": "u,w/v",
    "f3": "a/b",
    "f4": "a,c/b,d",
    "f5": "a,c/b",
}

# Which reading of the hypothesis Theorem A needs is open: the default mode
# asks for no even simple cycle, --mode strict for odd closed reduced paths,
# and going twice round the label-4 triangle of this K4 is one of length 6.
READING_TEXTS = {
    "k4_triangle": "v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c a 4\ne a d 2\ne b d 2\n"
                   "e c d 2\nc a 1\nc b -1\nc c 1\n",
}

# Dead edges with labels 6 and 10 (half-labels 3 and 5): M = 15, Phi_15 has
# degree 8, and the witness at (c,b) carries zeta^13, a residue past the
# degree, so its entry string is read off a row of the zeta-power table.
CYCLOTOMIC_TEXTS = {
    "m15": "v a\nv b\nv c\nv d\nv e\ne a b 6\ne b c 10\ne a c 2\ne a d 2\ne b e 2\n"
           "c a 1\nc b -1\nc c 1\nc d 2\nc e -3\n",
}

MALFORMED_TEXTS = {
    "bad_label": "v a\nv b\ne a b 1\n",
    "bad_directive": "v a\nx a\n",
    "undeclared": "v a\ne a b 4\n",
    "odd_unequal": "v a\nv b\ne a b 3\nc a 1\nc b 2\n",
}


def _graph_text(vertices, edges, char) -> str:
    lines = [f"v {v}" for v in vertices]
    lines += [f"e {u} {v} {label}" for u, v, label in edges]
    lines += [f"c {v} {char[v]}" for v in vertices if char[v] != 0]
    return "\n".join(lines) + "\n"


def random_graph_texts(seed: int = SEED, count: int = RANDOM_GRAPHS) -> dict:
    """Seeded graphs on 3-6 vertices with labels 2, 3, 4, 6 and a character
    equal across odd edges and never all zero: +-1 on every vertex for even
    k, so kt-certify often finds a forest, and in {-2, -1, 0, 1, 2} for odd
    k.  The small value sets make dead edges and zeros common."""
    rng = random.Random(seed)
    out = {}
    for k in range(count):
        n = rng.randint(3, 6)
        values = (-2, -1, -1, 0, 1, 1, 2) if k % 2 else (-1, 1)
        vertices = tuple(f"g{i}" for i in range(n))
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.55:
                    edges.append((vertices[i], vertices[j], rng.choice((2, 3, 4, 4, 6))))
        while True:
            char = {v: rng.choice(values) for v in vertices}
            for _ in vertices:  # odd edges force equal values
                for u, v, label in edges:
                    if label % 2:
                        char[v] = char[u]
            if any(char.values()):
                break
        out[f"r{k:02d}"] = _graph_text(vertices, edges, char)
    return out


def _parse(text: str):
    """(vertices, edges, {vertex: value}) of the line format, for building
    cases only; the CLI parses the files itself."""
    vertices, edges, char = [], [], {}
    for line in text.splitlines():
        parts = line.split()
        if parts[0] == "v":
            vertices.append(parts[1])
        elif parts[0] == "e":
            edges.append((parts[1], parts[2], int(parts[3])))
        elif parts[0] == "c":
            char[parts[1]] = parts[2]
    return vertices, edges, char


def _cyclotomic_sum(u: str, v: str, label: int) -> str:
    """1 + uv + ... + (uv)^(m-1) for label 2m."""
    terms = ["1", f"{u}*{v}"] + [f"{u}^{k}*{v}^{k}" for k in range(2, label // 2)]
    return "+".join(terms)


def _groebner_gens(edges, char: dict) -> list:
    """Cyclotomic sums of the dead edges, else of every even edge with
    label > 2: the systems whose unit ideal the certificates turn on."""
    even = [(u, v, label) for u, v, label in edges if label > 2 and label % 2 == 0]
    dead = [(u, v, label) for u, v, label in even
            if Fraction(char.get(u, 0)) + Fraction(char.get(v, 0)) == 0]
    return [_cyclotomic_sum(u, v, label) for u, v, label in (dead or even)][:4]


def graph_cases(name: str, text: str) -> list:
    """The battery run on one graph file."""
    path = f"graphs/{name}.artin"
    vertices, edges, char = _parse(text)
    chars = FIXTURE_CHARS.get(name, (None,))
    cases = []
    for spec in chars:
        extra = [] if spec is None else ["--char", spec]
        for mode in ("simple-cycle", "strict"):
            cases.append(["sigma1", path, *extra, "--mode", mode])
        cases.append(["kt-certify", path, *extra])
    if name in FIXTURE_BIPARTITIONS:
        cases.append(["kt-certify", path, "--char", chars[0],
                      "--bipartition", FIXTURE_BIPARTITIONS[name]])
    else:
        cases.append(["kt-certify", path, "--bipartition",
                      f"{vertices[0]}/{','.join(vertices[1:])}"])
    cases.append(["polyhedron", path])
    for mode in ("simple-cycle", "strict"):
        cases.append(["hypothesis", path, "--mode", mode])
    cases.append(["jacobian", path])
    cases.append(["jacobian", path, "--standard"])
    if chars[0] is not None:
        char = dict(chunk.split("=") for chunk in chars[0].split(","))
    gens = _groebner_gens(edges, char)
    if gens:
        base = ["groebner", "--vars", ",".join(vertices), "--gens", *gens]
        cases.append(base)
        cases.append(base + ["--laurent"])
    if name in FIXTURE_CHARS:
        spec = ["--char", chars[0]]
        cases.append(["sigma1", path, *spec, "--format", "text"])
        cases.append(["kt-certify", path, *spec, "--format", "text"])
        cases.append(["polyhedron", path, "--format", "text"])
        cases.append(["hypothesis", path, "--format", "text"])
        cases.append(["jacobian", path, "--format", "text"])
    return cases


README_CASES = [
    ["sigma1", "graphs/square.artin"],
    ["sigma1", "graphs/square.artin", "--char", "v=1,s=1,u=-1,w=-1"],
    ["sigma1", "graphs/square.artin", "--mode", "strict"],
    ["polyhedron", "graphs/path.artin", "--format", "text"],
    ["hypothesis", "graphs/square.artin"],
    ["kt-certify", "graphs/path.artin", "--bipartition", "a,c/b"],
    ["groebner", "--vars", "s,u,v,w", "--laurent",
     "--gens", "1+u*v", "1+s*u+s^2*u^2", "1+v*w", "1+s*w", "--format", "text"],
    ["groebner", "--vars", "s,u,v,w", "--laurent",
     "--gens", "1+u*v", "1+s*u+s^2*u^2", "1+v*w", "1+s*w"],
    ["fox", "--word", "a^-1 b^-1 a b", "--gen", "a"],
    ["fox", "--word", "a b^-1 a^2", "--generator", "a", "--format", "text"],
    ["fox", "--word", "a a", "--generator", "b"],
    ["jacobian", "graphs/path.artin"],
]

MALFORMED_CASES = [
    ["sigma1", "graphs/bad_label.artin", "--char", "a=1"],
    ["polyhedron", "graphs/bad_directive.artin"],
    ["hypothesis", "graphs/undeclared.artin"],
    ["sigma1", "graphs/odd_unequal.artin"],
    ["sigma1", "graphs/f3.artin"],
    ["sigma1", "graphs/f3.artin", "--char", "a=1,z=2"],
    ["sigma1", "graphs/f3.artin", "--char", "a=0,b=0"],
    ["sigma1", "graphs/f3.artin", "--char", "a=1/0"],
    ["kt-certify", "graphs/f5.artin", "--char", "a=1,b=-1,c=1", "--bipartition", "a,b/c"],
    ["kt-certify", "graphs/f5.artin", "--char", "a=1,b=-1,c=1", "--bipartition", "a/c"],
    ["fox", "--word", "a^x", "--generator", "a"],
    ["groebner", "--vars", "x", "--gens", "x^"],
    ["groebner", "--vars", "x,y", "--gens", "x*y-1", "x^2-y", "--order", "lex"],
]


READING_CASES = [["sigma1", "graphs/k4_triangle.artin", "--mode", mode]
                 for mode in ("simple-cycle", "strict")]


CYCLOTOMIC_CASES = [
    ["kt-certify", "graphs/m15.artin"],
    ["kt-certify", "graphs/m15.artin", "--char", "a=3,b=-3,c=3,d=-1,e=2"],
    ["kt-certify", "graphs/m15.artin", "--format", "text"],
]


def all_graph_texts() -> dict:
    texts = dict(README_TEXTS)
    texts.update(READING_TEXTS)
    texts.update(CYCLOTOMIC_TEXTS)
    texts.update(FIXTURE_TEXTS)
    texts.update(random_graph_texts())
    texts.update(MALFORMED_TEXTS)
    return texts


def transcript_groups() -> dict:
    """Transcript name -> list of argv, read from the committed graph files."""
    groups = {"readme": README_CASES, "malformed": MALFORMED_CASES,
              "hypothesis_reading": READING_CASES, "cyclotomic": CYCLOTOMIC_CASES}
    own = README_TEXTS.keys() | MALFORMED_TEXTS.keys() | READING_TEXTS.keys() | CYCLOTOMIC_TEXTS.keys()
    for fname in sorted(os.listdir(GRAPH_DIR)):
        name = fname[:-len(".artin")]
        if name in own:
            continue
        with open(os.path.join(GRAPH_DIR, fname), encoding="utf-8") as fh:
            groups[name] = graph_cases(name, fh.read())
    return groups


def run_case(argv) -> str:
    """One case as transcript text: the command, its exit code, then its
    stdout and stderr lines, with timing_ms cut from a JSON report."""
    from artin_sigma.cli import main

    real = [os.path.join(GOLDEN_DIR, a) if a.startswith("graphs/") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(real)
    stdout = out.getvalue()
    if code == 0 and "--format" not in argv:
        stdout, cut = _TIMING_RE.subn("}\n", stdout)
        if cut != 1:
            raise AssertionError(f"no timing_ms in the report of {argv}")
    lines = [f"$ artin-sigma {shlex.join(argv)}", f"exit {code}"]
    lines += [f"1> {line}" for line in stdout.splitlines()]
    lines += [f"2> {line}" for line in err.getvalue().splitlines()]
    return "\n".join(lines) + "\n"


def transcript(cases) -> str:
    return "\n".join(run_case(argv) for argv in cases)


def main() -> int:
    os.makedirs(GRAPH_DIR, exist_ok=True)
    for name, text in all_graph_texts().items():
        with open(os.path.join(GRAPH_DIR, f"{name}.artin"), "w", encoding="utf-8") as fh:
            fh.write(text)
    for name, cases in transcript_groups().items():
        with open(os.path.join(GOLDEN_DIR, f"{name}.txt"), "w", encoding="utf-8") as fh:
            fh.write(transcript(cases))
    return 0


if __name__ == "__main__":
    sys.exit(main())
