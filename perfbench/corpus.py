"""Seeded input generators and the recorded pools the workloads draw from.

Every generator takes a ``random.Random`` and iterates only over lists,
tuples and insertion-ordered dicts, never over sets, so its output depends
on the seed alone and not on ``PYTHONHASHSEED``.

The pools under ``data/`` were generated once by ``record.py`` from a fixed
master seed, together with the answers the package gave at that commit, so
every job has a recorded answer to check against.  A run's ``--seed``
orders the jobs (and, for membership-stream and cli-mix, picks a share of
each pool), so the same seed gives the same jobs.

This module does not import ``artin_sigma``: generators emit plain text and
tuples, which the workloads parse with the package's own parsers.  It also
holds ``SRC`` and ``child_env()``, where every benchmark process finds the
package.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

MASTER_SEED = 200914269


def child_env() -> dict:
    """The environment of every process the benchmark starts: the package
    imported from ``src/``, and a pinned hash seed."""
    return dict(os.environ, PYTHONPATH=SRC, PYTHONHASHSEED="0")


# Characters take values in this small set so that opposite values on an
# even edge (dead edges) and zeros (smaller support) are common; with wide
# random rationals nearly every character would be decided by the first
# sufficient rule.
CHAR_VALUES = (
    Fraction(-2), Fraction(-1), Fraction(-1, 2), Fraction(0),
    Fraction(1, 2), Fraction(1), Fraction(2),
)


# ---------------------------------------------------------------------------
# graphs


def graph_text(vertices, edges, char=None) -> str:
    """The ``.artin`` line format for a vertex list, (u, v, label) edges and
    an optional {vertex: value} character."""
    lines = [f"v {v}" for v in vertices]
    lines += [f"e {u} {v} {label}" for u, v, label in edges]
    if char:
        lines += [f"c {v} {char[v]}" for v in vertices if v in char]
    return "\n".join(lines) + "\n"


def cycle_graph(n: int, label: int, prefix: str = "a"):
    vertices = tuple(f"{prefix}{i}" for i in range(n))
    edges = tuple((vertices[i], vertices[(i + 1) % n], label) for i in range(n))
    return vertices, edges


def random_graph(rng, n: int, labels, p: float = 0.5):
    """Each vertex pair becomes an edge with probability p, label uniform."""
    vertices = tuple(f"g{i}" for i in range(n))
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((vertices[i], vertices[j], rng.choice(labels)))
    return vertices, tuple(edges)


def cut_graph(rng, n: int, removable: int, other: int, other_labels=(2,)):
    """Graph with exactly ``removable`` edges of label 4 or 6 (the edges a
    polyhedron piece may cut) and ``other`` edges with labels drawn from
    ``other_labels``, on distinct random vertex pairs.

    The polyhedron's cost grows as 2^|Y1| x 2^(removable edges), so both
    counts are fixed per corpus group and only the placement is random.
    ``other_labels=(2,)`` gives an even-labelled graph; adding odd labels
    gives a mixed one."""
    vertices = tuple(f"g{i}" for i in range(n))
    pairs = [(vertices[i], vertices[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    chosen = pairs[: removable + other]
    edges = [(u, v, rng.choice((4, 6))) for u, v in chosen[:removable]]
    edges += [(u, v, rng.choice(other_labels)) for u, v in chosen[removable:]]
    order = {v: i for i, v in enumerate(vertices)}
    edges.sort(key=lambda e: (order[e[0]], order[e[1]]))
    return vertices, tuple(edges)


# Fixtures F1-F5 of the test suite; F1 with its character is the README's
# square.artin and F5 with its character is the README's path.artin.
F1 = graph_text(("v", "s", "u", "w"), (
    ("v", "s", 2), ("u", "w", 2), ("u", "v", 4), ("v", "w", 4), ("w", "s", 4), ("s", "u", 6)))
F2 = graph_text(("u", "v", "w"), (("u", "v", 4), ("v", "w", 6), ("w", "u", 3)))
F3 = graph_text(("a", "b"), (("a", "b", 4),))
F4 = graph_text(*cycle_graph(4, 4, prefix="a"))
F5 = graph_text(("a", "b", "c"), (("a", "b", 4), ("b", "c", 4)))
SQUARE = F1 + "c v 1\nc s 1\nc u -1\nc w -1\n"
PATH = F5 + "c a 1\nc b -1\nc c 1\n"
FIXTURES = (F1, F2, F3, F4, F5)
CRITERION_2 = {"vars": ["s", "u", "v", "w"], "gens": ["1+u*v", "1+s*u+s^2*u^2", "1+v*w", "1+s*w"]}



def random_character(rng, vertices, edges, values=CHAR_VALUES):
    """A seeded rational character, constant on odd-label classes.

    Odd-labelled edges force equal values on their endpoints; the classes
    are merged with union-find, as the package's abelianization map does,
    and each class draws one value.  (A helper that instead copies values
    along odd edges until nothing changes never terminates when two odd
    edges share an endpoint, e.g. a-c and b-c with label 3.)  Redraws until
    the character is not identically zero.  Returns {vertex: Fraction}.
    """
    index = {v: i for i, v in enumerate(vertices)}
    parent = list(range(len(vertices)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for u, v, label in edges:
        if label % 2 == 1:
            a, b = find(index[u]), find(index[v])
            if a != b:
                parent[max(a, b)] = min(a, b)
    roots = sorted({find(i) for i in range(len(vertices))})
    while True:
        value_of = {r: rng.choice(values) for r in roots}
        out = {v: value_of[find(index[v])] for v in vertices}
        if any(out[v] for v in vertices):
            return out


def char_spec(char, vertices) -> str:
    """The inline ``name=value,...`` syntax, zero entries omitted."""
    parts = [f"{v}={char[v]}" for v in vertices if char[v] != 0]
    return ",".join(parts)


# ---------------------------------------------------------------------------
# bipartite forests


def random_forest(rng, n_left: int, n_right: int, labels=(4, 6, 8)):
    """A bipartite forest on the given side sizes and an integral character
    with opposite values across every edge.

    Edges are drawn over shuffled cross pairs, each kept with probability
    0.6 when it joins two different trees, so shapes range from a spanning
    tree to a single edge.  At least one edge is always present.
    Returns (left, right, edges, {vertex: int})."""
    left = tuple(f"v{i}" for i in range(n_left))
    right = tuple(f"w{i}" for i in range(n_right))
    names = left + right
    pairs = [(a, b) for a in left for b in right]
    rng.shuffle(pairs)
    parent = {x: x for x in names}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for k, (a, b) in enumerate(pairs):
        if k == 0 or rng.random() < 0.6:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                edges.append((a, b, rng.choice(labels)))
    adjacency = {x: [] for x in names}
    for a, b, _ in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    values = {}
    for start in names:
        if start in values:
            continue
        values[start] = rng.choice((1, 2, 3, -1, -2, -3))
        stack = [start]
        while stack:
            cur = stack.pop()
            for nbr in adjacency[cur]:
                if nbr not in values:
                    values[nbr] = -values[cur]
                    stack.append(nbr)
    return left, right, tuple(edges), values


def forest_graph_text(left, right, edges, values) -> str:
    """The forest as an ``.artin`` graph with its character, for kt-certify:
    the forest edges are the dead cross edges, and each side is chained by
    label-2 edges so the living subgraph splits exactly along the sides."""
    vertices = left + right
    chain = [(side[i], side[i + 1], 2) for side in (left, right) for i in range(len(side) - 1)]
    return graph_text(vertices, tuple(edges) + tuple(chain), values)


# ---------------------------------------------------------------------------
# polynomial systems


def sparse_ideal(rng, nvars: int, ngens: int, nterms: int, maxdeg: int, with_one: bool):
    """Seeded generators of ``nterms`` terms each in x0..x{nvars-1}: random
    monomials of degree at most ``maxdeg`` per variable with coefficients in
    {-2, -1, 1, 2}; with ``with_one`` the first term is the constant 1.
    Dense random ideals make Buchberger blow up, so the benchmark keeps to
    two or three terms.  Returns (variables, [text])."""
    variables = tuple(f"x{i}" for i in range(nvars))
    gens = []
    for _ in range(ngens):
        terms = [((0,) * nvars, 1)] if with_one else []
        while len(terms) < nterms:
            exps = tuple(rng.randint(0, maxdeg) for _ in range(nvars))
            if all(e != exps for e, _ in terms):
                terms.append((exps, rng.choice((-2, -1, 1, 2))))
        gens.append(poly_text(variables, terms))
    return variables, gens


def cycle_sum_system(n: int, label: int):
    """1 + (x_i x_{i+1}) + ... + (x_i x_{i+1})^(m-1), m = label/2, for each
    edge of the n-cycle: the Laurent system a label-``label`` cycle gives."""
    variables = tuple(f"x{i}" for i in range(n))
    m = label // 2
    gens = []
    for i in range(n):
        a, b = variables[i], variables[(i + 1) % n]
        gens.append("+".join(["1"] + [f"({a}*{b})^{k}" for k in range(1, m)]))
    return variables, gens


def poly_text(variables, terms) -> str:
    """Polynomial text from (exponent tuple, integer coefficient) terms."""
    chunks = []
    for exps, coeff in terms:
        mono = "*".join(v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e)
        body = mono if mono and abs(coeff) == 1 else (f"{abs(coeff)}*{mono}" if mono else str(abs(coeff)))
        sign = "-" if coeff < 0 else "+"
        chunks.append((sign, body))
    out = ("-" if chunks[0][0] == "-" else "") + chunks[0][1]
    for sign, body in chunks[1:]:
        out += f" {sign} {body}"
    return out


def random_word(rng, generators, max_len: int) -> str:
    """A word such as ``a^2 b^-1 a`` for the fox subcommand."""
    letters = []
    for _ in range(rng.randint(1, max_len)):
        exp = rng.choice((1, 1, -1, 2, -2))
        g = rng.choice(generators)
        letters.append(g if exp == 1 else f"{g}^{exp}")
    return " ".join(letters)


# ---------------------------------------------------------------------------
# recorded pools


def pool_path(name: str) -> str:
    return os.path.join(DATA_DIR, f"{name}.json")


def load_pool(name: str) -> dict:
    with open(pool_path(name), encoding="utf-8") as fh:
        return json.load(fh)


def interleave(rng, first, second):
    """Shuffle both job lists and merge them evenly by relative position,
    so each stretch of the timed phase holds both kinds in proportion."""
    a, b = list(first), list(second)
    rng.shuffle(a)
    rng.shuffle(b)
    keyed = [((i + 0.5) / len(a), 0, job) for i, job in enumerate(a)]
    keyed += [((i + 0.5) / len(b), 1, job) for i, job in enumerate(b)]
    keyed.sort(key=lambda t: (t[0], t[1]))
    return [job for _, _, job in keyed]
