"""Finite labeled simplicial graphs and the structural tests built on them.

A graph is given by ordered vertices and edges carrying integer labels >= 2.
The text format (conventionally ``.artin``) is line based::

    # comment
    v a          # declare vertex "a"
    v b
    e a b 4      # edge between declared vertices, label 4
    c a 1/2      # optional character value, consumed by the character parser

Blank lines are ignored; endpoints must be declared before use.

>>> g = parse_graph("v a\\nv b\\ne a b 4\\n")
>>> g.vertices
('a', 'b')
>>> cycle_rank(g)
0
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import InputError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


@dataclass(frozen=True)
class LabeledGraph:
    vertices: tuple
    edges: tuple

    def __post_init__(self):
        vertices = tuple(self.vertices)
        seen = set()
        for v in vertices:
            if not isinstance(v, str) or not _NAME_RE.match(v):
                raise InputError(f"bad vertex name {v!r}")
            if v in seen:
                raise InputError(f"duplicate vertex {v!r}")
            seen.add(v)
        index = {v: i for i, v in enumerate(vertices)}
        norm = []
        pairs = set()
        for edge in self.edges:
            try:
                u, v, label = edge
            except (TypeError, ValueError):
                raise InputError(f"bad edge {edge!r}") from None
            if u not in index or v not in index:
                raise InputError(f"edge ({u!r}, {v!r}) uses an undeclared vertex")
            if u == v:
                raise InputError(f"loop at {u!r} is not allowed")
            if not isinstance(label, int) or label < 2:
                raise InputError(f"edge label must be an integer >= 2, got {label!r}")
            if index[u] > index[v]:
                u, v = v, u
            if (u, v) in pairs:
                raise InputError(f"duplicate edge ({u!r}, {v!r})")
            pairs.add((u, v))
            norm.append((u, v, label))
        norm.sort(key=lambda e: (index[e[0]], index[e[1]]))
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", tuple(norm))

    @cached_property
    def index(self) -> dict:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for u, v, _ in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(ns) for v, ns in adj.items()}

    @cached_property
    def _labels(self) -> dict:
        return {(u, v): l for u, v, l in self.edges}

    def neighbors(self, v: str) -> tuple:
        try:
            return self.adjacency[v]
        except KeyError:
            raise InputError(f"unknown vertex {v!r}") from None

    def has_edge(self, u: str, v: str) -> bool:
        if u not in self.index or v not in self.index:
            raise InputError("unknown vertex")
        if self.index[u] > self.index[v]:
            u, v = v, u
        return (u, v) in self._labels

    def label(self, u: str, v: str) -> int:
        if u not in self.index or v not in self.index:
            raise InputError("unknown vertex")
        if self.index[u] > self.index[v]:
            u, v = v, u
        try:
            return self._labels[(u, v)]
        except KeyError:
            raise InputError(f"no edge between {u!r} and {v!r}") from None


def parse_artin(text: str):
    """Parse the line format; returns (graph, character-spec-or-None).

    Character lines ``c name value`` are collected into the inline spec
    syntax ``name=value,...`` understood by the character parser.
    """
    vertices = []
    edges = []
    char_parts = []
    declared = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kind = parts[0]
        if kind == "v":
            if len(parts) != 2:
                raise InputError(f"line {lineno}: vertex line needs exactly one name")
            name = parts[1]
            if not _NAME_RE.match(name):
                raise InputError(f"line {lineno}: bad vertex name {name!r}")
            if name in declared:
                raise InputError(f"line {lineno}: duplicate vertex {name!r}")
            declared.add(name)
            vertices.append(name)
        elif kind == "e":
            if len(parts) != 4:
                raise InputError(f"line {lineno}: edge line needs two names and a label")
            u, v, label_text = parts[1], parts[2], parts[3]
            for name in (u, v):
                if name not in declared:
                    raise InputError(f"line {lineno}: vertex {name!r} used before declaration")
            if not (label_text.isascii() and label_text.isdigit()):
                raise InputError(f"line {lineno}: bad label {label_text!r}")
            label = int(label_text)
            if label < 2:
                raise InputError(f"line {lineno}: label must be >= 2")
            edges.append((u, v, label))
        elif kind == "c":
            if len(parts) != 3:
                raise InputError(f"line {lineno}: character line needs a name and a value")
            if parts[1] not in declared:
                raise InputError(f"line {lineno}: vertex {parts[1]!r} used before declaration")
            char_parts.append(f"{parts[1]}={parts[2]}")
        else:
            raise InputError(f"line {lineno}: unknown directive {kind!r}")
    graph = LabeledGraph(tuple(vertices), tuple(edges))
    return graph, (",".join(char_parts) if char_parts else None)


def parse_graph(text: str) -> LabeledGraph:
    return parse_artin(text)[0]


def full_subgraph(graph: LabeledGraph, vertex_set) -> LabeledGraph:
    """Induced subgraph on the given vertices, keeping declaration order."""
    wanted = set(vertex_set)
    unknown = wanted - set(graph.vertices)
    if unknown:
        raise InputError(f"unknown vertices {sorted(unknown)}")
    vertices = tuple(v for v in graph.vertices if v in wanted)
    edges = tuple(e for e in graph.edges if e[0] in wanted and e[1] in wanted)
    return LabeledGraph(vertices, edges)


def is_connected(graph: LabeledGraph) -> bool:
    """At most one component; the empty graph counts as connected."""
    return len(connected_components(graph)) <= 1


def is_dominant(graph: LabeledGraph, vertex_set) -> bool:
    """True iff every vertex outside the set has a neighbor inside it.

    Depends only on the vertex set, never on edges of any subgraph spanned
    by it.
    """
    inside = set(vertex_set)
    unknown = inside - set(graph.vertices)
    if unknown:
        raise InputError(f"unknown vertices {sorted(unknown)}")
    for v in graph.vertices:
        if v in inside:
            continue
        if not any(w in inside for w in graph.adjacency[v]):
            return False
    return True


def connected_components(graph: LabeledGraph) -> list:
    """Components in order of their first vertex, each in declaration order."""
    adj = graph.adjacency
    comp_of: dict = {}
    comps = []
    for start in graph.vertices:
        if start in comp_of:
            continue
        comp_of[start] = len(comps)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp_of:
                    comp_of[w] = len(comps)
                    stack.append(w)
        comps.append([])
    for v in graph.vertices:
        comps[comp_of[v]].append(v)
    return [tuple(c) for c in comps]


def cycle_rank(graph: LabeledGraph) -> int:
    """First Betti number |E| - |V| + number of components."""
    return len(graph.edges) - len(graph.vertices) + len(connected_components(graph))


@dataclass(frozen=True)
class Block:
    """One biconnected component: its vertex set and its edge set."""

    vertices: tuple
    edges: tuple


def blocks(graph: LabeledGraph) -> list:
    """Biconnected components in canonical order; they partition the edges.

    Isolated vertices span no edges and therefore appear in no block.  An
    iterative depth-first search keeps the tree and back edges on a stack
    and pops one block whenever a child's low point does not reach above
    its parent (Hopcroft and Tarjan, 1973).
    """
    adj = graph.adjacency
    idx = graph.index
    disc: dict = {}
    low: dict = {}
    edge_stack = []
    comps = []
    for root in graph.vertices:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        stack = [(root, None, iter(adj[root]))]
        while stack:
            v, parent, nbrs = stack[-1]
            for w in nbrs:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    edge_stack.append((v, w))
                    stack.append((w, v, iter(adj[w])))
                    break
                if w != parent and disc[w] < disc[v]:
                    low[v] = min(low[v], disc[w])
                    edge_stack.append((v, w))
            else:
                stack.pop()
                if parent is None:
                    continue
                low[parent] = min(low[parent], low[v])
                if low[v] >= disc[parent]:
                    comp = []
                    while not comp or comp[-1] != (parent, v):
                        comp.append(edge_stack.pop())
                    comps.append(comp)
    out = []
    for comp in comps:
        pairs = sorted(((u, v) if idx[u] < idx[v] else (v, u) for u, v in comp),
                       key=lambda e: (idx[e[0]], idx[e[1]]))
        verts = sorted({x for e in pairs for x in e}, key=idx.__getitem__)
        edges = tuple((u, v, graph._labels[(u, v)]) for u, v in pairs)
        out.append(Block(tuple(verts), edges))
    out.sort(key=lambda b: tuple(idx[v] for v in b.vertices) + (len(b.edges),))
    return out


def all_labels_even(graph: LabeledGraph) -> bool:
    return all(label % 2 == 0 for _, _, label in graph.edges)


def high_label_subgraph(graph: LabeledGraph) -> LabeledGraph:
    """Subgraph spanned by edges with label > 2 (all vertices kept)."""
    return LabeledGraph(graph.vertices, tuple(e for e in graph.edges if e[2] > 2))


SIMPLE_CYCLE = "simple-cycle"
STRICT = "strict"
HYPOTHESIS_MODES = (SIMPLE_CYCLE, STRICT)


def _failing_blocks(graph: LabeledGraph, mode: str) -> list:
    """Blocks of the label>2 subgraph that contain a qualifying cycle.

    Every simple cycle lies inside one block, and a block with more than one
    edge is 2-connected, so it has a cycle; it has an even one unless it is
    itself an odd cycle.
    """
    if mode not in HYPOTHESIS_MODES:
        raise InputError(f"unknown hypothesis mode {mode!r}")
    out = []
    for block in blocks(high_label_subgraph(graph)):
        if len(block.edges) == 1:
            continue
        odd_cycle = len(block.edges) == len(block.vertices) and len(block.vertices) % 2 == 1
        if mode == SIMPLE_CYCLE and odd_cycle:
            continue
        out.append(block)
    return out


@lru_cache(maxsize=4096)
def check_hypothesis(graph: LabeledGraph, mode: str = SIMPLE_CYCLE) -> bool:
    """Structural test on the subgraph H spanned by label>2 edges.

    ``simple-cycle``: no simple cycle of even length exists in H, decided by
    the block criterion (every block is a single edge or an odd cycle).
    ``strict``: H is a forest (every block is a single edge).  strict implies
    simple-cycle.
    """
    return not _failing_blocks(graph, mode)


def _cycle_minima(adj: dict, idx: dict) -> list:
    """The vertices that are the smallest vertex of some cycle, by index.

    Vertices join a union-find from the highest index down; a vertex closes
    a cycle above itself exactly when two of its higher neighbours are
    already connected.
    """
    root: dict = {}

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    out = []
    for v in sorted(adj, key=idx.__getitem__, reverse=True):
        parts = [find(w) for w in adj[v] if idx[w] > idx[v]]
        if len(set(parts)) < len(parts):
            out.append(v)
        root[v] = v
        for r in parts:
            root[r] = v
    return out[::-1]


def _reach(adj: dict, start, idx: dict):
    """Breadth-first search from ``start`` through higher-index vertices.

    Returns the distances and the length of the shortest cycle through
    ``start`` in that region (None if there is none): an edge joining the
    subtrees of two different neighbours of ``start`` closes a cycle of
    length dist + dist + 1, and the shortest cycle has such an edge.
    """
    dist = {start: 0}
    branch = {}
    frontier = [start]
    shortest = None
    while frontier:
        nxt = []
        for v in frontier:
            for w in adj[v]:
                if idx[w] <= idx[start]:
                    continue
                if w not in dist:
                    dist[w] = dist[v] + 1
                    branch[w] = w if v == start else branch[v]
                    nxt.append(w)
                elif v != start and branch[w] != branch[v]:
                    length = dist[v] + dist[w] + 1
                    if shortest is None or length < shortest:
                        shortest = length
        frontier = nxt
    return dist, shortest


def _closed_path(adj: dict, start, dist: dict, length: int, idx: dict):
    """The first cycle of exactly ``length`` vertices through ``start`` whose
    other vertices have higher index, or None.

    Neighbours are tried in index order, so the first closed path is the
    least index list.  It is in canonical rotation: ``start`` is its smallest
    vertex, and its second vertex is smaller than its last, because its
    reverse is a later path.  A vertex too far from ``start`` to close the
    cycle in time is not entered.
    """
    path = [start]
    on_path = {start}
    frames = [iter(adj[start])]
    while frames:
        if len(path) == length:
            if start in adj[path[-1]]:
                return tuple(path)
            nbrs = ()
        else:
            nbrs = frames[-1]
        for w in nbrs:
            if idx[w] > idx[start] and w not in on_path and dist[w] <= length - len(path):
                path.append(w)
                on_path.add(w)
                frames.append(iter(adj[w]))
                break
        else:
            frames.pop()
            on_path.discard(path.pop())
    return None


def hypothesis_witness(graph: LabeledGraph, mode: str = SIMPLE_CYCLE):
    """A cycle demonstrating failure of check_hypothesis, None when it holds.

    For ``simple-cycle`` the witness is an even simple cycle in the label>2
    subgraph; for ``strict`` it is any simple cycle there.  Deterministic:
    the shortest qualifying cycle, and among those the least index list in
    canonical rotation (smallest vertex first, smaller neighbour second).

    Only the edges of failing blocks are searched: every simple cycle lies
    in one block.  Lengths are tried in increasing order, from the shortest
    cycle through any start vertex, each by a search bounded by that length.
    """
    failing = _failing_blocks(graph, mode)
    if not failing:
        return None
    idx = graph.index
    adj: dict = {}
    for block in failing:
        for u, v, _ in block.edges:
            adj.setdefault(u, []).append(v)
            adj.setdefault(v, []).append(u)
    for nbrs in adj.values():
        nbrs.sort(key=idx.__getitem__)
    searches = [(start, *_reach(adj, start, idx)) for start in _cycle_minima(adj, idx)]
    low = min(shortest for _, _, shortest in searches)
    if mode == SIMPLE_CYCLE:
        lengths = range(max(4, low + low % 2), len(adj) + 1, 2)
    else:
        lengths = range(low, len(adj) + 1)
    for length in lengths:
        for start, dist, shortest in searches:
            if shortest <= length:
                cycle = _closed_path(adj, start, dist, length, idx)
                if cycle:
                    return cycle
    return None
