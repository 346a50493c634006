"""Property tests for the graph structure, drawn by the hypothesis library:
the blocks partition the edges, and each block is a single edge or stays
connected after removing any one of its vertices; components, connectivity,
cycle rank and dominance agree with plain-Python definitions; a character's
zero and dead-edge masks, and what reads them, agree with name-based ones."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from artin_sigma import (  # noqa: E402
    LabeledGraph,
    blocks,
    character,
    complement_polyhedron,
    connected_components,
    cycle_rank,
    dead_edges,
    is_connected,
    is_dominant,
    living_subgraph,
    polyhedron_contains,
)
from artin_sigma.graphs import members  # noqa: E402
from oracles import bfs_connected, forest_size  # noqa: E402
from oracles import connected_components as oracle_components  # noqa: E402
from oracles import dead_edges as oracle_dead_edges  # noqa: E402


@st.composite
def labeled_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=8))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = [(names[i], names[j]) for i in range(n) for j in range(i + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    edges = tuple((u, v, draw(st.integers(min_value=2, max_value=6))) for u, v in chosen)
    return LabeledGraph(tuple(names), edges)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(labeled_graphs())
def test_blocks_partition_edges_and_have_no_cut_vertex(graph):
    found = blocks(graph)
    edges = [e for b in found for e in b.edges]
    assert sorted(edges) == sorted(graph.edges)
    for block in found:
        assert set(block.vertices) == {x for u, v, _ in block.edges for x in (u, v)}
        if len(block.edges) == 1:
            continue
        for cut in block.vertices:
            rest = [v for v in block.vertices if v != cut]
            pairs = [(u, v) for u, v, _ in block.edges if cut not in (u, v)]
            assert bfs_connected(rest, pairs), (graph, block, cut)


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(labeled_graphs(), st.data())
def test_components_connectivity_rank_and_dominance_match_definitions(graph, data):
    pairs = [(u, v) for u, v, _ in graph.edges]
    assert connected_components(graph) == oracle_components(graph.vertices, pairs)
    assert is_connected(graph) == bfs_connected(graph.vertices, pairs)
    # the edges left out of a spanning forest
    assert cycle_rank(graph) == len(pairs) - forest_size(pairs)
    inside = data.draw(st.sets(st.sampled_from(graph.vertices)))
    neighbours = {v: {w for pair in pairs if v in pair for w in pair} - {v}
                  for v in graph.vertices}
    dominated = all(v in inside or neighbours[v] & inside for v in graph.vertices)
    assert is_dominant(graph, inside) == dominated, (graph, inside)


# zero, negative and rational values, each with its opposite
VALUES = sorted({Fraction(p, q) for p in range(-2, 3) for q in (1, 2)})


@st.composite
def characters(draw):
    """A graph and name-keyed character values, equal across odd edges."""
    graph = draw(labeled_graphs())
    odd = [(u, v) for u, v, label in graph.edges if label % 2]
    values = {}
    for cls in oracle_components(graph.vertices, odd):
        values.update(dict.fromkeys(cls, draw(st.sampled_from(VALUES))))
    hypothesis.assume(any(values.values()))
    return graph, values


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(characters())
def test_character_masks_and_their_readers_match_definitions(drawn):
    graph, values = drawn
    chi = character(graph, values)
    zeros = {v for v in graph.vertices if values[v] == 0}
    dead = tuple(oracle_dead_edges(graph.edges, values))
    assert members(chi.zero, graph.vertices) == tuple(v for v in graph.vertices if v in zeros)
    assert members(chi.dead, graph.edges) == dead
    assert dead_edges(chi) == dead
    living = living_subgraph(chi)
    assert living.vertices == tuple(v for v in graph.vertices if v not in zeros)
    assert living.edges == tuple(e for e in graph.edges
                                 if zeros.isdisjoint(e[:2]) and e not in dead)
    # a piece holds chi when its zero set lies in the zeros and its cut
    # edges among the dead ones
    dead_pairs = {e[:2] for e in dead}
    poly = complement_polyhedron(graph)
    held = [set(p.zero_set) <= zeros and set(p.cut_edges) <= dead_pairs for p in poly.pieces]
    assert [p.contains(chi) for p in poly.pieces] == held, (graph, values)
    assert polyhedron_contains(poly, chi) == any(held)
    fresh = character(graph, values)
    assert chi == fresh and hash(chi) == hash(fresh)
