"""Property tests for the graph structure, drawn by the hypothesis library:
the blocks partition the edges, and each block is a single edge or stays
connected after removing any one of its vertices; components, connectivity,
cycle rank and dominance agree with plain-Python definitions."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from artin_sigma import (  # noqa: E402
    LabeledGraph,
    blocks,
    connected_components,
    cycle_rank,
    is_connected,
    is_dominant,
)
from oracles import bfs_connected, forest_size  # noqa: E402
from oracles import connected_components as oracle_components  # noqa: E402


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
