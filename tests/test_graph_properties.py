"""Property tests for the block decomposition, drawn by the hypothesis
library: the blocks partition the edges, and each block is a single edge
or stays connected after removing any one of its vertices."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from artin_sigma import LabeledGraph, blocks  # noqa: E402
from oracles import bfs_connected  # noqa: E402


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
