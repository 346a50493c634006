import random
import time

import pytest

from artin_sigma import (
    InputError,
    LabeledGraph,
    blocks,
    check_hypothesis,
    connected_components,
    cycle_rank,
    full_subgraph,
    high_label_subgraph,
    hypothesis_witness,
    is_connected,
    is_dominant,
    parse_artin,
    parse_graph,
)
from conftest import F1_TEXT, random_labeled_graph
from oracles import all_simple_cycles, bfs_connected, has_any_simple_cycle, has_even_simple_cycle


def test_parse_minimal(f3):
    assert f3.vertices == ("a", "b")
    assert f3.edges == (("a", "b", 4),)
    assert f3.label("b", "a") == 4


def test_parse_f1_shape(f1):
    assert f1.vertices == ("v", "s", "u", "w")
    assert len(f1.edges) == 6
    assert sorted(label for _, _, label in f1.edges) == [2, 2, 4, 4, 4, 6]
    assert f1.label("v", "s") == 2
    assert f1.label("s", "u") == 6


def test_parse_character_lines():
    graph, spec = parse_artin("v a\nv b\ne a b 4\nc a 1\nc b -1/2\n")
    assert graph.vertices == ("a", "b")
    assert spec == "a=1,b=-1/2"


def test_parse_comments_and_blanks():
    g = parse_graph("# heading\n\nv a\n v b # same line\ne a b 2\n")
    assert g.vertices == ("a", "b")


@pytest.mark.parametrize(
    "text",
    [
        "v a\ne a a 4\n",          # loop
        "v a\nv a\n",              # duplicate vertex
        "v a\nv b\ne a b 1\n",     # label < 2
        "v a\ne a b 4\n",          # undeclared endpoint
        "v a\nv b\ne a b 4\ne b a 6\n",  # duplicate edge
        "v a\nx a\n",              # unknown directive
        "v 1bad\n",                # bad name
    ],
)
def test_parse_rejects(text):
    with pytest.raises(InputError):
        parse_graph(text)


def test_parse_error_reports_line():
    with pytest.raises(InputError, match="line 3"):
        parse_graph("v a\nv b\ne a b 1\n")


def test_edges_normalized_by_declaration_order():
    g = parse_graph("v b\nv a\ne a b 4\n")
    # endpoints stored with the earlier-declared vertex first
    assert g.edges == (("b", "a", 4),)


def test_full_subgraph(f1, f5):
    assert full_subgraph(f1, {"v", "s", "u", "w"}) == f1
    sub = full_subgraph(f1, {"v", "s"})
    assert sub.vertices == ("v", "s")
    assert sub.edges == (("v", "s", 2),)
    empty_pair = full_subgraph(f5, {"a", "c"})
    assert empty_pair.edges == ()
    with pytest.raises(InputError):
        full_subgraph(f1, {"nope"})


def test_full_subgraph_idempotent(f1):
    sub = full_subgraph(f1, {"v", "u", "w"})
    assert full_subgraph(sub, {"v", "u", "w"}) == sub


def test_is_connected(f1, f3):
    assert is_connected(f1)
    assert is_connected(f3)
    assert is_connected(LabeledGraph((), ()))
    assert is_connected(LabeledGraph(("a",), ()))
    assert not is_connected(LabeledGraph(("a", "b"), ()))


def test_is_dominant(f5):
    assert is_dominant(f5, {"b"})
    assert not is_dominant(f5, {"a"})
    assert is_dominant(f5, {"a", "b", "c"})
    with pytest.raises(InputError):
        is_dominant(f5, {"z"})


def test_connected_components(f5):
    pair = full_subgraph(f5, {"a", "c"})
    assert connected_components(pair) == [("a",), ("c",)]
    assert connected_components(f5) == [("a", "b", "c")]


def test_cycle_rank(f1, f2, f5):
    assert cycle_rank(f5) == 0
    assert cycle_rank(f2) == 1
    assert cycle_rank(f1) == 3


def test_blocks(f1, f4, f5):
    bs = blocks(f5)
    assert len(bs) == 2
    assert all(len(b.edges) == 1 for b in bs)
    bs4 = blocks(f4)
    assert len(bs4) == 1
    assert len(bs4[0].edges) == 4
    bs1 = blocks(f1)
    assert len(bs1) == 1
    assert len(bs1[0].edges) == 6


def test_blocks_partition_edges(f1, f4, f5):
    for g in (f1, f4, f5):
        seen = []
        for b in blocks(g):
            seen.extend(b.edges)
        assert sorted(seen) == sorted(g.edges)


def test_high_label_subgraph(f1):
    high = high_label_subgraph(f1)
    assert high.vertices == f1.vertices
    assert sorted(label for _, _, label in high.edges) == [4, 4, 4, 6]


def test_check_hypothesis_fixtures(f1, f4, f5):
    # F4: the label>2 subgraph is an even 4-cycle
    assert not check_hypothesis(f4, "simple-cycle")
    assert not check_hypothesis(f4, "strict")
    # F5: a path
    assert check_hypothesis(f5, "simple-cycle")
    assert check_hypothesis(f5, "strict")
    # F1: contains the even cycle u-v-w-s
    assert not check_hypothesis(f1, "simple-cycle")
    # odd triangle: fine for simple-cycle, not for strict
    tri = parse_graph("v a\nv b\nv c\ne a b 4\ne b c 4\ne c a 4\n")
    assert check_hypothesis(tri, "simple-cycle")
    assert not check_hypothesis(tri, "strict")


def test_check_hypothesis_bad_mode(f5):
    with pytest.raises(InputError):
        check_hypothesis(f5, "loose")


def test_hypothesis_witness(f1, f4, f5):
    assert hypothesis_witness(f5) is None
    w = hypothesis_witness(f4)
    assert w == ("a", "b", "c", "d")
    w1 = hypothesis_witness(f1)
    assert len(w1) == 4 and len(set(w1)) == 4
    # witness really is a cycle of even length in the label>2 subgraph
    high = high_label_subgraph(f1)
    for i, x in enumerate(w1):
        assert high.has_edge(x, w1[(i + 1) % len(w1)])


def test_hypothesis_vs_bruteforce_random():
    rng = random.Random(20240817)
    for _ in range(300):
        g = random_labeled_graph(rng, max_vertices=8)
        high = high_label_subgraph(g)
        pairs = [(u, v) for u, v, _ in high.edges]
        expect_simple = not has_even_simple_cycle(high.vertices, pairs)
        expect_strict = not has_any_simple_cycle(high.vertices, pairs)
        assert check_hypothesis(g, "simple-cycle") == expect_simple
        assert check_hypothesis(g, "strict") == expect_strict
        if expect_strict:
            assert check_hypothesis(g, "simple-cycle")


def test_is_connected_vs_bruteforce_random():
    rng = random.Random(7)
    for _ in range(200):
        g = random_labeled_graph(rng, max_vertices=7)
        pairs = [(u, v) for u, v, _ in g.edges]
        assert is_connected(g) == bfs_connected(g.vertices, pairs)


def test_f1_text_used_by_fixture():
    g = parse_graph(F1_TEXT)
    assert g.label("u", "v") == 4 and g.label("u", "w") == 2


def _shuffled_graph(rng, max_vertices=8):
    """A random labeled graph whose declaration order is not its name order."""
    g = random_labeled_graph(rng, max_vertices=max_vertices, p=rng.choice([0.3, 0.5, 0.8]))
    order = list(g.vertices)
    rng.shuffle(order)
    return LabeledGraph(tuple(order), g.edges)


def _expected_witness(graph, mode, cycles):
    """The shortest qualifying cycle with the least index list."""
    idx = graph.index
    keep = [c for c in cycles if mode == "strict" or len(c) % 2 == 0]
    if not keep:
        return None
    return tuple(min(keep, key=lambda c: (len(c), [idx[v] for v in c])))


def test_blocks_and_witness_vs_oracle():
    # Two distinct edges share a block exactly when some simple cycle
    # passes through both.
    rng = random.Random(4242)
    for _ in range(300):
        g = _shuffled_graph(rng)
        pairs = [(u, v) for u, v, _ in g.edges]
        on_cycle = [{frozenset((c[i - 1], c[i])) for i in range(len(c))}
                    for c in all_simple_cycles(g.vertices, pairs)]
        found = blocks(g)
        block_of = {}
        for n, block in enumerate(found):
            for u, v, label in block.edges:
                assert label == g.label(u, v)
                block_of[frozenset((u, v))] = n
        assert set(block_of) == set(map(frozenset, pairs))
        assert sum(len(b.edges) for b in found) == len(pairs)
        for e in block_of:
            for f in block_of:
                if e != f:
                    together = any(e in cyc and f in cyc for cyc in on_cycle)
                    assert (block_of[e] == block_of[f]) == together, (g, e, f)
        high = high_label_subgraph(g)
        high_cycles = all_simple_cycles(high.vertices, [(u, v) for u, v, _ in high.edges])
        # the oracle lists each cycle from its smallest vertex in declaration
        # order, second vertex before the last: the canonical rotation
        for mode in ("simple-cycle", "strict"):
            assert hypothesis_witness(g, mode) == _expected_witness(g, mode, high_cycles), (g, mode)


def test_blocks_and_witness_vs_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(77)
    for _ in range(300):
        g = _shuffled_graph(rng)
        ng = nx.Graph()
        ng.add_nodes_from(g.vertices)
        ng.add_edges_from((u, v) for u, v, _ in g.edges)
        expected = sorted(sorted(tuple(sorted(e)) for e in comp)
                          for comp in nx.biconnected_component_edges(ng))
        got = sorted(sorted(tuple(sorted((u, v))) for u, v, _ in b.edges) for b in blocks(g))
        assert got == expected
        high = high_label_subgraph(g)
        nh = nx.Graph()
        nh.add_nodes_from(high.vertices)
        nh.add_edges_from((u, v) for u, v, _ in high.edges)
        idx = g.index
        canonical = []
        for c in nx.simple_cycles(nh):
            if len(c) < 3:
                continue
            k = len(c)
            start = min(range(k), key=lambda i: idx[c[i]])
            fwd = [c[(start + i) % k] for i in range(k)]
            canonical.append(min(fwd, [fwd[0]] + fwd[:0:-1], key=lambda p: [idx[v] for v in p]))
        for mode in ("simple-cycle", "strict"):
            assert hypothesis_witness(g, mode) == _expected_witness(g, mode, canonical), (g, mode)


def test_witness_prefers_a_shorter_cycle_in_a_later_block():
    # a hexagon on the first-declared vertices, then a square sharing f
    hexagon = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "f"), ("f", "a")]
    square = [("f", "g"), ("g", "h"), ("h", "i"), ("i", "f")]
    g = LabeledGraph(tuple("abcdefghi"), tuple((u, v, 4) for u, v in hexagon + square))
    assert [len(b.edges) for b in blocks(g)] == [6, 4]
    for mode in ("simple-cycle", "strict"):
        assert hypothesis_witness(g, mode) == ("f", "g", "h", "i")


def test_witness_at_a_cut_vertex_takes_the_least_cycle():
    # the block (a, b, e, f, g) sorts before the triangle (a, c, d), yet
    # (a, c, d) is the least triangle through the shared vertex a
    edges = [("a", "b"), ("b", "e"), ("e", "f"), ("f", "a"), ("f", "g"), ("g", "a"),
             ("a", "c"), ("c", "d"), ("d", "a")]
    g = LabeledGraph(tuple("abcdefg"), tuple((u, v, 4) for u, v in edges))
    assert [b.vertices for b in blocks(g)] == [tuple("abefg"), tuple("acd")]
    assert hypothesis_witness(g, "strict") == ("a", "c", "d")
    assert hypothesis_witness(g, "simple-cycle") == ("a", "b", "e", "f")


@pytest.mark.parametrize(
    "mode, expected", [("simple-cycle", ("v0", "v1", "v2", "v3")), ("strict", ("v0", "v1", "v2"))]
)
def test_witness_on_complete_graph_is_fast(mode, expected):
    names = tuple(f"v{i}" for i in range(12))
    k12 = LabeledGraph(names, tuple((a, b, 4) for i, a in enumerate(names) for b in names[i + 1:]))
    start = time.perf_counter()
    assert hypothesis_witness(k12, mode) == expected
    assert time.perf_counter() - start < 5.0


def test_has_edge_rejects_unknown_vertex(f3):
    assert f3.has_edge("b", "a")
    for u, v in (("a", "z"), ("z", "a"), ("y", "z")):
        with pytest.raises(InputError, match="unknown vertex"):
            f3.has_edge(u, v)


@pytest.mark.parametrize("label", ["+4", "1_0", "٤", "４", "4.0", "0x4"])
def test_parse_artin_accepts_ascii_decimal_labels_only(label):
    with pytest.raises(InputError, match=r"line 3: bad label"):
        parse_artin(f"v a\nv b\ne a b {label}\n")
    assert parse_artin("v a\nv b\ne a b 04\n")[0].edges == (("a", "b", 4),)
