import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations

import pytest

import artin_sigma.polyhedron as polyhedron
from artin_sigma import (
    InputError,
    LabeledGraph,
    SubSphere,
    character,
    complement_polyhedron,
    decide_sigma1,
    disconnection_pieces,
    dominance_pieces,
    parse_graph,
    polyhedron_contains,
    polyhedron_from_json,
    subsphere_contained,
)
from artin_sigma.graphs import members
from artin_sigma.polyhedron import (
    MAX_POLYHEDRON_VERTICES,
    _cuts,
    _ends,
    _span,
    _spanned,
)
from conftest import random_character, random_even_graph, random_labeled_graph
from oracles import (
    complement_member_bruteforce,
    forest_size,
    fraction_rank,
    in_span,
    kept_by_local_rule,
    minimal_even_cuts,
)


def forms_as_rows(piece, graph):
    """The piece's derived forms as coefficient rows in vertex order."""
    rows = []
    for form in piece.forms:
        row = [Fraction(0)] * len(graph.vertices)
        for v in form:
            row[graph.index[v]] = Fraction(1)
        rows.append(row)
    return rows


def test_dominance_pieces_f3_empty(f3):
    assert dominance_pieces(f3) == []


def test_dominance_pieces_f5(f5):
    pieces = dominance_pieces(f5)
    assert len(pieces) == 2
    got = sorted(tuple(sorted({v for f in p.forms for v in f})) for p in pieces)
    assert got == [("a", "b"), ("b", "c")]


def test_dominance_pieces_complete_graph():
    g = parse_graph("v a\nv b\nv c\ne a b 2\ne b c 2\ne c a 2\n")
    assert dominance_pieces(g) == []


def test_disconnection_pieces_f3(f3):
    pieces = disconnection_pieces(f3)
    assert len(pieces) == 1
    piece = pieces[0]
    assert piece.forms == (("a", "b"),)
    assert piece.to_json_dict()["forms"] == [{"a": "1", "b": "1"}]
    assert piece.kind == "disconnection"
    assert piece.zero_set == ()
    assert piece.cut_edges == (("a", "b"),)


def test_complement_polyhedron_f3(f3):
    poly = complement_polyhedron(f3)
    assert len(poly.pieces) == 1
    chi = character(f3, {"a": 1, "b": -1})
    assert polyhedron_contains(poly, chi)
    assert not polyhedron_contains(poly, character(f3, {"a": 1, "b": 2}))


def test_complement_polyhedron_f5(f5):
    # three pieces: the two dead-edge conditions plus the zeroed cut vertex b
    # (zeroing b leaves {a, c} with no edges, already disconnected)
    poly = complement_polyhedron(f5)
    assert len(poly.pieces) == 3
    rendered = sorted(
        tuple(sorted(f.items())) for p in poly.pieces for f in p.to_json_dict()["forms"]
    )
    assert rendered == [
        (("a", "1"), ("b", "1")),
        (("b", "1"),),
        (("b", "1"), ("c", "1")),
    ]
    # the vertex-zeroing piece is what catches characters supported on {a, c}
    chi = character(f5, {"a": 1, "c": -1})
    assert decide_sigma1(chi).status == "out"
    assert polyhedron_contains(poly, chi)


def test_f5_dominance_pieces_are_pruned(f5):
    poly = complement_polyhedron(f5)
    for piece in poly.pieces:
        assert len(piece.forms) < 2


def test_every_dominance_piece_lies_inside_a_disconnection_piece(f1, f3, f4, f5):
    # the proof in complement_polyhedron's docstring: N[x] is strictly inside
    # the cut-free disconnection piece with Y1 = N(x)
    rng = random.Random(909)
    graphs = [f1, f3, f4, f5] + [random_labeled_graph(rng, max_vertices=7) for _ in range(200)]
    checked = 0
    for g in graphs:
        cut_free = {p.zero_set: p for p in disconnection_pieces(g) if not p.cut_edges}
        for d in dominance_pieces(g):
            zero_set = d.zero_set
            x = next(v for v in zero_set if set(zero_set) == {v, *g.adjacency[v]})
            c = cut_free[tuple(v for v in zero_set if v != x)]
            assert subsphere_contained(d, c) and not subsphere_contained(c, d), g
            checked += 1
    assert checked > 100


def test_complement_polyhedron_complete_right_angled():
    g = parse_graph("v a\nv b\nv c\ne a b 2\ne b c 2\ne c a 2\n")
    assert complement_polyhedron(g).pieces == ()


def test_f1_four_edge_cut_piece(f1):
    # zeroing no vertices, the only way to disconnect F1 is to cut all four
    # label>2 edges; that piece's solution set is the span condition
    # chi(u)+chi(v) = chi(v)+chi(w) = chi(w)+chi(s) = chi(s)+chi(u) = 0
    poly = complement_polyhedron(f1)
    empty_zero = [p for p in poly.pieces if p.zero_set == ()]
    assert len(empty_zero) == 1
    piece = empty_zero[0]
    assert piece.kind == "disconnection"
    assert len(piece.cut_edges) == 4
    rows = forms_as_rows(piece, f1)
    # solution space is the line through (1, 1, -1, -1) in (v, s, u, w) order;
    # the four forms span the same space as the three independent ones below
    assert fraction_rank(rows) == 3
    expect = [
        [1, 0, 1, 0],  # v + u
        [1, 0, 0, 1],  # v + w
        [0, 1, 0, 1],  # s + w
    ]
    assert fraction_rank(rows + expect) == 3
    for vec in expect:
        assert in_span(vec, rows)
    chi = character(f1, {"v": 1, "s": 1, "u": -1, "w": -1})
    assert piece.contains(chi)


def test_f1_membership_matches_conjectural_out(f1):
    poly = complement_polyhedron(f1)
    chi = character(f1, {"v": 1, "s": 1, "u": -1, "w": -1})
    assert polyhedron_contains(poly, chi)
    assert not polyhedron_contains(poly, character(f1, {"v": 1, "s": 1, "u": 1, "w": 1}))


def test_subsphere_containment(f5):
    # masks over (a, b, c) and over the edges ((a, b), (b, c))
    sa = SubSphere(f5, "dominance", 0b011, 0)
    sb = SubSphere(f5, "disconnection", 0, 0b01)
    assert (sb.kind, sb.zero_set, sb.cut_edges) == ("disconnection", (), (("a", "b"),))
    assert subsphere_contained(sa, sb)
    assert not subsphere_contained(sb, sa)
    assert subsphere_contained(sa, sa)


def _random_mask_piece(rng, g, p_unit, p_cut):
    """A piece with each vertex a unit vertex with probability ``p_unit``
    and each edge of ``g``, whatever its label, cut with probability
    ``p_cut``."""
    units = sum(1 << i for i in range(len(g.vertices)) if rng.random() < p_unit)
    cut = sum(1 << k for k in range(len(g.edges)) if rng.random() < p_cut)
    return SubSphere(g, "disconnection", units, cut)


def _cut_component(piece, v):
    """The vertices joined to v by the piece's cut edges."""
    comp, grew = {v}, True
    while grew:
        grew = False
        for x, y in piece.cut_edges:
            if (x in comp) != (y in comp):
                comp |= {x, y}
                grew = True
    return comp


def test_subsphere_contained_matches_oracle():
    rng = random.Random(31)
    names = ("t0", "t1", "t2")
    triangle = LabeledGraph(names, tuple((names[i], names[(i + 1) % 3], 4) for i in range(3)))
    outcomes = []
    full_by_odd_cycle = 0
    for trial in range(3000):
        g = triangle if trial % 10 == 0 else random_labeled_graph(rng, max_vertices=7)
        a = _random_mask_piece(rng, g, 0.15, 0.5)
        b = _random_mask_piece(rng, g, 1.5 / len(g.vertices), 1.5 / max(len(g.edges), 1))
        rows = forms_as_rows(a, g)
        expect = all(in_span(vec, rows) for vec in forms_as_rows(b, g))
        assert subsphere_contained(a, b) == expect, (g, a, b)
        outcomes.append(expect)
        full_by_odd_cycle += expect and any(
            not _cut_component(a, v) & set(a.zero_set) for v in b.zero_set)
    # both answers are common, so neither side is checked only vacuously
    assert 300 < sum(outcomes) < 2700
    # some unit vertex of b is full in a's span only through an odd cycle of
    # cut edges, with no unit vertex of a in its component
    assert full_by_odd_cycle > 50


def test_no_piece_contained_in_another(f1, f3, f4, f5):
    for g in (f1, f3, f4, f5):
        poly = complement_polyhedron(g)
        pieces = poly.pieces
        for i, a in enumerate(pieces):
            for j, b in enumerate(pieces):
                if i != j:
                    assert not subsphere_contained(a, b), (i, j)


def test_forms_have_small_integer_coefficients(f1, f4, f5):
    for g in (f1, f4, f5):
        for piece in complement_polyhedron(g).pieces:
            for form in piece.to_json_dict()["forms"]:
                assert all(c == "1" for c in form.values())
                if piece.kind == "dominance":
                    assert len(form) == 1
                else:
                    assert len(form) in (1, 2)


def test_membership_equals_bruteforce_random():
    rng = random.Random(60902)
    for _ in range(25):
        g = random_even_graph(rng, max_vertices=5)
        poly = complement_polyhedron(g)
        for _ in range(40):
            chi = random_character(rng, g)
            expect = complement_member_bruteforce(g.vertices, g.edges, chi.values)
            assert polyhedron_contains(poly, chi) == expect, (g, chi)


def test_membership_symmetry_random():
    rng = random.Random(8)
    for _ in range(10):
        g = random_even_graph(rng, max_vertices=5)
        poly = complement_polyhedron(g)
        for _ in range(20):
            chi = random_character(rng, g)
            assert polyhedron_contains(poly, chi) == polyhedron_contains(poly, chi.negate())


def test_carrier_mismatch(f3, f4, f5):
    poly = complement_polyhedron(f3)
    with pytest.raises(InputError):
        polyhedron_contains(poly, character(f5, {"a": 1}))
    # a piece's masks are positions in its own graph's vertices and edges:
    # F5's second edge (b, c) is missing from F3, and F4's second edge is (a, d);
    # on the path a-b-c-d with labels 4 the masks name the same cut edge, but
    # the path is still another graph
    piece = complement_polyhedron(f5).pieces[2]
    assert piece.cut_edges == (("b", "c"),)
    assert piece.contains(character(f5, {"b": 1, "c": -1}))
    path = parse_graph("v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c d 4\n")
    assert SubSphere(path, piece.kind, piece.units, piece.cut).cut_edges == piece.cut_edges
    for other in (f3, f4, path):
        with pytest.raises(InputError, match="carrier differs"):
            piece.contains(character(other, {"a": 1}))
        with pytest.raises(InputError, match="carrier differs"):
            polyhedron_contains(complement_polyhedron(f5), character(other, {"a": 1}))


def test_subsphere_contained_refuses_pieces_over_two_graphs(f5):
    path = parse_graph("v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c d 4\n")
    a = SubSphere(f5, "disconnection", 0b010, 0)
    b = SubSphere(path, "disconnection", 0b010, 0)
    assert subsphere_contained(a, a) and subsphere_contained(b, b)
    for first, second in ((a, b), (b, a)):
        with pytest.raises(InputError, match="different graphs"):
            subsphere_contained(first, second)


def test_json_round_trip(f1, f5):
    for g in (f1, f5):
        poly = complement_polyhedron(g)
        blob = json.loads(json.dumps(poly.to_json_dict()))
        back = polyhedron_from_json(g, blob)
        assert back == poly


def test_json_coefficients_are_strings(f5):
    blob = complement_polyhedron(f5).to_json_dict()
    for piece in blob["pieces"]:
        for form in piece["forms"]:
            assert all(isinstance(c, str) for c in form.values())


def _pruned_by_oracle(g):
    """The documented prune, rebuilt from the raw candidates: drop pieces of
    full rank, visit the rest by (rank, canonical key) with enumeration order
    breaking ties, drop a candidate whose row span holds every form of a kept
    piece, and list the kept pieces by canonical key."""
    idx = g.index

    def key(piece):
        forms = tuple(tuple(idx[v] for v in f) for f in piece.forms)
        return (len(piece.forms), forms, piece.kind)

    candidates = dominance_pieces(g) + disconnection_pieces(g)
    ranked = sorted(
        (fraction_rank(forms_as_rows(p, g)), key(p), i, p) for i, p in enumerate(candidates)
    )
    kept = []
    for rank, k, _, piece in ranked:
        if rank == len(g.vertices):
            continue
        rows = forms_as_rows(piece, g)
        if any(all(in_span(vec, rows) for vec in forms_as_rows(q, g)) for _, q in kept):
            continue
        kept.append((k, piece))
    kept.sort(key=lambda kp: kp[0])
    return tuple(piece for _, piece in kept)


def test_single_prune_matches_oracle():
    rng = random.Random(2024)
    graphs = [random_labeled_graph(rng, max_vertices=6) for _ in range(30)]
    names = tuple(f"c{i}" for i in range(6))
    graphs.append(LabeledGraph(names, tuple((names[i], names[(i + 1) % 6], 4) for i in range(6))))
    # kept pieces here include 4 edge sums of rank 3 (a 4-cycle of cut edges),
    # so canonical order differs from visiting order
    graphs.append(parse_graph(
        "v g0\nv g1\nv g2\nv g3\nv g4\ne g0 g2 4\ne g0 g3 6\ne g1 g2 4\n"
        "e g1 g3 6\ne g1 g4 4\ne g2 g3 6\ne g2 g4 4\ne g3 g4 6\n"
    ))
    for g in graphs:
        pieces = complement_polyhedron(g).pieces
        assert pieces == _pruned_by_oracle(g), g
        for a in pieces:
            assert not any(b is not a and subsphere_contained(a, b) for b in pieces), g


def test_polyhedron_from_json_rejects_malformed(f5):
    good = complement_polyhedron(f5).to_json_dict()

    def variant(edit):
        blob = json.loads(json.dumps(good))
        edit(blob)
        return blob

    bad = {
        "no pieces": ({}, "'pieces'"),
        "no origin": (variant(lambda b: b["pieces"][0].pop("origin")), "'origin'"),
        "no forms": (variant(lambda b: b["pieces"][0].pop("forms")), "'forms'"),
        "no kind": (variant(lambda b: b["pieces"][0]["origin"].pop("kind")), "'kind'"),
        "unknown kind": (variant(lambda b: b["pieces"][0]["origin"].update(kind="other")),
                         "unknown piece kind 'other'"),
        "forms not dicts": (variant(lambda b: b["pieces"][0].update(forms=[1])), "malformed"),
        "pieces not a list": ({"pieces": 3}, "malformed"),
        "bad cut edge": (variant(lambda b: b["pieces"][0]["origin"].update(cut_edges=[["a"]])),
                         "malformed"),
        "unknown vertex": (variant(lambda b: b["pieces"][0]["forms"][0].update(z="1")),
                           "unknown vertex 'z'"),
        "unknown zero_set vertex": (variant(lambda b: b["pieces"][0]["origin"].update(
            zero_set=["z"])), r"unknown vertices \['z'\]"),
        "unknown cut vertex": (variant(lambda b: b["pieces"][0]["origin"].update(
            cut_edges=[["a", "q"]])), r"unknown vertices \['q'\]"),
        "zero_set a string": (variant(lambda b: b["pieces"][1]["origin"].update(zero_set="b")),
                              "malformed"),
        "cut edge a string": (variant(lambda b: b["pieces"][0]["origin"].update(
            cut_edges=["ab"])), "malformed"),
        "cut edge not an edge": (variant(lambda b: b["pieces"][0]["origin"].update(
            cut_edges=[["a", "c"]])), "no edge between 'a' and 'c'"),
        "repeated zero_set vertex": (variant(lambda b: b["pieces"][1]["origin"].update(
            zero_set=["b", "b"])), "repeats"),
        "repeated cut edge": (variant(lambda b: b["pieces"][0]["origin"].update(
            cut_edges=[["a", "b"], ["b", "a"]])), "repeats"),
        # the forms must be the ones the origin gives
        "form off its origin": (variant(lambda b: b["pieces"][1].update(forms=[{"a": "1"}])),
                                "forms differ"),
        "coefficient off its origin": (variant(lambda b: b["pieces"][1].update(
            forms=[{"b": "2"}])), "forms differ"),
        "form missing": (variant(lambda b: b["pieces"][0].update(forms=[])), "forms differ"),
    }
    for name, (blob, message) in bad.items():
        with pytest.raises(InputError, match=message):
            polyhedron_from_json(f5, blob)
    assert polyhedron_from_json(f5, good) == complement_polyhedron(f5)
    # a coefficient is read as a rational, so its spelling does not matter
    respelled = variant(lambda b: b["pieces"][1].update(forms=[{"b": "2/2"}]))
    assert polyhedron_from_json(f5, respelled) == complement_polyhedron(f5)
    # F5's cut edge (b, c) relabelled: a cut edge is even with label > 2
    for label in (2, 3):
        g = parse_graph(f"v a\nv b\nv c\ne a b 4\ne b c {label}\n")
        with pytest.raises(InputError, match=f"label {label}, not even and > 2"):
            polyhedron_from_json(g, good)


def _pieces_from_oracle_cuts(g):
    """Disconnection pieces as the polyhedron documents them, with each
    vanishing set's cuts taken from ``oracles.minimal_even_cuts`` and the
    masks built here from the vertex and edge positions.  Each piece reads
    its zero set and cut edges back off the masks as the oracle names them."""
    pieces = []
    for size in range(max(len(g.vertices) - 1, 0)):
        for y1 in combinations(g.vertices, size):
            rest = tuple(v for v in g.vertices if v not in y1)
            for cut in minimal_even_cuts(g, rest):
                units = sum(1 << g.vertices.index(v) for v in y1)
                cut_mask = sum(1 << g.edges.index(e) for e in cut)
                piece = SubSphere(g, "disconnection", units, cut_mask)
                assert piece.zero_set == y1, (g, y1)
                assert piece.cut_edges == tuple((u, v) for u, v, _ in cut), (g, cut)
                pieces.append(piece)
    return pieces


def test_disconnection_pieces_match_oracle_cuts():
    rng = random.Random(4111)
    graphs = []
    for _ in range(300):
        g = random_labeled_graph(rng, max_vertices=7)
        edges = [(v, u, label) if rng.random() < 0.5 else (u, v, label) for u, v, label in g.edges]
        rng.shuffle(edges)
        graphs.append(LabeledGraph(g.vertices, tuple(edges)))
    for n in (6, 8):
        names = tuple(f"c{i}" for i in range(n))
        graphs.append(LabeledGraph(names, tuple((names[i], names[(i + 1) % n], 4) for i in range(n))))
    cut_sizes = set()
    for g in graphs:
        pieces = disconnection_pieces(g)
        assert pieces == _pieces_from_oracle_cuts(g), g
        cut_sizes.update(len(p.cut_edges) for p in pieces)
    # the empty cut, single edges and the two-edge cuts of the cycles all occur
    assert {0, 1, 2} <= cut_sizes


def _random_span_forms(rng, n, blocks=None):
    """A unit mask and edge sums (index pairs) whose span has a drawn shape.

    ``blocks`` lists (vertices, kind, colours) with kind "isolated",
    "balanced", "unit form" or "odd cycle"; it is drawn from a shuffled
    partition of range(n) when None.  Each call realizes the shape anew: a
    random tree of edge sums joining opposite colours of a block, extra
    edge sums between opposite colours, and for a full block either a unit
    form or a same-colour edge sum closing an odd cycle.  Returns (units,
    pairs, blocks)."""
    if blocks is None:
        verts = list(range(n))
        rng.shuffle(verts)
        blocks = []
        while verts:
            size = rng.randint(1, 4)
            block, verts = verts[:size], verts[size:]
            kinds = ["isolated", "balanced", "unit form"] + (["odd cycle"] if len(block) >= 3 else [])
            colours = {v: rng.randint(0, 1) for v in block}
            colours[block[0]] = 0
            if len(block) > 1:
                colours[block[1]] = 1
            blocks.append((block, rng.choice(kinds), colours))
    units, pairs = 0, []
    for block, kind, colours in blocks:
        if kind == "isolated":
            continue
        order = list(block)
        rng.shuffle(order)
        if len(order) > 1:  # an opposite colour second, so the tree can grow
            other = next(w for w in order if colours[w] != colours[order[0]])
            order.remove(other)
            order.insert(1, other)
        for k, v in enumerate(order[1:], 1):
            u = rng.choice([w for w in order[:k] if colours[w] != colours[v]])
            pairs.append((u, v))
        for _ in range(rng.randint(0, 2)):
            u, v = rng.choice(order), rng.choice(order)
            if colours[u] != colours[v]:
                pairs.append((u, v))
        if kind == "unit form":
            units |= 1 << rng.choice(order)
        elif kind == "odd cycle":
            pairs.append(rng.choice([(u, v) for u in order for v in order
                                     if u < v and colours[u] == colours[v]]))
    rng.shuffle(pairs)
    return units, [(j, i) if rng.random() < 0.5 else (i, j) for i, j in pairs], blocks


def test_span_key_matches_oracle():
    rng = random.Random(5203)
    equal = unequal = 0
    shapes = set()
    for _ in range(800):
        n = rng.randint(1, 8)
        units_a, pairs_a, blocks = _random_span_forms(rng, n)
        same_shape = rng.random() < 0.5
        units_b, pairs_b, _ = _random_span_forms(rng, n, blocks if same_shape else None)
        rows = []
        for units, pairs in ((units_a, pairs_a), (units_b, pairs_b)):
            vecs = [[int(w == v) for w in range(n)] for v in range(n) if units >> v & 1]
            vecs += [[int(w in (i, j)) for w in range(n)] for i, j in pairs]
            rows.append(vecs)
        rank_a, full_a, key_a = _span(n, units_a, pairs_a)
        rank_b, _, key_b = _span(n, units_b, pairs_b)
        assert rank_a == fraction_rank(rows[0]), (units_a, pairs_a)
        assert rank_b == fraction_rank(rows[1]), (units_b, pairs_b)
        units_in_span = [in_span([int(w == v) for w in range(n)], rows[0]) for v in range(n)]
        assert [bool(full_a >> v & 1) for v in range(n)] == units_in_span
        some = rng.sample(list(combinations(range(n), 2)), min(4, n * (n - 1) // 2))
        sums_in_span = [in_span([int(w in pair) for w in range(n)], rows[0]) for pair in some]
        assert [bool(_spanned(key_a, some) >> k & 1) for k in range(len(some))] == sums_in_span
        same_span = (all(in_span(vec, rows[0]) for vec in rows[1])
                     and all(in_span(vec, rows[1]) for vec in rows[0]))
        assert (key_a == key_b) == same_span, (units_a, pairs_a, units_b, pairs_b)
        assert not same_shape or same_span
        equal += same_span
        unequal += not same_span
        shapes.update(kind for _, kind, _ in blocks)
        if sum(kind in ("unit form", "odd cycle") for _, kind, _ in blocks) >= 2:
            shapes.add("two full")
    assert equal > 300 and unequal > 300
    assert {"isolated", "balanced", "unit form", "odd cycle", "two full"} <= shapes


def _complete_graph(n, label=4):
    names = tuple(f"k{i}" for i in range(n))
    return LabeledGraph(names, tuple((names[i], names[j], label) for i, j in combinations(range(n), 2)))


def _cycle_graph(n, label=4):
    names = tuple(f"c{i}" for i in range(n))
    return LabeledGraph(names, tuple((names[i], names[(i + 1) % n], label) for i in range(n)))


def _grid_graph(rows, cols, label=4):
    names = tuple(f"x{i}" for i in range(rows * cols))
    pairs = [(i, i + 1) for i in range(rows * cols) if i % cols != cols - 1]
    pairs += [(i, i + cols) for i in range((rows - 1) * cols)]
    return LabeledGraph(names, tuple((names[i], names[j], label) for i, j in pairs))


@pytest.mark.parametrize("n, count", [(7, 966), (9, 9330)], ids=["K7", "K9"])
def test_complete_graph_builds_within_budget(n, count):
    # every zero set of K_n leaves a complete rest K_m, whose 2^(m-1) - 1 bonds
    # are all kept: the sum of C(n, m) (2^(m-1) - 1) over m = 2..n is 966 for
    # K7 and 9330 for K9
    kn = _complete_graph(n)
    start = time.process_time()
    pieces = complement_polyhedron(kn).pieces
    assert time.process_time() - start < 2.0
    assert len(pieces) == count


def test_k6_candidates_match_oracle_cuts():
    k6 = _complete_graph(6)
    assert disconnection_pieces(k6) == _pieces_from_oracle_cuts(k6)


def test_candidate_spans_read_off_their_shape():
    # complement_polyhedron reads each candidate's span off (Y1, cut); the
    # signed-graph union-find _span checks the four facts its docstring proves
    rng = random.Random(1616)
    graphs = [random_labeled_graph(rng, max_vertices=7) for _ in range(150)]
    graphs += [random_labeled_graph(rng, max_vertices=8, labels=(2, 4, 6, 3), p=0.6)
               for _ in range(30)]
    graphs += [_complete_graph(5), _complete_graph(6)]
    candidates = with_cycle = 0
    for g in graphs:
        n = len(g.vertices)
        ends = _ends(g)
        keys = set()
        for units, cut in _cuts(g):
            pairs = members(cut, ends)
            rank, full, key = _span(n, units, pairs)
            inner = sum(1 << k for k, (i, j) in enumerate(ends) if units >> i & units >> j & 1)
            assert full == units, (g, units, cut)
            assert rank == units.bit_count() + forest_size(pairs) < n, (g, units, cut)
            assert _spanned(key, ends) == inner | cut, (g, units, cut)
            assert key not in keys, (g, units, cut)
            keys.add(key)
            candidates += 1
            with_cycle += forest_size(pairs) < len(pairs)
    # cuts holding a cycle make the rank differ from |Y1| + |cut|
    assert candidates > 5000 and with_cycle > 100


def test_vertex_limit_fires_before_enumerating(monkeypatch):
    # the build's first step lists the components of the whole graph, and
    # disconnection_pieces lists the candidates of _cuts
    def enumerate_nothing(*args):
        raise AssertionError("enumerated")

    names = tuple(f"v{i}" for i in range(MAX_POLYHEDRON_VERTICES + 1))
    for build, first_step in ((complement_polyhedron, "components"),
                              (disconnection_pieces, "_cuts")):
        monkeypatch.setattr(polyhedron, first_step, enumerate_nothing)
        with pytest.raises(InputError, match="13 vertices, above MAX_POLYHEDRON_VERTICES = 12"):
            build(LabeledGraph(names, ()))
        with pytest.raises(AssertionError, match="enumerated"):
            build(LabeledGraph(names[:-1], ()))
        monkeypatch.undo()


def test_build_matches_local_rule_oracle():
    # the build walks only the zero sets whose vertices keep two neighbours in
    # the rest and reads the rule off masks; the oracle filters every
    # candidate of _cuts by a search per zeroed vertex
    rng = random.Random(2323)
    graphs = [LabeledGraph(tuple(f"e{i}" for i in range(6)), ())]
    graphs += [_cycle_graph(n) for n in range(4, 13)]
    graphs += [_grid_graph(3, 4)] + [_complete_graph(n) for n in (5, 6, 7)]
    for trial in range(500):
        labels = ((4,), (2, 4, 6), (2, 3, 4, 5, 6))[trial % 3]
        graphs.append(random_labeled_graph(rng, max_vertices=9, labels=labels,
                                           p=rng.choice((0.25, 0.4, 0.55))))
    shapes = set()
    for g in graphs:
        ends = _ends(g)
        expect = kept_by_local_rule(len(g.vertices), ends, _cuts(g))
        assert [(p.units, p.cut) for p in complement_polyhedron(g).pieces] == expect, g
        shapes.update((units.bit_count() > 0, cut > 0) for units, cut in expect)
    # pieces with and without zeroed vertices and cut edges all occur
    assert shapes == {(False, False), (False, True), (True, False), (True, True)}


@pytest.mark.parametrize("n", range(4, 13))
def test_cycle_piece_count(n):
    # Cn keeps C(n, 2) two-edge cuts, n(n - 2) pieces zeroing one vertex and
    # cutting one edge, and C(n, 2) - n empty cuts at two non-adjacent vertices
    count = n * (n - 1) // 2 + n * (n - 2) + n * (n - 1) // 2 - n
    assert len(complement_polyhedron(_cycle_graph(n)).pieces) == count


def test_cycle_18_builds_within_budget(monkeypatch):
    # every zeroed vertex of C18 needs both neighbours in the rest, so only
    # its 5,778 independent sets are walked, of the 2^18 zero sets
    monkeypatch.setattr(polyhedron, "MAX_POLYHEDRON_VERTICES", 18)
    c18 = _cycle_graph(18)
    start = time.process_time()
    pieces = complement_polyhedron(c18).pieces
    assert time.process_time() - start < 1.0
    assert len(pieces) == 576


def _canonical_keys(graph):
    """(number of forms, forms as tuples of vertex indices) of each piece of
    the graph's polyhedron, read off its zero set and cut edges."""
    idx = graph.index
    keys = []
    for piece in complement_polyhedron(graph).pieces:
        forms = tuple((idx[v],) for v in piece.zero_set)
        forms += tuple((idx[u], idx[v]) for u, v in piece.cut_edges)
        keys.append((len(forms), forms))
    return keys


def test_pieces_increase_in_canonical_order():
    # the build sorts by one integer per piece; the order it stands for is
    # checked here on dense graphs, where neighbours share long key prefixes
    rng = random.Random(2929)
    graphs = [_complete_graph(9), _complete_graph(10)]
    graphs += [random_labeled_graph(rng, max_vertices=10, labels=(4,), p=0.6) for _ in range(100)]
    longest_tie = 0
    for g in graphs:
        keys = _canonical_keys(g)
        assert all(a < b for a, b in zip(keys, keys[1:])), g
        for (count, a), (other, b) in zip(keys, keys[1:]):
            if count == other:
                longest_tie = max(longest_tie, next(k for k in range(count) if a[k] != b[k]))
    # some neighbours agree on their first ten forms and differ only after
    assert longest_tie >= 10


def test_k10_build_peak_memory():
    # with one integer sort key per kept piece the build peaks near what its
    # 28,501 pieces hold (about 5 MB); a tuple of index tuples per piece
    # would take about 15 MB
    k10 = _complete_graph(10)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        assert len(complement_polyhedron(k10).pieces) == 28501
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - start < 8_000_000
