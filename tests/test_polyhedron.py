import json
import random
from fractions import Fraction

import pytest

from artin_sigma import (
    InputError,
    LabeledGraph,
    LinearForm,
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
from conftest import random_character, random_even_graph, random_labeled_graph
from oracles import complement_member_bruteforce, fraction_rank, in_span


def forms_as_rows(piece, graph):
    return [f.vector(graph) for f in piece.forms]


def test_dominance_pieces_f3_empty(f3):
    assert dominance_pieces(f3) == []


def test_dominance_pieces_f5(f5):
    pieces = dominance_pieces(f5)
    assert len(pieces) == 2
    got = sorted(tuple(sorted({v for f in p.forms for v, _ in f.coeffs})) for p in pieces)
    assert got == [("a", "b"), ("b", "c")]


def test_dominance_pieces_complete_graph():
    g = parse_graph("v a\nv b\nv c\ne a b 2\ne b c 2\ne c a 2\n")
    assert dominance_pieces(g) == []


def test_disconnection_pieces_f3(f3):
    pieces = disconnection_pieces(f3)
    assert len(pieces) == 1
    piece = pieces[0]
    assert [f.to_json_dict() for f in piece.forms] == [{"a": "1", "b": "1"}]
    assert piece.origin.kind == "disconnection"
    assert piece.origin.zero_set == ()
    assert piece.origin.cut_edges == (("a", "b"),)


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
        tuple(sorted((v, str(c)) for v, c in f.coeffs)) for p in poly.pieces for f in p.forms
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


def test_complement_polyhedron_complete_right_angled():
    g = parse_graph("v a\nv b\nv c\ne a b 2\ne b c 2\ne c a 2\n")
    assert complement_polyhedron(g).pieces == ()


def test_f1_four_edge_cut_piece(f1):
    # zeroing no vertices, the only way to disconnect F1 is to cut all four
    # label>2 edges; that piece's solution set is the span condition
    # chi(u)+chi(v) = chi(v)+chi(w) = chi(w)+chi(s) = chi(s)+chi(u) = 0
    poly = complement_polyhedron(f1)
    empty_zero = [p for p in poly.pieces if p.origin.zero_set == ()]
    assert len(empty_zero) == 1
    piece = empty_zero[0]
    assert piece.origin.kind == "disconnection"
    assert len(piece.origin.cut_edges) == 4
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
    a = [LinearForm.from_mapping({"a": 1}, f5), LinearForm.from_mapping({"b": 1}, f5)]
    b = [LinearForm.from_mapping({"a": 1, "b": 1}, f5)]
    from artin_sigma import PieceOrigin, SubSphere

    sa = SubSphere(tuple(a), PieceOrigin("dominance", ("a", "b")))
    sb = SubSphere(tuple(b), PieceOrigin("disconnection", (), (("a", "b"),)))
    assert subsphere_contained(sa, sb, f5)
    assert not subsphere_contained(sb, sa, f5)
    assert subsphere_contained(sa, sa, f5)


def test_no_piece_contained_in_another(f1, f3, f4, f5):
    for g in (f1, f3, f4, f5):
        poly = complement_polyhedron(g)
        pieces = poly.pieces
        for i, a in enumerate(pieces):
            for j, b in enumerate(pieces):
                if i != j:
                    assert not subsphere_contained(a, b, g), (i, j)


def test_forms_have_small_integer_coefficients(f1, f4, f5):
    for g in (f1, f4, f5):
        for piece in complement_polyhedron(g).pieces:
            for form in piece.forms:
                coeffs = [c for _, c in form.coeffs]
                assert all(c == 1 for c in coeffs)
                if piece.origin.kind == "dominance":
                    assert len(form.coeffs) == 1
                else:
                    assert len(form.coeffs) in (1, 2)


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


def test_carrier_mismatch(f3, f5):
    poly = complement_polyhedron(f3)
    with pytest.raises(InputError):
        polyhedron_contains(poly, character(f5, {"a": 1}))


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
        forms = tuple(tuple((idx[v], c) for v, c in f.coeffs) for f in piece.forms)
        return (len(piece.forms), forms, piece.origin.kind)

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
            assert not any(b is not a and subsphere_contained(a, b, g) for b in pieces), g


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
    }
    for name, (blob, message) in bad.items():
        with pytest.raises(InputError, match=message):
            polyhedron_from_json(f5, blob)
    assert polyhedron_from_json(f5, good) == complement_polyhedron(f5)
