"""End-to-end acceptance checks.

Each test covers one numbered criterion, enforces a wall-clock budget, and
prints a single ``[criterion-N] PASS``/``FAIL`` line straight to the terminal
(bypassing capture) so a full run yields one status line per criterion.
"""

import random
import time
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

from artin_sigma import (
    BipartiteForest,
    FreeWord,
    LaurentPoly,
    QQ,
    abelianization_map,
    certify_not_finitely_generated,
    character,
    check_hypothesis,
    commutator,
    complement_polyhedron,
    connected_components,
    dead_edge_forest,
    decide_sigma1,
    graph_presentation,
    high_label_subgraph,
    hypothesis_witness,
    is_connected,
    is_dominant,
    jacobian,
    laurent_unit_ideal,
    lf_subgraph,
    living_subgraph,
    parse_artin,
    parse_poly,
    polyhedron_contains,
    unit_ideal_mod_p,
)
from conftest import (
    F1_TEXT,
    F2_TEXT,
    F3_TEXT,
    F5_TEXT,
    random_character,
    random_even_graph,
    random_labeled_graph,
)
from oracles import (
    ONE,
    apply_differential,
    has_even_simple_cycle,
    koszul_differential,
    ring_add,
    ring_mul,
    ring_sub,
)
from test_fox import D, E
from test_presentations import presentations_agree, random_forest_with_character


def checked(capsys, number, label, budget_s, body):
    start = time.perf_counter()
    status = "FAIL"
    try:
        body()
        elapsed = time.perf_counter() - start
        assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
        status = "PASS"
    finally:
        elapsed = time.perf_counter() - start
        with capsys.disabled():
            print(f"[criterion-{number}] {status} {label} ({elapsed:.2f}s)")


def rand_word(rng, gens, max_len):
    letters = [
        (rng.choice(gens), rng.choice((1, -1)))
        for _ in range(rng.randint(0, max_len))
    ]
    return FreeWord(letters)


def test_criterion_01_open_square_example(capsys):
    def body():
        graph, spec = parse_artin(F1_TEXT)
        chi = character(graph, {"v": 1, "s": 1, "u": -1, "w": -1})
        lf = lf_subgraph(chi)
        assert is_connected(lf)
        assert is_dominant(chi.graph, lf.vertices)
        living = living_subgraph(chi)
        comps = {frozenset(c) for c in connected_components(living)}
        assert comps == {frozenset({"v", "s"}), frozenset({"u", "w"})}
        assert not check_hypothesis(graph, "simple-cycle")
        witness = hypothesis_witness(graph, "simple-cycle")
        assert witness is not None and len(witness) == 4
        assert set(witness) == {"u", "v", "w", "s"}
        high = high_label_subgraph(graph)
        for i, x in enumerate(witness):
            assert high.has_edge(x, witness[(i + 1) % 4])
        for cand in (chi, chi.negate()):
            verdict = decide_sigma1(cand)
            assert verdict.status == "out_conjectural"
            assert verdict.provenance == "conjecture_only"

    checked(capsys, 1, "open square example reproduced", 1.0, body)


def test_criterion_02_laurent_unit_ideal(capsys):
    def body():
        V = ("s", "u", "v", "w")
        gens = [
            parse_poly(t, V)
            for t in ("1+u*v", "1+s*u+s^2*u^2", "1+v*w", "1+s*w")
        ]
        unit, basis, _aux = laurent_unit_ideal(gens)
        assert unit is True
        assert len(basis) == 1 and basis[0].is_constant()
        for p in (2, 3, 5, 7, 11):
            assert unit_ideal_mod_p(gens, p, laurent=True) is True

    checked(capsys, 2, "Laurent unit ideal over Q and five primes", 5.0, body)


def test_criterion_03_fox_closed_forms(capsys):
    def body():
        gens = ("x", "y", "z")
        rng = random.Random(9001)
        for _ in range(200):
            a = rand_word(rng, gens, 8)
            b = rand_word(rng, gens, 8)
            ainv, binv = E(a.inverse()), E(b.inverse())
            for s in gens:
                lhs = D(commutator(a, b), s)
                rhs = ring_add(ring_mul(ainv, ring_sub(binv, ONE), D(a, s)),
                               ring_mul(ainv, binv, ring_sub(E(a), ONE), D(b, s)))
                assert lhs == rhs
        x, y = FreeWord.generator("x"), FreeWord.generator("y")
        xy = x * y
        for m in (2, 3, 4, 5):
            r = commutator(xy ** m, x)
            geom = {}
            for k in range(m):
                geom = ring_add(geom, E(xy ** k))
            front = E(xy ** -m)
            assert D(r, "x") == ring_mul(front, ring_sub(E(y), ONE), geom)
            assert D(r, "y") == ring_mul(front, ring_sub(E(x.inverse()), ONE), geom, E(x))

    checked(capsys, 3, "derivative closed forms (commutator, even relator)", 10.0, body)


def test_criterion_04_fundamental_identity_and_chain(capsys):
    def body():
        gens = ("x", "y", "z", "t")
        rng = random.Random(55221)
        for _ in range(500):
            w = rand_word(rng, gens, 12)
            total = {}
            for g in gens:
                total = ring_add(total, ring_mul(D(w, g), ring_sub(E(FreeWord.generator(g)), ONE)))
            assert total == ring_sub(E(w), ONE)
        f4_text = "v a\nv b\nv c\nv d\ne a b 4\ne b c 4\ne c d 4\ne d a 4\n"
        for text in (F1_TEXT, F2_TEXT, F3_TEXT, f4_text, F5_TEXT):
            graph, _ = parse_artin(text)
            pres_gens, relators = graph_presentation(graph)
            amap = abelianization_map(graph)
            jac = jacobian(pres_gens, relators, amap)
            for row in jac.entries:
                acc = LaurentPoly.zero(jac.variables, QQ)
                for entry, gen in zip(row, jac.generators):
                    cls_var = amap.variables[amap.class_index[gen]]
                    lin = LaurentPoly.variable(cls_var, jac.variables, QQ)
                    lin = lin - LaurentPoly.constant(1, jac.variables, QQ)
                    acc = acc + entry * lin
                assert acc.is_zero()

    checked(capsys, 4, "fundamental identity and Jacobian chain condition", 10.0, body)


def test_criterion_05_koszul_chain_conditions(capsys):
    def body():
        for n in range(2, 7):
            V = tuple(f"v{i}" for i in range(n))
            for pair in combinations(V, 2):
                assert apply_differential(1, koszul_differential(2, pair, V), V) == {}
            for triple in combinations(V, 3):
                assert apply_differential(2, koszul_differential(3, triple, V), V) == {}

    checked(capsys, 5, "Koszul chain conditions to six variables", 5.0, body)


def test_criterion_06_presentation_equivalence(capsys):
    def body():
        g3, _ = parse_artin(F3_TEXT)
        assert presentations_agree(dead_edge_forest(character(g3, {"a": 1, "b": -1})))
        g5, _ = parse_artin(F5_TEXT)
        chi5 = character(g5, {"a": 1, "b": -1, "c": 1})
        assert presentations_agree(dead_edge_forest(chi5, (("a", "c"), ("b",))))

    checked(capsys, 6, "wedge and forest module presentations agree", 0.5, body)


def test_criterion_07_rank_certificates(capsys):
    def body():
        single2 = BipartiteForest(("v",), ("w",), (("v", "w", 4),))
        cert = certify_not_finitely_generated(single2, {"v": 1, "w": -1})
        assert (cert.rank, cert.generators) == (0, 1)
        g5, _ = parse_artin(F5_TEXT)
        chi5 = character(g5, {"a": 1, "b": -1, "c": 1})
        forest5 = dead_edge_forest(chi5, (("a", "c"), ("b",)))
        cert5 = certify_not_finitely_generated(forest5, chi5)
        assert (cert5.rank, cert5.generators) == (1, 2)
        single3 = BipartiteForest(("v",), ("w",), (("v", "w", 6),))
        cert3 = certify_not_finitely_generated(single3, {"v": 1, "w": -1})
        assert (cert3.rank, cert3.generators) == (0, 1)
        rng = random.Random(777)
        for _ in range(100):
            forest, chi = random_forest_with_character(rng)
            out = certify_not_finitely_generated(forest, chi)
            assert out.rank < out.generators
            assert out.conclusion == "not_finitely_generated"

    checked(capsys, 7, "rank certificates, incl. 100 random forests", 30.0, body)


@lru_cache(maxsize=1)
def _even_graph_corpus():
    """(graph, [(chi, status, provenance, member)]) for F3, F5, and 50 random
    even graphs passing the cycle condition, 1000 characters each."""
    rng = random.Random(60606)
    graphs = [parse_artin(F3_TEXT)[0], parse_artin(F5_TEXT)[0]]
    while len(graphs) < 52:
        g = random_even_graph(rng)
        if len(g.vertices) >= 2 and check_hypothesis(g, "simple-cycle"):
            graphs.append(g)
    corpus = []
    for g in graphs:
        poly = complement_polyhedron(g)
        rows = []
        for _ in range(1000):
            chi = random_character(rng, g)
            verdict = decide_sigma1(chi)
            member = polyhedron_contains(poly, chi)
            rows.append((chi, verdict.status, verdict.provenance, member))
        corpus.append((g, rows))
    return corpus


def test_criterion_08_polyhedron_matches_decision(capsys):
    def body():
        mismatches = 0
        for _graph, rows in _even_graph_corpus():
            for _chi, status, _prov, member in rows:
                assert status != "out_conjectural"
                if member != (status == "out"):
                    mismatches += 1
        assert mismatches == 0

    checked(capsys, 8, "polyhedron membership matches decisions (52k characters)", 60.0, body)


def test_criterion_09_symmetry_and_scaling(capsys):
    def body():
        for _graph, rows in _even_graph_corpus():
            for chi, status, prov, _member in rows:
                for other in (chi.negate(), chi.scale(Fraction(3, 2))):
                    v = decide_sigma1(other)
                    assert (v.status, v.provenance) == (status, prov)

    checked(capsys, 9, "verdicts invariant under negation and positive scaling", 60.0, body)


def test_criterion_10_hypothesis_oracle(capsys):
    def body():
        rng = random.Random(808)
        for _ in range(200):
            g = random_labeled_graph(rng)
            high = high_label_subgraph(g)
            pairs = [(u, v) for u, v, _ in high.edges]
            expected = not has_even_simple_cycle(high.vertices, pairs)
            assert check_hypothesis(g, "simple-cycle") == expected

    checked(capsys, 10, "cycle condition agrees with brute-force oracle", 30.0, body)


def test_criterion_11_mixed_triangle(capsys):
    def body():
        graph, _ = parse_artin(F2_TEXT)
        amap = abelianization_map(graph)
        assert amap.classes == (("u", "w"), ("v",))
        chi = character(graph, {"u": 1, "w": 1, "v": -1})
        verdict = decide_sigma1(chi)
        assert verdict.status == "out"
        assert verdict.provenance == "low_cycle_rank"

    checked(capsys, 11, "mixed-label triangle: two classes, low-rank verdict", 1.0, body)
