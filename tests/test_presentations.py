import hashlib
import json
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from artin_sigma import (
    BipartiteForest,
    CyclotomicField,
    InputError,
    LaurentPoly,
    MathError,
    QQ,
    bipartition_presentation,
    certify_not_finitely_generated,
    character,
    dead_edge_forest,
    forest_presentation,
    koszul_differential,
    matrix_rank,
    parse_graph,
    specialize,
)
from artin_sigma import presentations
from artin_sigma.fields import CycloNum
from artin_sigma.presentations import (
    Specialization,
    apply_differential,
    specialization_data,
)
from oracles import forest_minor, forest_witness_holds, triangular_minor_holds


def single_edge_forest(m=2):
    return BipartiteForest(("v",), ("w",), (("v", "w", 2 * m),))


def f5_forest():
    return BipartiteForest(("a", "c"), ("b",), (("a", "b", 4), ("c", "b", 4)))


# ---------------------------------------------------------------------------
# forest construction


def test_forest_normalization_and_components():
    forest = f5_forest()
    assert forest.vertices == ("a", "c", "b")
    assert forest.components() == (("a", "c", "b"),)
    assert forest.basepoints == ("a",)
    iso = BipartiteForest(("v", "t"), ("w",), (("v", "w", 4),))
    assert iso.components() == (("v", "w"), ("t",))
    assert iso.basepoints == ("v", "t")


def test_forest_edge_side_flip():
    # edges may be given right-side-first; they are normalized left-first
    forest = BipartiteForest(("v",), ("w",), (("w", "v", 6),))
    assert forest.edges == (("v", "w", 6),)


def test_forest_rejects_cycles():
    with pytest.raises(MathError):
        BipartiteForest(("a", "c"), ("b", "d"), (
            ("a", "b", 4), ("c", "b", 4), ("a", "d", 4), ("c", "d", 4),
        ))


def test_forest_rejects_bad_edges():
    with pytest.raises(InputError):
        BipartiteForest(("v",), ("w",), (("v", "w", 3),))  # odd label
    with pytest.raises(InputError):
        BipartiteForest(("v",), ("w",), (("v", "w", 2),))  # label 2 means m = 1
    with pytest.raises(InputError):
        BipartiteForest(("v",), ("w",), (("v", "v", 4),))  # same side
    with pytest.raises(InputError):
        BipartiteForest((), ("w",), ())  # empty side


def test_forest_basepoint_validation():
    with pytest.raises(InputError):
        BipartiteForest(("v",), ("w",), (("v", "w", 4),), basepoints=("v", "w"))
    with pytest.raises(InputError):
        BipartiteForest(("v", "t"), ("w",), (("v", "w", 4),), basepoints=("v",))
    alt = single_edge_forest().with_basepoints(("w",))
    assert alt.basepoints == ("w",)


# ---------------------------------------------------------------------------
# presentations


def test_forest_presentation_single_edge():
    pres = forest_presentation(single_edge_forest(m=2))
    assert pres.generators == (("v", "w"),)
    assert len(pres.rows) == 1
    assert pres.rows[0][0].to_string() == "v*w + 1"


def test_forest_presentation_m3():
    pres = forest_presentation(single_edge_forest(m=3))
    assert pres.rows[0][0].to_string() == "v^2*w^2 + v*w + 1"


def test_forest_presentation_f5_rows():
    pres = forest_presentation(f5_forest())
    assert pres.generators == (("a", "b"), ("c", "b"))
    strings = [[e.to_string() for e in row] for row in pres.rows]
    assert strings == [
        ["a*b + 1", "0"],
        ["0", "c*b + 1"],
        ["c - 1", "-a + 1"],
    ]
    assert pres.row_labels == ("edge:a~b", "edge:c~b", "left:a,c|b")


def test_forest_presentation_row_counts():
    # |edges| + C(|V|,2)*|W| + |V|*C(|W|,2)
    forest = BipartiteForest(("p", "q"), ("r", "s"), (("p", "r", 4),))
    pres = forest_presentation(forest)
    assert len(pres.generators) == 4
    assert len(pres.rows) == 1 + 1 * 2 + 2 * 1


def test_canonical_form_invariances():
    pres = forest_presentation(f5_forest())
    canon = pres.canonical_form()
    # reversed row order, flipped signs: same canonical form
    from artin_sigma.presentations import ModulePresentation

    flipped = ModulePresentation(
        pres.variables,
        pres.generators,
        [[-e for e in row] for row in reversed(pres.rows)],
    )
    assert flipped.canonical_form() == canon
    # duplicated and zero rows disappear
    zero_row = [LaurentPoly.zero(pres.variables, QQ)] * len(pres.generators)
    padded = ModulePresentation(
        pres.variables, pres.generators, pres.rows + [zero_row] + pres.rows[:1]
    )
    assert padded.canonical_form() == canon


# ---------------------------------------------------------------------------
# Koszul differentials


def test_koszul_degree_formulas():
    V = ("a", "b", "c")
    one = LaurentPoly.constant(1, V, QQ)

    def var(n):
        return LaurentPoly.variable(n, V, QQ)

    assert koszul_differential(1, ("b",), V) == {(): var("b") - one}
    d2 = koszul_differential(2, ("a", "b"), V)
    assert d2 == {("a",): var("b") - one, ("b",): -(var("a") - one)}
    d3 = koszul_differential(3, ("a", "b", "c"), V)
    assert d3 == {
        ("b", "c"): var("a") - one,
        ("a", "c"): -(var("b") - one),
        ("a", "b"): var("c") - one,
    }


def test_koszul_antisymmetry_and_degeneracy():
    V = ("a", "b", "c")
    d_ab = koszul_differential(2, ("a", "b"), V)
    d_ba = koszul_differential(2, ("b", "a"), V)
    assert set(d_ab) == set(d_ba)
    for key in d_ab:
        assert d_ab[key] == -d_ba[key]
    assert koszul_differential(2, ("a", "a"), V) == {}
    assert koszul_differential(3, ("a", "b", "a"), V) == {}


def test_koszul_rejects_bad_input():
    V = ("a", "b")
    with pytest.raises(InputError):
        koszul_differential(2, ("a",), V)
    with pytest.raises(InputError):
        koszul_differential(4, ("a", "b", "a", "b"), V)
    with pytest.raises(InputError):
        koszul_differential(1, ("zz",), V)


def test_koszul_chain_conditions_up_to_six_variables():
    # d1 . d2 = 0 and d2 . d3 = 0 on every basis wedge
    for n in range(2, 7):
        V = tuple(f"v{i}" for i in range(n))
        for pair in combinations(V, 2):
            image = koszul_differential(2, pair, V)
            assert apply_differential(1, image, V) == {}
        for triple in combinations(V, 3):
            image = koszul_differential(3, triple, V)
            assert apply_differential(2, image, V) == {}


def test_koszul_chain_on_permuted_wedges():
    V = ("a", "b", "c", "d")
    for triple in permutations(("a", "c", "d")):
        image = koszul_differential(3, triple, V)
        assert apply_differential(2, image, V) == {}


# ---------------------------------------------------------------------------
# dead-edge forests from graphs


def test_dead_edge_forest_f3():
    g = parse_graph("v a\nv b\ne a b 4\n")
    chi = character(g, {"a": 1, "b": -1})
    forest = dead_edge_forest(chi)
    assert forest.left == ("a",) and forest.right == ("b",)
    assert forest.edges == (("a", "b", 4),)


def test_dead_edge_forest_requires_full_support(f5):
    chi = character(f5, {"a": 1, "b": -1})
    with pytest.raises(MathError, match="full support"):
        dead_edge_forest(chi)


def test_dead_edge_forest_component_count(f5):
    chi = character(f5, {"a": 1, "b": -1, "c": 1})
    with pytest.raises(MathError, match="3 components"):
        dead_edge_forest(chi)
    forest = dead_edge_forest(chi, (("a", "c"), ("b",)))
    assert forest.left == ("a", "c")
    assert forest.right == ("b",)
    assert forest.edges == (("a", "b", 4), ("c", "b", 4))


def test_dead_edge_forest_bipartition_validation(f5):
    chi = character(f5, {"a": 1, "b": -1, "c": 1})
    with pytest.raises(InputError):
        dead_edge_forest(chi, (("a",), ("b",)))  # does not cover c
    with pytest.raises(InputError):
        dead_edge_forest(chi, (("a", "b"), ("b", "c")))  # overlap
    # every vertex is covered, but zz is no vertex: the error names it
    with pytest.raises(InputError, match=r"unknown vertices \['zz'\]"):
        dead_edge_forest(chi, (("a", "zz"), ("b", "c")))
    # a living edge must not cross the split
    g2 = parse_graph("v a\nv b\nv c\ne a b 4\ne b c 2\n")
    chi2 = character(g2, {"a": 1, "b": -1, "c": 2})
    with pytest.raises(MathError, match="split"):
        dead_edge_forest(chi2, (("a", "c"), ("b",)))


def test_dead_edge_forest_left_side_holds_first_vertex(f1):
    chi = character(f1, {"v": 1, "s": 1, "u": -1, "w": -1})
    # F1's four dead edges form a 4-cycle, not a forest
    with pytest.raises(MathError, match="cycle"):
        dead_edge_forest(chi)


def test_dead_edge_forest_f1_orientation():
    # drop one edge of the F1 cycle to get an honest forest
    text = "v v\nv s\nv u\nv w\ne v s 2\ne u w 2\ne u v 4\ne v w 4\ne w s 4\n"
    g = parse_graph(text)
    chi = character(g, {"v": 1, "s": 1, "u": -1, "w": -1})
    forest = dead_edge_forest(chi)
    assert forest.left == ("v", "s")
    assert forest.right == ("u", "w")
    assert forest.edges == (("v", "u", 4), ("v", "w", 4), ("s", "w", 4))


def test_bipartition_presentation_needs_even_labels(f2):
    chi = character(f2, {"u": 1, "w": 1, "v": -1})
    with pytest.raises(MathError, match="even"):
        bipartition_presentation(chi)


def test_bipartition_presentation_equals_forest_presentation_f3():
    g = parse_graph("v a\nv b\ne a b 4\n")
    chi = character(g, {"a": 1, "b": -1})
    direct = bipartition_presentation(chi)
    via_forest = forest_presentation(dead_edge_forest(chi))
    assert direct.canonical_form() == via_forest.canonical_form()


def test_bipartition_presentation_equals_forest_presentation_f5(f5):
    chi = character(f5, {"a": 1, "b": -1, "c": 1})
    split = (("a", "c"), ("b",))
    direct = bipartition_presentation(chi, split)
    via_forest = forest_presentation(dead_edge_forest(chi, split))
    assert direct.canonical_form() == via_forest.canonical_form()


def test_bipartition_presentation_larger_even_graph():
    # star with three dead spokes: living components {center} and the leaves
    text = "v z\nv p\nv q\nv r\ne z p 4\ne z q 4\ne z r 6\n"
    g = parse_graph(text)
    chi = character(g, {"z": 1, "p": -1, "q": -1, "r": -1})
    split = (("z",), ("p", "q", "r"))
    direct = bipartition_presentation(chi, split)
    via_forest = forest_presentation(dead_edge_forest(chi, split))
    assert direct.canonical_form() == via_forest.canonical_form()


# ---------------------------------------------------------------------------
# specialization at roots of unity


def test_specialization_single_edge_m2():
    forest = single_edge_forest(m=2)
    spec = specialization_data(forest, {"v": 1, "w": -1})
    assert spec.order == 2
    assert spec.roots == (("v", "w", 1),)
    assert spec.images["v"] == (0, 1)
    assert spec.images["w"] == (1, -1)  # zeta_2 * x^-1 = -x^-1
    mat = specialize(forest_presentation(forest), forest, {"v": 1, "w": -1})
    assert mat.nrows == 1 and mat.ncols == 1
    assert mat.entries[0][0].is_zero()


def test_specialization_m3_cyclotomic():
    forest = single_edge_forest(m=3)
    chi = {"v": 2, "w": -2}
    spec = specialization_data(forest, chi)
    assert spec.order == 3
    mat = specialize(forest_presentation(forest), forest, chi)
    # 1 + zeta_3 + zeta_3^2 = 0
    assert mat.entries[0][0].is_zero()
    cert = certify_not_finitely_generated(forest, chi)
    assert cert.order == 3
    assert cert.rank == 0 and cert.generators == 1
    assert cert.conclusion == "not_finitely_generated"


def test_specialization_f5_matrix(f5):
    chi = character(f5, {"a": 1, "b": -1, "c": 1})
    forest = dead_edge_forest(chi, (("a", "c"), ("b",)))
    spec = specialization_data(forest, chi)
    field = CyclotomicField(2)
    assert spec.images["a"] == (0, 1)
    assert spec.images["b"] == (1, -1)
    assert spec.images["c"] == (0, 1)
    mat = specialize(forest_presentation(forest), forest, chi)
    x = LaurentPoly.variable("x", ("x",), field)
    one = LaurentPoly.constant(field.one, ("x",), field)
    assert mat.entries == [
        [LaurentPoly.zero(("x",), field)] * 2,
        [LaurentPoly.zero(("x",), field)] * 2,
        [x - one, -(x - one)],
    ]
    assert mat.rank() == 1


def test_mixed_orders_lcm():
    forest = BipartiteForest(
        ("v", "t"), ("w",), (("v", "w", 4), ("t", "w", 6))
    )
    chi = {"v": 1, "w": -1, "t": 1}
    spec = specialization_data(forest, chi)
    assert spec.order == 6
    assert dict((v, w) for v, w, _ in spec.roots) == {"v": "w", "t": "w"}
    exps = {(v, w): k for v, w, k in spec.roots}
    assert exps[("v", "w")] == 3  # zeta_6^3 has order 2
    assert exps[("t", "w")] == 2  # zeta_6^2 has order 3
    cert = certify_not_finitely_generated(forest, chi)
    assert cert.conclusion == "not_finitely_generated"
    assert cert.rank < cert.generators == 2


def test_forest_with_no_edges_uses_rationals():
    forest = BipartiteForest(("v",), ("w",), ())
    spec = specialization_data(forest, {"v": 1, "w": 3})
    assert spec.order == 1
    assert spec.domain is QQ
    cert = certify_not_finitely_generated(forest, {"v": 1, "w": 3})
    # no relations at all: rank 0 < 1 generator
    assert cert.rank == 0 and cert.generators == 1
    assert cert.conclusion == "not_finitely_generated"


def test_specialization_rejects_bad_characters():
    forest = single_edge_forest()
    with pytest.raises(MathError):
        specialization_data(forest, {"v": 1, "w": 1})  # not opposite
    with pytest.raises(MathError):
        specialization_data(forest, {"v": 0, "w": 0})  # zero
    with pytest.raises(MathError):
        specialization_data(forest, {"v": Fraction(1, 2), "w": Fraction(-1, 2)})
    with pytest.raises(MathError):
        specialization_data(forest, {"v": 1})  # missing vertex


def test_oversized_cyclotomic_orders_are_refused_before_building():
    # a half-label past the limit stops forest_presentation before the
    # cyclotomic-sum row (10^9 terms here); half-labels 31 and 37 pass one
    # by one, and CyclotomicField refuses their lcm
    huge = BipartiteForest(("v",), ("w",), (("v", "w", 2 * 10**9),))
    lcm_forest = BipartiteForest(("a", "c"), ("b",), (("a", "b", 62), ("c", "b", 74)))
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match="order 1000000000, above MAX_CYCLOTOMIC_ORDER = 1000"):
            forest_presentation(huge)
        with pytest.raises(InputError, match="order 1000000000, above MAX_CYCLOTOMIC_ORDER = 1000"):
            certify_not_finitely_generated(huge, {"v": 1, "w": -1})
        with pytest.raises(InputError, match="order 1147 is above MAX_CYCLOTOMIC_ORDER = 1000"):
            certify_not_finitely_generated(lcm_forest, {"a": 1, "b": -1, "c": 1})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def split_cycle_forest(n):
    """The dead-edge forest of the label-4 n-cycle under the character 1 on
    its first n/2 vertices and -1 on the rest: two tree edges, n/2 vertices
    a side."""
    names = [f"x{i}" for i in range(n)]
    h = n // 2
    return BipartiteForest(names[:h], names[h:], ((names[h - 1], names[h], 4), (names[0], names[-1], 4)))


def test_oversized_presentations_are_refused_before_building(monkeypatch):
    # C26 has 2030 rows over 169 generators, C80 62402 over 1600; C24's
    # 1586 rows over 144 generators (228,384 entries) pass the check
    def no_rows(*args):
        raise AssertionError("a row was built")

    monkeypatch.setattr(presentations, "_cyclotomic_sum_row", no_rows)
    assert presentations.MAX_RELATION_ENTRIES == 250_000
    for n, rows, gens in ((26, 2030, 169), (80, 62402, 1600)):
        forest = split_cycle_forest(n)
        values = {v: 1 for v in forest.left} | {w: -1 for w in forest.right}
        message = f"{rows} rows over {gens} generators, above MAX_RELATION_ENTRIES = 250000"
        with pytest.raises(InputError, match=message):
            forest_presentation(forest)
        with pytest.raises(InputError, match=message):
            certify_not_finitely_generated(forest, values)
    with pytest.raises(AssertionError, match="a row was built"):
        forest_presentation(split_cycle_forest(24))


def test_large_labels_certify_within_budget():
    # label 1994 (M = 997): the digests are of the certificates the
    # zeta-power expansion gave, which took 3.6 s and 9 s of process time
    c8 = split_cycle_forest(8)
    c8 = BipartiteForest(c8.left, c8.right, tuple((v, w, 1994) for v, w, _ in c8.edges))
    cases = (
        (single_edge_forest(997), {"v": 1, "w": -1}, 0.5,
         "c9e2bbd84e8c41abcc4a3e8dde97f490aa94f22dc082e182253665053f7134d3"),
        (c8, {v: 1 for v in c8.left} | {w: -1 for w in c8.right}, 2.0,
         "1e056af2c496cc35545ce1dea32824b3352837f3967f4617ba23c1392b8c3fa4"),
    )
    for forest, values, budget, digest in cases:
        start = time.process_time()
        cert = certify_not_finitely_generated(forest, values)
        elapsed = time.process_time() - start
        assert elapsed < budget, (forest.edges, elapsed)
        assert hashlib.sha256(json.dumps(cert.to_json_dict()).encode()).hexdigest() == digest


def test_certificate_json_shape():
    forest = single_edge_forest(m=3)
    cert = certify_not_finitely_generated(forest, {"v": 1, "w": -1})
    blob = cert.to_json_dict()
    assert blob["M"] == 3
    assert blob["roots"] == {"(v,w)": "zeta^1"}
    assert blob["generators"] == 1
    assert blob["rank"] == 0
    assert blob["conclusion"] == "not_finitely_generated"
    assert blob["basepoint_exponents"] == {"v": 1}
    assert list(blob) == [
        "M", "roots", "basepoint_exponents", "generators", "rank", "conclusion",
        "rank_method", "witness",
    ]
    assert blob["rank_method"] == "witness+minor"
    # phi(v) = x and phi(w) = zeta * x^-1, so u = (x - 1)(zeta*x^-1 - 1)
    assert blob["witness"] == {"(v,w)": "-x + zeta + 1 - x^-1*zeta"}


def test_basepoint_independence():
    rng = random.Random(314)
    for _ in range(20):
        forest, chi = random_forest_with_character(rng)
        base = certify_not_finitely_generated(forest, chi)
        picks = []
        for comp in forest.components():
            picks.append(rng.choice(list(comp)))
        alt = certify_not_finitely_generated(forest.with_basepoints(picks), chi)
        assert alt.rank == base.rank
        assert alt.conclusion == base.conclusion
        assert alt.order == base.order


def random_forest_with_character(rng):
    nl = rng.randint(1, 3)
    nr = rng.randint(1, 3)
    left = tuple(f"v{i}" for i in range(nl))
    right = tuple(f"w{i}" for i in range(nr))
    pairs = [(a, b) for a in left for b in right]
    rng.shuffle(pairs)
    parent = {x: x for x in left + right}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges = []
    for a, b in pairs:
        if rng.random() < 0.6:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                edges.append((a, b, 2 * rng.randint(2, 4)))
    forest = BipartiteForest(left, right, tuple(edges))
    adjacency = {x: [] for x in left + right}
    for v, w, _ in forest.edges:
        adjacency[v].append(w)
        adjacency[w].append(v)
    values = {}
    for base in forest.basepoints:
        values[base] = rng.choice([1, 2, 3, -1, -2, -3])
        stack = [base]
        while stack:
            cur = stack.pop()
            for nbr in adjacency[cur]:
                if nbr not in values:
                    values[nbr] = -values[cur]
                    stack.append(nbr)
    return forest, values


def test_random_forest_certificates_always_conclude():
    # the cyclotomic rows vanish under specialization, so the rank can never
    # reach the generator count
    rng = random.Random(2718)
    for _ in range(100):
        forest, chi = random_forest_with_character(rng)
        cert = certify_not_finitely_generated(forest, chi)
        assert cert.rank < cert.generators
        assert cert.conclusion == "not_finitely_generated"


def test_certificate_rank_matches_bareiss():
    # Bareiss on the specialized matrix is the oracle for the closed-form rank
    rng = random.Random(1618)
    for _ in range(25):
        forest, chi = random_forest_with_character(rng)
        cert = certify_not_finitely_generated(forest, chi)
        matrix = specialize(forest_presentation(forest), forest, chi)
        assert cert.rank == matrix_rank(matrix)
        assert cert.rank_method == "witness+minor"


def mixed_forest():
    forest = BipartiteForest(("v", "t"), ("w", "s"), (("v", "w", 4), ("t", "w", 6)))
    return forest, {"v": 1, "t": 1, "w": -1, "s": 2}


def test_failed_certificate_check_raises_and_names_it(monkeypatch):
    # neither check can fail on a valid forest; if one does, the certificate
    # says which, with no fallback
    forest, chi = mixed_forest()
    with monkeypatch.context() as patch:
        patch.setattr(presentations, "_kills", lambda *args: False)
        with pytest.raises(RuntimeError, match="the witness is not a nonzero kernel vector"):
            certify_not_finitely_generated(forest, chi)
    with monkeypatch.context() as patch:
        patch.setattr(presentations, "_triangular", lambda *args: False)
        with pytest.raises(RuntimeError, match="the minor is not triangular"):
            certify_not_finitely_generated(forest, chi)
    assert certify_not_finitely_generated(forest, chi).rank == 3


# zeta^2 - zeta + 1 as a residue map: three nonzero terms, zero at M = 6
SIXTH_ROOT_ZERO = {(0, 2): 1, (0, 1): -1, (0, 0): 1}


def test_witness_check_rejects_a_non_kernel_vector():
    forest, chi = mixed_forest()
    pres = forest_presentation(forest)
    spec = specialization_data(forest, chi)
    rows = presentations._specialized_matrix(pres, spec)
    witness = presentations._witness(spec, pres.generators)
    powers = spec.powers
    zero = {}
    plus_one = dict(witness[0])
    plus_one[(0, 0)] = plus_one.get((0, 0), 0) + 1
    assert presentations._kills(rows, witness, powers)
    assert not presentations._kills(rows, [zero] * len(witness), powers)
    assert not presentations._kills(rows, [plus_one] + witness[1:], powers)
    # the zero test reduces in the field: residue maps that vanish there
    # are a zero witness
    assert spec.order == 6 and presentations._coordinates(SIXTH_ROOT_ZERO, powers) == {}
    assert not presentations._kills(rows, [SIXTH_ROOT_ZERO] * len(witness), powers)


def test_minor_check_rejects_a_broken_minor():
    forest, chi = mixed_forest()
    pres = forest_presentation(forest)
    spec = specialization_data(forest, chi)
    rows = presentations._specialized_matrix(pres, spec)
    assert presentations._minor(forest) == (
        ["right:v|w,s", "left:v,t|w", "left:v,t|s"], [("v", "s"), ("t", "w"), ("t", "s")])
    assert presentations._triangular(rows, pres, forest, spec.powers)
    row = pres.row_labels.index("right:v|w,s")
    col = {gen: j for j, gen in enumerate(pres.generators)}
    zero, one = {}, {(0, 0): 1}
    for j, entry in ((col[("v", "s")], zero), (col[("t", "s")], one), (col[("t", "w")], one),
                     (col[("v", "s")], SIXTH_ROOT_ZERO)):
        broken = [dict(r) for r in rows]
        broken[row][j] = entry
        assert not presentations._triangular(broken, pres, forest, spec.powers)


def test_witness_passes_independent_check():
    rng = random.Random(577)
    perturbed = 0
    for _ in range(30):
        forest, chi = random_forest_with_character(rng)
        witness = certify_not_finitely_generated(forest, chi).to_json_dict()["witness"]
        args = (forest.left, forest.right, forest.edges, chi, forest.basepoints)
        assert forest_witness_holds(*args, witness)
        assert not forest_witness_holds(*args, {k: "0" for k in witness})
        if len(witness) >= 2:
            key = next(iter(witness))
            assert not forest_witness_holds(*args, dict(witness, **{key: witness[key] + " + 1"}))
            perturbed += 1
    assert perturbed >= 10


def forest_args(forest, chi):
    return forest.left, forest.right, forest.edges, chi, forest.basepoints


def test_minor_passes_independent_check():
    # the oracle rebuilds the named rows and checks the minor is triangular
    # with a nonzero diagonal; zeroing a diagonal entry or swapping two rows
    # must fail it
    rng = random.Random(99)
    mutated = 0
    for _ in range(2000):
        forest, chi = random_forest_with_character(rng)
        labels, columns = presentations._minor(forest)
        g = len(forest.left) * len(forest.right)
        assert len(labels) == len(columns) == g - 1
        minor, is_zero = forest_minor(*forest_args(forest, chi), labels, columns)
        assert triangular_minor_holds(minor, is_zero)
        if minor:
            k = rng.randrange(len(minor))
            zeroed = [row[:] for row in minor]
            zeroed[k][k] = {}
            assert not triangular_minor_holds(zeroed, is_zero)
        if len(minor) >= 2:
            i, j = sorted(rng.sample(range(len(minor)), 2))
            swapped = minor[:]
            swapped[i], swapped[j] = swapped[j], swapped[i]
            assert not triangular_minor_holds(swapped, is_zero)
            mutated += 1
    assert mutated >= 1000


def test_certificates_never_divide_in_the_cyclotomic_field(monkeypatch):
    # the images are zeta powers times x powers, so no certificate inverts a
    # CycloNum; the M = 840 star (half-labels 8, 3, 5, 7) would otherwise
    # spend seconds in CycloNum.inverse
    def refuse(self):
        raise AssertionError("CycloNum.inverse called")

    monkeypatch.setattr(CycloNum, "inverse", refuse)
    rng = random.Random(4242)
    for _ in range(25):
        forest, chi = random_forest_with_character(rng)
        assert certify_not_finitely_generated(forest, chi).rank_method == "witness+minor"
    star = BipartiteForest(("a", "b", "c", "d"), ("w",), tuple(
        (v, "w", 2 * m) for v, m in zip("abcd", (8, 3, 5, 7))))
    chi = {"a": 1, "b": 1, "c": 1, "d": 1, "w": -1}
    cert = certify_not_finitely_generated(star, chi)
    assert cert.order == 840
    assert (cert.generators, cert.rank, cert.rank_method) == (4, 3, "witness+minor")


def test_forest_vertices_must_be_graph_names():
    # the forest is checked as a LabeledGraph: bad names, duplicate vertices
    # and duplicate edges are input errors
    for left, right, edges in (
        (("1v",), ("w",), (("1v", "w", 4),)),
        (("v w",), ("w",), ()),
        (("v",), ("v",), ()),
        (("v",), ("w",), (("v", "w", 4), ("w", "v", 6))),
    ):
        with pytest.raises(InputError):
            BipartiteForest(left, right, edges)
    forest = BipartiteForest(("a", "c", "e"), ("b", "d"), (("c", "d", 4), ("a", "b", 6)))
    assert forest.edges == (("a", "b", 6), ("c", "d", 4))
    assert forest.components() == (("a", "b"), ("c", "d"), ("e",))
    assert forest.basepoints == ("a", "c", "e")
    moved = forest.with_basepoints(("e", "d", "b"))
    assert moved.basepoints == ("b", "d", "e")
