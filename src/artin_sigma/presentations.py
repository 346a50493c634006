"""Module presentations over bipartite forests and their specializations.

A labeled bipartite forest (sides V and W, tree edges labeled 2m with
m >= 2) determines a module over the group ring of the free abelian group on
V + W: one generator f_{v,w} per pair, a cyclotomic-sum relation
(1 + vw + ... + (vw)^(m-1)) f_{v,w} per tree edge, and difference relations
(t-1) f_{v,w} - (v-1) f_{t,w} and (s-1) f_{v,w} - (w-1) f_{v,s} across pairs.

Sending each tree-edge product vw to a primitive root of unity and each
vertex to a monomial x^chi(vertex) turns the relation matrix into a matrix
over a Laurent polynomial ring in one variable; a rank deficit there
certifies that the module restricted to the kernel of chi is not finitely
generated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .characters import Character, living_subgraph
from .errors import InputError, MathError
from .fields import MAX_CYCLOTOMIC_ORDER, QQ, CycloNum, CyclotomicField
from .graphs import LabeledGraph, all_labels_even, connected_components, members
from .laurent import LaurentPoly
from .linalg import PolyMatrix

NOT_FINITELY_GENERATED = "not_finitely_generated"

MAX_RELATION_ENTRIES = 250_000
"""Most entries, rows times generators, that the defining presentation of a
forest may have.  ``_edge_rows`` counts them from |L|, |R| and |E| and
refuses a larger forest with an InputError before any row is built.  The
largest accepted split label-4 cycle is C24: 1,586 rows over 144
generators, 228,384 entries, certified by ``kt-certify`` in about 0.5 s and
33 MB on a 2-core Xeon with Python 3.11; with label 1994 (M = 997) it takes about 15 s and 90 MB, most of it
in the cyclotomic-sum rows.  ``bipartition_presentation`` has at most twice
as many rows."""


@dataclass(frozen=True)
class BipartiteForest:
    """Vertex sides ``left``/``right``, acyclic cross edges labeled 2m (m >= 2),
    and one basepoint per connected component (isolated vertices are their
    own components).  ``graph`` is the validated ``LabeledGraph`` on
    ``left + right`` and the edges."""

    left: tuple
    right: tuple
    edges: tuple
    basepoints: tuple = None

    def __post_init__(self):
        left = tuple(self.left)
        right = tuple(self.right)
        if not left or not right:
            raise InputError("both sides of the forest must be nonempty")
        lset, rset = set(left), set(right)
        norm_edges = []
        for edge in self.edges:
            try:
                v, w, label = edge
            except (TypeError, ValueError):
                raise InputError(f"bad forest edge {edge!r}") from None
            if v in rset and w in lset:
                v, w = w, v
            if v not in lset or w not in rset:
                raise InputError(f"edge ({v!r}, {w!r}) must join the two sides")
            if not isinstance(label, int) or label < 4 or label % 2:
                raise InputError(f"forest edge label must be even and >= 4, got {label!r}")
            norm_edges.append((v, w, label))
        # the graph rejects bad names, duplicate vertices and duplicate edges
        graph = LabeledGraph(left + right, tuple(norm_edges))
        comps = connected_components(graph)
        # a forest has one edge fewer than vertices in each component
        if len(graph.edges) != len(graph.vertices) - len(comps):
            raise MathError("forest edges contain a cycle")
        comp_of = {v: i for i, comp in enumerate(comps) for v in comp}

        basepoints = self.basepoints
        if basepoints is None:
            basepoints = tuple(c[0] for c in comps)
        else:
            by_comp = {}
            for b in basepoints:
                if b not in comp_of:
                    raise InputError(f"basepoint {b!r} is not a forest vertex")
                k = comp_of[b]
                if k in by_comp:
                    raise InputError(f"two basepoints in one component: {by_comp[k]!r}, {b!r}")
                by_comp[k] = b
            if len(by_comp) != len(comps):
                raise InputError("every component needs exactly one basepoint")
            basepoints = tuple(by_comp[i] for i in range(len(comps)))

        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "edges", graph.edges)
        object.__setattr__(self, "basepoints", basepoints)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_components", tuple(comps))

    @property
    def vertices(self) -> tuple:
        return self.left + self.right

    def components(self) -> tuple:
        return self._components

    def with_basepoints(self, basepoints) -> "BipartiteForest":
        return BipartiteForest(self.left, self.right, self.edges, tuple(basepoints))


@dataclass
class ModulePresentation:
    """Relation rows over generators f_{v,w}; entries are Laurent polynomials
    in the forest vertices."""

    variables: tuple
    generators: tuple
    rows: list
    row_labels: tuple = ()

    def canonical_form(self) -> frozenset:
        """Order-independent fingerprint: variables and generators sorted,
        zero rows dropped, each row sign-normalized and serialized."""
        var_order = tuple(sorted(self.variables))
        gen_order = tuple(sorted(self.generators))
        gen_pos = {g: i for i, g in enumerate(self.generators)}
        out = set()
        for row in self.rows:
            entries = [row[gen_pos[g]].reorder_variables(var_order) for g in gen_order]
            if all(e.is_zero() for e in entries):
                continue
            sign = 0
            for e in entries:
                if not e.is_zero():
                    lead = max(e.terms)
                    c = e.terms[lead]
                    sign = 1 if c > 0 else -1
                    break
            if sign < 0:
                entries = [-e for e in entries]
            out.add(tuple(tuple(sorted(e.terms.items())) for e in entries))
        return frozenset(out)


def _var(name, variables):
    return LaurentPoly.variable(name, variables)


def _cyclotomic_sum_row(v, w, label, variables):
    """1 + vw + ... + (vw)^(m-1) for label = 2m."""
    m = label // 2
    vw = _var(v, variables) * _var(w, variables)
    total = LaurentPoly.constant(1, variables)
    power = LaurentPoly.constant(1, variables)
    for _ in range(m - 1):
        power = power * vw
        total = total + power
    return total


def _edge_rows(forest: BipartiteForest):
    """The generators (v, w) for v left and w right, their positions, the
    zero entry, and one cyclotomic-sum row per tree edge with its labels.
    A half-label above MAX_CYCLOTOMIC_ORDER and a presentation of more than
    MAX_RELATION_ENTRIES entries are InputErrors, raised before any row is
    built."""
    for v, w, label in forest.edges:
        if label // 2 > MAX_CYCLOTOMIC_ORDER:
            raise InputError(
                f"edge ({v}, {w}) label {label} needs cyclotomic order {label // 2}, "
                f"above MAX_CYCLOTOMIC_ORDER = {MAX_CYCLOTOMIC_ORDER}")
    gens = len(forest.left) * len(forest.right)
    # one row per tree edge, then one per pair of left or of right vertices
    # and vertex of the other side
    rows = len(forest.edges) + gens * (len(forest.vertices) - 2) // 2
    if rows * gens > MAX_RELATION_ENTRIES:
        raise InputError(f"the forest presentation has {rows} rows over {gens} generators, "
                         f"above MAX_RELATION_ENTRIES = {MAX_RELATION_ENTRIES} entries")
    variables = forest.vertices
    generators = tuple((v, w) for v in forest.left for w in forest.right)
    gen_pos = {g: i for i, g in enumerate(generators)}
    zero = LaurentPoly.zero(variables)
    rows = []
    labels = []
    for v, w, label in forest.edges:
        row = [zero] * len(generators)
        row[gen_pos[(v, w)]] = _cyclotomic_sum_row(v, w, label, variables)
        rows.append(row)
        labels.append(f"edge:{v}~{w}")
    return generators, gen_pos, zero, rows, labels


def forest_presentation(forest: BipartiteForest) -> ModulePresentation:
    """The defining presentation: cyclotomic-sum rows for tree edges plus the
    two difference families over all generator pairs."""
    variables = forest.vertices
    generators, gen_pos, zero, rows, labels = _edge_rows(forest)
    one = LaurentPoly.constant(1, variables)
    for i, v in enumerate(forest.left):
        for t in forest.left[i + 1:]:
            for w in forest.right:
                row = [zero] * len(generators)
                row[gen_pos[(v, w)]] = _var(t, variables) - one
                row[gen_pos[(t, w)]] = -(_var(v, variables) - one)
                rows.append(row)
                labels.append(f"left:{v},{t}|{w}")
    for v in forest.left:
        for i, w in enumerate(forest.right):
            for s in forest.right[i + 1:]:
                row = [zero] * len(generators)
                row[gen_pos[(v, w)]] = _var(s, variables) - one
                row[gen_pos[(v, s)]] = -(_var(w, variables) - one)
                rows.append(row)
                labels.append(f"right:{v}|{w},{s}")

    return ModulePresentation(variables, generators, rows, tuple(labels))


# ---------------------------------------------------------------------------
# Koszul differentials


def _perm_sign(seq) -> int:
    sign = 1
    items = list(seq)
    for i in range(len(items)):
        for j in range(i + 1, len(items)):
            if items[i] > items[j]:
                sign = -sign
    return sign


def koszul_differential(k: int, element, variables) -> dict:
    """Differential of a degree-k exterior basis element (k in {1, 2, 3}).

    Returns a mapping from degree-(k-1) basis tuples (sorted in variable
    order; the empty tuple in degree 0) to Laurent-polynomial coefficients:

        d1(e_v)            = (v - 1)
        d2(e_a ^ e_b)      = (b - 1) e_a - (a - 1) e_b
        d3(e_a ^ e_b ^ e_c) = (a - 1) e_b^e_c - (b - 1) e_a^e_c + (c - 1) e_a^e_b

    for a < b < c; unsorted input is first straightened with the wedge sign.
    """
    element = tuple(element)
    if k != len(element):
        raise InputError("degree does not match the element length")
    if k not in (1, 2, 3):
        raise InputError("only degrees 1..3 are supported")
    pos = {v: i for i, v in enumerate(variables)}
    for v in element:
        if v not in pos:
            raise InputError(f"unknown variable {v!r} in wedge")
    if len(set(element)) != len(element):
        return {}
    order = [pos[v] for v in element]
    sign = _perm_sign(order)
    sorted_elt = tuple(sorted(element, key=pos.__getitem__))
    one = LaurentPoly.constant(1, variables)

    def term(name):
        p = _var(name, variables) - one
        return p if sign > 0 else -p

    if k == 1:
        (v,) = sorted_elt
        return {(): term(v)}
    if k == 2:
        a, b = sorted_elt
        return {(a,): term(b), (b,): -term(a)}
    a, b, c = sorted_elt
    return {(b, c): term(a), (a, c): -term(b), (a, b): term(c)}


def apply_differential(k: int, element_dict: dict, variables) -> dict:
    """Extend the differential linearly to a combination of basis wedges."""
    out: dict = {}
    zero = LaurentPoly.zero(variables)
    for basis, coeff in element_dict.items():
        for lower, poly in koszul_differential(k, basis, variables).items():
            out[lower] = out.get(lower, zero) + coeff * poly
    return {b: p for b, p in out.items() if not p.is_zero()}


# ---------------------------------------------------------------------------
# the two-sided construction on a graph with a character


def dead_edge_forest(chi: Character, bipartition=None) -> BipartiteForest:
    """Bipartite forest of dead edges across a 2-split of the living subgraph.

    The character must be nonzero on every vertex.  Without an explicit
    bipartition the living subgraph must have exactly two connected
    components; with one, each side must be a union of living components.
    """
    graph = chi.graph
    if chi.zero:
        raise MathError(f"character vanishes on {list(members(chi.zero, graph.vertices))}; "
                        "full support required")
    comps = connected_components(living_subgraph(chi))
    if bipartition is None:
        if len(comps) != 2:
            names = [list(c) for c in comps]
            raise MathError(
                f"living subgraph has {len(comps)} components {names}; "
                "pass an explicit bipartition merging them into two sides"
            )
        side_a, side_b = set(comps[0]), set(comps[1])
    else:
        try:
            raw_a, raw_b = bipartition
        except (TypeError, ValueError):
            raise InputError("bipartition must be a pair of vertex collections") from None
        side_a, side_b = set(raw_a), set(raw_b)
        unknown = (side_a | side_b) - graph.index.keys()
        if unknown:
            raise InputError(f"bipartition names unknown vertices {sorted(unknown)}")
        if side_a & side_b:
            raise InputError("bipartition sides overlap")
        if side_a | side_b != set(graph.vertices):
            raise InputError("bipartition must cover every vertex")
        if not side_a or not side_b:
            raise InputError("bipartition sides must be nonempty")
        for comp in comps:
            cs = set(comp)
            if not (cs <= side_a or cs <= side_b):
                raise MathError(f"living component {list(comp)} is split by the bipartition")
    if graph.vertices[0] in side_b:
        side_a, side_b = side_b, side_a
    left = tuple(v for v in graph.vertices if v in side_a)
    right = tuple(v for v in graph.vertices if v in side_b)
    for k, (u, v, _) in enumerate(graph.edges):
        if (u in side_a) != (v in side_a) and not chi.dead >> k & 1:
            raise MathError(f"cross edge ({u}, {v}) is not dead")
    # the forest puts each cross edge's left end first
    return BipartiteForest(left, right, tuple(e for e in graph.edges
                                              if (e[0] in side_a) != (e[1] in side_a)))


def bipartition_presentation(chi: Character, bipartition=None) -> ModulePresentation:
    """Presentation of the wedge module determined by the dead edges across a
    2-split of the living subgraph of an even-labeled graph.

    Generators are the cross pairs e_v ^ e_w (v left, w right); rows are the
    cyclotomic sums of the cross edges together with the projections of all
    degree-3 Koszul differentials d3(e_v ^ e_w ^ e_t), where the projection
    kills same-side wedges and orients cross wedges left-first.
    """
    graph = chi.graph
    if not all_labels_even(graph):
        raise MathError("construction requires every edge label to be even")
    forest = dead_edge_forest(chi, bipartition)
    variables = forest.vertices
    generators, gen_pos, zero, rows, labels = _edge_rows(forest)
    lset = set(forest.left)
    for v, w in generators:
        for t in variables:
            if t == v or t == w:
                continue
            row = [zero] * len(generators)
            nonzero = False
            for (p, q), poly in koszul_differential(3, (v, w, t), variables).items():
                if p in lset and q not in lset:
                    gen, sign = (p, q), 1
                elif q in lset and p not in lset:
                    gen, sign = (q, p), -1
                else:
                    continue
                contrib = poly if sign > 0 else -poly
                row[gen_pos[gen]] = row[gen_pos[gen]] + contrib
                nonzero = nonzero or not contrib.is_zero()
            if nonzero:
                rows.append(row)
                labels.append(f"wedge:{v},{w},{t}")

    return ModulePresentation(variables, generators, rows, tuple(labels))


# ---------------------------------------------------------------------------
# specialization at roots of unity


def _integral_values(chi, vertices) -> dict:
    if isinstance(chi, Character):
        raw = chi.values
    else:
        raw = dict(chi)
    out = {}
    for v in vertices:
        if v not in raw:
            raise MathError(f"no character value for vertex {v!r}")
        val = Fraction(raw[v])
        if val.denominator != 1:
            raise MathError(f"character must be integer-valued, got {val} at {v!r}")
        if val == 0:
            raise MathError(f"character vanishes at {v!r}")
        out[v] = int(val)
    return out


@dataclass(frozen=True)
class Specialization:
    """Root-of-unity data: cyclotomic order M, per-edge root exponents
    (vw maps to zeta^k, k = M/m), and for every vertex a pair (j, e) of a
    zeta exponent mod M and an x exponent (vertex maps to zeta^j * x^e)."""

    order: int
    roots: tuple
    images: dict
    domain: object

    def x_images(self) -> dict:
        """Each vertex image as a one-term Laurent polynomial in x."""
        return {
            v: LaurentPoly.monomial(
                self.domain.zeta_power(j) if j else self.domain.one, (exp,), ("x",), self.domain)
            for v, (j, exp) in self.images.items()
        }


def specialization_data(forest: BipartiteForest, chi) -> Specialization:
    values = _integral_values(chi, forest.vertices)
    for v, w, _ in forest.edges:
        if values[v] + values[w] != 0:
            raise MathError(
                f"tree edge ({v}, {w}) needs opposite values, got {values[v]} and {values[w]}"
            )
    ms = [label // 2 for _, _, label in forest.edges]
    order = lcm(*ms) if ms else 1
    domain = CyclotomicField(order) if order > 1 else QQ
    roots = tuple((v, w, order // (label // 2)) for v, w, label in forest.edges)
    root_of = {(v, w): k for v, w, k in roots}

    lset = set(forest.left)
    images = {}
    for base in forest.basepoints:
        images[base] = (0, values[base])
        queue = deque([base])
        while queue:
            cur = queue.popleft()
            j_cur, e_cur = images[cur]
            for nbr in forest.graph.adjacency[cur]:
                if nbr in images:
                    continue
                pair = (cur, nbr) if cur in lset else (nbr, cur)
                images[nbr] = ((root_of[pair] - j_cur) % order, -e_cur)
                if -e_cur != values[nbr]:
                    raise MathError("propagated exponent disagrees with the character")
                queue.append(nbr)
    missing = [v for v in forest.vertices if v not in images]
    if missing:
        raise MathError(f"vertices unreachable from basepoints: {missing}")
    for v, w, _ in forest.edges:
        jv, ev = images[v]
        jw, ew = images[w]
        if (jv + jw - root_of[(v, w)]) % order or ev + ew != 0:
            raise MathError("specialization failed a tree-edge consistency check")
    return Specialization(order, roots, images, domain)


def specialize(pres: ModulePresentation, forest: BipartiteForest, chi) -> PolyMatrix:
    """Map every relation coefficient through the vertex images, landing in
    one Laurent variable x over Q or a cyclotomic field."""
    return _specialized_matrix(pres, specialization_data(forest, chi).x_images())


def _specialized_matrix(pres: ModulePresentation, images: dict) -> PolyMatrix:
    zero = LaurentPoly.zero(("x",), next(iter(images.values())).domain)
    return PolyMatrix([[entry.substitute(images) if entry else zero for entry in row]
                       for row in pres.rows])


# ---------------------------------------------------------------------------
# rank certificates

WITNESS_MINOR = "witness+minor"


def _witness(images: dict, generators: tuple, domain) -> list:
    """u_{v,w} = (phi(v) - 1)(phi(w) - 1) for each generator (v, w)."""
    one = LaurentPoly.constant(domain.one, ("x",), domain)
    return [(images[v] - one) * (images[w] - one) for v, w in generators]


def _kills(matrix: PolyMatrix, witness: list, zero: LaurentPoly) -> bool:
    """True when the witness is nonzero and every row of the matrix kills it."""
    if not any(witness):
        return False
    for row in matrix.entries:
        if sum((e * u for e, u in zip(row, witness) if e), zero):
            return False
    return True


def _minor(forest: BipartiteForest) -> tuple:
    """Row labels and generators of the g - 1 minor, in order.  With
    v0 = left[0] and w0 = right[0]: the rows right:v0|w0,s on the columns
    (v0, s) for s != w0, then the rows left:v0,t|w on the columns (t, w) for
    t != v0 and every w."""
    (v0, *ts), (w0, *ss) = forest.left, forest.right
    labels = [f"right:{v0}|{w0},{s}" for s in ss]
    labels += [f"left:{v0},{t}|{w}" for t in ts for w in forest.right]
    columns = [(v0, s) for s in ss] + [(t, w) for t in ts for w in forest.right]
    return labels, columns


def _triangular(matrix: PolyMatrix, pres: ModulePresentation, forest: BipartiteForest) -> bool:
    """True when the minor is lower-triangular with a nonzero diagonal."""
    row_at = {label: i for i, label in enumerate(pres.row_labels)}
    col_at = {gen: j for j, gen in enumerate(pres.generators)}
    labels, columns = _minor(forest)
    cols = [col_at[gen] for gen in columns]
    for i, label in enumerate(labels):
        row = matrix.entries[row_at[label]]
        if not row[cols[i]] or any(row[j] for j in cols[i + 1:]):
            return False
    return True


def _entry_string(poly: LaurentPoly) -> str:
    """A specialized entry as a Laurent polynomial in x and zeta over Q, from
    each coefficient's coordinates in the power basis of zeta."""
    terms = {}
    for (e,), c in poly.terms.items():
        for i, q in enumerate(c.coords if isinstance(c, CycloNum) else (c,)):
            if q:
                terms[(e, i)] = q
    return LaurentPoly(("x", "zeta"), terms, QQ).to_string()


@dataclass(frozen=True)
class Certificate:
    """Outcome of the non-finite-generation test for a forest and character.

    ``rank_method`` says how the rank was proved; ``witness`` holds the
    ((v, w), entry string) pairs of the verified kernel vector."""

    order: int
    roots: tuple
    basepoint_exponents: tuple
    generators: int
    rank: int
    conclusion: str
    rank_method: str
    witness: tuple

    def to_json_dict(self) -> dict:
        return {
            "M": self.order,
            "roots": {f"({v},{w})": f"zeta^{k}" for v, w, k in self.roots},
            "basepoint_exponents": {v: e for v, e in self.basepoint_exponents},
            "generators": self.generators,
            "rank": self.rank,
            "conclusion": self.conclusion,
            "rank_method": self.rank_method,
            "witness": {f"({v},{w})": s for (v, w), s in self.witness},
        }


def certify_not_finitely_generated(forest: BipartiteForest, chi) -> Certificate:
    """Rank certificate: with g generators, the specialized relation rank is
    g - 1 < g, which certifies non-finite generation of the kernel-restricted
    module.

    Two exact checks prove the rank.  The witness u_{v,w} =
    (phi(v) - 1)(phi(w) - 1) is nonzero and every specialized row kills it
    (edge rows vanish, difference rows cancel), so r <= g - 1.  The minor of
    ``_minor`` is lower-triangular with diagonal entries -(phi(w0) - 1) and
    -(phi(v0) - 1), nonzero since phi(v) = zeta^j * x^chi(v) with
    chi(v) != 0, so r >= g - 1.  Neither check can fail on a forest and
    character that ``specialization_data`` accepts; a failure raises
    RuntimeError naming the check.
    """
    pres = forest_presentation(forest)
    spec = specialization_data(forest, chi)
    images = spec.x_images()
    matrix = _specialized_matrix(pres, images)
    witness = _witness(images, pres.generators, spec.domain)
    if not _kills(matrix, witness, LaurentPoly.zero(("x",), spec.domain)):
        raise RuntimeError("certificate check failed: the witness is not a nonzero kernel vector")
    if not _triangular(matrix, pres, forest):
        raise RuntimeError(
            "certificate check failed: the minor is not triangular with a nonzero diagonal")
    g = len(pres.generators)
    base_exps = tuple((b, spec.images[b][1]) for b in forest.basepoints)
    report = tuple(zip(pres.generators, map(_entry_string, witness)))
    return Certificate(spec.order, spec.roots, base_exps, g, g - 1, NOT_FINITELY_GENERATED,
                       WITNESS_MINOR, report)
