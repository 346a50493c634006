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
generated.  A certificate reads that deficit off the specialization and a
kernel witness alone, without building the presentation.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import lcm
from operator import mul

from .characters import Character, living_subgraph
from .errors import InputError, MathError
from .fields import MAX_CYCLOTOMIC_ORDER, QQ, CyclotomicField
from .graphs import LabeledGraph, connected_components, members
from .laurent import LaurentPoly
from .linalg import PolyMatrix
from .value import Value

NOT_FINITELY_GENERATED = "not_finitely_generated"

MAX_RELATION_ENTRIES = 250_000
"""Most entries, rows times generators, that ``forest_presentation`` builds;
it limits that builder only, since no certificate builds a presentation.
The rows themselves are sparse (one entry per edge row, two per difference
row), but the limit counts rows times generators, the size of the dense
matrix ``specialize`` returns.  ``forest_presentation`` counts them from
|L|, |R| and |E| and refuses a larger forest with an InputError before any
row is built.  The largest accepted split label-4 cycle is C24: 1,586 rows
over 144 generators, 228,384 entries of which 3,170 are stored.  C26 is
refused."""

MAX_CERTIFICATE_SIZE = 160_000
"""Most generators times field degree (phi(M), or 1 over Q) that a
certificate may have.  It counts what a certificate computes: one witness
entry per generator, whose coordinates per x exponent are as many as the
degree.  ``certify_not_finitely_generated`` refuses a larger forest with an
InputError before any witness entry is built.  The largest accepted split
label-4 cycle is C800 (160,000 generators, M = 2, degree 1), certified by
``kt-certify`` in about 3.3 s of process time and 113 MB peak RSS on a
2-core Xeon with Python 3.11; C802 is refused.  At M = 997 (degree 996) at
most 160 generators pass: C24 with label 1994 takes about 0.12 s and
16 MB, and C26 with that label is refused.  160 witness entries as dense
in zeta as M = 997 allows (four x exponents of 996 coordinates each) take
about 2.8 s in process, so the limit bounds both ends alike."""


class BipartiteForest(Value):
    """Vertex sides ``left``/``right``, acyclic cross edges labeled 2m (m >= 2),
    and one basepoint per connected component (isolated vertices are their
    own components).  ``graph`` is the validated ``LabeledGraph`` on
    ``left + right`` and the edges."""

    _fields = ("left", "right", "edges", "basepoints")

    def __init__(self, left: tuple, right: tuple, edges: tuple, basepoints: tuple = None):
        left = tuple(left)
        right = tuple(right)
        if not left or not right:
            raise InputError("both sides of the forest must be nonempty")
        lset, rset = set(left), set(right)
        norm_edges = []
        for edge in edges:
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

        super().__init__(left, right, graph.edges, basepoints)
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "_components", tuple(comps))

    @property
    def vertices(self) -> tuple:
        return self.left + self.right

    def components(self) -> tuple:
        return self._components

    def with_basepoints(self, basepoints) -> "BipartiteForest":
        return BipartiteForest(self.left, self.right, self.edges, tuple(basepoints))


class ModulePresentation(Value, frozen=False):
    """Relation rows over generators f_{v,w}.  Each row is a dict
    {generator position: Laurent polynomial in the forest vertices} that
    holds only the row's nonzero entries."""

    _fields = ("variables", "generators", "rows", "row_labels")


def _cyclotomic_sum_row(v, w, label, variables):
    """1 + vw + ... + (vw)^(m-1) for label = 2m, built as one term dict."""
    ends = (variables.index(v), variables.index(w))
    return LaurentPoly(variables, {tuple(k if i in ends else 0 for i in range(len(variables))): 1
                                   for k in range(label // 2)}, QQ)


def _half_labels(forest: BipartiteForest) -> list:
    """m = label/2 for each edge; one above MAX_CYCLOTOMIC_ORDER is an
    InputError naming its edge."""
    for v, w, label in forest.edges:
        if label // 2 > MAX_CYCLOTOMIC_ORDER:
            raise InputError(
                f"edge ({v}, {w}) label {label} needs cyclotomic order {label // 2}, "
                f"above MAX_CYCLOTOMIC_ORDER = {MAX_CYCLOTOMIC_ORDER}")
    return [label // 2 for _, _, label in forest.edges]


def forest_presentation(forest: BipartiteForest) -> ModulePresentation:
    """The defining presentation: over the generators (v, w), v left and w
    right, one cyclotomic-sum row per tree edge, then the two difference
    families over all generator pairs.  A half-label above
    MAX_CYCLOTOMIC_ORDER and a presentation of more than
    MAX_RELATION_ENTRIES entries are InputErrors, raised before any row is
    built."""
    _half_labels(forest)
    gens = len(forest.left) * len(forest.right)
    # one row per tree edge, then one per pair of left or of right vertices
    # and vertex of the other side
    nrows = len(forest.edges) + gens * (len(forest.vertices) - 2) // 2
    if nrows * gens > MAX_RELATION_ENTRIES:
        raise InputError(f"the forest presentation has {nrows} rows over {gens} generators, "
                         f"above MAX_RELATION_ENTRIES = {MAX_RELATION_ENTRIES} entries")
    variables = forest.vertices
    generators = tuple((v, w) for v in forest.left for w in forest.right)
    gen_pos = {g: i for i, g in enumerate(generators)}
    rows = [{gen_pos[(v, w)]: _cyclotomic_sum_row(v, w, label, variables)}
            for v, w, label in forest.edges]
    labels = [f"edge:{v}~{w}" for v, w, _ in forest.edges]
    one = LaurentPoly.constant(1, variables)
    # each t - 1 and its negative is built once and shared by the rows
    less_one = {t: LaurentPoly.variable(t, variables) - one for t in variables}
    minus = {t: -p for t, p in less_one.items()}
    for i, v in enumerate(forest.left):
        for t in forest.left[i + 1:]:
            for w in forest.right:
                rows.append({gen_pos[(v, w)]: less_one[t], gen_pos[(t, w)]: minus[v]})
                labels.append(f"left:{v},{t}|{w}")
    for v in forest.left:
        for i, w in enumerate(forest.right):
            for s in forest.right[i + 1:]:
                rows.append({gen_pos[(v, w)]: less_one[s], gen_pos[(v, s)]: minus[w]})
                labels.append(f"right:{v}|{w},{s}")

    return ModulePresentation(variables, generators, rows, tuple(labels))


# ---------------------------------------------------------------------------
# the dead-edge forest of a graph with a character


def dead_edge_forest(chi: Character, bipartition=None) -> BipartiteForest:
    """Bipartite forest of dead edges across a 2-split of the living subgraph.

    The character must be nonzero on every vertex.  Without an explicit
    bipartition the living subgraph must have exactly two connected
    components; with one, each side must be a union of living components.
    Under full support the living subgraph keeps every edge that is not
    dead, so the two ends of such an edge share a living component and so a
    side: every cross edge is dead.
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
    # the forest puts each cross edge's left end first
    return BipartiteForest(left, right, tuple(e for e in graph.edges
                                              if (e[0] in side_a) != (e[1] in side_a)))


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


class Specialization(Value):
    """Root-of-unity data: cyclotomic order M, per-edge root exponents
    (vw maps to zeta^k, k = M/m), and for every vertex a pair (j, e) of a
    zeta exponent mod M and an x exponent (vertex maps to zeta^j * x^e).

    A specialized entry is a residue map {(x exponent, zeta residue mod M):
    coefficient}: a monomial prod v^a_v goes to the key (sum a_v e_v,
    sum a_v j_v mod M), so specializing and multiplying add integers.  A
    zero test reduces the map to power-basis coordinates per x exponent,
    through the field's ``add_power``."""

    _fields = ("order", "roots", "images", "domain")

    @property
    def degree(self) -> int:
        """The length of the power basis: phi(M), or 1 over Q."""
        return self.domain.degree if self.order > 1 else 1


def specialization_data(forest: BipartiteForest, chi) -> Specialization:
    """The specialization at ``chi``, which must be integer-valued, nonzero
    on the forest's vertices and opposite at the two ends of each edge; a
    half-label above MAX_CYCLOTOMIC_ORDER is an InputError, raised first.
    The vertex images are found breadth first from each basepoint b, which maps
    to x^chi(b); a vertex first reached from v = zeta^j x^e along an edge
    with root exponent k maps to zeta^(k - j) x^(-e).

    Nothing more is checked, because nothing more can fail.
    ``BipartiteForest`` puts one basepoint in each component, so every
    vertex is reached.  In a forest the only visited neighbour of the vertex
    being expanded is the one it was reached from, so every forest edge is
    a search tree edge: on each, j_v + j_w = k mod M and e_v + e_w = 0, and
    as chi is opposite along each edge, e_v = chi(v) from the basepoint
    out."""
    ms = _half_labels(forest)
    values = _integral_values(chi, forest.vertices)
    for v, w, _ in forest.edges:
        if values[v] + values[w] != 0:
            raise MathError(
                f"tree edge ({v}, {w}) needs opposite values, got {values[v]} and {values[w]}"
            )
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
                queue.append(nbr)
    return Specialization(order, roots, images, domain)


def specialize(pres: ModulePresentation, forest: BipartiteForest, chi) -> PolyMatrix:
    """Map every relation coefficient through the vertex images, landing in
    one Laurent variable x over Q or a cyclotomic field: each entry's residue
    map reduced to power-basis coordinates."""
    spec = specialization_data(forest, chi)
    domain = spec.domain

    def entry(residues):
        coords = _coordinates(residues, spec)
        return LaurentPoly(("x",), {(e,): c[0] if domain is QQ else domain.element(c)
                                    for e, c in coords.items()}, domain)

    return PolyMatrix([[entry(row.get(j, {})) for j in range(len(pres.generators))]
                       for row in _specialized_matrix(pres, spec)])


def _specialized_matrix(pres: ModulePresentation, spec: Specialization) -> list:
    """Each row of the specialized matrix as {column: residue map} over its
    nonzero entries."""
    order = spec.order
    js = [spec.images[v][0] for v in pres.variables]
    es = [spec.images[v][1] for v in pres.variables]
    rows = []
    for row in pres.rows:
        out = {}
        for col, entry in row.items():
            acc = out[col] = {}
            for exps, c in entry.terms.items():
                key = (sum(map(mul, exps, es)), sum(map(mul, exps, js)) % order)
                acc[key] = acc.get(key, 0) + (c.numerator if c.denominator == 1 else c)
        rows.append(out)
    return rows


def _coordinates(residues: dict, spec: Specialization) -> dict:
    """{x exponent: power-basis coordinates} of a residue map, with the zero
    ones dropped, so the map is zero exactly when this is empty.  Over Q
    every residue is 0, which is the one coordinate."""
    n = spec.degree
    out = {}
    for (e, r), c in residues.items():
        coords = out.get(e)
        if coords is None:
            coords = out[e] = [0] * n
        if r < n:
            coords[r] += c
        elif c:
            spec.domain.add_power(coords, c, r)
    return {e: coords for e, coords in out.items() if any(coords)}


# ---------------------------------------------------------------------------
# rank certificates

WITNESS_MINOR = "witness+minor"


def _witness(spec: Specialization, generators: tuple) -> list:
    """u_{v,w} = (phi(v) - 1)(phi(w) - 1) = phi(v)phi(w) - phi(v) - phi(w) + 1
    for each generator (v, w), as a residue map of at most four terms."""
    out = []
    for v, w in generators:
        (jv, ev), (jw, ew) = spec.images[v], spec.images[w]
        u = {}
        for key, c in (((ev + ew, (jv + jw) % spec.order), 1), ((ev, jv), -1), ((ew, jw), -1),
                       ((0, 0), 1)):
            u[key] = u.get(key, 0) + c
        out.append(u)
    return out


def _entry_string(coords: dict) -> str:
    """A specialized entry, given by its power-basis coordinates per x
    exponent, as a Laurent polynomial in x and zeta over Q."""
    terms = {(e, i): q for e, v in coords.items() for i, q in enumerate(v) if q}
    return LaurentPoly(("x", "zeta"), terms, QQ).to_string()


class Certificate(Value):
    """Outcome of the non-finite-generation test for a forest and character:
    a rank deficit of the specialized relation matrix, which shows that the
    module restricted to the kernel of chi is not finitely generated.

    ``rank_method`` says how the rank is proved; ``witness`` holds the
    ((v, w), entry string) pairs of the kernel vector."""

    _fields = ("order", "roots", "basepoint_exponents", "generators", "rank", "conclusion",
               "rank_method", "witness")

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
    """Rank certificate: with g generators, the specialized relation matrix
    has rank g - 1 < g, which certifies that the module restricted to the
    kernel of chi is not finitely generated.

    Two exact checks prove the rank, on every forest and character that
    ``specialization_data`` accepts; neither can fail there, so neither is
    run here, and no relation row is built.  The tests run both, on the
    expanded polynomials of ``tests/specialization_oracle.py``.

    - The witness u_{v,w} = (phi(v) - 1)(phi(w) - 1) is nonzero and every
      specialized row kills it, so r <= g - 1.  An edge row
      1 + phi(v)phi(w) + ... + (phi(v)phi(w))^(m-1) vanishes, since
      phi(v)phi(w) is a primitive m-th root of unity.  A difference row
      (phi(t) - 1) f_{v,w} - (phi(v) - 1) f_{t,w} gives
      (phi(t) - 1)(phi(v) - 1)(phi(w) - 1) twice with opposite signs.
    - With v0 = left[0] and w0 = right[0], the rows right:v0|w0,s on the
      columns (v0, s) for s != w0, then the rows left:v0,t|w on the columns
      (t, w) for t != v0 and every w, form a lower-triangular minor with
      diagonal entries -(phi(w0) - 1) and -(phi(v0) - 1).  These are
      nonzero, since phi(v) = zeta^j * x^chi(v) with chi(v) != 0, so
      r >= g - 1.

    The witness is formed on residue maps (see ``Specialization``) and
    printed from their power-basis coordinates.  A forest whose g times
    the field degree is above MAX_CERTIFICATE_SIZE is an InputError, raised
    before any witness entry is built.
    """
    spec = specialization_data(forest, chi)
    g = len(forest.left) * len(forest.right)
    if g * spec.degree > MAX_CERTIFICATE_SIZE:
        raise InputError(f"the certificate has {g} generators over a field of degree {spec.degree}, "
                         f"above MAX_CERTIFICATE_SIZE = {MAX_CERTIFICATE_SIZE}")
    generators = tuple((v, w) for v in forest.left for w in forest.right)
    base_exps = tuple((b, spec.images[b][1]) for b in forest.basepoints)
    report = tuple((gen, _entry_string(_coordinates(u, spec)))
                   for gen, u in zip(generators, _witness(spec, generators)))
    return Certificate(spec.order, spec.roots, base_exps, g, g - 1, NOT_FINITELY_GENERATED,
                       WITNESS_MINOR, report)
