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
from functools import cached_property
from math import lcm

from .characters import Character, dead_edges, living_subgraph
from .errors import InputError, MathError
from .fields import QQ, ZZ, CycloNum, CyclotomicField
from .graphs import LabeledGraph, all_labels_even, connected_components, cycle_rank
from .laurent import LaurentPoly
from .linalg import PolyMatrix, matrix_rank, rank_mod_p

NOT_FINITELY_GENERATED = "not_finitely_generated"
INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class BipartiteForest:
    """Vertex sides ``left``/``right``, acyclic cross edges labeled 2m (m >= 2),
    and one basepoint per connected component (isolated vertices are their
    own components)."""

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
        if cycle_rank(graph) != 0:
            raise MathError("forest edges contain a cycle")
        comps = connected_components(graph)
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
        object.__setattr__(self, "_components", tuple(comps))

    @property
    def vertices(self) -> tuple:
        return self.left + self.right

    def components(self) -> tuple:
        return self._components

    @cached_property
    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for v, w, label in self.edges:
            adj[v].append((w, label))
            adj[w].append((v, label))
        return adj

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

    def matrix(self) -> PolyMatrix:
        return PolyMatrix([list(r) for r in self.rows])

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


def _var(name, variables, domain=ZZ):
    return LaurentPoly.variable(name, variables, domain)


def _cyclotomic_sum_row(v, w, label, variables):
    """1 + vw + ... + (vw)^(m-1) for label = 2m."""
    m = label // 2
    vw = _var(v, variables) * _var(w, variables)
    total = LaurentPoly.constant(1, variables, ZZ)
    power = LaurentPoly.constant(1, variables, ZZ)
    for _ in range(m - 1):
        power = power * vw
        total = total + power
    return total


def _edge_rows(forest: BipartiteForest):
    """The generators (v, w) for v left and w right, their positions, the
    zero entry, and one cyclotomic-sum row per tree edge with its labels."""
    variables = forest.vertices
    generators = tuple((v, w) for v in forest.left for w in forest.right)
    gen_pos = {g: i for i, g in enumerate(generators)}
    zero = LaurentPoly.zero(variables, ZZ)
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
    one = LaurentPoly.constant(1, variables, ZZ)
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


def koszul_differential(k: int, element, variables, domain=ZZ) -> dict:
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
    one = LaurentPoly.constant(domain.one, variables, domain)

    def term(name):
        p = _var(name, variables, domain) - one
        return p if sign > 0 else -p

    if k == 1:
        (v,) = sorted_elt
        return {(): term(v)}
    if k == 2:
        a, b = sorted_elt
        return {(a,): term(b), (b,): -term(a)}
    a, b, c = sorted_elt
    return {(b, c): term(a), (a, c): -term(b), (a, b): term(c)}


def apply_differential(k: int, element_dict: dict, variables, domain=ZZ) -> dict:
    """Extend the differential linearly to a combination of basis wedges."""
    out: dict = {}
    zero = LaurentPoly.zero(variables, domain)
    for basis, coeff in element_dict.items():
        for lower, poly in koszul_differential(k, basis, variables, domain).items():
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
    zeros = [v for v in graph.vertices if chi.values[v] == 0]
    if zeros:
        raise MathError(f"character vanishes on {zeros}; full support required")
    living = living_subgraph(chi)
    comps = connected_components(living)
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
    dead = set(dead_edges(chi))
    cross = []
    for u, v, label in graph.edges:
        if (u in side_a) == (v in side_a):
            continue
        if (u, v, label) not in dead:
            raise MathError(f"cross edge ({u}, {v}) is not dead")
        cross.append((u, v, label) if u in side_a else (v, u, label))
    return BipartiteForest(left, right, tuple(cross))


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
    (vw maps to zeta^k, k = M/m), and a coefficient/exponent image for every
    vertex (vertex maps to coeff * x^exp)."""

    order: int
    roots: tuple
    images: dict
    domain: object

    def x_images(self) -> dict:
        """Each vertex image as a one-term Laurent polynomial in x."""
        return {
            v: LaurentPoly.monomial(coeff, (exp,), ("x",), self.domain)
            for v, (coeff, exp) in self.images.items()
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
        images[base] = (domain.one, values[base])
        queue = deque([base])
        while queue:
            cur = queue.popleft()
            c_cur, e_cur = images[cur]
            for nbr, _ in forest.adjacency[cur]:
                if nbr in images:
                    continue
                pair = (cur, nbr) if cur in lset else (nbr, cur)
                lam = domain.zeta_power(root_of[pair])
                images[nbr] = (lam / c_cur, -e_cur)
                if -e_cur != values[nbr]:
                    raise MathError("propagated exponent disagrees with the character")
                queue.append(nbr)
    missing = [v for v in forest.vertices if v not in images]
    if missing:
        raise MathError(f"vertices unreachable from basepoints: {missing}")
    for v, w, label in forest.edges:
        lam = domain.one if order == 1 else domain.zeta_power(root_of[(v, w)])
        cv, ev = images[v]
        cw, ew = images[w]
        if cv * cw != lam or ev + ew != 0:
            raise MathError("specialization failed a tree-edge consistency check")
    return Specialization(order, roots, images, domain)


def specialize(pres: ModulePresentation, forest: BipartiteForest, chi) -> PolyMatrix:
    """Map every relation coefficient through the vertex images, landing in
    one Laurent variable x over Q or a cyclotomic field."""
    return _specialized_matrix(pres, specialization_data(forest, chi).x_images())


def _specialized_matrix(pres: ModulePresentation, images: dict) -> PolyMatrix:
    return PolyMatrix([[entry.substitute(images) for entry in row] for row in pres.rows])


# ---------------------------------------------------------------------------
# rank certificates

WITNESS_MODULAR = "witness+modular"
BAREISS = "bareiss"

# The modular lower bound sends x to _EVALUATION_POINT and zeta_M to a
# primitive M-th root of unity modulo the first prime p = 1 (mod M) above
# _PRIME_FLOOR.
_PRIME_FLOOR = 2**31
_EVALUATION_POINT = 3
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on the first twelve prime bases, exact for n < 3.1e23."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes_with_roots(order: int):
    """Yield (p, r) for the primes p = 1 (mod order) above the floor, in
    increasing order, with r a primitive order-th root of unity mod p."""
    factors = [q for q in range(2, order + 1) if order % q == 0 and _is_prime(q)]
    p = _PRIME_FLOOR + 1 + (-_PRIME_FLOOR) % order
    while True:
        if _is_prime(p):
            h = 2
            while True:
                r = pow(h, (p - 1) // order, p)
                if all(pow(r, order // q, p) != 1 for q in factors):
                    break
                h += 1
            yield p, r
        p += order


def _power_basis(coeff) -> tuple:
    """Rational coordinates of a coefficient in the power basis of zeta."""
    return coeff.coords if isinstance(coeff, CycloNum) else (coeff,)


def _residue(coeff, p: int, zeta: int) -> int:
    """Image in F_p of a rational or cyclotomic coefficient, zeta -> zeta."""
    total = 0
    for q in reversed(_power_basis(coeff)):
        if q.denominator % p == 0:
            raise ZeroDivisionError(f"denominator of {q} vanishes mod {p}")
        total = (total * zeta + q.numerator * pow(q.denominator, -1, p)) % p
    return total


def _modular_rank(matrix: PolyMatrix, order: int) -> int:
    """Rank of the specialized matrix at x = _EVALUATION_POINT modulo the first
    usable prime: a ring homomorphism, so never above the exact rank."""
    for p, zeta in _primes_with_roots(order):
        try:
            rows = [
                [
                    sum(_residue(c, p, zeta) * pow(_EVALUATION_POINT, e, p)
                        for (e,), c in entry.terms.items())
                    for entry in row
                ]
                for row in matrix.entries
            ]
        except ZeroDivisionError:
            continue
        return rank_mod_p(rows, p)


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


def _entry_string(poly: LaurentPoly) -> str:
    """A specialized entry as a Laurent polynomial in x and zeta over Q, from
    each coefficient's coordinates in the power basis of zeta."""
    terms = {}
    for (e,), c in poly.terms.items():
        for i, q in enumerate(_power_basis(c)):
            if q:
                terms[(e, i)] = q
    return LaurentPoly(("x", "zeta"), terms, QQ).to_string()


@dataclass(frozen=True)
class Certificate:
    """Outcome of the non-finite-generation test for a forest and character.

    ``rank_method`` says how the rank was proved; ``witness`` holds the
    ((v, w), entry string) pairs of the verified kernel vector, or None when
    it failed its check."""

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
            "witness": None if self.witness is None
            else {f"({v},{w})": s for (v, w), s in self.witness},
        }


def certify_not_finitely_generated(forest: BipartiteForest, chi) -> Certificate:
    """Rank certificate: with g generators and specialized relation rank r,
    r < g certifies non-finite generation of the kernel-restricted module.

    The rank is proved in two exact steps.  The witness u_{v,w} =
    (phi(v) - 1)(phi(w) - 1) is nonzero and every specialized row kills it
    (edge rows vanish, difference rows cancel), so r <= g - 1.  The modular
    image of the matrix cannot have a larger rank, so an F_p rank of g - 1
    gives r >= g - 1.  When either step fails, Bareiss elimination gives r.
    """
    pres = forest_presentation(forest)
    spec = specialization_data(forest, chi)
    images = spec.x_images()
    matrix = _specialized_matrix(pres, images)
    g = len(pres.generators)
    witness = _witness(images, pres.generators, spec.domain)
    if not _kills(matrix, witness, LaurentPoly.zero(("x",), spec.domain)):
        witness = None
    if witness is not None and _modular_rank(matrix, spec.order) == g - 1:
        r, method = g - 1, WITNESS_MODULAR
    else:
        r, method = matrix_rank(matrix), BAREISS
    base_exps = tuple((b, spec.images[b][1]) for b in forest.basepoints)
    conclusion = NOT_FINITELY_GENERATED if r < g else INCONCLUSIVE
    report = None if witness is None else tuple(
        zip(pres.generators, map(_entry_string, witness)))
    return Certificate(spec.order, spec.roots, base_exps, g, r, conclusion, method, report)
