"""The rational spherical polyhedron carved out of the character sphere.

Each piece is a sub-sphere: the unit-sphere trace of the common zero set of
finitely many rational linear forms in the vertex values.  Two families are
enumerated: dominance pieces (all values on a closed neighborhood vanish)
and disconnection pieces (values vanish on a set Y1 and selected even-label
edge sums vanish, so that deleting those edges disconnects the full subgraph
away from Y1).  Membership of a character is decided exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .characters import Character, parse_rational
from .errors import InputError
from .graphs import LabeledGraph, full_subgraph, is_connected

DOMINANCE = "dominance"
DISCONNECTION = "disconnection"


@dataclass(frozen=True)
class LinearForm:
    """A rational linear form on vertex values, stored as sorted (vertex,
    coefficient) pairs with zero coefficients omitted."""

    coeffs: tuple

    @classmethod
    def from_mapping(cls, mapping: dict, graph: LabeledGraph) -> "LinearForm":
        idx = graph.index
        pairs = []
        for v, c in mapping.items():
            if v not in idx:
                raise InputError(f"unknown vertex {v!r} in linear form")
            c = Fraction(c)
            if c != 0:
                pairs.append((v, c))
        pairs.sort(key=lambda p: idx[p[0]])
        return cls(tuple(pairs))

    def evaluate(self, values: dict) -> Fraction:
        return sum((c * values[v] for v, c in self.coeffs), Fraction(0))

    def vector(self, graph: LabeledGraph) -> list:
        out = [Fraction(0)] * len(graph.vertices)
        for v, c in self.coeffs:
            out[graph.index[v]] = c
        return out

    def to_json_dict(self) -> dict:
        return {v: str(c) for v, c in self.coeffs}


@dataclass(frozen=True)
class PieceOrigin:
    kind: str
    zero_set: tuple
    cut_edges: tuple = ()

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind, "zero_set": list(self.zero_set)}
        if self.kind == DISCONNECTION:
            out["cut_edges"] = [[u, v] for u, v in self.cut_edges]
        return out


@dataclass(frozen=True)
class SubSphere:
    forms: tuple
    origin: PieceOrigin

    def contains(self, chi: Character) -> bool:
        values = chi.values
        return all(f.evaluate(values) == 0 for f in self.forms)

    def to_json_dict(self) -> dict:
        return {
            "forms": [f.to_json_dict() for f in self.forms],
            "origin": self.origin.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# spans of unit forms and edge sums


def _span(forms, graph: LabeledGraph):
    """Rank and vertex labels of the span of forms c*e_v and c*(e_u + e_v).

    Such forms are the half edges and negative edges of a signed graph on
    the vertices, and their span is its frame matroid (Zaslavsky, "Signed
    graphs", 1982).  A union-find tracks each vertex's colour relative to
    its root: an edge sum joins opposite colours, a unit form is the pair
    (v, v), and a component that closes a same-colour cycle is full and
    merges into an extra ground component.  The rank is n minus the number
    of balanced components.  ``labels`` maps a vertex to None in a full
    component and to (root, colour) in a balanced one.  A form with no
    terms is skipped; any other form is an InputError.
    """
    idx = graph.index
    ground = len(idx)  # the component every full component merges into
    comp = list(range(ground + 1))
    colour = [0] * (ground + 1)
    for terms in (f.coeffs for f in forms if f.coeffs):
        (u, a), (v, b) = (terms * 2)[:2]
        if len(terms) > 2 or a != b:
            raise InputError(f"the form on {[w for w, _ in terms]} is not a unit form or edge sum")
        u, v = idx[u], idx[v]
        if comp[u] == comp[v] and colour[u] != colour[v]:
            continue
        source, target = (comp[u], ground) if comp[u] == comp[v] else sorted((comp[u], comp[v]))
        flip = colour[u] ^ colour[v] ^ 1
        for w in range(ground + 1):
            if comp[w] == source:
                comp[w], colour[w] = target, colour[w] ^ flip
    labels = {v: None if comp[i] == ground else (comp[i], colour[i]) for v, i in idx.items()}
    return ground - len(set(comp[:ground]) - {ground}), labels


def _holds(labels, form) -> bool:
    """Whether a rational form lies in the span labelled by ``_span``: on
    each balanced component its coefficients on the two colours have equal
    sums.  Full components accept any coefficients."""
    balance = {}
    for v, c in form.coeffs:
        if labels[v] is not None:
            root, colour = labels[v]
            balance[root] = balance.get(root, 0) + (-c if colour else c)
    return not any(balance.values())


def subsphere_contained(a: SubSphere, b: SubSphere, graph: LabeledGraph) -> bool:
    """Whether every character killed by a's forms (unit forms and edge sums)
    is killed by b's (any rational forms): b's forms lie in the span of a's."""
    _, labels = _span(a.forms, graph)
    return all(_holds(labels, f) for f in b.forms)


# ---------------------------------------------------------------------------
# piece enumeration


def _unit_forms(graph, vertices):
    idx = graph.index
    return tuple(
        LinearForm.from_mapping({v: 1}, graph)
        for v in sorted(vertices, key=idx.__getitem__)
    )


def dominance_pieces(graph: LabeledGraph) -> list:
    """One candidate piece per vertex whose closed neighborhood is proper:
    all values on the neighborhood vanish.  Exact duplicates are dropped."""
    pieces = []
    seen = set()
    for x in graph.vertices:
        closed = set(graph.neighbors(x)) | {x}
        if len(closed) == len(graph.vertices):
            continue
        forms = _unit_forms(graph, closed)
        if forms in seen:
            continue
        seen.add(forms)
        origin = PieceOrigin(DOMINANCE, tuple(sorted(closed, key=graph.index.__getitem__)))
        pieces.append(SubSphere(forms, origin))
    return pieces


def _cut_candidates_for(graph: LabeledGraph, rest: tuple):
    """Subset-minimal even-label cuts of the full subgraph on ``rest``.

    Returns each cut as a tuple of edges, in deterministic order, the empty
    cut first when the subgraph is already disconnected.
    """
    sub = full_subgraph(graph, rest)
    removable = [e for e in sub.edges if e[2] > 2 and e[2] % 2 == 0]
    found = []
    out = []
    for size in range(len(removable) + 1):
        for cut in combinations(range(len(removable)), size):
            cut_set = set(cut)
            if any(prev <= cut_set for prev in found):
                continue
            cut_edges = {removable[i] for i in cut}
            remaining = LabeledGraph(sub.vertices, tuple(e for e in sub.edges if e not in cut_edges))
            if is_connected(remaining):
                continue
            found.append(cut_set)
            out.append(tuple(removable[i] for i in sorted(cut_set)))
    return out


def disconnection_pieces(graph: LabeledGraph) -> list:
    """Candidate pieces from vanishing sets Y1 plus even-label cuts
    disconnecting the rest, enumerated by increasing |Y1| then cut size.
    Nothing is pruned here; ``complement_polyhedron`` does that."""
    verts = graph.vertices
    n = len(verts)
    idx = graph.index
    pieces = []
    for size in range(0, max(n - 1, 0)):
        for y1 in combinations(verts, size):
            rest = tuple(v for v in verts if v not in y1)
            for cut in _cut_candidates_for(graph, rest):
                forms = list(_unit_forms(graph, y1))
                for u, v, _ in cut:
                    forms.append(LinearForm.from_mapping({u: 1, v: 1}, graph))
                origin = PieceOrigin(
                    DISCONNECTION,
                    tuple(sorted(y1, key=idx.__getitem__)),
                    tuple((u, v) for u, v, _ in cut),
                )
                pieces.append(SubSphere(tuple(forms), origin))
    return pieces


@dataclass(frozen=True)
class SphericalPolyhedron:
    graph: LabeledGraph
    pieces: tuple

    def contains(self, chi: Character) -> bool:
        return polyhedron_contains(self, chi)

    def to_json_dict(self) -> dict:
        return {"pieces": [p.to_json_dict() for p in self.pieces]}


def _piece_sort_key(piece: SubSphere, graph: LabeledGraph):
    idx = graph.index
    forms_key = tuple(
        tuple((idx[v], c) for v, c in f.coeffs) for f in piece.forms
    )
    return (len(piece.forms), forms_key, piece.origin.kind)


def complement_polyhedron(graph: LabeledGraph) -> SphericalPolyhedron:
    """All candidate pieces, pruned once: a piece whose solution set lies
    inside another piece's is removed, as is any piece forcing the whole
    character to vanish.  Candidates are visited by (rank, canonical key),
    ties keeping the enumeration-earlier piece, and the result is sorted
    canonically."""
    n = len(graph.vertices)
    ranked = []
    for piece in dominance_pieces(graph) + disconnection_pieces(graph):
        rank, labels = _span(piece.forms, graph)
        if rank < n:
            ranked.append((rank, _piece_sort_key(piece, graph), piece, labels))
    ranked.sort(key=lambda r: r[:2])
    kept = []
    for _, key, piece, labels in ranked:
        if not any(all(_holds(labels, f) for f in k.forms) for _, k in kept):
            kept.append((key, piece))
    kept.sort(key=lambda k: k[0])
    return SphericalPolyhedron(graph, tuple(piece for _, piece in kept))


def polyhedron_contains(polyhedron: SphericalPolyhedron, chi: Character) -> bool:
    if chi.graph != polyhedron.graph:
        raise InputError("character carrier differs from the polyhedron's graph")
    return any(piece.contains(chi) for piece in polyhedron.pieces)


def polyhedron_from_json(graph: LabeledGraph, data: dict) -> SphericalPolyhedron:
    """Rebuild a polyhedron from its JSON dict (inverse of to_json_dict).

    A missing key, a value of the wrong shape, an unknown piece kind or an
    origin naming an unknown vertex is an InputError."""
    pieces = []
    try:
        for pd in data["pieces"]:
            forms = []
            for fd in pd["forms"]:
                mapping = {v: parse_rational(str(c)) for v, c in fd.items()}
                forms.append(LinearForm.from_mapping(mapping, graph))
            od = pd["origin"]
            if od["kind"] not in (DOMINANCE, DISCONNECTION):
                raise InputError(f"unknown piece kind {od['kind']!r}")
            origin = PieceOrigin(
                od["kind"],
                tuple(od["zero_set"]),
                tuple((u, v) for u, v in od.get("cut_edges", [])),
            )
            unknown = set(origin.zero_set).union(*origin.cut_edges) - set(graph.index)
            if unknown:
                raise InputError(f"piece origin names unknown vertices {sorted(unknown)}")
            pieces.append(SubSphere(tuple(forms), origin))
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"polyhedron JSON lacks the key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError):
        raise InputError("malformed polyhedron JSON") from None
    return SphericalPolyhedron(graph, tuple(pieces))
