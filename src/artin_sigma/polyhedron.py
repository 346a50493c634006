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
# exact linear algebra on forms


def _rref(rows):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv if x else x for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def _in_rowspan(vector, rref_rows, pivots) -> bool:
    vec = list(vector)
    for row, c in zip(rref_rows, pivots):
        if vec[c] != 0:
            f = vec[c]
            vec = [x - f * y for x, y in zip(vec, row)]
    return not any(vec)


def subsphere_contained(a: SubSphere, b: SubSphere, graph: LabeledGraph) -> bool:
    """Solution-set containment: every character killed by a's forms is
    killed by b's, i.e. b's forms lie in the span of a's."""
    rows, pivots = _rref([f.vector(graph) for f in a.forms])
    return all(_in_rowspan(f.vector(graph), rows, pivots) for f in b.forms)


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
        rows, pivots = _rref([f.vector(graph) for f in piece.forms])
        if len(rows) < n:
            ranked.append((len(rows), _piece_sort_key(piece, graph), piece, rows, pivots))
    ranked.sort(key=lambda r: r[:2])
    kept = []
    for _, key, piece, rows, pivots in ranked:
        if not any(all(_in_rowspan(v, rows, pivots) for v in k_vectors) for _, _, k_vectors in kept):
            kept.append((key, piece, [f.vector(graph) for f in piece.forms]))
    kept.sort(key=lambda k: k[0])
    return SphericalPolyhedron(graph, tuple(piece for _, piece, _ in kept))


def polyhedron_contains(polyhedron: SphericalPolyhedron, chi: Character) -> bool:
    if chi.graph != polyhedron.graph:
        raise InputError("character carrier differs from the polyhedron's graph")
    return any(piece.contains(chi) for piece in polyhedron.pieces)


def polyhedron_from_json(graph: LabeledGraph, data: dict) -> SphericalPolyhedron:
    """Rebuild a polyhedron from its JSON dict (inverse of to_json_dict)."""
    pieces = []
    for pd in data["pieces"]:
        forms = []
        for fd in pd["forms"]:
            mapping = {v: parse_rational(str(c)) for v, c in fd.items()}
            forms.append(LinearForm.from_mapping(mapping, graph))
        od = pd["origin"]
        origin = PieceOrigin(
            od["kind"],
            tuple(od["zero_set"]),
            tuple((u, v) for u, v in od.get("cut_edges", [])),
        )
        pieces.append(SubSphere(tuple(forms), origin))
    return SphericalPolyhedron(graph, tuple(pieces))
