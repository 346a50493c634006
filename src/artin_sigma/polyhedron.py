"""The rational spherical polyhedron carved out of the character sphere.

Each piece is a sub-sphere: the unit-sphere trace of the common zero set of
unit forms e_v and edge sums e_u + e_v.  Dominance pieces zero a closed
neighbourhood; disconnection pieces zero a set Y1 and the sums on even
label > 2 edges whose deletion disconnects the rest.  Each dominance piece
lies inside a disconnection piece, so the polyhedron keeps disconnection
pieces only.  A piece is a unit (vertex) mask and a cut-edge mask; its
forms are derived from its origin, for output only.  A cut edge's sum
vanishes exactly when the edge is dead, so membership is decided exactly
by two mask tests per piece.

>>> from artin_sigma import character, parse_graph
>>> f5 = parse_graph("v a\\nv b\\nv c\\ne a b 4\\ne b c 4\\n")
>>> poly = complement_polyhedron(f5)
>>> len(poly.pieces), poly.contains(character(f5, {"a": 1, "c": -1}))
(3, True)
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from .characters import Character, dead_edges, parse_rational
from .errors import InputError
from .graphs import LabeledGraph

DOMINANCE = "dominance"
DISCONNECTION = "disconnection"
_ONE = Fraction(1)


@dataclass(frozen=True)
class LinearForm:
    """A rational linear form on vertex values, stored as sorted (vertex,
    coefficient) pairs with zero coefficients omitted."""

    coeffs: tuple

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
    """A piece as masks: ``units`` over the vertices, ``cut`` over
    ``graph.edges``.  Built by ``_piece``, which records the origin too."""

    units: int
    cut: int
    origin: PieceOrigin

    @property
    def forms(self) -> tuple:
        """Unit forms in zero-set order, then edge sums in cut order."""
        vertex_sets = [(v,) for v in self.origin.zero_set] + list(self.origin.cut_edges)
        return tuple(LinearForm(tuple((v, _ONE) for v in vs)) for vs in vertex_sets)

    def contains(self, chi: Character) -> bool:
        if _piece(chi.graph, self.origin.kind, self.units, self.cut) != self:
            raise InputError("character carrier differs from the piece's graph")
        zero, dead = _character_masks(chi)
        return self.units & zero == self.units and self.cut & dead == self.cut

    def to_json_dict(self) -> dict:
        return {
            "forms": [f.to_json_dict() for f in self.forms],
            "origin": self.origin.to_json_dict(),
        }


def _members(mask: int, items) -> tuple:
    """The items at the positions set in ``mask``, in order."""
    return tuple(x for k, x in enumerate(items) if mask >> k & 1)


def _character_masks(chi: Character):
    """The vertex mask where chi vanishes and the edge mask of its dead edges
    (``characters.dead_edges``)."""
    zero = sum(1 << i for i, x in enumerate(chi.entries) if not x)
    dead = set(dead_edges(chi))
    return zero, sum(1 << k for k, e in enumerate(chi.graph.edges) if e in dead)


# ---------------------------------------------------------------------------
# spans of unit forms and edge sums


def _span(n: int, units: int, pairs):
    """Rank, full-vertex mask and key of the span of the unit forms e_v (v in
    the mask ``units``) and the edge sums e_i + e_j ((i, j) in ``pairs``).

    Such forms are the half edges and negative edges of a signed graph on
    the n vertices, and their span is its frame matroid (Zaslavsky, "Signed
    graphs", 1982).  A union-find tracks each vertex's colour relative to
    the least index of its component, which has colour 0: an edge sum joins
    opposite colours.  A component is full when it holds a unit vertex or
    an edge sum closes a same-colour (odd) cycle in it; otherwise it is
    balanced.  The rank is n minus the number of balanced components.  The
    key has one label per vertex, None when full and (root, colour) when
    balanced; two sets of forms have the same span exactly when their keys
    are equal.
    """
    comp = list(range(n))
    colour = [0] * n
    odd = 0  # roots whose component closes a same-colour cycle
    for i, j in pairs:
        if comp[i] == comp[j]:
            if colour[i] == colour[j]:
                odd |= 1 << comp[i]
            continue
        source, target = max(comp[i], comp[j]), min(comp[i], comp[j])
        flip = colour[i] ^ colour[j] ^ 1
        for w in range(n):
            if comp[w] == source:
                comp[w], colour[w] = target, colour[w] ^ flip
        odd |= (odd >> source & 1) << target
    full_roots = odd
    for w in range(n):
        full_roots |= (units >> w & 1) << comp[w]
    full = sum(1 << w for w in range(n) if full_roots >> comp[w] & 1)
    key = tuple(None if full >> w & 1 else (comp[w], colour[w]) for w in range(n))
    balanced = sum(1 for w in range(n) if comp[w] == w and not full_roots >> w & 1)
    return n - balanced, full, key


def _spanned(key, pairs) -> int:
    """Mask of the positions in ``pairs`` whose edge sum e_i + e_j lies in the
    span keyed by ``_span``: both ends full, or opposite colours of one
    balanced component."""
    mask = 0
    for k, (i, j) in enumerate(pairs):
        a, b = key[i], key[j]
        if (a is None and b is None) or (a and b and a[0] == b[0] and a[1] != b[1]):
            mask |= 1 << k
    return mask


def subsphere_contained(a: SubSphere, b: SubSphere, graph: LabeledGraph) -> bool:
    """Whether every character killed by a's forms is killed by b's: b's
    unit vertices are full in the span of a's forms and b's cut edges lie
    in it, the test ``complement_polyhedron`` prunes with."""
    adj, ends = _adjacency(graph)
    _, full, key = _span(len(adj), a.units, _members(a.cut, ends))
    return b.units & full == b.units and b.cut & _spanned(key, ends) == b.cut


# ---------------------------------------------------------------------------
# piece enumeration on vertex and edge numbers


def _adjacency(graph: LabeledGraph):
    """Per-vertex neighbour masks and the (i, j) index pair of each edge."""
    idx = graph.index
    adj = [0] * len(idx)
    ends = []
    for u, v, _ in graph.edges:
        i, j = idx[u], idx[v]
        adj[i] |= 1 << j
        adj[j] |= 1 << i
        ends.append((i, j))
    return adj, ends


def _connected(rest: int, adj: list, cut_ends) -> bool:
    """Whether the vertices of the mask ``rest`` stay connected by the edges
    among them once the edges ``cut_ends`` are deleted."""
    adj = list(adj)
    for i, j in cut_ends:
        adj[i] &= ~(1 << j)
        adj[j] &= ~(1 << i)
    seen = frontier = rest & -rest
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & rest & ~seen
        seen |= frontier
    return seen == rest


def _closed_neighborhoods(graph: LabeledGraph) -> list:
    """Distinct proper closed neighbourhoods as vertex masks, in vertex order."""
    adj, _ = _adjacency(graph)
    everything = (1 << len(adj)) - 1
    out = []
    for x, nbrs in enumerate(adj):
        closed = nbrs | 1 << x
        if closed != everything and closed not in out:
            out.append(closed)
    return out


def _cuts(graph: LabeledGraph) -> list:
    """(Y1 mask, cut mask) pairs: each vanishing set Y1 of at most n - 2
    vertices by increasing size in ``combinations`` order, with each
    subset-minimal cut of the rest by increasing size then position.  A cut
    is a mask over edge numbers of even edges with label > 2 inside the rest
    whose deletion disconnects it; the empty cut alone when the rest is
    already disconnected."""
    adj, ends = _adjacency(graph)
    n = len(adj)
    even = [k for k, (_, _, label) in enumerate(graph.edges) if label > 2 and label % 2 == 0]
    out = []
    for size in range(max(n - 1, 0)):
        for y1 in combinations(range(n), size):
            units = sum(1 << i for i in y1)
            rest = ((1 << n) - 1) ^ units
            removable = [k for k in even if rest >> ends[k][0] & rest >> ends[k][1] & 1]
            found = []
            for m in range(len(removable) + 1):
                for cut in combinations(removable, m):
                    mask = sum(1 << k for k in cut)
                    if any(prev & mask == prev for prev in found):
                        continue
                    if _connected(rest, adj, [ends[k] for k in cut]):
                        continue
                    found.append(mask)
                    out.append((units, mask))
    return out


def _piece(graph: LabeledGraph, kind: str, units: int, cut: int) -> SubSphere:
    """The piece killing e_v for v in the vertex mask ``units`` and
    e_u + e_v for each edge in the edge mask ``cut``."""
    zero_set = _members(units, graph.vertices)
    cut_edges = tuple(e[:2] for e in _members(cut, graph.edges))
    return SubSphere(units, cut, PieceOrigin(kind, zero_set, cut_edges))


def dominance_pieces(graph: LabeledGraph) -> list:
    """One candidate piece per vertex whose closed neighborhood is proper:
    all values on the neighborhood vanish.  Exact duplicates are dropped."""
    return [_piece(graph, DOMINANCE, closed, 0) for closed in _closed_neighborhoods(graph)]


def disconnection_pieces(graph: LabeledGraph) -> list:
    """Candidate pieces from vanishing sets Y1 plus even-label cuts
    disconnecting the rest, enumerated by increasing |Y1| then cut size.
    Nothing is pruned here; ``complement_polyhedron`` does that."""
    return [_piece(graph, DISCONNECTION, units, cut) for units, cut in _cuts(graph)]


@dataclass(frozen=True)
class SphericalPolyhedron:
    graph: LabeledGraph
    pieces: tuple

    def contains(self, chi: Character) -> bool:
        return polyhedron_contains(self, chi)

    def to_json_dict(self) -> dict:
        return {"pieces": [p.to_json_dict() for p in self.pieces]}


def complement_polyhedron(graph: LabeledGraph) -> SphericalPolyhedron:
    """The disconnection candidates, pruned once: a piece whose solution set
    lies inside another piece's is removed, as is any piece forcing the
    whole character to vanish.  Candidates are visited by rank, then by the
    canonical key (number of forms, forms as vertex indices); the result is
    sorted canonically.

    Dominance candidates are never kept, so they are not enumerated.  Take
    a proper closed neighbourhood N[x] and a vertex y outside it.  Then
    |N(x)| <= n - 2, and x is isolated in the rest V - N(x), which also
    holds y; so the rest is disconnected and (Y1 = N(x), empty cut) is a
    disconnection candidate.  Its forms are a proper subset of the
    dominance piece's, so it has lower rank and is visited first, and its
    solution set strictly contains the dominance piece's.  Kept, or dropped
    for a kept piece whose span lies in its own, it leaves a kept piece
    whose span lies in the dominance piece's, which is then dropped.

    Every candidate is a unit mask plus a cut-edge mask.  A candidate whose
    span key was already visited is dropped: equal spans contain each
    other, and the earlier one was kept or pruned.  Otherwise it is dropped
    when it lies inside a kept piece by ``subsphere_contained``'s mask
    test.  Only kept pieces are built as ``SubSphere``s."""
    n = len(graph.vertices)
    _, ends = _adjacency(graph)
    ranked = []
    for units, cut in _cuts(graph):
        pairs = _members(cut, ends)
        rank, full, key = _span(n, units, pairs)
        if rank < n:
            forms = tuple((i,) for i in range(n) if units >> i & 1) + pairs
            ranked.append((rank, (len(forms), forms), units, cut, full, key))
    ranked.sort(key=lambda r: r[:2])
    seen = set()
    kept = []  # (canonical key, unit mask, cut-edge mask)
    for _, order, units, cut, full, key in ranked:
        if key in seen:
            continue
        seen.add(key)
        spanned = _spanned(key, ends)
        if not any(u & ~full == 0 and c & ~spanned == 0 for _, u, c in kept):
            kept.append((order, units, cut))
    kept.sort(key=lambda k: k[0])
    pieces = tuple(_piece(graph, DISCONNECTION, units, cut) for _, units, cut in kept)
    return SphericalPolyhedron(graph, pieces)


def polyhedron_contains(polyhedron: SphericalPolyhedron, chi: Character) -> bool:
    if chi.graph != polyhedron.graph:
        raise InputError("character carrier differs from the polyhedron's graph")
    zero, dead = _character_masks(chi)
    return any(p.units & zero == p.units and p.cut & dead == p.cut for p in polyhedron.pieces)


def polyhedron_from_json(graph: LabeledGraph, data: dict) -> SphericalPolyhedron:
    """Rebuild a polyhedron from its JSON dict (inverse of to_json_dict).

    Each piece is rebuilt from its origin, a list of distinct vertices and a
    list of distinct even label > 2 edges.  A missing key, a wrong shape, an
    unknown kind or vertex, an origin breaking those rules, and forms other
    than those the origin gives are InputErrors."""
    idx = graph.index
    edge_no = {frozenset(e[:2]): k for k, e in enumerate(graph.edges)}
    pieces = []
    try:
        for pd in data["pieces"]:
            forms = [{v: parse_rational(str(c)) for v, c in fd.items()} for fd in pd["forms"]]
            unknown = set().union(*forms) - set(idx)
            if unknown:
                raise InputError(f"unknown vertex {min(unknown)!r} in linear form")
            od = pd["origin"]
            kind, zero_set = od["kind"], od["zero_set"]
            if kind not in (DOMINANCE, DISCONNECTION):
                raise InputError(f"unknown piece kind {kind!r}")
            cut_edges = od.get("cut_edges", []) if kind == DISCONNECTION else []
            if not all(isinstance(x, (list, tuple)) for x in (zero_set, cut_edges, *cut_edges)):
                raise InputError("malformed polyhedron JSON: origin entries must be lists")
            unknown = set(zero_set).union(*cut_edges) - set(idx)
            if unknown:
                raise InputError(f"piece origin names unknown vertices {sorted(unknown)}")
            cut = 0
            for u, v in cut_edges:
                label = graph.label(u, v)
                if label == 2 or label % 2:
                    raise InputError(f"cut edge ({u}, {v}) has label {label}, not even and > 2")
                cut |= 1 << edge_no[frozenset((u, v))]
            units = sum(1 << idx[v] for v in set(zero_set))
            if units.bit_count() < len(zero_set) or cut.bit_count() < len(cut_edges):
                raise InputError("piece origin repeats a vertex or a cut edge")
            piece = _piece(graph, kind, units, cut)
            if forms != [dict(f.coeffs) for f in piece.forms]:
                raise InputError("piece forms differ from the forms its origin gives")
            pieces.append(piece)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"polyhedron JSON lacks the key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError):
        raise InputError("malformed polyhedron JSON") from None
    return SphericalPolyhedron(graph, tuple(pieces))
