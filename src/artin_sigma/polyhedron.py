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

MAX_POLYHEDRON_VERTICES = 12
"""Most vertices ``complement_polyhedron`` and ``disconnection_pieces``
accept; a larger graph is an InputError before anything is enumerated.  The
candidates are bounded by the 2^n zero sets times the bonds of each rest."""

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


def _check_vertex_count(graph: LabeledGraph) -> None:
    if len(graph.vertices) > MAX_POLYHEDRON_VERTICES:
        raise InputError(f"graph has {len(graph.vertices)} vertices, above "
                         f"MAX_POLYHEDRON_VERTICES = {MAX_POLYHEDRON_VERTICES}")


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


def _component(start: int, within: int, adj) -> int:
    """The mask of the vertices of ``within`` reached from the mask ``start``
    along the neighbour masks ``adj``, without leaving ``within``."""
    seen = frontier = start
    while frontier:
        reach = 0
        while frontier:
            low = frontier & -frontier
            reach |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = reach & within & ~seen
        seen |= frontier
    return seen


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


def _bonds(rest: int, fixed: list, removable) -> list:
    """The edge masks of the bonds of the connected rest.

    ``fixed`` holds neighbour masks by the edges that cannot be cut and
    ``removable`` the (edge number, i, j) of each even label > 2 edge.
    Contracting the fixed edges of the rest leaves classes.  A bond is the
    set of edges between the classes of a set S holding the first class and
    the others, R - S, where S and R - S are each connected.  S grows by one
    neighbouring class at a time, which is then taken or excluded for good,
    so each S is met once; a branch ends once its excluded classes lie in
    two components of the classes left, since R - S must hold them all."""
    classes, left = [], rest
    while left:
        classes.append(_component(left & -left, rest, fixed))
        left ^= classes[-1]
    of = {i: c for c, members in enumerate(classes) for i in range(members.bit_length())
          if members >> i & 1}
    qadj, delta = [0] * len(classes), [0] * len(classes)
    for k, i, j in removable:
        if rest >> i & rest >> j & 1 and of[i] != of[j]:
            a, b = of[i], of[j]
            qadj[a] |= 1 << b
            qadj[b] |= 1 << a
            delta[a] ^= 1 << k
            delta[b] ^= 1 << k
    every = (1 << len(classes)) - 1
    out = []

    def grow(s, cut, frontier, excluded):
        other = every ^ s
        if not other:
            return
        reach = _component(excluded & -excluded or other & -other, other, qadj)
        if excluded & ~reach:
            return
        if reach == other:
            out.append(cut)
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            c = low.bit_length() - 1
            grow(s | low, cut ^ delta[c], (frontier | qadj[c]) & ~(s | low | excluded), excluded)
            excluded |= low

    grow(1, delta[0], qadj[0], 0)
    return out


def _cuts(graph: LabeledGraph) -> list:
    """(Y1 mask, cut mask) pairs: each vanishing set Y1 of at most n - 2
    vertices by increasing size in ``combinations`` order, with each
    subset-minimal cut of the rest by increasing size then edge positions.
    A cut is a mask over edge numbers of even edges with label > 2 inside
    the rest whose deletion disconnects it; the empty cut alone when the
    rest is already disconnected.

    A subset-minimal cut of a connected rest R is a bond: the removable
    edges between S and R - S, where S and R - S each induce a connected
    graph and no edge that cannot be cut joins them.  Deleting a cut F
    leaves a component S; the edges between S and R - S are removable, lie
    in F and disconnect, so they are F.  Were R - S disconnected, the
    edges at one of its components would be a smaller cut.  Conversely,
    putting back any edge of a bond joins its two connected sides.  So
    ``_bonds`` lists them, growing one side as Tsukiyama et al. do ("An
    algorithm to enumerate all cutsets of a graph in linear time per
    cutset", JACM 27(4), 1980)."""
    adj, ends = _adjacency(graph)
    n = len(adj)
    removable, fixed = [], [0] * n
    for k, ((i, j), (_, _, label)) in enumerate(zip(ends, graph.edges)):
        if label > 2 and label % 2 == 0:
            removable.append((k, i, j))
        else:
            fixed[i] |= 1 << j
            fixed[j] |= 1 << i
    positions = range(len(ends))
    everything = (1 << n) - 1
    out = []
    for size in range(max(n - 1, 0)):
        for y1 in combinations(range(n), size):
            units = sum(1 << i for i in y1)
            rest = everything ^ units
            if _component(rest & -rest, rest, adj) != rest:
                out.append((units, 0))
                continue
            bonds = _bonds(rest, fixed, removable)
            bonds.sort(key=lambda cut: (cut.bit_count(), _members(cut, positions)))
            out.extend((units, cut) for cut in bonds)
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
    _check_vertex_count(graph)
    return [_piece(graph, DISCONNECTION, units, cut) for units, cut in _cuts(graph)]


@dataclass(frozen=True)
class SphericalPolyhedron:
    graph: LabeledGraph
    pieces: tuple

    def contains(self, chi: Character) -> bool:
        return polyhedron_contains(self, chi)

    def to_json_dict(self) -> dict:
        return {"pieces": [p.to_json_dict() for p in self.pieces]}


def _forest_size(pairs) -> int:
    """The number of edges in a spanning forest of the graph ``pairs`` form."""
    parent = {}
    size = 0
    for i, j in pairs:
        while i in parent:
            i = parent[i]
        while j in parent:
            j = parent[j]
        if i != j:
            parent[i] = j
            size += 1
    return size


def complement_polyhedron(graph: LabeledGraph) -> SphericalPolyhedron:
    """The disconnection candidates, pruned once: a piece whose solution set
    lies inside another piece's is removed.  Candidates are visited by rank,
    then by the canonical key (number of forms, forms as vertex indices);
    the result is sorted canonically.

    Dominance candidates are never kept, so they are not enumerated.  Take
    a proper closed neighbourhood N[x] and a vertex y outside it.  Then
    |N(x)| <= n - 2, and x is isolated in the rest V - N(x), which also
    holds y; so the rest is disconnected and (Y1 = N(x), empty cut) is a
    disconnection candidate.  Its forms are a proper subset of the
    dominance piece's, so it has lower rank and is visited first, and its
    solution set strictly contains the dominance piece's.  Kept, or dropped
    for a kept piece whose span lies in its own, it leaves a kept piece
    whose span lies in the dominance piece's, which is then dropped.

    A candidate's span is read off its shape, with no ``_span`` call.  Its
    cut is empty or the bond between the two sides S and R - S of the rest
    R = V - Y1 (``_cuts``), so every cut edge crosses from S to R - S: the
    edge sums form a bipartite signed graph on R, and the unit forms sit on
    Y1, which no cut edge touches.  So
    - the full vertices are exactly Y1: a component of the cut edges holds
      no unit vertex and, being bipartite, no odd cycle;
    - the rank is |Y1| plus the edges of a spanning forest of the cut,
      n minus the cut's components on R, so it is below n and no candidate
      forces the whole character to vanish;
    - an edge sum lies in the span when both ends are in Y1, or when its
      ends are in one cut component with opposite colours, that is on
      opposite sides of S; every edge between S and R - S is removable, so
      is in the cut.  The spanned edges are those inside Y1 and the cut;
    - so distinct (Y1, cut) pairs have distinct spans, and no span is
      visited twice.
    A candidate is dropped when some kept piece (u, c) has u inside Y1 and
    c inside its spanned edges, ``subsphere_contained``'s test.  Only kept
    pieces are built as ``SubSphere``s."""
    _check_vertex_count(graph)
    n = len(graph.vertices)
    _, ends = _adjacency(graph)
    ranked = []
    last = None
    for units, cut in _cuts(graph):
        if units != last:  # one Y1's cuts come together
            last = units
            inner = sum(1 << k for k, (i, j) in enumerate(ends) if units >> i & units >> j & 1)
        pairs = _members(cut, ends)
        forms = tuple((i,) for i in range(n) if units >> i & 1) + pairs
        rank = units.bit_count() + _forest_size(pairs)
        ranked.append((rank, (len(forms), forms), units, cut, inner | cut))
    ranked.sort(key=lambda r: r[:2])
    kept = []  # (canonical key, unit mask, cut-edge mask)
    for _, order, units, cut, spanned in ranked:
        if not any(u & ~units == 0 and c & ~spanned == 0 for _, u, c in kept):
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
