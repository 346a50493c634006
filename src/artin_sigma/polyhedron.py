"""The rational spherical polyhedron carved out of the character sphere.

Each piece is a sub-sphere: the unit-sphere trace of the common zero set of
unit forms e_v and edge sums e_u + e_v.  Dominance pieces zero a closed
neighbourhood; disconnection pieces zero a set Y1 and the sums on even
label > 2 edges whose deletion disconnects the rest.  Each dominance piece
lies inside a disconnection piece, so the polyhedron keeps disconnection
pieces only.  A piece is its graph, its kind, a unit (vertex) mask and a
cut-edge mask; its zero set, cut edges and forms are read off the masks,
for output only.  A cut edge's sum vanishes exactly when the edge is dead,
so membership is decided exactly by two mask tests per piece, against the
character's ``zero`` and ``dead`` masks.

>>> from artin_sigma import character, parse_graph
>>> f5 = parse_graph("v a\\nv b\\nv c\\ne a b 4\\ne b c 4\\n")
>>> poly = complement_polyhedron(f5)
>>> len(poly.pieces), poly.contains(character(f5, {"a": 1, "c": -1}))
(3, True)
"""

from __future__ import annotations

from itertools import combinations

from .errors import InputError
from .graphs import LabeledGraph, component, components, members
from .value import Value

# ``Character`` in annotations is characters.Character, left unimported:
# polyhedron_from_json is the only code that runs anything from characters.

MAX_POLYHEDRON_VERTICES = 12
"""Most vertices ``complement_polyhedron`` and ``disconnection_pieces``
accept; a larger graph is an InputError before anything is enumerated.  The
build walks at most the 2^n zero sets, only those whose every vertex keeps
two neighbours in the rest.  Each takes the components of its rest from its
parent zero set, searching again only the one that lost the new vertex, and
lists the bonds of a connected rest; a candidate then costs two mask tests
per zeroed vertex (one per component for an empty cut), and the kept pieces
sort by one integer each.  ``disconnection_pieces`` lists the candidates of
every zero set of at most n - 2 vertices."""

DOMINANCE = "dominance"
DISCONNECTION = "disconnection"


class SubSphere(Value):
    """The piece killing e_v for v in the vertex mask ``units`` and
    e_u + e_v for each edge in the mask ``cut`` over ``graph.edges``."""

    __slots__ = _fields = ("graph", "kind", "units", "cut")

    @property
    def zero_set(self) -> tuple:
        return members(self.units, self.graph.vertices)

    @property
    def cut_edges(self) -> tuple:
        return tuple(e[:2] for e in members(self.cut, self.graph.edges))

    @property
    def forms(self) -> tuple:
        """Each form as the tuple of its vertices, every coefficient 1: unit
        forms in zero-set order, then edge sums in cut order."""
        return tuple((v,) for v in self.zero_set) + self.cut_edges

    def contains(self, chi: Character) -> bool:
        if chi.graph != self.graph:
            raise InputError("character carrier differs from the piece's graph")
        return self.units & chi.zero == self.units and self.cut & chi.dead == self.cut

    def to_json_dict(self) -> dict:
        zero_set, cut_edges = self.zero_set, self.cut_edges
        origin = {"kind": self.kind, "zero_set": list(zero_set)}
        if self.kind == DISCONNECTION:
            origin["cut_edges"] = [list(e) for e in cut_edges]
        forms = [{v: "1"} for v in zero_set] + [dict.fromkeys(e, "1") for e in cut_edges]
        return {"forms": forms, "origin": origin}


def _check_vertex_count(graph: LabeledGraph) -> None:
    if len(graph.vertices) > MAX_POLYHEDRON_VERTICES:
        raise InputError(f"graph has {len(graph.vertices)} vertices, above "
                         f"MAX_POLYHEDRON_VERTICES = {MAX_POLYHEDRON_VERTICES}")


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


def subsphere_contained(a: SubSphere, b: SubSphere) -> bool:
    """Whether every character killed by a's forms is killed by b's: b's
    unit vertices are full in the span of a's forms and b's cut edges lie
    in it.  Pieces over two different graphs are an InputError."""
    if a.graph != b.graph:
        raise InputError("the pieces lie over different graphs")
    ends = _ends(a.graph)
    _, full, key = _span(len(a.graph.vertices), a.units, members(a.cut, ends))
    return b.units & full == b.units and b.cut & _spanned(key, ends) == b.cut


# ---------------------------------------------------------------------------
# piece enumeration on vertex and edge numbers


def _ends(graph: LabeledGraph) -> list:
    """The (i, j) vertex positions of each edge."""
    idx = graph.index
    return [(idx[u], idx[v]) for u, v, _ in graph.edges]


def _closed_neighborhoods(graph: LabeledGraph) -> list:
    """Distinct proper closed neighbourhoods as vertex masks, in vertex order."""
    everything = (1 << len(graph.vertices)) - 1
    out = []
    for x, nbrs in enumerate(graph.masks):
        closed = nbrs | 1 << x
        if closed != everything and closed not in out:
            out.append(closed)
    return out


def _split_edges(graph: LabeledGraph):
    """Neighbour masks, edge index pairs, neighbour masks by the edges that
    cannot be cut, and the (edge number, i, j) of each removable edge."""
    adj, ends = graph.masks, _ends(graph)
    removable, fixed = [], [0] * len(adj)
    for k, (i, j) in enumerate(ends):
        if graph.removable >> k & 1:
            removable.append((k, i, j))
        else:
            fixed[i] |= 1 << j
            fixed[j] |= 1 << i
    return adj, ends, fixed, removable


def _bonds(rest: int, fixed: list, removable) -> list:
    """The bonds of the connected rest, as (edge mask, side) pairs.

    ``fixed`` and ``removable`` are as ``_split_edges`` gives them.
    Contracting the fixed edges of the rest leaves classes.  A bond is the
    set of edges between the classes of a set S holding the first class and
    the others, R - S, where S and R - S are each connected; the side is S
    as a vertex mask, the union of its classes.  S grows by one
    neighbouring class at a time, which is then taken or excluded for good,
    so each S is met once; a branch ends once its excluded classes lie in
    two components of the classes left, since R - S must hold them all."""
    classes = components(rest, fixed)
    of = [0] * len(fixed)
    for c, cls in enumerate(classes):
        while cls:
            of[(cls & -cls).bit_length() - 1] = c
            cls &= cls - 1
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

    def grow(s, cut, side, frontier, excluded):
        other = every ^ s
        if not other:
            return
        reach = component(excluded & -excluded or other & -other, other, qadj)
        if excluded & ~reach:
            return
        if reach == other:
            out.append((cut, side))
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            c = low.bit_length() - 1
            grow(s | low, cut ^ delta[c], side | classes[c],
                 (frontier | qadj[c]) & ~(s | low | excluded), excluded)
            excluded |= low

    grow(1, delta[0], classes[0], qadj[0], 0)
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
    adj, ends, fixed, removable = _split_edges(graph)
    n = len(adj)
    positions = range(len(ends))
    everything = (1 << n) - 1
    out = []
    for size in range(max(n - 1, 0)):
        for y1 in combinations(range(n), size):
            units = sum(1 << i for i in y1)
            rest = everything ^ units
            if component(rest & -rest, rest, adj) != rest:
                out.append((units, 0))
                continue
            bonds = [cut for cut, _ in _bonds(rest, fixed, removable)]
            bonds.sort(key=lambda cut: (cut.bit_count(), members(cut, positions)))
            out.extend((units, cut) for cut in bonds)
    return out


def dominance_pieces(graph: LabeledGraph) -> list:
    """One candidate piece per vertex whose closed neighborhood is proper:
    all values on the neighborhood vanish.  Exact duplicates are dropped."""
    return [SubSphere(graph, DOMINANCE, closed, 0) for closed in _closed_neighborhoods(graph)]


def disconnection_pieces(graph: LabeledGraph) -> list:
    """Candidate pieces from vanishing sets Y1 plus even-label cuts
    disconnecting the rest, enumerated by increasing |Y1| then cut size.
    Nothing is dropped here."""
    _check_vertex_count(graph)
    return [SubSphere(graph, DISCONNECTION, units, cut) for units, cut in _cuts(graph)]


class SphericalPolyhedron(Value):
    _fields = ("graph", "pieces")

    def contains(self, chi: Character) -> bool:
        return polyhedron_contains(self, chi)

    def to_json_dict(self) -> dict:
        return {"pieces": [p.to_json_dict() for p in self.pieces]}


def complement_polyhedron(graph: LabeledGraph) -> SphericalPolyhedron:
    """The candidates, dominance and disconnection, whose span holds no other
    candidate's span, sorted by the canonical key (number of forms, forms as
    vertex indices), which one integer per piece encodes.  A candidate
    (Y1, F) of ``_cuts`` is kept when every vertex of Y1 has a neighbour in
    every component of G[R] - F, R = V - Y1: the components of the rest for
    an empty cut, where Y1 is then an inclusion-minimal vertex separator
    (Berry, Bordat and Cogis, IJFCS 11(3), 2000), and the two sides of a
    bond.

    The span is read off the shape.  F is empty or the bond between the
    sides S and R - S of R, so its edge sums form a bipartite signed graph
    on R, and the unit forms sit on Y1, which no cut edge touches.  So the
    full vertices are exactly Y1, and an edge sum lies in the span when
    both ends are in Y1 or it joins S to R - S, and then it is in F.  So
    (Y1', F')'s span lies in (Y1, F)'s, as ``subsphere_contained`` tests,
    exactly when Y1' lies in Y1 and F' in F plus the edges inside Y1, and
    distinct candidates have distinct spans.  The rule keeps exactly the
    candidates with no other inside:
    - y in Y1 misses a component C.  C is still a component of
      G[R + y] - F, so Y1 - y has a candidate inside this one: the empty
      cut when G[R + y] is disconnected, else a bond inside F.
    - Every y meets every component, and Y1' is a proper subset of Y1.
      F' lies in F plus the edges inside D = Y1 - Y1'; deleting them
      keeps each component of G[R] - F and each edge from D to R, so
      G[R + D] - F' is connected and F' is no cut.
    - Y1' = Y1: F' lies in F, and two bonds of one rest are never nested.

    The rule is read off masks.  A bond's F is every edge between its side
    S and R - S (an edge that cannot be cut never joins them), and both
    sides are connected, so G[R] - F has exactly the two components S and
    R - S.  For an empty cut the components of G[R] are used.  Each y then
    costs one mask test per component.

    Only zero sets that can keep a piece are walked.  A kept (Y1, F) has at
    least two components of G[R] - F, and each y in Y1 has a neighbour in
    each, so y has at least two neighbours in R.  Growing Y1 shrinks R, so
    a zero set that fails this test fails it for every superset: the zero
    sets are walked depth first, adding vertices by increasing index, and
    a subtree is cut at its first zero set that fails.  No zero set of more
    than n - 2 vertices passes, as its rest has at most one vertex.  A zero
    set that passes has every vertex with two or more neighbours in its
    rest, so zeroing v fails a vertex only when v is one of its last two
    there, and the new vertex v itself is tested.  A zero set hands its
    children the neighbour masks of its vertices and the components of its
    rest: zeroing v splits only the component holding v, so only that one
    is searched again.

    Dominance candidates are never kept, so they are not enumerated: for a
    proper closed neighbourhood N[x] and a vertex y outside it, x is
    isolated in the rest V - N(x), which also holds y, so (N(x), empty cut)
    is a disconnection candidate, whose forms are a proper subset of the
    dominance piece's.  Only kept pieces are built as ``SubSphere``s."""
    _check_vertex_count(graph)
    adj, ends, fixed, removable = _split_edges(graph)
    n = len(adj)
    kept = []  # (unit mask, cut-edge mask)

    def walk(units, rest, first, nbrs, parts):
        if len(parts) > 1:
            if all(m & c for m in nbrs for c in parts):
                kept.append((units, 0))
        else:
            for cut, side in _bonds(rest, fixed, removable):
                if all(m & side and m & (rest ^ side) for m in nbrs):
                    kept.append((units, cut))
        # the rest's vertices that some zeroed vertex has as one of its last
        # two neighbours there: zeroing one of them fails that vertex
        tight = 0
        for m in nbrs:
            if (m & rest).bit_count() == 2:
                tight |= m & rest
        for v in range(first, n):
            if not tight >> v & 1 and (adj[v] & rest).bit_count() > 1:
                smaller = rest ^ 1 << v
                others = [c for c in parts if not c >> v & 1]
                walk(units | 1 << v, smaller, v + 1, nbrs + (adj[v],),
                     others + components(smaller ^ sum(others), adj))

    if n >= 2:
        walk(0, (1 << n) - 1, 0, (), components((1 << n) - 1, adj))
    # one integer per piece, ordered as (len(forms), forms): the form count,
    # then one digit base (n + 1)^2 per form, i(n + 1) for the unit form (i,)
    # and i(n + 1) + j + 1 for the edge sum (i, j), so (i,) comes before
    # every (i, j) as in tuple order; the count, below the base, leads
    base, unit_digits = (n + 1) ** 2, [i * (n + 1) for i in range(n)]
    sum_digits = [i * (n + 1) + j + 1 for i, j in ends]

    def order(piece):
        units, cut = piece
        key = units.bit_count() + cut.bit_count()
        for digit in members(units, unit_digits) + members(cut, sum_digits):
            key = key * base + digit
        return key

    kept.sort(key=order)
    pieces = tuple(SubSphere(graph, DISCONNECTION, units, cut) for units, cut in kept)
    return SphericalPolyhedron(graph, pieces)


def polyhedron_contains(polyhedron: SphericalPolyhedron, chi: Character) -> bool:
    if chi.graph != polyhedron.graph:
        raise InputError("character carrier differs from the polyhedron's graph")
    zero, dead = chi.zero, chi.dead
    return any(p.units & zero == p.units and p.cut & dead == p.cut for p in polyhedron.pieces)


def polyhedron_from_json(graph: LabeledGraph, data: dict) -> SphericalPolyhedron:
    """Rebuild a polyhedron from its JSON dict (inverse of to_json_dict).

    Each piece is rebuilt from its origin, a list of distinct vertices and a
    list of distinct even label > 2 edges.  A missing key, a wrong shape, an
    unknown kind or vertex, an origin breaking those rules, and forms other
    than those the origin gives are InputErrors."""
    from fractions import Fraction

    from .characters import parse_rational

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
                label, k = graph.label(u, v), edge_no[frozenset((u, v))]
                if not graph.removable >> k & 1:
                    raise InputError(f"cut edge ({u}, {v}) has label {label}, not even and > 2")
                cut |= 1 << k
            units = sum(1 << idx[v] for v in set(zero_set))
            if units.bit_count() < len(zero_set) or cut.bit_count() < len(cut_edges):
                raise InputError("piece origin repeats a vertex or a cut edge")
            piece = SubSphere(graph, kind, units, cut)
            if forms != [dict.fromkeys(vs, Fraction(1)) for vs in piece.forms]:
                raise InputError("piece forms differ from the forms its origin gives")
            pieces.append(piece)
    except InputError:
        raise
    except KeyError as exc:
        raise InputError(f"polyhedron JSON lacks the key {exc.args[0]!r}") from None
    except (AttributeError, TypeError, ValueError):
        raise InputError("malformed polyhedron JSON") from None
    return SphericalPolyhedron(graph, tuple(pieces))
