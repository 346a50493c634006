"""Brute-force reference implementations, kept deliberately independent of the
package internals: plain dicts, sets, and Fractions only.  Slow is fine."""

import re
from fractions import Fraction
from itertools import combinations
from math import lcm


def bfs_connected(vertices, edge_pairs) -> bool:
    vertices = list(vertices)
    if len(vertices) <= 1:
        return True
    adj = {v: set() for v in vertices}
    for u, v in edge_pairs:
        adj[u].add(v)
        adj[v].add(u)
    seen = {vertices[0]}
    frontier = [vertices[0]]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return len(seen) == len(vertices)


def connected_components(vertices, edge_pairs) -> list:
    """Components in order of their first vertex, each in the order of
    ``vertices``, by a depth-first search on names."""
    adj = {v: [] for v in vertices}
    for u, v in edge_pairs:
        adj[u].append(v)
        adj[v].append(u)
    comp_of: dict = {}
    comps = []
    for start in vertices:
        if start in comp_of:
            continue
        comp_of[start] = len(comps)
        stack = [start]
        while stack:
            for w in adj[stack.pop()]:
                if w not in comp_of:
                    comp_of[w] = len(comps)
                    stack.append(w)
        comps.append([])
    for v in vertices:
        comps[comp_of[v]].append(v)
    return [tuple(c) for c in comps]


def forest_size(pairs) -> int:
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


def minimal_even_cuts(graph, rest):
    """Subset-minimal even-label cuts of the subgraph induced on ``rest``, in
    the order the polyhedron enumerates them: the removable edges (even
    label > 2, both ends in ``rest``) in the graph's edge order, every subset
    by increasing size in ``combinations`` order, a superset of a cut already
    found skipped, and a subset kept when deleting it disconnects the rest.
    Each cut is a tuple of (u, v, label) edges; the empty cut alone when the
    rest is already disconnected."""
    inside = [e for e in graph.edges if e[0] in rest and e[1] in rest]
    removable = [e for e in inside if e[2] > 2 and e[2] % 2 == 0]
    found = []
    for size in range(len(removable) + 1):
        for cut in combinations(removable, size):
            if any(prev <= set(cut) for prev in found):
                continue
            kept = [(u, v) for u, v, label in inside if (u, v, label) not in cut]
            if not bfs_connected(rest, kept):
                found.append(set(cut))
                yield cut


def all_simple_cycles(vertices, edge_pairs):
    """Every simple cycle (length >= 3) exactly once, as a vertex list starting
    at its smallest vertex, second element smaller than last."""
    vertices = list(vertices)
    order = {v: i for i, v in enumerate(vertices)}
    adj = {v: set() for v in vertices}
    for u, v in edge_pairs:
        adj[u].add(v)
        adj[v].add(u)
    cycles = []

    def extend(path, seen):
        start, cur = path[0], path[-1]
        for nxt in adj[cur]:
            if nxt == start and len(path) >= 3:
                if order[path[1]] < order[path[-1]]:
                    cycles.append(list(path))
            elif nxt not in seen and order[nxt] > order[start]:
                seen.add(nxt)
                path.append(nxt)
                extend(path, seen)
                path.pop()
                seen.remove(nxt)

    for s in vertices:
        extend([s], {s})
    return cycles


def has_even_simple_cycle(vertices, edge_pairs) -> bool:
    return any(len(c) % 2 == 0 for c in all_simple_cycles(vertices, edge_pairs))


def has_any_simple_cycle(vertices, edge_pairs) -> bool:
    return bool(all_simple_cycles(vertices, edge_pairs))


def fraction_rank(rows) -> int:
    """Gaussian elimination over Fractions; rows is a list of lists."""
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    rank = 0
    row = 0
    for col in range(ncols):
        pivot = next((i for i in range(row, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = 1 / mat[row][col]
        mat[row] = [x * inv for x in mat[row]]
        for i in range(len(mat)):
            if i != row and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[row])]
        rank += 1
        row += 1
        if row == len(mat):
            break
    return rank


def in_span(vector, rows) -> bool:
    base = fraction_rank(rows)
    return fraction_rank(list(rows) + [list(vector)]) == base


def _trim(p):
    p = [Fraction(x) for x in p]
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_divmod(num, den):
    """Quotient and remainder of univariate polynomials given as coefficient
    lists (ascending), Fraction coefficients."""
    num = _trim(num)
    den = _trim(den)
    quot = [Fraction(0)] * max(0, len(num) - len(den) + 1)
    while len(num) >= len(den):
        shift = len(num) - len(den)
        factor = num[-1] / den[-1]
        quot[shift] = factor
        num = _trim(
            [c - factor * den[i - shift] if 0 <= i - shift < len(den) else c
             for i, c in enumerate(num)]
        )
        if not num:
            break
    return quot, num


def poly_gcd_univariate(a, b):
    """Monic gcd of two univariate polynomials given as coefficient lists
    (ascending), Fraction coefficients."""
    a, b = _trim(a), _trim(b)
    while b:
        _, r = poly_divmod(a, b)
        a, b = b, r
    if a:
        lead = a[-1]
        a = [c / lead for c in a]
    return a


def _mobius(n):
    """The Moebius function, by trial division."""
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def cyclotomic_coefficients(n):
    """Ascending integer coefficients of the n-th cyclotomic polynomial, by
    the Moebius product prod_{d | n} (t^d - 1)^mu(n/d): the product of the
    factors with mu = 1, divided exactly by each factor with mu = -1."""
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    poly = [1]
    for d in divisors:
        if _mobius(n // d) == 1:  # times t^d - 1
            poly = [a - b for a, b in zip([0] * d + poly, poly + [0] * d)]
    for d in divisors:
        if _mobius(n // d) == -1:  # poly = (t^d - 1) * q, q read off from the top
            q = [0] * len(poly)
            for j in range(len(poly) - 1, d - 1, -1):
                q[j - d] = poly[j] + q[j]
            assert poly[:d] == [-c for c in q[:d]], "inexact division"
            poly = q[:len(poly) - d]
    return poly


def cyclotomic_product(a, b, phi):
    """Coordinates of the product of two elements of Q(zeta_M), each given by
    its coordinates in the power basis of zeta: the polynomial product of the
    coordinate lists on integer numerators over one common denominator, with
    each term of degree at least deg phi cancelled by a multiple of the
    monic M-th cyclotomic polynomial ``phi`` (ascending integer
    coefficients), from the top down.  Returned as Fractions."""
    n = len(phi) - 1
    phi = [Fraction(p) for p in phi]
    assert phi[-1] == 1 and all(p.denominator == 1 for p in phi)
    a, b = [Fraction(x) for x in a], [Fraction(y) for y in b]
    den_a = lcm(*(x.denominator for x in a))
    den_b = lcm(*(y.denominator for y in b))
    num_a = [x.numerator * (den_a // x.denominator) for x in a]
    num_b = [y.numerator * (den_b // y.denominator) for y in b]
    prod = [0] * (len(a) + len(b))
    for i, x in enumerate(num_a):
        for j, y in enumerate(num_b):
            prod[i + j] += x * y
    for k in range(len(prod) - 1, n - 1, -1):
        c = prod[k]
        if c:
            for i, p in enumerate(phi):
                prod[k - n + i] -= c * p.numerator
    return [Fraction(c, den_a * den_b) for c in prod[:n]]


def parse_x_zeta(text):
    """{(x exponent, zeta exponent): Fraction} from terms such as
    ``1/2*x^-2*zeta^3`` joined by ' + ' and ' - '."""
    text = text.strip()
    first = 1
    if text.startswith("-"):
        first, text = -1, text[1:]
    parts = re.split(r" ([+-]) ", text)
    signs = [first] + [1 if s == "+" else -1 for s in parts[1::2]]
    out = {}
    for sign, term in zip(signs, parts[0::2]):
        coeff, xe, ze = Fraction(sign), 0, 0
        for factor in term.split("*"):
            name, _, power = factor.partition("^")
            if name == "x":
                xe += int(power or 1)
            elif name == "zeta":
                ze += int(power or 1)
            else:
                coeff *= Fraction(factor)
        out[(xe, ze)] = out.get((xe, ze), 0) + coeff
    return out


def _x_zeta_mul(a, b):
    out = {}
    for (x1, z1), c1 in a.items():
        for (x2, z2), c2 in b.items():
            key = (x1 + x2, z1 + z2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def _x_zeta_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return out


def forest_rows(left, right, edges, values, basepoints):
    """The named relation rows of a forest after specialization, and the
    zero test of their entries; None when the images disagree with the
    character.

    Each vertex goes to zeta^j * x^values[v]: a basepoint to x^values[b], and
    across a tree edge labeled 2m the two images multiply to zeta^(M/m), with
    M the lcm of the half-labels.  The rows are the cyclotomic sum of each
    edge (``edge:v~w``), and the left (``left:v,t|w``) and right
    (``right:v|w,s``) difference rows over all generator pairs, each a dict
    {(v, w): element}.  Elements of Q(zeta_M)[x^+-1] are dicts
    {(x exp, zeta exp): coeff}; zero means zero modulo the M-th cyclotomic
    polynomial."""
    halves = [label // 2 for _, _, label in edges]
    order = lcm(*halves)
    phi = cyclotomic_coefficients(order)

    def is_zero(elem):
        by_x = {}
        for (xe, ze), c in elem.items():
            by_x.setdefault(xe, [0] * order)[ze % order] += c
        return all(not poly_divmod(poly, phi)[1] for poly in by_x.values())

    adj = {v: [] for v in list(left) + list(right)}
    for v, w, label in edges:
        adj[v].append((w, label))
        adj[w].append((v, label))
    image = {}
    for base in basepoints:
        image[base] = (values[base], 0)
        stack = [base]
        while stack:
            cur = stack.pop()
            xe, ze = image[cur]
            for nbr, label in adj[cur]:
                if nbr not in image:
                    image[nbr] = (-xe, (order // (label // 2) - ze) % order)
                    stack.append(nbr)
    if any(image[v][0] != values[v] for v in adj):
        return None

    def minus_one(v, sign=1):
        return {image[v]: Fraction(sign), (0, 0): Fraction(-sign)}

    rows = {}
    for v, w, label in edges:
        step = _x_zeta_mul({image[v]: 1}, {image[w]: 1})
        total, power = {}, {(0, 0): Fraction(1)}
        for _ in range(label // 2):
            total, power = _x_zeta_add(total, power), _x_zeta_mul(power, step)
        rows[f"edge:{v}~{w}"] = {(v, w): total}
    for i, v in enumerate(left):
        for t in left[i + 1:]:
            for w in right:
                rows[f"left:{v},{t}|{w}"] = {(v, w): minus_one(t), (t, w): minus_one(v, -1)}
    for v in left:
        for i, w in enumerate(right):
            for s in right[i + 1:]:
                rows[f"right:{v}|{w},{s}"] = {(v, w): minus_one(s), (v, s): minus_one(w, -1)}
    return rows, is_zero


def forest_witness_holds(left, right, edges, values, basepoints, witness) -> bool:
    """Check a certificate's kernel witness on the forest's relation rows
    (``forest_rows``).  True when the witness ({"(v,w)": entry string}) is
    nonzero and every row kills it."""
    built = forest_rows(left, right, edges, values, basepoints)
    if built is None:
        return False
    rows, is_zero = built
    u = {(v, w): parse_x_zeta(witness[f"({v},{w})"]) for v in left for w in right}
    if all(is_zero(entry) for entry in u.values()):
        return False
    for row in rows.values():
        total = {}
        for gen, entry in row.items():
            total = _x_zeta_add(total, _x_zeta_mul(entry, u[gen]))
        if not is_zero(total):
            return False
    return True


def forest_minor(left, right, edges, values, basepoints, labels, columns):
    """The square minor of the rows named by ``labels`` on the generators
    ``columns``, rebuilt by ``forest_rows``, and the zero test of its
    entries.  A label that names no row is a KeyError."""
    rows, is_zero = forest_rows(left, right, edges, values, basepoints)
    return [[rows[label].get(col, {}) for col in columns] for label in labels], is_zero


def triangular_minor_holds(minor, is_zero) -> bool:
    """True when the square minor is lower-triangular with a nonzero
    diagonal, so its determinant is nonzero."""
    n = len(minor)
    return all(
        len(row) == n and not is_zero(row[i]) and all(is_zero(e) for e in row[i + 1:])
        for i, row in enumerate(minor)
    )


def dead_edges(edges, values) -> list:
    """The (u, v, label) edges that the character with name-keyed ``values``
    kills: label even and above 2, endpoint values summing to zero."""
    return [(u, v, label) for u, v, label in edges
            if label > 2 and label % 2 == 0 and values[u] + values[v] == 0]


def complement_member_bruteforce(graph_vertices, graph_edges, values) -> bool:
    """Direct reading of the complement region: either some vertex's closed
    neighborhood is zeroed out, or some (zero set, dead-edge cut) disconnects
    what is left.  No pruning, no minimality."""
    vertices = list(graph_vertices)
    values = dict(values)
    adj = {v: set() for v in vertices}
    for u, v, _ in graph_edges:
        adj[u].add(v)
        adj[v].add(u)

    for x in vertices:
        closed = {x} | adj[x]
        if len(closed) < len(vertices) and all(values[y] == 0 for y in closed):
            return True

    for k in range(len(vertices) - 1):
        for y1 in combinations(vertices, k):
            if any(values[y] != 0 for y in y1):
                continue
            kept_vs = set(vertices) - set(y1)
            rest = [v for v in vertices if v in kept_vs]
            inside = [e for e in graph_edges if e[0] in kept_vs and e[1] in kept_vs]
            removable = [e for e in inside if e[2] > 2 and e[2] % 2 == 0]
            for m in range(len(removable) + 1):
                for cut in combinations(removable, m):
                    if any(values[u] + values[v] != 0 for u, v, _ in cut):
                        continue
                    cut_set = set(cut)
                    kept = [(u, v) for u, v, lab in inside if (u, v, lab) not in cut_set]
                    if not bfs_connected(rest, kept):
                        return True
    return False


def kept_by_local_rule(n, ends, candidates):
    """The (Y1 mask, cut mask) candidates the polyhedron keeps, in canonical
    order: a candidate is kept when, for every y in Y1, a search from y's
    neighbours in the rest R reaches all of R along the edges of R outside
    the cut, so y meets every component of G[R] - F.  ``ends`` holds the
    (i, j) vertex numbers of each edge, and cut masks are over its
    positions.  The canonical order is by the number of forms, then the
    forms: (i,) for each i in Y1 by index, then each cut edge's (i, j)."""
    nbrs = {v: set() for v in range(n)}
    for i, j in ends:
        nbrs[i].add(j)
        nbrs[j].add(i)
    kept = []
    for units, cut in candidates:
        zero = [v for v in range(n) if units >> v & 1]
        rest = set(range(n)) - set(zero)
        pairs = [ends[k] for k in range(len(ends)) if cut >> k & 1]
        inside = {v: set() for v in rest}
        for k, (i, j) in enumerate(ends):
            if i in rest and j in rest and not cut >> k & 1:
                inside[i].add(j)
                inside[j].add(i)
        meets_all = True
        for y in zero:
            seen = nbrs[y] & rest
            frontier = list(seen)
            while frontier:
                for w in inside[frontier.pop()] - seen:
                    seen.add(w)
                    frontier.append(w)
            meets_all = meets_all and seen == rest
        if meets_all:
            forms = tuple((v,) for v in zero) + tuple(pairs)
            kept.append(((len(forms), forms), units, cut))
    kept.sort()
    return [(units, cut) for _, units, cut in kept]
