"""Brute-force reference implementations, kept deliberately independent of the
package internals: plain dicts, sets, and Fractions only.  Slow is fine.

Nothing here imports ``artin_sigma``.  Free-group words are tuples of
(generator, +-1) letters, and group-ring elements dicts {word: int} of their
nonzero terms.  Laurent polynomials are dicts {exponent tuple: coefficient}
over a variable tuple the caller keeps, and module presentations lists of
rows {generator: Laurent polynomial}.  The command line arguments are read
by argparse, the reference for the CLI's own table parser."""

import argparse
import re
from fractions import Fraction
from itertools import combinations
from math import lcm
from operator import add


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


def laurent_mul(a, b):
    """The product of two Laurent polynomials: exponent tuples add."""
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(map(add, e1, e2))
            out[key] = out.get(key, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def laurent_add(a, b):
    out = dict(a)
    for key, c in b.items():
        out[key] = out.get(key, 0) + c
    return {e: c for e, c in out.items() if c}


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
        step = laurent_mul({image[v]: 1}, {image[w]: 1})
        total, power = {}, {(0, 0): Fraction(1)}
        for _ in range(label // 2):
            total, power = laurent_add(total, power), laurent_mul(power, step)
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
            total = laurent_add(total, laurent_mul(entry, u[gen]))
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


# ---------------------------------------------------------------------------
# the integral group ring of a free group

ONE = {(): 1}


def reduced_product(u, v):
    """The freely reduced product of two reduced words."""
    out = list(u)
    for name, exp in v:
        if out and out[-1] == (name, -exp):
            out.pop()
        else:
            out.append((name, exp))
    return tuple(out)


def ring_add(a, b, sign=1):
    """a + sign * b."""
    out = dict(a)
    for word, c in b.items():
        out[word] = out.get(word, 0) + sign * c
    return {w: c for w, c in out.items() if c}


def ring_sub(a, b):
    return ring_add(a, b, -1)


def ring_mul(*factors):
    """The product of group-ring elements, in order."""
    out = ONE
    for factor in factors:
        prod = {}
        for w1, c1 in out.items():
            for w2, c2 in factor.items():
                w = reduced_product(w1, w2)
                prod[w] = prod.get(w, 0) + c1 * c2
        out = {w: c for w, c in prod.items() if c}
    return out


# ---------------------------------------------------------------------------
# Koszul differentials and the wedge presentation of a forest


def perm_sign(seq) -> int:
    """The sign of the permutation that sorts ``seq``, by counting inversions."""
    items = list(seq)
    inversions = sum(a > b for i, a in enumerate(items) for b in items[i + 1:])
    return -1 if inversions % 2 else 1


def less_one(name, variables, sign=1):
    """sign * (name - 1) as a Laurent polynomial over ``variables``."""
    return {tuple(int(v == name) for v in variables): sign, (0,) * len(variables): -sign}


def koszul_differential(k, element, variables):
    """The differential of a degree-k exterior basis element, a mapping from
    degree-(k - 1) wedges (sorted in variable order; the empty tuple in
    degree 0) to Laurent polynomials.  For a_1 < ... < a_k,

        d(e_a1 ^ ... ^ e_ak) = sum_i (-1)^(k - i) (a_i - 1) e_a1 ^ .. a_i omitted .. ^ e_ak,

    so d1(e_v) = v - 1, d2(e_a ^ e_b) = (b - 1) e_a - (a - 1) e_b and
    d3(e_a ^ e_b ^ e_c) = (a - 1) e_b^e_c - (b - 1) e_a^e_c + (c - 1) e_a^e_b.
    An unsorted element is first straightened with the wedge sign; one with a
    repeated variable is zero."""
    element = tuple(element)
    assert len(element) == k
    if len(set(element)) != k:
        return {}
    pos = {v: i for i, v in enumerate(variables)}
    sign = perm_sign(pos[v] for v in element)
    ordered = sorted(element, key=pos.__getitem__)
    return {tuple(ordered[:i] + ordered[i + 1:]): less_one(a, variables, sign * (-1) ** (k - 1 - i))
            for i, a in enumerate(ordered)}


def apply_differential(k, chain, variables):
    """The differential extended linearly to a chain {basis wedge: Laurent
    polynomial}, with the zero coefficients dropped."""
    out = {}
    for basis, coeff in chain.items():
        for lower, poly in koszul_differential(k, basis, variables).items():
            out[lower] = laurent_add(out.get(lower, {}), laurent_mul(coeff, poly))
    return {b: p for b, p in out.items() if p}


def wedge_presentation(left, right, edges):
    """The wedge module of a bipartite forest over the variables left + right.

    Generators are the cross pairs e_v ^ e_w (v left, w right); the rows are
    the cyclotomic sum 1 + vw + ... + (vw)^(m-1) of each edge labeled 2m,
    and the cross part of each degree-3 differential d3(e_v ^ e_w ^ e_t):
    the projection kills same-side wedges.  The variables list the left side
    first, so d3 writes each cross wedge left first, as a generator."""
    variables = tuple(left) + tuple(right)
    cross = {(v, w) for v in left for w in right}
    rows = [{(v, w): {tuple(k if x in (v, w) else 0 for x in variables): 1
                      for k in range(label // 2)}}
            for v, w, label in edges]
    for v in left:
        for w in right:
            for t in variables:
                if t not in (v, w):
                    row = {pair: poly for pair, poly
                           in koszul_differential(3, (v, w, t), variables).items() if pair in cross}
                    if row:
                        rows.append(row)
    return rows


def canonical_form(variables, rows):
    """An order-independent fingerprint of a presentation: each row's nonzero
    entries in generator order, their exponents over the sorted variables,
    the row's sign taken so that its first entry's largest term is positive;
    zero and repeated rows dropped."""
    order = sorted(range(len(variables)), key=variables.__getitem__)
    out = set()
    for row in rows:
        entries = sorted((gen, {tuple(e[i] for i in order): c for e, c in poly.items() if c})
                         for gen, poly in row.items() if any(poly.values()))
        if not entries:
            continue
        first = entries[0][1]
        sign = -1 if first[max(first)] < 0 else 1
        out.add(tuple((gen, tuple(sorted((e, sign * c) for e, c in poly.items())))
                      for gen, poly in entries))
    return frozenset(out)


# ---------------------------------------------------------------------------
# the command line, as argparse reads it


def build_parser() -> argparse.ArgumentParser:
    """The ``artin-sigma`` arguments as argparse parses them: the reference
    for ``artin_sigma.cli.parse_args``, with the choices written out.  Its
    namespace holds ``command`` and the subcommand's dests."""
    parser = argparse.ArgumentParser(prog="artin-sigma")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"), default="json")
    sub = parser.add_subparsers(dest="command", required=True)
    modes = ("simple-cycle", "strict")

    p = sub.add_parser("sigma1", parents=[common])
    p.add_argument("path")
    p.add_argument("--char")
    p.add_argument("--mode", choices=modes, default="simple-cycle")

    p = sub.add_parser("polyhedron", parents=[common])
    p.add_argument("path")

    p = sub.add_parser("hypothesis", parents=[common])
    p.add_argument("path")
    p.add_argument("--mode", choices=modes, default="simple-cycle")

    p = sub.add_parser("fox", parents=[common])
    p.add_argument("--word", required=True)
    p.add_argument("--generator", required=True)

    p = sub.add_parser("jacobian", parents=[common])
    p.add_argument("path")
    p.add_argument("--standard", action="store_true")

    p = sub.add_parser("kt-certify", parents=[common])
    p.add_argument("path")
    p.add_argument("--char")
    p.add_argument("--bipartition")

    p = sub.add_parser("groebner", parents=[common])
    p.add_argument("--vars", required=True)
    p.add_argument("--gens", required=True, nargs="+")
    p.add_argument("--order", choices=("grevlex", "lex"), default="grevlex")
    p.add_argument("--laurent", action="store_true")

    return parser
