"""Rational characters on Artin-group vertex generators.

A character assigns a rational to every vertex, is not identically zero, and
takes equal values on the endpoints of every odd-labeled edge (those
generators are conjugate, so any homomorphism to the reals must agree on
them).  Characters are always considered up to positive scaling; ``negate``
and ``scale`` are provided for the symmetry checks.

A character is read through two masks, each derived once and kept: ``zero``,
the vertex positions where it vanishes, and ``dead``, the mask over
``graph.edges`` of its dead edges, the even label > 2 edges
(``LabeledGraph.removable``) whose endpoint values sum to zero (Meier,
Meinert and VanWyk, Topology Appl. 110, 2001).  The support, ``dead_edges``
and the living subgraph here, and polyhedron membership and the dead-edge
forest elsewhere, read them.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import MAX_COEFFICIENT_DIGITS, InputError
from .graphs import LabeledGraph, full_subgraph, members
from .value import Value

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[1-9][0-9]*)?\Z")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(f"bad rational {text!r} (expected p or p/q with q > 0)")
    if max(map(len, text.lstrip("+-").split("/"))) > MAX_COEFFICIENT_DIGITS:
        raise InputError(f"a number has more than MAX_COEFFICIENT_DIGITS = {MAX_COEFFICIENT_DIGITS} digits")
    return Fraction(text)


class Character(Value):
    _fields = ("graph", "entries")  # entries: Fractions aligned with graph.vertices

    def __init__(self, graph: LabeledGraph, entries: tuple):
        entries = tuple(Fraction(x) for x in entries)
        if len(entries) != len(graph.vertices):
            raise InputError("character length does not match the vertex list")
        if not any(entries):
            raise InputError("character must not vanish on every vertex")
        idx = graph.index
        for u, v, label in graph.edges:
            if label % 2 == 1 and entries[idx[u]] != entries[idx[v]]:
                raise InputError(
                    f"odd edge ({u}, {v}) forces equal values, got "
                    f"{entries[idx[u]]} and {entries[idx[v]]}"
                )
        super().__init__(graph, entries)

    @cached_property
    def values(self) -> dict:
        return dict(zip(self.graph.vertices, self.entries))

    def value(self, vertex: str) -> Fraction:
        try:
            return self.values[vertex]
        except KeyError:
            raise InputError(f"unknown vertex {vertex!r}") from None

    @cached_property
    def zero(self) -> int:
        """The mask of the vertex positions where the character vanishes."""
        return sum(1 << i for i, x in enumerate(self.entries) if not x)

    @cached_property
    def dead(self) -> int:
        """The mask over ``graph.edges`` of the dead edges: removable, with
        endpoint values summing to zero."""
        graph, vals = self.graph, self.values
        return sum(1 << k for k, (u, v, _) in enumerate(graph.edges)
                   if graph.removable >> k & 1 and vals[u] + vals[v] == 0)

    def support(self) -> tuple:
        return members(((1 << len(self.entries)) - 1) ^ self.zero, self.graph.vertices)

    def negate(self) -> "Character":
        return Character(self.graph, tuple(-x for x in self.entries))

    def scale(self, factor) -> "Character":
        factor = Fraction(factor)
        if factor == 0:
            raise InputError("scaling factor must be nonzero")
        return Character(self.graph, tuple(factor * x for x in self.entries))

    def canonical(self) -> "Character":
        """Representative of the positive ray: first nonzero value becomes +-1."""
        first = next(x for x in self.entries if x != 0)
        return self.scale(1 / abs(first))

    def primitive_integer(self) -> "Character":
        """Positive rescaling to coprime integer entries."""
        denr = lcm(*(x.denominator for x in self.entries))
        ints = [int(x * denr) for x in self.entries]
        g = gcd(*ints)
        return Character(self.graph, tuple(Fraction(n // g) for n in ints))

    def is_integral(self) -> bool:
        return all(x.denominator == 1 for x in self.entries)


def character(graph: LabeledGraph, mapping) -> Character:
    """Build a character from a partial vertex->rational mapping (rest 0)."""
    unknown = set(mapping) - set(graph.vertices)
    if unknown:
        raise InputError(f"unknown vertices {sorted(unknown)}")
    entries = tuple(Fraction(mapping.get(v, 0)) for v in graph.vertices)
    return Character(graph, entries)


def parse_character(graph: LabeledGraph, text: str) -> Character:
    """Parse the inline syntax ``name=p/q,name=p,...``."""
    mapping = {}
    text = text.strip()
    if not text:
        raise InputError("empty character specification")
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "=" not in chunk:
            raise InputError(f"bad character chunk {chunk!r} (expected name=value)")
        name, value = chunk.split("=", 1)
        name = name.strip()
        if name in mapping:
            raise InputError(f"vertex {name!r} assigned twice")
        if name not in graph.index:
            raise InputError(f"unknown vertex {name!r}")
        mapping[name] = parse_rational(value)
    return character(graph, mapping)


def lf_subgraph(chi: Character) -> LabeledGraph:
    """Full subgraph on the support of the character."""
    return full_subgraph(chi.graph, chi.support())


def dead_edges(chi: Character) -> tuple:
    """Edges killed by a character (``Character.dead``), in edge order."""
    return members(chi.dead, chi.graph.edges)


def living_subgraph(chi: Character) -> LabeledGraph:
    """The support subgraph with dead edges removed (vertex set unchanged)."""
    support = chi.support()
    inside = set(support)
    dead = chi.dead
    return LabeledGraph(support, tuple(e for k, e in enumerate(chi.graph.edges)
                                       if e[0] in inside and e[1] in inside and not dead >> k & 1))
