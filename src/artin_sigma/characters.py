"""Rational characters on Artin-group vertex generators.

A character assigns a rational to every vertex, is not identically zero, and
takes equal values on the endpoints of every odd-labeled edge (those
generators are conjugate, so any homomorphism to the reals must agree on
them).  Characters are always considered up to positive scaling; ``negate``
and ``scale`` are provided for the symmetry checks.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .errors import InputError
from .graphs import LabeledGraph, full_subgraph

_RATIONAL_RE = re.compile(r"[+-]?\d+(/[1-9]\d*)?\Z")


def parse_rational(text: str) -> Fraction:
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise InputError(f"bad rational {text!r} (expected p or p/q with q > 0)")
    return Fraction(text)


@dataclass(frozen=True)
class Character:
    graph: LabeledGraph
    entries: tuple  # Fractions aligned with graph.vertices

    def __post_init__(self):
        entries = tuple(Fraction(x) for x in self.entries)
        if len(entries) != len(self.graph.vertices):
            raise InputError("character length does not match the vertex list")
        if not any(entries):
            raise InputError("character must not vanish on every vertex")
        idx = self.graph.index
        for u, v, label in self.graph.edges:
            if label % 2 == 1 and entries[idx[u]] != entries[idx[v]]:
                raise InputError(
                    f"odd edge ({u}, {v}) forces equal values, got "
                    f"{entries[idx[u]]} and {entries[idx[v]]}"
                )
        object.__setattr__(self, "entries", entries)

    @cached_property
    def values(self) -> dict:
        return dict(zip(self.graph.vertices, self.entries))

    def value(self, vertex: str) -> Fraction:
        try:
            return self.values[vertex]
        except KeyError:
            raise InputError(f"unknown vertex {vertex!r}") from None

    def support(self) -> tuple:
        return tuple(v for v, x in zip(self.graph.vertices, self.entries) if x != 0)

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
    """Edges killed by a character: label even and > 2, endpoint values
    summing to zero."""
    vals = chi.values
    return tuple((u, v, label) for u, v, label in chi.graph.edges
                 if label > 2 and label % 2 == 0 and vals[u] + vals[v] == 0)


def living_subgraph(chi: Character) -> LabeledGraph:
    """The support subgraph with dead edges removed (vertex set unchanged)."""
    support = chi.support()
    inside = set(support)
    dead = set(dead_edges(chi))
    return LabeledGraph(support, tuple(e for e in chi.graph.edges
                                       if e[0] in inside and e[1] in inside and e not in dead))
