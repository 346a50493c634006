"""Free-group words, integral group-ring arithmetic and Fox derivatives.

Words are freely reduced tuples of (generator, +-1) letters.  The Fox
derivative d/dx is the unique additive map with d(x)/dx = 1, d(y)/dx = 0 for
other generators, and the derivation law d(uv) = d(u) + u d(v); abelianizing
its values yields Jacobian matrices over Laurent polynomials.

>>> w = parse_word("a b^-1 a^2")
>>> str(w.inverse())
'a^-2 b a^-1'
>>> str(fox_derivative(parse_word("a a"), "a"))
'1 + a'
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property, reduce

from .errors import InputError
from .fields import ZZ
from .graphs import LabeledGraph, connected_components
from .laurent import LaurentPoly


def _reduce_letters(letters):
    stack = []
    for name, exp in letters:
        if exp not in (1, -1):
            raise ValueError("letters must carry exponent +1 or -1")
        if stack and stack[-1][0] == name and stack[-1][1] == -exp:
            stack.pop()
        else:
            stack.append((name, exp))
    return tuple(stack)


class FreeWord:
    """A freely reduced word in a free group."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        self.letters = _reduce_letters(letters)

    @classmethod
    def identity(cls) -> "FreeWord":
        return cls(())

    @classmethod
    def generator(cls, name: str, exponent: int = 1) -> "FreeWord":
        if exponent == 0:
            return cls(())
        sign = 1 if exponent > 0 else -1
        return cls(((name, sign),) * abs(exponent))

    def __mul__(self, other):
        if not isinstance(other, FreeWord):
            return NotImplemented
        return FreeWord(self.letters + other.letters)

    def inverse(self) -> "FreeWord":
        return FreeWord(tuple((n, -e) for n, e in reversed(self.letters)))

    def __pow__(self, k: int):
        if k < 0:
            return self.inverse() ** (-k)
        return reduce(lambda a, b: a * b, [self] * k, FreeWord.identity())

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and other.letters == self.letters

    def __hash__(self):
        return hash(self.letters)

    def generators(self) -> set:
        return {n for n, _ in self.letters}

    def __str__(self):
        if not self.letters:
            return "1"
        runs = []
        for name, exp in self.letters:
            if runs and runs[-1][0] == name and (runs[-1][1] > 0) == (exp > 0):
                runs[-1][1] += exp
            else:
                runs.append([name, exp])
        return " ".join(n if e == 1 else f"{n}^{e}" for n, e in runs)

    def __repr__(self):
        return f"FreeWord({str(self)!r})"


def parse_word(text: str) -> FreeWord:
    """Parse ``a b^-1 a^2`` into a FreeWord; "1" denotes the identity."""
    text = text.strip()
    if text in ("", "1"):
        return FreeWord.identity()
    letters = []
    for tok in text.split():
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?\d+))?", tok)
        if not m:
            raise InputError(f"bad word token {tok!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if exp == 0:
            continue
        sign = 1 if exp > 0 else -1
        letters.extend([(name, sign)] * abs(exp))
    return FreeWord(letters)


def commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


class GroupRingElement:
    """A finite integer combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(word, FreeWord):
                raise TypeError("keys must be FreeWord")
            if coeff:
                clean[word] = coeff
        self.terms = clean

    @classmethod
    def zero(cls) -> "GroupRingElement":
        return cls({})

    @classmethod
    def from_word(cls, word: FreeWord, coeff: int = 1) -> "GroupRingElement":
        return cls({word: coeff})

    @classmethod
    def one(cls) -> "GroupRingElement":
        return cls({FreeWord.identity(): 1})

    def _co(self, other):
        if isinstance(other, GroupRingElement):
            return other
        if isinstance(other, FreeWord):
            return GroupRingElement.from_word(other)
        if isinstance(other, int) and not isinstance(other, bool):
            return GroupRingElement({FreeWord.identity(): other})
        return None

    def __add__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for w, c in o.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElement(out)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        out = dict(self.terms)
        for w, c in o.terms.items():
            out[w] = out.get(w, 0) - c
        return GroupRingElement(out)

    def __rsub__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GroupRingElement({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        out: dict = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in o.terms.items():
                w = w1 * w2
                out[w] = out.get(w, 0) + c1 * c2
        return GroupRingElement(out)

    def __rmul__(self, other):
        o = self._co(other)
        if o is None:
            return NotImplemented
        return o * self

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        o = self._co(other)
        return NotImplemented if o is None else self.terms == o.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def items(self):
        return self.terms.items()

    def __str__(self):
        if not self.terms:
            return "0"
        keys = sorted(self.terms, key=lambda w: (len(w), str(w)))
        parts = []
        for w in keys:
            c = self.terms[w]
            body = str(w)
            if body == "1":
                chunk = str(abs(c))
            elif abs(c) == 1:
                chunk = body
            else:
                chunk = f"{abs(c)}*{body}"
            parts.append(("-" if c < 0 else "+", chunk))
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, chunk in parts[1:]:
            out += f" {sign} {chunk}"
        return out

    def __repr__(self):
        return f"GroupRingElement({str(self)})"


def fox_derivative(word: FreeWord, gen: str) -> GroupRingElement:
    """Fox derivative of a word with respect to a generator name."""
    total: dict = {}
    prefix = FreeWord.identity()
    for name, exp in word.letters:
        if exp == 1:
            if name == gen:
                total[prefix] = total.get(prefix, 0) + 1
            prefix = prefix * FreeWord.generator(name)
        else:
            prefix = prefix * FreeWord.generator(name, -1)
            if name == gen:
                total[prefix] = total.get(prefix, 0) - 1
    return GroupRingElement(total)


def alternating_word(u: str, v: str, n: int) -> FreeWord:
    """u v u v ... with n letters."""
    letters = []
    for i in range(n):
        letters.append((u if i % 2 == 0 else v, 1))
    return FreeWord(letters)


STANDARD = "standard"
EVEN_COMMUTATOR = "even-commutator"


def artin_relator(u: str, v: str, label: int, form: str = STANDARD) -> FreeWord:
    """Relator of an edge with the given label.

    ``standard``: (uvu...)_label (vuv...)_label^-1.
    ``even-commutator``: [(uv)^m, u] for label = 2m; defined only for even
    labels, where it is equivalent to the standard form.
    """
    if label < 2:
        raise InputError("edge labels must be at least 2")
    if u == v:
        raise InputError("relator needs two distinct generators")
    if form == STANDARD:
        return alternating_word(u, v, label) * alternating_word(v, u, label).inverse()
    if form == EVEN_COMMUTATOR:
        if label % 2:
            raise InputError("even-commutator form needs an even label")
        m = label // 2
        uv = FreeWord.generator(u) * FreeWord.generator(v)
        return commutator(uv ** m, FreeWord.generator(u))
    raise InputError(f"unknown relator form {form!r}")


# ---------------------------------------------------------------------------
# abelianization


@dataclass(frozen=True)
class AbelianizationMap:
    """Vertex classes of a labeled graph merged along odd-labeled edges.

    Each class maps to one Laurent variable named after its first-declared
    member; even-labeled edges impose no identification.
    """

    graph: object
    classes: tuple

    @cached_property
    def class_index(self) -> dict:
        out = {}
        for i, cls in enumerate(self.classes):
            for name in cls:
                out[name] = i
        return out

    @property
    def variables(self) -> tuple:
        return tuple(cls[0] for cls in self.classes)


def abelianization_map(graph) -> AbelianizationMap:
    """Classes are the components of the odd-label subgraph."""
    odd = LabeledGraph(graph.vertices, tuple(e for e in graph.edges if e[2] % 2))
    return AbelianizationMap(graph, tuple(connected_components(odd)))


def abelianize(element, amap: AbelianizationMap) -> LaurentPoly:
    """Image of a group-ring element in Z[class variables +-1]."""
    if isinstance(element, FreeWord):
        element = GroupRingElement.from_word(element)
    variables = amap.variables
    n = len(variables)
    terms: dict = {}
    for word, coeff in element.items():
        exps = [0] * n
        for name, e in word.letters:
            try:
                exps[amap.class_index[name]] += e
            except KeyError:
                raise InputError(f"letter {name!r} is not a vertex of the carrier") from None
        key = tuple(exps)
        terms[key] = terms.get(key, 0) + coeff
    return LaurentPoly(variables, terms, ZZ)


@dataclass
class JacobianMatrix:
    generators: tuple
    relators: tuple
    variables: tuple
    entries: list  # rows follow relators, columns follow generators


def jacobian(generators, relators, amap: AbelianizationMap) -> JacobianMatrix:
    """Abelianized Fox Jacobian: entry (r, x) = image of d(r)/dx."""
    generators = tuple(generators)
    relators = tuple(relators)
    entries = []
    for r in relators:
        entries.append([abelianize(fox_derivative(r, x), amap) for x in generators])
    return JacobianMatrix(generators, relators, amap.variables, entries)


def graph_presentation(graph, even_form: bool = True):
    """Generators and relators of the Artin group of a labeled graph.

    Even-labeled edges use the commutator relator [(uv)^m, u] when even_form
    is set (their standard relator otherwise); odd labels always use the
    standard alternating form.
    """
    gens = graph.vertices
    relators = []
    for u, v, label in graph.edges:
        if label % 2 == 0 and even_form:
            relators.append(artin_relator(u, v, label, EVEN_COMMUTATOR))
        else:
            relators.append(artin_relator(u, v, label, STANDARD))
    return gens, tuple(relators)
