"""Free-group words, their Fox derivatives as integer combinations of words,
and abelianized Fox Jacobians.

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
from functools import cached_property

from .errors import InputError
from .value import Value

# graphs, laurent and fields are imported inside the abelianization code, the
# only code that runs them, so that words and Fox derivatives load none of
# them; ``LaurentPoly`` in annotations is laurent.LaurentPoly.


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
    def _from_reduced(cls, letters: tuple) -> "FreeWord":
        """Wrap a tuple of letters known to be freely reduced."""
        word = cls.__new__(cls)
        word.letters = letters
        return word

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
        return FreeWord(self.letters * k)

    def __len__(self):
        return len(self.letters)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and other.letters == self.letters

    def __hash__(self):
        return hash(self.letters)

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


MAX_WORD_LETTERS = 10**6
"""Most letters ``parse_word`` expands a word to; a longer word is an InputError."""


def parse_word(text: str) -> FreeWord:
    """Parse ``a b^-1 a^2`` into a FreeWord; "1" denotes the identity.

    The exponents are summed before any letter is built, so a word longer
    than ``MAX_WORD_LETTERS`` is refused without being expanded.
    """
    text = text.strip()
    if text in ("", "1"):
        return FreeWord.identity()
    powers = []
    for tok in text.split():
        m = re.fullmatch(r"([A-Za-z_][A-Za-z0-9_]*)(?:\^(-?[0-9]+))?", tok)
        if not m:
            raise InputError(f"bad word token {tok!r}")
        try:
            exp = int(m.group(2) or 1)
        except ValueError:  # too many digits for int(), so far past the limit
            exp = MAX_WORD_LETTERS + 1
        powers.append((m.group(1), exp))
    if sum(abs(exp) for _, exp in powers) > MAX_WORD_LETTERS:
        raise InputError(f"word expands to more than MAX_WORD_LETTERS = {MAX_WORD_LETTERS} letters")
    letters = []
    for name, exp in powers:
        letters.extend([(name, 1 if exp > 0 else -1)] * abs(exp))
    return FreeWord(letters)


def commutator(a: FreeWord, b: FreeWord) -> FreeWord:
    """[a, b] = a^-1 b^-1 a b."""
    return a.inverse() * b.inverse() * a * b


class GroupRingElement:
    """A finite integer combination of free-group words: ``terms`` maps each
    word to its nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            if not isinstance(word, FreeWord):
                raise TypeError("keys must be FreeWord")
            if coeff:
                clean[word] = coeff
        self.terms = clean

    def __eq__(self, other):
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.terms == other.terms

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


MAX_DERIVATIVE_LETTERS = 10**6
"""Most letters ``fox_derivative`` builds, summed over its prefix words; more is an InputError."""


def fox_derivative(word: FreeWord, gen: str) -> GroupRingElement:
    """Fox derivative of a word with respect to a generator name.

    An occurrence of gen adds the prefix before it; an occurrence of gen^-1
    subtracts the prefix through it.  A prefix of a reduced word is reduced,
    so each is a slice of ``word.letters``.  The prefix lengths are summed
    first, and a derivative longer than ``MAX_DERIVATIVE_LETTERS`` letters
    (a^1415 already is) is refused before any prefix is built.
    """
    letters = word.letters
    size = sum(i + (exp < 0) for i, (name, exp) in enumerate(letters) if name == gen)
    if size > MAX_DERIVATIVE_LETTERS:
        raise InputError(
            f"Fox derivative has more than MAX_DERIVATIVE_LETTERS = {MAX_DERIVATIVE_LETTERS} letters")
    total: dict = {}
    for i, (name, exp) in enumerate(letters):
        if name == gen:
            prefix = FreeWord._from_reduced(letters[:i] if exp == 1 else letters[:i + 1])
            total[prefix] = total.get(prefix, 0) + exp
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

    Either form has 2 * label letters, so a relator longer than
    ``MAX_WORD_LETTERS`` is refused before any letter is built.
    """
    if label < 2:
        raise InputError("edge labels must be at least 2")
    if u == v:
        raise InputError("relator needs two distinct generators")
    if 2 * label > MAX_WORD_LETTERS:
        raise InputError(
            f"relator of label {label} has more than MAX_WORD_LETTERS = {MAX_WORD_LETTERS} letters")
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


class AbelianizationMap(Value):
    """Vertex classes of a labeled graph merged along odd-labeled edges.

    Each class maps to one Laurent variable named after its first-declared
    member; even-labeled edges impose no identification.
    """

    _fields = ("graph", "classes")

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
    from .graphs import LabeledGraph, connected_components

    odd = LabeledGraph(graph.vertices, tuple(e for e in graph.edges if e[2] % 2))
    return AbelianizationMap(graph, tuple(connected_components(odd)))


def abelianize(element, amap: AbelianizationMap) -> LaurentPoly:
    """Image of a group-ring element in the Laurent ring over QQ in the class
    variables; its coefficients are integers."""
    from .fields import QQ
    from .laurent import LaurentPoly

    if isinstance(element, FreeWord):
        element = GroupRingElement({element: 1})
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
    return LaurentPoly(variables, terms, QQ)


class JacobianMatrix(Value, frozen=False):
    # entries: rows follow relators, columns follow generators
    _fields = ("generators", "relators", "variables", "entries")


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
