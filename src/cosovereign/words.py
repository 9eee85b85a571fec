"""The free monoid on two letters and its fusion product.

Words are plain strings over 'a' and 'b'; the empty word is spelled 'e' at
the I/O boundary and is the unit.  The bar involution reverses a word and
swaps the letters.  The fusion product of two words is

    x (*) y  =  sum of a.b  over all splittings x = a.g, y = bar(g).b,

extended bilinearly to integer combinations.  Each simple label U_x has one
dimension for every n >= 2 (the size of the fundamental comodule); dim is the
unique ring morphism to Z sending both letters to n, computed by peeling off
the first letter:  a.y = a (*) y - y'  whenever y starts with b (drop the
first letter to get y'), and symmetrically.
"""

from __future__ import annotations

import itertools

from .scalars import ParseError

LETTERS = "ab"
_BAR = str.maketrans("ab", "ba")

#: Hard bound for fusion_table; word counts double per extra length.
TABLE_MAX_LEN = 8


def parse_word(text):
    """Read a word: 'e' for the unit, otherwise a string of a's and b's."""
    if text == "e":
        return ""
    for pos, ch in enumerate(text):
        if ch not in LETTERS:
            raise ParseError(f"invalid word letter {ch!r}", pos=pos)
    if not text:
        raise ParseError("empty word must be written 'e'", pos=0)
    return text


def word_str(w):
    return w if w else "e"


def bar(x):
    """Reverse the word and swap the letters; the unique antimultiplicative
    involution fixing the unit."""
    return x[::-1].translate(_BAR)


def dual(x):
    """Label of the dual comodule, which is bar(x)."""
    return bar(x)


class FusionElement:
    """Finite integer combination of words; immutable."""

    __slots__ = ("_terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for w, c in items:
            c = int(c)
            if c:
                data[w] = data.get(w, 0) + c
        self._terms = {w: c for w, c in data.items() if c}

    @classmethod
    def from_word(cls, w):
        return cls({w: 1})

    def coefficient(self, w):
        return self._terms.get(w, 0)

    def pairs(self):
        """(word, multiplicity) pairs, leading term first."""
        return [(w, self._terms[w]) for w in
                sorted(self._terms, key=lambda w: (-len(w), w))]

    def words(self):
        return set(self._terms)

    def is_zero(self):
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(self.pairs())

    def __add__(self, other):
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) + c
        return FusionElement(out)

    def __sub__(self, other):
        out = dict(self._terms)
        for w, c in other._terms.items():
            out[w] = out.get(w, 0) - c
        return FusionElement(out)

    def __neg__(self):
        return FusionElement({w: -c for w, c in self._terms.items()})

    def __rmul__(self, k):
        return FusionElement({w: k * c for w, c in self._terms.items()})

    def __eq__(self, other):
        if isinstance(other, FusionElement):
            return self._terms == other._terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def render(self):
        if not self._terms:
            return "0"
        parts = []
        for w, c in self.pairs():
            body = word_str(w) if abs(c) == 1 else f"{abs(c)}*{word_str(w)}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f" + {body}" if c > 0 else f" - {body}")
        return "".join(parts)

    __str__ = render

    def __repr__(self):
        return f"FusionElement({self.render()!r})"

    def to_pairs(self):
        """JSON-ready [word, multiplicity] pairs, leading term first."""
        return [[word_str(w), c] for w, c in self.pairs()]

    @classmethod
    def from_pairs(cls, pairs):
        return cls({parse_word(w): c for w, c in pairs})


def _odot_words(x, y):
    out = {}
    for cut in range(len(x) + 1):
        a, g = x[:cut], x[cut:]
        gb = bar(g)
        if y.startswith(gb):
            w = a + y[len(gb):]
            out[w] = out.get(w, 0) + 1
    return FusionElement(out)


def _as_element(x):
    if isinstance(x, FusionElement):
        return x
    return FusionElement.from_word(x)


def odot(x, y):
    """Fusion product; words or FusionElements, extended bilinearly."""
    if isinstance(x, str) and isinstance(y, str):
        return _odot_words(x, y)
    xe, ye = _as_element(x), _as_element(y)
    total = FusionElement()
    for wx, cx in xe.pairs():
        for wy, cy in ye.pairs():
            total = total + (cx * cy) * _odot_words(wx, wy)
    return total


def fuse(x, y):
    """Decomposition of U_x tensor U_y into simple labels; equals odot(x, y)."""
    return _odot_words(x, y)


def dim(x, n):
    """Dimension of U_x when the fundamental comodule has dimension n >= 2."""
    n = int(n)
    if n <= 1:
        raise ValueError(f"dimension parameter must be at least 2, got {n}")
    # right to left over suffixes: d1 = dim(x[i+1:]), d2 = dim(x[i+2:])
    d1, d2 = 1, 0
    for i in range(len(x) - 1, -1, -1):
        d = n * d1
        if i + 1 < len(x) and x[i + 1] != x[i]:
            d -= d2
        d1, d2 = d, d1
    return d1


def dim_element(fe, n):
    """Additive extension of dim to integer combinations of words."""
    return sum(c * dim(w, n) for w, c in _as_element(fe).pairs())


def words_up_to(max_len):
    """All words of length <= max_len in canonical (length, lex) order."""
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(LETTERS, repeat=length))
    return out


def fusion_table(max_len):
    """All pairwise products of words up to max_len, in canonical order."""
    if max_len > TABLE_MAX_LEN:
        raise ValueError(
            f"fusion table bound exceeded: max_len {max_len} > {TABLE_MAX_LEN}")
    ws = words_up_to(max_len)
    return [(x, y, _odot_words(x, y)) for x in ws for y in ws]
