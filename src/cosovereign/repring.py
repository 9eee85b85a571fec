"""Representation ring of the free product of a Laurent line with quantum SL(2).

Simple objects are alternated words: sequences of factors Z^i (i a nonzero
integer, the one-dimensional weight comodules) and V_j (j >= 1, the simple
quantum-SL(2) comodules of dimension j+1) in which no two adjacent factors
come from the same free factor.  The empty word is the trivial object.

Products of basis words concatenate and then collapse the junction:
Z^i . Z^j merges to Z^(i+j) (vanishing exponent cascades inward), and
V_i . V_j expands by the Clebsch-Gordan range |i-j|, |i-j|+2, ..., i+j
(the V_0 branch cascades inward).  Each collapse shortens the word, so the
process terminates; its output is the decomposition into simples.

psi embeds the fusion ring of the two-letter free monoid: the letter 'a'
maps to [Z^1 V_1], the letter 'b' to [V_1 Z^-1], and longer words follow by
the same peel-off recursion used for dimensions.  Every word lands on a
single alternated word with coefficient one.
"""

from __future__ import annotations

import re

from .scalars import Combination, ParseError, add_term

Z, V = "Z", "V"


def check_alt_word(factors):
    """Validate and freeze an alternated word given as (kind, index) pairs."""
    w = tuple((str(k), int(i)) for k, i in factors)
    prev = None
    for kind, idx in w:
        if kind not in (Z, V):
            raise ValueError(f"unknown factor kind {kind!r}")
        if kind == Z and idx == 0:
            raise ValueError("Z^0 is the trivial comodule and is never stored")
        if kind == V and idx < 1:
            raise ValueError("V factors need index >= 1")
        if prev == kind:
            raise ValueError(f"two adjacent {kind} factors break alternation")
        prev = kind
    return w


def alt_dim(w):
    """Product of (j+1) over the V factors; Z factors are one-dimensional."""
    d = 1
    for kind, idx in w:
        if kind == V:
            d *= idx + 1
    return d


def render_alt_word(w):
    if not w:
        return "1"
    return " ".join(f"Z^{i}" if k == Z else f"V_{i}" for k, i in w)


_FACTOR_RE = re.compile(r"Z\^(-?\d+)|V_(\d+)")


def parse_alt_word(text):
    text = text.strip()
    if text == "1":
        return ()
    factors = []
    for tok in text.split():
        m = _FACTOR_RE.fullmatch(tok)
        if not m:
            raise ParseError(f"invalid factor {tok!r}")
        if m.group(1) is not None:
            factors.append((Z, int(m.group(1))))
        else:
            factors.append((V, int(m.group(2))))
    return check_alt_word(factors)


class RepElement(Combination):
    """Finite combination of alternated words with exact coefficients
    (integers in the representation ring); immutable."""

    __slots__ = ()
    _order = staticmethod(lambda w: (-len(w), w))

    @classmethod
    def from_word(cls, w):
        return cls._of({check_alt_word(w): 1})

    def single_word(self):
        """The unique coefficient-1 word, when the element is simple."""
        if len(self.terms) != 1:
            raise ValueError(f"not a single term: {self}")
        ((w, c),) = self.terms.items()
        if c != 1:
            raise ValueError(f"coefficient {c} is not 1: {self}")
        return w

    def render(self):
        return self._render(render_alt_word)

    __str__ = render


RepElement.trivial = RepElement._of({(): 1})


def clebsch_gordan(i, j):
    """Indices in V_i tensor V_j: |i-j|, |i-j|+2, ..., i+j."""
    if i < 0 or j < 0:
        raise ValueError("negative spin index")
    return list(range(abs(i - j), i + j + 1, 2))


def _mul_words(w1, w2):
    """Product of two basis words as a dict word -> multiplicity.

    Each collapse of the junction leaves at most one product to go on with,
    the inner w1[:-1] . w2[1:], so a loop walks inward.  The words found on
    the way differ in length or in the merged V index, so each occurs once.
    """
    out = {}
    while w1 and w2 and w1[-1][0] == w2[0][0]:
        (kind, i1), (_, i2) = w1[-1], w2[0]
        head, tail = w1[:-1], w2[1:]
        if kind == Z:
            if i1 + i2:
                out[head + ((Z, i1 + i2),) + tail] = 1
                return out
        else:
            for k in clebsch_gordan(i1, i2):
                if k:
                    out[head + ((V, k),) + tail] = 1
            if i1 != i2:
                return out
        w1, w2 = head, tail
    out[w1 + w2] = 1
    return out


def _as_element(x):
    if isinstance(x, RepElement):
        return x
    return RepElement.from_word(x)


def multiply(u, v):
    """Tensor-product decomposition, bilinear over integer combinations."""
    ue, ve = _as_element(u), _as_element(v)
    out = {}
    for wu, cu in ue.terms.items():
        for wv, cv in ve.terms.items():
            for w, c in _mul_words(wu, wv).items():
                add_term(out, w, cu * cv * c)
    return RepElement._of(out)


PSI_A = ((Z, 1), (V, 1))
PSI_B = ((V, 1), (Z, -1))


def psi(x):
    """Image of a fusion-monoid word in the free-product representation ring."""
    # right to left over suffixes: p1 = psi(x[i+1:]), p2 = psi(x[i+2:])
    p1, p2 = RepElement.trivial, None
    for i in range(len(x) - 1, -1, -1):
        head = RepElement({PSI_A if x[i] == "a" else PSI_B: 1})
        out = multiply(head, p1)
        if i + 1 < len(x) and x[i + 1] != x[i]:
            out = out - p2
        p1, p2 = out, p1
    return p1


def psi_word(x):
    """psi(x) as its single alternated word (it always is one)."""
    return psi(x).single_word()


def so3_fuse(k, l):
    """Spin labels in the product of SO(3)-type simples: |k-l|, ..., k+l.

    This is the even part of clebsch_gordan(2k, 2l) with indices halved.
    """
    if k < 0 or l < 0:
        raise ValueError("negative spin index")
    return list(range(abs(k - l), k + l + 1))
