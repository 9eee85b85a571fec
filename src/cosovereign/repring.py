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

psi embeds the fusion ring of the two-letter free monoid: 'a' maps to
[Z^1 V_1], 'b' to [V_1 Z^-1], and a word to the single alternated word got
by joining its letter images up: neighbours of one kind add exponents, and a
Z exponent that sums to 0 drops out, so the two V factors around it merge.
"""

from __future__ import annotations

import math
import operator
import re

from .scalars import Combination, ParseError, parse_integer, render_terms

Z, V = "Z", "V"


def check_alt_word(factors):
    """Validate and freeze an alternated word given as (kind, index) pairs."""
    w = tuple((str(k), operator.index(i)) for k, i in factors)
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


def alt_dim(w, n=2):
    """Product of U_j(n) over the V_j factors, the dimension when V_1 has
    dimension n: U_0 = 1, U_1 = n, U_(j+1) = n U_j - U_(j-1) (Chebyshev)."""
    n = operator.index(n)
    js = [idx for kind, idx in w if kind == V]
    u = [1, n]
    for _ in range(max(js, default=1) - 1):
        u.append(n * u[-1] - u[-2])
    return math.prod(u[j] for j in js)


def render_alt_word(w):
    if not w:
        return "1"
    return " ".join(f"Z^{i}" if k == Z else f"V_{i}" for k, i in w)


#: Z^i or V_j; the group that matched (`lastindex`) is 1 for Z, 2 for V.
_FACTOR_RE = re.compile(r"Z\^(-?\d+)|V_(\d+)")


def parse_alt_word(text):
    """Word of text such as 'Z^1 V_2', or '1'; errors carry positions."""
    if text.strip() == "1":
        return ()
    factors = []
    for tok in re.finditer(r"\S+", text):
        m = _FACTOR_RE.fullmatch(text, tok.start(), tok.end())
        if not m:
            raise ParseError(f"invalid factor {tok.group()!r}",
                             pos=tok.start())
        factor = ((Z, V)[m.lastindex - 1], parse_integer(m, m.lastindex))
        try:
            check_alt_word(factors[-1:] + [factor])
        except ValueError as exc:
            raise ParseError(str(exc), pos=tok.start()) from None
        factors.append(factor)
    return tuple(factors)


class RepElement(Combination):
    """Finite combination of alternated words with exact coefficients
    (integers in the representation ring); immutable."""

    __slots__ = ()
    _order = staticmethod(lambda w: (-len(w), w))
    _times = staticmethod(lambda w1, w2: _mul_words(w1, w2).items())

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
        return render_terms(self.pairs(), render_alt_word)

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


def multiply(u, v):
    """Tensor-product decomposition, bilinear over integer combinations."""
    return RepElement.lift(u) * RepElement.lift(v)


PSI_A = ((Z, 1), (V, 1))
PSI_B = ((V, 1), (Z, -1))
_PSI = {"a": PSI_A, "b": PSI_B}


def psi_word(x):
    """Alternated word of psi(x): the letter images joined up."""
    out = []
    try:
        for letter in x:
            for kind, idx in _PSI[letter]:
                if out and out[-1][0] == kind:
                    idx += out.pop()[1]
                    if not idx:  # Z^i Z^-i: the V factors on either side merge
                        continue
                out.append((kind, idx))
    except KeyError as exc:
        raise ValueError(f"invalid word letter {exc.args[0]!r}") from None
    return tuple(out)


def psi(x):
    """Image of a fusion-monoid word in the free-product representation ring."""
    return RepElement._of({psi_word(x): 1})


def so3_fuse(k, l):
    """Spin labels in the product of SO(3)-type simples: |k-l|, ..., k+l.

    This is the even part of clebsch_gordan(2k, 2l) with indices halved.
    """
    if k < 0 or l < 0:
        raise ValueError("negative spin index")
    return list(range(abs(k - l), k + l + 1))
