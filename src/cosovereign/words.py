"""The free monoid on two letters and its fusion product.

Words are plain strings over 'a' and 'b'; the empty word is spelled 'e' at
the I/O boundary and is the unit.  The bar involution reverses a word and
swaps the letters.  The fusion product of two words is

    x (*) y  =  sum of a.b  over all splittings x = a.g, y = bar(g).b,

extended bilinearly to integer combinations.  Over two letters, bar(g) is a
prefix of y exactly when x and y differ letter by letter where they meet, so
the splittings are the cancellation lengths k = 0..K, K the first i with
x[-1-i] == y[i] (or the shorter length), and the summands x[:len(x)-k] + y[k:]
differ in length: every multiplicity is 1.  Peeling off one junction gives
the recurrence x (*) y = x.y + x[:-1] (*) y[1:] when y[0] cancels x[-1]
(they differ) and x (*) y = x.y otherwise; `fusion_table` tabulates it over
words in canonical (length, lex) order, which is heap order (x[:-1] sits at
index (i - 1) // 2), while `summands` and `fuse` keep the closed form.

Each simple label U_x has one dimension for every n >= 2 (the size of the
fundamental comodule): dim is the unique ring morphism to Z sending both
letters to n.  The embedding psi into the representation ring of Z * SU_q(2)
sends each maximal alternating run of r letters (no aa or bb inside) to one
V_r, so dim(x, n) is the product of the Chebyshev U_r(n) over the runs.
"""

from __future__ import annotations

import itertools
import operator

from .repring import alternating_runs, chebyshev_product
from .scalars import Combination, ParseError, render_terms

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


class FusionElement(Combination):
    """Finite combination of words with exact coefficients (integers in the
    fusion ring); immutable."""

    __slots__ = ()
    _order = staticmethod(lambda w: (-len(w), w))
    _times = staticmethod(lambda x, y: fuse(x, y).terms.items())

    def render(self):
        return render_terms(self.pairs(), word_str)

    __str__ = render

    def to_pairs(self):
        """JSON-ready [word, multiplicity] pairs, leading term first."""
        return [[word_str(w), c] for w, c in self.pairs()]


def summands(x, y):
    """The words of x (*) y, leading term first: x[:len(x)-k] + y[k:] for
    k = 0..K, K the cancellation length, which is the common-prefix length
    of y and bar(x) (x[-1-i] != y[i] for all i < K)."""
    most = 0
    for s, t in zip(reversed(x), y):
        if s == t:
            break
        most += 1
    if not most:
        return (x + y,)
    n = len(x)
    return tuple(x[:n - k] + y[k:] for k in range(most + 1))


def fuse(x, y):
    """Decomposition of U_x tensor U_y into simple labels; equals odot(x, y).
    Its terms are `summands(x, y)`, each once, inserted in that order."""
    return FusionElement._of(dict.fromkeys(summands(x, y), 1))


def odot(x, y):
    """Fusion product; words or FusionElements, extended bilinearly."""
    return FusionElement.lift(x) * FusionElement.lift(y)


def _dimension_parameter(n):
    """`n` as an int >= 2: TypeError for non-integers, ValueError below 2."""
    n = operator.index(n)
    if n <= 1:
        raise ValueError(f"dimension parameter must be at least 2, got {n}")
    return n


def dim(x, n):
    """Dimension of U_x when the fundamental comodule has dimension n >= 2:
    the product of U_r(n) over the lengths r of `alternating_runs(x)`."""
    rs = list(map(len, alternating_runs(x)))
    return chebyshev_product(rs, _dimension_parameter(n))


def dim_element(fe, n):
    """Additive extension of dim to integer combinations of words."""
    n = _dimension_parameter(n)
    return sum(c * dim(w, n) for w, c in FusionElement.lift(fe).pairs())


def words_up_to(max_len):
    """All words of length <= max_len in canonical (length, lex) order."""
    out = [""]
    for length in range(1, max_len + 1):
        out.extend("".join(t) for t in itertools.product(LETTERS, repeat=length))
    return out


def fusion_table(max_len):
    """(x, y, summands(x, y)) for all words x, y up to max_len, in canonical
    order: each product is a tuple of summand words, leading term first,
    and every multiplicity is 1.

    The products are tabulated by the cancellation recurrence rather than
    computed pair by pair.  Canonical order is heap order: the word at index
    i > 0 drops its last letter to the word at (i - 1) // 2, so x[:-1] has
    its row of products built before x.  Each y's tail y[1:] has its index
    found once.  When y's first letter cancels x's last (they differ), x (*) y
    is (x + y,) followed by the products of x[:-1] and y[1:]; otherwise it
    is (x + y,) alone.
    """
    if max_len > TABLE_MAX_LEN:
        raise ValueError(
            f"fusion table bound exceeded: max_len {max_len} > {TABLE_MAX_LEN}")
    ws = words_up_to(max_len)
    n = len(ws)
    index = {w: j for j, w in enumerate(ws)}
    # per last letter of x, the row index of each y's tail where y's first
    # letter cancels it, else n: every row ends in an empty tuple at n
    tails = {last: [index[y[1:]] if y[:1] == other else n for y in ws]
             for last, other in (("a", "b"), ("b", "a"))}
    rows, table = [], []
    for i, x in enumerate(ws):
        heads = zip(map(x.__add__, ws))
        if i:
            rest = rows[(i - 1) // 2].__getitem__
            row = list(map(operator.add, heads, map(rest, tails[x[-1]])))
        else:
            row = list(heads)
        row.append(())
        rows.append(row)
        table.extend(zip(itertools.repeat(x, n), ws, row))
    return table
