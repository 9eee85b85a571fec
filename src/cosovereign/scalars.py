"""Exact scalar arithmetic over Q and over Q(q).

A scalar is a ``fractions.Fraction`` unless it depends on q; then it is a
``RatFunc``, a reduced quotient of polynomials in the indeterminate q, stored
as ``q**val * top/bot``: ``top`` and ``bot`` are coprime, neither is
divisible by q, and ``bot`` is monic.  Building a ``RatFunc`` whose quotient
is constant, zero included, returns that Fraction instead, so every scalar
has one form and structural equality coincides with mathematical equality.
A Laurent polynomial is exactly the case ``bot == 1``.  Powers of q only add
to ``val``, so they cost no dense polynomial arithmetic.

An exact scalar is an int, a Fraction or a RatFunc; `exact` checks that
once, for every layer that takes scalars from a caller, and converts
nothing else.  ints, Fractions and RatFuncs mix in arithmetic, which keeps
matrix and rewriting code agnostic of the coefficient field.  `render_terms` prints
every signed sum: the powers of q of a scalar, the terms of a `Combination`.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm


class ParseError(ValueError):
    """Input text rejected, with a position for diagnostics."""

    def __init__(self, message, pos=None, line=None, col=None):
        self.message = message
        self.pos = pos
        self.line = line
        self.col = col
        super().__init__(str(self))

    def __str__(self):
        where = ""
        if self.line is not None:
            where = f" (line {self.line}, column {self.col})"
        elif self.pos is not None:
            where = f" (position {self.pos})"
        return f"{self.message}{where}"


def exact(c):
    """`c` when it is an exact scalar: an int, Fraction or RatFunc.  Any other
    value, a float, complex, Decimal or str among them, raises TypeError; the
    int test comes first, as `Poly([1])` below runs before RatFunc exists."""
    if isinstance(c, (int, Fraction)) or isinstance(c, RatFunc):
        return c
    raise TypeError(f"inexact scalar {c!r}; use an int, Fraction or RatFunc")


class Poly:
    """Dense univariate polynomial over Q; coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else Fraction(exact(c))
              for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    def is_zero(self):
        return not self.coeffs

    def degree(self):
        return len(self.coeffs) - 1

    def leading(self):
        if not self.coeffs:
            raise ZeroDivisionError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def monic(self):
        lc = self.leading()
        if lc == 1:
            return self
        return _poly(tuple(c / lc for c in self.coeffs))

    def shift(self, k):
        """Multiply by q**k, k >= 0."""
        if not k or not self.coeffs:
            return self
        return _poly((_F_ZERO,) * k + self.coeffs)

    def __add__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        while out and not out[-1]:
            out.pop()
        return _poly(tuple(out))

    def __sub__(self, other):
        return self + -other if isinstance(other, Poly) else NotImplemented

    def __neg__(self):
        return _poly(tuple(-c for c in self.coeffs))

    def __mul__(self, other):
        if isinstance(other, Fraction) or isinstance(other, int):
            if not other:
                return _P_ZERO
            return _poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        xs, ys = self.coeffs, other.coeffs
        if not xs or not ys:
            return _P_ZERO
        # Laurent scalars have the denominator 1, so this is the common case
        if len(xs) == 1 and xs[0] == 1:
            return other
        if len(ys) == 1 and ys[0] == 1:
            return self
        out = [_F_ZERO] * (len(xs) + len(ys) - 1)
        ys = [(j, b) for j, b in enumerate(ys) if b]
        for i, a in enumerate(xs):
            if a:
                for j, b in ys:
                    out[i + j] += a * b
        # the product of the two nonzero leading coefficients stays nonzero
        return _poly(tuple(out))

    __rmul__ = __mul__

    def __divmod__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dd = other.degree()
        lc = other.leading()
        quot = [Fraction(0)] * max(0, len(rem) - dd)
        for i in range(len(rem) - 1, dd - 1, -1):
            if rem[i]:
                f = rem[i] / lc
                quot[i - dd] = f
                for j, c in enumerate(other.coeffs):
                    rem[i - dd + j] -= f * c
        return Poly(quot), Poly(rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, k):
        if k < 0:
            raise ValueError("negative power of a polynomial")
        if self.degree() * k > _MAX_Q_EXPONENT:
            raise ValueError(f"power of degree beyond {_MAX_Q_EXPONENT}")
        out = _P_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:  # a square past the top bit would go unused
                base = base * base
        return out

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly([other]).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        return f"Poly({list(self.coeffs)!r})"

    @staticmethod
    def gcd(a, b):
        while not b.is_zero():
            a, b = b, a % b
        if a.is_zero():
            return a
        return a.monic()


def _poly(coeffs):
    """Poly from a tuple of Fractions that already ends in a nonzero one."""
    p = Poly.__new__(Poly)
    p.coeffs = coeffs
    return p


_F_ZERO = Fraction(0)
_P_ZERO = Poly()
_P_ONE = Poly([1])


def _unit_part(p):
    """(k, p / q**k) for the largest k with q**k dividing the nonzero p."""
    cs = p.coeffs
    k = 0
    while not cs[k]:
        k += 1
    return k, (_poly(cs[k:]) if k else p)


class RatFunc:
    """``q**val * top/bot``: ``top`` and ``bot`` are coprime ``Poly`` values
    with nonzero constant terms and ``bot`` is monic.
    ``RatFunc(num, den, val)`` is ``q**val * num/den``; it is that
    ``Fraction`` instead when the reduced quotient does not depend on q
    (zero included), so a ``RatFunc`` is never zero and never constant."""

    __slots__ = ("val", "top", "bot")

    def __new__(cls, num, den=_P_ONE, val=0):
        if not isinstance(num, Poly):
            num = Poly([num])
        if not isinstance(den, Poly):
            den = Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            return _F_ZERO
        i, top = _unit_part(num)
        j, bot = _unit_part(den)
        if bot.degree() > 0:
            g = Poly.gcd(top, bot)
            if g.degree() > 0:
                top, bot = top // g, bot // g
        lc = bot.leading()
        if lc != 1:
            top = top * (1 / lc)
            bot = bot * (1 / lc)
        val += i - j
        if not val and len(top.coeffs) == 1 and len(bot.coeffs) == 1:
            return top.coeffs[0]
        return cls._of(val, top, bot)

    def __reduce__(self):
        return RatFunc, (self.top, self.bot, self.val)

    @classmethod
    def _of(cls, val, top, bot):
        """Wrap parts already in canonical form: no gcd, no checks."""
        self = object.__new__(cls)
        self.val, self.top, self.bot = val, top, bot
        return self

    def _inverse(self):
        """1/self: swapping coprime parts keeps them coprime, so only the
        new `bot` is made monic."""
        lc = self.top.leading()
        top = self.bot if lc == 1 else self.bot * (1 / lc)
        return RatFunc._of(-self.val, top, self.top.monic())

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign):
        """self + sign*other, sign being 1 or -1."""
        if isinstance(other, (int, Fraction)):
            # top*q^k + c*bot stays coprime to bot: no gcd, only a factor q
            # to strip, which can arise when self.val == 0
            val = min(self.val, 0)
            top = (self.top.shift(self.val - val)
                   + self.bot.shift(-val) * (other if sign > 0 else -other))
            i, top = _unit_part(top)
            return RatFunc._of(val + i, top, self.bot)
        if not isinstance(other, RatFunc):
            return NotImplemented
        # bring both tops onto the smaller power of q
        val = min(self.val, other.val)
        a = self.top.shift(self.val - val)
        b = other.top.shift(other.val - val)
        if len(self.bot.coeffs) == len(other.bot.coeffs) == 1:
            # two Laurent scalars: the sum needs no gcd
            return _laurent(val, a + b if sign > 0 else a - b)
        a, b = a * other.bot, b * self.bot
        return RatFunc(a + b if sign > 0 else a - b, self.bot * other.bot, val)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        return (-self)._plus(other, 1)

    def __neg__(self):
        return RatFunc._of(self.val, -self.top, self.bot)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            # a nonzero constant factor creates no common factor
            if not other:
                return _F_ZERO
            return RatFunc._of(self.val, self.top * other, self.bot)
        if not isinstance(other, RatFunc):
            return NotImplemented
        if len(self.bot.coeffs) == len(other.bot.coeffs) == 1:
            return _laurent(self.val + other.val, self.top * other.top)
        return RatFunc(self.top * other.top, self.bot * other.bot,
                       self.val + other.val)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            if not other:
                raise ZeroDivisionError("division by zero scalar")
            return self.__mul__(1 / Fraction(other))
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.__mul__(other._inverse())

    def __rtruediv__(self, other):
        # __mul__, not *, so that `combination / q` stays a TypeError
        return self._inverse().__mul__(other)

    def __pow__(self, k):
        if k < 0:
            return self._inverse() ** (-k)
        if not k:
            return Fraction(1)
        if abs(self.val) * k > _MAX_Q_EXPONENT:
            raise ValueError(f"power of degree beyond {_MAX_Q_EXPONENT}")
        # powers of coprime parts stay coprime, and a monic bot stays monic
        return RatFunc._of(self.val * k, self.top ** k, self.bot ** k)

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (self.val == other.val
                and self.top.coeffs == other.top.coeffs
                and self.bot.coeffs == other.bot.coeffs)

    def __hash__(self):
        return hash((self.val, self.top.coeffs, self.bot.coeffs))

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"RatFunc({format_scalar(self)!r})"


def _laurent(val, top):
    """``q**val * top`` built without a gcd, since its denominator is 1: the
    Fraction when it does not depend on q (zero included), else the Laurent
    ``RatFunc`` with the factors q of `top` moved into `val`."""
    if not top.coeffs:
        return _F_ZERO
    i, top = _unit_part(top)
    val += i
    if not val and len(top.coeffs) == 1:
        return top.coeffs[0]
    return RatFunc._of(val, top, _P_ONE)


#: The indeterminate, as a scalar.
q = RatFunc(_P_ONE, _P_ONE, 1)


def clear(terms):
    """(den, [(key, num)]) for the (key, scalar) pairs `terms`, read twice:
    den is the lcm of every Fraction denominator, in Laurent scalars too,
    and each scalar is num/den with num an int or an `IntLaurent`.  None
    when a scalar is a true quotient (``bot != 1``)."""
    den = 1
    for _, c in terms:
        if not isinstance(c, RatFunc):
            den = lcm(den, c.denominator)
        elif len(c.bot.coeffs) == 1:
            den = lcm(den, *(a.denominator for a in c.top.coeffs))
        else:
            return None
    return den, [(key, IntLaurent({e: a.numerator * (den // a.denominator)
                                   for e, a in enumerate(c.top.coeffs, c.val)
                                   if a})
                  if isinstance(c, RatFunc)
                  else c.numerator * (den // c.denominator))
                 for key, c in terms]


def uncleared(num, den):
    """The scalar num/den in its one form, from an int, a Fraction or an
    exponent -> nonzero coefficient dict with a nonzero exponent."""
    if not isinstance(num, dict):
        return Fraction(num, den)
    lo, hi = min(num), max(num)
    return RatFunc._of(lo, _poly(tuple(Fraction(num.get(e, 0), den)
                                       for e in range(lo, hi + 1))), _P_ONE)


def _ring(powers):
    """The element of Z[q, q^-1] with exponent -> nonzero int `powers`."""
    return powers[0] if powers.keys() == {0} else powers or 0


class IntLaurent(dict):
    """A nonconstant element of Z[q, q^-1], exponent -> nonzero int.  Its
    factors must be nonzero; a constant sum or product is an int."""

    __slots__ = ()

    def __mul__(self, other):
        if not isinstance(other, dict):
            return IntLaurent({e: a * other for e, a in self.items()})
        out = IntLaurent()
        for e, a in self.items():
            for f, b in other.items():
                add_term(out, e + f, a * b)
        return _ring(out)

    def __add__(self, other):
        out = IntLaurent(self)
        for e, a in (other if isinstance(other, dict) else {0: other}).items():
            add_term(out, e, a)
        return _ring(out)

    def __floordiv__(self, g):
        return IntLaurent({e: a // g for e, a in self.items()})

    __rmul__, __radd__ = __mul__, __add__


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _coeff_text(mag):
    """A positive coefficient, parenthesized when its text would show a sign:
    a Laurent polynomial of several terms or with a q^-k.  A quotient prints
    as (...)/(...), so it needs none."""
    if not isinstance(mag, RatFunc):
        return str(mag)
    text = format_scalar(mag, compact=True)
    if mag.bot == _P_ONE and (mag.val < 0 or mag.top.degree() > 0):
        return f"({text})"
    return text


def render_terms(pairs, render_key, plus=" + ", minus=" - "):
    """The signed sum of (key, coefficient) pairs, in the order given; "0"
    when there are none.  A term prints as coefficient*key, as its key alone
    when the coefficient is 1 or -1, and as its coefficient alone on a falsy
    key (the unit) otherwise."""
    parts = []
    for k, c in pairs:
        neg = (c.top.coeffs[-1] if isinstance(c, RatFunc) else c) < 0
        mag = -c if neg else c
        if mag == 1:
            body = render_key(k)
        elif k:
            body = f"{_coeff_text(mag)}*{render_key(k)}"
        else:
            body = _coeff_text(mag)
        if parts:
            parts.append(minus if neg else plus)
        elif neg:
            parts.append("-")
        parts.append(body)
    return "".join(parts) or "0"


def _q_power_text(k):
    return "1" if k == 0 else "q" if k == 1 else f"q^{k}"


def format_scalar(s, compact=False):
    """A scalar as text that `parse_scalar` reads back; `compact` drops the
    spaces around the signs of a sum."""
    if not isinstance(s, RatFunc):
        return str(s)
    signs = ("+", "-") if compact else (" + ", " - ")

    def poly_text(p, shift):
        """p * q**shift, highest power first."""
        pairs = [(i + shift, c) for i, c in enumerate(p.coeffs) if c]
        return render_terms(pairs[::-1], _q_power_text, *signs)

    if s.bot == _P_ONE:
        return poly_text(s.top, s.val)
    return (f"({poly_text(s.top, max(s.val, 0))})"
            f"/({poly_text(s.bot, max(-s.val, 0))})")


# ---------------------------------------------------------------------------
# finite linear combinations
# ---------------------------------------------------------------------------


def add_term(terms, key, c):
    """terms[key] += c, keeping the dict free of zero coefficients."""
    cur = terms.get(key)
    if cur is None:
        if c:
            terms[key] = c
        return
    cur = cur + c
    if not cur:
        del terms[key]
    else:
        terms[key] = cur


class Combination:
    """Finite combination of hashable keys with exact scalar coefficients;
    immutable and zero-free.

    Subclasses set `_order`, the sort key that puts the leading term first,
    and `_times`, the product of two keys as (key, multiplicity) pairs, which
    `*` extends bilinearly.  Each subclass prints through `render_terms`.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for k, c in items:
            add_term(data, k, exact(c))
        self.terms = data

    @classmethod
    def _of(cls, terms):
        """Wrap a dict that is already zero-free, without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

    @classmethod
    def from_word(cls, key):
        return cls._of({key: 1})

    @classmethod
    def lift(cls, x):
        """`x` itself when it is a `cls`, else the single key `x`."""
        return x if isinstance(x, cls) else cls.from_word(x)

    def is_zero(self):
        return not self.terms

    def __len__(self):
        return len(self.terms)

    def coefficient(self, key):
        return self.terms.get(key, 0)

    def pairs(self):
        """(key, coefficient) pairs, leading term first."""
        terms = self.terms
        return [(k, terms[k]) for k in sorted(terms, key=self._order)]

    def __add__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, c)
        return self._of(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(out, k, -c)
        return self._of(out)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        """The bilinear extension of `_times`; both factors of one type."""
        if type(other) is not type(self):
            return NotImplemented
        out = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                for k, n in self._times(k1, k2):
                    add_term(out, k, c1 * c2 if n == 1 else c1 * c2 * n)
        return self._of(out)

    def __rmul__(self, s):
        return type(self)({k: s * c for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # consistent with ==, since every scalar has one form
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


#: A generator name.  q alone or followed by '^' is the indeterminate, so it
#: is no name.
NAME = re.compile(r"(?!q(?![A-Za-z0-9_]))[A-Za-z][A-Za-z0-9_^]*")
#: An integer literal: optionally signed ASCII digits.
INTEGER = re.compile(r"[+-]?[0-9]+")
_SPACE = re.compile(r"\s*")
#: How deeply '(' and unary signs may nest; this keeps the reader's
#: recursion far below the interpreter's limit.
_MAX_DEPTH = 100
#: Largest |k| in q^k; polynomials are dense, so q^k holds k + 1
#: coefficients, and a few digits must not ask for gigabytes.
_MAX_Q_EXPONENT = 10_000


def parse_integer(m, group=0):
    """The int of an integer literal matched as `group` of `m`, or ParseError
    at its start when it has more digits than the interpreter converts."""
    try:
        return int(m.group(group))
    except ValueError:
        raise ParseError("integer literal has too many digits",
                         pos=m.start(group)) from None


def _q_degree(c):
    """The larger degree in q of a scalar's reduced numerator and
    denominator, its power of q included; 0 for a Fraction."""
    if not isinstance(c, RatFunc):
        return 0
    return max(c.top.degree() + max(c.val, 0),
               c.bot.degree() + max(-c.val, 0))


class _Laurent:
    """A Laurent scalar that `_Reader.sum` is adding up: exponent -> nonzero
    coefficient, so a term costs its own size and not the sum's.  `lo` <= 0
    <= `hi` bound the exponents present; cancellation can leave them too
    wide, so they are made exact whenever the degree they give is too big."""

    __slots__ = ("powers", "lo", "hi")

    def __init__(self):
        self.powers, self.lo, self.hi = {}, 0, 0

    def add(self, c):
        """self += c for an int, a Fraction or a Laurent RatFunc; the q degree
        of the sum, as `_q_degree` gives it."""
        powers = self.powers
        if isinstance(c, RatFunc):
            for e, a in enumerate(c.top.coeffs, c.val):
                if a:
                    add_term(powers, e, a)
            self.lo = min(self.lo, c.val)
            self.hi = max(self.hi, c.val + c.top.degree())
        else:
            add_term(powers, 0, c)
        if self.hi - self.lo > _MAX_Q_EXPONENT:
            self.lo, self.hi = min(0, *powers), max(0, *powers)
        return self.hi - self.lo

    def value(self):
        """The sum in the one form every scalar has."""
        return uncleared(_ring(self.powers), 1)


class _Sum:
    """The running sum of `_Reader.sum`: one coefficient per key, a scalar's
    under the key (), each a `_Laurent` until a term brings it any other
    RatFunc and a plain scalar from then on."""

    __slots__ = ("like", "coeffs")

    def __init__(self, first):
        self.like, self.coeffs = None, {}
        self.add(first, False)

    def add(self, term, negate):
        """Add `term`, or subtract it when `negate`; the largest q degree of
        the coefficients this changed."""
        if isinstance(term, Combination):
            if self.like is None:
                self.like = term
            items = term.terms.items()
        else:
            items = (((), term),)
        coeffs, degree = self.coeffs, 0
        for key, c in items:
            if negate:
                c = -c
            cur = coeffs.get(key)
            if cur is None:
                cur = coeffs[key] = _Laurent()
            if isinstance(cur, _Laurent):
                if not isinstance(c, RatFunc) or len(c.bot.coeffs) == 1:
                    degree = max(degree, cur.add(c))
                    if not cur.powers:
                        del coeffs[key]
                    continue
                cur = cur.value()
            cur = cur + c
            degree = max(degree, _q_degree(cur))
            if cur:
                coeffs[key] = cur
            else:
                del coeffs[key]
        return degree

    def value(self):
        coeffs = {k: c.value() if isinstance(c, _Laurent) else c
                  for k, c in self.coeffs.items()}
        if self.like is None:
            return coeffs.get((), _F_ZERO)
        return self.like._of(coeffs)


class _Reader:
    """Recursive-descent evaluator of the expression grammar

        sum     := product (('+'|'-') product)*
        product := factor (('*'|'/'|'.') factor)*
        factor  := ('+'|'-') factor | integer | 'q' ['^' integer]
                   | name | '(' sum ')'

    A value is a Fraction unless it depends on q, and a RatFunc then.  Names
    evaluate through `names`, which maps them to Combinations keyed by
    tuples.  '.' joins two names only, so a float such as 0.5 is no product.
    Every binary operator bounds the q degree of the value it makes, as the
    numerators and denominators it reduces to are dense.
    """

    def __init__(self, text, names):
        self.text, self.names = text, names
        self.i = self.depth = 0

    def peek(self):
        """The next character after whitespace, or ''."""
        self.i = _SPACE.match(self.text, self.i).end()
        return self.text[self.i:self.i + 1]

    def error(self, message, pos=None):
        return ParseError(message, pos=self.i if pos is None else pos)

    def enter(self):
        self.depth += 1
        if self.depth > _MAX_DEPTH:
            raise self.error(f"nested deeper than {_MAX_DEPTH} levels")

    def times(self, x, y, at):
        """x * y for the operator at position `at`.  A scalar that meets a
        Combination is first lifted onto its unit key ()."""
        if isinstance(x, Combination) != isinstance(y, Combination):
            if isinstance(x, Combination):
                y = x._of({(): y} if y else {})
            else:
                x = y._of({(): x} if x else {})
        value = x * y
        for c in (value.terms.values() if isinstance(value, Combination)
                  else (value,)):
            if _q_degree(c) > _MAX_Q_EXPONENT:
                raise self.error(f"q degree beyond {_MAX_Q_EXPONENT}", at)
        return value

    def sum(self):
        """A sum costs about its length: its terms go into a `_Sum`."""
        value = self.product()
        if self.peek() not in ("+", "-"):
            return value
        total = _Sum(value)
        while (op := self.peek()) in ("+", "-"):
            at = self.i
            self.i += 1
            if self.peek() in ("", ")"):
                raise self.error(f"empty term after {op!r}", at)
            if total.add(self.product(), op == "-") > _MAX_Q_EXPONENT:
                raise self.error(f"q degree beyond {_MAX_Q_EXPONENT}", at)
        return total.value()

    def product(self):
        self.peek()
        start = self.i
        value, named = self.factor(start)
        while (op := self.peek()) in ("*", "/", "."):
            at = self.i
            self.i += 1
            rhs, rhs_named = self.factor(start)
            if op == "." and not (named and rhs_named):
                raise self.error("'.' joins generator names only", at)
            if op == "/":
                if isinstance(rhs, Combination):
                    raise self.error("divisor must be a scalar", at)
                if not rhs:
                    raise self.error("zero denominator")
                rhs = 1 / rhs
            value, named = self.times(value, rhs, at), rhs_named
        return value

    def factor(self, start):
        """(value, whether it is a name, possibly signed); `start` is where
        the enclosing product starts."""
        ch = self.peek()
        text, at = self.text, self.i
        if ch in ("+", "-"):
            self.i += 1
            self.enter()
            value, named = self.factor(start)
            self.depth -= 1
            return (-value if ch == "-" else value), named
        if ch == "(":
            self.i += 1
            self.enter()
            value = self.sum()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.i += 1
            self.depth -= 1
            return value, False
        m = NAME.match(text, at)
        if m:
            self.i = m.end()
            if m.group() not in self.names:
                raise ParseError(f"not a term: {text[start:self.i]!r} "
                                 f"(unknown name {m.group()!r})", pos=start)
            return self.names[m.group()], True
        if ch == "q":
            self.i += 1
            if not text.startswith("^", self.i):
                return q, False
            m = INTEGER.match(text, self.i + 1)
            if not m:
                raise self.error("expected an integer", self.i + 1)
            self.i, k = m.end(), parse_integer(m)
            if abs(k) > _MAX_Q_EXPONENT:
                raise self.error(f"q exponent beyond {_MAX_Q_EXPONENT}",
                                 m.start())
            return RatFunc(_P_ONE, _P_ONE, k), False
        # no sign here, so INTEGER matches bare digits
        m = INTEGER.match(text, at)
        if not m:
            raise self.error("expected a number, q, a name or '('")
        self.i = m.end()
        return Fraction(parse_integer(m)), False


def parse_expression(text, names=None):
    """Value of `text` under the `_Reader` grammar.

    Without `names` it is a scalar: a Fraction unless its value depends on
    q, and a RatFunc then.  Errors carry the 0-based position in `text`.
    """
    reader = _Reader(text, names or {})
    value = reader.sum()
    if reader.peek():
        raise reader.error("unexpected trailing input")
    return value


def parse_scalar(text):
    """One scalar such as 3, -5/7, q^-1, 2*q^2+1 or (q^2+1)/(q)."""
    return parse_expression(text)
