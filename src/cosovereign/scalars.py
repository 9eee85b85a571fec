"""Exact scalar arithmetic over Q and over Q(q).

Two coefficient fields are supported.  Rational-mode scalars are plain
``fractions.Fraction`` values.  q-mode scalars are ``RatFunc`` values, reduced
quotients of polynomials in the indeterminate q.  The canonical form of a
``RatFunc`` has a monic denominator and coprime numerator/denominator, so
structural equality coincides with mathematical equality; zero is always 0/1.

The two kinds mix in arithmetic (ints and Fractions are promoted to constant
rational functions), which keeps matrix and rewriting code agnostic of the
coefficient field.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union


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


def _exact(c):
    """Fraction of an exact number; floats are refused, not rounded."""
    if isinstance(c, float):
        raise TypeError(f"inexact coefficient {c!r}; use an int or Fraction")
    return Fraction(c)


class Poly:
    """Dense univariate polynomial over Q; coefficients ascending by power."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, Fraction) else _exact(c) for c in coeffs]
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
        return Poly(c / lc for c in self.coeffs)

    def shift(self, k):
        """Multiply by q**k, k >= 0."""
        if not k or not self.coeffs:
            return self
        return _poly((_F_ZERO,) * k + self.coeffs)

    def __add__(self, other):
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return Poly(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, Fraction) or isinstance(other, int):
            return Poly(c * other for c in self.coeffs)
        xs, ys = self.coeffs, other.coeffs
        if not xs or not ys:
            return _P_ZERO
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
        out = _P_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
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
_F_ONE = Fraction(1)
_P_ZERO = Poly()
_P_ONE = Poly([1])
_P_Q = Poly([0, 1])


def _q_power(k):
    """q**k, k >= 0."""
    return _poly((_F_ZERO,) * k + (_F_ONE,)) if k else _P_ONE


def _q_exponent(p):
    """k when the monic p is q**k, else None."""
    cs = p.coeffs
    return None if any(cs[:-1]) else len(cs) - 1


class RatFunc:
    """Reduced quotient of two ``Poly`` values; the denominator is monic."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=_P_ONE):
        if not isinstance(num, Poly):
            num = Poly([num])
        if not isinstance(den, Poly):
            den = Poly([den])
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = _P_ZERO, _P_ONE
            return
        dc = den.coeffs
        if not any(dc[:-1]):
            # den = lc*q^k, so gcd(num, den) = q^min(val(num), k)
            k = len(dc) - 1
            nc = num.coeffs
            s = 0
            while s < k and not nc[s]:
                s += 1
            lc = dc[-1]
            if lc != 1:
                nc = tuple(c / lc for c in nc)
            elif not s:
                self.num, self.den = num, den
                return
            self.num = _poly(nc[s:])
            self.den = _q_power(k - s)
            return
        g = Poly.gcd(num, den)
        if g.degree() > 0:
            num, den = num // g, den // g
        lc = den.leading()
        if lc != 1:
            num = num * (1 / lc)
            den = den * (1 / lc)
        self.num, self.den = num, den

    # -- coercion -----------------------------------------------------------

    @staticmethod
    def _coerce(x):
        if isinstance(x, RatFunc):
            return x
        if isinstance(x, (int, Fraction)):
            return RatFunc(Poly([Fraction(x)]))
        return None

    def is_zero(self):
        return self.num.is_zero()

    def is_constant(self):
        return self.den == _P_ONE and self.num.degree() <= 0

    def as_fraction(self):
        if not self.is_constant():
            raise ValueError(f"{self} is not a constant rational function")
        return self.num.coeffs[0] if self.num.coeffs else Fraction(0)

    # -- arithmetic ---------------------------------------------------------

    def _plus(self, other, sign):
        """self + sign*other, sign being 1 or -1."""
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ks, ko = _q_exponent(self.den), _q_exponent(o.den)
        if ks is None or ko is None:
            a, b, den = self.num * o.den, o.num * self.den, self.den * o.den
        elif ks >= ko:
            # q^k denominators: shift the numerators onto the larger one
            a, b, den = self.num, o.num.shift(ks - ko), self.den
        else:
            a, b, den = self.num.shift(ko - ks), o.num, o.den
        return RatFunc(a + b if sign > 0 else a - b, den)

    def __add__(self, other):
        return self._plus(other, 1)

    __radd__ = __add__

    def __sub__(self, other):
        return self._plus(other, -1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self):
        return RatFunc(-self.num, self.den)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        ks, ko = _q_exponent(self.den), _q_exponent(o.den)
        if ks is None or ko is None:
            den = self.den * o.den
        else:
            den = _q_power(ks + ko)
        return RatFunc(self.num * o.num, den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero():
            raise ZeroDivisionError("division by zero scalar")
        return RatFunc(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __pow__(self, k):
        if k == 0:
            return RatFunc(_P_ONE)
        if k < 0:
            if self.is_zero():
                raise ZeroDivisionError("negative power of zero")
            return RatFunc(self.den, self.num) ** (-k)
        return RatFunc(self.num ** k, self.den ** k)

    def __eq__(self, other):
        if isinstance(other, RatFunc):
            return (self.num.coeffs == other.num.coeffs
                    and self.den.coeffs == other.den.coeffs)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        # the canonical form of a constant c is c/1, and of zero 0/1
        nc = self.num.coeffs
        if not other:
            return not nc
        return len(self.den.coeffs) == 1 and len(nc) == 1 and nc[0] == other

    def __hash__(self):
        # constants hash like the Fraction they equal
        if self.is_constant():
            return hash(self.as_fraction())
        return hash((self.num.coeffs, self.den.coeffs))

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"RatFunc({format_scalar(self)!r})"


#: The indeterminate, as a scalar.
q = RatFunc(_P_Q)

Scalar = Union[Fraction, RatFunc]


def as_ratfunc(s):
    out = RatFunc._coerce(s)
    if out is None:
        raise TypeError(f"cannot promote {s!r} to a rational function")
    return out


def scalar_sign(s):
    """Sign of a Fraction, or of the leading numerator coefficient."""
    if isinstance(s, RatFunc):
        if s.is_zero():
            return 0
        lc = s.num.leading()
        return 1 if lc > 0 else -1
    return (s > 0) - (s < 0)


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _laurent_terms(poly, shift):
    """(exponent, coefficient) pairs of poly * q**shift, descending exponent."""
    return [(i + shift, c) for i in range(poly.degree(), -1, -1)
            for c in [poly.coeffs[i]] if c]


def _laurent_str(pairs, compact):
    plus, minus = ("+", "-") if compact else (" + ", " - ")
    parts = []
    for k, c in pairs:
        mag = c if c > 0 else -c
        if k == 0:
            body = str(mag)
        else:
            head = "q" if k == 1 else f"q^{k}"
            body = head if mag == 1 else f"{mag}*{head}"
        if not parts:
            parts.append(body if c > 0 else "-" + body)
        else:
            parts.append((plus if c > 0 else minus) + body)
    return "".join(parts) if parts else "0"


def format_scalar(s, compact=False):
    if isinstance(s, (int, Fraction)):
        return str(s)
    if s.is_zero():
        return "0"
    m = _q_exponent(s.den)
    if m is not None:
        return _laurent_str(_laurent_terms(s.num, -m), compact)
    num = _laurent_str(_laurent_terms(s.num, 0), compact)
    den = _laurent_str(_laurent_terms(s.den, 0), compact)
    return f"({num})/({den})"


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


def _coeff_text(c):
    """A coefficient magnitude, parenthesized when it is a sum."""
    text = format_scalar(c, compact=True)
    depth = 0
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch in "+-" and depth == 0:
            return f"({text})"
    return text


class Combination:
    """Finite combination of hashable keys with exact scalar coefficients;
    immutable and zero-free.

    Subclasses set `_order`, the sort key that puts the leading term first.
    A term on the empty key (the unit) renders as its coefficient alone,
    unless that is 1 or -1.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for k, c in items:
            if isinstance(c, float):
                raise TypeError(f"inexact coefficient {c!r}; use an int, "
                                "Fraction or RatFunc")
            add_term(data, k, c)
        self.terms = data

    @classmethod
    def _of(cls, terms):
        """Wrap a dict that is already zero-free, without copying it."""
        out = cls.__new__(cls)
        out.terms = terms
        return out

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

    def __rmul__(self, s):
        return type(self)({k: s * c for k, c in self.terms.items()})

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # consistent with ==: a constant RatFunc hashes like its Fraction
        return hash(frozenset(self.terms.items()))

    def _render(self, render_key):
        parts = []
        for k, c in self.pairs():
            neg = scalar_sign(c) < 0
            mag = -c if neg else c
            if mag == 1:
                body = render_key(k)
            elif k:
                body = f"{_coeff_text(mag)}*{render_key(k)}"
            else:
                body = _coeff_text(mag)
            if parts:
                parts.append(" - " if neg else " + ")
            elif neg:
                parts.append("-")
            parts.append(body)
        return "".join(parts) or "0"

    def __repr__(self):
        return f"{type(self).__name__}({self.terms!r})"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


class _Scan:
    def __init__(self, text, offset=0):
        self.text = text
        self.i = 0
        self.offset = offset

    def err(self, message):
        raise ParseError(message, pos=self.offset + self.i)

    def ws(self):
        while self.i < len(self.text) and self.text[self.i].isspace():
            self.i += 1

    def peek(self):
        return self.text[self.i] if self.i < len(self.text) else ""

    def take(self, ch):
        if self.peek() == ch:
            self.i += 1
            return True
        return False

    def expect(self, ch):
        if not self.take(ch):
            self.err(f"expected {ch!r}")

    def integer(self):
        j = self.i
        if self.peek() and self.peek() in "+-":
            self.i += 1
        if not self.peek().isdigit():
            self.err("expected an integer")
        while self.peek().isdigit():
            self.i += 1
        return int(self.text[j:self.i])


def _parse_laurent(sc):
    """Sum of c*q^k terms -> (dict exponent -> Fraction, saw_q flag)."""
    out = {}
    saw_q = False
    sign = 1
    sc.ws()
    if sc.take("-"):
        sign = -1
    elif sc.take("+"):
        pass
    while True:
        sc.ws()
        coeff, exp, saw = _parse_term(sc)
        saw_q = saw_q or saw
        out[exp] = out.get(exp, Fraction(0)) + sign * coeff
        sc.ws()
        if sc.take("+"):
            sign = 1
        elif sc.take("-"):
            sign = -1
        else:
            break
    return {k: c for k, c in out.items() if c}, saw_q


def _parse_term(sc):
    """One c, c*q^k, or q^k term -> (coefficient, exponent, saw_q)."""
    if sc.peek() == "q":
        sc.i += 1
        return Fraction(1), _parse_exponent(sc), True
    if not (sc.peek().isdigit()):
        sc.err("expected a number or q")
    n = sc.integer()
    coeff = Fraction(n)
    if sc.take("/"):
        d = sc.integer()
        if d == 0:
            sc.err("zero denominator")
        coeff = Fraction(n, d)
    if sc.take("*"):
        if not sc.take("q"):
            sc.err("expected q after '*'")
        return coeff, _parse_exponent(sc), True
    return coeff, 0, False


def _parse_exponent(sc):
    if sc.take("^"):
        return sc.integer()
    return 1


def _laurent_to_scalar(terms, saw_q):
    if not terms:
        return RatFunc(_P_ZERO) if saw_q else Fraction(0)
    lo = min(terms)
    if not saw_q:
        return terms.get(0, Fraction(0))
    shift = -lo if lo < 0 else 0
    coeffs = [Fraction(0)] * (max(terms) + shift + 1)
    for k, c in terms.items():
        coeffs[k + shift] = c
    return RatFunc(Poly(coeffs), _q_power(shift))


def parse_scalar(text, offset=0):
    """Parse one scalar: rational literal, Laurent q-expression, or (p)/(p).

    Returns a Fraction when the text never mentions q, otherwise a RatFunc.
    """
    sc = _Scan(text, offset)
    sc.ws()
    neg = False
    if sc.peek() == "-":
        # could be a negated parenthesized form; plain terms handle their own sign
        j = sc.i
        sc.i += 1
        sc.ws()
        if sc.peek() == "(":
            neg = True
        else:
            sc.i = j
    if sc.peek() == "(":
        sc.expect("(")
        num_terms, saw1 = _parse_laurent(sc)
        sc.ws()
        sc.expect(")")
        sc.ws()
        if sc.take("/"):
            sc.ws()
            sc.expect("(")
            den_terms, saw2 = _parse_laurent(sc)
            sc.ws()
            sc.expect(")")
            num = _laurent_to_scalar(num_terms, True)
            den = _laurent_to_scalar(den_terms, True)
            if den.is_zero():
                sc.err("zero denominator")
            value = num / den
            if not (saw1 or saw2):
                value = value.as_fraction()
        else:
            value = _laurent_to_scalar(num_terms, saw1)
    else:
        terms, saw_q = _parse_laurent(sc)
        value = _laurent_to_scalar(terms, saw_q)
    sc.ws()
    if sc.i != len(sc.text):
        sc.err("unexpected trailing input")
    if neg:
        value = -value
    return value
