"""Exact dense matrices and the predicates that classify a defining matrix.

A matrix is normalized when tr(F) = tr(F^-1), normalizable when some scalar
multiple is normalized, and generic when it is normalized and the solutions
of q^2 - tr(F) q + 1 = 0 avoid roots of unity of order three or more.  For a
rational trace t the genericity test reduces to t not in {-1, 0, 1}: those are
the only rational values of z + 1/z at such roots of unity (t = +-2 gives
q = +-1, which stays generic).

Similarity is decided by rational canonical form, i.e. by the invariant
factors of the characteristic matrix, so no eigenvalue computation or field
extension is ever needed; the Hopf-isomorphism test needs only those of E
and F.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import (INTEGER, ParseError, Poly, RatFunc, exact,
                      format_scalar, parse_integer, parse_scalar)


class NonSquareError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


class ExactMatrix:
    """Immutable rectangular matrix of exact scalars; its mode is "q" when
    some entry depends on q, and "rational" otherwise."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        grid = [tuple(Fraction(x) if isinstance(x, int) else exact(x)
                      for x in row) for row in entries]
        if not grid or not grid[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows in matrix")
        self.entries = tuple(grid)
        self.rows = len(grid)
        self.cols = len(grid[0])

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def diagonal(cls, values):
        vals = list(values)
        n = len(vals)
        return cls([[vals[i] if i == j else 0 for j in range(n)] for i in range(n)])

    @property
    def mode(self):
        return ("q" if any(isinstance(x, RatFunc) for row in self.entries
                           for x in row) else "rational")

    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x, compact=True) for x in row)
                         for row in self.entries)
        return f"ExactMatrix[{body}]"

    def transpose(self):
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __mul__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError("dimension mismatch in matrix product")
        return ExactMatrix([
            [sum((self.entries[i][k] * other.entries[k][j]
                  for k in range(self.cols)), Fraction(0))
             for j in range(other.cols)]
            for i in range(self.rows)])


def trace(m):
    """Sum of the diagonal entries; rejects non-square input."""
    if not m.is_square():
        raise NonSquareError(f"trace of a {m.rows}x{m.cols} matrix")
    return sum((m.entries[i][i] for i in range(m.rows)), Fraction(0))


def _eliminated(m):
    """Row-reduce a copy against the identity; returns (det, inverse rows)."""
    n = m.rows
    a = [list(row) for row in m.entries]
    inv = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0), None
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            inv[col], inv[piv] = inv[piv], inv[col]
            det = -det
        p = a[col][col]
        det = det * p
        ip = 1 / p
        a[col] = [x * ip if x else x for x in a[col]]
        inv[col] = [x * ip if x else x for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y if y else x for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y if y else x
                          for x, y in zip(inv[r], inv[col])]
    return det, inv


def determinant(m):
    if not m.is_square():
        raise NonSquareError(f"determinant of a {m.rows}x{m.cols} matrix")
    det, _ = _eliminated(m)
    return det


def inverse(m):
    """Exact inverse; raises SingularMatrixError when the determinant is zero."""
    if not m.is_square():
        raise NonSquareError(f"inverse of a {m.rows}x{m.cols} matrix")
    det, inv = _eliminated(m)
    if inv is None:
        raise SingularMatrixError("matrix is singular (determinant is zero)")
    return ExactMatrix(inv)


def is_normalized(f):
    """tr(F) == tr(F^-1), exactly."""
    return trace(f) == trace(inverse(f))


def is_normalizable(f):
    """False exactly when one of tr(F), tr(F^-1) vanishes and the other does not.

    Over an algebraically closed extension, lambda^2 tr(F) = tr(F^-1) is
    solvable for lambda unless the traces disagree about being zero.
    """
    t = trace(f)
    ti = trace(inverse(f))
    return (t == 0) == (ti == 0)


def is_generic(f):
    """Normalized with rational trace outside {-1, 0, 1}.

    Only rational-mode matrices are accepted: the criterion relies on the
    rational values of z + 1/z at roots of unity.
    """
    if f.mode != "rational":
        raise ValueError("genericity test requires a rational-mode matrix")
    if not is_normalized(f):
        return False
    return trace(f) not in (Fraction(-1), Fraction(0), Fraction(1))


# ---------------------------------------------------------------------------
# similarity by rational canonical form
# ---------------------------------------------------------------------------


def invariant_factors(m):
    """Monic non-constant invariant factors of xI - M, in divisibility order.

    Smith form, one loop per diagonal position: move a least-degree entry of
    the trailing block to the pivot and divide the pivot out of its row and
    column; repeat while a remainder, or an entry the pivot does not divide
    (its row added into the pivot row), leaves a lower degree.  xI - M has
    full rank, so the trailing block is never zero.
    """
    if not m.is_square():
        raise NonSquareError("invariant factors of a non-square matrix")
    if m.mode != "rational":
        raise ValueError("invariant factors require a rational-mode matrix")
    n = m.rows
    a = [[Poly([-m.entries[i][j], 1]) if i == j else Poly([-m.entries[i][j]])
          for j in range(n)] for i in range(n)]
    diag = []
    for k in range(n):
        while True:
            _, i, j = min((a[i][j].degree(), i, j) for i in range(k, n)
                          for j in range(k, n) if not a[i][j].is_zero())
            a[k], a[i] = a[i], a[k]
            for row in a:
                row[k], row[j] = row[j], row[k]
            p = a[k][k]
            for row in a[k + 1:]:
                qt = row[k] // p
                row[k:] = [x - qt * y for x, y in zip(row[k:], a[k][k:])]
            for j in range(k + 1, n):
                qt = a[k][j] // p
                for row in a[k:]:
                    row[j] = row[j] - qt * row[k]
            bad = next((i for i in range(k, n) for j in range(k, n)
                        if not (a[i][j] % p).is_zero()), None)
            if bad is None:
                break
            if bad > k:
                a[k] = [x + y for x, y in zip(a[k], a[bad])]
        diag.append(p)
    return tuple(d.monic() for d in diag if d.degree() >= 1)


def similar(a, b):
    """Conjugacy over Q, decided by equality of rational canonical forms."""
    if not a.is_square() or not b.is_square():
        raise NonSquareError("similarity of non-square matrices")
    if a.rows != b.rows:
        raise ValueError(f"size mismatch: {a.rows}x{a.rows} vs {b.rows}x{b.rows}")
    return invariant_factors(a) == invariant_factors(b)


def _negated(p):
    """(-1)^deg p(-x): the invariant factor of -M for the factor p of M."""
    d = p.degree()
    return Poly(-c if (d - i) % 2 else c for i, c in enumerate(p.coeffs))


def _reciprocal(p):
    """x^deg p(1/x) / p(0): the invariant factor of M^-1 for the factor p of
    an invertible M."""
    return Poly(c / p.coeffs[0] for c in reversed(p.coeffs))


def hopf_isomorphism_witness(e, f):
    """Which isomorphism condition holds, as '(i|ii): detail', or None.

    Both inputs must be generic; that hypothesis is checked and violations
    are rejected rather than answered.  All four conditions are read off the
    invariant factors of E and F: tM is similar to M, and negating or
    inverting a cyclic block leaves it cyclic, with factor p(-x) up to sign
    or the reciprocal of p.
    """
    for name, mat in (("E", e), ("F", f)):
        if not is_generic(mat):
            raise ValueError(
                f"matrix {name} is not generic; the isomorphism criterion "
                f"only applies to generic matrices")
    if e.rows != f.rows:
        return None
    fe, ff = invariant_factors(e), invariant_factors(f)
    signed_e = ((fe, "E"), (tuple(map(_negated, fe)), "-E"))
    for cond, lhs, name in (("i", ff, "F"),
                            ("ii", tuple(map(_reciprocal, ff)), "tF^-1")):
        for rhs, rhs_name in signed_e:
            if lhs == rhs:
                return f"{cond}: {name} ~ {rhs_name}"
    return None


def hopf_isomorphic(e, f):
    """Same-size generic matrices related by F = +-PEP^-1 or tF^-1 = +-PEP^-1."""
    return hopf_isomorphism_witness(e, f) is not None


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------


def parse_matrix(text):
    """Parse '<rows> <cols>' then one whitespace-separated line per row.

    Blank lines and lines starting with '#' are skipped.  Errors carry the
    1-based line and column of the offending token.
    """
    lines = text.splitlines()
    body = [(no, line) for no, line in enumerate(lines, start=1)
            if line.strip() and not line.lstrip().startswith("#")]
    if not body:
        raise ParseError("empty matrix file", line=1, col=1)
    header_no, header = body.pop(0)
    sizes = [INTEGER.fullmatch(header, *t.span())
             for t in re.finditer(r"\S+", header)]
    if len(sizes) != 2 or not all(sizes):
        raise ParseError("expected header '<rows> <cols>'", line=header_no, col=1)
    try:
        rows, cols = map(parse_integer, sizes)
    except ParseError as exc:
        raise ParseError(exc.message, line=header_no, col=exc.pos + 1) from None
    if rows <= 0 or cols <= 0:
        raise ParseError("matrix dimensions must be positive", line=header_no, col=1)

    grid = []
    for no, line in body[:rows]:
        tokens = list(re.finditer(r"\S+", line))
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries, found {len(tokens)}",
                             line=no, col=1)
        row = []
        for tok in tokens:
            try:
                row.append(parse_scalar(tok.group()))
            except ParseError as exc:
                raise ParseError(exc.message, line=no,
                                 col=tok.start() + 1 + exc.pos) from None
        grid.append(row)
    if len(grid) < rows:
        raise ParseError(f"expected {rows} rows, found {len(grid)}",
                         line=len(lines), col=1)
    if len(body) > rows:
        raise ParseError(f"expected {rows} rows, found more",
                         line=body[rows][0], col=1)
    return ExactMatrix(grid)


def format_matrix(m):
    lines = [f"{m.rows} {m.cols}"]
    for row in m.entries:
        lines.append(" ".join(format_scalar(x, compact=True) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())
