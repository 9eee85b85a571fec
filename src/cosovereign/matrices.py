"""Exact dense matrices and the predicates that classify a defining matrix.

A matrix is normalized when tr(F) = tr(F^-1), normalizable when some scalar
multiple is normalized, and generic when it is normalized and the solutions
of q^2 - tr(F) q + 1 = 0 avoid roots of unity of order three or more.  For a
rational trace t the genericity test reduces to t not in {-1, 0, 1}: those are
the only rational values of z + 1/z at such roots of unity (t = +-2 gives
q = +-1, which stays generic).

Similarity is decided by rational canonical form, i.e. by the invariant
factors of the characteristic matrix, so no eigenvalue computation or field
extension is ever needed.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .scalars import ParseError, Poly, RatFunc, format_scalar, parse_scalar


class NonSquareError(ValueError):
    pass


class SingularMatrixError(ValueError):
    pass


def _coerce_entry(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, RatFunc):
        return x
    raise TypeError(f"not a scalar entry: {x!r}")


class ExactMatrix:
    """Immutable rectangular matrix of exact scalars (all Q or all Q(q))."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        grid = [tuple(_coerce_entry(x) for x in row) for row in entries]
        if not grid or not grid[0]:
            raise ValueError("matrix must have positive dimensions")
        if any(len(row) != len(grid[0]) for row in grid):
            raise ValueError("ragged rows in matrix")
        if any(isinstance(x, RatFunc) for row in grid for x in row):
            grid = [tuple(x if isinstance(x, RatFunc) else RatFunc(x) for x in row)
                    for row in grid]
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
        return "q" if isinstance(self.entries[0][0], RatFunc) else "rational"

    def is_square(self):
        return self.rows == self.cols

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and all(
            self.entries[i][j] == other.entries[i][j]
            for i in range(self.rows) for j in range(self.cols))

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        body = "; ".join(" ".join(format_scalar(x, compact=True) for x in row)
                         for row in self.entries)
        return f"ExactMatrix[{body}]"

    def transpose(self):
        return ExactMatrix([[self.entries[i][j] for i in range(self.rows)]
                            for j in range(self.cols)])

    def __neg__(self):
        return ExactMatrix([[-x for x in row] for row in self.entries])

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
        a[col] = [x * ip for x in a[col]]
        inv[col] = [x * ip for x in inv[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
                inv[r] = [x - f * y for x, y in zip(inv[r], inv[col])]
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
    if inv is None or det == 0:
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


def _smith_diagonal(a):
    """Diagonalize a matrix over Q[x] by row/column operations, in place."""
    n, m = len(a), len(a[0])
    diag = []
    k = 0
    while k < min(n, m):
        piv = None
        for i in range(k, n):
            for j in range(k, m):
                e = a[i][j]
                if not e.is_zero() and (piv is None or
                                        e.degree() < a[piv[0]][piv[1]].degree()):
                    piv = (i, j)
        if piv is None:
            break
        if piv[0] != k:
            a[k], a[piv[0]] = a[piv[0]], a[k]
        if piv[1] != k:
            for row in a:
                row[k], row[piv[1]] = row[piv[1]], row[k]
        while True:
            changed = True
            while changed:
                changed = False
                for i in range(k + 1, n):
                    if a[i][k].is_zero():
                        continue
                    qt = a[i][k] // a[k][k]
                    for j in range(k, m):
                        a[i][j] = a[i][j] - qt * a[k][j]
                    if not a[i][k].is_zero():
                        a[k], a[i] = a[i], a[k]
                        changed = True
                for j in range(k + 1, m):
                    if a[k][j].is_zero():
                        continue
                    qt = a[k][j] // a[k][k]
                    for i in range(k, n):
                        a[i][j] = a[i][j] - qt * a[i][k]
                    if not a[k][j].is_zero():
                        for row in a:
                            row[k], row[j] = row[j], row[k]
                        changed = True
            bad = next(((i, j) for i in range(k + 1, n) for j in range(k + 1, m)
                        if not (a[i][j] % a[k][k]).is_zero()), None)
            if bad is None:
                break
            for j in range(k, m):
                a[k][j] = a[k][j] + a[bad[0]][j]
        diag.append(a[k][k])
        k += 1
    return diag


def invariant_factors(m):
    """Monic non-constant invariant factors of xI - M, in divisibility order."""
    if not m.is_square():
        raise NonSquareError("invariant factors of a non-square matrix")
    if m.mode != "rational":
        raise ValueError("invariant factors require a rational-mode matrix")
    n = m.rows
    a = [[Poly([-m.entries[i][j], 1]) if i == j else Poly([-m.entries[i][j]])
          for j in range(n)] for i in range(n)]
    diag = _smith_diagonal(a)
    return tuple(d.monic() for d in diag if d.degree() >= 1)


def similar(a, b):
    """Conjugacy over Q, decided by equality of rational canonical forms."""
    if not a.is_square() or not b.is_square():
        raise NonSquareError("similarity of non-square matrices")
    if a.rows != b.rows:
        raise ValueError(f"size mismatch: {a.rows}x{a.rows} vs {b.rows}x{b.rows}")
    return invariant_factors(a) == invariant_factors(b)


_ISO_CONDITIONS = (
    ("i", "F ~ E", lambda e, f: similar(f, e)),
    ("i", "F ~ -E", lambda e, f: similar(f, -e)),
    ("ii", "tF^-1 ~ E", lambda e, f: similar(inverse(f).transpose(), e)),
    ("ii", "tF^-1 ~ -E", lambda e, f: similar(inverse(f).transpose(), -e)),
)


def hopf_isomorphism_witness(e, f):
    """Which isomorphism condition holds, as '(i|ii): detail', or None.

    Both inputs must be generic; that hypothesis is checked and violations
    are rejected rather than answered.
    """
    for name, mat in (("E", e), ("F", f)):
        if not is_generic(mat):
            raise ValueError(
                f"matrix {name} is not generic; the isomorphism criterion "
                f"only applies to generic matrices")
    if e.rows != f.rows:
        return None
    for cond, detail, check in _ISO_CONDITIONS:
        if check(e, f):
            return f"{cond}: {detail}"
    return None


def hopf_isomorphic(e, f):
    """Same-size generic matrices related by F = +-PEP^-1 or tF^-1 = +-PEP^-1."""
    return hopf_isomorphism_witness(e, f) is not None


# ---------------------------------------------------------------------------
# matrix file format
# ---------------------------------------------------------------------------


def parse_matrix(text):
    """Parse '<rows> <cols>' then one whitespace-separated line per row.

    Errors carry the 1-based line and column of the offending token.
    """
    lines = text.splitlines()
    header_no = None
    for no, line in enumerate(lines, start=1):
        if line.strip() and not line.lstrip().startswith("#"):
            header_no = no
            break
    if header_no is None:
        raise ParseError("empty matrix file", line=1, col=1)
    header = lines[header_no - 1].split()
    if len(header) != 2 or not all(t.lstrip("-").isdigit() for t in header):
        raise ParseError("expected header '<rows> <cols>'", line=header_no, col=1)
    rows, cols = int(header[0]), int(header[1])
    if rows <= 0 or cols <= 0:
        raise ParseError("matrix dimensions must be positive", line=header_no, col=1)

    grid = []
    no = header_no
    for _ in range(rows):
        no += 1
        while no <= len(lines) and not lines[no - 1].strip():
            no += 1
        if no > len(lines):
            raise ParseError(f"expected {rows} rows, found {len(grid)}",
                             line=len(lines), col=1)
        line = lines[no - 1]
        tokens = list(re.finditer(r"\S+", line))
        if len(tokens) != cols:
            raise ParseError(f"expected {cols} entries, found {len(tokens)}",
                             line=no, col=1)
        row = []
        for tok in tokens:
            try:
                row.append(parse_scalar(tok.group()))
            except ParseError as exc:
                inner = exc.pos if exc.pos is not None else 0
                raise ParseError(exc.message, line=no,
                                 col=tok.start() + 1 + inner) from None
        grid.append(row)
    return ExactMatrix(grid)


def format_matrix(m):
    lines = [f"{m.rows} {m.cols}"]
    for row in m.entries:
        lines.append(" ".join(format_scalar(x, compact=True) for x in row))
    return "\n".join(lines) + "\n"


def load_matrix(path):
    with open(path, encoding="utf-8") as fh:
        return parse_matrix(fh.read())
