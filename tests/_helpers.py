"""Shared generators for randomized exact-matrix tests, and a reference
recurrence for label dimensions."""

from fractions import Fraction

from cosovereign import ExactMatrix


def random_unimodular(rng, n, steps=8):
    """Integer matrix of determinant +-1, built from elementary operations."""
    rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        rows[i] = [a + c * b for a, b in zip(rows[i], rows[j])]
        if rng.random() < 0.2:
            i, j = rng.sample(range(n), 2)
            rows[i], rows[j] = rows[j], rows[i]
    return ExactMatrix(rows)


def companion(coeffs):
    """Companion matrix of x^n + a_{n-1} x^{n-1} + ... + a_0, coeffs = (a_0, ..., a_{n-1})."""
    n = len(coeffs)
    return ExactMatrix([[(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i]
                         for j in range(n)] for i in range(n)])


def generic_integer_matrix(rng, n, trace, det_param=None):
    """Random integer matrix with tr(M) = tr(M^-1) = trace, conjugated to
    hide the companion shape.  Needs the constraint a_1 = a_0 * a_{n-1}."""
    t = trace
    d = det_param if det_param is not None else rng.choice((1, -1, 2))
    if n == 2:
        coeffs = (1, -t)
    elif n == 3:
        coeffs = (d, -t * d, -t)
    elif n == 4:
        c = rng.randrange(-3, 4)
        coeffs = (d, -t * d, c, -t)
    else:
        raise ValueError("sizes 2..4 only")
    p = random_unimodular(rng, n)
    from cosovereign import inverse
    return p * companion(coeffs) * inverse(p)


def normalized_2x2(t):
    """Companion of x^2 - t x + 1; trace and inverse-trace both equal t."""
    return ExactMatrix([[0, -1], [1, t]])


def expected_hef_witnesses(alphabet, m, n):
    """The four overlap families and two inclusions of the H(E, F) system."""
    def u(i, j):
        return alphabet.index(f"u{i}{j}")

    def v(i, j):
        return alphabet.index(f"v{i}{j}")

    overlaps = set()
    for i in range(1, m + 1):
        for j in range(1, n + 1):
            overlaps.add((u(i, n), v(1, n), u(1, j)))
            overlaps.add((v(i, 1), u(m, 1), v(m, j)))
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            overlaps.add((v(1, i), u(1, n), v(j, n)))
            overlaps.add((u(m, i), v(m, 1), u(j, 1)))
    inclusions = {(v(1, 1), u(1, 1)), (u(m, n), v(m, n))}
    return overlaps, inclusions


def prefix_dim(x, n):
    """dim by peeling off the last letter instead of the first:
    x.a = x (*) a - x[:-1] when x ends in b, and symmetrically."""
    d1, d2 = 1, 0
    for i in range(len(x)):
        d = n * d1
        if i and x[i - 1] != x[i]:
            d -= d2
        d1, d2 = d, d1
    return d1
