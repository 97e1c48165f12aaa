"""Exact helpers for the benchmark's oracles.

Everything here is plain ``Fraction`` arithmetic written independently of
``ultradyn``, so an answer is never checked against the code that produced
it.  Valuations follow the library's convention: ``|x| = p^-v(x)`` and
``v(0) = inf``.
"""

from __future__ import annotations

from fractions import Fraction
from math import inf as INF


def val(q, p: int):
    """p-adic valuation of a rational; INF for zero."""
    q = Fraction(q)
    if q == 0:
        return INF
    v = 0
    n, d = q.numerator, q.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return Fraction(v)


def vec_val(x, p: int):
    """Sup-norm valuation exponent of a vector (INF for the zero vector)."""
    return min((val(c, p) for c in x), default=INF)


def cmp_abs(a, v, p: int) -> int:
    """Sign of a - p^-v for a rational a > 0 and a valuation v (INF allowed):
    1 means |lambda| < a, 0 equality, -1 means |lambda| > a."""
    a = Fraction(a)
    if v == INF:
        return 1
    v = Fraction(v)
    j, k = v.numerator, v.denominator
    lhs, rhs = a ** k, Fraction(p) ** (-j)
    return (lhs > rhs) - (lhs < rhs)


def threshold_between(p: int, v1, v2):
    """Rational a with p^-v2 < a < p^-v1 (v1 < v2, v2 may be INF)."""
    for scale in (10**3, 10**6, 10**12):
        a = _mid_guess(p, v1, v2, scale)
        if a > 0 and cmp_abs(a, v2, p) == 1 and cmp_abs(a, v1, p) == -1:
            return a
    raise ValueError(f"no rational threshold between {v1} and {v2}")


def _mid_guess(p, v1, v2, scale):
    hi = float(p) ** (-float(v1))
    lo = 0.0 if v2 == INF else float(p) ** (-float(v2))
    mid = (lo * hi) ** 0.5 if lo else hi / (2 * p)
    return Fraction(mid).limit_denominator(scale)


def second_threshold(p: int, v1, v2, first):
    """Another rational threshold in the same gap, distinct from ``first``:
    a third of the way up from p^-v2 towards p^-v1 (as in acceptance
    criterion 7), else two thirds."""
    hi = float(p) ** (-float(v1))
    lo = 0.0 if v2 == INF else float(p) ** (-float(v2))
    for w in (1 / 3, 2 / 3):
        for scale in (10**4, 10**7, 10**10):
            b = Fraction(lo + w * (hi - lo)).limit_denominator(scale)
            if b != first and b > 0 and cmp_abs(b, v2, p) == 1 \
                    and cmp_abs(b, v1, p) == -1:
                return b
    raise ValueError(f"no second rational threshold between {v1} and {v2}")


def rank(vectors) -> int:
    """Rank of a list of rational vectors (Gaussian elimination)."""
    rows = [[Fraction(c) for c in v] for v in vectors]
    r = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / rows[r][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def same_span(got, want) -> bool:
    """True iff the two lists of rational vectors span the same space and
    ``got`` is a basis of it."""
    if not want:
        return not got
    if len(got) != len(want):
        return False
    if not all(isinstance(c, (int, Fraction)) for v in got for c in v):
        return False
    return rank(want) == len(want) == rank(list(got) + list(want))


def hensel_root(coeffs, x0: int, p: int, digits: int) -> Fraction:
    """Root of the integer polynomial sum(coeffs[i] t^i) congruent to x0
    mod p, to ``digits`` p-adic digits, by Newton iteration.  Needs a simple
    root mod p (f'(x0) a unit)."""
    mod = p ** digits
    x = x0
    for _ in range(digits.bit_length() + 1):
        fx = sum(c * x ** i for i, c in enumerate(coeffs))
        dfx = sum(i * c * x ** (i - 1) for i, c in enumerate(coeffs) if i)
        x = (x - fx * pow(dfx, -1, mod)) % mod
    return Fraction(x)


def approx(c, p: int) -> Fraction:
    """Rational value of an exact rational or of a capped p-adic number
    (``unit * p^val``; an O-term or an exact zero gives 0)."""
    if isinstance(c, (int, Fraction)):
        return Fraction(c)
    if c.val == INF or not c.prec:
        return Fraction(0)
    return Fraction(c.unit) * Fraction(p) ** c.val


def near_span(got, want, p: int, digits: int) -> bool:
    """p-adic version of ``same_span`` for bases known to finite precision:
    each ``got`` vector lies within p^digits (relative to its size) of the
    span of the rational ``want`` vectors, and the coordinates of the
    ``got`` vectors, scaled to norm 1, in that span form a matrix whose
    determinant is p-adically far from 0, so ``got`` is a basis of it."""
    if len(got) != len(want):
        return False
    if not want:
        return True
    n = len(want[0])
    rows = [[Fraction(c) for c in w] for w in want]
    pivots = []  # reduced echelon form of ``want``, rows scaled to pivot 1
    for r in range(len(rows)):
        c = next((j for j in range(n) if rows[r][j] != 0 and j not in pivots), None)
        if c is None:
            return False
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    coords = []
    for g in got:
        g = [approx(c, p) for c in g]
        if vec_val(g, p) == INF:
            return False
        g = [c * Fraction(p) ** -int(vec_val(g, p)) for c in g]  # scale to norm 1
        coef = [g[c] for c in pivots]
        res = [x - sum(k * row[j] for k, row in zip(coef, rows)) for j, x in enumerate(g)]
        if vec_val(res, p) < digits:
            return False
        coords.append(coef)
    return val(_det(coords), p) < digits // 2


def _det(m):
    m = [list(r) for r in m]
    det = Fraction(1)
    for c in range(len(m)):
        piv = next((i for i in range(c, len(m)) if m[i][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        for i in range(c + 1, len(m)):
            f = m[i][c] / m[c][c]
            m[i] = [x - f * y for x, y in zip(m[i], m[c])]
    return det


def mat_mul(a, b):
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)]
            for row in a]


def inverse(m):
    """Inverse of an invertible rational matrix (Gauss-Jordan)."""
    n = len(m)
    rows = [[Fraction(c) for c in r] + [Fraction(int(i == j)) for j in range(n)]
            for i, r in enumerate(m)]
    for c in range(n):
        piv = next(i for i in range(c, n) if rows[i][c] != 0)
        rows[c], rows[piv] = rows[piv], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for i in range(n):
            if i != c and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return [r[n:] for r in rows]


def mat_vec(m, x):
    return [sum((a * b for a, b in zip(row, x)), Fraction(0)) for row in m]


def poly_eval(tables, x):
    """Evaluate a polynomial map given as {multi_index: coeff} tables."""
    out = []
    for t in tables:
        acc = Fraction(0)
        for m, c in t.items():
            term = Fraction(c)
            for xi, e in zip(x, m):
                if e:
                    term *= Fraction(xi) ** e
            acc += term
        out.append(acc)
    return out
