"""Shared constructors for randomized test suites (the reference oracles
they are checked against live in reference.py).

Matrices are built as S * D * S^-1 over the rationals with prescribed block
valuations, so the exact spectrum (and the exact generalized eigenspaces,
namely the corresponding column spans of S) is known by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, inf as INF

from ultradyn import spectral
from ultradyn.polyalg import _zmat, cmat, infer_context, mat_inverse, mat_mul
from ultradyn.field import RationalContext
from ultradyn.dynamics import PolyMap


def unscaled(g, s):
    """The monic rational factor g_rho of an integer factor g = s^n
    g_rho(t/s) of spectral._rational_factors: coefficient i is
    g_i / s^(n - i)."""
    return [Fraction(c, s ** (len(g) - 1 - i)) for i, c in enumerate(g)]


def unimodular(rng: random.Random, d: int, bound: int = 3):
    """Random determinant-one integer matrix (unit lower x unit upper)."""
    low = [[Fraction(1 if i == j else (rng.randint(-bound, bound) if i > j else 0))
            for j in range(d)] for i in range(d)]
    up = [[Fraction(1 if i == j else (rng.randint(-bound, bound) if i < j else 0))
           for j in range(d)] for i in range(d)]
    return mat_mul(low, up)


def int_block(p: int, v: int, size: int):
    """Upper-triangular block with all eigenvalues p^v (valuation v)."""
    b = [[Fraction(0)] * size for _ in range(size)]
    pv = Fraction(p) ** v
    for i in range(size):
        b[i][i] = pv
        if i + 1 < size:
            b[i][i + 1] = pv
    return b


def frac_block(p: int, j: int, k: int):
    """Companion matrix of t^k - p^j: eigenvalue valuation j/k (k-fold)."""
    b = [[Fraction(0)] * k for _ in range(k)]
    for i in range(1, k):
        b[i][i - 1] = Fraction(1)
    b[0][k - 1] = Fraction(p) ** j
    return b


def nilp_block(size: int):
    """Nilpotent shift block: all eigenvalues zero (valuation +inf)."""
    b = [[Fraction(0)] * size for _ in range(size)]
    for i in range(size - 1):
        b[i][i + 1] = Fraction(1)
    return b


def _embed(dest, block, off):
    for i, row in enumerate(block):
        for j, c in enumerate(row):
            dest[off + i][off + j] = c


def rand_conjugated(rng: random.Random, p: int, d: int,
                    allow_nilpotent: bool = True,
                    allow_fractional: bool = True,
                    valuations=None):
    """Random S*D*S^-1 with known spectrum.

    Returns (matrix, spectrum, eigcols) where spectrum is a list of
    (valuation, multiplicity) pairs with distinct valuations, and eigcols maps
    each valuation to the exact basis (list of column vectors) of its
    generalized eigenspace.
    """
    blocks = []
    left = d
    used_vals = set()
    while left > 0:
        kind = rng.random()
        if allow_nilpotent and kind < 0.2 and left >= 1:
            size = rng.randint(1, min(2, left))
            blocks.append((INF, size, nilp_block(size)))
            left -= size
            allow_nilpotent = False  # one per matrix keeps spectra varied
            continue
        if allow_fractional and kind < 0.4 and left >= 2:
            k = rng.choice([2, 3]) if left >= 3 else 2
            j = rng.choice([x for x in (-3, -1, 1, 2, 3) if gcd(abs(x), k) == 1])
            v = Fraction(j, k)
            if v not in used_vals:
                used_vals.add(v)
                blocks.append((v, k, frac_block(p, j, k)))
                left -= k
            continue
        size = rng.randint(1, left)
        pool = valuations if valuations is not None else range(-3, 4)
        cand = [Fraction(v) for v in pool if Fraction(v) not in used_vals]
        if not cand:
            size = left
            v = Fraction(max(used_vals | {Fraction(0)}) + 4)
        else:
            v = rng.choice(cand)
        used_vals.add(v)
        blocks.append((v, size, int_block(p, int(v), size)))
        left -= size

    dmat = [[Fraction(0)] * d for _ in range(d)]
    off = 0
    spans = {}
    for v, size, b in blocks:
        _embed(dmat, b, off)
        spans.setdefault(v, []).extend(range(off, off + size))
        off += size

    s = unimodular(rng, d)
    ctx = RationalContext(p)
    sinv = mat_inverse(cmat(s, ctx), ctx)
    m = mat_mul(mat_mul(s, dmat), sinv)
    eigcols = {
        v: [[s[i][j] for i in range(d)] for j in cols]
        for v, cols in spans.items()
    }
    spectrum = sorted(((v, len(c)) for v, c in eigcols.items()),
                      key=lambda t: (t[0] == INF, t[0] if t[0] != INF else 0))
    return m, spectrum, eigcols


def companion(g):
    """Companion matrix of monic g (ascending coefficients): its charpoly is g."""
    n = len(g) - 1
    return [[Fraction(int(i == j + 1)) if j < n - 1 else -Fraction(g[i]) for j in range(n)]
            for i in range(n)]


def conjugated_companion(rng: random.Random, g, p: int):
    """S C S^-1 over Q for the companion matrix C of monic g (ascending
    coefficients) and a random unimodular S: its charpoly is g."""
    s = unimodular(rng, len(g) - 1)
    ctx = RationalContext(p)
    return mat_mul(mat_mul(s, companion(g)), mat_inverse(cmat(s, ctx), ctx))


# t^5 + 8t^3 + 768 over Q_2: root valuations 5/3 (x3) and 3/2 (x2) share the
# band (1, 2]
ONE_BAND = [768, 0, 0, 8, 0, 1]


def rand_poly_map(rng: random.Random, p: int, d: int, deg: int,
                  valuations=(-2, -1, 1, 2), nterms: int = 3,
                  require_mixed: bool = False) -> PolyMap:
    """Random polynomial map fixing 0 with hyperbolic (at a=1) linear part.

    The linear part is S*D*S^-1 with the given nonzero valuations; higher
    order terms have p-integral coefficients.  With require_mixed, the
    spectrum has valuations of both signs (nonzero stable and unstable part).
    """
    while True:
        m, spec, _ = rand_conjugated(rng, p, d, allow_nilpotent=False,
                                     allow_fractional=False,
                                     valuations=valuations)
        if not require_mixed or (any(v > 0 for v, _ in spec)
                                 and any(v < 0 for v, _ in spec)):
            break
    tables = []
    for i in range(d):
        t = {}
        for j in range(d):
            if m[i][j] != 0:
                e = [0] * d
                e[j] = 1
                t[tuple(e)] = m[i][j]
        for _ in range(nterms):
            k = rng.randint(2, max(2, deg))
            e = [0] * d
            for _ in range(k):
                e[rng.randrange(d)] += 1
            t[tuple(e)] = t.get(tuple(e), Fraction(0)) + \
                Fraction(rng.randint(-4, 4)) * p ** rng.randint(0, 2)
        tables.append({k: v for k, v in t.items() if v != 0})
    return PolyMap.from_tables(tables, p, d)


def rand_unit(rng: random.Random, p: int, bound: int = 40) -> Fraction:
    """Random rational p-adic unit."""
    while True:
        n = rng.randint(-bound, bound)
        dn = rng.randint(1, bound)
        if n % p != 0 and dn % p != 0:
            return Fraction(n, dn)


def rand_vector(rng: random.Random, p: int, d: int, vmin: int = -2,
                vmax: int = 4):
    """Random rational vector with entries of controlled valuation."""
    return [rand_unit(rng, p) * Fraction(p) ** rng.randint(vmin, vmax)
            if rng.random() > 0.15 else Fraction(0) for _ in range(d)]


def block_restriction(m, block, p: int):
    """The matrix of m on the span of a SpectralBlock, in its basis: over Q
    from m and the block's integer vectors (spectral._restrict gives (den, A)
    with R = A / den, written out here as Fractions), over Q_p from its
    basis."""
    basis = [list(v) for v in block.basis]
    ctx = infer_context([m] + basis, p)
    if isinstance(ctx, RationalContext):
        den, a = spectral._restrict(_zmat(m), block._zbasis, ctx)
        return [[Fraction(x, den) for x in row] for row in a]
    return spectral._restrict(m, basis, ctx)
