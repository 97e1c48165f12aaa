"""Shared constructors for randomized test suites.

Matrices are built as S * D * S^-1 over the rationals with prescribed block
valuations, so the exact spectrum (and the exact generalized eigenspaces,
namely the corresponding column spans of S) is known by construction.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd, inf as INF, lcm

from ultradyn.errors import PreconditionViolated, RankUncertified
from ultradyn.polyalg import _dot, cmat, mat_inverse, mat_mul, mat_vec, solve
from ultradyn.field import (NONZERO, UNCERTAIN, ZERO, ExtContext, RationalContext,
                           valuation_of_rational)
from ultradyn.dynamics import PolyMap


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


def residual_in_span(vec, basis, ctx):
    """Min valuation of the residual of vec against span(basis); INF if the
    vector lies in the span exactly (at working precision)."""
    if not basis:
        vals = [ctx.val(x) for x in vec]
        return min(vals) if vals else INF
    cols = [list(b) for b in basis]
    mat = [[cols[j][i] for j in range(len(basis))] for i in range(len(vec))]
    try:
        x = solve(mat, [[c] for c in vec], ctx)
    except PreconditionViolated:
        return min(ctx.val(c) for c in vec)
    approx = mat_vec(mat, [c for c, in x])
    res = [a - b for a, b in zip(vec, approx)]
    return min((ctx.val(c) for c in res), default=INF)


def fraction_row_reduce(mat, rhs=None):
    """Reference Gauss-Jordan over plain Fractions, first nonzero pivot:
    (rows, pivot_cols, rhs_rows) in the shape polyalg.row_reduce returns."""
    m = len(mat[0]) if mat else 0
    rows = [list(r) + (list(rhs[i]) if rhs is not None else []) for i, r in enumerate(mat)]
    pivots = []
    for c in range(m):
        r = len(pivots)
        best = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[c] != 0:
                rows[i] = [a - row[c] * b for a, b in zip(row, rows[r])]
        pivots.append(c)
    return [r[:m] for r in rows], pivots, None if rhs is None else [r[m:] for r in rows]



def reference_unit_lattice(b, p: int, ctx):
    """Reference Krylov lattice over any ring context, every entry held in
    ctx (so Q_p(pi) arithmetic for an ExtContext): (L, L^-1) with the columns
    of L the lower-triangular Hermite basis of the span of the vectors
    B^k e_i, k < d, the pivot of each row the first vector of least
    valuation; PreconditionViolated unless every entry of
    L^-1 [B^d e_0 ... B^d e_(d-1)] is integral, an O-term counting by its
    bound."""
    bm = cmat(b, ctx)
    d = len(bm)
    cols, tops = [], []
    for i in range(d):
        v = [ctx.one if j == i else ctx.zero for j in range(d)]
        for _ in range(d):
            cols.append(v)
            v = mat_vec(bm, v)
        tops.append(v)  # B^d e_i
    basis = []
    remaining = cols
    for r in range(d):
        best, best_v = None, None
        for idx, cvex in enumerate(remaining):
            z = ctx.zeroness(cvex[r])
            if z == NONZERO:
                v = ctx.val(cvex[r])
                if best is None or v < best_v:
                    best, best_v = idx, v
            elif z == UNCERTAIN:
                raise RankUncertified("lattice pivot uncertain")
        if best is None:
            raise PreconditionViolated("Krylov span not full rank")
        piv = remaining[best]
        rest = []
        for idx, cvex in enumerate(remaining):
            if idx == best:
                continue
            if ctx.zeroness(cvex[r]) == NONZERO:
                q = cvex[r] / piv[r]
                cvex = [a - q * bq for a, bq in zip(cvex, piv)]
            rest.append(cvex)
        basis.append(piv)
        remaining = rest
    lat = [list(r) for r in zip(*basis)]
    linv = mat_inverse(lat, ctx)
    # exact zeros of L^-1 are skipped; O-terms enter
    nz = [[j for j, x in enumerate(r) if ctx.zeroness(x) != ZERO] for r in linv]
    if any(ctx.val(_dot([r[j] for j in js], [v[j] for j in js])) < 0
           for v in tops for r, js in zip(linv, nz)):
        raise PreconditionViolated("B maps the Krylov lattice outside itself")
    return lat, linv


def ext_operator_norm(x, n):
    """min v(A'_ij) + q_i - q_j over the entries of A' = (T Winv) X (T Winv)^-1,
    the matrix of X in the basis of the adapted norm n, with every product
    and the inverse of the whole d x d transform taken in Q_p(pi) arithmetic
    (ExtContext); INF for A' = 0."""
    ctx = ExtContext(n.prime, n.ram)
    t = n.transform(ctx)
    a = mat_mul(t, mat_mul(cmat(x, ctx), mat_inverse(t, ctx)))
    q = n.weights
    return min((ctx.val(y) + q[i] - q[j] for i, row in enumerate(a)
                for j, y in enumerate(row) if ctx.val(y) != INF), default=INF)


def reference_restrict(m, basis):
    """Matrix of the rational m on span(basis) in the coordinates of basis:
    every image M v by Fraction mat_vec, then one Fraction Gauss-Jordan of
    [basis | images] (fraction_row_reduce)."""
    vs = [[Fraction(c) for c in v] for v in basis]
    images = [mat_vec([[Fraction(c) for c in row] for row in m], v) for v in vs]
    _, pivots, rhs = fraction_row_reduce([list(r) for r in zip(*vs)],
                                         [list(r) for r in zip(*images)])
    assert len(pivots) == len(vs) and not any(x for r in rhs[len(pivots):] for x in r)
    return rhs[:len(pivots)]


def _reference_zscaled(n, s, vecs, sign):
    """(D v_i, s_i + ram (sign q_i - v(D))) for each base-field Fraction
    vector v_i of vecs, D the lcm of its denominators."""
    out = []
    for si, v, q in zip(s, vecs, n.weights):
        den = lcm(*(Fraction(x).denominator for x in v))
        out.append(([int(x * den) for x in v],
                    si + sign * int(q * n.ram) - n.ram * valuation_of_rational(den, n.prime)))
    return out


def reference_zrows(n):
    """The integer rows of a rational adapted norm n, each row_i of the
    Fraction product T_0 Winv (AdaptedNorm._pi_rows) scaled by the lcm D_i
    of its denominators: v(row_i . x) + s_i/ram + q_i equals
    (ram v(D_i row_i . x) + offset_i)/ram."""
    return _reference_zscaled(n, *n._pi_rows, 1)


def reference_zcols(n):
    """The integer columns of n scaled back from the Fraction product
    W T'_0 (AdaptedNorm._pi_cols), with offsets -q_j."""
    s, rows = n._pi_cols
    return _reference_zscaled(n, s, list(zip(*rows)), -1)
