"""Exact polynomial and matrix algebra over Q and Q_p.

Matrices are lists of rows; vectors are lists.  Entries are Fractions or
PadicNumbers, held in a ring context (field.RationalContext /
PadicContext).  Over Q_p elimination and the charpoly pivot by least
valuation, which keeps the precision.  Over Q, whose answers do not depend
on the pivot order, row_reduce and charpoly run on plain integers (one
Gauss-Jordan elimination, _zrow_reduce, with kernels and inverses read off
it as (denominator, integer vector) pairs) and return the same Fractions;
over Q_p they keep the ring path.  kernel_basis and mat_inverse go through
row_reduce in both rings; invariant_unit_lattice is one ring builder too.
"""

from __future__ import annotations

from fractions import Fraction
from functools import wraps
from math import ceil, gcd, inf as INF, lcm, prod
from operator import mul

from .errors import (
    PrecisionExhausted,
    PreconditionViolated,
    RankUncertified,
)
from .field import (
    DEFAULT_PRECISION,
    NONZERO,
    UNCERTAIN,
    ZERO,
    PadicContext,
    PadicNumber,
    RationalContext,
    _INTEGERS,
    _Record,
    _bval,
    _bzeroness,
    _ival,
)

# --------------------------------------------------------------------------
# ring context inference
# --------------------------------------------------------------------------


def infer_context(data, p: int, precision: int | None = None):
    """PadicContext if any entry of the nested lists and tuples of *data* is
    a PadicNumber, else RationalContext; PreconditionViolated if one is a
    PadicNumber of a prime other than p."""
    stack, padic = [data], False
    while stack:
        x = stack.pop()
        if isinstance(x, (list, tuple)):
            stack.extend(x)
        elif isinstance(x, PadicNumber):
            if x.prime != p:
                raise PreconditionViolated(f"prime mismatch: a {x.prime}-adic number over Q_{p}")
            padic = True
    return PadicContext(p, precision or DEFAULT_PRECISION) if padic else RationalContext(p)


def coerce(x, ctx):
    return ctx.from_rational(x) if isinstance(x, (int, Fraction)) else x


def cmat(rows, ctx):
    return [[coerce(x, ctx) for x in r] for r in rows]


def cvec(v, ctx):
    return [coerce(x, ctx) for x in v]


def _hash_once(self):
    """__hash__ of a record: the hash of its compared fields, computed on
    first use and kept in the instance, outside == and repr()."""
    if "_hash" not in self.__dict__:
        self.__dict__["_hash"] = hash(self._key(self))
    return self.__dict__["_hash"]


def _kept(size=INF):
    """Method decorator: keep the results in the instance, per argument
    tuple with the method's defaults filled in (the size latest); the table
    holds no reference back to it."""
    def keep(method):
        nargs = method.__code__.co_argcount - 1
        defaults = method.__defaults__ or ()

        @wraps(method)
        def kept(self, *key):
            if len(key) < nargs:  # norm() and norm(None) share one entry
                key += defaults[len(key) - nargs:]
            table = self.__dict__.setdefault("_" + method.__name__, {})
            value = table.get(key, table)  # one hash of the key on a hit
            if value is table:
                if len(table) >= size:
                    del table[next(iter(table))]  # the oldest
                value = table[key] = method(self, *key)
            return value
        return kept
    return keep


# --------------------------------------------------------------------------
# generic matrix/vector helpers
# --------------------------------------------------------------------------


def identity(n, ctx):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [_dot(row, v) for row in m]


def _dot(row, v):
    """The left fold of the products from the first (0 + x would promote 0)."""
    terms = map(mul, row, v)
    return sum(terms, next(terms))


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]


def _pivot(col, start, ctx, message):
    """Row index of the first entry of least valuation among the certainly
    nonzero col[start:], the pivot that keeps the most precision (Caruso,
    arXiv:1701.06794); None when all of them are zero.  RankUncertified(message)
    when only entries indistinguishable from zero remain."""
    best, best_v, uncertain = None, None, False
    for i in range(start, len(col)):
        z = ctx.zeroness(col[i])
        if z == NONZERO:
            v = ctx.val(col[i])
            if best is None or v < best_v:
                best, best_v = i, v
        elif z == UNCERTAIN:
            uncertain = True
    if best is None and uncertain:
        raise RankUncertified(message)
    return best


def row_reduce(mat, ctx, rhs=None):
    """Reduced echelon form of mat, with the same row operations on rhs.

    Returns (rows, pivot_cols, rhs_rows).  In both rings [mat | rhs] is
    reduced as one matrix, with pivots in mat's columns only, and split at
    the end.  Over Q_p the pivot of each column has least valuation, and
    RankUncertified is raised when the rank depends on an entry that is
    indistinguishable from zero.  Over Q the rows, scaled to integers, go
    through _zrow_reduce and are divided by their pivots only at the end.
    The reduced echelon form does not depend on the pivot order, and neither
    do the pivot rows' right-hand sides when the system is consistent.  Rows
    past the rank are zero; only whether all their right-hand sides are zero
    is fixed, so callers read them as zero or nonzero and nothing more.
    """
    n = len(mat)
    m = len(mat[0]) if n else 0
    rows = [list(mat[i]) + (list(rhs[i]) if rhs is not None else []) for i in range(n)]
    if isinstance(ctx, RationalContext):
        rows = [_zscale(row)[1] for row in rows]
        pivots = _zrow_reduce(rows, m)
        rows = ([[Fraction(x, row[c]) for x in row] for row, c in zip(rows, pivots)]
                + [[Fraction(x) for x in row] for row in rows[len(pivots):]])
    else:
        pivots = []
        for c in range(m):
            r = len(pivots)
            if r >= n:
                break
            best = _pivot([row[c] for row in rows], r, ctx,
                          f"pivot in column {c} indistinguishable from zero")
            if best is None:
                continue
            rows[r], rows[best] = rows[best], rows[r]
            piv = rows[r][c]
            rows[r] = [x / piv for x in rows[r]]
            for i in range(n):
                f = rows[i][c]
                # skip exact zeros; an O-term still enters the bookkeeping
                if i == r or ctx.zeroness(f) == ZERO and ctx.val(f) == INF:
                    continue
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
    return [r[:m] for r in rows], pivots, None if rhs is None else [r[m:] for r in rows]


def _zscale(v):
    """(D, D v) for a list v of rationals (Fractions or ints), D the lcm of
    their denominators: D v is a list of ints."""
    # a list, not a generator: unpacking a generator grows its argument
    # tuple step by step, which left about 1 MB more peak RSS on a
    # linear-build benchmark run
    den = lcm(*[x.denominator for x in v])
    return den, [x.numerator * (den // x.denominator) for x in v]


def _zmat(m):
    """(D, D m) for a square rational matrix m, D the lcm of its
    denominators: D m is a list of rows of ints."""
    d = len(m)
    den, flat = _zscale([x for row in m for x in row])
    return den, [flat[i * d:(i + 1) * d] for i in range(d)]


def _zrow_reduce(rows, m):
    """The one integer Gauss-Jordan elimination: rows, lists of ints, are
    reduced in place over their first m columns, and the pivot columns are
    returned.  Each column's first nonzero entry from the current rank down
    is its pivot, and row_i becomes (piv/g) row_i - (f/g) row_r,
    g = gcd(piv, f), after Bareiss (Math. Comp. 22, 1968), with each new
    row's content divided out.  Pivot row r is then piv_r times row r of the
    reduced echelon form; rows past the rank are zero in the first m
    columns."""
    n, pivots = len(rows), []
    for c in range(m):
        r = len(pivots)
        best = next((i for i in range(r, n) if rows[i][c]), None)
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        prow, piv = rows[r], rows[r][c]
        for i in range(n):
            f = rows[i][c]
            if f and i != r:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                new = [a * x - b * y for x, y in zip(rows[i], prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(c)
    return pivots


def _zkernel(rows):
    """Right kernel of the integer matrix rows (reduced in place by
    _zrow_reduce) as (D, u) pairs: one per free column fc, with u[fc] = D,
    u[c_r] = -row_r[fc] (D / row_r[c_r]) at each pivot column c_r and D the
    lcm of the pivots it uses.  u / D is kernel_basis's vector."""
    ncols = len(rows[0]) if rows else 0
    pivots = _zrow_reduce(rows, ncols)
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        used = [(c, row) for c, row in zip(pivots, rows) if row[fc]]
        den = lcm(*[row[c] for c, row in used])
        u = [0] * ncols
        u[fc] = den
        for c, row in used:
            u[c] = -row[fc] * (den // row[c])
        out.append((den, u))
    return out


def _zinverse(cols):
    """W^-1 = diag(D_j) U^-1 for W with columns u_j / D_j, given as the
    integer pairs (D_j, u_j), as one (D, row) pair per row: row r of W^-1
    is u[:d] / D for the r-th kernel vector (D, u) of the rows
    u_j ++ (-D_j e_j), as u_j . u[:d] = D_j D [j = r].  A kernel vector
    with u[d:] = 0 lies in the kernel of U^T, and then W is singular."""
    d = len(cols)
    ker = _zkernel([u + [-den if i == j else 0 for i in range(d)]
                    for j, (den, u) in enumerate(cols)])
    if any(not any(u[d:]) for _, u in ker):
        raise PreconditionViolated("matrix not invertible")
    return [(den, u[:d]) for den, u in ker]


def solve(a, b, ctx):
    """X with a X = b, for the columns of b as right-hand sides: a square,
    or overdetermined and consistent.  A column of a without a pivot raises
    before a row past the rank with a nonzero right-hand side does."""
    _, pivots, aug = row_reduce(a, ctx, rhs=b)
    if len(pivots) < (len(a[0]) if a else 0):
        raise PreconditionViolated("matrix not invertible")
    if any(ctx.zeroness(x) == NONZERO for r in aug[len(pivots):] for x in r):
        raise PreconditionViolated("inconsistent linear system")
    return aug[:len(pivots)]


def mat_inverse(m, ctx):
    """m^-1 = solve(m, I), over Q by row_reduce's integer elimination."""
    return solve(m, identity(len(m), ctx), ctx)


def kernel_basis(mat, p: int, precision: int | None = None):
    """Basis of the right kernel, one vector per free column, read off the
    reduced echelon form of row_reduce (over Q its integer elimination)."""
    ctx = infer_context(mat, p, precision)
    m = cmat(mat, ctx)
    ncols = len(m[0]) if m else 0
    rows, pivots, _ = row_reduce(m, ctx)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [ctx.zero] * ncols
        v[fc] = ctx.one
        for r, c in enumerate(pivots):
            v[c] = ctx.zero - rows[r][fc]
        basis.append(v)
    return basis


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


class Polynomial(_Record):
    """Coefficients in ascending degree; entries rational or p-adic."""

    coeffs: tuple
    prime: int

    @classmethod
    def from_rationals(cls, coeffs, p: int) -> "Polynomial":
        return cls(tuple(Fraction(c) for c in coeffs), p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


def _psub(a, b, ctx):
    """a - b, the shorter padded with ctx.zero."""
    n = max(len(a), len(b))
    return [x - y for x, y in zip(a + [ctx.zero] * (n - len(a)), b + [ctx.zero] * (n - len(b)))]


def _pmul(a, b, ctx):
    if not a or not b:
        return []
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_eval_matrix(coeffs, m, ctx):
    """g(M) by Horner for g = coeffs, ascending, started at g_n I (= 0 M + g_n I
    in every ring)."""
    n, cs = len(m), list(coeffs)
    acc = [[ctx.zero + cs[-1] if i == j else ctx.zero for j in range(n)] for i in range(n)]
    for c in reversed(cs[:-1]):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return acc


# --------------------------------------------------------------------------
# characteristic polynomial
# --------------------------------------------------------------------------


def _check_square(mat):
    if any(len(row) != len(mat) for row in mat):
        raise PreconditionViolated(f"matrix is not square: row lengths {[*map(len, mat)]}")


def charpoly(mat, p: int, precision: int | None = None) -> Polynomial:
    """det(tI - M): exact over Q by Berkowitz's division-free recurrence on
    integers (_zcharpoly); capped-precision over Q_p by reduction
    to Hessenberg form with valuation pivoting."""
    _check_square(mat)
    ctx = infer_context(mat, p, precision)
    if isinstance(ctx, RationalContext):
        return Polynomial(_zcharpoly(mat), p)
    return _charpoly_hessenberg(cmat(mat, ctx), p, ctx)


def _zcharpoly(mat):
    """Ascending Fraction coefficients c_i of det(tI - M) for rational M.

    Berkowitz (Inf. Process. Lett. 18, 1984) on A = D M over Z, D the lcm of
    the denominators: with A_k the leading k x k block, row R = A[k][:k],
    column C = A[:k][k] and a = A[k][k], the coefficients of det(tI - A_(k+1))
    (descending) are the lower-triangular Toeplitz matrix with first column
    (1, -a, -R C, -R A_k C, ..., -R A_k^(k-1) C) times those of
    det(tI - A_k).  Coefficient i of det(tI - A) is D^(n-i) c_i."""
    n = len(mat)
    den, a = _zmat(mat)
    cs = [1]
    for k in range(n):
        col, t = [a[i][k] for i in range(k)], [1, -a[k][k]]
        for _ in range(k):
            t.append(-_dot(a[k], col))
            col = mat_vec(a[:k], col)
        cs = _pmul(t, cs, _INTEGERS)[:k + 2]
    return tuple(Fraction(c, den**i) for i, c in enumerate(cs))[::-1]


def _charpoly_hessenberg(m, p: int, ctx) -> Polynomial:
    n = len(m)
    h = [list(r) for r in m]
    for c in range(n - 2):
        best = _pivot([row[c] for row in h], c + 1, ctx, "Hessenberg pivot uncertain")
        if best is None:
            continue
        if best != c + 1:
            h[c + 1], h[best] = h[best], h[c + 1]
            for row in h:
                row[c + 1], row[best] = row[best], row[c + 1]
        piv = h[c + 1][c]
        for i in range(c + 2, n):
            f = h[i][c] / piv
            if ctx.zeroness(f) == ZERO:
                continue
            h[i] = [a - f * b for a, b in zip(h[i], h[c + 1])]
            for row in h:
                row[c + 1] = row[c + 1] + f * row[i]
    # p_m(t) recurrence on the Hessenberg form
    polys = [[ctx.one]]
    for mrow in range(1, n + 1):
        t_minus = [ctx.zero - h[mrow - 1][mrow - 1], ctx.one]
        pm = _pmul(t_minus, polys[mrow - 1], ctx)
        beta = ctx.one
        for k in range(1, mrow):
            beta = beta * h[mrow - k][mrow - k - 1]
            term = _pmul([h[mrow - 1 - k][mrow - 1] * beta], polys[mrow - 1 - k], ctx)
            pm = _psub(pm, term, ctx)
        polys.append(pm)
    return Polynomial(tuple(polys[n]), p)


# --------------------------------------------------------------------------
# Newton polygon
# --------------------------------------------------------------------------


class NewtonPolygon(_Record):
    """Lower convex hull of (i, v(c_i)); segments carry ROOT valuations
    (negated hull slopes), listed in decreasing order."""

    vertices: tuple  # ((i, v), ...)
    segments: tuple  # ((root_valuation, length), ...) finite valuations
    inf_multiplicity: int  # roots of valuation +INF (t^k factor)
    prime: int

    @property
    def root_valuations(self):
        out = []
        if self.inf_multiplicity:
            out.append((INF, self.inf_multiplicity))
        out.extend(self.segments)
        return out


def newton_polygon(f: Polynomial) -> NewtonPolygon:
    """Lower hull of the known coefficients, over Q_p for p = f.prime.  An
    O-term at or above the zero threshold counts as zero.  One below it is
    ignored when its point lies between the known points and on or above
    their hull, where no value it may take can move the hull; any other
    raises."""
    p = f.prime
    ctx = infer_context(list(f.coeffs), p)
    pts, vague = [], []
    for i, c in enumerate(f.coeffs):
        z = ctx.zeroness(c)
        if z != ZERO:
            (pts if z == NONZERO else vague).append((i, ctx.val(c)))
    if vague and not pts:
        raise PrecisionExhausted(f"coefficient {vague[0][0]} has uncertain valuation")
    if not pts:
        raise PreconditionViolated("zero polynomial has no Newton polygon")
    inf_mult = pts[0][0]
    # monotone-chain lower hull
    hull = []
    for pt in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (pt[0] - x1) >= (pt[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(pt)
    for i, v in vague:
        if not hull[0][0] < i < hull[-1][0] or any(
                x1 < i < x2 and (v - y1) * (x2 - x1) < (y2 - y1) * (i - x1)
                for (x1, y1), (x2, y2) in zip(hull, hull[1:])):
            raise PrecisionExhausted(f"coefficient {i} has uncertain valuation")
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        segments.append((-slope, x2 - x1))
    return NewtonPolygon(tuple((i, Fraction(v)) for i, v in hull), tuple(segments), inf_mult, p)


# --------------------------------------------------------------------------
# slope factorization: Newton lifting over Z at rational thresholds
# --------------------------------------------------------------------------


class SlopeFactor(_Record):
    root_valuation: object  # Fraction or INF
    multiplicity: int
    factor: Polynomial
    certified_precision: int


def _zdivmod(a, b, mod=None):
    """(a quo b, a rem b) for monic b, over Z or, given mod, over Z/mod."""
    m = len(b) - 1
    a = list(a) + [0] * (m - len(a))
    q = [0] * max(0, len(a) - m)
    for i in range(len(q) - 1, -1, -1):
        c = q[i] = a[i + m] % mod if mod else a[i + m]
        for j in range(m):
            a[i + j] -= c * b[j]
    return q, [x % mod for x in a[:m]] if mod else a[:m]


def _zmulrem(a, b, h, mod):
    """a b rem h (h monic) over Z/mod."""
    return _zdivmod(_pmul(a, b, _INTEGERS), h, mod)[1]


def _monic_scale(cs):
    """Smallest d with d^(n-i) c_i integral for monic c_0..c_n, so that
    d^n c(t/d) lies in Z[t].  (The lcm of the denominators would raise every
    root valuation and the coefficient bound, and so the working precision.)
    Primes are found by trial division below 2^16; a larger cofactor of a
    denominator is taken as one prime, which keeps d valid."""
    n, need = len(cs) - 1, {}
    for i, c in enumerate(cs[:-1]):
        den, q = c.denominator, 2
        while den > 1:
            if q * q > den or q >> 16:
                q = den
            e = 0
            while den % q == 0:
                den //= q
                e += 1
            if e:
                need[q] = max(need.get(q, 0), -(-e // (n - i)))
            q += 1
    return prod(q**e for q, e in need.items())


def _slope_split(f, segs, p, digits):
    """The monic factors mod p^digits of monic f in Z[t], one for each of its
    Newton segments segs ((root valuation, length), valuations decreasing).

    At the midpoint s of two adjacent valuations, the weighted Gauss valuation
    w_s(sum c_i t^i) = min v(c_i) + i s of f is attained by c_m t^m alone, m
    the number of roots above s, and every other term exceeds it by at least
    the gap, half the step between the two valuations.  So the factor h of f
    with the roots above s starts at t^m, and V = (f quo h)^-1 mod h at
    1/c_m, both right to w_s-precision gap.  Each Newton step
    h += (f rem h) V rem h, V := V (2 - (f quo h) V) rem h doubles it
    (Caruso, arXiv:1701.06794, section 3).  The lift holds w_s-precision
    K = digits + m s, which needs coefficient i mod p^ceil(K - i s); one
    modulus covers them all.  V has w_s >= -v(c_m), so W = p^lag V with
    lag = v(c_m) + ceil((m - 1) s) has integer coefficients, and every product
    of a step is divisible by p^lag exactly.  Each factor is the quotient of
    two such lifts of f, so none is lifted from an approximate cofactor."""
    out, above = [], [1]
    for k in range(len(segs) - 1):
        (r1, _), (r2, _) = segs[k], segs[k + 1]
        m = sum(l for _, l in segs[:k + 1])
        s, gap = (r1 + r2) / 2, (r1 - r2) / 2
        nu = int(sum(r * l for r, l in segs[k + 1:]))  # v(c_m)
        lag = nu + ceil((m - 1) * s)
        scale, mod = p**lag, p ** (digits + ceil(m * s) + lag)
        h = [0] * m + [1]
        w = [pow(f[m] // p**nu, -1, mod) * p ** (lag - nu) % mod]
        r = _zdivmod(f, h, mod)[1]
        while gap < digits:
            h = [(x + y // scale) % mod for x, y in zip(h, _zmulrem(r, w, h, mod))] + [1]
            q, r = _zdivmod(f, h, mod)
            z = [-x % mod for x in _zmulrem(q, w, h, mod)]
            z[0] += 2 * scale
            w = [x // scale for x in _zmulrem(w, z, h, mod)]
            gap *= 2
        out.append(_zdivmod(h, above, p**digits)[0])
        above = h
    return out + [_zdivmod(f, above, p**digits)[0]]


def _residue(c):
    """(rational value, absolute precision) of a coefficient: a PadicNumber
    u p^v + O(p^(v + prec)) gives u p^v, known mod p^(v + prec)."""
    if not isinstance(c, PadicNumber):
        return c, INF
    if c.is_exact_zero:
        return Fraction(0), INF
    return Fraction(c.unit) * Fraction(c.prime) ** c.val, c.val + c.prec


def slope_factorization(f: Polynomial, precision: int = DEFAULT_PRECISION) -> list:
    """Factor monic f into pure-slope monic factors over Q_p, p = f.prime.

    The core of f (f without its t^k factor) is scaled by _monic_scale to a
    monic polynomial in Z[t], exact for rational input and known mod p^N for
    PadicNumber input, split by _slope_split at the segments of the one
    Newton polygon of the input, and scaled back.  The working precision
    comes once from the slopes and the requested precision: the requested
    digits, twice the valuation of the resultants between the factors, twice
    the depth of negative coefficient valuations and 18 guard digits, all
    doubled, which costs one Newton step.  The product of the factors must
    match the input to the requested precision, and certifies the lesser of
    the match and the working precision; a failed check raises
    PrecisionExhausted.  For PadicNumber input a factor can be short of the
    product match by up to the valuation of the resultants between the
    factors, so that is taken off what it certifies; a rational input is
    factored exactly and loses nothing.
    """
    p = f.prime
    qctx = infer_context(list(f.coeffs), p)
    cs = cvec(f.coeffs, qctx)
    lead = cs[-1]
    if qctx.zeroness(lead) != NONZERO:
        raise PreconditionViolated("leading coefficient must be nonzero")
    cs = [c / lead for c in cs]
    # strip t^k (exact zero low coefficients)
    k = 0
    while k < len(cs) and qctx.zeroness(cs[k]) == ZERO:
        k += 1
    factors = ([SlopeFactor(INF, k, Polynomial.from_rationals([0] * k + [1], p), precision)]
               if k else [])
    core = cs[k:]
    poly_core = Polynomial(tuple(core), p)
    np_ = newton_polygon(poly_core)
    segs = np_.segments
    if len(segs) <= 1:
        if segs:
            factors.append(SlopeFactor(segs[0][0], segs[0][1], poly_core, precision))
        return factors
    loss = sum(abs(min(r, r2)) * l * l2
               for i, (r, l) in enumerate(segs) for r2, l2 in segs[i + 1:])
    depth = max(0, int(-min(v for _, v in np_.vertices)))
    work = 2 * (precision + 2 * int(loss) + 2 * depth + 18)
    vals, known = zip(*(_residue(c) for c in core))
    n, d = len(core) - 1, _monic_scale(vals)
    j = _ival(d, p)
    digits = int(min(work + j * n, *(a + j * (n - i) for i, a in enumerate(known))))
    if digits < precision:  # the product cannot match the input any better
        raise PrecisionExhausted(f"input known to {digits} digits, {precision} asked")
    parts = _slope_split([int(c * d ** (n - i)) for i, c in enumerate(vals)],
                         [(r + j, l) for r, l in segs], p, digits)
    # back to t: coefficient i of a degree-l part is part_i / d^(l - i),
    # known mod p^(digits - j (l - i))
    for part in parts:
        l = len(part) - 1
        for i, x in enumerate(part):
            x, a = Fraction(x, d ** (l - i)), digits - j * (l - i)
            part[i] = (PadicNumber.from_rational(x, p, a - _bval(x, p))
                       if x else PadicNumber.o_term(p, a))
    ctx = PadicContext(p, work)
    product = [ctx.one]
    for part in parts:
        product = _pmul(product, part, ctx)
    margin = min((ctx.val(c) for c in _psub(cvec(core, ctx), product, ctx)), default=INF)
    if margin < precision:
        raise PrecisionExhausted(
            f"slope factorization could not be certified at precision {precision}"
        )
    certified = int(min(margin, work))
    if isinstance(qctx, PadicContext):  # each factor may trail the product
        certified -= ceil(loss)
    return factors + [SlopeFactor(r, l, Polynomial(tuple(part), p), certified)
                      for (r, l), part in zip(segs, parts)]


# --------------------------------------------------------------------------
# invariant unit lattice
# --------------------------------------------------------------------------


def invariant_unit_lattice(r, p: int, rho=0, precision: int = DEFAULT_PRECISION):
    """(k, W, W^-1) with L = W diag(pi^k_j) the lower-triangular Hermite
    basis of the lattice of the Krylov vectors B^j e_i, j < d, of
    B = pi^-n R, for rho = n/e, pi^e = p and R over Q or Q_p.

    B^j e_i = pi^(-jn) R^j e_i, and a Hermite step keeps each vector in its
    own pi-slot: the pivot of row r is the first vector of least
    v(w_r) + k/e, and no Q_p(pi) arithmetic is needed.  W^-1 is taken in the
    ring of W's entries.  B L inside L is certified when
    v((W^-1 R^d e_i)_j) >= (d n + k_j)/e, an O-term counting by its bound;
    else PreconditionViolated.  B L = L then needs det B to be a unit:
    adapted_norm passes ker g_rho(M) for a certified slope factor g_rho.
    One builder for both rings, exact on Fractions over Q: adapted_norm's
    integer builder over Q (_zunit_lattice) gives the same (k, W, W^-1).
    """
    n, e = Fraction(rho).as_integer_ratio()

    def zeroness(x, k):  # of pi^k x, by its pi-slot coefficient x p^(k // e)
        return _bzeroness(x, precision - k // e)

    d = len(r)
    vecs, tops = [], []
    for i in range(d):
        k, v = 0, [Fraction(int(j == i)) for j in range(d)]
        for _ in range(d):
            vecs.append((k, v))
            k, v = k - n, mat_vec(r, v)
        tops.append(v)  # R^d e_i, with B^d e_i = pi^(-dn) R^d e_i
    ks, basis = [], []
    for row in range(d):
        # not _pivot: any uncertain entry raises, even beside a certain one,
        # since an O-term could hide a lower valuation than the pivot's and
        # leave the quotient q below non-integral
        best, best_v = None, None
        for idx, (k, w) in enumerate(vecs):
            z = zeroness(w[row], k)
            if z == NONZERO:
                v = _bval(w[row], p) + Fraction(k, e)
                if best is None or v < best_v:
                    best, best_v = idx, v
            elif z == UNCERTAIN:
                raise RankUncertified("lattice pivot uncertain")
        if best is None:
            raise PreconditionViolated("Krylov span not full rank")
        k, piv = vecs.pop(best)
        for idx, (kw, w) in enumerate(vecs):
            if zeroness(w[row], kw) == NONZERO:
                q = w[row] / piv[row]
                vecs[idx] = kw, [a - q * b for a, b in zip(w, piv)]
        ks.append(k)
        basis.append(piv)
    w = [list(c) for c in zip(*basis)]
    winv = solve(w, identity(d, RationalContext(p)), infer_context(w, p, precision))
    # exact zeros of L^-1 = diag(pi^-k) W^-1 are skipped; O-terms enter
    nz = [[j for j, x in enumerate(row) if zeroness(x, -k) != ZERO] for row, k in zip(winv, ks)]
    if any(_bval(_dot([row[j] for j in js], [v[j] for j in js]), p) < Fraction(d * n + k, e)
           for v in tops for row, js, k in zip(winv, nz, ks)):
        raise PreconditionViolated("B maps the Krylov lattice outside itself")
    return ks, w, winv


def _zunit_lattice(dr, a, p, n, e):
    """invariant_unit_lattice for rational R = A / dr, A integral, on
    integers.  Each Krylov vector is kept as (k, den, u) with u / den the
    vector, u integral and gcd(content u, den) = 1: R v is A u / (dr den).  A
    Hermite step on w = U / den by the pivot P / den' is
    ((P_r/g) U - (U_r/g) P) / (den (P_r/g)), g = gcd(U_r, P_r), the
    pivot chosen by v(U_r) - v(den) + k/e as over Q_p; the steps keep the
    span of the e_i, so some vector left is nonzero at each row.  W^-1 comes
    from the (den, u) basis by one integer elimination (_zinverse); the
    certificate takes p-adic valuations of integer dot products of the
    integer rows of W^-1 with R^d e_i.  W and W^-1 leave as the (D, integer
    vector) pairs of W's columns and W^-1's rows, invariant_unit_lattice's W
    and W^-1."""
    d = len(a)

    def reduced(k, den, u):
        g = gcd(den, *u)
        return (k, den // g, [x // g for x in u]) if g > 1 else (k, den, u)

    vecs, tops = [], []
    for i in range(d):
        v = (0, 1, [int(j == i) for j in range(d)])
        for _ in range(d):
            vecs.append(v)
            k, den, u = v
            v = reduced(k - n, den * dr, mat_vec(a, u))
        tops.append(v[1:])  # R^d e_i = u / den
    ks, basis = [], []
    for row in range(d):
        best, best_v = None, None
        for idx, (k, den, u) in enumerate(vecs):
            if u[row]:
                v = e * (_ival(u[row], p) - _ival(den, p)) + k  # e times v(w_r) + k/e
                if best is None or v < best_v:
                    best, best_v = idx, v
        k, pden, pu = vecs.pop(best)
        pr = pu[row]
        for idx, (kw, den, u) in enumerate(vecs):
            if u[row]:
                g = gcd(u[row], pr) if pr > 0 else -gcd(u[row], pr)  # pr/g > 0 keeps den > 0
                f, c = pr // g, u[row] // g
                vecs[idx] = reduced(kw, den * f, [f * x - c * y for x, y in zip(u, pu)])
        ks.append(k)
        basis.append((pden, pu))
    zinv = _zinverse(basis)
    for den, u in tops:
        for (rden, zrow), k in zip(zinv, ks):
            t = _dot(zrow, u)
            if t and e * (_ival(t, p) - _ival(rden * den, p)) < d * n + k:
                raise PreconditionViolated("B maps the Krylov lattice outside itself")
    return ks, basis, zinv
