"""Exact polynomial and matrix algebra over Q and Q_p.

Matrices are lists of rows; vectors are lists.  Entries are Fractions,
PadicNumbers or ExtElements; every algorithm is generic over a ring context
(field.RationalContext / PadicContext / ExtContext) and uses
valuation-minimising pivoting.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import floor, inf as INF

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
    ExtContext,
    ExtElement,
    PadicContext,
    PadicNumber,
    RationalContext,
)

# --------------------------------------------------------------------------
# ring context inference
# --------------------------------------------------------------------------


def _scan(obj):
    if isinstance(obj, (list, tuple)):
        for x in obj:
            yield from _scan(x)
    else:
        yield obj


def infer_context(data, p: int, precision: int | None = None):
    """Pick the weakest ring context able to hold every entry of *data*."""
    ram = 1
    has_padic = False
    has_ext = False
    prec = precision or DEFAULT_PRECISION
    for x in _scan(data):
        if isinstance(x, ExtElement):
            has_ext = True
            ram = max(ram, x.ram)
        elif isinstance(x, PadicNumber):
            has_padic = True
    if has_ext:
        return ExtContext(p, ram, prec)
    if has_padic:
        return PadicContext(p, prec)
    return RationalContext(p)


def coerce(x, ctx):
    if isinstance(x, int):
        x = Fraction(x)
    if isinstance(ctx, RationalContext):
        return x
    if isinstance(ctx, PadicContext):
        return ctx.from_rational(x) if isinstance(x, Fraction) else x
    # extension context
    if isinstance(x, ExtElement):
        return x.lift_ram(ctx.ram) if x.ram != ctx.ram else x
    if isinstance(x, (Fraction, PadicNumber)):
        return ExtElement.from_base(x, ctx.p, ctx.ram)
    raise TypeError(f"cannot coerce {type(x)}")


def cmat(rows, ctx):
    return [[coerce(x, ctx) for x in r] for r in rows]


def cvec(v, ctx):
    return [coerce(x, ctx) for x in v]


# --------------------------------------------------------------------------
# generic matrix/vector helpers
# --------------------------------------------------------------------------


def identity(n, ctx):
    return [[ctx.one if i == j else ctx.zero for j in range(n)] for i in range(n)]


def mat_vec(m, v):
    return [_dot(row, v) for row in m]


def _dot(row, v):
    acc = None
    for a, b in zip(row, v):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[_dot(row, col) for col in bt] for row in a]


def row_reduce(mat, ctx, rhs=None):
    """Reduced echelon form with valuation-minimising pivoting.

    Returns (rows, pivot_cols, rhs_rows).  Raises RankUncertified when rank
    depends on an entry that is indistinguishable from zero.
    """
    rows = [list(r) for r in mat]
    aug = [list(r) for r in rhs] if rhs is not None else None
    n = len(rows)
    m = len(rows[0]) if n else 0
    pivots = []
    r = 0
    for c in range(m):
        if r >= n:
            break
        best, best_v, uncertain = None, None, False
        for i in range(r, n):
            z = ctx.zeroness(rows[i][c])
            if z == NONZERO:
                v = ctx.val(rows[i][c])
                if best is None or v < best_v:
                    best, best_v = i, v
            elif z == UNCERTAIN:
                uncertain = True
        if best is None:
            if uncertain:
                raise RankUncertified(
                    f"pivot in column {c} indistinguishable from zero"
                )
            continue
        rows[r], rows[best] = rows[best], rows[r]
        if aug is not None:
            aug[r], aug[best] = aug[best], aug[r]
        piv = rows[r][c]
        rows[r] = [x / piv for x in rows[r]]
        if aug is not None:
            aug[r] = [x / piv for x in aug[r]]
        for i in range(n):
            if i == r:
                continue
            f = rows[i][c]
            # skip exact zeros; an O-term still enters the bookkeeping
            if ctx.zeroness(f) == ZERO and ctx.val(f) == INF:
                continue
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
            if aug is not None:
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
    return rows, pivots, aug


def mat_inverse(m, ctx):
    n = len(m)
    rows, pivots, aug = row_reduce(m, ctx, rhs=identity(n, ctx))
    if len(pivots) < n:
        raise PreconditionViolated("matrix not invertible")
    return aug


def solve_system(mat, rhs_vec, ctx):
    """Solve mat x = rhs (square or overdetermined consistent system)."""
    rows, pivots, aug = row_reduce(mat, ctx, rhs=[[b] for b in rhs_vec])
    m = len(mat[0])
    x = [ctx.zero] * m
    for r, c in enumerate(pivots):
        x[c] = aug[r][0]
    # consistency of the remaining rows
    for r in range(len(pivots), len(mat)):
        if ctx.zeroness(aug[r][0]) == NONZERO:
            raise PreconditionViolated("inconsistent linear system")
    return x


def solve_linear(mat, rhs, p: int):
    """Convenience wrapper used by field.ExtElement division."""
    ctx = infer_context([mat, rhs], p)
    return solve_system(cmat(mat, ctx), cvec(rhs, ctx), ctx)


def kernel_basis(mat, p: int, precision: int | None = None, ctx=None):
    """Basis of the right kernel, via valuation-pivoted elimination."""
    ctx = ctx or infer_context(mat, p, precision)
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


def residual_in_span(vec, basis, ctx):
    """Min valuation of the residual of vec against span(basis); INF if the
    vector lies in the span exactly (at working precision)."""
    if not basis:
        vals = [ctx.val(x) for x in vec]
        return min(vals) if vals else INF
    cols = [list(b) for b in basis]
    mat = [[cols[j][i] for j in range(len(basis))] for i in range(len(vec))]
    try:
        x = solve_system(mat, vec, ctx)
    except PreconditionViolated:
        return min(ctx.val(c) for c in vec)
    approx = mat_vec(mat, x)
    res = [a - b for a, b in zip(vec, approx)]
    return min((ctx.val(c) for c in res), default=INF)


# --------------------------------------------------------------------------
# polynomials
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Polynomial:
    """Coefficients in ascending degree; entries rational or p-adic."""

    coeffs: tuple
    prime: int

    @classmethod
    def from_rationals(cls, coeffs, p: int) -> "Polynomial":
        return cls(tuple(Fraction(c) for c in coeffs), p)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        ctx = infer_context([list(self.coeffs), [x]], self.prime)
        cs = cvec(self.coeffs, ctx)
        xx = coerce(x, ctx)
        acc = ctx.zero
        for c in reversed(cs):
            acc = acc * xx + c
        return acc


def _pstrip(cs, ctx):
    i = len(cs)
    while i > 0:
        z = ctx.zeroness(cs[i - 1])
        if z == NONZERO:
            break
        if z == UNCERTAIN:
            raise PrecisionExhausted("leading coefficient uncertain")
        i -= 1
    return cs[:i]


def _padd(a, b, ctx):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else ctx.zero
        y = b[i] if i < len(b) else ctx.zero
        out.append(x + y)
    return out


def _pneg(a):
    return [-x for x in a]


def _psub(a, b, ctx):
    return _padd(a, _pneg(b), ctx)


def _pmul(a, b, ctx):
    if not a or not b:
        return []
    out = [ctx.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = out[i + j] + x * y
    return out


def _pdivmod(a, b, ctx):
    b = _pstrip(list(b), ctx)
    if not b:
        raise PreconditionViolated("polynomial division by zero")
    a = list(a)
    q = [ctx.zero] * max(0, len(a) - len(b) + 1)
    lead = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        if len(a) < len(b) + i:
            continue
        c = a[len(b) - 1 + i] / lead
        if ctx.zeroness(c) == ZERO:
            a = a[: len(b) - 1 + i]
            continue
        q[i] = c
        for j in range(len(b)):
            a[i + j] = a[i + j] - c * b[j]
        a = a[: len(b) - 1 + i]
    return q, a


def _pdivexact(a, b, ctx):
    q, r = _pdivmod(a, b, ctx)
    if _pstrip(r, ctx):
        raise PreconditionViolated("inexact polynomial division")
    return q


def _pxgcd(a, b, ctx):
    """Extended Euclid over the coefficient field: u*a + w*b = g."""
    r0, r1 = _pstrip(list(a), ctx), _pstrip(list(b), ctx)
    u0, u1 = [ctx.one], []
    w0, w1 = [], [ctx.one]
    while r1:
        q, r = _pdivmod(r0, r1, ctx)
        r0, r1 = r1, _pstrip(r, ctx)
        u0, u1 = u1, _psub(u0, _pmul(q, u1, ctx), ctx)
        w0, w1 = w1, _psub(w0, _pmul(q, w1, ctx), ctx)
    return r0, u0, w0


def poly_eval_matrix(coeffs, m, ctx):
    n = len(m)
    acc = [[ctx.zero] * n for _ in range(n)]
    for c in reversed(list(coeffs)):
        acc = mat_mul(acc, m)
        for i in range(n):
            acc[i][i] = acc[i][i] + c
    return acc


# --------------------------------------------------------------------------
# characteristic polynomial
# --------------------------------------------------------------------------


def charpoly(mat, p: int, precision: int | None = None) -> Polynomial:
    """det(tI - M) by reduction to Hessenberg form with valuation pivoting;
    exact over Q, capped-precision over Q_p and Q_p(pi)."""
    ctx = infer_context(mat, p, precision)
    return _charpoly_hessenberg(cmat(mat, ctx), p, ctx)


def _charpoly_hessenberg(m, p: int, ctx) -> Polynomial:
    n = len(m)
    h = [list(r) for r in m]
    for c in range(n - 2):
        # pivot below the subdiagonal, valuation-minimising
        best, best_v, uncertain = None, None, False
        for i in range(c + 1, n):
            z = ctx.zeroness(h[i][c])
            if z == NONZERO:
                v = ctx.val(h[i][c])
                if best is None or v < best_v:
                    best, best_v = i, v
            elif z == UNCERTAIN:
                uncertain = True
        if best is None:
            if uncertain:
                raise RankUncertified("Hessenberg pivot uncertain")
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
    cs = polys[n] + [ctx.zero] * (n + 1 - len(polys[n]))
    return Polynomial(tuple(cs[: n + 1]), p)


# --------------------------------------------------------------------------
# Newton polygon
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class NewtonPolygon:
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


def newton_polygon(f: Polynomial, p: int) -> NewtonPolygon:
    ctx = infer_context(list(f.coeffs), p)
    pts = []
    for i, c in enumerate(f.coeffs):
        cc = coerce(c, ctx)
        z = ctx.zeroness(cc)
        if z == UNCERTAIN:
            raise PrecisionExhausted(f"coefficient {i} has uncertain valuation")
        if z == NONZERO:
            pts.append((i, ctx.val(cc)))
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
    segments = []
    for (x1, y1), (x2, y2) in zip(hull, hull[1:]):
        slope = Fraction(y2 - y1, x2 - x1)
        segments.append((-slope, x2 - x1))
    return NewtonPolygon(tuple(hull), tuple(segments), inf_mult, p)


# --------------------------------------------------------------------------
# slope factorization (Hensel)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SlopeFactor:
    root_valuation: object  # Fraction or INF
    multiplicity: int
    factor: Polynomial
    certified_precision: int


def _hensel_split(f, m, ctx, target):
    """Split monic f (coeff list over ctx) as h*g with deg h = m, where h
    carries the roots of the polygon's leftmost segment.  Iterates the
    quadratic update until the product error has valuation >= target."""
    d = len(f) - 1
    cm = f[m]
    h = [f[i] / cm for i in range(m + 1)]
    g = [f[i] for i in range(m, d + 1)]
    last_err = -INF
    for _ in range(200):
        prod = _pmul(h, g, ctx)
        err = _psub(f, prod, ctx)
        err = _pstrip(err, ctx)
        ev = min((ctx.val(c) for c in err), default=INF)
        if ev == INF or ev >= target:
            return h, g
        if ev <= last_err:
            raise PrecisionExhausted("Hensel iteration stalled")
        last_err = ev
        gcd, u, w = _pxgcd(h, g, ctx)
        if len(gcd) != 1:
            raise PrecisionExhausted("approximate factors not coprime")
        c0 = gcd[0]
        u = [x / c0 for x in u]
        w = [x / c0 for x in w]
        # u*h + w*g = 1; delta_g = (err*u) mod g ; delta_h = (err*w) mod h
        _, dg = _pdivmod(_pmul(err, u, ctx), g, ctx)
        _, dh = _pdivmod(_pmul(err, w, ctx), h, ctx)
        h = _padd(h, dh, ctx)
        g = _padd(g, dg, ctx)
    raise PrecisionExhausted("Hensel iteration did not converge")


def _split_all(f, ctx, target):
    """Recursively split a monic coeff list into pure-slope coeff lists."""
    poly = Polynomial(tuple(f), ctx.p)
    np_ = newton_polygon(poly, ctx.p)
    if len(np_.segments) <= 1:
        return [(np_.segments[0][0] if np_.segments else INF, f)]
    # Substitute t -> p^s t (and re-monicize) so every root valuation is
    # >= 0; Hensel lifting over the valuation ring needs a nonnegative
    # polygon to converge.
    s = min(floor(v) for v, _ in np_.segments)
    if s:
        d = len(f) - 1
        scaled = [c * ctx.from_rational(Fraction(ctx.p) ** (s * (i - d)))
                  for i, c in enumerate(f)]
        out = []
        for v, part in _split_all(scaled, ctx, target):
            dd = len(part) - 1
            back = [c * ctx.from_rational(Fraction(ctx.p) ** (s * (dd - i)))
                    for i, c in enumerate(part)]
            out.append((v + s, back))
        return out
    m = np_.segments[0][1]  # length of the first (largest-valuation) segment
    h, g = _hensel_split(f, m, ctx, target)
    return _split_all(h, ctx, target) + _split_all(g, ctx, target)


def _resultant_slack(segments) -> int:
    """Upper bound on the valuation bookkeeping lost across Hensel splits,
    from pairwise min root valuations of distinct segments."""
    total = Fraction(0)
    for i, (v1, l1) in enumerate(segments):
        for v2, l2 in segments[i + 1 :]:
            total += abs(min(v1, v2)) * l1 * l2
    return int(total) + 1


def slope_factorization(
    f: Polynomial, p: int, precision: int = DEFAULT_PRECISION
) -> list:
    """Factor monic f into pure-slope monic factors by iterated Hensel
    splits at Newton-polygon break points."""
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
    factors = []
    if k:
        tk = [Fraction(0)] * k + [Fraction(1)]
        factors.append(
            SlopeFactor(INF, k, Polynomial.from_rationals(tk, p), precision)
        )
    core = cs[k:]
    poly_core = Polynomial(tuple(core), p)
    np_ = newton_polygon(poly_core, p)
    if len(np_.segments) <= 1:
        if np_.segments:
            factors.append(
                SlopeFactor(np_.segments[0][0], np_.segments[0][1], poly_core, precision)
            )
        return factors
    slack = _resultant_slack(np_.segments)
    shift = max(0, int(-min(v for _, v in np_.vertices)))
    work = precision + 2 * slack + 2 * shift + 16
    for attempt in range(3):
        ctx = PadicContext(p, work, zero_threshold=precision + slack)
        try:
            fc = cvec(core, ctx)
            parts = _split_all(fc, ctx, precision + slack)
            prod = [ctx.one]
            for _, part in parts:
                prod = _pmul(prod, part, ctx)
            diff = _psub(fc, prod, ctx)
            margin = min((ctx.val(c) for c in diff), default=INF)
            if margin < precision:
                raise PrecisionExhausted("product check failed")
            certified = precision if margin == INF else min(int(margin), work)
            for v, part in sorted(parts, key=lambda t: t[0], reverse=True):
                factors.append(
                    SlopeFactor(v, len(part) - 1, Polynomial(tuple(part), p), certified)
                )
            return factors
        except PrecisionExhausted:
            work *= 2
    raise PrecisionExhausted(
        f"slope factorization could not be certified at precision {precision}"
    )


# --------------------------------------------------------------------------
# invariant unit lattice
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by triangular basis columns over the
    valuation ring; pivot_vals[i] is the valuation of the pivot in row i."""

    basis: tuple  # tuple of column vectors
    pivot_vals: tuple
    prime: int


def invariant_unit_lattice(b, p: int, precision: int | None = None, ctx=None) -> Lattice:
    """A lattice L with B L = L, for B with flat Newton polygon (all
    eigenvalue valuations zero): Hermite-reduced Krylov span of B^n e_i."""
    ctx = ctx or infer_context(b, p, precision)
    bm = cmat(b, ctx)
    d = len(bm)
    cp = charpoly(b, p, precision)
    np_ = newton_polygon(cp, p)
    if np_.inf_multiplicity or any(v != 0 for v, _ in np_.segments):
        raise PreconditionViolated("Newton polygon of charpoly is not flat")
    cols = []
    for i in range(d):
        v = [ctx.one if j == i else ctx.zero for j in range(d)]
        for _ in range(d):
            cols.append(v)
            v = mat_vec(bm, v)
    basis, pivot_vals = [], []
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
            z = ctx.zeroness(cvex[r])
            if z == NONZERO:
                q = cvex[r] / piv[r]
                cvex = [a - q * bq for a, bq in zip(cvex, piv)]
            rest.append(cvex)
        basis.append(piv)
        pivot_vals.append(best_v)
        remaining = rest
    return Lattice(tuple(tuple(c) for c in basis), tuple(pivot_vals), p)


def lattice_inverse(lat: Lattice, ctx):
    """Inverse of the lattice basis matrix (columns -> coordinates)."""
    d = len(lat.basis)
    m = [[coerce(lat.basis[j][i], ctx) for j in range(d)] for i in range(d)]
    return mat_inverse(m, ctx)
