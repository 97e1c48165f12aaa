"""Test-only reference oracles: the ring Q_p(pi), pi^ram = p, with full
arithmetic (PiElement, PiRing), and plain reference computations that the
library's fast paths are checked against, among them polynomial maps
expanded term by term over Fractions.

The library holds values of Q_p(pi) only as print-only ExtElement records
and reads its adapted norms as pi-exponents and base-field rows; these
oracles multiply, divide and invert over the whole ring instead, so the two
share nothing but the generic elimination of polyalg (mat_mul, mat_inverse,
row_reduce, solve), which needs only zero, one, val and zeroness of a ring.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf as INF, lcm, prod

from ultradyn.errors import (DivisionByZero, PrecisionExhausted, PreconditionViolated,
                             RankUncertified)
from ultradyn.field import (DEFAULT_PRECISION, NONZERO, UNCERTAIN, ZERO, ExtElement, PadicNumber,
                            _bval, _bzeroness, valuation_of_rational)
from ultradyn.polyalg import _dot, cmat, coerce, infer_context, mat_inverse, mat_mul, mat_vec, solve


# --------------------------------------------------------------------------
# Q_p(pi), pi^ram = p
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PiElement:
    """Element of Q_p(pi), pi^ram = p: a polynomial in pi of degree < ram.

    Coefficients are exact Fractions or capped PadicNumbers; the value group
    is (1/ram) Z.
    """

    prime: int
    ram: int
    coeffs: tuple

    @classmethod
    def from_base(cls, c, p: int, ram: int) -> "PiElement":
        """c in Q_p(pi); the pi-slots are exact zeros of c's own ring, as
        lift_ram gives them."""
        return cls(p, 1, (Fraction(c) if isinstance(c, int) else c,)).lift_ram(ram)

    @classmethod
    def pi(cls, p: int, ram: int, k: int = 1) -> "PiElement":
        """pi^k for any integer k (negative powers use pi^{-1} = pi^{e-1}/p)."""
        q, r = divmod(k, ram)
        coeffs = [Fraction(0)] * ram
        coeffs[r] = Fraction(p) ** q
        return cls(p, ram, tuple(coeffs))

    def _check(self, other):
        if (self.prime, self.ram) != (other.prime, other.ram):
            raise PreconditionViolated("extension context mismatch")

    def lift_ram(self, new_ram: int) -> "PiElement":
        """Re-express in a larger extension; new_ram must be a multiple.  The
        new pi-slots are exact zeros of the element's own coefficient ring, as
        arithmetic in the larger extension would give them."""
        if new_ram % self.ram:
            raise PreconditionViolated("ramification indices incompatible")
        k = new_ram // self.ram
        padic = any(isinstance(c, PadicNumber) for c in self.coeffs)
        coeffs = [PadicNumber.zero(self.prime) if padic else Fraction(0)] * new_ram
        for i, c in enumerate(self.coeffs):
            coeffs[i * k] = c
        return PiElement(self.prime, new_ram, tuple(coeffs))

    def __add__(self, other):
        if not isinstance(other, PiElement):
            return NotImplemented
        self._check(other)
        return PiElement(self.prime, self.ram,
                         tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return PiElement(self.prime, self.ram, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, PiElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, PiElement):
            return NotImplemented
        self._check(other)
        p, e = self.prime, self.ram
        acc = [Fraction(0)] * e
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                term, k = a * b, i + j
                if k >= e:  # pi^e = p
                    term, k = term * p, k - e
                acc[k] = acc[k] + term
        return PiElement(p, e, tuple(acc))

    def __truediv__(self, other):
        if not isinstance(other, PiElement):
            return NotImplemented
        self._check(other)
        # solve (mult-by-other) y = self in the power basis of pi
        p, e = self.prime, self.ram
        zs = [_bzeroness(c, INF) for c in other.coeffs]
        if NONZERO not in zs:
            if UNCERTAIN in zs:
                raise PrecisionExhausted("division by a value of unknown valuation")
            raise DivisionByZero("division by exact zero in extension")
        # column j is other * pi^j: its coefficients shifted down j slots,
        # the ones that wrap past pi^(e-1) times pi^e = p
        b = other.coeffs
        mat = [[b[i - j] if i >= j else b[i - j] * p for j in range(e)] for i in range(e)]
        ctx = infer_context([mat, list(self.coeffs)], p)
        sol = solve(cmat(mat, ctx), [[coerce(c, ctx)] for c in self.coeffs], ctx)
        return PiElement(p, e, tuple(x for x, in sol))

    def valuation(self):
        """Exact valuation in (1/ram)Z; distinct pi-powers cannot collide."""
        best = INF
        for i, c in enumerate(self.coeffs):
            v = _bval(c, self.prime)
            if v != INF:
                best = min(best, v + Fraction(i, self.ram))
        return best


class PiRing:
    """Ring context of Q_p(pi), pi^ram = p, for polyalg's generic
    elimination."""

    def __init__(self, p: int, ram: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.ram = ram
        self.precision = precision
        self.zero = PiElement.from_base(Fraction(0), p, ram)
        self.one = PiElement.from_base(Fraction(1), p, ram)

    def from_rational(self, q):
        return PiElement.from_base(Fraction(q), self.p, self.ram)

    def lift(self, x):
        """x in this ring: an int, Fraction or PadicNumber of the base field,
        or a library ExtElement record (of this ram or one dividing it)."""
        if isinstance(x, ExtElement):
            return PiElement(x.prime, x.ram, x.coeffs).lift_ram(self.ram)
        return PiElement.from_base(x, self.p, self.ram)

    def mat(self, rows):
        return [[self.lift(x) for x in row] for row in rows]

    def val(self, x):
        return x.valuation()

    def zeroness(self, x):
        verdict = ZERO
        for c in x.coeffs:
            z = _bzeroness(c, self.precision)
            if z == NONZERO:
                return NONZERO
            if z == UNCERTAIN:
                verdict = UNCERTAIN
        return verdict


# --------------------------------------------------------------------------
# adapted norms over the whole ring
# --------------------------------------------------------------------------


def _block_diag(blocks, ring):
    """The block-diagonal matrix over ring of the square blocks, each entry
    lifted into ring."""
    d = sum(len(b) for b in blocks)
    out = [[ring.zero] * d for _ in range(d)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(row)] = [ring.lift(x) for x in row]
        off += len(b)
    return out


def reference_transform(n, ring):
    """T Winv of the adapted norm n over ring: the block-diagonal T of the
    blocks' t records times Winv, every product in ring."""
    return mat_mul(_block_diag([b.t for b in n.blocks], ring), ring.mat(n.winv))


def reference_inverse_transform(n, ring):
    """(T Winv)^-1 = W T^-1 over ring, from the blocks' tinv records."""
    return mat_mul(ring.mat(n.w), _block_diag([b.tinv for b in n.blocks], ring))


def reference_exps(n, x, t=None):
    """v((T Winv x)_i) + q_i for each norm coordinate i of n, by the
    product of T Winv (t, else reference_transform) and x over Q_p(pi)."""
    ring = PiRing(n.prime, n.ram)
    y = mat_vec(t or reference_transform(n, ring), [ring.lift(c) for c in x])
    return [ring.val(c) + q for c, q in zip(y, n.weights)]


def ext_operator_norm(x, n):
    """min v(A'_ij) + q_i - q_j over the entries of A' = (T Winv) X (T Winv)^-1,
    the matrix of X in the basis of the adapted norm n, with every product
    and the inverse of the whole d x d transform taken in Q_p(pi) arithmetic
    (PiRing); INF for A' = 0."""
    ring = PiRing(n.prime, n.ram)
    t = reference_transform(n, ring)
    a = mat_mul(t, mat_mul(ring.mat(x), mat_inverse(t, ring)))
    q = n.weights
    return min((ring.val(y) + q[i] - q[j] for i, row in enumerate(a)
                for j, y in enumerate(row) if ring.val(y) != INF), default=INF)


def reference_unit_lattice(b, p: int, ctx):
    """Reference Krylov lattice over any ring context, every entry held in
    ctx (so Q_p(pi) arithmetic for a PiRing): (L, L^-1) with the columns
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


# --------------------------------------------------------------------------
# linear algebra over Q and Q_p
# --------------------------------------------------------------------------


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


def reference_eigenspace(m, g):
    """ker g(M) for a rational M and a monic rational g (ascending), over
    plain Fractions: g(M) by Horner with schoolbook products, then the
    Fraction Gauss-Jordan (fraction_row_reduce), one vector per free column
    in ascending order, with 1 there and 0 at the other free columns."""
    d = len(m)
    mm = [[Fraction(x) for x in row] for row in m]
    acc = [[Fraction(g[-1]) * (i == j) for j in range(d)] for i in range(d)]
    for c in reversed(g[:-1]):
        acc = [[sum(acc[i][k] * mm[k][j] for k in range(d)) + c * (i == j) for j in range(d)]
               for i in range(d)]
    rows, pivots, _ = fraction_row_reduce(acc)
    out = []
    for fc in (c for c in range(d) if c not in pivots):
        v = [Fraction(0)] * d
        v[fc] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fc]
        out.append(v)
    return out


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


def _reference_zscaled(n, vecs, sign):
    """(D v_i, k_i + ram (sign q_i - v(D))) for each vector u_i of
    PiElements in vecs, with u_i = pi^(k_i) v_i, v_i over Q and
    0 <= k_i < ram, and D the lcm of the denominators of v_i."""
    out = []
    for u, q in zip(vecs, n.weights):
        slots = {k for x in u for k, c in enumerate(x.coeffs) if c != 0} or {0}
        assert len(slots) == 1, u
        k = slots.pop()
        v = [x.coeffs[k] for x in u]
        den = lcm(*(c.denominator for c in v))
        out.append(([int(c * den) for c in v],
                    k + sign * int(q * n.ram) - n.ram * valuation_of_rational(den, n.prime)))
    return out


def reference_zrows(n):
    """The integer rows of a rational adapted norm n, each row_i of
    T Winv = pi^(k_i) row_i (reference_transform, over Q_p(pi)) scaled by
    the lcm D_i of its denominators: v((T Winv x)_i) + q_i equals
    (ram v(D_i row_i . x) + offset_i)/ram."""
    return _reference_zscaled(n, reference_transform(n, PiRing(n.prime, n.ram)), 1)


def reference_zcols(n):
    """The integer columns of (T Winv)^-1 (reference_inverse_transform),
    scaled likewise, with offsets -q_j."""
    cols = zip(*reference_inverse_transform(n, PiRing(n.prime, n.ram)))
    return _reference_zscaled(n, list(cols), -1)


# --------------------------------------------------------------------------
# polynomial maps over Q
# --------------------------------------------------------------------------


def _expand(a, polys, nvars_out):
    """a with x_i -> polys[i], every term multiplied out with the values' own
    + and *, nothing dropped and no zero removed."""
    out = {}
    for m, c in a.items():
        term = {(0,) * nvars_out: c}
        for i, e in enumerate(m):
            for _ in range(e):
                nxt = {}
                for m1, c1 in term.items():
                    for m2, c2 in polys[i].items():
                        mm = tuple(x + y for x, y in zip(m1, m2))
                        nxt[mm] = nxt[mm] + c1 * c2 if mm in nxt else c1 * c2
                term = nxt
        for mm, cc in term.items():
            out[mm] = out[mm] + cc if mm in out else cc
    return out


def reference_msubst(a, polys, nvars_out, max_deg=INF):
    """dynamics._msubst over Q, whose kernel runs on tables scaled to
    integers, computed instead by plain Fraction products with no scaling
    and no truncation inside: the whole substitution expanded (_expand),
    then the zero terms and those of total degree above max_deg dropped."""
    full = _expand({m: Fraction(c) for m, c in a.items()},
                   [{m: Fraction(c) for m, c in q.items()} for q in polys], nvars_out)
    return {m: c for m, c in full.items() if c != 0 and sum(m) <= max_deg}


def reference_call(f, x):
    """F(x) for a rational map and point: sum c x^m per component, over
    Fractions."""
    return [sum((Fraction(c) * prod(Fraction(xi) ** e for xi, e in zip(x, m)) for m, c in comp),
                Fraction(0)) for comp in f.components]


def reference_orbit(f, x, n, bit_cap):
    """dynamics._orbit the plain way: [(point, sup-norm exponent)] for x,
    F(x), ..., F^n(x), each point a list stepped by PolyMap.__call__ and
    read by standard_norm_exp, cut after the first point whose coordinates
    pass bit_cap bits in all (dynamics._rat_bits)."""
    from ultradyn.dynamics import _rat_bits, standard_norm_exp

    out, z = [], list(x)
    for _ in range(n + 1):
        out.append((tuple(z), standard_norm_exp(z, f.prime)))
        if bit_cap < INF and sum(map(_rat_bits, z)) > bit_cap:
            break
        z = f(z)
    return out


def reference_lipschitz(f, n):
    """k -> the remainder bound of dynamics.remainder_lipschitz, from the
    conjugate G = (T Winv) F (T Winv)^-1 of the rational map F expanded over
    Q_p(pi) (reference_transform, reference_inverse_transform, _expand):
    the least v(c) + q_i - sum_l m_l q_l + (|m| - 1) k over the monomials
    c y^m of G_i with |m| >= 2; INF if there are none."""
    ring = PiRing(n.prime, n.ram)
    t, tinv = reference_transform(n, ring), reference_inverse_transform(n, ring)
    d = len(t)
    lin = [{tuple(int(l == j) for l in range(d)): c for j, c in enumerate(row)} for row in tinv]
    inner = [_expand({m: ring.lift(c) for m, c in comp}, lin, d) for comp in f.components]
    q = n.weights
    terms = []
    for i, row in enumerate(t):
        g = {}
        for tij, h in zip(row, inner):
            for m, c in h.items():
                g[m] = g[m] + tij * c if m in g else tij * c
        terms += [(ring.val(c) + q[i] - sum(ml * ql for ml, ql in zip(m, q)), sum(m))
                  for m, c in g.items() if sum(m) >= 2 and ring.val(c) != INF]
    return lambda k: min((b + (deg - 1) * k for b, deg in terms), default=INF)


def reference_graph_coefficients(f, a, mode, order=6, precision=DEFAULT_PRECISION):
    """The coefficients of manifolds.graph_series(f, a, mode, order,
    precision), or its refusal raised, from the per-degree loop: step k
    composes F with the whole truncated h, composes h with F_base(xi, h(xi))
    in full again, and substitutes A_b xi into the degree-k monomials."""
    from ultradyn import manifolds as mf
    from ultradyn.dynamics import _linear_tables, _madd, _map_analysis, _msubst

    a = Fraction(a)
    if a <= 0:
        raise PreconditionViolated("threshold must be positive")
    analysis = _map_analysis(f, precision).linear
    if mode in (mf.STABLE, mf.UNSTABLE) and not analysis.is_hyperbolic(a):
        raise PreconditionViolated(f"{mode} graph needs a-hyperbolicity")
    if mode == mf.UNSTABLE and a < 1:
        raise PreconditionViolated("Unstable mode requires a >= 1")
    if mode in (mf.CENTRE, mf.UNSTABLE) and any(v == INF for v, _ in analysis.spectrum):
        raise mf.JacobianSingular("derivative at 0 is singular")
    tables, db, dc, ctx, _, _, lin = mf._conjugated_split_map(
        f, analysis.splitting(a), mode, precision)
    ab, acc = [r[:db] for r in lin[:db]], [r[db:] for r in lin[db:]]
    h = [{} for _ in range(dc)]
    for k in range(2, order + 1):
        fb_h, fc_h = mf._compose_with_graph(tables, h, db, k, ctx)
        lhs = _msubst(h, fb_h, db, ctx, k)
        known = []
        for i in range(dc):
            diff = _madd(fc_h[i], lhs[i], ctx, ctx.zero - ctx.one)
            known.append({m: c for m, c in diff.items() if sum(m) == k})
        shifted = _msubst([{m: ctx.one} for m in mf._degree_monomials(db, k)],
                          _linear_tables(ab, ctx), db, ctx)
        hk = mf._solve_degree(dict(zip(mf._degree_monomials(db, k), shifted)), acc, known, dc, ctx)
        h = [_madd(h[i], hk[i], ctx) for i in range(dc)]
    return tuple((m, tuple(t.get(m, ctx.zero) for t in h))
                 for m in sorted({m for t in h for m in t}))
