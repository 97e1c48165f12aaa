"""Polynomial self-maps of K^d near a fixed point: orbits, remainder
Lipschitz bounds, certified invariant balls, fixed-point classification and
a-stable set membership.

Polynomials are stored as multi-index tables {(m_1,...,m_d): coeff}; all
radii and norms are handled as valuation exponents (r = p^-k).  Series
composition (_msubst, conjugate) is one batched kernel (_mpow, _mmul, _madd)
over a ring context: over Q_p the ring itself, over Q the integer context,
on a batch of tables scaled to integers with one denominator and one
Fraction per output term.  Evaluation at a rational point (_zeval) and an
orbit step over Q run on ints too (_zhom).
Remainder bounds conjugate F by the rows and columns of the adapted norm's
one read-out (AdaptedNorm._readout), on integers over Q and in the ring
when the norm or F holds a PadicNumber.  Spectral is imported by the
functions that use it, so an orbit loads none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate
from math import gcd, inf as INF
from operator import add, mul

from .errors import (
    JacobianSingular,
    NotAFixedPoint,
    PreconditionViolated,
    RadiusNotFound,  # noqa: F401  no longer raised; caught only at bench/workloads.py:586
    UltradynError,
)
from .field import (
    DEFAULT_PRECISION, NONZERO, ZERO, PadicNumber, RationalContext, _INTEGERS, _Record, _ival,
    compare_threshold)
from .polyalg import (
    _hash_once, _kept, _zscale, cmat, coerce, cvec, identity, infer_context, mat_inverse, mat_vec)

# --------------------------------------------------------------------------
# monomial-table polynomials: one kernel, in the ring over Q_p, on ints over Q
# --------------------------------------------------------------------------


def _madd(out, b, ctx, s=None):
    """out += b, or out += s b with s on the left, in place, keeping no term
    the ring calls zero: a sum that cancels leaves out, and re-enters at the
    end.  Returns out."""
    zeroness = ctx.zeroness
    for m, c in b.items():
        if s is not None:
            c = s * c
        if m in out:
            c = out[m] + c
            if zeroness(c) == ZERO:
                del out[m]
                continue
        elif zeroness(c) == ZERO:
            continue
        out[m] = c
    return out


def _mmul(a, b, ctx, max_deg=INF):
    """a * b, forming no term of total degree above max_deg."""
    out = {}
    bs = [(m, c, sum(m)) for m, c in b.items()]
    for m1, c1 in a.items():
        room = max_deg - sum(m1)
        for m2, c2, d2 in bs:
            if d2 <= room:
                m = tuple(map(add, m1, m2))
                t = c1 * c2
                out[m] = out[m] + t if m in out else t
    zeroness = ctx.zeroness
    return {m: c for m, c in out.items() if zeroness(c) != ZERO}


def _mpow(a, k, nvars, ctx, max_deg=INF):
    """[a^0, a^1, ..., a^k], each the one before times a, with the terms of
    total degree above max_deg dropped (they never reach a lower degree)."""
    out = [{tuple([0] * nvars): ctx.one}]
    for _ in range(k):
        out.append(_mmul(out[-1], a, ctx, max_deg))
    return out


def _meval(a, x, ctx):
    """The table a at the point x, its terms summed from the first as _dot
    sums (ctx.zero for a table with none)."""
    acc = None
    for m, t in a.items():
        for i, e in enumerate(m):
            for _ in range(e):
                t = t * x[i]
        acc = t if acc is None else acc + t
    return ctx.zero if acc is None else acc


def _zsubst(tables, polys, nvars_out, max_deg=INF):
    """(N, [A(P)]) for rational tables, a(polys) = A(P) / N for each table
    a: with E every a and D polys integral (E and D the lcms of all their
    denominators) and K the top degree of all tables, x_i -> D polys[i] / D
    turns the term c x^m into E c D^(K-|m|) P^m over N = E D^K."""
    e, za = _zscale([c for a in tables for c in a.values()])
    d, zp = _zscale([c for q in polys for c in q.values()])
    top = max((sum(m) for a in tables for m in a), default=0)
    za, zp = iter(za), iter(zp)
    return e * d ** top, _msubst(
        [{m: c * d ** (top - sum(m)) for m, c in zip(a, za) if c} for a in tables],
        [dict(zip(q, zp)) for q in polys], nvars_out, _INTEGERS, max_deg)


def _msubst(tables, polys, nvars_out, ctx, max_deg=INF):
    """[a(polys) for a in tables]: variable i -> polys[i] (a table over
    nvars_out vars), dropping the terms of total degree above max_deg.
    Each power of polys[i] is built once for the batch, from the one below,
    and truncated as well.  Over Q the tables are scaled to integers once
    (_zsubst), the kernel runs on _INTEGERS, each monomial's product of
    powers is shared by the tables, and each term gives one Fraction."""
    if isinstance(ctx, RationalContext):
        n, outs = _zsubst(tables, polys, nvars_out, max_deg)
        return [{m: Fraction(c, n) for m, c in out.items()} for out in outs]
    top = [max(col) for col in zip(*(m for a in tables for m in a))]
    pows = [_mpow(q, k, nvars_out, ctx, max_deg) for q, k in zip(polys, top)]
    zero, ints, terms, outs = tuple([0] * nvars_out), ctx is _INTEGERS, {}, []
    for a in tables:
        outs.append({})
        for m, c in a.items():
            # Over Q_p c enters first: capped precision depends on the order
            # of the products (c (x + y) (x + y) keeps a digit of 2c xy fewer
            # than c (x + y)^2).  Integers take c as the term is added.
            if not ints or m not in terms:
                term = None if ints else {zero: c}
                for i, e in enumerate(m):
                    if e:
                        term = pows[i][e] if term is None else _mmul(term, pows[i][e], ctx, max_deg)
                terms[m] = {zero: ctx.one} if term is None else term
            _madd(outs[-1], terms[m], ctx, c if ints else None)
    return outs


def _ztable(tables):
    """Rational tables on integers, homogenized to their top degree K:
    (E, K, {i: largest e_i}, [[(E c_m, ((i, e_i) for e_i of m + (K - |m|,)
    nonzero))]]), E the lcm of all their denominators."""
    e, zc = _zscale([c for t in tables for c in t.values()])
    top, zc, tops = max((sum(m) for t in tables for m in t), default=0), iter(zc), {}
    out = [[(c, tuple((i, k) for i, k in enumerate((*m, top - sum(m))) if k))
            for m, c in zip(t, zc) if c] for t in tables]
    for i, k in (ik for t in out for _, m in t for ik in m):
        tops[i] = max(k, tops.get(i, 0))
    return e, top, tops, out


def _zhom(ztables, zx):
    """The numerators of a _ztable at the integer point zx (homogenizing
    coordinate last): each coordinate's powers are built once, up to the
    largest exponent it has, and shared by the tables."""
    pows = [list(accumulate([c] * ztables[2].get(i, 1), mul, initial=1))
            for i, c in enumerate(zx)]
    out = []
    for t in ztables[3]:
        acc = 0
        for c, m in t:
            for i, k in m:
                c *= pows[i][k]
            acc += c
        out.append(acc)
    return out


def _zeval(ztables, x):
    """A _ztable at the rational point x = X / D, as Fractions over E D^K."""
    d, zx = _zscale(list(x))
    den = ztables[0] * d ** ztables[1]
    return [Fraction(c, den) for c in _zhom(ztables, zx + [d])]


def _check_length(x, n, space="map {} variables"):
    if len(x) != n:
        raise PreconditionViolated(f"point has {len(x)} coordinates, the {space.format(n)}")


def _check_self_map(f):
    if f.dim != f.nvars:
        raise PreconditionViolated(f"map K^{f.nvars} -> K^{f.dim} is not a self-map")


def _check_horizon(n):
    if n < 0:
        raise PreconditionViolated(f"horizon must be >= 0, got {n}")


class PolyMap(_Record):
    """nvars -> len(components) polynomial map.

    Each component is a tuple of (multi_index, coefficient) pairs in a
    deterministic order; coefficients are Fractions (or p-adics)."""

    prime: int
    nvars: int
    components: tuple

    __hash__ = _hash_once

    @classmethod
    def from_tables(cls, tables, p: int, nvars: int = None) -> "PolyMap":
        nvars = nvars if nvars is not None else len(tables)
        comps = []
        for t in tables:
            for m, c in t.items():
                if len(m) != nvars or not all(type(e) is int and e >= 0 for e in m):
                    raise PreconditionViolated(f"bad multi-index {m!r}")
                if not isinstance(c, (int, Fraction, PadicNumber)):
                    raise PreconditionViolated(f"bad coefficient {c!r}")
            items = []
            for m, c in sorted(t.items()):
                if isinstance(c, int):
                    c = Fraction(c)
                if isinstance(c, Fraction) and c == 0:
                    continue
                items.append((tuple(m), c))
            comps.append(tuple(items))
        return cls(p, nvars, tuple(comps))

    @property
    def dim(self) -> int:
        return len(self.components)

    def tables(self):
        return [dict(comp) for comp in self.components]

    def degree(self) -> int:
        return max((sum(m) for comp in self.components for m, _ in comp), default=0)

    def is_linear(self) -> bool:
        return all(sum(m) <= 1 for comp in self.components for m, _ in comp)

    def coeff_context(self):
        return infer_context([[c for _, c in comp] for comp in self.components], self.prime)

    @cached_property
    def _ztables(self):
        """The components as one _ztable, kept outside == and repr(); None
        if a coefficient is a PadicNumber."""
        if isinstance(self.coeff_context(), RationalContext):
            return _ztable(self.tables())
        return None

    def __call__(self, x):
        """F(x): over Q at a rational point on integers (_zeval), else in the
        coefficients' ring, so a rational F keeps a p-adic point's digits."""
        _check_length(x, self.nvars)
        at_rational = isinstance(infer_context(list(x), self.prime), RationalContext)
        if at_rational and self._ztables is not None:
            return _zeval(self._ztables, x)
        ctx = self.coeff_context()
        x = cvec(x, ctx)
        return [_meval({m: coerce(c, ctx) for m, c in comp}, x, ctx)
                for comp in self.components]


def linear_part(f: PolyMap):
    """Matrix of the degree-1 terms (the derivative at 0)."""
    d, n = f.dim, f.nvars
    a = [[Fraction(0)] * n for _ in range(d)]
    for i, comp in enumerate(f.components):
        for m, c in comp:
            if sum(m) == 1:
                a[i][m.index(1)] = c
    return a


def shift_to_fixed_point(f: PolyMap, pt) -> PolyMap:
    """G = kappa o F o kappa^-1 for kappa(x) = x - pt (F itself at pt = 0);
    requires a self-map with F(pt) = pt."""
    _check_self_map(f)
    pt = [Fraction(x) for x in pt]
    ctx = f.coeff_context()
    val = f(pt)
    for a, b in zip(val, pt):
        if ctx.zeroness(coerce(a, ctx) - coerce(b, ctx)) == NONZERO:
            x, y = (", ".join(map(str, v)) for v in (pt, val))  # "3/2", no reprs
            raise NotAFixedPoint(f"F([{x}]) = [{y}] != [{x}]")
    if not any(pt):
        return f
    n, zero = f.nvars, tuple([0] * f.nvars)  # kinv: the tables of kappa^-1, x_i + pt_i
    kinv = [{**t, zero: coerce(c, ctx)} for t, c in zip(_linear_tables(identity(n, ctx), ctx), pt)]
    comps = [{m: coerce(c, ctx) for m, c in comp} for comp in f.components]
    tables = [_madd(t, {zero: -coerce(c, ctx)}, ctx)
              for t, c in zip(_msubst(comps, kinv, n, ctx), pt)]
    return PolyMap.from_tables(tables, f.prime, n)


def jacobian(f: PolyMap, pt=None):
    """Exact matrix of partial derivatives at pt (default 0), the d n
    partials evaluated as one PolyMap."""
    n, ctx = f.nvars, f.coeff_context()
    partials = PolyMap.from_tables(
        [{tuple(e - (l == j) for l, e in enumerate(m)): coerce(c, ctx) * ctx.from_rational(m[j])
          for m, c in comp if m[j]} for comp in f.components for j in range(n)], f.prime, n)
    flat = partials([Fraction(0)] * n if pt is None else pt)
    return [flat[i:i + n] for i in range(0, len(flat), n)]


def _linear_tables(a, ctx):
    """Monomial tables of x -> a x (a given as matrix rows over ctx)."""
    n = len(a[0])
    return [{tuple(int(l == j) for l in range(n)): c for j, c in enumerate(row)
             if ctx.zeroness(c) != ZERO} for row in a]


def conjugate(f: PolyMap, t, tinv, ctx) -> list:
    """Tables of T o F o T^-1 over ctx (T given as matrix rows): row i is
    sum_j t_ij F_j(T^-1 x), the F_j(T^-1 x) one batch of _msubst.  Over Q
    they are integer tables over one N (_zsubst), and the rows of T, scaled
    to integers, combine them over one denominator."""
    tinv_polys = _linear_tables(tinv, ctx)
    if isinstance(ctx, RationalContext):
        n, inner = _zsubst(f.tables(), tinv_polys, f.nvars)
        dt, zt = _zscale([c for row in t for c in row])
        ring, den, k = _INTEGERS, dt * n, len(inner)
        t = [zt[i * k:(i + 1) * k] for i in range(len(t))]
    else:
        ring, den = ctx, None
        inner = _msubst([{m: coerce(c, ctx) for m, c in comp} for comp in f.components],
                        tinv_polys, f.nvars, ctx)
    out = []
    for row in t:
        acc = {}
        for c, table in zip(row, inner):
            if ring.zeroness(c) != ZERO:
                _madd(acc, table, ring, c)
        out.append(acc if den is None else {m: Fraction(c, den) for m, c in acc.items()})
    return out


# --------------------------------------------------------------------------
# remainder Lipschitz bounds and radii
# --------------------------------------------------------------------------


def remainder_lipschitz(f: PolyMap, radius_exp, norm: AdaptedNorm):
    """Exponent L with Lip(R | B_r(0)) <= p^-L for r = p^-radius_exp, where
    R = F - F'(0).

    Per monomial c x^m (|m| >= 2) of component i in norm coordinates the
    contribution is v(c) + q_i + sum_l m_l (k - q_l) - k; the bound is the
    min over monomials and grows without bound as k -> infinity.  INF means
    R = 0 (Lipschitz constant 0).  F's analysis is taken at DEFAULT_PRECISION.
    """
    return _map_analysis(f, DEFAULT_PRECISION).lipschitz(norm)(Fraction(radius_exp))


def _least_k(ok):
    """Smallest k >= 0 with ok(k), for a predicate that is false below some
    k and true from there on: double k until ok holds, then bisect.  It
    stops where a scan k = 0, 1, 2, ... would.

    Each radius predicate holds from some finite k on, since the remainder
    bound lip(k) is a minimum of affine functions with slopes |m| - 1 >= 1
    (or INF), so it grows without bound: linearization needs
    lip(k) + einv > 0 and dominance lip(k) > ru, with einv and ru finite;
    Invariant and Isometric balls need lip(k) >= 0 and > 0; Contracting at
    c(k) = min(op_a, lip(k)) < rate_below holds once c(k) = op_a, because
    invariant_ball's preconditions ensure rate_below > p^-op_a.
    """
    lo, hi = -1, 1  # ok(lo) counts as false; the answer lies in (lo, hi]
    while not ok(hi):
        lo, hi = hi, 2 * hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if ok(mid) else (mid, hi)
    return hi


def linearization_radius(f: PolyMap, norm: AdaptedNorm):
    """Smallest k (largest ball p^-k) with Lip(R|B) < 1 / ||A^-1||; on that
    ball ||F(z) - F(y)|| = ||A (z - y)|| exactly.  F's analysis is taken at
    DEFAULT_PRECISION."""
    return _map_analysis(f, DEFAULT_PRECISION).radius(norm)[1]


# --------------------------------------------------------------------------
# ball certificates
# --------------------------------------------------------------------------

INVARIANT, ISOMETRIC, CONTRACTING = "Invariant", "Isometric", "Contracting"


class BallCertificate(_Record):
    """On B_r, r = p^-radius_exp (in the attached norm):
    Invariant: ||F(x)|| <= ||x||; Isometric: ||F(x)|| = ||x|| exactly;
    Contracting: ||F(x)|| <= c ||x|| with c = p^-contraction_exp < 1."""

    mode: str
    radius_exp: int
    contraction_exp: object  # Fraction; >= 0 / == 0 / > 0 by mode
    norm: AdaptedNorm


def invariant_ball(f: PolyMap, mode: str, norm: AdaptedNorm,
                   rate_below=None) -> BallCertificate:
    """Certified ball for the given mode, from F's analysis at
    DEFAULT_PRECISION; rate_below (a rational) optionally strengthens
    Contracting to demand c < rate_below."""
    return _map_analysis(f, DEFAULT_PRECISION).ball(mode, norm, rate_below)


# --------------------------------------------------------------------------
# orbits
# --------------------------------------------------------------------------


def standard_norm_exp(x, p: int):
    """Exponent of the sup norm max |x_i| (INF for the zero vector)."""
    vals = [v for v in map(infer_context(x, p).val, x) if v != INF]
    return Fraction(min(vals)) if vals else INF


def orbit(f: PolyMap, x, n: int):
    """[(point, sup-norm exponent)] for x, F(x), ..., F^n(x), exact."""
    _check_self_map(f)
    _check_length(x, f.nvars)
    _check_horizon(n)
    exps, point = _orbit(f, x, n, INF)
    return [(point(i), e) for i, e in enumerate(exps)]


def _rat_bits(x) -> int:
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    if isinstance(x, int):
        return x.bit_length()
    return 64


ORBIT_BIT_CAP = 8192  # total bits of exact-rational coordinates


def _orbit(f: PolyMap, x, n: int, bit_cap):
    """(sup-norm exponents, point) of x, F(x), ..., F^n(x), point(i) the
    i-th point, cut after the first point whose exact-rational coordinates
    pass bit_cap bits in all (a quadratic F squares them).  Over Q, F^i(x)
    is integers X over one D, stepped by f._ztables and divided by gcd(D, X),
    and point(i) makes Fractions when read.  X_j / D reduced has at most its
    bits and at least those of X_j past D's: gcd(X_j, D) counts them only
    when the two bounds straddle the cap."""
    p, zt, points, bits = f.prime, f._ztables, [tuple(x)], sum(map(_rat_bits, x))
    if zt is None or any(isinstance(c, PadicNumber) for c in x):
        while len(points) <= n and bits <= bit_cap:
            points.append(tuple(f(points[-1])))
            bits = sum(map(_rat_bits, points[-1]))
        return tuple(standard_norm_exp(z, p) for z in points), points.__getitem__
    (d, zx), exps = _zscale(list(x)), [standard_norm_exp(x, p)]
    while len(points) <= n and bits <= bit_cap:
        zx, d = _zhom(zt, zx + [d]), zt[0] * d ** zt[1]
        if (g := gcd(d, *zx)) > 1:
            zx, d = [c // g for c in zx], d // g
        vals = [_ival(c, p) for c in zx if c]
        exps.append(Fraction(min(vals) - _ival(d, p)) if vals else INF)
        points.append((zx, d))
        bits = bit_cap < INF and sum(map(int.bit_length, zx)) + len(zx) * d.bit_length()
        if bits > bit_cap >= sum(max(c.bit_length() - d.bit_length(), 0) + 1 for c in zx):
            bits = sum((c // (g := gcd(c, d))).bit_length() + (d // g).bit_length() for c in zx)
    return tuple(exps), lambda i: points[0] if i == 0 else tuple(
        Fraction(c, points[i][1]) for c in points[i][0])


# --------------------------------------------------------------------------
# one analysis per map
# --------------------------------------------------------------------------


class MapAnalysis(_Record):
    """One map F at its fixed point 0, each part built on first use and kept:
    A = F'(0) and its LinearAnalysis; per adapted norm, the remainder bound
    and linearization radius; per (norm, ru), the dominance radius; per
    (norm, a), the Contracting ball below a or why it is refused; per
    (point, horizon), the orbit (the ORBITS latest); per gap of the
    spectrum's absolute values, the stable-graph reduction.  All are pure
    functions of (f, precision) and the key; the free functions share one
    interned analysis per map (_map_analysis) and, at their own precision,
    take their ball certificates from it (ball)."""

    f: PolyMap
    precision: int = DEFAULT_PRECISION
    ORBITS = 4

    @cached_property
    def lin(self):
        return linear_part(self.f)

    @cached_property
    def linear(self) -> spectral.LinearAnalysis:
        from . import spectral
        return spectral._analysis(self.lin, self.f.prime, self.precision)

    @_kept()
    def lipschitz(self, norm: AdaptedNorm):
        """k -> remainder_lipschitz(f, k, norm), with F conjugated into the
        norm's coordinates once, as P F R with P the norm's rows and R its
        columns (AdaptedNorm._readout), offsets off_i and coff_l in units of
        1/ram: the monomial c x^m of component i gives
        v(c) + (off_i + sum_l m_l coff_l)/ram.  Over Q they are integer
        rows and columns; a PadicNumber in the norm or the map keeps the
        ring."""
        f, ctx = self.f, self.f.coeff_context()
        sizes, rational = {f.nvars, f.dim}, isinstance(ctx, RationalContext)
        exact, rows = norm._readout(f.prime, sizes, rational)
        cols, coffs = zip(*norm._readout(f.prime, sizes, rational, cols=True)[1])
        pr, offs = zip(*rows)
        ctx = ctx if exact else infer_context([pr, cols, f.components], f.prime)
        tables = conjugate(f, pr, list(zip(*cols)), ctx)
        # (v(c) + (off_i + sum_l m_l coff_l)/ram, |m|) for each monomial
        # c x^m of P F R, |m| >= 2
        terms = [(ctx.val(c) + Fraction(offs[i] + sum(map(mul, m, coffs)), norm.ram), sum(m))
                 for i, table in enumerate(tables) for m, c in table.items()
                 if sum(m) >= 2 and ctx.val(c) != INF]
        return lambda k: min((base + (deg - 1) * k for base, deg in terms), default=INF)

    @_kept()
    def radius(self, norm: AdaptedNorm):
        """(einv, k): ||A^-1|| = p^-einv, and k = linearization_radius(f, norm)."""
        from .spectral import operator_norm
        ctx = infer_context(self.lin, self.f.prime, self.precision)
        try:
            ainv = mat_inverse(cmat(self.lin, ctx), ctx)
        except PreconditionViolated as exc:
            raise JacobianSingular("derivative at 0 is singular") from exc
        einv = operator_norm(ainv, self.f.prime, norm)
        lipschitz = self.lipschitz(norm)
        return einv, _least_k(lambda k: lipschitz(k) + einv > 0)

    @_kept()
    def dominance(self, norm: AdaptedNorm, ru):
        """k: the least with Lip(R | B_{p^-k}) < p^-ru, the slowest unstable
        expansion rate (stable_membership's dominance ball)."""
        lipschitz = self.lipschitz(norm)
        return _least_k(lambda k: lipschitz(k) > ru)

    def ball(self, mode: str, norm: AdaptedNorm, rate_below=None) -> BallCertificate:
        """invariant_ball(f, mode, norm, rate_below) at this analysis's
        precision."""
        from .spectral import operator_norm
        p = self.f.prime
        op_a = operator_norm(self.lin, p, norm)
        if mode == INVARIANT:
            if op_a < 0:
                raise PreconditionViolated(f"||A|| = p^{-op_a} > 1")
        elif mode == ISOMETRIC:
            if op_a != 0 or self.radius(norm)[0] != 0:
                raise PreconditionViolated("A is not an isometry in this norm")
        elif mode == CONTRACTING:
            if op_a <= 0:
                raise PreconditionViolated(f"||A|| = p^{-op_a} not < 1")
            if rate_below is not None and compare_threshold(rate_below, op_a, p) <= 0:
                raise PreconditionViolated(f"||A|| not below rate {rate_below}")
        else:
            raise PreconditionViolated(f"unknown mode {mode!r}")
        lipschitz = self.lipschitz(norm)
        if mode == INVARIANT:
            k = _least_k(lambda k: lipschitz(k) >= 0)
        else:  # Isometric: op_a == 0, so c == 0 below
            k = _least_k(lambda k: lipschitz(k) > 0 and (
                mode == ISOMETRIC or rate_below is None
                or compare_threshold(rate_below, min(op_a, lipschitz(k)), p) > 0))
        return BallCertificate(mode, k, min(op_a, lipschitz(k)), norm)

    @_kept()
    def contracting_ball(self, norm: AdaptedNorm, a):
        """(Contracting ball at a rate below a, None), or (None, why not)."""
        return _ball_or_reason(self, CONTRACTING, norm, a)

    @_kept(ORBITS)
    def orbit(self, x: tuple, horizon: int):
        return _orbit(self.f, x, horizon, ORBIT_BIT_CAP)

    def stable_graph(self, a):
        """(gs, restricted base map, ctx) if the a-stable graph gs of order
        max(6, deg F^2) is an exactly invariant polynomial graph, else the
        reason it is not; kept per gap (each a on the same side of every
        root valuation splits F'(0) alike; gs.a is the first a asked, and no
        answer reads it).
        graph_series zeroes the residual through the order; the untruncated
        residual read at one exact point can refute the graph, and only a
        graph it does not refute is composed with F, in full, once."""
        gap = self.linear.sides(a)
        kept = self.__dict__.setdefault("_stable_graph", {})
        if gap not in kept:
            kept[gap] = self._graph_reduction(a)
        return kept[gap]

    def _graph_reduction(self, a):
        from . import manifolds  # deferred: manifolds imports this module

        f = self.f
        try:
            gs = manifolds.graph_series(f, a, manifolds.STABLE, order=max(6, f.degree() ** 2),
                                        precision=self.precision)
        except UltradynError as exc:
            return f"no stable graph: {type(exc).__name__}: {exc}"
        tables, h, ctx = manifolds._on_graph(f, gs)
        if any(ctx.zeroness(r) == NONZERO for r in manifolds._residual_at_point(gs, tables)):
            why = "residual at one exact point"
        else:
            fb, fc = manifolds._compose_with_graph(tables, h, len(gs.base_basis), INF, ctx)
            if not any(manifolds._residual_of(fb, fc, h, ctx)):  # zero terms are dropped
                return gs, PolyMap.from_tables(fb, f.prime, len(fb)), ctx
            why = "untruncated residual"
        return f"the stable graph of order {gs.order} is not exactly invariant (nonzero {why})"


@lru_cache(maxsize=16)
def _map_analysis(f, precision):
    """f's MapAnalysis, interned by content (PolyMap hashes by value) for the
    16 most recent (f, precision), both positional.  Each entry point reads
    F'(0) as an endomorphism, so a map that is not a self-map is refused."""
    _check_self_map(f)
    return MapAnalysis(f, precision)


# --------------------------------------------------------------------------
# fixed point classification
# --------------------------------------------------------------------------

NON_EXPANDING = "NonExpanding"
STABLY_NEUTRAL = "StablyNeutral"
UNIFORMLY_ATTRACTIVE = "UniformlyAttractive"
HAS_EXPANSION = "HasExpansion"


class FixedPointReport(_Record):
    point: tuple
    jacobian: tuple
    spectrum: tuple  # ((valuation, multiplicity), ...)
    label: str
    degenerate: bool  # singular jacobian
    certificate: object  # BallCertificate or None
    norm: object  # AdaptedNorm or None
    _reason: str = None  # why no certificate is attached (outside ==, hash and repr())


def _ball_or_reason(an, mode, norm, rate_below=None):
    """(an.ball(mode, norm, rate_below), None), or (None, why it is refused)."""
    try:
        return an.ball(mode, norm, rate_below), None
    except PreconditionViolated as exc:
        return None, f"{mode}: {exc}"


def classify_fixed_point(f: PolyMap, pt=None,
                         precision: int = DEFAULT_PRECISION) -> FixedPointReport:
    """Label the fixed point purely from the spectrum of the derivative:
    all |lambda| < 1 -> UniformlyAttractive; all = 1 -> StablyNeutral;
    all <= 1 -> NonExpanding; otherwise (or singular) HasExpansion.  Attaches
    the matching ball certificate when one exists, else keeps why not."""
    if pt is None:
        pt = [Fraction(0)] * f.nvars
    pt = [Fraction(x) for x in pt]
    an = _map_analysis(shift_to_fixed_point(f, pt), precision)
    a, analysis = an.lin, an.linear
    spec = analysis.spectrum
    degenerate = any(v == INF for v, _ in spec)
    if degenerate:
        label = HAS_EXPANSION
    elif all(v > 0 for v, _ in spec):
        label = UNIFORMLY_ATTRACTIVE
    elif all(v == 0 for v, _ in spec):
        label = STABLY_NEUTRAL
    elif all(v >= 0 for v, _ in spec):
        label = NON_EXPANDING
    else:
        label = HAS_EXPANSION
    cert, norm, reason = None, None, f"{label} has no ball mode"
    mode = {UNIFORMLY_ATTRACTIVE: CONTRACTING, STABLY_NEUTRAL: ISOMETRIC,
            NON_EXPANDING: INVARIANT}.get(label)
    if mode is not None:
        norm = analysis.norm()
        cert, reason = _ball_or_reason(an, mode, norm)
    return FixedPointReport(
        tuple(pt), tuple(tuple(r) for r in a), tuple(spec), label, degenerate,
        cert, norm, reason,
    )


# --------------------------------------------------------------------------
# a-stable set membership
# --------------------------------------------------------------------------

CERTIFIED_MEMBER = "CertifiedMember"
CERTIFIED_NON_MEMBER = "CertifiedNonMember"
HEURISTIC_MEMBER = "HeuristicMember"
HEURISTIC_NON_MEMBER = "HeuristicNonMember"
UNDECIDED = "Undecided"


class MembershipVerdict(_Record):
    verdict: str
    trace: tuple  # sup-norm exponents of the orbit prefix
    justification: tuple  # human-readable inequality chain
    _reasons: tuple = ()  # (rule, why it did not apply) per rule tried; outside ==, hash, repr()


def _is_exact_zero_vec(x, p, precision):
    ctx = infer_context([list(x)], p, precision)
    return all(ctx.zeroness(coerce(c, ctx)) == ZERO for c in x)


def _trace(an, x, horizon):
    """The sup-norm exponents of x's orbit, kept in an."""
    return an.orbit(tuple(x), horizon)[0]


def _fixed_point(an, a, x, horizon):
    if not _is_exact_zero_vec(x, an.f.prime, an.precision):
        return "x is not exactly 0"
    return CERTIFIED_MEMBER, (INF,), ("x is the fixed point itself",)


def _linear_map(an, a, x, horizon):
    """A linear F by its splitting at a: x's centre and unstable
    coordinates, read at the analysis's precision.  It always answers."""
    f = an.f
    if not f.is_linear():
        return f"F has degree {f.degree()}"
    s = an.linear.splitting(a)
    ctx = infer_context([list(s.winv), list(x)], f.prime, an.precision)
    coords = mat_vec(cmat(s.winv, ctx), cvec(x, ctx))
    ds, dc, du = s.dims()
    zness = [ctx.zeroness(coords[i]) for i in range(ds, ds + dc + du)]
    trace = _orbit(f, x, min(horizon, 8), INF)[0]
    if any(z not in (ZERO, NONZERO) for z in zness):
        return UNDECIDED, trace, ("a centre/unstable coordinate of x is indistinguishable "
                                  "from zero at working precision",)
    bad = [ds + i for i, z in enumerate(zness) if z == NONZERO]
    if not bad:
        # certified: x lies in E_{a,s}; every eigenvalue there has |.| < a
        return CERTIFIED_MEMBER, trace, (
            "x in E_{a,s} exactly (centre/unstable coordinates all zero)",
            "all stable eigenvalue absolute values < a, so a^-n ||A^n x|| -> 0")
    kind = "centre" if bad[0] < ds + dc else "unstable"
    return CERTIFIED_NON_MEMBER, trace, (
        f"x has a nonzero {kind} coordinate (index {bad[0]})",
        "that coordinate's norm is multiplied by exactly |lambda| >= a each "
        "step in the adapted norm, so a^-n ||A^n x|| does not tend to 0")


def _points(an, x, horizon, start=0):
    """(n, F^n(x)) for n >= start along x's kept orbit, each point made as
    it is read."""
    exps, point = an.orbit(tuple(x), horizon)
    return ((n, point(n)) for n in range(start, len(exps)))


def _ball_member(an, cert, x, horizon):
    """CertifiedMember by the first orbit point inside cert's ball, or why
    no point within the horizon is."""
    k = cert.radius_exp
    for n, z in _points(an, x, horizon):
        if cert.norm.norm_exp(z) >= k:
            if cert.mode == CONTRACTING:
                just = (f"F^{n}(x) lies in the ball p^-{k} with a Contracting certificate "
                        f"at rate c = p^-{cert.contraction_exp} < a",
                        "hence a^-m ||F^m(x)|| <= (c/a)^m const -> 0")
            else:
                just = (f"F^{n}(x) lies in the ball p^-{k} with an Invariant certificate "
                        "(||F(z)|| <= ||z|| there)",
                        f"hence a^-m ||F^m(x)|| <= a^-m ||F^{n}(x)|| for m >= {n}, "
                        "which tends to 0 as a > 1")
            return CERTIFIED_MEMBER, _trace(an, x, horizon), just
    return f"no orbit point within the horizon lies in the {cert.mode} ball p^-{k}"


def _contracting_ball(an, a, x, horizon):
    """Every |lambda| < a: an orbit point inside a Contracting ball at a
    rate below a (the ball, or why it is refused, kept per (norm, a))."""
    cert, reason = an.contracting_ball(an.linear.norm(), a)
    return reason or _ball_member(an, cert, x, horizon)


def _invariant_ball(an, a, x, horizon):
    """Every |lambda| < a, a > 1 and the Contracting ball refused (||A|| =
    1): an orbit point inside an Invariant ball, which takes
    a^-m ||F^m(x)|| to 0 all the same."""
    norm = an.linear.norm()
    if an.contracting_ball(norm, a)[0] is not None:
        return "the Contracting ball was built"
    if a <= 1:
        return f"a = {a} is not > 1"
    cert, reason = _ball_or_reason(an, INVARIANT, norm)
    return reason or _ball_member(an, cert, x, horizon)


def _linearization_ball(an, a, x, horizon):
    """Every |lambda| > a, so ]0, a] misses the spectrum and W_a^s is
    locally {0}: an orbit point that is 0, or one inside the linearization
    ball, where ||F(z)|| >= p^einv ||z|| (no eigenvalue is 0, so A is
    invertible)."""
    p, norm = an.f.prime, an.linear.norm()
    einv, k = an.radius(norm)
    # a soundness guard: an exact norm (all blocks rational) scales each block
    # by |lambda|, so p^einv = min |lambda| > a; only an O-term can refuse here
    if compare_threshold(a, -einv, p) != -1:
        return f"the expansion p^{einv} of ||A^-1|| = p^{-einv} is not certified above a"
    for n, z in _points(an, x, horizon):
        if _is_exact_zero_vec(z, p, an.precision):
            return CERTIFIED_MEMBER, _trace(an, x, horizon), (
                f"F^{n}(x) = 0 exactly; the orbit is eventually the fixed point",)
        if norm.norm_exp(z) >= k:
            return CERTIFIED_NON_MEMBER, _trace(an, x, horizon), (
                f"F^{n}(x) != 0 lies inside the linearization ball p^-{k}",
                f"there ||F(z)|| >= p^{einv} ||z|| with p^{einv} > a "
                "(every eigenvalue absolute value exceeds a)",
                "so a^-m ||F^m(x)|| grows strictly until the orbit "
                "leaves the chart ball and never returns to decay")
    return f"no orbit point within the horizon is 0 or inside the linearization ball p^-{k}"


def _dominant_unstable(an, a, x, horizon, n=0, z=None):
    """In a gap, the dominant-unstable certificate that x is a non-member,
    read at z = F^n(x), x itself by default: z's E_(a,u) component strictly
    dominates its E_(a,s) one and z lies inside the dominance ball, in
    which the remainder's Lipschitz bound is beaten by the slowest unstable
    expansion rate p^-ru (ru = largest unstable valuation), so unstable
    dominance propagates exactly and the unstable norm grows by > a each
    step.  The components come first: they need no remainder bound.  At x
    itself no graph is built: a point on an exactly invariant stable graph
    has no such component, so this rule and the next exclude each other."""
    lin, z = an.linear, x if z is None else z
    norm, sides = lin.norm(), lin.sides(a)
    coord_sides = [s for s, b in zip(sides, norm.blocks, strict=True) for _ in b.t]
    exps = norm._coord_exps(z)
    es, eu = (min((e for e, s in zip(exps, coord_sides) if s == side), default=INF)
              for side in (1, -1))
    if eu >= es:
        return f"F^{n}(x) has no strictly dominant E_(a,u) component (exp {eu} >= {es})"
    k = an.dominance(norm, max(v for (v, _), s in zip(lin.spectrum, sides, strict=True)
                              if s == -1))
    if eu < k:
        return f"F^{n}(x) lies outside the dominance ball p^-{k} (exp {eu} < {k})"
    return CERTIFIED_NON_MEMBER, _trace(an, x, horizon), (
        f"F^{n}(x) lies inside the dominance ball p^-{k} with strictly dominant "
        f"E_(a,u) component (exp {eu} < {es})",
        "dominance propagates exactly (ultrametric dominated sum, Lip(R) < "
        "expansion factor), so a^-m ||F^m(x)|| grows strictly inside the chart ball")


def _on_stable_graph(an, a, x, horizon):
    """x on the exactly invariant a-stable graph, a member if the base
    map's verdict on its base coordinates is; the answer carries the base
    map's trace, so x's own orbit is not built."""
    from . import manifolds

    reduction = an.stable_graph(a)
    if isinstance(reduction, str):
        return reduction
    gs, base_map, ctx = reduction
    base_x, comp_x = manifolds.split_point(gs, x)
    hval = manifolds.evaluate_graph(gs, base_x)
    if any(ctx.zeroness(coerce(cv, ctx) - coerce(hv, ctx)) != ZERO
           for cv, hv in zip(comp_x, hval)):
        return "x is not on the stable graph"
    sub = stable_membership(base_map, a, base_x, horizon, an.precision)
    if sub.verdict != CERTIFIED_MEMBER:
        return f"x is on the stable graph, but the base map's verdict is {sub.verdict}"
    digits = "" if isinstance(ctx, RationalContext) else " to working precision"
    return CERTIFIED_MEMBER, sub.trace, (
        "the a-stable graph h is an exactly invariant polynomial graph "
        f"(untruncated invariance residual == 0{digits})",
        "x lies on the graph exactly, so its orbit stays on it and "
        "||F^n(x)|| <= C ||base orbit|| near 0",
    ) + sub.justification


def _orbit_point(an, a, x, horizon):
    """An orbit point F^n(x), n >= 1, that is 0 or has the dominance of
    _dominant_unstable (n = 0 is x, which the rules before it read)."""
    for n, z in _points(an, x, horizon, 1):
        if _is_exact_zero_vec(z, an.f.prime, an.precision):
            return CERTIFIED_MEMBER, _trace(an, x, horizon), (f"F^{n}(x) = 0 exactly",)
        out = _dominant_unstable(an, a, x, horizon, n, z)
        if not isinstance(out, str):
            return out
    return "no orbit point F^n(x), n >= 1, within the horizon is 0 or has that dominance"


def _trend(an, a, x, horizon):
    """The trend of a^-n ||F^n(x)|| over the last half of the horizon, by
    consecutive exponents compared against a exactly: heuristic, and it
    always answers."""
    trace = _trace(an, x, horizon)
    if sum(t != INF for t in trace) >= 4:
        cmps = [compare_threshold(a, t1 - t0, an.f.prime)
                for t0, t1 in zip(trace, trace[1:]) if INF not in (t0, t1)]
        window = cmps[-(len(cmps) // 2 or 1):]
        for side, verdict, trend in ((1, HEURISTIC_MEMBER, "decreasing"),
                                     (-1, HEURISTIC_NON_MEMBER, "increasing")):
            if all(c == side for c in window):
                return verdict, trace, (f"a^-n ||F^n(x)|| strictly {trend} over the last "
                                        "half of the horizon (no certificate applies)",)
    return UNDECIDED, trace, ("no certificate applies and the orbit trend is "
                              "not monotone over the horizon",)


# the certificate rules of each regime, keyed by the sides of a the spectrum
# lies on (1: |lambda| < a, -1: > a); with some |lambda| = a only the trend answers
_REGIME_RULES = {frozenset({1}): (_contracting_ball, _invariant_ball),
                 frozenset({-1}): (_linearization_ball,),
                 frozenset({1, -1}): (_dominant_unstable, _on_stable_graph, _orbit_point)}


def _rules(an, a):
    """The rules in order, each called as rule(an, a, x, horizon) to give
    (verdict, trace, justification) or the one-line reason it did not apply
    (x's orbit is kept in an); the regime is read once x = 0 and a linear F
    are ruled out."""
    yield from (_fixed_point, _linear_map)
    yield from _REGIME_RULES.get(frozenset(an.linear.sides(a)), ())
    yield _trend


def stable_membership(f: PolyMap, a, x, horizon: int = 64,
                      precision: int = DEFAULT_PRECISION) -> MembershipVerdict:
    """Verdict on x in W_a^s = {z : a^-n ||F^n(z)|| -> 0} for the fixed
    point 0 (chart-local semantics: certificates reason inside certified
    balls around 0).  The first of these rules that applies answers, and
    the verdict keeps why each one before it did not (_reasons):

    1. x = 0;
    2. a linear F, by its splitting at a;
    3. every |lambda| < a: an orbit point inside a Contracting ball at a
       rate below a, or, for a > 1 when ||A|| = 1 refuses Contracting,
       inside an Invariant ball (two rules);
    4. every |lambda| > a: an orbit point that is 0 or lies inside the
       linearization ball;
    5. in a hyperbolic gap: x's own dominant unstable component inside
       the dominance ball (no graph is built then), else x on the exactly
       invariant stable graph (the base map's verdict), else an orbit
       point that is 0 or has that dominance;
    6. the orbit's trend, a heuristic verdict, which always answers."""
    a = Fraction(a)
    if a <= 0:
        raise PreconditionViolated("threshold must be positive")
    an = _map_analysis(f, precision)  # refuses a map that is not a self-map
    _check_length(x, f.nvars)
    _check_horizon(horizon)
    reasons = []
    for rule in _rules(an, a):
        out = rule(an, a, x, horizon)
        if not isinstance(out, str):
            return MembershipVerdict(*out, tuple(reasons))
        reasons.append((rule.__name__.lstrip("_"), out))
