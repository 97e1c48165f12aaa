"""Polynomial self-maps of K^d near a fixed point: orbits, remainder
Lipschitz bounds, certified invariant balls, fixed-point classification and
a-stable set membership.

Polynomials are stored as multi-index tables {(m_1,...,m_d): coeff}; all
radii and norms are handled as valuation exponents (r = p^-k).  Series
composition (_msubst, conjugate) is one kernel (_mpow, _mmul, _madd) over a
ring context: over Q_p the ring itself, over Q the integer context, on
tables scaled to integers with one denominator each and one Fraction per
output term.  Evaluation at a rational point (_zeval) is _meval on ints too.
Remainder bounds conjugate F by the rows and columns of the adapted norm's
one read-out (AdaptedNorm._readout), on integers over Q and in the ring
when the norm or F holds a PadicNumber.  Spectral is imported by the
functions that use it, so an orbit loads none.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import inf as INF, lcm
from operator import add, mul

from .errors import (
    JacobianSingular,
    NotAFixedPoint,
    PreconditionViolated,
    RadiusNotFound,  # noqa: F401  no longer raised; caught only at bench/workloads.py:586
    UltradynError,
)
from .field import (
    DEFAULT_PRECISION, NONZERO, ZERO, PadicNumber, RationalContext, _INTEGERS, _Record,
    compare_threshold)
from .polyalg import (
    _hash_once, _kept, _zscale, cmat, coerce, cvec, infer_context, mat_inverse, mat_vec)

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
    acc = ctx.zero
    for m, c in a.items():
        t = c
        for i, e in enumerate(m):
            for _ in range(e):
                t = t * x[i]
        acc = acc + t
    return acc


def _zscaled(a, polys):
    """(N, A, P) for rational tables: a(polys) = A(P) / N with A and P
    integer tables.  With E a and D polys[i] integral (E and D the lcms of
    the denominators) and K the top degree of a, x_i -> D polys[i] / D
    turns the term c x^m into E c D^(K-|m|) P^m over N = E D^K."""
    e, za = _zscale(list(a.values()))
    d, flat = _zscale([c for q in polys for c in q.values()])
    it = iter(flat)
    top = max(map(sum, a), default=0)
    return (e * d ** top, {m: c * d ** (top - sum(m)) for m, c in zip(a, za) if c},
            [{m: next(it) for m in q} for q in polys])


def _msubst(a, polys, nvars_out, ctx, max_deg=INF):
    """Substitute variable i -> polys[i] (a table over nvars_out vars),
    dropping the terms of total degree above max_deg.  Each power of
    polys[i] is built once, from the one below, and truncated as well.
    Over Q the tables are scaled to integers (_zscaled) and the kernel runs
    on _INTEGERS, with one Fraction per term."""
    if isinstance(ctx, RationalContext):
        n, za, zpolys = _zscaled(a, polys)
        return {m: Fraction(c, n) for m, c in _msubst(za, zpolys, nvars_out, _INTEGERS,
                                                      max_deg).items()}
    pows = [_mpow(polys[i], max(col), nvars_out, ctx, max_deg)
            for i, col in enumerate(zip(*a))]
    zero = tuple([0] * nvars_out)
    out = {}
    for m, c in a.items():
        # Over Q_p c enters first: capped precision depends on the order of
        # the products (c (x + y) (x + y) keeps a digit of 2c xy fewer than
        # c (x + y)^2).  Integers take c as the term is added: smaller products.
        term, s = (None, c) if ctx is _INTEGERS else ({zero: c}, None)
        for i, e in enumerate(m):
            if e:
                term = pows[i][e] if term is None else _mmul(term, pows[i][e], ctx, max_deg)
        _madd(out, {zero: ctx.one} if term is None else term, ctx, s)
    return out


def _ztable(table):
    """A rational table on integers, homogenized: (E, {m + (K - |m|,): E c_m},
    K), E the lcm of its denominators and K its top degree."""
    e, zc = _zscale(list(table.values()))
    top = max(map(sum, table), default=0)
    return e, {(*m, top - sum(m)): c for m, c in zip(table, zc) if c}, top


def _zeval(ztables, x):
    """Each _ztable at the rational point x = X / D, as a Fraction: _meval
    on the integer context at (X, D), over E D^K."""
    d, zx = _zscale(list(x))
    zx.append(d)
    return [Fraction(_meval(t, zx, _INTEGERS), e * d ** top) for e, t, top in ztables]


def _check_point(f, x):
    if len(x) != f.nvars:
        raise PreconditionViolated(
            f"point has {len(x)} coordinates, the map {f.nvars} variables")


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
            for m in t:
                if len(m) != nvars or not all(type(e) is int and e >= 0 for e in m):
                    raise PreconditionViolated(f"bad multi-index {m!r}")
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

    def coeff_context(self, precision: int = DEFAULT_PRECISION):
        return infer_context([[c for _, c in comp] for comp in self.components],
                             self.prime, precision)

    @cached_property
    def _ztables(self):
        """The components as _ztables, kept outside == and repr(); None if
        a coefficient is a PadicNumber."""
        if isinstance(self.coeff_context(), RationalContext):
            return [_ztable(dict(comp)) for comp in self.components]
        return None

    def __call__(self, x):
        _check_point(self, x)
        if self._ztables is not None and not any(isinstance(c, PadicNumber) for c in x):
            return _zeval(self._ztables, x)
        ctx = infer_context(
            [[c for _, c in comp] for comp in self.components] + [list(x)],
            self.prime)
        xx = cvec(x, ctx)
        return [_meval({m: coerce(c, ctx) for m, c in comp}, xx, ctx)
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
    requires F(pt) = pt."""
    pt = [Fraction(x) for x in pt]
    ctx = f.coeff_context()
    val = f(pt)
    for a, b in zip(val, pt):
        if ctx.zeroness(coerce(a, ctx) - coerce(b, ctx)) == NONZERO:
            x, y = (", ".join(map(str, v)) for v in (pt, val))  # "3/2", no reprs
            raise NotAFixedPoint(f"F([{x}]) = [{y}] != [{x}]")
    if not any(pt):
        return f
    n = f.nvars
    shift_polys = []
    for i in range(n):
        e = tuple(1 if j == i else 0 for j in range(n))
        shift_polys.append({e: ctx.one, tuple([0] * n): coerce(pt[i], ctx)})
    tables = []
    for i, comp in enumerate(f.components):
        t = _msubst({m: coerce(c, ctx) for m, c in comp}, shift_polys, n, ctx)
        zero_m = tuple([0] * n)
        t = _madd(t, {zero_m: -coerce(pt[i], ctx)}, ctx)
        tables.append(t)
    return PolyMap.from_tables(tables, f.prime, n)


def jacobian(f: PolyMap, pt=None):
    """Exact matrix of partial derivatives at pt (default 0)."""
    n = f.nvars
    ctx = f.coeff_context()
    if pt is None:
        pt = [Fraction(0)] * n
    _check_point(f, pt)
    pt = cvec(pt, ctx)
    rows = []
    for comp in f.components:
        row = []
        for j in range(n):
            dj = {}
            for m, c in comp:
                if m[j]:
                    dm = tuple(e - (1 if l == j else 0) for l, e in enumerate(m))
                    t = coerce(c, ctx) * ctx.from_rational(m[j])
                    dj[dm] = dj[dm] + t if dm in dj else t
            row.append(_meval(dj, pt, ctx))
        rows.append(row)
    return rows


def _linear_tables(a, ctx):
    """Monomial tables of x -> a x (a given as matrix rows over ctx)."""
    n = len(a[0])
    return [{tuple(int(l == j) for l in range(n)): c for j, c in enumerate(row)
             if ctx.zeroness(c) != ZERO} for row in a]


def conjugate(f: PolyMap, t, tinv, ctx) -> list:
    """Tables of T o F o T^-1 over ctx (T given as matrix rows): row i is
    sum_j t_ij F_j(T^-1 x).  Over Q each F_j(T^-1 x) is an integer table
    over N_j (_zscaled), and the rows of T, scaled to integers, combine them
    over one denominator."""
    tinv_polys = _linear_tables(tinv, ctx)
    if isinstance(ctx, RationalContext):
        scaled = [_zscaled(dict(comp), tinv_polys) for comp in f.components]
        den, k = lcm(*[n for n, _, _ in scaled]), len(scaled)
        dt, zt = _zscale([c for row in t for c in row])
        t = [[c * (den // n) for c, (n, _, _) in zip(zt[i * k:(i + 1) * k], scaled)]
             for i in range(len(t))]
        ring, den = _INTEGERS, dt * den
        inner = [_msubst(za, zpolys, f.nvars, ring) for _, za, zpolys in scaled]
    else:
        ring, den = ctx, None
        inner = [_msubst({m: coerce(c, ctx) for m, c in comp}, tinv_polys, f.nvars, ctx)
                 for comp in f.components]
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
    _check_point(f, x)
    _check_horizon(n)
    return _orbit(f, x, n, INF)


def _rat_bits(x) -> int:
    if isinstance(x, Fraction):
        return x.numerator.bit_length() + x.denominator.bit_length()
    if isinstance(x, int):
        return x.bit_length()
    return 64


ORBIT_BIT_CAP = 8192  # total bits of exact-rational coordinates


def _orbit(f: PolyMap, x, n: int, bit_cap):
    """orbit(f, x, n), cut after the first point whose exact-rational
    coordinates pass bit_cap bits in all (a quadratic F squares them)."""
    out = []
    z = list(x)
    for _ in range(n + 1):
        out.append((tuple(z), standard_norm_exp(z, f.prime)))
        if bit_cap < INF and sum(_rat_bits(c) for c in z) > bit_cap:
            break
        z = f(z)
    return out


# --------------------------------------------------------------------------
# one analysis per map
# --------------------------------------------------------------------------


class MapAnalysis(_Record):
    """One map F at its fixed point 0, each part built on first use and kept:
    A = F'(0) and its LinearAnalysis; per adapted norm, the remainder bound
    and linearization radius; per (norm, ru), the dominance radius; per
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

    @_kept(ORBITS)
    def orbit(self, x: tuple, horizon: int):
        return _orbit(self.f, x, horizon, ORBIT_BIT_CAP)

    def stable_graph(self, a):
        """(gs, restricted base map, ctx) if the a-stable graph gs of order
        max(6, deg F^2) is an exactly invariant polynomial graph, else None;
        kept per gap (each a on the same side of every root valuation splits
        F'(0) alike; gs.a is the first a asked, and no answer reads it).
        graph_series zeroes the residual through the order, and its degree
        order + 1 terms are exact from a composition truncated there (see
        manifolds._on_graph); only a graph they pass is composed in full."""
        gap = tuple(compare_threshold(a, v, self.f.prime) for v, _ in self.linear.spectrum)
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
        except UltradynError:
            return None
        compose, h, ctx = manifolds._on_graph(f, gs)
        for cap in (gs.order + 1, INF):
            fb, fc = compose(cap)
            if any(manifolds._residual_of(fb, fc, h, ctx, cap)):  # zero terms are dropped
                return None
        return gs, PolyMap.from_tables(fb, f.prime, len(fb)), ctx


# f's MapAnalysis, interned by content (PolyMap hashes by value) for the 16
# most recent (f, precision); call it with both arguments positional
_map_analysis = lru_cache(maxsize=16)(MapAnalysis)


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


def classify_fixed_point(f: PolyMap, pt=None,
                         precision: int = DEFAULT_PRECISION) -> FixedPointReport:
    """Label the fixed point purely from the spectrum of the derivative:
    all |lambda| < 1 -> UniformlyAttractive; all = 1 -> StablyNeutral;
    all <= 1 -> NonExpanding; otherwise (or singular) HasExpansion.  Attaches
    the matching ball certificate when one exists."""
    p = f.prime
    if pt is None:
        pt = [Fraction(0)] * f.nvars
    pt = [Fraction(x) for x in pt]
    g = shift_to_fixed_point(f, pt)
    an = _map_analysis(g, precision)
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
    cert, norm = None, None
    mode = {UNIFORMLY_ATTRACTIVE: CONTRACTING, STABLY_NEUTRAL: ISOMETRIC,
            NON_EXPANDING: INVARIANT}.get(label)
    if mode is not None:
        norm = analysis.norm()
        try:
            cert = an.ball(mode, norm)
        except PreconditionViolated:
            cert = None
    return FixedPointReport(
        tuple(pt), tuple(tuple(r) for r in a), tuple(spec), label, degenerate,
        cert, norm,
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


def _is_exact_zero_vec(x, p, precision):
    ctx = infer_context([list(x)], p, precision)
    return all(ctx.zeroness(coerce(c, ctx)) == ZERO for c in x)


def _component_exps(norm, a, z):
    """(stable_exp, centre_exp, unstable_exp) of z: norm exponents of the
    components of z in the spectral blocks grouped by |.| vs a."""
    exps = norm._coord_exps(z)
    out = {1: INF, 0: INF, -1: INF}
    off = 0
    for b in norm.blocks:
        side = compare_threshold(a, b.rho, norm.prime)
        out[side] = min([out[side]] + exps[off:off + len(b.t)])
        off += len(b.t)
    return out[1], out[0], out[-1]


def _dominant_unstable(an, norm, a, ru, n, z):
    """The dominant-unstable certificate that x is a non-member, read at
    z = F^n(x): z's E_(a,u) component strictly dominates and z lies inside
    the dominance ball, in which the remainder's Lipschitz bound is beaten
    by the slowest unstable expansion rate p^-ru (ru = largest unstable
    valuation), so unstable dominance propagates exactly and the unstable
    norm grows by > a each step.  Its justification, else None.  The
    components come first: they need no remainder bound."""
    es, ec, eu = _component_exps(norm, a, z)
    if eu < min(es, ec):  # so ||z|| = p^-eu
        k = an.dominance(norm, ru)
        if eu >= k:
            return (
                f"F^{n}(x) lies inside the dominance ball p^-{k} "
                f"with strictly dominant E_(a,u) component "
                f"(exp {eu} < {min(es, ec)})",
                "dominance propagates exactly (ultrametric dominated "
                "sum, Lip(R) < expansion factor), so a^-m ||F^m(x)|| "
                "grows strictly inside the chart ball",
            )
    return None


def _linear_membership(f, a, x, horizon, precision):
    from .spectral import splitting_at
    p = f.prime
    s = splitting_at(linear_part(f), p, a, precision)
    ctx = infer_context([list(s.winv), list(x)], p, precision)
    coords = mat_vec(cmat(s.winv, ctx), cvec(x, ctx))
    ds, dc, du = s.dims()
    zness = [ctx.zeroness(coords[i]) for i in range(ds, ds + dc + du)]
    trace = tuple(e for _, e in orbit(f, x, min(horizon, 8)))
    if any(z not in (ZERO, NONZERO) for z in zness):
        return MembershipVerdict(
            UNDECIDED, trace,
            ("a centre/unstable coordinate of x is indistinguishable from "
             "zero at working precision",))
    bad = [ds + i for i, z in enumerate(zness) if z == NONZERO]
    if not bad:
        # certified: x lies in E_{a,s}; every eigenvalue there has |.| < a
        return MembershipVerdict(
            CERTIFIED_MEMBER, trace,
            ("x in E_{a,s} exactly (centre/unstable coordinates all zero)",
             "all stable eigenvalue absolute values < a, so a^-n ||A^n x|| -> 0"))
    kind = "centre" if bad[0] < ds + dc else "unstable"
    return MembershipVerdict(
        CERTIFIED_NON_MEMBER, trace,
        (f"x has a nonzero {kind} coordinate (index {bad[0]})",
         "that coordinate's norm is multiplied by exactly |lambda| >= a each "
         "step in the adapted norm, so a^-n ||A^n x|| does not tend to 0"))


def _try_graph_reduction(an, a, x, horizon):
    """If x lies on an's exactly invariant a-stable graph, reduce to the
    restricted map on the base coordinates."""
    from . import manifolds

    reduction = an.stable_graph(a)
    if reduction is None:
        return None
    gs, base_map, ctx = reduction
    base_x, comp_x = manifolds.split_point(gs, x)
    hval = manifolds.evaluate_graph(gs, base_x)
    if not all(ctx.zeroness(coerce(cv, ctx) - coerce(hv, ctx)) == ZERO
               for cv, hv in zip(comp_x, hval)):
        return None
    sub = stable_membership(base_map, a, base_x, horizon, an.precision)
    if sub.verdict != CERTIFIED_MEMBER:
        return None
    just = (
        "the a-stable graph h is an exactly invariant polynomial graph "
        "(untruncated invariance residual == 0)",
        "x lies on the graph exactly, so its orbit stays on it and "
        "||F^n(x)|| <= C ||base orbit|| near 0",
    ) + sub.justification
    return MembershipVerdict(CERTIFIED_MEMBER, sub.trace, just)


def stable_membership(f: PolyMap, a, x, horizon: int = 64,
                      precision: int = DEFAULT_PRECISION) -> MembershipVerdict:
    """Verdict on x in W_a^s = {z : a^-n ||F^n(z)|| -> 0} for the fixed
    point 0 (chart-local semantics: certificates reason inside certified
    balls around 0).

    Certificates, cheapest first: x = 0; a linear F by its splitting.  With
    every |lambda| < a, an orbit point inside a Contracting ball at a rate
    below a, or, for a > 1 when ||A|| = 1 refuses Contracting, inside an
    Invariant ball.  With every |lambda| > a, an orbit point that is 0 or
    lies inside the linearization ball.  In a hyperbolic gap, x's own
    dominant unstable component inside the dominance ball (no graph is
    built then), else x on the exactly invariant stable graph (the base
    map's verdict), else an orbit point that is 0 or has that dominance.
    Otherwise the orbit's trend gives a heuristic verdict."""
    p = f.prime
    a = Fraction(a)
    if a <= 0:
        raise PreconditionViolated("threshold must be positive")
    _check_point(f, x)
    _check_horizon(horizon)
    if _is_exact_zero_vec(x, p, precision):
        return MembershipVerdict(CERTIFIED_MEMBER, (INF,),
                                 ("x is the fixed point itself",))
    if f.is_linear():
        return _linear_membership(f, a, x, horizon, precision)

    an = _map_analysis(f, precision)
    analysis = an.linear
    spec = analysis.spectrum
    below = all(compare_threshold(a, v, p) == 1 for v, _ in spec)
    above = all(compare_threshold(a, v, p) == -1 for v, _ in spec)
    gap = not (below or above) and analysis.is_hyperbolic(a)
    at_x = None
    if gap:
        norm = analysis.norm()
        ru = max(v for v, _ in spec if compare_threshold(a, v, p) == -1)
        # cheapest first: x's own position, then the graph; a point on an
        # exactly invariant stable graph has no strictly dominant unstable
        # part inside the dominance ball, so the two exclude each other
        at_x = _dominant_unstable(an, norm, a, ru, 0, x)
        # a graph reduction answers with the base map's trace: x's orbit only after
        red = None if at_x else _try_graph_reduction(an, a, x, horizon)
        if red is not None:
            return red
    pts = [(e, list(z)) for z, e in an.orbit(tuple(x), horizon)]
    trace = tuple(e for e, _ in pts)

    if below:
        norm = analysis.norm()
        try:
            cert = an.ball(CONTRACTING, norm, rate_below=a)
        except PreconditionViolated:
            cert = None
        if cert is None and a > 1:
            # ||A|| = 1 refuses Contracting; above 1, an Invariant ball still
            # takes a^-m ||F^m(x)|| to 0
            try:
                cert = an.ball(INVARIANT, norm)
            except PreconditionViolated:
                pass
        if cert is not None:
            for n, (_, z) in enumerate(pts):
                if norm.norm_exp(z) >= cert.radius_exp:
                    if cert.mode == CONTRACTING:
                        just = (
                            f"F^{n}(x) lies in the ball p^-{cert.radius_exp} with a "
                            f"Contracting certificate at rate c = p^-{cert.contraction_exp} < a",
                            "hence a^-m ||F^m(x)|| <= (c/a)^m const -> 0",
                        )
                    else:
                        just = (
                            f"F^{n}(x) lies in the ball p^-{cert.radius_exp} with an "
                            "Invariant certificate (||F(z)|| <= ||z|| there)",
                            f"hence a^-m ||F^m(x)|| <= a^-m ||F^{n}(x)|| for m >= {n}, "
                            "which tends to 0 as a > 1",
                        )
                    return MembershipVerdict(CERTIFIED_MEMBER, trace, just)
    elif above:
        # ]0, a] misses the spectrum entirely: W_a^s is locally just {0}.
        # No eigenvalue is 0 here, so A is invertible; inside the
        # linearization ball ||F(z)|| >= p^einv ||z||
        norm = analysis.norm()
        einv, k = an.radius(norm)
        if compare_threshold(a, -einv, p) == -1:  # expansion certified above a
            for n, (_, z) in enumerate(pts):
                if _is_exact_zero_vec(z, p, precision):
                    return MembershipVerdict(
                        CERTIFIED_MEMBER, trace,
                        (f"F^{n}(x) = 0 exactly; the orbit is eventually the "
                         "fixed point",))
                if norm.norm_exp(z) >= k:
                    just = (
                        f"F^{n}(x) != 0 lies inside the linearization ball p^-{k}",
                        f"there ||F(z)|| >= p^{einv} ||z|| with p^{einv} > a "
                        "(every eigenvalue absolute value exceeds a)",
                        "so a^-m ||F^m(x)|| grows strictly until the orbit "
                        "leaves the chart ball and never returns to decay",
                    )
                    return MembershipVerdict(CERTIFIED_NON_MEMBER, trace, just)
    elif gap:
        for n, (_, z) in enumerate(pts):
            if _is_exact_zero_vec(z, p, precision):
                return MembershipVerdict(
                    CERTIFIED_MEMBER, trace,
                    (f"F^{n}(x) = 0 exactly",))
            just = at_x if n == 0 else _dominant_unstable(an, norm, a, ru, n, z)
            if just is not None:
                return MembershipVerdict(CERTIFIED_NON_MEMBER, trace, just)

    # heuristics: trend of a^-n ||F^n(x)|| as exponents e_n - n * v_a where
    # a-comparisons stay exact: use t_n = trace[n] and compare consecutive
    # a^-n p^-t_n ratios p^(t_{n+1} - t_n) vs a
    tail = [t for t in trace if t != INF]
    if len(tail) >= 4:
        cmps = [compare_threshold(a, trace[i + 1] - trace[i], p)
                for i in range(len(trace) - 1)
                if trace[i] != INF and trace[i + 1] != INF]
        window = cmps[-(len(cmps) // 2 or 1):]
        if all(c == 1 for c in window):
            return MembershipVerdict(
                HEURISTIC_MEMBER, trace,
                ("a^-n ||F^n(x)|| strictly decreasing over the last half of "
                 "the horizon (no certificate applies)",))
        if all(c == -1 for c in window):
            return MembershipVerdict(
                HEURISTIC_NON_MEMBER, trace,
                ("a^-n ||F^n(x)|| strictly increasing over the last half of "
                 "the horizon (no certificate applies)",))
    return MembershipVerdict(UNDECIDED, trace,
                             ("no certificate applies and the orbit trend is "
                              "not monotone over the horizon",))
