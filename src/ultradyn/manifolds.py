"""Truncated power-series graphs of local invariant manifolds (stable,
centre-stable, centre, unstable), each solved order by order for F itself
from the invariance equation h(F_base(x, h(x))) = F_comp(x, h(x)), plus
formal inversion, a tool no graph calls: F's inverse as a fixed point that
composes only the remainder F - F'(0) with it.

All series arithmetic reuses the monomial tables of the dynamics module, and
a linear map enters as one table per row (dynamics._linear_tables); the
graph is computed in splitting coordinates (base block first)."""

from __future__ import annotations

from fractions import Fraction
from math import inf as INF

from .errors import (
    JacobianSingular,
    PreconditionViolated,
    ResonanceDetected,
)
from .field import (
    CENTRE, CENTRE_STABLE, DEFAULT_PRECISION, STABLE, UNSTABLE, ZERO, RationalContext, _Record)
from .polyalg import (
    cmat, coerce, cvec, identity, infer_context, mat_inverse, mat_vec, solve)
from . import spectral
from .dynamics import (
    PolyMap,
    _check_length,
    _linear_tables,
    _map_analysis,
    _madd,
    _meval,
    _msubst,
    _zeval,
    _ztable,
    conjugate,
)


class GraphSeries(_Record):
    """h: base -> complement with h(0) = 0, Dh(0) = 0; the manifold is
    {W.(xi, h(xi))} in ambient coordinates.  _build keeps, outside repr, ==
    and hash, what graph_series held, which _on_graph reuses for that map."""

    prime: int
    a: Fraction
    mode: str
    base_basis: tuple  # ambient vectors spanning the graph domain
    complement_basis: tuple
    coefficients: tuple  # ((multi_index, complement_vector), ...) deg 2..order
    order: int
    w: tuple  # ambient basis matrix, columns = base then complement
    winv: tuple
    _build: object = None  # (f, conjugated tables, ctx) of graph_series

    def _ctx(self):
        return infer_context(
            [list(r) for r in self.winv] + [list(v) for _, v in self.coefficients],
            self.prime)

    def tables(self):
        """One monomial table per complement coordinate."""
        return [{m: vec[i] for m, vec in self.coefficients}
                for i in range(len(self.complement_basis))]


# --------------------------------------------------------------------------
# formal inverse
# --------------------------------------------------------------------------


def formal_inverse(f: PolyMap, order: int = 6) -> PolyMap:
    """G with G(F(x)) = x through total degree `order`, as a PolyMap of
    degree at most `order`: the fixed point of G <- A^-1 (x - R(G)), where
    A = F'(0) and R = F - A holds the terms of degree >= 2.  R has no term
    below degree 2, so step k, which composes only R with G truncated at
    degree k, leaves G exact through degree k.  A formal inverse is
    two-sided, so F(G(x)) = x as well."""
    n = f.nvars
    a = _map_analysis(f, DEFAULT_PRECISION).lin  # refuses a map that is not a self-map
    ctx = infer_context([a] + [[c for _, c in comp] for comp in f.components], f.prime)
    try:
        ainv = _linear_tables(mat_inverse(cmat(a, ctx), ctx), ctx)
    except PreconditionViolated as exc:
        raise JacobianSingular("derivative at 0 is singular") from exc
    minus_r = [{m: -coerce(c, ctx) for m, c in comp if sum(m) >= 2} for comp in f.components]
    g = ainv
    for k in range(2, order + 1):
        minus_rg = _msubst(minus_r, g, n, ctx, k)
        g = [_madd(dict(ai), t, ctx) for ai, t in zip(ainv, _msubst(ainv, minus_rg, n, ctx))]
    return PolyMap.from_tables(g, f.prime, n)


# --------------------------------------------------------------------------
# graph series
# --------------------------------------------------------------------------


def _mode_split(s: "spectral.Splitting", mode: str):
    """(base, complement) of the mode, as positions in s's stable, centre,
    unstable order."""
    ns, nc, nu = s.dims()
    st, ce, un = [*range(ns)], [*range(ns, ns + nc)], [*range(ns + nc, ns + nc + nu)]
    parts = {STABLE: (st, ce + un), CENTRE_STABLE: (st + ce, un),
             CENTRE: (ce, st + un), UNSTABLE: (un, st + ce)}
    if mode not in parts:
        raise PreconditionViolated(f"unknown mode {mode!r}")
    return parts[mode]


def _degree_monomials(nvars, k):
    """All multi-indices of total degree k, deterministic order."""
    if nvars == 1:
        return [(k,)]
    out = []
    for first in range(k, -1, -1):
        for rest in _degree_monomials(nvars - 1, k - first):
            out.append((first,) + rest)
    return out


def _solve_degree(ab, acc_mat, known, db, dc, k, ctx):
    """Solve h_k(A_b xi) - A_cc h_k(xi) = known for the degree-k coefficient
    tables of h; raises ResonanceDetected when the operator is singular."""
    monos = _degree_monomials(db, k)
    nm = len(monos)
    pos = {m: j for j, m in enumerate(monos)}
    shifted = _msubst([{m: ctx.one} for m in monos], _linear_tables(ab, ctx), db, ctx)
    # unknowns and equations indexed (complement coordinate i, monomial m)
    mat = [[ctx.zero] * (dc * nm) for _ in range(dc * nm)]
    for j, m in enumerate(monos):
        for i in range(dc):
            for mm, c in shifted[j].items():
                mat[i * nm + pos[mm]][i * nm + j] = c
            for ii in range(dc):
                if ctx.zeroness(acc_mat[ii][i]) != ZERO:
                    mat[ii * nm + j][i * nm + j] -= acc_mat[ii][i]
    rhs = [ctx.zero] * (dc * nm)
    for i in range(dc):
        for m, c in known[i].items():
            rhs[i * nm + pos[m]] = c
    try:
        x = solve(mat, [[b] for b in rhs], ctx)
    except PreconditionViolated as exc:
        raise ResonanceDetected(f"degree-{k} coefficient operator is singular") from exc
    tables = [{} for _ in range(dc)]
    for i in range(dc):
        for jm, m in enumerate(monos):
            c = x[i * nm + jm][0]
            if ctx.zeroness(c) != ZERO:
                tables[i][m] = c
    return tables


def _conjugated_split_map(f: PolyMap, s, mode: str, precision: int):
    """F in splitting coordinates with the mode's base block first.
    Returns (tables, db, dc, ctx, w, winv, lin), lin its linear part."""
    base, comp = _mode_split(s, mode)
    db, dc = len(base), len(comp)
    if db == 0:
        raise PreconditionViolated(f"{mode} base subspace is zero")
    vecs = [*s.stable, *s.centre, *s.unstable]
    d = f.nvars
    ctx = infer_context(
        [vecs] + [[c for _, c in cmp_] for cmp_ in f.components], f.prime, precision)
    w, winv = spectral._basis_change(vecs, s.winv, base + comp, ctx)
    tables = conjugate(f, winv, w, ctx)
    lin = [[t.get(tuple(int(q == j) for q in range(d)), ctx.zero) for j in range(d)]
           for t in tables]
    # off-diagonal linear blocks must vanish (aggregates are invariant)
    if any(ctx.zeroness(lin[i][j]) != ZERO
           for i in range(d) for j in range(d) if (i < db) != (j < db)):
        raise PreconditionViolated("splitting blocks are not invariant at working precision")
    return tables, db, dc, ctx, w, winv, lin


def graph_series(f: PolyMap, a, mode: str, order: int = 6,
                 precision: int = DEFAULT_PRECISION) -> GraphSeries:
    """Solve the invariance equation order by order for the mode's graph."""
    p = f.prime
    a = Fraction(a)
    if a <= 0:
        raise PreconditionViolated("threshold must be positive")
    analysis = _map_analysis(f, precision).linear  # refuses a map that is not a self-map
    if mode in (STABLE, UNSTABLE) and not analysis.is_hyperbolic(a):
        raise PreconditionViolated(f"{mode} graph needs a-hyperbolicity")
    if mode == UNSTABLE and a < 1:
        raise PreconditionViolated("Unstable mode requires a >= 1")
    # an eigenvalue 0 (root valuation INF)
    if mode in (CENTRE, UNSTABLE) and any(v == INF for v, _ in analysis.spectrum):
        raise JacobianSingular("derivative at 0 is singular")
    s = analysis.splitting(a)
    tables, db, dc, ctx, w, winv, lin = _conjugated_split_map(f, s, mode, precision)
    ab, acc = [r[:db] for r in lin[:db]], [r[db:] for r in lin[db:]]
    h = [{} for _ in range(dc)]  # tables over db variables
    for k in range(2, order + 1):
        fb_h, fc_h = _compose_with_graph(tables, h, db, k, ctx)
        lhs = _msubst(h, fb_h, db, ctx, k)
        known = []
        for i in range(dc):
            diff = _madd(fc_h[i], lhs[i], ctx, ctx.zero - ctx.one)
            known.append({m: c for m, c in diff.items() if sum(m) == k})
        hk = _solve_degree(ab, acc, known, db, dc, k, ctx)
        h = [_madd(h[i], hk[i], ctx) for i in range(dc)]
    coeffs = [(m, tuple(t.get(m, ctx.zero) for t in h)) for m in sorted({m for t in h for m in t})]
    vecs = [*s.stable, *s.centre, *s.unstable]
    return GraphSeries(
        p, a, mode, *(tuple(tuple(vecs[i]) for i in part) for part in _mode_split(s, mode)),
        tuple(coeffs), order,
        tuple(tuple(r) for r in w), tuple(tuple(r) for r in winv), (f, tables, ctx),
    )


def _compose_with_graph(tables, h, db, max_deg, ctx):
    """(F_base(xi, h(xi)), F_comp(xi, h(xi))) as tables over the db base
    variables, truncated at max_deg."""
    out = _msubst(tables, _linear_tables(identity(db, ctx), ctx) + list(h), db, ctx, max_deg)
    return out[:db], out[db:]


def _on_graph(f: PolyMap, gs: GraphSeries):
    """(tables, h, ctx): F conjugated into the graph's coordinates once (by
    graph_series, for the map it was built from), and the graph's tables h,
    both over ctx.  _compose_with_graph(tables, h, ...) composes them."""
    if gs._build is not None and gs._build[0] == f:
        _, tables, ctx = gs._build
    else:
        ctx = gs._ctx()
        tables = conjugate(f, cmat(gs.winv, ctx), cmat(gs.w, ctx), ctx)
    return tables, [{m: coerce(c, ctx) for m, c in t.items()} for t in gs.tables()], ctx


def _residual_of(fb, fc, h, ctx, max_deg=INF):
    """h(F_base(xi, h(xi))) - F_comp(xi, h(xi)) through total degree max_deg,
    from _compose_with_graph with a cap >= max_deg.  Its degree <= k part
    depends only on the terms of degree <= k: h has no term below degree 2
    and F_base(xi, h(xi)) has no constant term."""
    return [_madd(hfb, fci, ctx, ctx.zero - ctx.one)
            for hfb, fci in zip(_msubst(h, fb, len(fb), ctx, max_deg), fc)]


def _residual_at_point(gs: GraphSeries, tables):
    """The untruncated residual h(F_base(xi, h(xi))) - F_comp(xi, h(xi)) at
    the exact point xi = (1, ..., db), F given by its tables in the graph's
    coordinates: F through PolyMap evaluation, h through evaluate_graph.
    A value the ring certifies nonzero shows the residual polynomial is
    nonzero (J. T. Schwartz, J. ACM 27, 1980); a zero or an O-term shows
    nothing."""
    db = len(gs.base_basis)
    xi = [Fraction(i) for i in range(1, db + 1)]
    fx = PolyMap.from_tables(tables, gs.prime, len(tables))(xi + evaluate_graph(gs, xi))
    return [hv - fv for hv, fv in zip(evaluate_graph(gs, fx[:db]), fx[db:])]


def residual(f: PolyMap, gs: GraphSeries, truncate: bool = True):
    """h(F_base(xi, h(xi))) - F_comp(xi, h(xi)) as complement-coordinate
    tables; all-zero (through the order, if truncate) iff the graph is
    invariant."""
    tables, h, ctx = _on_graph(f, gs)
    cap = gs.order if truncate else INF
    return _residual_of(*_compose_with_graph(tables, h, len(gs.base_basis), cap, ctx), h, ctx, cap)


# --------------------------------------------------------------------------
# helpers used by membership certification
# --------------------------------------------------------------------------


def split_point(gs: GraphSeries, x):
    """(base coords, complement coords) of an ambient point."""
    _check_length(x, len(gs.winv), "ambient space {}")
    ctx = infer_context([list(r) for r in gs.winv] + [list(x)], gs.prime)
    y = mat_vec(cmat(gs.winv, ctx), cvec(x, ctx))
    db = len(gs.base_basis)
    return y[:db], y[db:]


def evaluate_graph(gs: GraphSeries, xi):
    """h(xi) in complement coordinates (over Q on integers, _zeval)."""
    _check_length(xi, len(gs.base_basis), "graph's base {}")
    ctx = gs._ctx()
    if isinstance(ctx, RationalContext) and isinstance(infer_context(list(xi), gs.prime),
                                                       RationalContext):
        return _zeval(_ztable(gs.tables()), xi)
    xi = cvec(xi, ctx)
    return [_meval({m: coerce(c, ctx) for m, c in t.items()}, xi, ctx)
            for t in gs.tables()]
