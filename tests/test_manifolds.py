"""Invariant graphs over spectral subspaces and formal inverses."""

import functools
import random
from fractions import Fraction
from math import inf as INF

import pytest

from ultradyn import dynamics, manifolds
from ultradyn.dynamics import PolyMap, jacobian, orbit
from ultradyn.errors import (JacobianSingular, PreconditionViolated, ResonanceDetected,
                             UltradynError)
from ultradyn.field import MODES, ZERO, PadicNumber, RationalContext
from ultradyn.manifolds import (
    CENTRE,
    CENTRE_STABLE,
    STABLE,
    GraphSeries,
    UNSTABLE,
    _compose_with_graph,
    _on_graph,
    _residual_at_point,
    _residual_of,
    evaluate_graph,
    formal_inverse,
    graph_series,
    residual,
    split_point,
)
from ultradyn.polyalg import mat_inverse, mat_mul, mat_vec

from helpers import rand_poly_map
from test_padic_maps_golden import padic_map

F = Fraction


def pmap(tables, p):
    return PolyMap.from_tables(tables, p, len(tables))


def bench(p=2):
    """F(x, y) = (2x, y/2 + x^2)."""
    return pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1)}], p)


def untruncated_residual(f, gs):
    """The residual of gs against f composed in full, with no cap on the
    degree (the one composition of a kept stable graph)."""
    tables, h, ctx = _on_graph(f, gs)
    fb, fc = _compose_with_graph(tables, h, len(gs.base_basis), INF, ctx)
    return _residual_of(fb, fc, h, ctx)


# -- stable graph of the benchmark map ---------------------------------------


def test_graph_oracle_bench():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    assert gs.coefficients == (((2,), (F(2, 7),)),)  # h(x) = (2/7) x^2


def test_graph_residual_vanishes():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    assert residual(bench(), gs) == [{}]
    assert untruncated_residual(bench(), gs) == [{}]


def _with_coefficients(gs, coefficients):
    """gs with its coefficients replaced, built by the GraphSeries constructor."""
    return GraphSeries(gs.prime, gs.a, gs.mode, gs.base_basis, gs.complement_basis,
                       coefficients, gs.order, gs.w, gs.winv)


def test_residual_of_zero_candidate():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    zero = _with_coefficients(gs, ())
    assert residual(bench(), zero) == [{(2,): F(-1)}]


def test_residual_detects_perturbation():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    bad = _with_coefficients(gs, (((2,), (F(2, 7) + 1,)),))
    # the defect scales by (lambda_b^2 - lambda_c) = 4 - 1/2
    assert residual(bench(), bad) == [{(2,): F(7, 2)}]


def test_unstable_graph_of_bench_is_flat():
    gs = graph_series(bench(), F(1), UNSTABLE, order=4)
    assert gs.coefficients == ()


def test_graph_evaluation_consistency():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    xi = [F(4)]
    assert evaluate_graph(gs, xi) == [F(32, 7)]
    base, comp = split_point(gs, [F(4), F(32, 7)])
    assert list(base) == [F(4)]


@pytest.mark.parametrize("call,message", [
    (lambda gs: evaluate_graph(gs, [F(1), F(5)]),
     r"^point has 2 coordinates, the graph's base 1$"),
    (lambda gs: split_point(gs, [F(1), F(2), F(3)]),
     r"^point has 3 coordinates, the ambient space 2$"),
    (lambda gs: split_point(gs, [F(1)]),
     r"^point has 1 coordinates, the ambient space 2$"),
])
def test_graph_points_of_the_wrong_length_are_refused(call, message):
    """A point is neither cut to the graph's dimension nor padded with 0;
    of the right length it keeps its answer."""
    gs = graph_series(bench(), F(1), STABLE, order=6)
    with pytest.raises(PreconditionViolated, match=message):
        call(gs)
    assert evaluate_graph(gs, [F(1)]) == [F(2, 7)]
    assert split_point(gs, [F(1), F(2)]) == ([F(1)], [F(2)])


def test_graph_requires_hyperbolicity():
    with pytest.raises(PreconditionViolated):
        graph_series(bench(), F(1, 2), STABLE, order=4)


def singular():
    """F(x, y) = (x + y^2, x^2): F'(0) = diag(1, 0), with a Centre part at a = 1."""
    return pmap([{(1, 0): F(1), (0, 2): F(1)}, {(2, 0): F(1)}], 2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: graph_series(bench(), 0, STABLE), PreconditionViolated,
     "threshold must be positive"),
    (lambda: graph_series(bench(), F(-1), CENTRE_STABLE), PreconditionViolated,
     "threshold must be positive"),
    (lambda: graph_series(bench(), F(1, 4), UNSTABLE), PreconditionViolated,
     "Unstable mode requires a >= 1"),
    (lambda: graph_series(bench(), F(1), CENTRE), PreconditionViolated,
     "Centre base subspace is zero"),
    (lambda: graph_series(singular(), F(1), CENTRE), JacobianSingular,
     "derivative at 0 is singular"),
    (lambda: graph_series(pmap([{(1, 0): F(1, 3)}, {(2, 0): F(1)}], 3), F(1), UNSTABLE),
     JacobianSingular, "derivative at 0 is singular"),
    (lambda: formal_inverse(singular()), JacobianSingular, "derivative at 0 is singular"),
], ids=["zero-threshold", "negative-threshold", "unstable-below-1", "empty-centre-base",
        "singular-centre", "singular-unstable", "singular-inverse"])
def test_graph_and_inverse_refusals(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert (type(e.value), str(e.value)) == (error, message)


def test_centre_graph_resonance_detected():
    f = pmap([{(1, 0): F(1, 2)}, {(0, 1): F(1, 4), (2, 0): F(1)}], 2)
    with pytest.raises(ResonanceDetected):
        graph_series(f, F(2), CENTRE, order=4)


def test_graph_oracle_two_complement_coordinates():
    """F = (2x, y/2 + 3x^2, z/4 + 5x^2): h(2x) = A_cc h(x) + (3, 5) x^2 per
    coordinate, so h = (4*5/15 x^2, 2*3/7 x^2) over the complement (e_z, e_y)."""
    f = pmap([{(1, 0, 0): F(2)},
              {(0, 1, 0): F(1, 2), (2, 0, 0): F(3)},
              {(0, 0, 1): F(1, 4), (2, 0, 0): F(5)}], 2)
    gs = graph_series(f, F(1), STABLE, order=6)
    assert gs.complement_basis == ((0, 0, 1), (0, 1, 0))
    assert gs.coefficients == (((2,), (F(4, 3), F(6, 7))),)
    assert untruncated_residual(f, gs) == [{}, {}]


# -- centre-stable, centre and unstable graphs with nonzero terms ------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centre_stable_graph_oracle(p):
    """F(x, y, z) = (p x, y, z/p + x^2) at a = 1: the centre-stable graph
    over (x, y) is z = c x^2 with c p^2 = c/p + 1, so c = p/(p^3 - 1)."""
    f = pmap([{(1, 0, 0): F(p)}, {(0, 1, 0): F(1)}, {(0, 0, 1): F(1, p), (2, 0, 0): F(1)}], p)
    gs = graph_series(f, F(1), CENTRE_STABLE, order=5)
    assert gs.base_basis == ((1, 0, 0), (0, 1, 0)) and gs.complement_basis == ((0, 0, 1),)
    assert gs.coefficients == (((2, 0), (F(p, p**3 - 1),)),)
    assert untruncated_residual(f, gs) == [{}]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centre_graph_oracle(p):
    """F = (p x + y^2, y, z/p + y^2) at a = 1: the centre graph over y is
    (x, z) = (c y^2, c' y^2) with c = p c + 1 and c' = c'/p + 1, so
    c = 1/(1 - p) and c' = p/(p - 1)."""
    f = pmap([{(1, 0, 0): F(p), (0, 2, 0): F(1)}, {(0, 1, 0): F(1)},
              {(0, 0, 1): F(1, p), (0, 2, 0): F(1)}], p)
    gs = graph_series(f, F(1), CENTRE, order=5)
    assert gs.base_basis == ((0, 1, 0),) and gs.complement_basis == ((1, 0, 0), (0, 0, 1))
    assert gs.coefficients == (((2,), (F(1, 1 - p), F(p, p - 1))),)
    assert untruncated_residual(f, gs) == [{}, {}]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_unstable_graph_residual(p):
    """F = (p x + y^2, y/p) at a = 1: the unstable graph over y is x = c y^2
    with c/p^2 = p c + 1, so c = p^2/(1 - p^3).  Its residual against F
    vanishes; for the graph x = y^2 it is h(y/p) - (p y^2 + y^2)
    = (1 - p^2 - p^3)/p^2 y^2."""
    f = pmap([{(1, 0): F(p), (0, 2): F(1)}, {(0, 1): F(1, p)}], p)
    gs = graph_series(f, F(1), UNSTABLE, order=5)
    assert gs.base_basis == ((0, 1),) and gs.complement_basis == ((1, 0),)
    assert gs.coefficients == (((2,), (F(p * p, 1 - p**3),)),)
    assert residual(f, gs) == [{}]
    bad = _with_coefficients(gs, (((2,), (F(1),)),))
    assert residual(f, bad) == [{(2,): F(1 - p**2 - p**3, p**2)}]


def test_graph_evaluation_over_qp():
    """At a point of PadicNumbers the graph is evaluated in the ring, and
    agrees with the rational evaluation to the point's precision."""
    cases = [(graph_series(bench(), F(1), STABLE, order=6), 2, [F(3, 2)])]
    for p in (3, 5):
        f = pmap([{(1, 0, 0): F(p), (0, 2, 0): F(1)}, {(0, 1, 0): F(1)},
                  {(0, 0, 1): F(1, p), (0, 2, 0): F(1)}], p)
        cases.append((graph_series(f, F(1), CENTRE, order=4), p, [F(7, p)]))
    for gs, p, xi in cases:
        want = evaluate_graph(gs, xi)
        got = evaluate_graph(gs, [PadicNumber.from_rational(x, p, 40) for x in xi])
        assert len(got) == len(want) and all(isinstance(g, PadicNumber) for g in got)
        assert all((g - w).val >= 30 for g, w in zip(got, want)), (got, want)


def test_graph_residual_vanishes_random():
    rng = random.Random(17)
    for p in (2, 3):
        for _ in range(4):
            f = rand_poly_map(rng, p, 2, 2, require_mixed=True)
            gs = graph_series(f, F(1), STABLE, order=4)
            for table in residual(f, gs):
                assert all(sum(m) > 4 for m in table), (f.tables(), table)


# -- one kept h per graph, read through one evaluator ------------------------


def _foreign(gs):
    """gs with no build kept: every read takes the path of a foreign map."""
    return GraphSeries(*(getattr(gs, name) for name in GraphSeries._shown))


@functools.lru_cache(maxsize=1)
def _kept_graph_family():
    """(f, its stable graph at a = 1 of order 6) for seeded rand_poly_map gap
    maps, p in {2, 3, 5} and d = 2, 3: six over Q, and every 64-digit Q_p
    copy (_padic_copy) among 300 draws whose graph builds (most are refused
    as "splitting blocks are not invariant at working precision"); and to
    the Q_p ones, the graphs of order 4 in every mode that builds of the
    p-adic-maps golden's maps with p = 2, d = 3, degree 2 and a rational
    linear part, whose Centre graph orders its residual's terms as h's."""
    rng, rational, padic = random.Random(5), [], []
    for i in range(300):
        f = rand_poly_map(rng, (2, 3, 5)[i % 3], 2 + i % 2, 2, require_mixed=True)
        if i < 6:
            rational.append((f, graph_series(f, F(1), STABLE, 6)))
        try:
            padic.append((_padic_copy(f), graph_series(_padic_copy(f), F(1), STABLE, 6)))
        except PreconditionViolated:
            pass
    for seed in (1, 3):
        f = padic_map(2, 3, 2, seed)[0]
        for mode in MODES:
            try:
                padic.append((f, graph_series(f, F(1), mode, 4)))
            except UltradynError:
                pass
    return rational, padic


def test_kept_graph_reads_as_a_foreign_one(monkeypatch):
    """The h that graph_series keeps, in the order of tables(), and the graph
    read back from its coefficients give the same evaluate_graph,
    _residual_at_point, residual and stable_membership, as repr, over Q and
    over Q_p, on graphs with terms and on flat ones; a flat Q_p graph reads
    as exact rational zeros."""
    rational, padic = _kept_graph_family()
    flat = [(f, gs) for f, gs in padic if not gs.coefficients]
    assert {gs.prime for _, gs in padic} == {2, 3, 5} and 2 <= len(flat) < len(padic)
    assert {len(gs.w) for _, gs in padic} == {2, 3}
    unpatched = manifolds.graph_series
    for f, gs in rational + padic:
        twin = _foreign(gs)
        assert twin == gs and twin._build is None and gs._build[0] == f
        p, db = gs.prime, len(gs.base_basis)
        xi = [F(i + 2, 3) for i in range(db)]
        for x in (xi, [PadicNumber.from_rational(c, p, 100) for c in xi]):
            assert repr(evaluate_graph(gs, x)) == repr(evaluate_graph(twin, x))
        assert repr(_residual_at_point(gs, _on_graph(f, gs)[0])) == repr(
            _residual_at_point(twin, _on_graph(f, twin)[0]))
        assert repr(residual(f, gs)) == repr(residual(f, twin))
        if gs.mode != STABLE:
            continue
        on = mat_vec(gs.w, [p * c for c in xi] + evaluate_graph(gs, [p * c for c in xi]))
        off = xi + [F(1)] * (len(on) - db)
        verdicts = []
        for build in (unpatched, lambda *a, **k: _foreign(unpatched(*a, **k))):
            monkeypatch.setattr(manifolds, "graph_series", build)
            dynamics._map_analysis.cache_clear()
            verdicts.append([(repr(v), v._reasons) for v in (
                dynamics.stable_membership(f, F(1), x, 16) for x in (on, off))])
        assert verdicts[0] == verdicts[1], (f.tables(), verdicts)
    dynamics._map_analysis.cache_clear()  # no analysis keeps a foreign graph
    for _, gs in flat:
        assert evaluate_graph(gs, [F(1)] * len(gs.base_basis)) == [F(0)] * len(gs.complement_basis)


def test_membership_builds_the_kept_graphs_polymap_once(monkeypatch):
    """Two points on one kept graph: the point read of the residual and
    both points read h, and its PolyMap is built once."""
    builds = []
    orig = GraphSeries._h.func

    def counted(gs):
        builds.append(gs)
        return orig(gs)

    h = functools.cached_property(counted)
    h.__set_name__(GraphSeries, "_h")
    monkeypatch.setattr(GraphSeries, "_h", h)
    dynamics._map_analysis.cache_clear()
    for x in ([F(1), F(2, 7)], [F(4), F(32, 7)]):
        v = dynamics.stable_membership(bench(), F(1), x)
        assert v.verdict == dynamics.CERTIFIED_MEMBER
        assert v.justification[0].endswith("(untruncated invariance residual == 0)")
    assert len(builds) == 1 and builds[0].coefficients == (((2,), (F(2, 7),)),)


def test_rational_maps_keep_the_digits_of_a_padic_point():
    """A rational map, its Jacobian and its stable graph at 100-digit
    p-adic points: the map and its orbit keep every digit of the point (64
    digits of the working precision before the map kept its coefficients
    exact), and the Jacobian and the graph read as they did."""
    f = bench()
    x = [PadicNumber.from_rational(F(3, 7), 2, 100), PadicNumber.from_rational(5, 2, 100)]
    assert repr(f(x)) == "[5*2^1+O(2^101), 7*2^-1+O(2^99)]"
    assert repr(jacobian(f, x)) == (
        "[[Fraction(2, 1), Fraction(0, 1)], [5*2^1+O(2^101), Fraction(1, 2)]]")
    gs = graph_series(f, F(1), STABLE, order=6)
    assert repr(evaluate_graph(gs, [PadicNumber.from_rational(3, 2, 100)])) == "[15*2^1+O(2^101)]"
    g = pmap([{(1, 0): F(5), (0, 2): F(1, 3)}, {(0, 1): F(1, 5), (1, 1): F(2)}], 5)
    y = [PadicNumber.from_rational(F(2, 3), 5, 100), PadicNumber.from_rational(7, 5, 100)]
    assert [v.prec for v in g(y)] == [100, 100]
    assert [v.prec for z, _ in orbit(g, y, 3) for v in z] == [100] * 8
    assert repr(jacobian(g, y)) == (
        "[[Fraction(5, 1), 213*5^0+O(5^100)], [14*5^0+O(5^100), 216*5^-1+O(5^99)]]")


# -- formal inverses ---------------------------------------------------------


def test_formal_inverse_oracle_1d():
    # y = 2x + x^2 has inverse x = -1 + sqrt(1 + y) = sum_k binom(1/2, k) y^k
    f = pmap([{(1,): F(2), (2,): F(1)}], 2)
    binom = [F(1)]
    for k in range(1, 9):
        binom.append(binom[-1] * (F(1, 2) - k + 1) / k)
    for order in (3, 8):
        inv = formal_inverse(f, order=order)
        assert inv.tables() == [{(k,): binom[k] for k in range(1, order + 1)}]


def test_formal_inverse_oracle_bench():
    inv = formal_inverse(bench(), order=2)
    assert inv.tables() == \
        [{(1, 0): F(1, 2)}, {(0, 1): F(2), (2, 0): F(-1, 2)}]


def test_formal_inverse_composes_to_identity():
    """G(F(x)) and F(G(x)) are both x through the order."""
    from ultradyn.dynamics import _msubst  # noqa: test-only import
    rng = random.Random(29)
    for d, deg, order in ((2, 2, 4), (3, 3, 5)):
        for p in (2, 3):
            for _ in range(4):
                f = rand_poly_map(rng, p, d, deg)
                g = formal_inverse(f, order=order)
                ctx = f.coeff_context()
                for outer, inner in ((g, f), (f, g)):
                    for i, t in enumerate(outer.tables()):
                        comp, = _msubst([t], inner.tables(), d, ctx, order)
                        e = tuple(int(j == i) for j in range(d))
                        assert comp == {e: F(1)}, (f.tables(), i, comp)


def _graph_in_coordinates_of(gs, ref):
    """ref's graph as tables over gs's base coordinates.  The two graphs
    share their base and complement subspaces, so B = gs.winv ref.w is
    block diagonal, and W_ref (eta, h_ref(eta)) = W_gs (xi, h(xi)) gives
    h(xi) = B_c h_ref(B_b^-1 xi)."""
    from ultradyn.dynamics import _linear_tables, _msubst  # noqa: test-only import
    db, ctx = len(gs.base_basis), RationalContext(gs.prime)
    b = mat_mul(gs.winv, ref.w)
    assert all(b[i][j] == 0 for i in range(len(b)) for j in range(len(b)) if (i < db) != (j < db))
    bb_inv = mat_inverse([r[:db] for r in b[:db]], ctx)
    h = _msubst(ref.tables(), _linear_tables(bb_inv, ctx), db, ctx)
    return _msubst(_linear_tables([r[db:] for r in b[db:]], ctx), h, db, ctx)


def _padic_copy(f):
    """f with every coefficient of degree >= 2 a 64-digit PadicNumber."""
    p = f.prime
    return pmap([{m: PadicNumber.from_rational(c, p, 64) if sum(m) > 1 else c
                  for m, c in t.items()} for t in f.tables()], p)


def test_unstable_graph_matches_stable_graph_of_inverse():
    """W^u of F is W^s of F^-1: the Unstable graph that graph_series solves
    for F itself equals, through the order, the Stable graph at 1/a of the
    reference formal_inverse(F, order).  Exactly over Q, on seeded maps with
    an a >= 1 gap and both blocks nonempty; over Q_p, on copies of the maps
    with 64-digit terms of degree >= 2 where the graph builds, every
    coefficient differs from the rational reference by a ring zero.  (On
    this family a PadicNumber linear part, as in a full copy or in the
    inverse of a copy, has its slope factorization refused, so neither
    builds a graph.)  Each graph's residual against F vanishes through the
    order."""
    f = pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2), (0, 2): F(1)}], 2)
    cases = [(f, F(1), 4)]
    rng = random.Random(41)
    for p in (2, 3, 5):
        for d in (2, 3):
            for _ in range(10):
                a = rng.choice([F(1), F(p)])  # valuation -2 is the only unstable one at a = p
                vals = (-2, -1, 1, 2) if a == 1 else (-2, 1, 2)
                cases.append((rand_poly_map(rng, p, d, 3, valuations=vals, require_mixed=True),
                              a, rng.choice([4, 5])))
    padic_built = 0
    for f, a, order in cases:
        gu = graph_series(f, a, UNSTABLE, order)
        want = _graph_in_coordinates_of(gu, graph_series(formal_inverse(f, order), 1 / a,
                                                         STABLE, order))
        assert gu.tables() == want, (f.tables(), a)
        assert residual(f, gu) == [{}] * len(want)
        fp = _padic_copy(f)
        try:
            pu = graph_series(fp, a, UNSTABLE, order)
        except PreconditionViolated:
            continue  # most copies refuse: "splitting blocks are not invariant"
        padic_built += 1
        ctx = pu._ctx()
        assert (pu.base_basis, pu.complement_basis) == (gu.base_basis, gu.complement_basis)
        for got, ref in zip(pu.tables(), want):
            assert all(ctx.zeroness(got.get(m, ctx.zero) - ref.get(m, ctx.zero)) == ZERO
                       for m in {*got, *ref}), (f.tables(), a, got, ref)
        assert residual(fp, pu) == [{}] * len(want)
    assert padic_built >= 2
