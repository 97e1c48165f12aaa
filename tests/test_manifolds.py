"""Invariant graphs over spectral subspaces and formal inverses."""

import random
from fractions import Fraction

import pytest

from ultradyn.dynamics import PolyMap, jacobian
from ultradyn.errors import JacobianSingular, PreconditionViolated, ResonanceDetected
from ultradyn.field import ZERO, PadicNumber, RationalContext
from ultradyn.manifolds import (
    CENTRE,
    CENTRE_STABLE,
    STABLE,
    GraphSeries,
    UNSTABLE,
    evaluate_graph,
    formal_inverse,
    graph_series,
    residual,
    split_point,
)
from ultradyn.polyalg import mat_inverse, mat_mul

from helpers import rand_poly_map

F = Fraction


def pmap(tables, p):
    return PolyMap.from_tables(tables, p, len(tables))


def bench(p=2):
    """F(x, y) = (2x, y/2 + x^2)."""
    return pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1)}], p)


# -- stable graph of the benchmark map ---------------------------------------


def test_graph_oracle_bench():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    assert gs.coefficients == (((2,), (F(2, 7),)),)  # h(x) = (2/7) x^2


def test_graph_residual_vanishes():
    gs = graph_series(bench(), F(1), STABLE, order=6)
    assert residual(bench(), gs) == [{}]
    assert residual(bench(), gs, truncate=False) == [{}]


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
    assert residual(f, gs, truncate=False) == [{}, {}]


# -- centre-stable, centre and unstable graphs with nonzero terms ------------


@pytest.mark.parametrize("p", [2, 3, 5])
def test_centre_stable_graph_oracle(p):
    """F(x, y, z) = (p x, y, z/p + x^2) at a = 1: the centre-stable graph
    over (x, y) is z = c x^2 with c p^2 = c/p + 1, so c = p/(p^3 - 1)."""
    f = pmap([{(1, 0, 0): F(p)}, {(0, 1, 0): F(1)}, {(0, 0, 1): F(1, p), (2, 0, 0): F(1)}], p)
    gs = graph_series(f, F(1), CENTRE_STABLE, order=5)
    assert gs.base_basis == ((1, 0, 0), (0, 1, 0)) and gs.complement_basis == ((0, 0, 1),)
    assert gs.coefficients == (((2, 0), (F(p, p**3 - 1),)),)
    assert residual(f, gs, truncate=False) == [{}]


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
    assert residual(f, gs, truncate=False) == [{}, {}]


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
