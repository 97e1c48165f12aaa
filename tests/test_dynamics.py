"""Polynomial dynamics: fixed points, Lipschitz data, certified balls,
orbits, stable-set membership."""

import random
import re
from collections import Counter
from fractions import Fraction
from math import ceil, inf as INF

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultradyn import dynamics, manifolds, spectral
from ultradyn.dynamics import (
    CERTIFIED_MEMBER,
    CERTIFIED_NON_MEMBER,
    CONTRACTING,
    HAS_EXPANSION,
    ISOMETRIC,
    PolyMap,
    STABLY_NEUTRAL,
    UNDECIDED,
    UNIFORMLY_ATTRACTIVE,
    classify_fixed_point,
    invariant_ball,
    jacobian,
    linear_part,
    linearization_radius,
    orbit,
    remainder_lipschitz,
    shift_to_fixed_point,
    stable_membership,
    standard_norm_exp,
)
from ultradyn.dynamics import _mpow, _msubst  # noqa: the series kernel under test
from ultradyn.dynamics import ORBIT_BIT_CAP, _orbit, _rat_bits  # noqa: the orbit cut
from ultradyn.errors import (JacobianSingular, NotAFixedPoint, PreconditionViolated,
                             ResonanceDetected)
from ultradyn.field import (DEFAULT_PRECISION, ZERO, PadicContext, PadicNumber, RationalContext,
                           valuation_of_rational)
from ultradyn.spectral import adapted_norm

from helpers import rand_conjugated, rand_poly_map, rand_unit
from reference import reference_call, reference_lipschitz, reference_msubst, reference_orbit

F = Fraction


def pmap(tables, p):
    return PolyMap.from_tables(tables, p, len(tables))


def bench(p=2):
    """F(x, y) = (2x, y/2 + x^2)."""
    return pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1)}], p)


# -- fixed-point shift and jacobian -----------------------------------------


def test_shift_oracle():
    f = pmap([{(2,): F(1)}], 2)  # x^2 fixes 1
    g = shift_to_fixed_point(f, [F(1)])
    assert g.tables() == [{(1,): F(2), (2,): F(1)}]


def test_shift_rejects_non_fixed_point():
    f = pmap([{(2,): F(1)}], 2)
    with pytest.raises(NotAFixedPoint):
        shift_to_fixed_point(f, [F(3)])


def test_shift_to_origin_is_the_map_itself():
    """At pt = 0 the shift returns F itself, after the same fixed-point
    check and with the same message when F(0) != 0."""
    f = bench()
    assert shift_to_fixed_point(f, [0, F(0)]) is f
    with pytest.raises(NotAFixedPoint) as exc:
        shift_to_fixed_point(pmap([{(1,): F(2), (0,): F(3, 2)}], 2), [F(0)])
    assert str(exc.value) == "F([0]) = [3/2] != [0]"
    with pytest.raises(NotAFixedPoint) as exc:
        shift_to_fixed_point(pmap([{(2,): F(1)}], 2), [F(3)])
    assert str(exc.value) == "F([3]) = [9] != [3]"


def test_jacobian_oracle():
    assert jacobian(bench()) == [[F(2), F(0)], [F(0), F(1, 2)]]


def test_jacobian_at_point():
    f = pmap([{(2,): F(1)}], 2)
    assert jacobian(f, [F(3)]) == [[F(6)]]


def test_jacobian_refuses_a_point_of_the_wrong_length():
    """A point with fewer or more coordinates than the map has variables is
    refused, as orbit and stable_membership refuse it, not indexed past its
    end or cut short."""
    f = pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1), (0, 2): F(3)}], 2)
    assert jacobian(f, [1, 1]) == [[F(2), F(0)], [F(2), F(13, 2)]]
    for pt in ([1], [1, 1, 1]):
        with pytest.raises(PreconditionViolated, match="coordinates"):
            jacobian(f, pt)


def test_a_map_that_is_not_a_self_map_is_refused():
    """(2x, y/2, xy): K^2 -> K^3 over Q_2 evaluates and has a Jacobian, but
    every function that iterates it or reads F'(0) as an endomorphism
    refuses it, rather than failing inside or reading a part of it."""
    f = PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(1, 2)}, {(1, 1): F(1)}], 2, 2)
    assert f([1, 1]) == [F(2), F(1, 2), F(1)]
    assert jacobian(f) == [[F(2), F(0)], [F(0), F(1, 2)], [F(0), F(0)]]
    for call in (lambda: orbit(f, [1, 1], 3), lambda: classify_fixed_point(f),
                 lambda: stable_membership(f, 1, [1, 1]),
                 lambda: manifolds.graph_series(f, 1, manifolds.STABLE),
                 lambda: manifolds.formal_inverse(f, 3)):
        with pytest.raises(PreconditionViolated) as exc:
            call()
        assert str(exc.value) == "map K^2 -> K^3 is not a self-map"


def test_a_map_to_fewer_coordinates_is_refused_as_not_a_self_map():
    """(2x, y/2 + z): K^3 -> K^2 over Q_2 is refused by name by every
    function that takes the map's interned analysis, and by
    shift_to_fixed_point at a point other than 0, rather than as a
    singular derivative (the inverse of the non-square F'(0)), as a query
    of the wrong size for a 3-dimensional adapted norm, or as a point that
    is not fixed."""
    f = PolyMap.from_tables([{(1, 0, 0): F(2)}, {(0, 1, 0): F(1, 2), (0, 0, 1): F(1)}], 2, 3)
    norm = adapted_norm([[F(2), 0, 0], [0, F(1, 2), 0], [0, 0, F(1)]], 2)
    calls = [lambda: linearization_radius(f, norm), lambda: remainder_lipschitz(f, 1, norm),
             lambda: classify_fixed_point(f, [1, 0, 0]), lambda: shift_to_fixed_point(f, [1, 0, 0]),
             lambda: classify_fixed_point(f), lambda: stable_membership(f, 1, [1, 1, 1])]
    calls += [lambda mode=mode: invariant_ball(f, mode, norm)
              for mode in (dynamics.INVARIANT, ISOMETRIC, CONTRACTING)]
    for call in calls:
        with pytest.raises(PreconditionViolated) as exc:
            call()
        assert str(exc.value) == "map K^3 -> K^2 is not a self-map"


@pytest.mark.parametrize("c", [0.5, "1/2"], ids=["float", "str"])
def test_from_tables_refuses_a_coefficient_of_another_type(c):
    """A coefficient must be an int, a Fraction or a PadicNumber: a float
    or a string is refused when the map is built, not when it is first
    evaluated."""
    with pytest.raises(PreconditionViolated, match="^bad coefficient"):
        PolyMap.from_tables([{(1,): c, (2,): F(1)}], 2)


# -- Lipschitz data of the remainder ----------------------------------------


def test_remainder_lipschitz_oracle_bench():
    f = bench()
    n = adapted_norm(jacobian(f), 2)
    # on the ball of radius 1/2 the quadratic term contracts by 1/2
    assert remainder_lipschitz(f, F(1), n) == F(1)


def test_remainder_lipschitz_oracle_cubic():
    f = pmap([{(1,): F(1), (3,): F(1)}], 2)
    n = adapted_norm(jacobian(f), 2)
    assert remainder_lipschitz(f, F(1), n) == F(2)  # Lip 1/4 at radius 1/2


def test_remainder_lipschitz_linear_map_is_infinite():
    f = pmap([{(1,): F(2)}], 2)
    n = adapted_norm(jacobian(f), 2)
    assert remainder_lipschitz(f, F(1), n) == INF


def test_linearization_radius_oracle_bench():
    f = bench()
    n = adapted_norm(jacobian(f), 2)
    assert linearization_radius(f, n) == F(2)  # radius 1/4


def test_linearization_radius_oracle_p3():
    f = pmap([{(1,): F(1), (2,): F(1)}], 3)
    n = adapted_norm(jacobian(f), 3)
    assert linearization_radius(f, n) == F(1)  # radius 1/3


def tiny_remainder(j=100):
    """f(x) = 2x + 2^-j x^2 over Q_2: its radii lie beyond exponent 64."""
    return pmap([{(1,): F(2), (2,): F(1, 2**j)}], 2)


def test_linearization_radius_beyond_exponent_64():
    f = tiny_remainder()
    n = adapted_norm(jacobian(f), 2)
    assert linearization_radius(f, n) == 102  # Lip(R | p^-k) = 2^(k-100) < 1/2


# -- classifier and ball certificates ---------------------------------------


def test_classify_attractive():
    f = pmap([{(1,): F(2), (2,): F(1)}], 2)
    r = classify_fixed_point(f)
    assert r.label == UNIFORMLY_ATTRACTIVE
    assert r.certificate is not None
    assert r.certificate.mode == CONTRACTING
    assert r.certificate.radius_exp == 1          # ball radius 1/2
    assert r.certificate.contraction_exp == F(1)  # rate 1/2


def test_classify_neutral():
    f = pmap([{(1,): F(1), (2,): F(1)}], 3)
    r = classify_fixed_point(f)
    assert r.label == STABLY_NEUTRAL
    assert r.certificate is not None
    assert r.certificate.mode == ISOMETRIC
    assert r.certificate.radius_exp == 1          # ball radius 1/3


def test_classify_bench_has_expansion():
    r = classify_fixed_point(bench())
    assert r.label == HAS_EXPANSION


def test_classify_degenerate_jacobian():
    f = pmap([{(2,): F(1)}], 2)
    r = classify_fixed_point(f)
    assert r.degenerate is True
    assert (INF, 1) in r.spectrum


def test_classify_away_from_origin():
    f = pmap([{(2,): F(1)}], 2)  # fixed point 1, multiplier 2
    r = classify_fixed_point(f, [F(1)])
    assert r.label == UNIFORMLY_ATTRACTIVE


def test_invariant_ball_isometric_cubic():
    f = pmap([{(1,): F(1), (3,): F(1)}], 2)
    n = adapted_norm(jacobian(f), 2)
    c = invariant_ball(f, ISOMETRIC, n)
    assert c.radius_exp == 1  # radius 1/2


def test_invariant_ball_contraction_verified_pointwise():
    rng = random.Random(9)
    f = pmap([{(1,): F(2), (2,): F(1)}], 2)
    n = adapted_norm(jacobian(f), 2)
    c = invariant_ball(f, CONTRACTING, n)
    for _ in range(50):
        x = [rand_unit(rng, 2) * F(2) ** rng.randint(c.radius_exp, c.radius_exp + 4)]
        assert n.norm_exp(f(x)) >= n.norm_exp(x) + c.contraction_exp


def contracting_1d():
    """F(x) = 2x + x^2 over Q_2: ||A|| = 1/2."""
    return pmap([{(1,): F(2), (2,): F(1)}], 2)


def singular():
    """F(x, y) = (x + y^2, x^2) over Q_2: F'(0) = diag(1, 0)."""
    return pmap([{(1, 0): F(1), (0, 2): F(1)}, {(2, 0): F(1)}], 2)


@pytest.mark.parametrize("call,error,message", [
    (lambda: invariant_ball(contracting_1d(), CONTRACTING, adapted_norm([[F(2)]], 2),
                            rate_below=F(1, 2)),
     PreconditionViolated, "||A|| not below rate 1/2"),
    (lambda: invariant_ball(contracting_1d(), "Expanding", adapted_norm([[F(2)]], 2)),
     PreconditionViolated, "unknown mode 'Expanding'"),
    (lambda: linearization_radius(singular(), adapted_norm(linear_part(singular()), 2)),
     JacobianSingular, "derivative at 0 is singular"),
    (lambda: stable_membership(bench(), 0, [F(1), F(0)]),
     PreconditionViolated, "threshold must be positive"),
    (lambda: stable_membership(bench(), F(-1, 2), [F(1), F(0)]),
     PreconditionViolated, "threshold must be positive"),
], ids=["rate-not-above-norm", "unknown-mode", "singular-radius", "zero-threshold",
        "negative-threshold"])
def test_ball_radius_and_membership_refusals(call, error, message):
    with pytest.raises(error) as e:
        call()
    assert (type(e.value), str(e.value)) == (error, message)


# -- orbits ------------------------------------------------------------------


def test_orbit_oracle():
    pts = orbit(bench(), [F(1), F(2, 7)], 2)
    assert [list(z) for z, _ in pts] == \
        [[F(1), F(2, 7)], [F(2), F(8, 7)], [F(4), F(32, 7)]]
    assert [e for _, e in pts] == [F(0), F(1), F(2)]


def test_orbit_refuses_a_negative_step_count():
    with pytest.raises(PreconditionViolated, match=r"^horizon must be >= 0, got -3$"):
        orbit(bench(), [F(1), F(2, 7)], -3)


def test_standard_norm_exp_reads_rational_valuations():
    """Over Q the sup-norm exponent is min v_p(num) - v_p(den) over the
    nonzero coordinates, a Fraction as valuation_of_rational gives it (INF
    for the zero vector), for Fraction and int coordinates alike; a
    PadicNumber coordinate keeps the ring path with the same value."""
    rng = random.Random(9)
    for p in (2, 3, 5):
        for _ in range(40):
            x = [F(rng.randint(-60, 60), rng.choice((1, p, p**3, 7, 9 * p))) * p**rng.randint(0, 3)
                 for _ in range(rng.randint(0, 4))]
            vals = [valuation_of_rational(c, p) for c in x if c]
            want = min(vals) if vals else INF
            got = standard_norm_exp(x, p)
            assert got == want and (got == INF or type(got) is F), (x, p)
            assert standard_norm_exp([int(c) if c.denominator == 1 else c for c in x], p) == want
            if x:
                padic = [PadicNumber.from_rational(x[0], p, 30)] + x[1:]
                assert standard_norm_exp(padic, p) == want, (x, p)


def test_standard_norm_exp_refuses_a_padic_number_of_another_prime():
    with pytest.raises(PreconditionViolated, match="prime mismatch"):
        standard_norm_exp([PadicNumber.from_rational(25, 5)], 3)
    with pytest.raises(PreconditionViolated, match="prime mismatch"):
        standard_norm_exp([PadicNumber.from_rational(1, 3), PadicNumber.from_rational(25, 5)], 3)


def test_rat_bits_counts_integer_bits():
    """An int counts its own bits, so an orbit from a large integer point
    is cut after that point, as the equal Fraction point is; a small
    Fraction point runs the whole horizon."""
    big = 10**3000
    assert _rat_bits(big) == big.bit_length() > ORBIT_BIT_CAP
    assert _rat_bits(F(-3, 4)) == 2 + 3
    f = bench()
    assert len(_orbit(f, [big, 0], 5, ORBIT_BIT_CAP)[0]) == 1
    assert len(_orbit(f, [F(big), F(0)], 5, ORBIT_BIT_CAP)[0]) == 1
    assert len(_orbit(f, [F(1, 2), 3], 5, ORBIT_BIT_CAP)[0]) == 6


_COORD = st.one_of(st.just(0), st.just(F(0)), st.integers(-40, 40),
                   st.fractions(min_value=-40, max_value=40, max_denominator=60))
NEAR_CAP = F(3 ** 5000 + 1, 1024)  # 7937 bits: under ORBIT_BIT_CAP, its square over it


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), p=st.sampled_from((2, 3, 5)), d=st.integers(1, 3),
       deg=st.integers(1, 3), n=st.integers(0, 8), data=st.data())
@example(seed=7, p=2, d=1, deg=2, n=3, data=None)
def test_rational_orbit_matches_stepping_the_map(seed, p, d, deg, n, data):
    """The orbit over Q, one integer vector over a common denominator per
    point, has the exponents, the cut and, read back, the points of the
    plain orbit that steps PolyMap.__call__ and reads standard_norm_exp,
    under ORBIT_BIT_CAP and uncapped: points mixing ints, Fractions and
    zeros, and the point NEAR_CAP, whose orbit is cut after its first step
    under the cap when the map squares it."""
    f = rand_poly_map(random.Random(seed), p, d, deg)
    x = [NEAR_CAP] if data is None else data.draw(st.lists(_COORD, min_size=d, max_size=d))
    for cap in (ORBIT_BIT_CAP, INF):
        want = reference_orbit(f, x, n, cap)
        exps, point = _orbit(f, x, n, cap)
        assert exps == tuple(e for _, e in want), (f, x, cap)
        assert [[(type(c), c) for c in point(i)] for i in range(len(exps))] == \
            [[(type(c), c) for c in z] for z, _ in want]
        if data is None:  # the map's x^2 term squares NEAR_CAP: cut after F(x) under the cap
            assert (2,) in f.tables()[0] and len(exps) == (2 if cap < INF else n + 1)


def test_orbit_cut_counts_reduced_fractions():
    """The cut reads each point's reduced fraction, as the plain orbit does:
    x/2 + x^2 at (2^3000 + 1)/3^3000 (3001 + 4755 bits) is cut after F(x),
    whose denominator holds most of its bits; (x, y/2^3000) at (3^1600, 1)
    is cut after F^2(x), not F(x): over the common denominator 2^3000, F(x)
    has 11539 bits, but 5539 reduced; and (x, y, z/2^3000) at (3^946,
    3^946, 1) is cut after F^2(x) too: F(x) has numerators of 9001 bits
    over 2^3000, but 6004 bits reduced."""
    cases = ((pmap([{(1,): F(1, 2), (2,): F(1)}], 3), [F(2 ** 3000 + 1, 3 ** 3000)], 2),
             (pmap([{(1, 0): F(1)}, {(0, 1): F(1, 2 ** 3000)}], 2), [3 ** 1600, 1], 3),
             (pmap([{(1, 0, 0): F(1)}, {(0, 1, 0): F(1)}, {(0, 0, 1): F(1, 2 ** 3000)}], 2),
              [3 ** 946, 3 ** 946, 1], 3))
    for f, x, points in cases:
        want = reference_orbit(f, x, 3, ORBIT_BIT_CAP)
        exps, point = _orbit(f, x, 3, ORBIT_BIT_CAP)
        assert len(exps) == len(want) == points
        assert exps == tuple(e for _, e in want)
        assert [point(i) for i in range(points)] == [z for z, _ in want]


@pytest.mark.parametrize("x", [[F(1), F(2), F(3)], [F(1)], [0, 0, 0], []])
def test_points_of_the_wrong_length_are_rejected(x):
    """A point with more or fewer coordinates than the map has variables
    raises PreconditionViolated, even where nothing is evaluated (a zero
    point, a zero-step orbit)."""
    f = bench()
    for call in (lambda: f(x), lambda: orbit(f, x, 3), lambda: orbit(f, x, 0),
                 lambda: stable_membership(f, F(1), x),
                 lambda: classify_fixed_point(f, pt=x)):
        with pytest.raises(PreconditionViolated, match="coordinates"):
            call()


# -- stable-set membership ---------------------------------------------------


def test_membership_refuses_a_negative_horizon():
    """Refused before any analysis, as the CLI refuses it (exit 4)."""
    with pytest.raises(PreconditionViolated, match=r"^horizon must be >= 0, got -1$"):
        stable_membership(bench(), 1, [F(1024), F(1024)], horizon=-1)


def test_membership_bench_on_graph():
    v = stable_membership(bench(), F(1), [F(1), F(2, 7)])
    assert v.verdict == CERTIFIED_MEMBER


def test_membership_bench_unstable_axis():
    v = stable_membership(bench(), F(1), [F(0), F(1)])
    assert v.verdict == CERTIFIED_NON_MEMBER


def test_membership_dominance_ball_beyond_exponent_64():
    # (2x, y/2 + 2^-100 x^2) at a = 1: Lip(R | p^-k) = 2^-(k-100) beats the
    # unstable rate 2 = p^-ru, ru = -1, from k = 100 on
    f = pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1, 2**100)}], 2)
    v = stable_membership(f, F(1), [F(2**150), F(2**200)])
    assert v.verdict == CERTIFIED_NON_MEMBER
    assert "inside the dominance ball p^-100 " in v.justification[0]


def test_membership_origin_always_member():
    v = stable_membership(bench(), F(1), [F(0), F(0)])
    assert v.verdict == CERTIFIED_MEMBER


def test_membership_linear_oracle():
    f = pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2)}], 2)
    a = F(3, 4)
    assert stable_membership(f, a, [F(1), F(0)]).verdict == CERTIFIED_MEMBER
    assert stable_membership(f, a, [F(0), F(1)]).verdict == CERTIFIED_NON_MEMBER


def test_membership_contracting_map_small_points():
    f = pmap([{(1,): F(2), (2,): F(1)}], 2)
    for x in (F(2), F(6), F(4, 3)):
        assert stable_membership(f, F(1), [x]).verdict == CERTIFIED_MEMBER


def test_membership_expanding_map_small_points():
    f = pmap([{(1,): F(1, 2), (2,): F(1)}], 2)
    for x in (F(2), F(4)):
        assert stable_membership(f, F(1), [x]).verdict == CERTIFIED_NON_MEMBER
    assert stable_membership(f, F(1), [F(0)]).verdict == CERTIFIED_MEMBER


def test_membership_orbit_reaching_the_fixed_point_exactly():
    """An orbit that lands on 0 exactly is certified a member by both
    branches that look for it.  F(x) = 2x - 2x^2 over Q_2 at a = 1/8, below
    the one |eigenvalue| |2| = 1/2, maps x = 1 to 0; F(x, y) = (2x - 2x^2,
    y/2 - y^2/2) at a = 1, hyperbolic, maps x = (1, 1), which is off the
    stable graph, to 0."""
    f = pmap([{(1,): F(2), (2,): F(-2)}], 2)
    v = stable_membership(f, F(1, 8), [F(1)])
    assert v.verdict == CERTIFIED_MEMBER
    assert v.justification == ("F^1(x) = 0 exactly; the orbit is eventually the fixed point",)
    g = pmap([{(1, 0): F(2), (2, 0): F(-2)}, {(0, 1): F(1, 2), (0, 2): F(-1, 2)}], 2)
    v = stable_membership(g, F(1), [F(1), F(1)])
    assert v.verdict == CERTIFIED_MEMBER and v.justification == ("F^1(x) = 0 exactly",)


def test_membership_invariant_ball_above_one():
    """(4x, y + x^2) over Q_2 at a = 2: every |lambda| (1/4 and 1) lies
    below a, but ||A|| = 1 refuses a Contracting ball.  The Invariant ball
    p^0 (||F(z)|| <= ||z||) certifies each orbit point in it a member, as
    2^-n ||F^n(x)|| <= 2^-n ||x|| -> 0."""
    f = pmap([{(1, 0): F(4)}, {(0, 1): F(1), (2, 0): F(1)}], 2)
    assert classify_fixed_point(f).certificate.mode == dynamics.INVARIANT
    for x, e in (([F(4), F(2)], 1), ([F(64), F(64)], 6), ([F(0), F(8)], 3)):
        v = stable_membership(f, F(2), x)
        assert v.verdict == CERTIFIED_MEMBER, (x, v)
        assert v.trace[0] == e and v.justification == (
            "F^0(x) lies in the ball p^-0 with an Invariant certificate "
            "(||F(z)|| <= ||z|| there)",
            "hence a^-m ||F^m(x)|| <= a^-m ||F^0(x)|| for m >= 0, which tends to 0 as a > 1")
    # at a = 1 the orbit's norm stays 2^-1, so (4, 2) is no member there
    assert stable_membership(f, F(1), [F(4), F(2)]).verdict != CERTIFIED_MEMBER


def test_membership_keeps_the_callers_precision(monkeypatch):
    """stable_membership at precision 128 splits a linear map's F'(0) at
    128 and reads x's coordinates at 128: an O(2^100) unstable coordinate is
    zero at 64 digits but not at 128.  On an invariant graph it hands 128 on
    to the membership of the base map, and the graph is split at 128 too.
    The spy records the precision of each analysis that splits F'(0)."""
    splits, members = [], []
    split, member = spectral.LinearAnalysis.splitting, dynamics.stable_membership
    monkeypatch.setattr(spectral.LinearAnalysis, "splitting",
                        lambda self, a: splits.append(self.precision) or split(self, a))
    monkeypatch.setattr(dynamics, "stable_membership",
                        lambda f, a, x, horizon=64, precision=DEFAULT_PRECISION:
                        members.append(precision) or member(f, a, x, horizon, precision))
    linear = pmap([{(1, 0): F(2)}, {(0, 1): F(1, 2)}], 2)
    x = [F(1), PadicNumber.o_term(2, 100)]
    assert member(linear, F(1), x, precision=128).verdict == UNDECIDED
    assert member(linear, F(1), x).verdict == CERTIFIED_MEMBER
    assert splits == [128, DEFAULT_PRECISION]
    v = member(bench(), F(1), [F(1), F(2, 7)], precision=128)  # on the graph y = 2x^2/7
    assert v.verdict == CERTIFIED_MEMBER and "exactly invariant" in v.justification[0]
    assert members == [128] and splits[2:] == [128, 128]


def test_membership_verdicts_certified_on_random_linear(seed=123):
    rng = random.Random(seed)
    for p in (2, 3):
        for _ in range(5):
            f = rand_poly_map(rng, p, 2, 1, nterms=0)
            for _ in range(5):
                x = [rand_unit(rng, p) * F(p) ** rng.randint(-1, 3)
                     for _ in range(2)]
                v = stable_membership(f, F(1), x)
                assert v.verdict in (CERTIFIED_MEMBER, CERTIFIED_NON_MEMBER)


def family_maps(rng, p):
    """(lam x, mu y + c x^2) and (lam x, mu y + c x^2, nu z + c2 x y), |lam| < 1
    < |mu|, |nu|, with points on their exact stable graphs at a = 1:
    y = alpha x^2 and z = beta x^3."""
    lam, mu, nu = F(p) ** rng.randint(1, 2), F(1, p ** rng.randint(1, 2)), F(1, p)
    c, c2 = rand_unit(rng, p), rand_unit(rng, p)
    alpha = c / (lam ** 2 - mu)
    beta = c2 * alpha / (lam ** 3 - nu)
    xs = [rand_unit(rng, p) * F(p) ** rng.randint(0, 3) for _ in range(3)]
    return [(pmap([{(1, 0): lam}, {(0, 1): mu, (2, 0): c}], p),
             [[x, alpha * x ** 2] for x in xs]),
            (pmap([{(1, 0, 0): lam}, {(0, 1, 0): mu, (2, 0, 0): c},
                   {(0, 0, 1): nu, (1, 1, 0): c2}], p),
             [[x, alpha * x ** 2, beta * x ** 3] for x in xs])]


def test_dominance_at_x_excludes_the_graph_reduction():
    """Where x's own position certifies it a non-member (strictly dominant
    unstable component inside the dominance ball), x lies on no exactly
    invariant stable graph, so stable_membership may skip the graph rule
    there: the two rules never both answer.  Seeded gap maps at a = 1, d = 2 and 3, p = 2, 3, 5,
    with unstable basis vectors pushed into the dominance ball, points on
    exact family graphs and small random points."""
    rng, a = random.Random(32), F(1)
    maps = []
    for p in (2, 3, 5):
        maps += [(rand_poly_map(rng, p, d, 2, require_mixed=True), []) for d in (2, 3, 3)]
        maps += family_maps(rng, p)
    seen = Counter()
    for f, on_graph in maps:
        p, d = f.prime, f.nvars
        an = dynamics._map_analysis(f, DEFAULT_PRECISION)
        norm = an.linear.norm()
        ru = max(v for v, _ in an.linear.spectrum if v < 0)
        k = an.dominance(norm, ru)
        pushed = [[c * F(p) ** max(0, ceil(k - norm.norm_exp(u))) for c in u]
                  for u in an.linear.splitting(a).unstable]
        small = [[rand_unit(rng, p) * F(p) ** rng.randint(0, 4) for _ in range(d)]
                 for _ in range(4)]
        for kind, points in (("unstable", pushed), ("graph", on_graph), ("small", small)):
            for x in points:
                dominant = not isinstance(dynamics._dominant_unstable(an, a, x, 64),
                                          str)
                reduced = not isinstance(dynamics._on_stable_graph(an, a, x, 64), str)
                assert not (dominant and reduced), (f, x)
                seen[kind, dominant, reduced] += 1
    assert seen["unstable", True, False] == sum(n for key, n in seen.items() if key[0] == "unstable")
    assert seen["graph", False, True] == 3 * 6
    assert seen["small", True, False] >= 5, seen


def test_no_stable_graph_where_graph_series_refuses():
    """(x/2, y/8 + x^2) over Q_2 at a = 4 (|lambda| = 2 and 8) has the
    resonance (1/2)^3 = 1/8 at degree 3, so graph_series refuses the stable
    graph, and the gap keeps that refusal as its reason for every threshold
    in it: membership goes on without a graph."""
    f = pmap([{(1, 0): F(1, 2)}, {(0, 1): F(1, 8), (2, 0): F(1)}], 2)
    with pytest.raises(ResonanceDetected) as exc:
        manifolds.graph_series(f, 4, manifolds.STABLE)
    an = dynamics._map_analysis(f, DEFAULT_PRECISION)
    reason = f"no stable graph: ResonanceDetected: {exc.value}"
    assert an._graph_reduction(F(4)) == reason
    assert an.stable_graph(F(4)) == reason and an.stable_graph(F(5)) is an.stable_graph(F(4))
    v = stable_membership(f, 4, [0, 1])
    assert v.verdict == CERTIFIED_NON_MEMBER and ("on_stable_graph", reason) not in v._reasons
    v = stable_membership(f, 4, [F(1, 2), 0])
    assert dict(v._reasons)["on_stable_graph"] == reason


# -- truncated series kernel -------------------------------------------------


def _ref_mul(x, y, ctx):
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            m = tuple(u + v for u, v in zip(m1, m2))
            out[m] = out[m] + c1 * c2 if m in out else c1 * c2
    return {m: c for m, c in out.items() if ctx.zeroness(c) != ZERO}


def _ref_pow(q, e, nvars, ctx):
    out = {(0,) * nvars: ctx.one}
    for _ in range(e):
        out = _ref_mul(out, q, ctx)
    return out


def _ref_subst(a, polys, nvars, ctx):
    """The untruncated substitution, each power built from scratch."""
    out = {}
    for m, c in a.items():
        term = {(0,) * nvars: c}
        for i, e in enumerate(m):
            if e:
                term = _ref_mul(term, _ref_pow(polys[i], e, nvars, ctx), ctx)
        for mm, cc in term.items():
            out[mm] = out[mm] + cc if mm in out else cc
        out = {mm: cc for mm, cc in out.items() if ctx.zeroness(cc) != ZERO}
    return out


def _upto(table, k):
    return [(m, c) for m, c in table.items() if sum(m) <= k]


@st.composite
def series_cases(draw, batch=0):
    """(a, polys, nvars_out, ctx, k): a over len(polys) variables, polys over
    nvars_out, rational or p-adic coefficients (exact zeros and O-terms
    included), and a degree cap k; with batch, a is a list of 1 to batch
    such tables, their monomials drawn from one pool of at most 4, so that
    tables of one batch share monomials."""
    p = draw(st.sampled_from((2, 3, 5)))
    q = st.fractions(min_value=-20, max_value=20, max_denominator=20)
    if draw(st.booleans()):
        ctx = RationalContext(p)
        coeff = q
    else:
        ctx = PadicContext(p, 16)
        coeff = st.one_of(
            st.just(PadicNumber.zero(p)),
            st.integers(0, 20).map(lambda b: PadicNumber.o_term(p, b)),
            st.builds(lambda r, prec: PadicNumber.from_rational(r, p, prec),
                      q.filter(bool), st.sampled_from((8, 16))))
    nin, nout = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def table(nvars, top, pool=None):
        monos = st.tuples(*[st.integers(0, top)] * nvars)
        return draw(st.dictionaries(monos if pool is None else st.sampled_from(pool), coeff,
                                    max_size=4))

    if batch:
        pool = draw(st.lists(st.tuples(*[st.integers(0, 3)] * nin), min_size=1, max_size=4))
        a = [table(nin, 3, pool) for _ in range(draw(st.integers(1, batch)))]
    else:
        a = table(nin, 3)
    return a, [table(nout, 2) for _ in range(nin)], nout, ctx, draw(st.integers(0, 6))


@settings(max_examples=80, deadline=None)
@given(series_cases())
def test_msubst_truncates_inside_the_product(case):
    a, polys, nout, ctx, k = case
    full = _ref_subst(a, polys, nout, ctx)
    powers = [[_ref_pow(q, e, nout, ctx) for e in range(4)] for q in polys]
    # same terms, coefficients and term order as truncating afterwards
    assert list(_msubst([a], polys, nout, ctx, max_deg=k)[0].items()) == _upto(full, k)
    assert list(_msubst([a], polys, nout, ctx)[0].items()) == list(full.items())
    for q, want in zip(polys, powers):
        got = _mpow(q, 3, nout, ctx, max_deg=k)
        assert [list(t.items()) for t in got] == [_upto(t, k) for t in want]


@settings(max_examples=80, deadline=None)
@given(series_cases(batch=4))
def test_batched_msubst_matches_one_table_at_a_time(case):
    """One batch, its powers built once (over Q its tables scaled once and
    each monomial's product shared), gives each table what substituting it
    alone gives: the same terms in the same order, each coefficient of the
    same type and value, a PadicNumber with the same digits and precision
    (PadicNumber == compares all four fields)."""
    tables, polys, nout, ctx, k = case
    for cap in (k, INF):
        got = _msubst(tables, polys, nout, ctx, cap)
        alone = [_msubst([a], polys, nout, ctx, cap)[0] for a in tables]
        assert [[(m, type(c), c) for m, c in t.items()] for t in got] == \
            [[(m, type(c), c) for m, c in t.items()] for t in alone], (tables, polys, cap)


def _rational_maps():
    """Seeded rational maps fixing 0: d = 1..3, degree 2..3, p = 2, 3, 5."""
    rng = random.Random(2100)
    return [rand_poly_map(rng, p, d, deg) for p in (2, 3, 5) for d in (1, 2, 3) for deg in (2, 3)]


def _mixed(rng, c):
    """c, or int(c) half the time where c is integral."""
    return int(c) if c.denominator == 1 and rng.random() < 0.5 else c


def test_msubst_matches_fraction_reference():
    """Over Q, _msubst equals the term-by-term Fraction expansion, every
    coefficient a Fraction: tables mixing ints and Fractions, substitutions
    x_j -> x_j + c_j (shift_to_fixed_point's), linear ones (conjugate's)
    and empty ones, under degree caps; an empty table gives an empty one."""
    rng = random.Random(21)
    for f in _rational_maps():
        p, d = f.prime, f.nvars
        ctx = RationalContext(p)
        e = [tuple(int(l == j) for l in range(d)) for j in range(d)]
        shift = [{e[j]: F(1), (0,) * d: rand_unit(rng, p) * F(p) ** rng.randint(-1, 2)}
                 for j in range(d)]
        linear = [{e[j]: F(rng.randint(-9, 9), rng.choice([1, p, 7])) for j in range(d)}
                  for _ in range(d)]
        mixed = [{m: _mixed(rng, c) for m, c in q.items()} for q in linear]
        for comp in f.tables():
            a = {m: _mixed(rng, c) for m, c in comp.items()}
            for polys in (shift, linear, mixed, [{}] * d):
                for k in (1, 2, 3, 5, INF):
                    got, = _msubst([a], polys, d, ctx, k)
                    assert got == reference_msubst(a, polys, d, k), (f, polys, k)
                    assert all(type(c) is F for c in got.values())
        assert _msubst([{}], shift, d, ctx) == [{}]


def test_call_matches_fraction_reference():
    """F(x) over Q equals the Fraction sum, as Fractions, at points mixing
    ints and Fractions and at the zero point; an empty component is 0."""
    rng = random.Random(22)
    for f in _rational_maps():
        p, d = f.prime, f.nvars
        pts = [[0] * d, [F(0)] * d] + [
            [_mixed(rng, rand_unit(rng, p) * F(p) ** rng.randint(-2, 3)) for _ in range(d)]
            for _ in range(6)]
        for x in pts:
            got = f(x)
            assert got == reference_call(f, x), (f, x)
            assert all(type(c) is F for c in got)
    g = pmap([{}, {(1, 0): F(3, 4)}], 3)
    assert g([2, F(1, 3)]) == [F(0), F(3, 2)]


def test_call_matches_fraction_reference_to_degree_nine():
    """F(x) over Q, _meval on the integer context over the map's tables
    homogenized once, equals the plain Fraction sum: degrees up to 9,
    constant terms, coefficients and coordinates with denominators
    divisible by p, zero coordinates and components with no terms."""
    rng = random.Random(33)

    def rational(p):
        return F(rng.randint(-30, 30), rng.choice((1, 7, p, p ** 2, 3 * p ** 3)))

    for p in (2, 3, 5):
        for _ in range(12):
            d, deg = rng.randint(1, 3), rng.randint(1, 9)
            tables = []
            for _ in range(d):
                t = {}
                for _ in range(rng.randint(0, 5)):
                    m = [0] * d
                    for _ in range(rng.randint(0, deg)):
                        m[rng.randrange(d)] += 1
                    t[tuple(m)] = rational(p)
                tables.append(t)
            f = pmap(tables, p)
            for _ in range(4):
                x = [rng.choice((0, F(0), rational(p))) for _ in range(d)]
                got = f(x)
                assert got == reference_call(f, x), (f, x)
                assert all(type(c) is F for c in got)


def test_from_tables_refuses_a_bad_multi_index():
    """A multi-index of the wrong length, or holding an exponent that is
    not a non-negative int, is refused as the CLI refuses it, not read as a
    monomial in the first variables."""
    for tables in ([{(1,): 2}, {(0, 1): F(1, 2), (2, 0): 1}],
                   [{(1, 0, 0): 2}, {(0, 1): 1}],
                   [{(1, -1): 2}, {(0, 1): 1}],
                   [{(1, True): 2}, {(0, 1): 1}],
                   [{(1, 1.0): 2}, {(0, 1): 1}]):
        bad = next(m for t in tables for m in t if len(m) != 2 or not all(
            type(e) is int and e >= 0 for e in m))
        with pytest.raises(PreconditionViolated, match=re.escape(f"bad multi-index {bad!r}")):
            PolyMap.from_tables(tables, 2)
    with pytest.raises(PreconditionViolated, match="bad multi-index"):
        PolyMap.from_tables([{(1, 0): 2}], 2, 1)


def test_remainder_bound_matches_fraction_reference():
    """Over Q the remainder bound, from F conjugated by the norm's integer
    rows and columns, equals the bound read off F conjugated over Q_p(pi)
    by the whole transform, at integral and fractional k; norms of the
    map's own linear part and of seeded matrices with nilpotent blocks and
    ram > 1."""
    rng = random.Random(23)
    seen = Counter()
    for f in _rational_maps():
        p, d = f.prime, f.nvars
        norms = [adapted_norm(linear_part(f), p)]
        norms += [adapted_norm(rand_conjugated(rng, p, d)[0], p) for _ in range(3)]
        for n in norms:
            assert n._zrows is not None  # a rational norm
            want = reference_lipschitz(f, n)
            for k in [*range(-2, 10), F(1, 2), F(-5, 3), F(7, 6)]:
                assert remainder_lipschitz(f, k, n) == want(F(k)), (f, n, k)
            seen["ram > 1"] += n.ram > 1
            seen["nilpotent"] += n.eps_exp is not None
    assert seen["ram > 1"] >= 5 and seen["nilpotent"] >= 5, seen


def test_remainder_lipschitz_refuses_another_dimension():
    """A one-variable map is not conjugated by the rows of a norm in
    dimension 2."""
    n = adapted_norm([[Fraction(0), Fraction(8)], [Fraction(1), Fraction(2)]], 2)
    f = PolyMap.from_tables([{(1,): Fraction(2), (2,): Fraction(1)}], 2, 1)
    with pytest.raises(PreconditionViolated):
        remainder_lipschitz(f, 1, n)


# -- local isometry within the linearization radius --------------------------


def test_local_isometry_property():
    rng = random.Random(77)
    for p in (2, 3):
        for _ in range(3):
            f = rand_poly_map(rng, p, 2, 2)
            a = jacobian(f)
            n = adapted_norm(a, p)
            k = linearization_radius(f, n)
            for _ in range(20):
                z = [rand_unit(rng, p) * F(p) ** (int(k) + rng.randint(2, 5))
                     for _ in range(2)]
                y = [rand_unit(rng, p) * F(p) ** (int(k) + rng.randint(2, 5))
                     for _ in range(2)]
                if n.norm_exp(z) < k or n.norm_exp(y) < k or z == y:
                    continue
                dz = [f(z)[i] - f(y)[i] for i in range(2)]
                lin = [sum(a[i][j] * (z[j] - y[j]) for j in range(2))
                       for i in range(2)]
                assert n.norm_exp(dz) == n.norm_exp(lin)
