"""Acceptance suite: one test per criterion, each emitting a pass/fail line.

All checks are exact (integer/rational arithmetic); the stated runtime caps
are asserted with a monotonic clock.
"""

import math
import random
import time
from fractions import Fraction
from math import inf as INF

import pytest

from ultradyn.dynamics import (
    CERTIFIED_MEMBER,
    CERTIFIED_NON_MEMBER,
    CONTRACTING,
    HAS_EXPANSION,
    INVARIANT,
    ISOMETRIC,
    NON_EXPANDING,
    PolyMap,
    STABLY_NEUTRAL,
    UNIFORMLY_ATTRACTIVE,
    classify_fixed_point,
    jacobian,
    linearization_radius,
    stable_membership,
)
from ultradyn.field import compare_threshold
from ultradyn.manifolds import STABLE, graph_series, residual
from ultradyn.polyalg import (
    charpoly,
    infer_context,
    mat_vec,
    newton_polygon,
)
from ultradyn.spectral import (
    adapted_norm,
    is_hyperbolic,
    nonhyperbolicity_witness,
    spectral_data,
    splitting_at,
)

from helpers import rand_conjugated, rand_poly_map, rand_unit
from reference import residual_in_span

F = Fraction
PRECISION = 64


def report(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")


def a_between(p, v1, v2):
    """Rational a with p^-v2 < a < p^-v1 (v1 < v2), verified exactly."""
    hi = float(p) ** (-float(v1))
    lo = 0.0 if v2 == INF else float(p) ** (-float(v2))
    mid = math.sqrt(lo * hi) if lo else hi / (2 * p)
    for dlim in (10**3, 10**6, 10**12):
        a = F(mid).limit_denominator(dlim)
        if a > 0 and compare_threshold(a, v2, p) == 1 \
                and compare_threshold(a, v1, p) == -1:
            return a
    raise AssertionError(f"no rational threshold between {v1} and {v2}")


@pytest.fixture(scope="module")
def matrix_suite():
    """>= 50 conjugated matrices with known spectra, incl. nilpotent blocks."""
    rng = random.Random(20240)
    suite = []
    while len(suite) < 51:
        p = (2, 3, 5)[len(suite) % 3]
        d = rng.randint(2, 5)
        suite.append((p,) + rand_conjugated(rng, p, d))
    assert any(any(v == INF for v, _ in spec) for _, _, spec, _ in suite)
    return suite


def test_criterion_1_hyperbolicity_equivalence(matrix_suite):
    t0 = time.monotonic()
    checked = 0
    for p, m, spectrum, _ in matrix_suite:
        finite = [v for v, _ in spectrum if v != INF]
        has_inf = any(v == INF for v, _ in spectrum)
        thresholds = []
        # at every (rational-representable) spectrum value
        for v in finite:
            if v.denominator == 1:
                thresholds.append((F(p) ** (-v), False))
        # between every pair of consecutive values and beyond the ends
        vs = sorted(finite)
        for v1, v2 in zip(vs, vs[1:]):
            thresholds.append((a_between(p, v1, v2), True))
        if vs:
            thresholds.append((a_between(p, vs[0] - 1, vs[0]), True))
            upper = INF if has_inf else vs[-1] + 1
            thresholds.append((a_between(p, vs[-1], upper), True))
        else:
            # purely nilpotent: hyperbolic at every radius
            thresholds.extend([(F(1), True), (F(1, p), True)])
        for a, expect_hyp in thresholds:
            got = is_hyperbolic(m, p, a, PRECISION)
            want = all(compare_threshold(a, v, p) != 0 for v, _ in spectrum)
            assert got == want == expect_hyp, (p, m, a, spectrum)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    report(1, True, f"hyperbolicity matches constructed spectra "
           f"({len(matrix_suite)} matrices, {checked} thresholds, "
           f"{elapsed:.2f}s)")


def test_criterion_2_decomposition_completeness(matrix_suite):
    t0 = time.monotonic()
    for p, m, spectrum, _ in matrix_suite:
        data = spectral_data(m, p, PRECISION)
        d = len(m)
        assert sum(b.dim for b in data.blocks) == d
        np_ = newton_polygon(charpoly(m, p))
        assert sorted((b.rho, b.dim) for b in data.blocks) == sorted(
            (v, mult) for v, mult in np_.root_valuations)
        for b in data.blocks:
            basis = [list(x) for x in b.basis]
            ctx = infer_context(basis, p, PRECISION)
            for x in basis:
                r = residual_in_span(mat_vec(m, x), basis, ctx)
                assert r == INF or r >= PRECISION, (p, m, b.rho, r)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0, f"runtime {elapsed:.2f}s"
    report(2, True, f"eigenspace dims match polygon multiplicities and are "
           f"invariant at precision {PRECISION} ({elapsed:.2f}s)")


def test_criterion_3_adapted_norm_axioms(matrix_suite):
    rng = random.Random(321)
    vectors = 0
    for p, m, spectrum, eigcols in matrix_suite[:18]:
        n = adapted_norm(m, p, precision=PRECISION)
        d = len(m)
        for _ in range(100):
            rho = rng.choice(list(eigcols))
            basis = eigcols[rho]
            x = [F(0)] * d
            while all(c == 0 for c in x):
                for b in basis:
                    lam = F(rng.randint(-9, 9), rng.choice([1, 3, p ** 2]))
                    x = [xc + lam * bc for xc, bc in zip(x, b)]
            nx = n.norm_exp(x)
            # (a) value group: exponents lie in (1/ram) * Z
            assert nx != INF and nx.denominator in range(1, n.ram + 1) \
                and n.ram % nx.denominator == 0
            # (b) homogeneity and ultrametric inequality
            lam = rand_unit(rng, p) * F(p) ** rng.randint(-2, 2)
            from ultradyn.field import valuation_of_rational
            assert n.norm_exp([lam * c for c in x]) == \
                nx + valuation_of_rational(lam, p)
            y = [F(rng.randint(-5, 5)) for _ in range(d)]
            assert n.norm_exp([a + b for a, b in zip(x, y)]) >= \
                min(nx, n.norm_exp(y))
            # (c) exact scaling by rho on E_rho; contraction < eps on E_inf
            mx = mat_vec(m, x)
            if rho != INF:
                assert n.norm_exp(mx) == nx + rho, (p, m, rho, x)
            else:
                assert n.norm_exp(mx) >= nx + n.eps_exp
            vectors += 1
    report(3, True, f"norm axioms and exact value-group scaling hold on "
           f"{vectors} vectors")


def test_criterion_4_nonhyperbolicity_witness(matrix_suite):
    witnesses = 0
    for p, m, spectrum, _ in matrix_suite:
        n = adapted_norm(m, p, precision=PRECISION)
        for v, _ in spectrum:
            if v == INF or v.denominator != 1:
                continue
            a = F(p) ** (-v)
            w = nonhyperbolicity_witness(m, p, a, precision=PRECISION)
            assert w.constant is True
            assert len(w.exponents) == 21
            # a^-n ||M^n v|| has constant exponent e_n - n*v
            assert len({e - step * v for step, e in enumerate(w.exponents)}) == 1
            # independent recomputation: a^-n ||M^n v|| constant for n<=20
            x = list(w.vector)
            base = n.norm_exp(x)
            for step in range(1, 21):
                x = mat_vec(m, x)
                assert n.norm_exp(x) - step * v == base, (p, m, v)
            witnesses += 1
    assert witnesses >= 50
    report(4, True, f"witness orbits exactly constant over n in [0,20] "
           f"({witnesses} witnesses)")


def test_criterion_5_stable_graph():
    t0 = time.monotonic()
    f = PolyMap.from_tables(
        [{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1)}], 2, 2)
    gs = graph_series(f, F(1), STABLE, order=6)
    assert gs.coefficients == (((2,), (F(2, 7),)),)  # degrees 3..6 all zero
    assert residual(f, gs) == [{}]                   # zero mod degree 7
    rng = random.Random(555)
    for i in range(20):
        p = (2, 3, 5)[i % 3]
        d = rng.randint(2, 3)
        g = rand_poly_map(rng, p, d, 3, require_mixed=True)
        ggs = graph_series(g, F(1), STABLE, order=4)
        for table in residual(g, ggs):
            assert table == {}, (g.tables(), table)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0, f"runtime {elapsed:.2f}s"
    report(5, True, f"benchmark graph is exactly (2/7)x^2 and 20 randomized "
           f"graphs have zero residual through degree 4 ({elapsed:.2f}s)")


def test_criterion_6_linear_membership_oracle():
    rng = random.Random(606)
    checked = 0
    for trial in range(10):
        p = (2, 3, 5)[trial % 3]
        d = rng.randint(2, 4)
        f = rand_poly_map(rng, p, d, 1, nterms=0)
        m = jacobian(f)
        a = F(1)
        s = splitting_at(m, p, a, PRECISION)
        ds, dc, du = s.dims()

        def oracle(x):
            coords = mat_vec([list(r) for r in s.winv], x)
            return all(c == 0 for c in coords[ds:])

        points = [[F(int(i == j)) for j in range(d)] for i in range(d)]
        for _ in range(50):
            if rng.random() < 0.5 and s.stable:
                # random point of the stable subspace
                x = [F(0)] * d
                for b in s.stable:
                    lam = F(rng.randint(-6, 6))
                    x = [xc + lam * bc for xc, bc in zip(x, b)]
            else:
                x = [F(rng.randint(-8, 8)) for _ in range(d)]
            points.append(x)
        for x in points:
            v = stable_membership(f, a, x, precision=PRECISION)
            assert v.verdict in (CERTIFIED_MEMBER, CERTIFIED_NON_MEMBER)
            assert (v.verdict == CERTIFIED_MEMBER) == oracle(x), (m, x)
            checked += 1
    report(6, True, f"linear membership matches the splitting oracle with "
           f"certified verdicts only ({checked} points)")


def _spectrum_of(f, p):
    return [v for v, _ in classify_fixed_point(f, precision=PRECISION).spectrum]


def test_criterion_7_threshold_stability():
    rng = random.Random(707)
    bench = PolyMap.from_tables(
        [{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1)}], 2, 2)
    maps = [(2, bench)]
    for trial in range(10):
        p = (2, 3, 5)[trial % 3]
        maps.append((p, rand_poly_map(rng, p, 2, 2, require_mixed=True)))
    agree = 0
    for p, f in maps:
        d = f.nvars
        vs = sorted(set(_spectrum_of(f, p)))
        # (b) verdicts agree for two thresholds in the same spectral gap
        gaps = list(zip(vs, vs[1:])) + [(vs[0] - 1, vs[0]), (vs[-1], vs[-1] + 1)]
        test_points = [[F(0)] * d]
        for _ in range(6):
            test_points.append(
                [rand_unit(rng, p) * F(p) ** rng.randint(2, 5)
                 if rng.random() > 0.3 else F(0) for _ in range(d)])
        for v1, v2 in gaps:
            third = (2 * float(p) ** (-float(v2)) + float(p) ** (-float(v1))) / 3
            a = a_between(p, v1, v2)
            b = F(third).limit_denominator(10**9)
            if not (compare_threshold(b, v2, p) == 1
                    and compare_threshold(b, v1, p) == -1) or a == b:
                continue
            for x in test_points:
                va = stable_membership(f, a, x, precision=PRECISION)
                vb = stable_membership(f, b, x, precision=PRECISION)
                assert va.verdict == vb.verdict, (p, f.tables(), a, b, x)
                agree += 1
        # (c) spectrum entirely above a: locally, only the fixed point is a
        # member.  Scale the sample points into the certified chart first.
        a_low = a_between(p, vs[-1], vs[-1] + 1)
        assert stable_membership(f, a_low, [F(0)] * d,
                                 precision=PRECISION).verdict == CERTIFIED_MEMBER
        n = adapted_norm(jacobian(f), p, precision=PRECISION)
        k = linearization_radius(f, n)
        for x in test_points[1:]:
            if all(c == 0 for c in x):
                continue
            shift = max(0, math.ceil(k - n.norm_exp(x)) + 1)
            xs = [c * F(p) ** shift for c in x]
            v = stable_membership(f, a_low, xs, precision=PRECISION)
            assert v.verdict == CERTIFIED_NON_MEMBER, (p, f.tables(), a_low, xs)
    report(7, True, f"verdicts stable across gap-equivalent thresholds "
           f"({agree} comparisons) and trivial below the spectrum")


def _check_certificate(f, cert, p, rng, points_per_shell=200):
    """Exact pointwise verification of a ball certificate on 3 shells."""
    n = cert.norm
    d = f.nvars
    # seed direction with finite adapted norm, then rescale per shell
    while True:
        z0 = [rand_unit(rng, p) for _ in range(d)]
        e0 = n.norm_exp(z0)
        if e0 != INF and e0.denominator == 1:
            break
    for shell in range(3):
        k = cert.radius_exp + shell
        for _ in range(points_per_shell):
            x = [rand_unit(rng, p) * c * F(p) ** (k - e0) for c in z0]
            ex = n.norm_exp(x)
            if ex != k:      # unit rescaling may cancel; resample
                continue
            ey = n.norm_exp(f(x))
            if cert.mode == INVARIANT:
                assert ey >= ex
            elif cert.mode == ISOMETRIC:
                assert ey == ex
            else:
                assert ey >= ex + cert.contraction_exp


def test_criterion_8_classifier_and_certificates():
    rng = random.Random(808)
    s2 = [[F(1), F(2)], [F(0), F(1)]]
    s2inv = [[F(1), F(-2)], [F(0), F(1)]]

    def conj(diag_tables, s, sinv, p):
        """s o F o s^-1 for linear-diagonal-plus-nonlinear 2d tables."""
        from ultradyn.dynamics import conjugate
        f = PolyMap.from_tables(diag_tables, p, 2)
        return PolyMap.from_tables(conjugate(f, s, sinv, f.coeff_context()),
                                   p, 2)

    suite = [
        # named constructions
        (2, PolyMap.from_tables([{(1,): F(2), (2,): F(1)}], 2, 1),
         UNIFORMLY_ATTRACTIVE),
        (3, PolyMap.from_tables([{(1,): F(1), (2,): F(1)}], 3, 1),
         STABLY_NEUTRAL),
        # diagonal maps
        (2, PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(4)}], 2, 2),
         UNIFORMLY_ATTRACTIVE),
        (3, PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(1, 2)}], 3, 2),
         STABLY_NEUTRAL),
        (2, PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(3)}], 2, 2),
         NON_EXPANDING),
        (2, PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(1, 2)}], 2, 2),
         HAS_EXPANSION),
        # conjugated diagonal
        (2, conj([{(1, 0): F(2)}, {(0, 1): F(4)}], s2, s2inv, 2),
         UNIFORMLY_ATTRACTIVE),
        (2, conj([{(1, 0): F(2)}, {(0, 1): F(1, 2)}], s2, s2inv, 2),
         HAS_EXPANSION),
        # nonlinearly perturbed
        (2, PolyMap.from_tables(
            [{(1, 0): F(2), (0, 2): F(4)}, {(0, 1): F(4), (2, 0): F(2)}],
            2, 2), UNIFORMLY_ATTRACTIVE),
        (3, conj([{(1, 0): F(2), (0, 2): F(3)}, {(0, 1): F(5), (1, 1): F(9)}],
                 s2, s2inv, 3), STABLY_NEUTRAL),
        (5, PolyMap.from_tables(
            [{(1, 0): F(5), (2, 0): F(1)}, {(0, 1): F(1, 5), (0, 2): F(1)}],
            5, 2), HAS_EXPANSION),
    ]
    certified = 0
    for p, f, want in suite:
        r = classify_fixed_point(f, precision=PRECISION)
        assert r.label == want, (p, f.tables(), r.label, want)
        if r.certificate is not None:
            _check_certificate(f, r.certificate, p, rng)
            certified += 1
    assert certified >= 6
    report(8, True, f"labels match construction on {len(suite)} maps; "
           f"{certified} ball certificates verified on 200 points per shell")


def test_criterion_8_certificate_beyond_exponent_64():
    # f(x) = 2x + 2^-100 x^2: the Contracting ball is p^-101, past any scan
    # capped at exponent 64
    f = PolyMap.from_tables([{(1,): F(2), (2,): F(1, 2**100)}], 2, 1)
    r = classify_fixed_point(f, precision=PRECISION)
    assert r.label == UNIFORMLY_ATTRACTIVE
    cert = r.certificate
    assert (cert.mode, cert.radius_exp, cert.contraction_exp) == (CONTRACTING, 101, 1)
    _check_certificate(f, cert, 2, random.Random(818))


def test_criterion_9_local_isometry():
    rng = random.Random(909)
    pairs = 0
    for trial in range(10):
        p = (2, 3, 5)[trial % 3]
        d = rng.randint(1, 2)
        f = rand_poly_map(rng, p, d, 2)
        a = jacobian(f)
        n = adapted_norm(a, p, precision=PRECISION)
        k = linearization_radius(f, n)
        while pairs < 10 * (trial + 1):
            z = [rand_unit(rng, p) * F(p) ** (int(k) + rng.randint(3, 6))
                 for _ in range(d)]
            y = [rand_unit(rng, p) * F(p) ** (int(k) + rng.randint(3, 6))
                 for _ in range(d)]
            if z == y or n.norm_exp(z) < k or n.norm_exp(y) < k:
                continue
            lhs = n.norm_exp([f(z)[i] - f(y)[i] for i in range(d)])
            rhs = n.norm_exp(mat_vec(a, [z[i] - y[i] for i in range(d)]))
            assert lhs == rhs, (p, f.tables(), z, y)
            pairs += 1
    assert pairs == 100
    report(9, True, "exact isometry with the derivative on 100 pairs "
           "inside certified linearization radii")
