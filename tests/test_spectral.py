"""Spectrum, hyperbolicity, invariant splittings, adapted norms, witnesses."""

import random
from fractions import Fraction
from functools import lru_cache
from math import inf as INF

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ultradyn import spectral
from ultradyn.dynamics import MapAnalysis, PolyMap
from ultradyn.errors import PreconditionViolated, RankUncertified
from ultradyn.field import (PadicNumber, RationalContext, compare_threshold,
                           valuation_of_rational)
from ultradyn.polyalg import (Polynomial, _monic_scale, _pmul, cmat, mat_inverse, mat_mul,
                              mat_vec)
from ultradyn.spectral import (
    AdaptedNorm,
    _rational_factors,
    adapted_norm,
    is_hyperbolic,
    nonhyperbolicity_witness,
    operator_norm,
    spectral_data,
    spectrum_abs,
    splitting_at,
)

from helpers import (ONE_BAND, block_restriction, conjugated_companion, rand_conjugated,
                     rand_vector, unimodular)
from reference import (PiRing, ext_operator_norm, reference_exps, reference_restrict,
                       reference_transform, reference_zcols, reference_zrows, residual_in_span)

F = Fraction


def _mat(rows):
    return [[F(c) for c in r] for r in rows]


BENCH = _mat([[0, 8], [1, 2]])  # eigenvalues -2 and 4: valuations 1 and 2
DIAG = _mat([[2, 0, 0], [0, 1, 0], [0, 0, F(1, 2)]])


# -- spectrum ----------------------------------------------------------------


@pytest.mark.parametrize("m", [[[2, 1, 0], [0, 3, 1]], [[2, 1], [0, 3], [1, 1]], [[2, 1], [3]]],
                         ids=["2x3", "3x2", "ragged"])
def test_analysis_refuses_a_matrix_that_is_not_square(m):
    """A matrix that is not square is refused before any analysis is
    interned or built, not read as the square matrix of its first entries."""
    before = spectral._interned.cache_info()
    for call in (spectrum_abs, lambda m, p: is_hyperbolic(m, p, 1),
                 lambda m, p: splitting_at(m, p, 1), adapted_norm):
        with pytest.raises(PreconditionViolated, match="^matrix is not square"):
            call(m, 2)
    assert spectral._interned.cache_info() == before


def test_spectrum_oracle_bench():
    assert spectrum_abs(BENCH, 2) == [(F(1), 1), (F(2), 1)]


def test_spectrum_oracle_diag():
    assert spectrum_abs(DIAG, 2) == [(F(-1), 1), (F(0), 1), (F(1), 1)]


def test_spectrum_nilpotent():
    m = _mat([[0, 1], [0, 0]])
    assert spectrum_abs(m, 2) == [(INF, 2)]


def test_spectrum_matches_construction_random():
    rng = random.Random(21)
    for p in (2, 3, 5):
        for _ in range(5):
            m, spectrum, _ = rand_conjugated(rng, p, 4)
            assert spectrum_abs(m, p) == spectrum


# -- hyperbolicity -----------------------------------------------------------


def test_is_hyperbolic_oracle():
    assert is_hyperbolic(BENCH, 2, F(1)) is True
    assert is_hyperbolic(BENCH, 2, F(3, 4)) is True
    assert is_hyperbolic(BENCH, 2, F(1, 2)) is False
    assert is_hyperbolic(DIAG, 2, F(1)) is False


# -- eigenspace sums and splittings -----------------------------------------


def test_eigenspace_sum_dims_and_invariance():
    data = spectral_data(BENCH, 2)
    assert [(b.rho, b.dim) for b in data.blocks] == [(F(1), 1), (F(2), 1)]
    ctx = RationalContext(2)
    for block in data.blocks:
        basis = [list(x) for x in block.basis]
        assert len(basis) == block.dim
        for x in basis:
            assert residual_in_span(mat_vec(BENCH, x), basis, ctx) == INF


def test_splitting_oracle_diag():
    s = splitting_at(DIAG, 2, F(1))
    assert s.dims() == (1, 1, 1)
    # stable direction is the contraction axis x1 (eigenvalue 2)
    assert [v != 0 for v in s.stable[0]] == [True, False, False]
    assert [v != 0 for v in s.centre[0]] == [False, True, False]
    assert [v != 0 for v in s.unstable[0]] == [False, False, True]


def test_splitting_invariance_random():
    rng = random.Random(33)
    ctx3 = RationalContext(3)
    for _ in range(5):
        m, spectrum, _ = rand_conjugated(rng, 3, 4, allow_fractional=False)
        finite = [v for v, _ in spectrum if v != INF]
        gaps = [F(3) ** (-v) * F(2, 3) for v in finite] + [F(5, 2)]
        for a in gaps:
            s = splitting_at(m, 3, a)
            assert sum(s.dims()) == 4
            for part in (s.stable, s.centre, s.unstable):
                for x in part:
                    r = residual_in_span(mat_vec(m, list(x)),
                                         [list(b) for b in part], ctx3)
                    assert r == INF


# -- adapted norms -----------------------------------------------------------


def test_adapted_norm_exact_on_eigen_directions():
    n = adapted_norm(DIAG, 2)
    e1, e2, e3 = [F(1), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1)]
    for x, rho in ((e1, F(1)), (e2, F(0)), (e3, F(-1))):
        assert n.norm_exp(mat_vec(DIAG, x)) == n.norm_exp(x) + rho


def test_adapted_norm_nilpotent_weights():
    m = _mat([[0, 1], [0, 0]])
    n = adapted_norm(m, 2, eps=F(1, 2))
    assert list(n.weights) == [F(0), F(-2)]
    assert operator_norm(m, 2, n) == F(2)  # operator norm 1/4 < eps


@pytest.mark.parametrize("eps", [-1, 0, F(-1, 3)])
def test_adapted_norm_refuses_eps_without_a_nilpotent_block(eps):
    """eps <= 0 is refused for every matrix, not only inside the nilpotent
    block's build."""
    for m in (_mat([[2, 0], [0, F(1, 3)]]), _mat([[0, 1], [0, 0]])):
        with pytest.raises(PreconditionViolated, match="eps must be positive"):
            adapted_norm(m, 3, eps=eps)


def test_adapted_norm_padic_nilpotent_block():
    """A p-adic matrix with a nilpotent block: its Jordan chains come from
    the ring path (valuation-pivoted kernels of the powers of N), with the
    precision of the build.  M = [[0, 1, 0], [0, 0, 0], [0, 0, 5]] over
    Q_3, with exact zeros, at precision 32: M contracts the nilpotent block
    by exactly p^-eps_exp on the chain top and is an isometry on the unit
    block."""
    p, prec = 3, 32
    z, one = PadicNumber.zero(p), PadicNumber.from_rational(1, p, prec)
    m = [[z, one, z], [z, z, z], [z, z, PadicNumber.from_rational(5, p, prec)]]
    assert spectrum_abs(m, p, prec) == [(F(0), 1), (INF, 2)]
    n = adapted_norm(m, p, precision=prec)
    assert n.eps_exp == 1 and [b.rho for b in n.blocks] == [F(0), INF]
    rng = random.Random(32)
    gaps = set()
    for _ in range(20):
        a, b, c = (PadicNumber.from_rational(F(rng.randint(-9, 9), rng.choice((1, 3, 9))), p, prec)
                   for _ in range(3))
        x = [a, b, z]
        if n.norm_exp(x) != INF:
            gaps.add(n.norm_exp(mat_vec(m, x)) - n.norm_exp(x))
        y = [z, z, c]
        assert n.norm_exp(mat_vec(m, y)) == n.norm_exp(y)
    assert min(gaps) == n.eps_exp, gaps
    assert operator_norm(m, p, n) == 0


def test_adapted_norm_is_ultranorm():
    rng = random.Random(44)
    n = adapted_norm(BENCH, 2)
    for _ in range(30):
        x = rand_vector(rng, 2, 2)
        y = rand_vector(rng, 2, 2)
        nx, ny = n.norm_exp(x), n.norm_exp(y)
        ns = n.norm_exp([a + b for a, b in zip(x, y)])
        assert ns >= min(nx, ny)
        lam = F(12, 5)  # v_2 = 2, so the norm shrinks by 1/4
        assert n.norm_exp([lam * c for c in x]) == \
            (INF if nx == INF else nx + 2)
    assert n.norm_exp([F(0), F(0)]) == INF


def test_operator_norm_equals_spectral_radius_exp():
    # adapted to itself, |M| equals the largest eigenvalue absolute value
    n = adapted_norm(BENCH, 2)
    assert operator_norm(BENCH, 2, n) == F(1)
    n2 = adapted_norm(DIAG, 2)
    assert operator_norm(DIAG, 2, n2) == F(-1)


def test_operator_norm_ramified():
    m = _mat([[0, 2], [1, 0]])  # eigenvalues +-sqrt(2): valuation 1/2
    n = adapted_norm(m, 2)
    assert n.ram == 2
    assert operator_norm(m, 2, n) == F(1, 2)


# (seed, p, d, ram, weights) of rand_conjugated draws: ram 1, 2, 3 and 6, and
# nilpotent blocks of size 2, whose adapted weights are 0 and -j.  Each is
# used as drawn and conjugated by diag(p^-1, p, 1, p^-1, ...), which puts p
# into the denominators of the rows of T Winv.
NORM_DRAWS = [(0, 3, 5, 1, (0,) * 5), (16, 2, 4, 3, (0,) * 4), (8, 5, 6, 6, (0,) * 6),
              (4, 3, 5, 2, (0, 0, 0, 0, -2)), (6, 2, 4, 1, (0, 0, 0, -1))]


@lru_cache(maxsize=None)
def _drawn_norm(k, rescaled=False):
    """(m, p, norm, T Winv over Q_p(pi)) for NORM_DRAWS[k]."""
    seed, p, d, ram, weights = NORM_DRAWS[k]
    m, _, _ = rand_conjugated(random.Random(seed), p, d)
    if rescaled:
        s = [F(p) ** ((2 * i) % 3 - 1) for i in range(d)]
        m = [[m[i][j] * s[i] / s[j] for j in range(d)] for i in range(d)]
    n = adapted_norm(m, p)
    assert n.ram == ram and list(n.weights) == list(weights)
    return m, p, n, reference_transform(n, PiRing(p, ram))


@lru_cache(maxsize=None)
def _padic_row_norm():
    """The norm of the companion block of t^2 + t + 3 (roots of valuation 0
    and 1, no rational slope factor) beside 9: its base-field rows hold
    PadicNumbers."""
    m = _block_diag(_companion([3, 1, 1]), [[F(9)]])
    n = adapted_norm(m, 3)
    assert any(isinstance(c, PadicNumber) for row in n._pi_rows[1] for c in row)
    return m, 3, n, reference_transform(n, PiRing(3, n.ram))


def _assert_norm_exp_matches_oracle(n, t, x):
    want = reference_exps(n, x, t)
    got = n._coord_exps(x)
    assert got == want, x
    assert all(e == INF or type(e) is F for e in got), got
    e = n.norm_exp(x)
    assert e == min(want) and (e == INF or type(e) is F), x


def _entries(p):
    """int entries, p-powers in numerators, and p-powers in denominators."""
    small = st.integers(-60, 60)
    return st.one_of(
        small,
        st.builds(lambda a, e: a * p**e, small, st.integers(1, 5)),
        st.builds(lambda a, e, u: F(a, p**e * u), small, st.integers(0, 5),
                  st.sampled_from([1, 7, 11])))


@st.composite
def _norm_queries(draw):
    key = draw(st.integers(0, len(NORM_DRAWS) - 1)), draw(st.booleans())
    _, p, n, _ = _drawn_norm(*key)
    d = len(n.winv)
    x = draw(st.one_of(st.lists(st.integers(-60, 60), min_size=d, max_size=d),
                       st.lists(_entries(p), min_size=d, max_size=d),
                       st.just([0] * d), st.just([F(0)] * d)))
    return key, x


@given(_norm_queries())
def test_norm_exp_matches_ext_oracle(query):
    """norm_exp over Q, on integer dot products, against
    min_i v((T Winv x)_i) + q_i over Q_p(pi): the same Fractions, and INF
    for the zero vector."""
    key, x = query
    _, _, n, t = _drawn_norm(*key)
    _assert_norm_exp_matches_oracle(n, t, x)
    if not any(x):
        assert n.norm_exp(x) == INF


def test_norm_exp_ring_path_padic_vector():
    for key in ((k, r) for k in range(len(NORM_DRAWS)) for r in (False, True)):
        _, p, n, t = _drawn_norm(*key)
        rng = random.Random(repr(key))
        for _ in range(5):
            x = rand_vector(rng, p, len(n.winv))
            x[0] = PadicNumber.from_rational(x[0] or 1, p, rng.choice([8, 30]))
            _assert_norm_exp_matches_oracle(n, t, x)


def test_norm_exp_ring_path_padic_rows():
    _, p, n, t = _padic_row_norm()
    rng = random.Random(5)
    for _ in range(10):
        x = rand_vector(rng, p, 3)
        _assert_norm_exp_matches_oracle(n, t, x)
        _assert_norm_exp_matches_oracle(n, t, [PadicNumber.from_rational(c, p, 20) for c in x])
    _assert_norm_exp_matches_oracle(n, t, [F(0)] * 3)


def test_operator_norm_matches_ext_oracle(monkeypatch):
    """operator_norm against min_ij v(A'_ij) + q_i - q_j for
    A' = (T Winv) M (T Winv)^-1 over Q_p(pi): every NORM_DRAWS entry, as
    drawn and rescaled, on m, on m^-1 when m is invertible, on a rational x
    with p in its denominators and on 0, all on the integer path; and the
    norm with p-adic rows on the ring path, with the same values.  A spy on
    the norm's read-out records which ring each query took."""
    exact = []
    orig = spectral.AdaptedNorm._readout

    def readout(self, *a, **k):
        out = orig(self, *a, **k)
        exact.append(out[0])
        return out

    monkeypatch.setattr(spectral.AdaptedNorm, "_readout", readout)
    for key in ((k, r) for k in range(len(NORM_DRAWS)) for r in (False, True)):
        m, p, n, _ = _drawn_norm(*key)
        d, rng, qctx = len(m), random.Random(repr(key)), RationalContext(p)
        xs = [m, [[F(rng.randint(-9, 9), rng.choice([1, p, p * p, 7])) for _ in range(d)]
                  for _ in range(d)], [[F(0)] * d for _ in range(d)]]
        if INF not in dict(spectrum_abs(m, p)):
            xs.append(mat_inverse(cmat(m, qctx), qctx))
        for x in xs:
            exact.clear()
            got = spectral.operator_norm(x, p, n)
            assert exact == [True, True]  # rows and columns on integers
            assert got == ext_operator_norm(x, n), (key, x)
            assert got == INF or type(got) is F
    m, p, n, _ = _padic_row_norm()
    for x in (m, [[F(1, 3), F(2), F(0)], [F(0), F(5), F(1, 9)], [F(7), F(0), F(3)]]):
        exact.clear()
        got = spectral.operator_norm(x, p, n)
        assert exact == [False, False]  # the ring
        assert got == ext_operator_norm(x, n) and type(got) is F


def _unit_exps(zvecs, ram, p, x):
    """ram v(z . x) + offset for each integer vector z and offset of zvecs."""
    out = []
    for z, off in zvecs:
        t = sum(a * b for a, b in zip(z, x))
        out.append(ram * valuation_of_rational(t, p) + off if t else INF)
    return out


def test_integer_norm_parts_match_fraction_references():
    """Every NORM_DRAWS entry, as drawn and rescaled, against the
    references of tests/reference.py: each block restriction equals the
    Fraction mat_vec reference exactly, and each integer row and column of
    the norm, built from integer products of T_0 and Winv (of W and T'_0),
    gives the same v(row_i . x) + offset as the rows of T Winv (columns of
    W T^-1) multiplied out over Q_p(pi) from the blocks' records and scaled,
    on every unit vector and on random rational x."""
    for key in ((k, r) for k in range(len(NORM_DRAWS)) for r in (False, True)):
        m, p, n, _ = _drawn_norm(*key)
        d, ctx = len(m), RationalContext(p)
        for b in spectral_data(m, p).blocks:
            basis = [list(v) for v in b.basis]
            assert block_restriction(m, b, p) == reference_restrict(m, basis), key
        rng = random.Random(repr(key))
        xs = [[F(int(i == j)) for j in range(d)] for i in range(d)]
        xs += [[F(rng.randint(-60, 60), rng.choice([1, p, p**3, 7])) for _ in range(d)]
               for _ in range(10)]
        for got, want in ((n._zrows, reference_zrows(n)), (n._zcols, reference_zcols(n))):
            assert len(got) == len(want) == d
            for x in xs:
                assert _unit_exps(got, n.ram, p, x) == _unit_exps(want, n.ram, p, x), (key, x)


def _ring_readout(n):
    """A copy of the rational norm n, equal to it, with its integer rows and
    columns unset: every query reads it through the ring (_pi_rows,
    _pi_cols).  The AdaptedNorm constructor builds it from n's fields."""
    c = AdaptedNorm(n.prime, n.ram, n.winv, n.w, n.blocks, n.eps_exp)
    c.__dict__.update(_zrows=None, _zcols=None)
    return c


def test_integer_and_ring_readouts_agree():
    """Every NORM_DRAWS entry, as drawn and rescaled, read on integers and,
    forced, through the ring: the same norm_exp and _coord_exps on random
    rational x and on 0, the same operator norms of m, of m^-1 when m is
    invertible and of a random x, and the same remainder bounds of a map
    with linear part m, all to the repr."""
    for key in ((k, r) for k in range(len(NORM_DRAWS)) for r in (False, True)):
        m, p, n, _ = _drawn_norm(*key)
        ring, d = _ring_readout(n), len(m)
        assert ring == n and n._readout(p, {d}, True)[0] and not ring._readout(p, {d}, True)[0]
        rng = random.Random(repr(key))
        for x in [rand_vector(rng, p, d) for _ in range(8)] + [[F(0)] * d]:
            assert repr(ring._coord_exps(x)) == repr(n._coord_exps(x)), (key, x)
            assert repr(ring.norm_exp(x)) == repr(n.norm_exp(x)), (key, x)
        mats = [m, [[F(rng.randint(-9, 9), rng.choice([1, p, 7])) for _ in range(d)]
                    for _ in range(d)]]
        if INF not in dict(spectrum_abs(m, p)):
            mats.append(mat_inverse(cmat(m, RationalContext(p)), RationalContext(p)))
        for a in mats:
            assert repr(operator_norm(a, p, ring)) == repr(operator_norm(a, p, n)), (key, a)
        tables = [{**{tuple(int(l == j) for l in range(d)): c for j, c in enumerate(row) if c},
                   tuple(2 * int(l == i) for l in range(d)): F(p),
                   tuple(int(l in (i, (i + 1) % d)) for l in range(d)): F(1, p)}
                  for i, row in enumerate(m)]
        f = PolyMap.from_tables(tables, p, d)
        # fresh analyses: an interned one keeps its bound per equal norm
        want, got = MapAnalysis(f).lipschitz(n), MapAnalysis(f).lipschitz(ring)
        for k in (-2, 0, 1, F(1, 2), 5):
            assert repr(got(k)) == repr(want(k)), (key, k)


def test_operator_norm_oracle_padic_norms():
    """M = S (C + (p^k)) S^-1, with C the companion of t^2 + t + p (roots of
    valuation 0 and 1, no rational slope factor, so the norm is p-adic) and
    S unimodular, at precision 6 to 64: in the adapted norm
    operator_norm(M) = min rho and operator_norm(M^-1) = -max rho over
    rho in {0, 1, k}.  Matrices whose norm raises RankUncertified (the known
    slope-mixed kernel defect, which most conjugated slope-mixed matrices
    hit) are skipped and counted."""
    built = skipped = 0
    for p in (2, 3, 5):
        for prec in (6, 8, 12, 64):
            rng, ctx = random.Random(100 * p + prec), RationalContext(p)
            for k in [k for k in (-2, -1, 0, 1, 2, 3) for _ in range(3)]:
                s = unimodular(rng, 3)
                m = mat_mul(mat_mul(s, _block_diag(_companion([p, 1, 1]), [[F(p) ** k]])),
                            mat_inverse(cmat(s, ctx), ctx))
                try:
                    n = adapted_norm(m, p, precision=prec)
                except RankUncertified:
                    skipped += 1
                    continue
                assert any(isinstance(c, PadicNumber) for row in n.w for c in row)
                rhos = (0, 1, k)
                assert operator_norm(m, p, n) == min(rhos), (p, prec, k)
                assert operator_norm(mat_inverse(m, ctx), p, n) == -max(rhos), (p, prec, k)
                built += 1
    assert built >= 72 and built + skipped == 216, (built, skipped)


# -- a query over another prime or dimension is refused ----------------------


def test_operator_norm_refuses_another_prime():
    """A 3-adic valuation of M is not read against the 2-adic offsets of a
    norm over Q_2."""
    n = adapted_norm(BENCH, 2)
    with pytest.raises(PreconditionViolated):
        operator_norm([[3, 0], [0, 3]], 3, n)


def test_norm_exp_refuses_a_padic_number_of_another_prime():
    """A 5-adic coordinate is refused by a norm over Q_3: its valuation
    (2 for 25) is not the 3-adic one (0)."""
    m = _mat([[3, 1, 0], [0, 1, 2], [0, 0, F(1, 3)]])
    n = adapted_norm(m, 3)
    assert n.norm_exp([F(25)] * 3) == 0
    x = [PadicNumber.from_rational(25, 5)] * 3
    for read in (n.norm_exp, n._coord_exps):
        with pytest.raises(PreconditionViolated, match="prime mismatch"):
            read(x)


def test_operator_norm_refuses_a_padic_entry_of_another_prime():
    m = _mat([[3, 1, 0], [0, 1, 2], [0, 0, F(1, 3)]])
    n = adapted_norm(m, 3)
    m[0][0] = PadicNumber.from_rational(25, 5)
    with pytest.raises(PreconditionViolated, match="prime mismatch"):
        operator_norm(m, 3, n)


def test_norm_exp_refuses_another_dimension():
    n = adapted_norm(BENCH, 2)
    for x in ([4], [4, 0, 1]):
        with pytest.raises(PreconditionViolated):
            n.norm_exp(x)
        with pytest.raises(PreconditionViolated):
            n._coord_exps(x)


def test_operator_norm_refuses_another_dimension():
    n = adapted_norm(BENCH, 2)
    for m in ([[F(3)]], [[F(int(i == j)) for j in range(3)] for i in range(3)],
              [[F(1), F(0)], [F(0), F(1), F(0)]]):
        with pytest.raises(PreconditionViolated):
            operator_norm(m, 2, n)


# -- non-hyperbolicity witness ----------------------------------------------


def _witness_cases():
    """(m, p, a) over Q for every centre of integral rho of the norm draws,
    DIAG, and a rational centre beside p-adic blocks."""
    for key in ((k, r) for k in range(len(NORM_DRAWS)) for r in (False, True)):
        m, p, _, _ = _drawn_norm(*key)
        yield from ((m, p, F(p) ** -rho) for rho, _ in spectrum_abs(m, p)
                    if rho != INF and rho.denominator == 1)
    yield DIAG, 2, F(1, 2)
    yield _padic_row_norm()[0], 3, F(1, 9)


def test_witness_exponents_are_norm_exp_of_fraction_orbit(monkeypatch):
    """Over Q the witness orbit runs on integers; its exponents are those of
    the Fraction orbit m^k v0."""
    seen = []
    orig = spectral.AdaptedNorm.norm_exp
    monkeypatch.setattr(spectral.AdaptedNorm, "norm_exp",
                        lambda self, x: seen.append(x) or orig(self, x))
    cases = list(_witness_cases())
    assert len(cases) >= 14
    for m, p, a in cases:
        seen.clear()
        w = nonhyperbolicity_witness(m, p, a)
        assert len(seen) == 21 and all(type(c) is int for x in seen for c in x)
        n = adapted_norm(m, p)
        v, want = [F(c) for c in w.vector], []
        for _ in range(21):
            want.append(n.norm_exp(v))
            v = mat_vec(m, v)
        assert w.exponents == tuple(want), (m, p, a)
        assert all(type(e) is F for e in w.exponents)
        assert w.constant


def test_witness_padic_centre_keeps_ring_path(monkeypatch):
    """t^2 + t + 5 over Q_5 at a = 1: the centre block's basis is p-adic, so
    the orbit runs on PadicNumbers, with the output the Fraction-orbit code
    gave."""
    seen = []
    orig = spectral.AdaptedNorm.norm_exp
    monkeypatch.setattr(spectral.AdaptedNorm, "norm_exp",
                        lambda self, x: seen.append(x) or orig(self, x))
    w = nonhyperbolicity_witness(_mat([[0, 1], [-5, -1]]), 5, F(1), precision=3)
    assert [repr(c) for c in w.vector] == ["69*5^0+O(5^3)", "1*5^0+O(5^3)"]
    assert w.rho == 0 and w.constant and w.exponents == (F(0),) * 21
    assert len(seen) == 21
    assert all(isinstance(c, PadicNumber) for x in seen for c in x)


def test_witness_oracle_diag():
    w = nonhyperbolicity_witness(DIAG, 2, F(1))
    assert w.constant is True
    assert w.rho == F(0)
    assert list(w.vector) == [F(0), F(1), F(0)]
    assert len(w.exponents) == 21
    assert len(set(w.exponents)) == 1


def test_witness_unipotent():
    m = _mat([[1, 1], [0, 1]])
    w = nonhyperbolicity_witness(m, 3, F(1))
    assert w.constant is True


def test_witness_refuses_a_negative_horizon():
    """A negative horizon is refused with dynamics' message, not answered
    with no exponents and a constancy claim; horizon 0 reads one."""
    m = _mat([[1, 0], [0, 2]])
    with pytest.raises(PreconditionViolated, match=r"^horizon must be >= 0, got -1$"):
        nonhyperbolicity_witness(m, 2, F(1), horizon=-1)
    w = nonhyperbolicity_witness(m, 2, F(1), horizon=0)
    assert w.exponents == (F(0),) and w.constant


def test_witness_requires_nonhyperbolic():
    with pytest.raises(PreconditionViolated):
        nonhyperbolicity_witness(BENCH, 2, F(1))


# -- exact slope factors -----------------------------------------------------


def _product(p, factors):
    cs = [F(1)]
    for fac in factors:
        cs = _pmul(cs, [F(c) for c in fac], RationalContext(p))
    return cs


def _companion(cs):
    """Companion matrix of the monic polynomial with coefficients cs."""
    n = len(cs) - 1
    return [[F(int(i == j + 1)) if j < n - 1 else -F(cs[i]) for j in range(n)]
            for i in range(n)]


def _block_diag(*blocks):
    d = sum(len(b) for b in blocks)
    out = [[F(0)] * d for _ in range(d)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off:off + len(b)] = row
        off += len(b)
    return out


# (p, monic factors of the charpoly, {rho: exact slope factor}); every slope
# factor is known by construction
RATIONAL_SLOPE_CASES = [
    # t^2 + t + p has roots of valuation 0 and 1, and no rational factor
    (3, [[3, 1, 1]], {}),
    (5, [[5, 1, 1]], {}),
    # t - 3 shares slope 1 and t - 2 slope 0 with the pieces of t^2 + t + 3
    (3, [[3, 1, 1], [-3, 1], [-2, 1], [-9, 1]], {F(2): [-9, 1]}),
    # repeated factors, t^k and negative slopes; t - 3 meets the repeated
    # mixed factor at slope 0
    (2, [[0, 1], [0, 1], [F(-1, 2), 1], [F(-1, 2), 1], [F(-1, 4), 1], [-3, 1],
         [2, 1, 1], [2, 1, 1]],
     {INF: [0, 0, 1], F(-1): [F(1, 4), -1, 1], F(-2): [F(-1, 4), 1]}),
    # band (0, 1] holds slopes 1/2 and 2/3: g_1/2 = t^2 - 2 is rational, the
    # 2/3 piece of t^4 + 4t + 32 is not, and its slope-3 root is not either
    (2, [[-2, 0, 1], [32, 4, 0, 0, 1]], {F(1, 2): [-2, 0, 1]}),
    # both slopes of the band rational
    (2, [[-2, 0, 1], [-4, 0, 0, 1], [-1, 1]],
     {F(1, 2): [-2, 0, 1], F(2, 3): [-4, 0, 0, 1], F(0): [-1, 1]}),
    # one slope: the core itself
    (3, [[F(1, 9), F(2, 3), 1], [F(-1, 3), 1]],
     {F(-1): [F(-1, 27), F(-1, 9), F(1, 3), 1]}),
]


@pytest.mark.parametrize("p,factors,want", RATIONAL_SLOPE_CASES)
def test_rational_factors_oracle(p, factors, want):
    got = _rational_factors(Polynomial(tuple(_product(p, factors)), p))
    assert got == {rho: [F(c) for c in cs] for rho, cs in want.items()}


def test_monic_scale_is_minimal():
    # (t - 1/2)^2 (t - 1/4) (t - 3): 4^4 c(t/4) is integral, the lcm of the
    # denominators (16) is not needed
    cs = _product(2, [[F(-1, 2), 1], [F(-1, 2), 1], [F(-1, 4), 1], [-3, 1]])
    assert _monic_scale(cs) == 4
    assert _monic_scale(_product(3, [[F(1, 9), 0, 1]])) == 3


def test_two_slopes_in_one_band_blocks():
    # kernel_basis certifies the blocks for this S; for most other S it still
    # raises RankUncertified (the slope-mixed-kernel defect, ROADMAP item 2)
    m = conjugated_companion(random.Random(0), ONE_BAND, 2)
    data = spectral_data(m, 2)
    assert {b.rho: b.dim for b in data.blocks} == {F(3, 2): 2, F(5, 3): 3}


def test_shared_band_blocks_rational_and_padic():
    # over Q_2, (t^2 - 2)(t^4 + 4t + 32): the slope-1/2 block keeps an exact
    # basis, the slopes 2/3 and 3 get p-adic ones
    m = _block_diag(_companion([-2, 0, 1]), _companion([32, 4, 0, 0, 1]))
    blocks = {b.rho: b for b in spectral_data(m, 2).blocks}
    assert {rho: b.dim for rho, b in blocks.items()} == {F(1, 2): 2, F(2, 3): 3, F(3): 1}
    assert all(isinstance(x, F) for v in blocks[F(1, 2)].basis for x in v)
    for rho in (F(2, 3), F(3)):
        assert any(isinstance(x, PadicNumber) for v in blocks[rho].basis for x in v)
