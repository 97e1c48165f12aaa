"""Linear and polynomial algebra: elimination, characteristic polynomials,
Newton polygons, slope factorization, invariant lattices."""

import random
from fractions import Fraction
from math import inf as INF, lcm

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ultradyn.errors import PrecisionExhausted, PreconditionViolated, RankUncertified
from ultradyn.field import (PadicContext, PadicNumber, RationalContext,
                           valuation_of_rational)
from ultradyn import spectral
from ultradyn.polyalg import (
    Polynomial,
    _charpoly_hessenberg,
    _zinverse,
    _zkernel,
    _zunit_lattice,
    _zmat,
    _zscale,
    coerce,
    charpoly,
    cmat,
    invariant_unit_lattice,
    kernel_basis,
    mat_inverse,
    mat_mul,
    newton_polygon,
    row_reduce,
    slope_factorization,
    solve,
)

from helpers import ONE_BAND, frac_block, int_block, rand_conjugated, unimodular
from reference import PiElement, PiRing, fraction_row_reduce, reference_restrict


F = Fraction


def _mat(rows):
    return [[F(c) for c in r] for r in rows]


# -- elimination -------------------------------------------------------------


def test_kernel_oracle():
    ker = kernel_basis(_mat([[2, 8], [1, 4]]), 2)
    assert len(ker) == 1
    v = ker[0]
    assert v[0] * F(1) + v[1] * F(4, 1) / 4 is not None
    # kernel member: 2a + 8b = 0 and a + 4b = 0
    a, b = v
    assert 2 * a + 8 * b == 0 and a + 4 * b == 0


def test_solve_square_rational():
    ctx = RationalContext(3)
    x = solve(cmat(_mat([[1, 2], [3, 4]]), ctx), _mat([[5, 1], [11, 0]]), ctx)
    assert x == _mat([[1, -2], [2, F(3, 2)]])


def test_solve_overdetermined_consistent():
    x = solve(_mat([[1, 0], [0, 1], [1, 1]]), _mat([[2], [3], [5]]), RationalContext(2))
    assert x == _mat([[2], [3]])


def test_solve_inconsistent():
    with pytest.raises(PreconditionViolated, match="^inconsistent linear system$"):
        solve(_mat([[1, 0], [0, 1], [1, 1]]), _mat([[2], [3], [4]]), RationalContext(2))


@pytest.mark.parametrize("rhs", [[[1], [2]], [[1], [3]]])
def test_solve_rank_deficient(rhs):
    # a missing pivot is reported before an inconsistent row
    with pytest.raises(PreconditionViolated, match="^matrix not invertible$"):
        solve(_mat([[1, 2], [2, 4]]), _mat(rhs), RationalContext(2))


@pytest.mark.parametrize("ctx", [RationalContext(2), PadicContext(2)])
def test_solve_empty(ctx):
    assert solve([], [], ctx) == []
    assert mat_inverse([], ctx) == []


def test_solve_padic_o_term_pivot():
    ctx = PadicContext(2, precision=10)
    a = [[PadicNumber.o_term(2, 3), ctx.one], [PadicNumber.o_term(2, 4), ctx.zero]]
    with pytest.raises(RankUncertified, match="^pivot in column 0 indistinguishable from zero$"):
        solve(a, [[ctx.one], [ctx.one]], ctx)
    # beside a certainly nonzero entry the O-term is passed over
    a[1][0] = ctx.from_rational(F(4))
    x = solve(a, [[ctx.one], [ctx.one]], ctx)
    assert [ctx.val(c) for c, in x] == [-2, 0]


def test_inverse_roundtrip_random():
    rng = random.Random(7)
    ctx = RationalContext(2)
    for _ in range(10):
        s = unimodular(rng, 4)
        sinv = mat_inverse(cmat(s, ctx), ctx)
        prod = mat_mul(s, sinv)
        assert prod == [[F(int(i == j)) for j in range(4)] for i in range(4)]


_entries = st.one_of(st.just(F(0)), st.fractions(-9, 9, max_denominator=12))
_primes = st.sampled_from((2, 3, 5))


@st.composite
def _systems(draw):
    """(A, rhs or None): up to 5 x 5, with a row a multiple of the first
    (rank deficiency) and a zero column now and then."""
    n, m, k = draw(st.integers(0, 5)), draw(st.integers(0, 5)), draw(st.integers(1, 3))
    a = [[draw(_entries) for _ in range(m)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        c = draw(st.fractions(-3, 3, max_denominator=4))
        a[draw(st.integers(1, n - 1))] = [c * x for x in a[0]]
    if m and draw(st.booleans()):
        j = draw(st.integers(0, m - 1))
        for row in a:
            row[j] = F(0)
    rhs = [[draw(_entries) for _ in range(k)] for _ in range(n)] if draw(st.booleans()) else None
    return a, rhs


@given(_systems(), _primes)
@example(([], None), 2)
@example(([], []), 2)
@example(([[F(3, 4)]], None), 3)
@example(([[F(3, 4)]], [[F(1, 6)]]), 3)
@example(([[F(0)]], [[F(1)]]), 5)
@example(([[F(1), F(2), F(3)], [F(2), F(4), F(7)]], [[F(1)], [F(1, 2)]]), 2)
@example(([[F(1), F(2)], [F(2), F(4)], [F(0), F(0)]], [[F(1)], [F(2)], [F(0)]]), 2)
@example(([[F(0), F(1, 2)], [F(0), F(1, 3)]], None), 3)
def test_row_reduce_rational_matches_fraction_gauss_jordan(system, p):
    a, rhs = system
    rows, pivots, aug = row_reduce(a, RationalContext(p), rhs)
    want_rows, want_pivots, want_aug = fraction_row_reduce(a, rhs)
    assert pivots == want_pivots
    assert rows == want_rows and all(type(x) is F for r in rows for x in r)
    if rhs is None:
        assert aug is None
        return
    r = len(pivots)
    consistent = all(x == 0 for row in want_aug[r:] for x in row)
    assert consistent == all(x == 0 for row in aug[r:] for x in row)
    if consistent:
        assert aug == want_aug and all(type(x) is F for row in aug for x in row)


@st.composite
def _solvable_systems(draw):
    """(A, X): A up to 5 x 4 with at least as many rows as columns, X with
    1 to 3 columns; A may be rank deficient."""
    m = draw(st.integers(0, 4))
    n, k = draw(st.integers(m, 5)), draw(st.integers(1, 3))
    a = [[draw(_entries) for _ in range(m)] for _ in range(n)]
    if n >= 2 and m and draw(st.booleans()):
        a[-1] = [F(2) * x for x in a[0]]
    return a, [[draw(_entries) for _ in range(k)] for _ in range(m)]


@given(_solvable_systems(), _primes)
def test_solve_rational_matches_fraction_gauss_jordan(system, p):
    a, x = system
    k = len(x[0]) if x else 1
    b = [[sum((row[l] * x[l][j] for l in range(len(x))), F(0)) for j in range(k)]
         for row in a]
    _, pivots, want = fraction_row_reduce(a, b)
    if len(pivots) < len(x):
        with pytest.raises(PreconditionViolated, match="^matrix not invertible$"):
            solve(a, b, RationalContext(p))
        return
    got = solve(a, b, RationalContext(p))
    assert got == x == want[:len(x)] and all(type(c) is F for row in got for c in row)


# -- integer kernels, inverses and restrictions against Fraction references --


def _fraction_kernel(a):
    """kernel_basis over Q as a Fraction Gauss-Jordan gives it: one vector
    per free column, 1 there, 0 at the other free columns and minus the
    pivot rows' entries at the pivot columns."""
    rows, pivots, _ = fraction_row_reduce(a)
    ncols = len(a[0]) if a else 0
    out = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v = [F(0)] * ncols
        v[fc] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -rows[r][fc]
        out.append(v)
    return out


def _fraction_inverse(w):
    n = len(w)
    _, pivots, inv = fraction_row_reduce(w, [[F(int(i == j)) for j in range(n)] for i in range(n)])
    assert len(pivots) == n
    return inv


def _seeded_matrices(rng, count):
    """n x m rational matrices, n, m <= 6, entries -9..9 over 1, 2, 3, 4, 6
    or 9 (so negative pivots and several denominators per row), a zero
    column now and then, and rows past a drawn rank replaced by integer
    combinations of the rows before them."""
    for _ in range(count):
        n, m = rng.randint(0, 6), rng.randint(1, 6)
        a = [[F(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(m)]
             for _ in range(n)]
        if m > 1 and rng.random() < 0.3:
            j = rng.randrange(m)
            for row in a:
                row[j] = F(0)
        for i in range(rng.randint(1, n + 1) if n else 1, n):
            a[i] = [sum((rng.randint(-2, 2) * a[k][j] for k in range(i)), F(0))
                    for j in range(m)]
        yield a


def _scaled(pairs, rng):
    """The (D, u) pairs times 1, 2 or 6 each: denominators not in lowest terms."""
    out = []
    for den, u in pairs:
        k = rng.choice((1, 2, 6))
        out.append((k * den, [k * x for x in u]))
    return out


def test_integer_kernels_match_fraction_references():
    """The integer kernel (_zkernel) and the public kernel_basis and solve
    over Q give exactly the Fractions of a plain Fraction Gauss-Jordan, on
    seeded matrices with negative pivots, mixed denominators and rank
    deficiency, and on 0 x 0, 1 x 1 and zero matrices.  The column-scaled
    inverse of the analysis, W^-1 = diag(D_j) U^-1 read off _zkernel, equals
    the Fraction inverse of W for (D_j, u_j) columns whose D_j are not in
    lowest terms (_zinverse), and so does mat_inverse over Q, which is
    solve(m, I) by row_reduce's integer elimination; a singular square
    matrix raises."""
    rng = random.Random(22)
    cases = [[], [[F(0)]], [[F(-3, 4)]], [[F(0), F(0)], [F(0), F(0)]],
             [[F(-2), F(4), F(1, 3)], [F(1), F(-2), F(5)]]] + list(_seeded_matrices(rng, 150))
    ranks, singular = set(), set()
    for a in cases:
        want = _fraction_kernel(a)
        got = [[F(x, den) for x in u] for den, u in _zkernel([_zscale(r)[1] for r in a])]
        assert got == want, a
        for p in (2, 3):
            basis = kernel_basis(a, p)
            assert basis == want and all(type(x) is F for v in basis for x in v), a
        n, m = len(a), len(a[0]) if a else 0
        ranks.add((n, m, m - len(want)))
        if n == m and len(want) == 0:
            b = [[F(rng.randint(-5, 5), rng.choice((1, 7))) for _ in range(2)] for _ in range(n)]
            assert solve(a, b, RationalContext(3)) == fraction_row_reduce(a, b)[2], a
            cols = [list(c) for c in zip(*a)]
            pairs = _scaled([_zscale(c) for c in cols], rng)
            block = spectral.SpectralBlock(F(0), n, tuple(map(tuple, cols)), pairs)
            data = spectral.SpectralData(3, Polynomial((F(1),), 3), (block,) if n else ())
            assert data._winv == _fraction_inverse(a), a
            assert [[F(x, den) for x in row] for den, row in _zinverse(pairs)] == data._winv
            assert mat_inverse(a, RationalContext(3)) == data._winv, a
        elif n == m:
            singular.add(n)
            with pytest.raises(PreconditionViolated, match="not invertible"):
                mat_inverse(a, RationalContext(3))
    assert any(r < min(n, m) for n, m, r in ranks)  # rank-deficient cases were drawn
    assert {(0, 0, 0), (1, 1, 0), (1, 1, 1)} <= ranks
    assert {1, 2} <= singular


def _lattice_fractions(lattice):
    """_zunit_lattice's (k, W's column pairs, W^-1's row pairs) as
    invariant_unit_lattice's (k, W, W^-1) over Fractions."""
    ks, cols, rows = lattice
    return (ks, [[F(u[i], den) for den, u in cols] for i in range(len(cols))],
            [[F(x, den) for x in row] for den, row in rows])


def test_integer_restrictions_and_inverses_match_fraction_references():
    """Over Q each block restriction, from the block's integer kernel
    vectors with denominators not in lowest terms, is (den, A) with
    A / den the Fraction reference restriction and den the lcm of its
    denominators; each integer lattice, read as Fractions, is the ring
    builder's (k, W, W^-1) on A / den, and its W^-1 and each nilpotent
    block's t equal the Fraction inverses of the W and the chains they come
    with."""
    rng = random.Random(23)
    seen = set()
    for p in (2, 3, 5):
        for _ in range(12):
            m, _, _ = rand_conjugated(rng, p, rng.randint(1, 5))
            data = spectral.spectral_data(m, p)
            for b in data.blocks:
                basis = [list(v) for v in b.basis]
                rest = spectral._restrict(_zmat(m), _scaled(b._zbasis, rng), RationalContext(p))
                assert rest == _zmat(reference_restrict(m, basis)), (m, b.rho)
                seen.add(b.dim)
                if b.rho != INF:
                    ks, w, winv = _lattice_fractions(
                        _zunit_lattice(*rest, p, *F(b.rho).as_integer_ratio()))
                    r = [[F(x, rest[0]) for x in row] for row in rest[1]]
                    assert (ks, w, winv) == invariant_unit_lattice(r, p, b.rho), (m, b.rho)
                    assert winv == _fraction_inverse(w), (m, b.rho)
            for nb in spectral.adapted_norm(m, p, data=data).blocks:
                if nb.rho == INF:
                    seen.add("nilpotent")
                    assert [list(r) for r in nb.t] == _fraction_inverse([list(r) for r in nb.tinv])
    assert {1, 2, "nilpotent"} <= seen


# -- characteristic polynomial ----------------------------------------------


def test_charpoly_oracle():
    cp = charpoly(_mat([[0, 8], [1, 2]]), 2)
    assert [F(c) for c in cp.coeffs] == [F(-8), F(-2), F(1)]


def _companion(g):
    """Companion matrix of monic g (ascending coefficients); charpoly g."""
    k = len(g) - 1
    c = [[F(0)] * k for _ in range(k)]
    for i in range(k):
        if i:
            c[i][i - 1] = F(1)
        c[i][k - 1] = -g[i]
    return c


def _polymul(a, b):
    out = [F(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _block_diag(blocks):
    d = sum(len(b) for b in blocks)
    m = [[F(0)] * d for _ in range(d)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            m[off + i][off:off + len(b)] = row
        off += len(b)
    return m


def _rand_factor(rng, p, k):
    """Random monic degree-k g in Q[t] with coefficients of mixed valuation;
    t^k, or g with zero t^(k-1) and t^(k-2) terms, now and then."""
    g = [F(rng.randint(-6, 6), rng.choice((1, 2, 3))) * F(p) ** rng.randint(-2, 3)
         for _ in range(k)] + [F(1)]
    kind = rng.random()
    if kind < 0.15:
        g = [F(0)] * k + [F(1)]
    elif kind < 0.3 and k >= 3:
        g[k - 1] = g[k - 2] = F(0)
    return g


def _reversed(m):
    """P m P^-1 for the order-reversing permutation P."""
    return [row[::-1] for row in m[::-1]]


def _conj(s, m, p):
    """S m S^-1 over Q."""
    ctx = RationalContext(p)
    return mat_mul(mat_mul(s, m), mat_inverse(cmat(s, ctx), ctx))


def test_charpoly_oracle_companion_blocks():
    # S diag(C(g_1), ..., C(g_k)) S^-1 has charpoly g_1 ... g_k exactly
    rng = random.Random(2024)
    for d in range(1, 9):
        for _ in range(12):
            p = rng.choice((2, 3, 5))
            sizes = []
            while sum(sizes) < d:
                sizes.append(rng.randint(1, min(3, d - sum(sizes))))
            gs = [_rand_factor(rng, p, k) for k in sizes]
            want = [F(1)]
            for g in gs:
                want = _polymul(want, g)
            m = _conj(unimodular(rng, d), _block_diag([_companion(g) for g in gs]), p)
            cp = charpoly(m, p)
            assert list(cp.coeffs) == want
            assert all(type(c) is F for c in cp.coeffs)


@pytest.mark.parametrize("d", range(1, 9))
def test_charpoly_oracle_pivot_swaps(d):
    # inputs whose Hessenberg reduction meets zero or non-minimal pivots
    rng = random.Random(d)
    p = 2
    t_d = [F(0)] * d + [F(1)]
    shift = [[F(int(j == i + 1)) for j in range(d)] for i in range(d)]
    s = unimodular(rng, d)
    # g with zero t^(d-1), t^(d-2) terms: its reversed companion has a zero
    # diagonal and a zero first subdiagonal entry
    g = [F(rng.choice((1, 3, 5))) * F(p) ** rng.randint(-2, 2)] + \
        [F(rng.randint(-4, 4)) * p for _ in range(1, d)] + [F(1)]
    if d >= 3:
        g[d - 1] = g[d - 2] = F(0)
    zero_diag = _reversed(_companion(g))
    assert d < 3 or all(zero_diag[i][i] == 0 for i in range(d))
    cases = [
        ([[F(0)] * d for _ in range(d)], t_d),
        (shift, t_d),
        (_reversed(shift), t_d),
        (_conj(s, shift, p), t_d),
        (zero_diag, g),
        (_conj(s, zero_diag, p), g),
    ]
    for m, want in cases:
        cp = charpoly(m, p)
        assert list(cp.coeffs) == want
        assert all(type(c) is F for c in cp.coeffs)


def test_charpoly_padic_matches_rational():
    rng = random.Random(11)
    for _ in range(5):
        m, _, _ = rand_conjugated(rng, 3, 4, allow_fractional=False)
        exact = charpoly(m, 3)
        ctx = PadicContext(3, 64)
        approx = charpoly(cmat(m, ctx), 3)
        for ce, ca in zip(exact.coeffs, approx.coeffs):
            diff = ctx.from_rational(F(ce)) - ca
            assert diff.is_exact_zero or diff.val >= 48


@st.composite
def _square_matrices(draw):
    """Square matrices up to 6 x 6: arbitrary, singular, or nilpotent (a
    strictly upper triangular matrix conjugated by a unimodular one)."""
    n = draw(st.integers(0, 6))
    kind = draw(st.sampled_from(("any", "singular", "nilpotent")))
    m = [[draw(_entries) for _ in range(n)] for _ in range(n)]
    if kind == "singular" and n >= 2:
        m[-1] = [x + 2 * y for x, y in zip(m[0], m[1])]
    if kind == "nilpotent":
        m = [[x if j > i else F(0) for j, x in enumerate(row)] for i, row in enumerate(m)]
        m = _conj(unimodular(random.Random(draw(st.integers(0, 999))), n), m, 2)
    return kind, m


@given(_square_matrices(), _primes)
def test_charpoly_rational_matches_hessenberg(case, p):
    kind, m = case
    cp = charpoly(m, p)
    assert repr(cp) == repr(_charpoly_hessenberg(cmat(m, RationalContext(p)), p, RationalContext(p)))
    if kind == "nilpotent":
        assert list(cp.coeffs) == [F(0)] * len(m) + [F(1)]


# -- Newton polygon ----------------------------------------------------------


def _expand(pairs):
    """Flatten (valuation, multiplicity) pairs into a multiset list."""
    return [v for v, m in pairs for _ in range(m) if v != INF]


def test_polygon_oracle():
    f = Polynomial.from_rationals([F(-8), F(-2), F(1)], 2)
    np_ = newton_polygon(f)
    assert np_.inf_multiplicity == 0
    # roots of t^2 - 2t - 8 = (t-4)(t+2): valuations 2 and 1
    assert sorted(_expand(np_.root_valuations)) == [F(1), F(2)]


def test_polygon_with_zero_roots():
    f = Polynomial.from_rationals([F(0), F(0), F(3), F(1)], 3)
    np_ = newton_polygon(f)
    assert np_.inf_multiplicity == 2
    assert (INF, 2) in np_.root_valuations


def test_polygon_refuses_coefficients_of_another_prime():
    """A polynomial declared over Q_5 with 3-adic coefficients has no
    5-adic Newton polygon to read off them."""
    f = Polynomial(tuple(PadicNumber.from_rational(c, 3) for c in (9, 1, 1)), 5)
    with pytest.raises(PreconditionViolated, match="prime mismatch"):
        newton_polygon(f)
    with pytest.raises(PreconditionViolated, match="prime mismatch"):
        slope_factorization(f)
    with pytest.raises(PreconditionViolated, match="prime mismatch"):
        kernel_basis([[PadicNumber.from_rational(1, 3)]], 5)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_polygon_of_product_is_multiset_union(p):
    rng = random.Random(p)
    for _ in range(10):
        vals = rng.sample(range(-3, 4), k=3)
        coeffs = [F(1)]
        for v in vals:
            root = F(p) ** v * F(rng.choice([1, -1, 1 + p]))
            new = [F(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= root * c
            coeffs = new
        f = Polynomial.from_rationals(coeffs, p)
        np_ = newton_polygon(f)
        assert sorted(_expand(np_.root_valuations)) == sorted(F(v) for v in vals)


# -- slope factorization -----------------------------------------------------


def test_slope_factorization_oracle_split_cubic():
    # (t-1)(t-2)(t-8) = t^3 - 11 t^2 + 26 t - 16
    f = Polynomial.from_rationals([F(-16), F(26), F(-11), F(1)], 2)
    fac = slope_factorization(f)
    assert [(s.root_valuation, s.multiplicity) for s in fac] == \
        [(F(3), 1), (F(1), 1), (F(0), 1)]


def test_slope_factorization_oracle_ramified():
    f = Polynomial.from_rationals([F(0), F(-2), F(0), F(1)], 2)  # t^3 - 2t
    fac = slope_factorization(f)
    assert [(s.root_valuation, s.multiplicity) for s in fac] == \
        [(INF, 1), (F(1, 2), 2)]


def _factor_product_matches(fac, coeffs, p):
    """The product of the slope factors equals coeffs to the certified
    precision."""
    ctx = PadicContext(p, 400)
    prod = [ctx.one]
    for s in fac:
        fc = [coerce(c, ctx) for c in s.factor.coeffs]
        new = [ctx.zero] * (len(prod) + len(fc) - 1)
        for i, a in enumerate(prod):
            for j, b in enumerate(fc):
                new[i + j] = new[i + j] + a * b
        prod = new
    return len(prod) == len(coeffs) and all(
        ctx.val(got - coerce(want, ctx)) >= min(s.certified_precision for s in fac)
        for got, want in zip(prod, coeffs))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_slope_factorization_product_property(p):
    """Factor product reproduces the input to the certified precision."""
    rng = random.Random(100 + p)
    for _ in range(8):
        vals = rng.sample(range(-2, 3), k=rng.randint(2, 3))
        coeffs = [F(1)]
        for v in vals:
            root = F(p) ** v * F(rng.choice([1, -1, p + 1, 2 * p + 1]))
            new = [F(0)] * (len(coeffs) + 1)
            for i, c in enumerate(coeffs):
                new[i + 1] += c
                new[i] -= root * c
            coeffs = new
        f = Polynomial.from_rationals(coeffs, p)
        fac = slope_factorization(f, precision=40)
        assert sorted(s.root_valuation for s in fac) == sorted(F(v) for v in vals)
        assert _factor_product_matches(fac, coeffs, p)


def _congruent(got, want, p, n):
    """Factor coefficients got agree with the rationals want mod p^n."""
    ctx = PadicContext(p, 400)
    return len(got) == len(want) and all(
        ctx.val(coerce(g, ctx) - coerce(F(w), ctx)) >= n for g, w in zip(got, want))


def test_slope_factorization_two_slopes_in_one_band():
    fac = slope_factorization(Polynomial.from_rationals(ONE_BAND, 2), precision=64)
    assert [(s.root_valuation, s.multiplicity) for s in fac] == [(F(5, 3), 3), (F(3, 2), 2)]
    assert min(s.certified_precision for s in fac) >= 64
    assert _factor_product_matches(fac, ONE_BAND, 2)


@pytest.mark.parametrize("precision", [7, 16, 32])
def test_slope_factorization_padic_input_below_default_precision(precision):
    # (t - 5)^2 (t^3 - 25) over Q_5 with every coefficient given mod 5^56
    f = _polymul([F(25), F(-10), F(1)], [F(-25), 0, 0, F(1)])
    pf = [PadicNumber.from_rational(c, 5, 56 - int(valuation_of_rational(c, 5))) for c in f]
    fac = slope_factorization(Polynomial(tuple(pf), 5), precision=precision)
    assert [(s.root_valuation, s.multiplicity) for s in fac] == [(F(1), 2), (F(2, 3), 3)]
    assert _congruent(fac[0].factor.coeffs, [25, -10, 1], 5, precision)
    assert _congruent(fac[1].factor.coeffs, [-25, 0, 0, 1], 5, precision)


@pytest.mark.parametrize("n", [40, 56, 80])
def test_slope_factor_padic_input_certifies_its_own_accuracy(n):
    # (t - 5)^2 (t^3 - 25) over Q_5 given mod 5^n: the product matches the
    # input mod 5^n, but each factor is right only to about n minus the
    # valuation of the resultant between them
    f = _polymul([F(25), F(-10), F(1)], [F(-25), 0, 0, F(1)])
    pf = [PadicNumber.from_rational(c, 5, n - int(valuation_of_rational(c, 5))) for c in f]
    fac = slope_factorization(Polynomial(tuple(pf), 5), precision=32)
    for s, want in zip(fac, ([25, -10, 1], [-25, 0, 0, 1])):
        assert s.certified_precision >= 32
        assert _congruent(s.factor.coeffs, want, 5, s.certified_precision)


def _o_term_quartic(o_terms):
    """(t^3 - 25)(t - 1) over Q_5 given mod 5^40, with coefficient i given
    as O(5^o) for each (i, o) in o_terms."""
    f = _polymul([F(-25), 0, 0, F(1)], [F(-1), F(1)])
    pf = [PadicNumber.from_rational(c, 5, 40 - int(valuation_of_rational(c, 5))) if c
          else PadicNumber.zero(5) for c in f]
    for i, o in o_terms:
        pf[i] = PadicNumber.o_term(5, o)
    return Polynomial(tuple(pf), 5)


def test_o_term_above_the_polygon_is_ignored():
    # the zero t^2 coefficient known only as O(5^40): (2, 40) lies far above
    # the hull through (0, 2), (3, 0), (4, 0), so no value of it moves a slope
    f = _o_term_quartic([(2, 40)])
    assert newton_polygon(f).segments == ((F(2, 3), 3), (F(0), 1))
    fac = slope_factorization(f, precision=16)
    assert [(s.root_valuation, s.multiplicity) for s in fac] == [(F(2, 3), 3), (F(0), 1)]
    assert _congruent(fac[0].factor.coeffs, [-25, 0, 0, 1], 5, 16)
    assert _congruent(fac[1].factor.coeffs, [-1, 1], 5, 16)


@pytest.mark.parametrize("o_term", [(2, 0), (0, 40)], ids=["below-hull", "constant"])
def test_o_term_that_may_move_the_polygon_raises(o_term):
    # O(5^0) at t^2 lies below the hull (2/3 there); an O-term constant
    # coefficient may be zero, which would add a root of valuation INF
    f = _o_term_quartic([o_term])
    with pytest.raises(PrecisionExhausted, match=f"coefficient {o_term[0]} "):
        newton_polygon(f)
    with pytest.raises(PrecisionExhausted):
        slope_factorization(f, precision=16)


@pytest.mark.parametrize("p,factors,slopes", [
    # (t - 81)(t - 1/27): root valuations 4 and -3
    (3, [[-81, 1], [F(-1, 27), 1]], [(F(4), 1), (F(-3), 1)]),
    # (t - 100)(t^2 - 2t - 2/5): root valuations 2 and -1/2 (x2)
    (5, [[-100, 1], [F(-2, 5), -2, 1]], [(F(2), 1), (F(-1, 2), 2)]),
])
def test_slope_factorization_far_slopes_at_low_precision(p, factors, slopes):
    f = _polymul(*[[F(c) for c in g] for g in factors])
    fac = slope_factorization(Polynomial.from_rationals(f, p), precision=16)
    assert [(s.root_valuation, s.multiplicity) for s in fac] == slopes
    for s, g in zip(fac, factors):
        assert s.certified_precision >= 16
        assert _congruent(s.factor.coeffs, g, p, 16)


# -- invariant lattices ------------------------------------------------------


def test_invariant_lattice_requires_flat_polygon():
    with pytest.raises(PreconditionViolated):
        invariant_unit_lattice(_mat([[F(1, 2), 0], [0, 1]]), 2)
    with pytest.raises(PreconditionViolated):  # scaled by 2^-1: valuations 0 and -1
        invariant_unit_lattice(_mat([[2, 0], [0, 1]]), 2, 1)


@pytest.mark.parametrize("b,p", [
    (int_block(3, -1, 2), 3),   # eigenvalue 1/3, twice, in a Jordan block
    (frac_block(2, -1, 2), 2),  # companion of t^2 - 1/2: valuation -1/2
])
def test_invariant_lattice_rejects_non_integral_block(b, p):
    """Passed unscaled, a block with an eigenvalue of negative valuation
    maps every lattice outside itself."""
    with pytest.raises(PreconditionViolated):
        invariant_unit_lattice(b, p)


@pytest.mark.parametrize("b,p,rho", [
    (frac_block(2, 1, 2), 2, 1),        # t^2 - 2 scaled by pi^-2: valuation -1/2
    (frac_block(3, 1, 3), 3, F(2, 3)),  # t^3 - 3 scaled by pi^-2: valuation -1/3
])
def test_invariant_lattice_rejects_block_scaled_past_its_slope(b, p, rho):
    """Scaled by pi^-n past its slope, a block gets an eigenvalue of negative
    valuation, which the certificate's pi-offsets (d n + k_j)/e must catch."""
    with pytest.raises(PreconditionViolated):
        invariant_unit_lattice(b, p, rho)


def test_invariant_lattice_property():
    """The returned lattice L = W diag(pi^k), pi^e = p, is genuinely
    invariant under B = pi^-n R for rho = n/e: W is lower triangular with
    W W^-1 = I, and L^-1 B L is integral."""
    cases = [
        (_mat([[1, F(1, 2)], [0, 1]]), 2, F(0)),
        (_mat([[0, F(1, 3)], [-3, 1]]), 3, F(0)),   # det unit, flat polygon
        (frac_block(2, 1, 2), 2, F(1, 2)),
        (frac_block(5, 2, 3), 5, F(2, 3)),
        (_mat([[3, 1], [0, 3]]), 3, F(1)),
    ]
    rng = random.Random(5)
    ctx = RationalContext(2)
    for _ in range(6):
        s = unimodular(rng, 3)
        d = _mat([[1, 1, 0], [0, 1, F(1, 4)], [0, 0, 1]])
        cases.append((mat_mul(mat_mul(s, d), mat_inverse(cmat(s, ctx), ctx)), 2, F(0)))
    s = unimodular(rng, 3)
    cases.append((mat_mul(mat_mul(s, frac_block(2, 1, 3)), mat_inverse(cmat(s, ctx), ctx)),
                  2, F(1, 3)))
    for r, p, rho in cases:
        ks, w, winv = invariant_unit_lattice(r, p, rho)
        d, e = len(r), rho.denominator
        assert all(w[i][j] == 0 for i in range(d) for j in range(i + 1, d))
        assert mat_mul(w, winv) == [[F(i == j) for j in range(d)] for i in range(d)]
        ring = PiRing(p, e)
        lat = [[ring.lift(x) * PiElement.pi(p, e, k) for x, k in zip(row, ks)] for row in w]
        linv = [[ring.lift(x) * PiElement.pi(p, e, -k) for x in row]
                for k, row in zip(ks, winv)]
        b = [[ring.lift(x) * PiElement.pi(p, e, -rho.numerator) for x in row] for row in r]
        assert mat_mul(linv, lat) == [[ring.one if i == j else ring.zero for j in range(d)]
                                      for i in range(d)]
        # B maps lattice basis vectors into the lattice (integral coords)
        for row in mat_mul(linv, mat_mul(b, lat)):
            assert all(ring.val(x) >= 0 for x in row), (r, rho)


def _outcome(build):
    try:
        return build()
    except PreconditionViolated as exc:
        return str(exc)


def test_integer_lattice_matches_ring_lattice():
    """Over seeded rational blocks, d <= 6, the integer builder
    (_zunit_lattice, which adapted_norm runs over Q) and the ring builder
    (invariant_unit_lattice on the same Fractions) give the same k, W and
    W^-1, or refuse with the same message.  The blocks are S B S^-1 for
    unimodular S and one or two blocks B of integral or fractional slope
    rho, passed at rho (built) or past it (refused: B maps the Krylov
    lattice outside itself), beside generic matrices with denominators p.
    "Krylov span not full rank" cannot arise over Q, as the Krylov vectors
    include every e_i; both builders meet it on no input here."""
    rng = random.Random(33)
    seen = set()
    for p in (2, 3, 5):
        for _ in range(40):
            if rng.random() < 0.25:
                d = rng.randint(1, 6)
                r = [[F(rng.randint(-9, 9), rng.choice((1, 1, p))) for _ in range(d)]
                     for _ in range(d)]
                rho = F(rng.randint(-1, 2), rng.choice((1, 2, 3)))
            else:
                j, k = rng.randint(-1, 4), rng.randint(1, 3)
                rho = F(j, k)  # integral when k = 1 (or k divides j)
                blocks = [int_block(p, j, rng.randint(1, 3)) if k == 1 else frac_block(p, j, k)
                          for _ in range(rng.randint(1, 2))]
                d = sum(map(len, blocks))
                b = [[F(0)] * d for _ in range(d)]
                off = 0
                for blk in blocks:
                    for i, row in enumerate(blk):
                        b[off + i][off:off + len(row)] = row
                    off += len(blk)
                s = unimodular(rng, d)
                r = mat_mul(mat_mul(s, b), mat_inverse(s, RationalContext(p)))
                if rng.random() < 0.3:
                    rho += F(1, rho.denominator)
            ring = _outcome(lambda: invariant_unit_lattice(r, p, rho))
            integer = _outcome(lambda: _lattice_fractions(
                _zunit_lattice(*_zmat(r), p, *rho.as_integer_ratio())))
            assert integer == ring, (p, r, rho)
            seen.add(ring if isinstance(ring, str) else ("built", rho.denominator == 1))
    assert seen == {("built", True), ("built", False),
                    "B maps the Krylov lattice outside itself"}, seen
