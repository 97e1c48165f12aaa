"""Reuse of spectral work: one LinearAnalysis per matrix, interned by
content and bounded across calls, no Fraction T Winv for a rational adapted
norm and one for a p-adic one, one
conjugation per radius search (which finds the same k as a scan) and one
per graph reduction, which composes a non-invariant graph
only up to its first nonzero residual degree; exactness of the
per-pi-power norm_exp kernel against the Q_p(pi) product of
tests/reference.py; (T Winv)^-1 and the operator norm from the block
inverses against an inversion of the whole transform; and each finite
block's lattice, built over the base field as pi-powers times base-field
vectors, against a reference build with Q_p(pi) arithmetic over the norm's
own ring, while ExtElement has no arithmetic at all; over Q, the whole
norm build and its queries on plain integers, whose products reach the
ring helpers with ints only;
and one
MapAnalysis per map, interned by content and bounded, that conjugates F once
per norm, builds each stable graph once per gap of the spectrum, and each
orbit once per point and horizon and only when a verdict reads it, and
whose warm answers equal cold ones; each
non-hyperbolicity witness kept per (a, horizon) in the interned analysis,
so that an equal query returns the same record and steps no orbit; norms and
maps hash once, by content; and over Q a map's certification, like the
norm build, takes no ring product."""

import json
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import inf as INF

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ultradyn import cli, dynamics, manifolds, polyalg, spectral
from ultradyn.dynamics import PolyMap
from ultradyn.errors import PreconditionViolated, RankUncertified, UltradynError
from ultradyn.field import (DEFAULT_PRECISION, ExtElement, PadicNumber, RationalContext, _bval,
                            compare_threshold)
from ultradyn.polyalg import (_zmat, cmat, infer_context, kernel_basis, mat_inverse, mat_mul,
                              poly_eval_matrix)

from helpers import (_embed, block_restriction, frac_block, int_block, nilp_block, rand_vector,
                     unimodular, unscaled)
from helpers import companion, conjugated_companion, rand_conjugated, rand_poly_map
from reference import (PiElement, PiRing, ext_operator_norm, reference_exps, reference_transform,
                       reference_unit_lattice)
from test_source import load_tracing

F = Fraction


def block_diag(blocks):
    d = sum(len(b) for b in blocks)
    out = [[F(0)] * d for _ in range(d)]
    off = 0
    for b in blocks:
        _embed(out, b, off)
        off += len(b)
    return out


def conjugated(rng, blocks):
    """S * diag(blocks) * S^-1 for a random unimodular S."""
    s = unimodular(rng, sum(len(b) for b in blocks))
    ctx = RationalContext(2)
    return mat_mul(mat_mul(s, block_diag(blocks)), mat_inverse(cmat(s, ctx), ctx))


def companion_mixed(p):
    """Companion block of t^2 + t + p: roots of valuation 0 and 1, so the
    rational factor is slope-mixed and its blocks get p-adic bases."""
    return [[F(0), F(-p)], [F(1), F(-1)]]


# (name, p, matrix, expected ram); the slope-mixed matrix is left
# unconjugated, because p-adic kernels of conjugated slope-mixed matrices
# can fail with RankUncertified
CASES = [
    ("ram1-nilpotent", 3, conjugated(random.Random(1), [
        int_block(3, 1, 2), nilp_block(2), int_block(3, -1, 1)]), 1),
    ("ram2-nilpotent", 2, conjugated(random.Random(2), [
        frac_block(2, 1, 2), int_block(2, 0, 1), nilp_block(2)]), 2),
    ("ram3", 5, conjugated(random.Random(3), [frac_block(5, 2, 3), int_block(5, -1, 2)]), 3),
    ("slope-mixed", 3, block_diag([companion_mixed(3), int_block(3, 2, 1)]), 1),
]


@pytest.mark.parametrize("name,p,m,ram", CASES, ids=[c[0] for c in CASES])
def test_norm_exp_matches_ext_product(name, p, m, ram):
    rng = random.Random(name)
    n = spectral.adapted_norm(m, p)
    assert n.ram == ram
    # transform() writes out the same T Winv as the ring product of the
    # blocks' records
    ring = PiRing(p, ram)
    assert ring.mat(n.transform()) == reference_transform(n, ring)
    d = len(m)
    vecs = [rand_vector(rng, p, d) for _ in range(25)]
    vecs += [[PadicNumber.from_rational(c, p, rng.choice([12, 40])) for c in v]
             for v in vecs[:10]]
    vecs.append([F(0)] * d)
    for x in vecs:
        want = reference_exps(n, x)
        assert n._coord_exps(x) == want, x
        assert n.norm_exp(x) == min(want), x
    assert n.norm_exp([F(0)] * d) == INF


def test_slope_mixed_norm_is_padic():
    n = spectral.adapted_norm(CASES[-1][2], 3)
    assert any(isinstance(c, PadicNumber) for row in n.winv for c in row)


# -- (T Winv)^-1 and the operator norm from the block inverses ----------------


# (seed, p, d, ram, has a nilpotent block) of rand_conjugated draws
EXACT_DRAWS = [(0, 3, 5, 1, False), (2, 2, 4, 1, True), (4, 2, 4, 2, True),
               (16, 2, 4, 3, False), (8, 5, 6, 6, True)]


def inverse_from_blocks(n):
    """(T Winv)^-1 = W T^-1 over Q_p(pi), written from the base-field columns
    and pi-exponents that the norm keeps (AdaptedNorm._pi_cols)."""
    s, cols = n._pi_cols
    return [[spectral._pi_power(x, sj, n.prime, n.ram) for x, sj in zip(row, s)]
            for row in zip(*cols)]


@pytest.mark.parametrize("seed,p,d,ram,nil", EXACT_DRAWS,
                         ids=[f"ram{c[3]}{'-nilpotent' * c[4]}" for c in EXACT_DRAWS])
def test_block_inverses_match_full_inversion(seed, p, d, ram, nil):
    rng = random.Random(seed)
    m, spec, _ = rand_conjugated(rng, p, d)
    assert (INF in dict(spec)) == nil
    n = spectral.adapted_norm(m, p)
    assert n.ram == ram and len(n.blocks) >= 2
    ring = PiRing(p, ram)
    assert mat_mul(ring.mat(n.transform()), ring.mat(inverse_from_blocks(n))) == [
        [ring.one if i == j else ring.zero for j in range(d)] for i in range(d)]
    qctx = RationalContext(p)
    x = [[F(rng.randint(-9, 9), rng.choice([1, p, 3])) for _ in range(d)] for _ in range(d)]
    # x has a nonzero block off the diagonal, so skipping it would show
    xb, k = mat_mul(mat_mul(n.winv, x), n.w), len(n.blocks[0].t)
    assert any(xb[i][j] for i in range(k) for j in range(k, d))
    xs = [m, x] if nil else [m, mat_inverse(cmat(m, qctx), qctx), x]
    for a in xs:
        assert spectral.operator_norm(a, p, n) == ext_operator_norm(a, n)


def _abs_prec(c):
    """Absolute precision of a base-field coefficient: INF when exact."""
    return c.val + c.prec if isinstance(c, PadicNumber) else INF


@pytest.mark.parametrize("seed,p", [(0, 2), (4, 3), (0, 5)])
def test_block_inverses_keep_padic_precision(seed, p):
    """On p-adic bases, (T Winv)^-1 from the base-field columns the norm
    keeps agrees with the inverse by elimination to that inverse's
    precision, entry by entry and pi-power by pi-power, and never holds
    fewer digits.  (Draws whose
    p-adic kernels build at all: many conjugated slope-mixed matrices
    still raise RankUncertified, the known slope-mixed-kernel defect.)"""
    m = conjugated(random.Random(seed), [companion_mixed(p), int_block(p, 2, 2)])
    n = spectral.adapted_norm(m, p)
    ring = PiRing(p, n.ram)
    want = mat_inverse(ring.mat(n.transform()), ring)
    padic = 0
    for got_row, want_row in zip(inverse_from_blocks(n), want):
        for got, old in zip(got_row, want_row):
            for g, w in zip(got.coeffs, old.coeffs):
                prec = _abs_prec(w)
                padic += prec != INF
                assert _abs_prec(g) >= prec
                assert _bval(g - w, p) >= prec
    assert padic


# -- each finite block built over the base field ------------------------------


def norm_block_over_full_ring(m, p, b, ram):
    """The NormBlock of finite block b built by the reference lattice over
    PiRing(p, ram), the norm's own ring, with B = pi^(-rho ram) R, its
    entries written back as ExtElement records."""
    rest = block_restriction(m, b, p)
    ring = PiRing(p, ram)
    shift = PiElement.pi(p, ram, -int(b.rho * ram))
    lat, linv = reference_unit_lattice([[x * shift for x in row] for row in ring.mat(rest)],
                                       p, ring)

    def records(mat):
        return tuple(tuple(ExtElement(x.prime, x.ram, x.coeffs) for x in r) for r in mat)

    return spectral.NormBlock(b.rho, records(linv), records(lat),
                              tuple(F(0) for _ in range(b.dim)))


def smallest_ring_cases():
    """rand_conjugated draws (ram 1, 2, 3 and 6, some with nilpotent
    blocks); two slope-mixed matrices whose p-adic blocks of dimension 2 are
    lifted into a larger ring (rho = 0 into ram 2, rho = 1/2 into ram 6); and
    the companion matrix of t^3 + 2t + 4 over Q_2 in a new basis, whose
    p-adic blocks have rho = 1 and rho = 1/2."""
    for seed, p, d, _, _ in EXACT_DRAWS:
        yield p, rand_conjugated(random.Random(seed), p, d)[0]
    for seed in range(6):
        p = (2, 3, 5)[seed % 3]
        yield p, rand_conjugated(random.Random(100 + seed), p, 5)[0]
    yield 3, block_diag([companion([3, 1, 0, 1]), frac_block(3, 1, 2)])
    yield 5, block_diag([companion([25, 5, 0, 1]), frac_block(5, 1, 3)])
    yield 2, conjugated_companion(random.Random(1), [4, 2, 0, 1], 2)


def test_smallest_ring_blocks_match_full_ring_build():
    """Every finite block, rational or p-adic, in the norm's ring or lifted
    from a smaller slope denominator, equals the reference build over the
    norm's own ring; a rational basis is the kernel basis of its factor."""
    kinds = Counter()
    for p, m in smallest_ring_cases():
        an = spectral.LinearAnalysis(m, p)
        n, qctx = an.norm(), RationalContext(p)
        s, _, factors = spectral._rational_factors(an.charpoly)
        for b, nb in zip(an.data.blocks, n.blocks):
            rational = all(isinstance(c, F) for v in b.basis for c in v)
            if b.rho != INF:
                assert nb == norm_block_over_full_ring(m, p, b, n.ram), (m, b.rho)
                kinds[rational, Fraction(b.rho).denominator < n.ram] += 1
            if rational:
                g = poly_eval_matrix(unscaled(factors[b.rho], s), cmat(m, qctx), qctx)
                assert [list(v) for v in b.basis] == kernel_basis(g, p)
    # rational and p-adic blocks, each both in the norm's ring and lifted
    assert set(kinds) == {(True, True), (True, False), (False, True), (False, False)}


def assert_block_matches_reference(nb, ref, p, rational):
    """A rational block's t and tinv equal the reference's as ExtElements; a
    p-adic one agrees with it pi-slot by pi-slot to the reference's digits,
    and never holds fewer."""
    if rational:
        assert nb == ref
        return
    assert (nb.rho, nb.weights) == (ref.rho, ref.weights)
    for got, want in zip(nb.t + nb.tinv, ref.t + ref.tinv):
        for x, y in zip(got, want):
            for g, w in zip(x.coeffs, y.coeffs):
                prec = _abs_prec(w)
                assert _abs_prec(g) >= prec
                assert _bval(g - w, p) >= prec


@st.composite
def lattice_matrices(draw):
    """(p, m) with m block diagonal, or conjugated by a unimodular S, in
    blocks of integral slope, of slope with denominator 2 or 3 (so ram 1,
    2, 3 or 6), nilpotent, or with p-adic slope factors: the companion of
    t^2 + t + p (slopes 0 and 1) and of t^3 + p t + p^2 (slopes 1 and 1/2)."""
    p = draw(st.sampled_from([2, 3, 5]))
    blocks = []
    for kind in draw(st.lists(st.sampled_from(["int", "half", "third", "nilp", "mixed",
                                                "cubic"]), min_size=1, max_size=3)):
        v = draw(st.integers(-1, 2))
        blocks.append({"int": lambda: int_block(p, v, draw(st.integers(1, 2))),
                       "half": lambda: frac_block(p, 2 * v + 1, 2),
                       "third": lambda: frac_block(p, 3 * v + draw(st.sampled_from([1, 2])), 3),
                       "nilp": lambda: nilp_block(draw(st.integers(1, 2))),
                       "mixed": lambda: companion_mixed(p),
                       "cubic": lambda: companion([p * p, p, 0, 1])}[kind]())
    if draw(st.booleans()):
        return p, conjugated(random.Random(draw(st.integers(0, 99))), blocks)
    return p, block_diag(blocks)


@given(lattice_matrices())
@example((3, block_diag([companion_mixed(3), int_block(3, 2, 1)])))
@example((3, block_diag([companion_mixed(3), frac_block(3, 1, 2)])))
@example((5, block_diag([companion([25, 5, 0, 1]), frac_block(5, 1, 3)])))
@example((2, conjugated_companion(random.Random(1), [4, 2, 0, 1], 2)))
# rational only, so compared with exact ==: ram 6 conjugated, and integral
# slopes beside a nilpotent block
@example((5, conjugated(random.Random(6), [frac_block(5, 1, 2), frac_block(5, 2, 3),
                                          int_block(5, 1, 1)])))
@example((3, conjugated(random.Random(5), [int_block(3, 1, 2), nilp_block(2),
                                          int_block(3, -1, 1)])))
@settings(max_examples=30)
def test_monomial_lattices_match_reference_build(case):
    """Every finite block's t and tinv, built as pi-powers times base-field
    vectors, against the reference lattice built with Q_p(pi) arithmetic."""
    p, m = case
    an = spectral.LinearAnalysis(m, p)
    try:
        an.data
    except (RankUncertified, PreconditionViolated):
        assume(False)  # the known slope-mixed-kernel defect
    finite = [b for b in an.data.blocks if b.rho != INF]
    ram = math.lcm(1, *(b.rho.denominator for b in finite))
    try:
        blocks = an.norm().blocks
    except RankUncertified:
        # an uncertain lattice pivot (conjugated slope-mixed blocks): the
        # reference meets it too
        with pytest.raises(RankUncertified):
            for b in finite:
                norm_block_over_full_ring(m, p, b, ram)
        return
    for b, nb in zip(an.data.blocks, blocks):
        if b.rho != INF:
            rational = all(isinstance(c, F) for v in b.basis for c in v)
            assert_block_matches_reference(nb, norm_block_over_full_ring(m, p, b, ram), p,
                                           rational)


def test_norms_use_no_extension_arithmetic(monkeypatch):
    """ExtElement is a record with none of the arithmetic operators the
    benchmark's tracer counts, so adapted_norm, operator_norm, norm_exp and
    remainder_lipschitz cannot multiply or divide in Q_p(pi): each finite
    block's lattice is built and read as pi-powers times base-field vectors,
    on ram 6 and on p-adic rows alike.  Over Q with integral slopes the
    lattices are over Q."""
    dunders = load_tracing().DUNDERS
    assert "__mul__" in dunders and "__truediv__" in dunders
    assert not [d for d in dunders if hasattr(ExtElement, d)]
    lattices = []
    lattice, zlattice = spectral.invariant_unit_lattice, spectral._zunit_lattice

    def spy(r, p, rho=0, precision=None):
        out = lattice(r, p, rho, precision)
        lattices.append((rho, out))
        return out

    def zspy(dr, a, p, n, e):  # adapted_norm's rational blocks, as (D, u) pairs
        out = zlattice(dr, a, p, n, e)
        lattices.append((F(n, e), out))
        return out

    monkeypatch.setattr(spectral, "invariant_unit_lattice", spy)
    monkeypatch.setattr(spectral, "_zunit_lattice", zspy)
    # a rational matrix with integral slopes only: its lattices are over Q
    m = conjugated(random.Random(5), [int_block(3, 1, 2), int_block(3, -1, 1), nilp_block(1)])
    spectral.LinearAnalysis(m, 3).norm()
    assert len(lattices) == 2
    for rho, (_, w, winv) in lattices:
        assert rho.denominator == 1
        assert all(type(x) is int for mat in (w, winv) for den, u in mat for x in (den, *u))
    # ram 6, and the p-adic companion block of t^2 + t + 3 beside 9
    rng = random.Random(6)
    cases = [(5, conjugated(rng, [frac_block(5, 1, 2), frac_block(5, 2, 3), int_block(5, 1, 1)]), 6),
             (3, block_diag([companion([3, 1, 1]), [[F(9)]]]), 1)]
    for p, m, ram in cases:
        n = spectral.LinearAnalysis(m, p).norm()
        assert n.ram == ram
        d = len(m)
        for _ in range(5):
            n.norm_exp(rand_vector(rng, p, d))
        spectral.operator_norm(m, p, n)
        f = PolyMap.from_tables([{**{tuple(int(l == j) for l in range(d)): c
                                     for j, c in enumerate(row) if c},
                                  tuple(2 * int(l == i) for l in range(d)): F(p)}
                                 for i, row in enumerate(m)], p, d)
        dynamics.remainder_lipschitz(f, 1, n)
    assert any(isinstance(c, PadicNumber) for row in n._pi_rows[1] for c in row)


def test_rational_lattices_and_operator_norms_take_no_ring_products(monkeypatch):
    """Over Q the whole build from the matrix (the spectral data, each
    splitting, the adapted norm with its block restrictions, Jordan chains
    and lattices, the integer rows and columns) and the queries norm_exp and
    operator_norm run on plain integers: they call none of the ring solvers
    kernel_basis, mat_inverse and solve, and the product helpers mat_vec,
    mat_mul, _dot and poly_eval_matrix, which they do call, are handed
    nothing but ints, so a silent fallback to Fraction arithmetic fails (a
    forced one is caught).  A block or a norm holding PadicNumbers (the
    companion of t^2 + t + 3) keeps the ring path, and the spy sees
    PadicNumbers reach the product helpers."""
    cases = [(3, conjugated(random.Random(5), [int_block(3, 1, 2), int_block(3, -1, 1),
                                              nilp_block(2)])),
             (5, conjugated(random.Random(6), [frac_block(5, 1, 2), frac_block(5, 2, 3),
                                              int_block(5, 1, 1)])),
             (3, block_diag([companion([3, 1, 1]), [[F(9)]]]))]
    products, solvers = ("mat_vec", "mat_mul", "_dot", "poly_eval_matrix"), (
        "kernel_basis", "mat_inverse", "solve")
    calls = []  # (name, the types of the matrix and vector entries it was handed)

    def entries(arg):
        if isinstance(arg, (list, tuple)):
            for x in arg:
                yield from entries(x) if isinstance(x, (list, tuple)) else [type(x)]

    for module in (polyalg, spectral):
        for name in products + solvers:
            f = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=f, name=name, **k: calls.append(
                (name, {t for arg in a for t in entries(arg)})) or f(*a, **k))

    def on_integers():
        """True if no solver ran and products ran, on ints only."""
        return (bool(calls) and all(name in products for name, _ in calls)
                and set().union(*(kinds for _, kinds in calls)) == {int})

    kinds = Counter()
    rng = random.Random(4)
    for p, m in cases:
        xs = [rand_vector(rng, p, len(m)) for _ in range(3)]
        calls.clear()
        data = spectral.spectral_data(m, p)
        splits = [spectral.splitting_at(m, p, a) for a in (F(1, p), F(1), F(p))]
        n = spectral.adapted_norm(m, p)
        for x in xs:
            n.norm_exp(x)
        spectral.operator_norm(m, p, n)
        rational = all(b._zbasis is not None for b in data.blocks)
        assert rational == (n._zrows is not None)
        assert rational == all(isinstance(c, F) for s in splits for row in s.winv for c in row)
        assert on_integers() == rational, (m, calls)
        assert rational or any(PadicNumber in k for name, k in calls if name in products)
        if rational:  # the same reads on the Fraction rows of _pi_rows
            calls.clear()
            n._read(n._readout(p, {len(m)}, False)[1], xs[0])
            assert not on_integers() and {F} <= calls[-1][1], calls
        kinds["norm", rational] += 1
        for b in data.blocks:
            if b.rho != INF:
                basis = [list(v) for v in b.basis]
                block_rational = b._zbasis is not None
                rest = (spectral._restrict(_zmat(m), b._zbasis, RationalContext(p))
                        if block_rational else
                        spectral._restrict(m, basis, infer_context([m] + basis, p)))
                calls.clear()
                if block_rational:
                    spectral._zunit_lattice(*rest, p, *F(b.rho).as_integer_ratio())
                else:
                    spectral.invariant_unit_lattice(rest, p, b.rho)
                assert on_integers() == block_rational, (m, b.rho, calls)
                kinds["lattice", block_rational] += 1
    assert kinds[("norm", True)] == 2
    assert set(kinds) == {(f, r) for f in ("lattice", "norm") for r in (True, False)}


@pytest.mark.parametrize("p,blocks", [
    (3, [int_block(3, 1, 2), int_block(3, -1, 1), nilp_block(1)]),  # rational
    (5, [frac_block(5, 1, 2), frac_block(5, 2, 3), int_block(5, 1, 1)]),  # ram 6
])
def test_adapted_norm_computes_no_charpoly(monkeypatch, p, blocks):
    """Given the spectral data, the norm certifies each block's lattice
    without recomputing a characteristic polynomial."""
    m = conjugated(random.Random(7), blocks)
    data = spectral.spectral_data(m, p)
    calls = []
    cp = polyalg.charpoly
    monkeypatch.setattr(polyalg, "charpoly", lambda *a, **k: calls.append(1) or cp(*a, **k))
    spectral.adapted_norm(m, p, data=data)
    assert not calls


# -- one spectral decomposition per matrix -----------------------------------


def count_calls(monkeypatch, module, name):
    """Per-matrix call counts of module.name while the test runs."""
    calls = Counter()
    orig = getattr(module, name)

    def counted(m, *args, **kwargs):
        calls[tuple(tuple(r) for r in m)] += 1
        return orig(m, *args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def spectral_calls(monkeypatch):
    return (count_calls(monkeypatch, spectral, "spectral_data"),
            count_calls(monkeypatch, spectral, "charpoly"))


DIAG = [[F(2), F(0), F(0)], [F(0), F(1), F(0)], [F(0), F(0), F(1, 2)]]
GAP_MAP = PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(1, 2), (2, 0): F(1)}], p=2)
CONTRACTING = PolyMap.from_tables([{(1, 0): F(2), (0, 2): F(1)},
                                   {(0, 1): F(4), (2, 0): F(1)}], p=2)
EXPANDING = PolyMap.from_tables([{(1, 0): F(1, 2), (0, 2): F(1)},
                                 {(0, 1): F(1, 4), (2, 0): F(1)}], p=2)
LINEAR = PolyMap.from_tables([{(1, 0): F(2)}, {(0, 1): F(1, 2)}], p=2)


def test_witness_analyses_its_matrix_once(spectral_calls):
    w = spectral.nonhyperbolicity_witness(DIAG, 2, F(1))
    assert w.constant
    for calls in spectral_calls:
        assert list(calls.values()) == [1]


def test_cli_hyperbolic_analyses_its_matrix_once(spectral_calls, tmp_path, capsys):
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"prime": 2, "matrix": [[str(c) for c in r] for r in DIAG]}))
    assert cli.main(["hyperbolic", "--a", "1", "--input", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["witness"]["constant"]
    for calls in spectral_calls:
        assert list(calls.values()) == [1]


def test_classify_analyses_its_jacobian_once(spectral_calls):
    r = dynamics.classify_fixed_point(CONTRACTING)
    assert r.label == dynamics.UNIFORMLY_ATTRACTIVE and r.certificate is not None
    for calls in spectral_calls:
        assert list(calls.values()) == [1]


def test_ball_certificates_come_from_the_callers_analysis(monkeypatch):
    """classify_fixed_point and stable_membership at precision 128 take
    their ball certificate from the map's analysis at 128, and build none at
    DEFAULT_PRECISION; over Q the report and the verdict are those at 64."""
    x = [F(1, 4), F(1, 2)]
    at_64 = repr((dynamics.classify_fixed_point(CONTRACTING),
                  dynamics.stable_membership(CONTRACTING, F(1), x)))
    asked, interned = [], dynamics._map_analysis
    monkeypatch.setattr(dynamics, "_map_analysis",
                        lambda f, precision: asked.append(precision) or interned(f, precision))
    report = dynamics.classify_fixed_point(CONTRACTING, precision=128)
    assert asked == [128]
    verdict = dynamics.stable_membership(CONTRACTING, F(1), x, precision=128)
    assert asked == [128, 128]
    cert = report.certificate
    assert (cert.mode, cert.radius_exp, cert.contraction_exp) == (dynamics.CONTRACTING, 1, 1)
    assert verdict.verdict == dynamics.HEURISTIC_NON_MEMBER
    assert verdict.trace == tuple(F(-2**k) for k in range(1, 13))
    assert repr((report, verdict)) == at_64


@pytest.mark.parametrize("f,x,verdict", [
    (CONTRACTING, [F(4), F(8)], dynamics.CERTIFIED_MEMBER),       # all |.| < a
    (EXPANDING, [F(64), F(64)], dynamics.CERTIFIED_NON_MEMBER),   # all |.| > a
    (GAP_MAP, [F(1024), F(1024)], dynamics.CERTIFIED_NON_MEMBER),  # in the gap
    (GAP_MAP, [F(1), F(2, 7)], dynamics.CERTIFIED_MEMBER),        # on the graph
    (LINEAR, [F(1), F(0)], dynamics.CERTIFIED_MEMBER),
])
def test_membership_analyses_each_matrix_once(spectral_calls, f, x, verdict):
    assert dynamics.stable_membership(f, F(1), x).verdict == verdict
    data_calls, charpoly_calls = spectral_calls
    assert data_calls and max(data_calls.values()) == 1
    assert max(charpoly_calls.values()) == 1


def test_norm_then_witness_analyses_its_matrix_once(spectral_calls):
    """A norm query asks for the adapted norm and then for a witness, which
    needs the same norm: both come from one interned analysis."""
    n = spectral.adapted_norm(DIAG, 2)
    assert spectral.nonhyperbolicity_witness(DIAG, 2, F(1)).constant
    assert spectral.adapted_norm(DIAG, 2) is n
    for calls in spectral_calls:
        assert list(calls.values()) == [1]


# integral entries, ram 2 and a nilpotent block
INTEGRAL = conjugated(random.Random(3), [frac_block(3, 1, 2), int_block(3, 0, 1),
                                         nilp_block(2)])


def test_a_repeated_witness_is_the_kept_record(monkeypatch):
    """The witness at (a, horizon) is a kept part of the interned analysis:
    an equal second query returns the same record and steps no orbit."""
    first = spectral.nonhyperbolicity_witness(DIAG, 2, F(1))
    steps = count_calls(monkeypatch, spectral, "mat_vec")
    reads = []
    orig = spectral.AdaptedNorm.norm_exp
    monkeypatch.setattr(spectral.AdaptedNorm, "norm_exp",
                        lambda self, x: reads.append(x) or orig(self, x))
    assert spectral.nonhyperbolicity_witness(DIAG, 2, F(1)) is first
    assert spectral.nonhyperbolicity_witness(DIAG, 2, 1, 20, DEFAULT_PRECISION) is first
    assert not steps and not reads


def test_each_a_horizon_and_precision_gets_its_own_witness():
    kept = {(a, horizon, precision): spectral.nonhyperbolicity_witness(DIAG, 2, a, horizon,
                                                                       precision)
            for a in (F(2), F(1), F(1, 2)) for horizon in (0, 20)
            for precision in (DEFAULT_PRECISION, 128)}
    assert len({id(w) for w in kept.values()}) == len(kept)
    for (a, horizon, precision), w in kept.items():
        assert w.a == a and len(w.exponents) == horizon + 1 and w.constant
        assert F(2) ** -w.rho == a
        assert spectral.nonhyperbolicity_witness(DIAG, 2, a, horizon, precision) is w


@pytest.mark.parametrize("m,p,a,precision", [
    (DIAG, 2, F(1, 2), DEFAULT_PRECISION),
    ([[int(x) for x in r] for r in INTEGRAL], 3, F(1), DEFAULT_PRECISION),
    ([[F(0), F(1)], [F(-5), F(-1)]], 5, F(1), 3),  # a p-adic centre basis
    ([[PadicNumber.from_rational(x, 3, DEFAULT_PRECISION) for x in r]
      for r in ((1, 1), (0, 1))], 3, F(1), DEFAULT_PRECISION),  # a unipotent over Q_3
])
def test_interned_witness_matches_a_direct_analysis(m, p, a, precision):
    """The kept record reads as the witness of a LinearAnalysis built
    directly from the caller's entries, over Q and with PadicNumbers."""
    w = spectral.nonhyperbolicity_witness(m, p, a, precision=precision)
    assert repr(w) == repr(spectral.LinearAnalysis(m, p, precision)._witness(a, 20))


def test_a_negative_horizon_is_refused_before_any_analysis(monkeypatch):
    asked, interned = [], spectral._analysis
    monkeypatch.setattr(spectral, "_analysis",
                        lambda *args: asked.append(args) or interned(*args))
    with pytest.raises(PreconditionViolated, match=r"^horizon must be >= 0, got -1$"):
        spectral.nonhyperbolicity_witness(DIAG, 2, F(1), horizon=-1)
    assert asked == []
    assert spectral.nonhyperbolicity_witness(DIAG, 2, F(1), horizon=0).exponents == (F(0),)
    assert len(asked) == 1


def interned_outputs(m, p):
    return (spectral.spectrum_abs(m, p), spectral.is_hyperbolic(m, p, F(1, 3)),
            spectral.splitting_at(m, p, F(1, 2)), spectral.adapted_norm(m, p),
            spectral.nonhyperbolicity_witness(m, p, F(1)))


def test_intern_keys_on_content():
    m = [list(r) for r in INTEGRAL]
    before, an = interned_outputs(m, 3), spectral._analysis(m, 3)
    m[0][0] += 1  # the caller's list changes after the call
    assert an.m == tuple(tuple(r) for r in INTEGRAL)
    assert interned_outputs(INTEGRAL, 3) == before
    assert spectral.spectrum_abs(m, 3) != before[0]
    assert spectral.adapted_norm(INTEGRAL, 3) is before[3]
    # a list or a tuple of rows, int or Fraction entries: the same key, and
    # each built afresh gives the same answers
    variants = [INTEGRAL, tuple(tuple(r) for r in INTEGRAL),
                [[int(x) for x in r] for r in INTEGRAL]]
    fresh = []
    for v in variants:
        spectral._interned.cache_clear()
        fresh.append(repr(interned_outputs(v, 3)))
    assert fresh == [repr(before)] * len(variants)
    assert len({id(spectral.adapted_norm(v, 3)) for v in variants}) == 1


def test_intern_separates_padic_precisions():
    """Equal p-adic entries known to different precisions are different
    inputs, and get different analyses."""
    coarse, fine = ([[PadicNumber.from_rational(x, 2, prec) for x in r] for r in DIAG]
                    for prec in (20, 40))
    a = spectral._analysis(coarse, 2)
    assert spectral._analysis(fine, 2) is not a
    assert spectral._analysis(coarse, 2) is a
    assert spectral._interned.cache_info().currsize == 2


def test_intern_is_bounded():
    size = spectral._interned.cache_info().maxsize
    for k in range(size + 1):
        spectral.spectrum_abs([[F(k + 1)]], 2)
    info = spectral._interned.cache_info()
    assert info.currsize == size and info.misses == size + 1
    spectral.spectrum_abs([[F(1)]], 2)  # the least recently used was dropped
    assert spectral._interned.cache_info().misses == size + 2


def test_analysis_parts_are_cached():
    an = spectral.LinearAnalysis(DIAG, 2)
    before = repr(an)
    assert an.spectrum == spectral.spectrum_abs(DIAG, 2)
    assert an.norm() is an.norm() is an.norm(None)
    assert an.norm(F(1, 2)) is not an.norm()
    assert an.splitting(F(1)) == spectral.splitting_at(DIAG, 2, F(1))
    assert an.splitting(1) is an.splitting(F(1))
    assert an.is_hyperbolic(F(3)) and not an.is_hyperbolic(F(1))
    assert repr(an) == before and an == spectral.LinearAnalysis(DIAG, 2)


def test_splitting_built_once_per_threshold(monkeypatch):
    """Over Q the analysis inverts W, the blocks' integer kernel vectors side
    by side, once, by one integer elimination, and a splitting permutes the
    rows of that W^-1: no threshold inverts again, and mat_inverse is never
    called.  A second splitting_at for the same matrix and a returns the
    same Splitting; another a builds its own."""
    eliminations, inversions = [], []
    orig = polyalg._zrow_reduce
    monkeypatch.setattr(polyalg, "_zrow_reduce",
                        lambda rows, m: eliminations.append((len(rows), m)) or orig(rows, m))
    for module in (polyalg, spectral):
        inverse = module.mat_inverse
        monkeypatch.setattr(module, "mat_inverse",
                            lambda *a, f=inverse: inversions.append(a) or f(*a))
    spectral._analysis(INTEGRAL, 3).data  # the blocks' kernels
    eliminations.clear()
    s = spectral.splitting_at(INTEGRAL, 3, F(1, 2))
    assert eliminations == [(5, 10)]  # the rows u_j ++ (-D_j e_j)
    eliminations.clear()
    assert spectral.splitting_at(INTEGRAL, 3, F(1, 2)) is s
    other = spectral.splitting_at(INTEGRAL, 3, 1)
    assert other is not s and other.dims() != s.dims()
    assert spectral.splitting_at(INTEGRAL, 3, F(1)) is other
    assert not eliminations and not inversions
    for split in (s, other):
        assert mat_mul(split.winv, split.w) == [[F(int(i == j)) for j in range(5)]
                                                 for i in range(5)]


# -- T Winv over the base field only where a query needs it ------------------


def test_transform_built_once_per_norm(monkeypatch):
    """A rational norm answers norm_exp and operator_norm from its integer
    rows and columns and never builds the Fraction T_0 Winv (_pi_rows); a
    norm with p-adic rows builds it once, on its first query."""
    builds = []
    orig = spectral.AdaptedNorm.__dict__["_pi_rows"].func

    def counted(self):
        builds.append(self)
        return orig(self)

    rows = cached_property(counted)
    rows.__set_name__(spectral.AdaptedNorm, "_pi_rows")
    monkeypatch.setattr(spectral.AdaptedNorm, "_pi_rows", rows)
    transforms = []
    orig_transform = spectral.AdaptedNorm.transform
    monkeypatch.setattr(spectral.AdaptedNorm, "transform",
                        lambda self: transforms.append(1) or orig_transform(self))
    rng = random.Random(7)
    rational = conjugated(rng, [frac_block(3, 1, 3), int_block(3, 0, 2)])
    padic = block_diag([companion([3, 1, 1]), [[F(9)]]])
    for m, want in ((rational, 0), (padic, 1)):
        n = spectral.LinearAnalysis(m, 3).norm()
        assert builds == []  # nothing is built before the first query
        for _ in range(50):
            n.norm_exp(rand_vector(rng, 3, len(m)))
        spectral.operator_norm(m, 3, n)
        assert len(builds) == want
        builds.clear()
    assert not transforms  # norm_exp never rebuilds the ExtElement matrix


def test_norm_repr_and_eq_unchanged_by_queries():
    rng = random.Random(8)
    m = conjugated(rng, [frac_block(2, 1, 2), nilp_block(2), int_block(2, 1, 1)])
    n, fresh = spectral.adapted_norm(m, 2), spectral.adapted_norm(m, 2)
    before = repr(n)
    for _ in range(10):
        n.norm_exp(rand_vector(rng, 2, 5))
    n.transform()
    spectral.operator_norm(m, 2, n)
    assert repr(n) == before == repr(fresh)
    assert n == fresh and hash(n) == hash(fresh)


# -- one conjugation per radius search -----------------------------------------


def scaled_remainder(f, j):
    """f with every term of degree >= 2 multiplied by p^-j."""
    scale = F(f.prime) ** -j
    return PolyMap.from_tables([{m: c * scale if sum(m) >= 2 else c for m, c in comp}
                                for comp in f.components], f.prime, f.nvars)


def radius_maps():
    """Maps whose radii run from 0 to past 120: seeded random maps with
    hyperbolic, contracting or unimodular linear parts and a remainder
    scaled by p^-j, and 2x + 2^-j x^2."""
    yield PolyMap.from_tables([{(1, 0): F(2), (0, 2): F(1, 2**10)},
                               {(0, 1): F(4), (2, 0): F(1)}], p=2)
    for seed in range(36):
        rng = random.Random(seed)
        vals = [(-2, -1, 1, 2), (1, 2), (0,)][seed % 3]
        f = rand_poly_map(rng, (2, 3, 5)[seed // 3 % 3], 1 + seed // 9 % 3, 2 + seed % 2,
                          valuations=vals)
        yield scaled_remainder(f, (seed * 7) % 121)
    for j in (63, 64, 65, 120):
        yield PolyMap.from_tables([{(1,): F(2), (2,): F(1, 2**j)}], p=2)


def scan(ok):
    """The first k in 0, 1, 2, ... with ok(k)."""
    return next(k for k in range(400) if ok(k))


def test_radius_scans_conjugate_once(monkeypatch):
    """Each radius search finds the k of a scan, and the map's interned
    analysis conjugates F once per norm: the linearization radius and
    every ball that follows share that one conjugation."""
    calls = []
    orig = dynamics.conjugate
    monkeypatch.setattr(dynamics, "conjugate",
                        lambda *a: calls.append(1) or orig(*a))
    checked = Counter()
    for f in radius_maps():
        p = f.prime
        a = dynamics.linear_part(f)
        n = spectral.adapted_norm(a, p)
        lip = dynamics.MapAnalysis(f).lipschitz(n)  # the brute-force scans' bound
        ctx = RationalContext(p)
        einv = spectral.operator_norm(mat_inverse(cmat(a, ctx), ctx), p, n)
        op_a = spectral.operator_norm(a, p, n)
        del calls[:]
        k = dynamics.linearization_radius(f, n)
        assert len(calls) == 1
        assert k == scan(lambda kk: lip(kk) + einv > 0)
        checked["linearization", k > 64] += 1
        # each ball mode whose precondition holds; Contracting also at a rate
        # just above ||A|| = p^-op_a
        rate = F(p + 1, p) * F(p) ** -math.floor(op_a)
        for mode, rate_below, ok in [
                (dynamics.INVARIANT, None, lambda kk: lip(kk) >= 0),
                (dynamics.ISOMETRIC, None, lambda kk: lip(kk) > 0),
                (dynamics.CONTRACTING, None, lambda kk: lip(kk) > 0),
                (dynamics.CONTRACTING, rate, lambda kk: lip(kk) > 0 and compare_threshold(
                    rate, min(op_a, lip(kk)), p) > 0)]:
            try:
                cert = dynamics.invariant_ball(f, mode, n, rate_below=rate_below)
            except PreconditionViolated:
                continue
            assert len(calls) == 1
            assert cert.radius_exp == scan(ok), (mode, rate_below, f)
            checked[mode, rate_below is not None] += 1
        # the dominance ball of stable_membership: Lip beats the slowest
        # unstable expansion p^-ru at a = 1
        unstable = [v for v, _ in spectral.spectrum_abs(a, p) if v < 0]
        if unstable and not f.is_linear():
            ru = max(unstable)
            assert dynamics._least_k(lambda kk: lip(kk) > ru) == scan(lambda kk: lip(kk) > ru)
            checked["dominance"] += 1
    assert checked["linearization", True] >= 10
    for key in [(dynamics.INVARIANT, False), (dynamics.ISOMETRIC, False),
                (dynamics.CONTRACTING, False), (dynamics.CONTRACTING, True), "dominance"]:
        assert checked[key] >= 3, checked


def test_graph_reduction_conjugates_once(monkeypatch):
    """graph_series conjugates F once, and the residual and the restricted
    base map reuse that conjugation, kept in the graph's build."""
    calls = []
    orig = dynamics.conjugate

    def counted(*args):
        calls.append(1)
        return orig(*args)

    monkeypatch.setattr(dynamics, "conjugate", counted)
    monkeypatch.setattr(manifolds, "conjugate", counted)
    v = dynamics.stable_membership(GAP_MAP, F(1), [F(1), F(2, 7)])
    assert v.verdict == dynamics.CERTIFIED_MEMBER
    assert "untruncated invariance residual == 0" in v.justification[0]
    assert len(calls) == 1


# (2x + x^2, y/2 + x^2): a polynomial h of degree n >= 2 would give degree 2n
# on the left of h(2x + x^2) = h(x)/2 + x^2 and at most n on the right, so
# the stable graph is a genuine power series and is not exactly invariant
SERIES_GRAPH_MAP = PolyMap.from_tables([{(1, 0): F(2), (2, 0): F(1)},
                                        {(0, 1): F(1, 2), (2, 0): F(1)}], p=2)


@pytest.fixture
def composed_caps(monkeypatch):
    """Degree caps passed to manifolds._compose_with_graph, in call order."""
    caps = []
    orig = manifolds._compose_with_graph

    def spy(*args):
        caps.append(args[3])
        return orig(*args)

    monkeypatch.setattr(manifolds, "_compose_with_graph", spy)
    return caps


def test_series_graph_rejected_at_first_residual_degree(composed_caps):
    v = dynamics.stable_membership(SERIES_GRAPH_MAP, F(1), [F(4), F(8)])
    assert v.verdict == dynamics.CERTIFIED_NON_MEMBER
    assert v.justification[0] == (
        "F^1(x) lies inside the dominance ball p^-0 with strictly dominant "
        "E_(a,u) component (exp 2 < 3)")
    # graph order max(6, 2^2) = 6: graph_series forms each degree's terms
    # once and composes nothing, and the residual read at one exact point
    # refutes the graph before any residual composition
    assert composed_caps == []
    gs = manifolds.graph_series(SERIES_GRAPH_MAP, F(1), manifolds.STABLE, order=6)
    tables, h, ctx = manifolds._on_graph(SERIES_GRAPH_MAP, gs)
    full = manifolds._residual_of(*manifolds._compose_with_graph(tables, h, 1, INF, ctx), h, ctx)
    assert min(sum(m) for m in full[0]) == 7


def test_invariant_graph_checked_untruncated(composed_caps):
    v = dynamics.stable_membership(GAP_MAP, F(1), [F(1), F(2, 7)])
    assert v.verdict == dynamics.CERTIFIED_MEMBER
    assert "untruncated invariance residual == 0" in v.justification[0]
    # graph_series composes nothing, then the residual once, untruncated
    assert composed_caps == [INF]


def test_inconclusive_point_read_leaves_the_refusal_to_the_composition(
        monkeypatch, composed_caps):
    """With the residual at the point read as exact zeros (a zero or an
    O-term shows nothing), the one untruncated composition still refuses
    SERIES_GRAPH_MAP's graph, and the verdict is the same."""
    monkeypatch.setattr(manifolds, "_residual_at_point",
                        lambda gs, tables: [F(0)] * len(gs.complement_basis))
    v = dynamics.stable_membership(SERIES_GRAPH_MAP, F(1), [F(4), F(8)])
    assert v.verdict == dynamics.CERTIFIED_NON_MEMBER
    assert dict(v._reasons)["on_stable_graph"] == (
        "the stable graph of order 6 is not exactly invariant (nonzero untruncated residual)")
    assert composed_caps == [INF]


def _padic_terms(f, prec):
    """f with its terms of degree >= 2 as PadicNumbers of prec digits; the
    linear part stays rational."""
    return PolyMap.from_tables(
        [{m: PadicNumber.from_rational(c, f.prime, prec) if sum(m) >= 2 else c
          for m, c in t.items()} for t in f.tables()], f.prime)


@pytest.mark.parametrize("f,prec,x,verdict,why", [
    # 64 digits: the residual is zero to working precision, so the graph is
    # kept and (1, 2/7) is on it
    (GAP_MAP, 64, [F(1), F(2, 7)], dynamics.CERTIFIED_MEMBER, None),
    # 20 digits: the point read gives an O-term, and the composition refuses
    (GAP_MAP, 20, [F(1), F(2, 7)], dynamics.CERTIFIED_NON_MEMBER, "untruncated residual"),
    # a genuine power series: a certified digit at the point refutes it
    (SERIES_GRAPH_MAP, 64, [F(1), F(2, 7)], dynamics.HEURISTIC_NON_MEMBER,
     "residual at one exact point"),
], ids=["kept", "o-term-read", "refuted-at-point"])
def test_padic_gap_membership_keeps_its_verdict(f, prec, x, verdict, why):
    """Over Q_p the stable graph is kept iff its untruncated residual is
    zero to working precision, so these verdicts are those of composing F
    with h in full alone; a kept graph says so, and the refusal says which
    check refused it."""
    v = dynamics.stable_membership(_padic_terms(f, prec), F(1), x, 16)
    assert v.verdict == verdict
    if why is None:
        assert v.justification[0] == (
            "the a-stable graph h is an exactly invariant polynomial graph "
            "(untruncated invariance residual == 0 to working precision)")
    else:
        assert dict(v._reasons)["on_stable_graph"] == (
            f"the stable graph of order 6 is not exactly invariant (nonzero {why})")


# -- one analysis per map -----------------------------------------------------


@pytest.fixture
def conjugations(monkeypatch):
    """Per-map counts of dynamics.conjugate while the test runs."""
    calls = Counter()
    orig = dynamics.conjugate

    def counted(f, *args):
        calls[f] += 1
        return orig(f, *args)

    monkeypatch.setattr(dynamics, "conjugate", counted)
    return calls


def test_map_analysis_conjugates_once_per_norm(conjugations):
    """Classification, the linearization radius and membership at two
    thresholds below and two above the whole spectrum share one
    conjugation of F into the norm's coordinates."""
    for f, x in ((CONTRACTING, [F(4), F(8)]), (EXPANDING, [F(64), F(64)])):
        dynamics.classify_fixed_point(f)
        norm = spectral.adapted_norm(dynamics.linear_part(f), 2)
        dynamics.linearization_radius(f, norm)
        for a in (F(1, 8), F(1, 16), F(8), F(16)):
            dynamics.stable_membership(f, a, x)
    assert conjugations == Counter({CONTRACTING: 1, EXPANDING: 1})


@pytest.fixture
def graph_builds(monkeypatch):
    """Counts of manifolds.graph_series per (map, a, mode, order)."""
    calls = Counter()
    orig = manifolds.graph_series

    def counted(f, a, mode, order=6, precision=None):
        calls[f, a, mode, order] += 1
        return orig(f, a, mode, order, precision)

    monkeypatch.setattr(manifolds, "graph_series", counted)
    return calls


def test_stable_graph_built_once_per_gap(monkeypatch, graph_builds, conjugations):
    """Points on and off the graph, each asked twice at two thresholds of
    one gap: one graph_series per (map, gap, order), whose build the
    untruncated residual reuses."""
    monkeypatch.setattr(manifolds, "conjugate", dynamics.conjugate)
    on, off = [F(1), F(2, 7)], [F(1024), F(1024)]
    for a in (F(1), F(3, 2), F(1)):
        for x, verdict in ((on, dynamics.CERTIFIED_MEMBER), (off, dynamics.CERTIFIED_NON_MEMBER),
                           (on, dynamics.CERTIFIED_MEMBER)):
            assert dynamics.stable_membership(GAP_MAP, a, x).verdict == verdict
    assert graph_builds == Counter({(GAP_MAP, F(1), manifolds.STABLE, 6): 1})
    # graph_series once, and the dominance ball's remainder bound once
    assert conjugations == Counter({GAP_MAP: 2})


# (4x, y + x^2, z/4 + xy) over Q_2: |lambda| in {1/4, 1, 4}, so 1/2, 3/4
# and 2, 3 are two thresholds in each of two gaps, with two stable graphs
THREE_GAPS = PolyMap.from_tables([{(1, 0, 0): F(4)}, {(0, 1, 0): F(1), (2, 0, 0): F(1)},
                                  {(0, 0, 1): F(1, 4), (1, 1, 0): F(1)}], p=2)
GAPS = ((F(1, 2), F(3, 4)), (F(2), F(3)))
# on the stable graph (y, z) = (x^2/15, 4x^3/3825) of the gap below 1, and off it
THREE_GAP_POINTS = ([F(2), F(4, 15), F(32, 3825)], [F(2), F(4, 15), F(1)],
                    [F(4), F(2), F(0)])


def test_stable_graph_built_once_per_gap_of_two(graph_builds):
    """Thresholds in different gaps split F'(0) differently and build one
    graph each, at the first threshold asked; a second threshold of a gap
    builds none."""
    for gap in GAPS:
        for a in gap + gap:
            for x in THREE_GAP_POINTS:
                dynamics.stable_membership(THREE_GAPS, a, x)
    assert graph_builds == Counter({(THREE_GAPS, a, manifolds.STABLE, 6): 1
                                    for a in (F(1, 2), F(2))})


def test_dominant_point_builds_no_graph(graph_builds):
    """A point whose own position certifies it a non-member (strictly
    dominant unstable component inside the dominance ball) is answered
    before any stable graph is built, with the trace and justification of
    the orbit loop's n = 0."""
    v = dynamics.stable_membership(GAP_MAP, F(1), [F(0), F(1024)])
    assert graph_builds == Counter()
    assert v.verdict == dynamics.CERTIFIED_NON_MEMBER
    assert v.trace == tuple(F(10 - n) for n in range(65))
    assert v.justification == (
        "F^0(x) lies inside the dominance ball p^-0 with strictly dominant "
        "E_(a,u) component (exp 10 < inf)",
        "dominance propagates exactly (ultrametric dominated sum, Lip(R) < "
        "expansion factor), so a^-m ||F^m(x)|| grows strictly inside the chart ball")


def test_gap_answers_do_not_depend_on_the_threshold_asked_first():
    """Verdict, trace and justification at each threshold of a gap are the
    same whichever threshold of the gap built the kept graph, and the same
    as from an empty map intern."""
    cold = {}
    for a in (a for gap in GAPS for a in gap):
        for x in THREE_GAP_POINTS:
            dynamics._map_analysis.cache_clear()
            cold[a, tuple(x)] = dynamics.stable_membership(THREE_GAPS, a, x)
    for first in (0, 1):
        dynamics._map_analysis.cache_clear()
        for gap in GAPS:
            for a in (gap[first], gap[1 - first]):
                for x in THREE_GAP_POINTS:
                    v = dynamics.stable_membership(THREE_GAPS, a, x)
                    assert v == cold[a, tuple(x)] and repr(v) == repr(cold[a, tuple(x)])
    on = tuple(THREE_GAP_POINTS[0])
    for a in GAPS[0]:  # the kept graph's a is 1/2 or 3/4, the answer's is a
        assert "untruncated invariance" in cold[a, on].justification[0]
        assert cold[a, on].verdict == dynamics.CERTIFIED_MEMBER


# -- membership rules: each refusal kept with its reason ---------------------

NOT_ZERO, NONLINEAR = ("fixed_point", "x is not exactly 0"), ("linear_map", "F has degree 2")
# (4x, y + x^2) over Q_2 at a = 2: ||A|| = 1 refuses Contracting, so the
# Invariant ball rule runs, and the verdict keeps the Contracting refusal
REFUSED = ("contracting_ball", "Contracting: ||A|| = p^0 not < 1")
INVARIANT_MAP = PolyMap.from_tables([{(1, 0): F(4)}, {(0, 1): F(1), (2, 0): F(1)}], p=2)


@pytest.mark.parametrize("f,a,x,verdict,reasons", [
    (LINEAR, F(1), [F(1), F(0)], dynamics.CERTIFIED_MEMBER, [NOT_ZERO]),
    (CONTRACTING, F(1), [F(4), F(8)], dynamics.CERTIFIED_MEMBER, [NOT_ZERO, NONLINEAR]),
    (CONTRACTING, F(1), [F(1, 4), F(1, 2)], dynamics.HEURISTIC_NON_MEMBER, [
        NOT_ZERO, NONLINEAR,
        ("contracting_ball", "no orbit point within the horizon lies in the Contracting ball "
                             "p^-1"),
        ("invariant_ball", "the Contracting ball was built")]),
    (INVARIANT_MAP, F(2), [F(1, 2), F(1, 2)], dynamics.HEURISTIC_MEMBER, [
        NOT_ZERO, NONLINEAR, REFUSED,
        ("invariant_ball", "no orbit point within the horizon lies in the Invariant ball p^-0")]),
    (INVARIANT_MAP, F(2), [F(4), F(2)], dynamics.CERTIFIED_MEMBER, [
        NOT_ZERO, NONLINEAR, REFUSED]),
    (EXPANDING, F(1), [F(1, 64), F(1, 64)], dynamics.HEURISTIC_NON_MEMBER, [
        NOT_ZERO, NONLINEAR, ("linearization_ball", "no orbit point within the horizon is 0 "
                              "or inside the linearization ball p^-0")]),
    (GAP_MAP, F(1), [F(1), F(2, 7)], dynamics.CERTIFIED_MEMBER, [
        NOT_ZERO, NONLINEAR,
        ("dominant_unstable", "F^0(x) has no strictly dominant E_(a,u) component (exp 1 >= 0)")]),
    (SERIES_GRAPH_MAP, F(1), [F(4), F(8)], dynamics.CERTIFIED_NON_MEMBER, [
        NOT_ZERO, NONLINEAR,
        ("dominant_unstable", "F^0(x) has no strictly dominant E_(a,u) component (exp 3 >= 2)"),
        ("on_stable_graph", "the stable graph of order 6 is not exactly invariant "
                            "(nonzero residual at one exact point)")]),
    (GAP_MAP, F(1), [F(0), F(1, 8)], dynamics.HEURISTIC_NON_MEMBER, [
        NOT_ZERO, NONLINEAR,
        ("dominant_unstable", "F^0(x) lies outside the dominance ball p^-0 (exp -3 < 0)"),
        ("on_stable_graph", "x is not on the stable graph"),
        ("orbit_point", "no orbit point F^n(x), n >= 1, within the horizon is 0 or has "
                        "that dominance")]),
    (THREE_GAPS, F(1), THREE_GAP_POINTS[1], dynamics.HEURISTIC_NON_MEMBER,
     [NOT_ZERO, NONLINEAR]),  # |lambda| = 1 = a: no certificate rule runs
    # on the exact stable graph z = 4xy/15 - 64x^3/3825 of the gap above 1,
    # whose base map (4x, y + x^2) is INVARIANT_MAP, and x's base orbit does
    # not enter its Invariant ball within the horizon, as in the
    # invariant_ball case
    (THREE_GAPS, F(2), [F(1, 2), F(1, 2), F(247, 3825)], dynamics.HEURISTIC_MEMBER, [
        NOT_ZERO, NONLINEAR,
        ("dominant_unstable", "F^0(x) has no strictly dominant E_(a,u) component (exp 0 >= -1)"),
        ("on_stable_graph", "x is on the stable graph, but the base map's verdict is "
                            "HeuristicMember"),
        ("orbit_point", "no orbit point F^n(x), n >= 1, within the horizon is 0 or has "
                        "that dominance")]),
], ids=["fixed_point", "linear_map", "contracting_ball", "invariant_ball",
        "invariant_ball-member", "linearization_ball", "dominant_unstable", "on_stable_graph",
        "orbit_point", "centre", "on_stable_graph-base-verdict"])
def test_membership_keeps_why_each_rule_did_not_apply(f, a, x, verdict, reasons):
    """stable_membership keeps, in order, (rule, reason) for each rule it
    tried before the one that answered; the regime of a picks the rules
    tried after x = 0 and a linear F."""
    v = dynamics.stable_membership(f, a, x)
    assert v.verdict == verdict and list(v._reasons) == reasons


def test_verdicts_past_different_refusals_are_equal():
    """(0, 1/8) has the same orbit under GAP_MAP and SERIES_GRAPH_MAP (x
    stays 0), and gets the same verdict from the trend, past a refused
    graph rule whose reasons differ: the reasons stay outside ==, hash and
    repr()."""
    x = [F(0), F(1, 8)]
    on, off = (dynamics.stable_membership(f, F(1), x) for f in (GAP_MAP, SERIES_GRAPH_MAP))
    assert dict(on._reasons)["on_stable_graph"] != dict(off._reasons)["on_stable_graph"]
    assert on == off and hash(on) == hash(off) and repr(on) == repr(off)


def test_classification_keeps_why_no_ball_is_attached(monkeypatch):
    """classify_fixed_point keeps why it attaches no certificate: the label
    has no ball mode, or the ball's refusal; outside ==, hash and repr()."""
    r = dynamics.classify_fixed_point(GAP_MAP)
    assert r.certificate is None and r._reason == "HasExpansion has no ball mode"
    r = dynamics.classify_fixed_point(CONTRACTING)
    assert r.certificate is not None and r._reason is None

    def refuse(self, mode, norm, rate_below=None):
        raise PreconditionViolated("refused here")

    monkeypatch.setattr(dynamics.MapAnalysis, "ball", refuse)
    refused = dynamics.classify_fixed_point(CONTRACTING)
    assert refused.certificate is None and refused._reason == "Contracting: refused here"
    twin = dynamics.FixedPointReport(*(getattr(refused, f) for f in refused._shown), "other")
    assert twin == refused and hash(twin) == hash(refused) and repr(twin) == repr(refused)


def test_graph_reduction_builds_no_orbit_of_x(orbits):
    """A verdict by graph reduction carries the base map's trace, so the
    orbit of x itself is never built; a point off the graph builds its
    orbit once for both thresholds of the gap."""
    on, off = (F(1), F(2, 7)), (F(1024), F(1024))
    for a in (F(1), F(3, 2)):
        assert dynamics.stable_membership(GAP_MAP, a, list(on)).verdict == \
            dynamics.CERTIFIED_MEMBER
        assert dynamics.stable_membership(GAP_MAP, a, list(off)).verdict == \
            dynamics.CERTIFIED_NON_MEMBER
    assert [key for key in orbits if key[0] == GAP_MAP] == [(GAP_MAP, off, 64)]
    assert orbits[GAP_MAP, off, 64] == 1


def test_rational_maps_take_no_ring_products(monkeypatch):
    """Over Q a map's certification runs on integers: classification, the
    linearization radius, membership below and above the spectrum and in a
    gap (by the dominance ball and by graph reduction), and a graph series
    with its residual hand the series kernel nothing but ints (it runs on
    the integer context): _mmul, _zhom (the evaluation at a rational
    point, an orbit step among them) and the sums, with their scales, that
    _msubst and conjugate make with _madd all see ints and nothing else.
    They read neither of the Fraction rows and columns _pi_rows and _pi_cols
    of a norm.  So a silent fallback to Fraction products fails.  One PadicNumber
    coefficient keeps the ring path, and the spies see PadicNumbers reach
    _mmul, _meval (the ring's evaluation) and _madd, and both readers read."""
    dynamics._map_analysis.cache_clear()  # every remainder bound is built here
    calls = Counter()  # (name, type of a coefficient or point entry it was handed)

    def handed(args):
        for arg in args:
            if isinstance(arg, (dict, list)):
                yield from map(type, arg.values() if isinstance(arg, dict) else arg)

    for name in ("_mmul", "_meval", "_zhom"):
        orig = getattr(dynamics, name)
        monkeypatch.setattr(dynamics, name, lambda *a, orig=orig, name=name: calls.update(
            (name, kind) for kind in handed(a)) or orig(*a))
    add = dynamics._madd

    def kernel_add(out, b, ctx, s=None):  # the sums of the two kernel bodies, with their scales
        if sys._getframe(1).f_code.co_name in ("_msubst", "conjugate"):
            scale = [] if s is None else [s]
            calls.update(("_madd", kind) for kind in handed([out, b, scale]))
        return add(out, b, ctx, s)

    monkeypatch.setattr(dynamics, "_madd", kernel_add)
    for name in ("_pi_rows", "_pi_cols"):
        orig = getattr(spectral.AdaptedNorm, name)
        monkeypatch.setattr(spectral.AdaptedNorm, name, property(
            lambda self, orig=orig, name=name: calls.update([(name, None)]) or orig.__get__(self)))

    def certify(f, a, x, verdict, why):
        dynamics.classify_fixed_point(f)
        dynamics.linearization_radius(f, spectral.adapted_norm(dynamics.linear_part(f), f.prime))
        v = dynamics.stable_membership(f, a, x)
        assert v.verdict == verdict and why in " ".join(v.justification), v

    certify(CONTRACTING, F(1), [F(4), F(8)], dynamics.CERTIFIED_MEMBER, "Contracting certificate")
    certify(EXPANDING, F(1), [F(4), F(8)], dynamics.CERTIFIED_NON_MEMBER, "linearization ball")
    certify(SERIES_GRAPH_MAP, F(1), [F(4), F(8)], dynamics.CERTIFIED_NON_MEMBER, "dominance ball")
    certify(GAP_MAP, F(1), [F(1), F(2, 7)], dynamics.CERTIFIED_MEMBER, "untruncated invariance")
    for f in (GAP_MAP, SERIES_GRAPH_MAP):
        gs = manifolds.graph_series(f, F(1), manifolds.STABLE, order=6)
        assert not any(manifolds.residual(f, gs))
    assert set(calls) == {("_mmul", int), ("_madd", int), ("_zhom", int)}, calls
    calls.clear()
    tables = CONTRACTING.tables()
    tables[0][0, 2] = PadicNumber.from_rational(1, 2, 20)
    certify(PolyMap.from_tables(tables, 2), F(1), [F(4), F(8)], dynamics.CERTIFIED_MEMBER,
            "Contracting certificate")
    assert {(name, PadicNumber) for name in ("_mmul", "_meval", "_madd")} <= set(calls), calls
    assert {name for name, kind in calls if kind is not int} == {
        "_mmul", "_meval", "_madd", "_pi_rows", "_pi_cols"}, calls


def test_rational_norm_and_graphs_reuse_their_build(monkeypatch):
    """Over Q the adapted norm keeps what its build held.  Building the norm
    of INTEGRAL (a ram-2 block and a nilpotent block), reading norm_exp and
    operator_norm through it and splitting the matrix never hand _zmat or
    _zscale the norm's winv, its w (or W^T) or a row of a block's T_0 (or a
    column of T'_0): the integer rows and columns come from the integer
    pairs of the build.  And graph_series of a rational map inverts no
    matrix in any mode (the Centre and Unstable modes read a singular F'(0)
    off the spectrum): every W^-1 is the analysis's, permuted."""
    spectral._interned.cache_clear()  # the norm and splittings are built here
    scaled = []
    for module in (spectral, polyalg):
        for name, arg in (("_zmat", lambda a: [list(r) for r in a]), ("_zscale", list)):
            orig = getattr(module, name)
            monkeypatch.setattr(module, name, lambda a, orig=orig, arg=arg:
                                scaled.append(arg(a)) or orig(a))
    rng = random.Random(28)
    p, d = 3, len(INTEGRAL)
    n = spectral.adapted_norm(INTEGRAL, p)
    for _ in range(20):
        n.norm_exp(rand_vector(rng, p, d))
    spectral.operator_norm(INTEGRAL, p, n)
    splits = [spectral.splitting_at(INTEGRAL, p, a) for a in (F(1, 3), F(1), F(3))]
    assert n.ram == 2 and n.blocks[-1].rho == INF and n._zrows is not None
    assert all(isinstance(c, F) for s in splits for row in s.winv for c in row)
    held = [[list(r) for r in m] for m in (n.winv, n.w, zip(*n.w))]
    held += [list(v) for b in n.blocks for v in (*b._pi[1], *b._pi[3])]
    assert scaled and not [a for a in scaled if a in held]
    inverted = Counter()
    for module in (spectral, manifolds):
        orig = module.mat_inverse
        monkeypatch.setattr(module, "mat_inverse", lambda *a, orig=orig: inverted.update(
            [sys._getframe(1).f_code.co_name]) or orig(*a))
    s, ctx = unimodular(random.Random(28), 2), RationalContext(2)
    f = PolyMap.from_tables(dynamics.conjugate(GAP_MAP, s, mat_inverse(s, ctx), ctx), 2, 2)
    assert dynamics.linear_part(f) != dynamics.linear_part(GAP_MAP)  # so W is not I
    # at a = 2 the eigenvalue 1/2 (|1/2| = 2) is the Centre mode's base
    for mode, a in ((manifolds.STABLE, 1), (manifolds.CENTRE_STABLE, 1),
                    (manifolds.CENTRE, 2), (manifolds.UNSTABLE, 1)):
        inverted.clear()
        gs = manifolds.graph_series(f, F(a), mode, order=4)
        assert not inverted, (mode, inverted)
        assert not any(manifolds.residual(f, gs)), mode


@pytest.fixture
def orbits(monkeypatch):
    """Counts of dynamics._orbit per (map, point, horizon)."""
    calls = Counter()
    orig = dynamics._orbit

    def counted(f, x, n, bit_cap):
        calls[f, tuple(x), n] += 1
        return orig(f, x, n, bit_cap)

    monkeypatch.setattr(dynamics, "_orbit", counted)
    return calls


def test_orbit_built_once_per_point_and_horizon(orbits):
    for a in (F(1), F(2), F(1)):
        for x in ([F(4), F(8)], (F(8), F(4))):
            for horizon in (64, 8):
                dynamics.stable_membership(CONTRACTING, a, x, horizon)
    assert len(orbits) == 4 and set(orbits.values()) == {1}


def test_orbit_table_is_bounded(orbits):
    size = dynamics.MapAnalysis.ORBITS
    points = [[F(4 * (k + 1)), F(8)] for k in range(size + 1)]
    for x in points:
        dynamics.stable_membership(CONTRACTING, F(1), x)
    assert sum(orbits.values()) == size + 1
    dynamics.stable_membership(CONTRACTING, F(1), points[-1])  # kept
    assert sum(orbits.values()) == size + 1
    dynamics.stable_membership(CONTRACTING, F(1), points[0])  # the oldest was dropped
    assert sum(orbits.values()) == size + 2


def test_map_intern_keys_on_content_and_is_bounded():
    size = dynamics._map_analysis.cache_info().maxsize
    maps = [PolyMap.from_tables([{(1,): F(2), (2,): F(k + 1)}], p=2) for k in range(size + 1)]
    norm = spectral.adapted_norm([[F(2)]], 2)
    for f in maps:
        dynamics.remainder_lipschitz(f, 1, norm)
    info = dynamics._map_analysis.cache_info()
    assert info.currsize == size and info.misses == size + 1
    dynamics.remainder_lipschitz(maps[0], 1, norm)  # the least recently used was dropped
    assert dynamics._map_analysis.cache_info().misses == size + 2
    # an equal map built apart shares the analysis; another precision does not
    twin = PolyMap.from_tables([{(1,): F(2), (2,): F(size + 1)}], p=2)
    an = dynamics._map_analysis(maps[-1], DEFAULT_PRECISION)
    assert twin is not maps[-1] and dynamics._map_analysis(twin, DEFAULT_PRECISION) is an
    assert dynamics._map_analysis(twin, DEFAULT_PRECISION // 2) is not an


def test_norms_and_maps_hash_once_by_content(monkeypatch):
    """An AdaptedNorm and a PolyMap hash their fields once, on first use:
    an equal norm or map built apart still hashes and compares equal and
    shares one intern entry, and the kept hash shows in neither == nor
    repr()."""
    tables = [{(1, 0): F(3), (0, 2): F(1)}, {(0, 1): F(1, 3), (1, 1): F(2)}]
    f, twin = PolyMap.from_tables(tables, p=3), PolyMap.from_tables(tables, p=3)
    lin = dynamics.linear_part(f)
    n, twin_n = spectral.LinearAnalysis(lin, 3).norm(), spectral.LinearAnalysis(lin, 3).norm()
    assert n is not twin_n and twin is not f
    want = hash((n.prime, n.ram, n.winv, n.w, n.blocks, n.eps_exp))
    block_hashes = []
    orig = spectral.NormBlock.__hash__
    monkeypatch.setattr(spectral.NormBlock, "__hash__",
                        lambda b: block_hashes.append(b) or orig(b))
    assert [hash(n) for _ in range(3)] == [want] * 3
    assert len(block_hashes) == len(n.blocks)  # the fields are hashed once
    assert hash(f) == hash((f.prime, f.nvars, f.components))
    assert hash(n) == hash(twin_n) and n == twin_n and repr(n) == repr(twin_n)
    assert hash(f) == hash(twin) and f == twin and repr(f) == repr(twin)
    an = dynamics._map_analysis(f, DEFAULT_PRECISION)
    assert dynamics._map_analysis(twin, DEFAULT_PRECISION) is an
    assert an.lipschitz(twin_n) is an.lipschitz(n)
    assert len(vars(an)["_lipschitz"]) == 1


def warm_cold_queries(seed):
    """(name, query) pairs over seeded maps: classification, the
    linearization radius, each ball mode, and membership of two points at
    two thresholds inside each gap of the spectrum and outside it, with
    horizons 64 and 8."""
    rng = random.Random(seed)
    queries = []
    maps = [(GAP_MAP, [[F(1), F(2, 7)], [F(1024), F(1024)]])]  # on and off its graph
    for i in range(4):
        p, d = (2, 3, 5)[(seed + i) % 3], 1 + i // 2
        f = rand_poly_map(rng, p, d, 2, valuations=[(1, 2), (-2, -1, 1, 2)][i % 2],
                          require_mixed=i == 3)
        maps.append((f, [[F(rng.randint(1, 9)) * F(p) ** rng.randint(1, 4) for _ in range(d)]
                         for _ in range(2)]))
    for i, (f, pts) in enumerate(maps):
        p, lin = f.prime, dynamics.linear_part(f)
        vs = sorted({v for v, _ in spectral.spectrum_abs(lin, p)})
        # a * p^-v1 for a in (2/3, 3/4) lies in the gap below p^-v1
        thresholds = [F(p) ** -v1 * t for v1 in vs for t in (F(2, 3), F(3, 4))]
        thresholds += [F(p) ** -vs[0] * t for t in (2, 3)]
        queries.append((f"classify {i}", lambda f=f: dynamics.classify_fixed_point(f)))
        queries.append((f"radius {i}", lambda f=f, lin=lin, p=p:
                        dynamics.linearization_radius(f, spectral.adapted_norm(lin, p))))
        for mode in (dynamics.INVARIANT, dynamics.ISOMETRIC, dynamics.CONTRACTING):
            queries.append((f"ball {mode} {i}", lambda f=f, lin=lin, p=p, mode=mode:
                            dynamics.invariant_ball(f, mode, spectral.adapted_norm(lin, p))))
        for j, x in enumerate(pts):
            for k, a in enumerate(thresholds):
                horizon = (64, 8)[k % 2]
                queries.append((f"member {i}.{j} {a} {horizon}", lambda f=f, a=a, x=x, h=horizon:
                                dynamics.stable_membership(f, a, x, h)))
    return queries


def answer(query):
    try:
        return query()
    except UltradynError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("seed", [1, 2])
def test_warm_answers_equal_cold(seed):
    """Every answer through warm interns, in two call orders, equals the
    answer from empty ones."""
    queries = warm_cold_queries(seed)
    cold = {}
    for name, query in queries:
        spectral._interned.cache_clear()
        dynamics._map_analysis.cache_clear()
        cold[name] = answer(query)
    rng = random.Random(seed)
    for _ in range(2):
        rng.shuffle(queries)
        warm = {name: answer(query) for name, query in queries}
        assert warm == cold
        assert {k: repr(v) for k, v in warm.items()} == {k: repr(v) for k, v in cold.items()}
    kinds = Counter(type(v).__name__ for v in cold.values())
    assert kinds["MembershipVerdict"] and kinds["FixedPointReport"] and kinds["int"]
    assert kinds["BallCertificate"]
