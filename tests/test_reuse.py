"""Reuse of spectral work: one LinearAnalysis per matrix, one T Winv per
adapted norm, one conjugation per radius scan; and exactness of the
per-pi-power norm_exp kernel against the ExtContext product."""

import json
import random
from collections import Counter
from fractions import Fraction
from functools import cached_property
from math import inf as INF

import pytest

from ultradyn import cli, dynamics, spectral
from ultradyn.dynamics import PolyMap
from ultradyn.field import ExtContext, PadicNumber, RationalContext
from ultradyn.polyalg import cmat, cvec, mat_inverse, mat_mul, mat_vec

from helpers import _embed, frac_block, int_block, nilp_block, rand_vector, unimodular

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


def reference_exps(n, x):
    """v((T Winv x)_i) + q_i for each i, through ExtContext arithmetic."""
    ctx = ExtContext(n.prime, n.ram)
    y = mat_vec(n.transform(ctx), cvec(x, ctx))
    return [ctx.val(c) + q for c, q in zip(y, n.weights)]


@pytest.mark.parametrize("name,p,m,ram", CASES, ids=[c[0] for c in CASES])
def test_norm_exp_matches_ext_product(name, p, m, ram):
    rng = random.Random(name)
    n = spectral.adapted_norm(m, p)
    assert n.ram == ram
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


def test_analysis_parts_are_cached():
    an = spectral.LinearAnalysis(DIAG, 2)
    before = repr(an)
    assert an.spectrum == spectral.spectrum_abs(DIAG, 2)
    assert an.norm() is an.norm()
    assert an.norm(F(1, 2)) is not an.norm()
    assert an.splitting(F(1)) == spectral.splitting_at(DIAG, 2, F(1))
    assert an.is_hyperbolic(F(3)) and not an.is_hyperbolic(F(1))
    assert repr(an) == before and an == spectral.LinearAnalysis(DIAG, 2)


# -- one T Winv per norm -------------------------------------------------------


def test_transform_built_once_per_norm(monkeypatch):
    builds = []
    orig = spectral.AdaptedNorm.__dict__["_planes"].func

    def counted(self):
        builds.append(self)
        return orig(self)

    planes = cached_property(counted)
    planes.__set_name__(spectral.AdaptedNorm, "_planes")
    monkeypatch.setattr(spectral.AdaptedNorm, "_planes", planes)
    transforms = []
    orig_transform = spectral.AdaptedNorm.transform
    monkeypatch.setattr(spectral.AdaptedNorm, "transform",
                        lambda self, ctx=None: transforms.append(1) or orig_transform(self, ctx))
    rng = random.Random(7)
    m = conjugated(rng, [frac_block(3, 1, 3), int_block(3, 0, 2)])
    n = spectral.adapted_norm(m, 3)
    assert builds == []  # nothing is built before the first query
    for _ in range(50):
        n.norm_exp(rand_vector(rng, 3, 5))
    assert len(builds) == 1
    assert not transforms  # norm_exp never rebuilds the ExtElement matrix
    spectral.operator_norm(m, 3, n)
    assert len(builds) == 1


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


# -- one conjugation per radius scan -------------------------------------------


def test_radius_scans_conjugate_once(monkeypatch):
    calls = []
    orig = dynamics.conjugate
    monkeypatch.setattr(dynamics, "conjugate",
                        lambda *a: calls.append(1) or orig(*a))
    f = PolyMap.from_tables([{(1, 0): F(2), (0, 2): F(1, 2**10)},
                             {(0, 1): F(4), (2, 0): F(1)}], p=2)
    a = dynamics.linear_part(f)
    n = spectral.adapted_norm(a, 2)
    k = dynamics.linearization_radius(f, n)
    assert len(calls) == 1
    cert = dynamics.invariant_ball(f, dynamics.CONTRACTING, n)
    assert len(calls) == 2
    # the scans still return the smallest admissible exponent
    ctx = RationalContext(2)
    einv = spectral.operator_norm(mat_inverse(cmat(a, ctx), ctx), 2, n)
    lips = [dynamics.remainder_lipschitz(f, kk, n) for kk in range(65)]
    assert k == next(kk for kk, lip in enumerate(lips) if lip + einv > 0) > 1
    assert cert.radius_exp == next(kk for kk, lip in enumerate(lips) if lip > 0) > 1
