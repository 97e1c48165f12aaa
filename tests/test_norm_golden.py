"""Seeded golden for the adapted-norm build: for fixed matrices (p 2, 3 and
5, d = 2..6, ram 1, 2, 3 and 6, nilpotent blocks, p in the denominators, and
the p-adic companion of t^2 + t + p), the sha256 of repr(norm) and of the
operator norms of m, of m^-1 (when m is invertible) and of a random rational
x, recorded once.  Any change to how a norm is built
or read must leave them byte-identical.

    PYTHONPATH=src python3 tests/test_norm_golden.py

rewrites tests/data/norm_golden.json from the current sources."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from math import inf as INF
from pathlib import Path

from ultradyn import spectral
from ultradyn.errors import PreconditionViolated, RankUncertified
from ultradyn.field import PadicNumber, RationalContext
from ultradyn.polyalg import cmat, mat_inverse, mat_mul

from helpers import _embed, companion, rand_conjugated, unimodular

F = Fraction
PATH = Path(__file__).parent / "data" / "norm_golden.json"


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _rescaled(m, p):
    s = [F(p) ** ((2 * i) % 3 - 1) for i in range(len(m))]
    return [[x * s[i] / s[j] for j, x in enumerate(row)] for i, row in enumerate(m)]


def _padic_companions():
    """t^2 + t + p (roots of valuation 0 and 1, no rational slope factor)
    beside p^2, as is and conjugated by a unimodular S."""
    for p in (2, 3, 5):
        m = [[F(0)] * 3 for _ in range(3)]
        _embed(m, companion([p, 1, 1]), 0)
        m[2][2] = F(p * p)
        yield p, m
        ctx = RationalContext(p)
        for seed in range(3):
            s = unimodular(random.Random(seed), 3)
            yield p, mat_mul(mat_mul(s, m), mat_inverse(cmat(s, ctx), ctx))


def candidate_cases():
    """(p, m) drawn by rand_conjugated for p 2, 3, 5 and d = 2..6, each as
    drawn and rescaled, then the p-adic companions."""
    for seed in range(12):
        for p in (2, 3, 5):
            d = 2 + (seed + p) % 5
            m = rand_conjugated(random.Random(1000 * p + seed), p, d)[0]
            yield p, m
            if seed % 2:
                yield p, _rescaled(m, p)
    yield from _padic_companions()


def record(p, m):
    """The golden entry of m over Q_p, or None when its norm does not build
    (the slope-mixed-kernel defect of conjugated p-adic blocks)."""
    an = spectral.LinearAnalysis(m, p)
    try:
        n = an.norm()
    except (PreconditionViolated, RankUncertified):
        return None
    d = len(m)
    rng = random.Random(repr((p, m)))
    x = [[F(rng.randint(-9, 9), rng.choice([1, p, 3])) for _ in range(d)] for _ in range(d)]
    ops = [spectral.operator_norm(m, p, n), spectral.operator_norm(x, p, n)]
    if all(rho != INF for rho, _ in an.spectrum):
        ctx = RationalContext(p)
        ops.append(spectral.operator_norm(mat_inverse(cmat(m, ctx), ctx), p, n))
    return {"p": p, "matrix": [[str(c) for c in row] for row in m], "ram": n.ram,
            "nilpotent": n.eps_exp is not None,
            "padic": any(isinstance(c, PadicNumber) for row in n.winv for c in row),
            "x": [[str(c) for c in row] for row in x],
            "norm": _sha(n), "operator_norms": _sha(ops)}


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else []


def test_golden_covers_the_build_paths():
    assert len(GOLDEN) >= 50
    assert {c["p"] for c in GOLDEN} == {2, 3, 5}
    assert {len(c["matrix"]) for c in GOLDEN} == {2, 3, 4, 5, 6}
    assert {c["ram"] for c in GOLDEN} == {1, 2, 3, 6}
    assert any(c["nilpotent"] for c in GOLDEN) and any(c["padic"] for c in GOLDEN)
    assert any("/" in s for c in GOLDEN for row in c["matrix"] for s in row)


def test_norms_and_operator_norms_match_golden():
    for case in GOLDEN:
        p, m = case["p"], [[F(s) for s in row] for row in case["matrix"]]
        assert record(p, m) == case, m


if __name__ == "__main__":
    cases = [c for c in (record(p, m) for p, m in candidate_cases()) if c]
    PATH.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
    print(len(cases), "cases written to", PATH, file=sys.stderr)
