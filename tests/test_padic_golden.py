"""Seeded golden for the p-adic builds: the spectral data, the splitting at
a = 1 and the adapted norm of matrices whose blocks get PadicNumber bases.

Two families of cases:
- the companion block of t^2 + t + p (roots of valuation 0 and 1, so its
  slope factor is not rational) beside rational blocks of other
  valuations, as is and conjugated by two random unimodular S, for p 2, 3
  and 5 and d = 2..8;
- rational matrices drawn by rand_conjugated and handed in as 64-digit
  PadicNumbers.

Each case records the sha256 of repr() of the SpectralData (charpoly and
blocks), of the splitting's W and W^-1, and of the norm with its
norm_exp of seeded PadicNumber vectors and its operator norm of m; a
stage that refuses records the exception's class and message instead.
Any change to the p-adic arithmetic must leave them byte-identical.

    PYTHONPATH=src python3 tests/test_padic_golden.py

rewrites tests/data/padic_golden.json from the current sources."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from ultradyn import spectral
from ultradyn.errors import UltradynError
from ultradyn.field import PadicNumber, RationalContext
from ultradyn.polyalg import cmat, mat_inverse, mat_mul

from helpers import _embed, companion, int_block, rand_conjugated, unimodular

F = Fraction
PATH = Path(__file__).parent / "data" / "padic_golden.json"
DIGITS = 64  # precision of the PadicNumber inputs


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def mixed_companion(rng, p, d, conjugate=True):
    """S D S^-1 with D the companion block of t^2 + t + p beside integral
    blocks of valuations drawn from {-3, -2, -1, 2, 3}; D itself unless
    conjugate."""
    m = [[F(0)] * d for _ in range(d)]
    _embed(m, companion([p, 1, 1]), 0)
    pool, off = [-3, -2, -1, 2, 3], 2
    while off < d:
        size = rng.randint(1, d - off)
        _embed(m, int_block(p, pool.pop(rng.randrange(len(pool))), size), off)
        off += size
    if not conjugate:
        return m
    s, ctx = unimodular(rng, d), RationalContext(p)
    return mat_mul(mat_mul(s, m), mat_inverse(cmat(s, ctx), ctx))


def candidate_cases():
    """(p, m, padic): the conjugated companions, then the rational draws
    handed in as PadicNumbers."""
    for p in (2, 3, 5):
        for d in range(2, 9):
            for seed in range(3):
                rng = random.Random(f"mixed {p} {d} {seed}")
                yield p, mixed_companion(rng, p, d, conjugate=seed > 0), False
    for seed in range(8):
        for p in (2, 3, 5):
            for d in (2, 3, 4):
                yield p, rand_conjugated(random.Random(seed), p, d)[0], True


def _stage(build):
    try:
        return _sha(build())
    except UltradynError as e:
        return f"{type(e).__name__}: {e}"


def record(p, m, padic):
    """The golden entry of m over Q_p, m given as 64-digit PadicNumbers if
    padic."""
    d = len(m)
    mm = [[PadicNumber.from_rational(c, p, DIGITS) for c in row] for row in m] if padic else m
    an = spectral.LinearAnalysis(mm, p)
    rng = random.Random(repr((p, m, padic)))
    vecs = [[PadicNumber.from_rational(F(rng.randint(-50, 50), rng.choice([1, p, 7])),
                                       p, rng.choice([12, 40])) for _ in range(d)]
            for _ in range(4)]

    def norm():
        n = an.norm()
        return n, [n.norm_exp(x) for x in vecs], spectral.operator_norm(mm, p, n)

    def split():
        s = an.splitting(1)
        return s.w, s.winv

    return {"p": p, "matrix": [[str(c) for c in row] for row in m], "padic": padic,
            "data": _stage(lambda: an.data), "splitting": _stage(split), "norm": _stage(norm)}


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else []


def test_golden_covers_the_padic_builds():
    assert {c["p"] for c in GOLDEN} == {2, 3, 5}
    assert {len(c["matrix"]) for c in GOLDEN if not c["padic"]} == set(range(2, 9))
    for stage in ("data", "splitting", "norm"):  # each stage both builds and refuses
        kinds = {":" in c[stage] for c in GOLDEN}
        assert kinds == {False, True}, stage


def test_padic_builds_match_golden():
    for case in GOLDEN:
        m = [[F(s) for s in row] for row in case["matrix"]]
        assert record(case["p"], m, case["padic"]) == case, case


if __name__ == "__main__":
    cases = [record(p, m, padic) for p, m, padic in candidate_cases()]
    PATH.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
    print(len(cases), "cases written to", PATH, file=sys.stderr)
