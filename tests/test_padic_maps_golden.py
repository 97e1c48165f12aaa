"""Seeded golden for the series kernel over Q_p: polynomial maps whose
coefficients are PadicNumbers, through every composition the library makes.

The cases are rand_poly_map draws over Q_2, Q_3 and Q_5 with d = 1..3 and
degree 2..3, their terms of degree >= 2 handed in as PadicNumbers of mixed
precision.  The linear part is rational (Fractions) in seeds 1 and 3, so
the map mixes exact and capped coefficients, and 64-digit PadicNumbers in
seeds 0 and 2.  Seeds 0 and 1 draw a hyperbolic linear part at a = 1,
seeds 2 and 3 one with eigenvalues of absolute value 1 as well, so that
the Centre graphs have a base.

Each case records the sha256 of repr() of: conjugate by a unimodular T;
formal_inverse(f, 4); graph_series in all four modes with its residual;
remainder_lipschitz at k = 0..3 in the adapted norm of F'(0); and f(x) at
PadicNumber points.  A stage that refuses records the exception's class and
message instead.  Capped p-adic precision depends on the order of the
operations (Caruso, arXiv:1701.06794), so any change to the kernel's order
shows here.

    PYTHONPATH=src python3 tests/test_padic_maps_golden.py

rewrites tests/data/padic_maps_golden.json from the current sources."""

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

from ultradyn import dynamics, manifolds, spectral
from ultradyn.dynamics import PolyMap, _msubst
from ultradyn.errors import UltradynError
from ultradyn.field import MODES, PadicContext, PadicNumber, RationalContext
from ultradyn.polyalg import cmat, mat_inverse

from helpers import rand_poly_map, unimodular

F = Fraction
PATH = Path(__file__).parent / "data" / "padic_maps_golden.json"


def _sha(obj):
    return hashlib.sha256(repr(obj).encode()).hexdigest()


def _stage(build):
    try:
        return _sha(build())
    except UltradynError as e:
        return f"{type(e).__name__}: {e}"


def padic_map(p, d, deg, seed):
    """The map of the case, and the rng that goes on to draw T and the
    points."""
    rng = random.Random(f"padic map {p} {d} {deg} {seed}")
    f = rand_poly_map(rng, p, d, deg, valuations=(-2, -1, 1, 2) if seed < 2 else (-1, 0, 1))

    def coeff(m, c):
        if sum(m) == 1:
            return c if seed % 2 else PadicNumber.from_rational(c, p, 64)
        return PadicNumber.from_rational(c, p, rng.choice([8, 16, 40]))

    tables = [{m: coeff(m, c) for m, c in t.items()} for t in f.tables()]
    return PolyMap.from_tables(tables, p, d), rng


def candidate_cases():
    return [(p, d, deg, seed) for p in (2, 3, 5) for d in (1, 2, 3) for deg in (2, 3)
            for seed in range(4)]


def record(p, d, deg, seed):
    f, rng = padic_map(p, d, deg, seed)
    ctx = f.coeff_context()
    t = unimodular(rng, d)
    tinv = mat_inverse(cmat(t, RationalContext(p)), RationalContext(p))
    pts = [[PadicNumber.from_rational(F(rng.randint(-30, 30), rng.choice([1, p, 7])),
                                      p, rng.choice([12, 40])) for _ in range(d)]
           for _ in range(3)]

    def graph(mode):
        gs = manifolds.graph_series(f, 1, mode, order=4)
        return gs, manifolds.residual(f, gs)

    def lipschitz():
        n = spectral.adapted_norm(dynamics.linear_part(f), p)
        return [dynamics.remainder_lipschitz(f, k, n) for k in range(4)]

    out = {"p": p, "d": d, "deg": deg, "seed": seed,
           "conjugate": _stage(lambda: dynamics.conjugate(f, cmat(t, ctx), cmat(tinv, ctx), ctx)),
           "formal_inverse": _stage(lambda: manifolds.formal_inverse(f, 4)),
           "lipschitz": _stage(lipschitz),
           "call": _stage(lambda: [f(x) for x in pts])}
    for mode in MODES:
        out[mode] = _stage(lambda: graph(mode))
    return out


GOLDEN = json.loads(PATH.read_text()) if PATH.exists() else []


def test_golden_covers_the_padic_maps():
    assert {c["p"] for c in GOLDEN} == {2, 3, 5}
    assert {c["d"] for c in GOLDEN} == {1, 2, 3}
    for stage in ("conjugate", "formal_inverse", "call"):
        assert all(":" not in c[stage] for c in GOLDEN), stage
    for stage in ("lipschitz", *MODES):  # each both builds and refuses
        kinds = {":" in c[stage] for c in GOLDEN}
        assert kinds == {False, True}, stage


def test_padic_maps_match_golden():
    for case in GOLDEN:
        key = (case["p"], case["d"], case["deg"], case["seed"])
        assert record(*key) == case, case


def test_padic_coefficient_enters_before_the_powers():
    """Over Q_2, substituting x, y -> x + y into c xy with c = 1 + O(2^4)
    multiplies c into the first power before the second: 2c is formed as
    c + c, which drops a digit, so xy gets 2 + O(2^4).  Multiplying c into
    (x + y)^2 last would give 2 + O(2^5)."""
    ctx = PadicContext(2)
    c = PadicNumber.from_rational(1, 2, 4)
    x_plus_y = {(1, 0): ctx.one, (0, 1): ctx.one}
    got, = _msubst([{(1, 1): c}], [x_plus_y, x_plus_y], 2, ctx)
    assert repr(got[1, 1]) == "1*2^1+O(2^4)"
    assert [repr(got[m]) for m in ((2, 0), (0, 2))] == ["1*2^0+O(2^4)"] * 2


if __name__ == "__main__":
    cases = [record(*key) for key in candidate_cases()]
    PATH.write_text("[\n" + ",\n".join(json.dumps(c) for c in cases) + "\n]\n")
    print(len(cases), "cases written to", PATH, file=sys.stderr)
