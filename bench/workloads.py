"""The four benchmark workloads and their exact oracles.

A workload turns a seed into deterministic rounds of problems, every round
with the same fixed mix.  A ``Problem`` has a ``compute`` step (the timed
call into ``ultradyn``) and a ``check`` step (untimed) that compares the
result with an answer known by construction.  Library functions are
always reached through their module (``spectral.adapted_norm``), so the
traced run sees every call.
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from math import ceil, inf as INF, lcm
from typing import Callable

from ultradyn import dynamics, manifolds, spectral
from helpers import int_block, rand_conjugated, rand_poly_map, rand_unit, unimodular

import oracles
from oracles import cmp_abs, same_span, second_threshold, threshold_between

F = Fraction


# --------------------------------------------------------------------------
# problems and checks
# --------------------------------------------------------------------------


class Raised:
    """An exception raised by ``compute``, kept as the problem's result."""

    def __init__(self, exc):
        self.exc = exc
        self.kind = type(exc).__name__

    def __repr__(self):
        return f"Raised({self.kind}: {self.exc})"


@dataclass
class Check:
    errors: list = field(default_factory=list)
    certified: int = 0
    verdicts: int = 0

    def expect(self, cond, why):
        if not cond:
            self.errors.append(why)
        return bool(cond)

    def verdict(self, certified):
        self.verdicts += 1
        self.certified += bool(certified)


# The documented known defects (see README), each with how it fails today:
# every error of such a problem must contain one of these strings, or the
# failure counts as unexpected.
KNOWN_DEFECTS = {
    "classify-2x+2^-100x^2": ("no Contracting certificate although one exists",),
    "radius-2x+2^-100x^2": ("Raised(RadiusNotFound: ",),
    "cli-classify-2x+2^-100x^2": ("no Contracting certificate although one exists",),
    "cli-graph-order-x": ("exit code 1", "traceback on stderr"),
    "cli-member-horizon-5": ("exit code 1", "traceback on stderr"),
    "cli-graph-order-true": ("exit code 0, expected 4",),
    "cli-orbit-steps-minus-3": ("exit code 0, expected 4",),
    "slope-mixed-kernel": ("unexpected exception Raised(RankUncertified: ",),
}


@dataclass
class Problem:
    name: str
    compute: Callable[[], object]
    check: Callable[[object, Check], None]
    defect: str | None = None  # name of a documented known defect, if any
    command: str | None = None  # CLI command, for cli-batch problems

    def verify(self, result) -> Check:
        chk = Check()
        if isinstance(result, Raised):
            chk.errors.append(f"unexpected exception {result!r}")
            return chk
        try:
            self.check(result, chk)
        except Exception as exc:  # a malformed result must fail, not crash
            chk.errors.append(f"check raised {type(exc).__name__}: {exc}")
        return chk

    def unexpected(self, chk) -> bool:
        """True if the problem failed other than as its known defect does."""
        expect = KNOWN_DEFECTS.get(self.defect, ())
        return any(not any(e in err for e in expect) for err in chk.errors)


def _rng(*parts):
    return random.Random("/".join(str(p) for p in parts))


# --------------------------------------------------------------------------
# spectrum oracles shared by the linear workloads
# --------------------------------------------------------------------------


def gap_thresholds(p, spec):
    """[(a, hyperbolic)] at every integral spectrum value (not hyperbolic)
    and inside every gap and beyond both ends (hyperbolic)."""
    finite = sorted(v for v, _ in spec if v != INF)
    has_inf = any(v == INF for v, _ in spec)
    out = [(F(p) ** -int(v), False) for v in finite if v.denominator == 1]
    for v1, v2 in zip(finite, finite[1:]):
        out.append((threshold_between(p, v1, v2), True))
    if finite:
        out.append((threshold_between(p, finite[0] - 1, finite[0]), True))
        out.append((threshold_between(p, finite[-1],
                                      INF if has_inf else finite[-1] + 1), True))
    else:
        out.extend([(F(1), True), (F(1, p), True)])
    return out


def expected_ram(spec):
    return lcm(1, *(F(v).denominator for v, _ in spec if v != INF))


def expected_operator_norm(spec, eps_exp):
    """Exponent of ||M|| in an adapted norm: p^-rho on each finite block,
    p^-eps_exp on a nilpotent block that is not zero (size >= 2)."""
    exps = [v for v, _ in spec if v != INF]
    exps += [eps_exp for v, mult in spec if v == INF and mult >= 2]
    return min(exps, default=INF)


def cached_norm(n):
    """``n`` with its transform built once, for the untimed oracle checks,
    which call ``norm_exp`` many times on one norm.  An AdaptedNorm is
    immutable, so ``norm_exp`` would rebuild the same matrix on every call;
    the answers are the same either way."""
    t = n.transform()
    fast = copy.copy(n)
    try:
        object.__setattr__(fast, "transform", lambda ctx=None: t)
    except AttributeError:  # a norm without an instance dict: use it as is
        return n
    return fast


def check_adapted_norm(chk, m, p, spec, eigcols, n, r):
    finite = [v for v, _ in spec if v != INF]
    has_inf = any(v == INF for v, _ in spec)
    chk.expect(n.ram == expected_ram(spec), f"ram {n.ram} != {expected_ram(spec)}")
    if has_inf:
        chk.expect(n.eps_exp is not None and n.eps_exp > max(finite, default=0),
                   f"nilpotent contraction p^-{n.eps_exp} not below the spectrum")
    else:
        chk.expect(n.eps_exp is None, "eps_exp set without a nilpotent block")
    if not chk.errors:
        want = expected_operator_norm(spec, n.eps_exp)
        chk.expect(r == want, f"operator norm exponent {r} != {want}")
    n = cached_norm(n)
    for v, cols in eigcols.items():
        x = cols[0]
        ex, emx = n.norm_exp(x), n.norm_exp(oracles.mat_vec(m, x))
        if v == INF:
            chk.expect(emx >= ex + n.eps_exp, f"no contraction on E_inf: {ex} -> {emx}")
        else:
            chk.expect(emx == ex + v, f"scaling on E_{v}: {ex} -> {emx}")


def block_signature(spec):
    """Sorted (kind, size) of the blocks behind a constructed spectrum:
    'n' nilpotent, 'f' fractional valuation, 'i' integral valuation."""
    return tuple(sorted(("n" if v == INF else "f" if F(v).denominator > 1 else "i", k)
                        for v, k in spec))


def conjugated_of_kind(rng, p, d, kind=None, signature=None):
    """``rand_conjugated`` draw of the requested kind ('int', 'nil', 'ram2',
    'ram3', 'ram6') or exact block signature, by rejection."""
    for _ in range(100000):
        m, spec, eigcols = rand_conjugated(rng, p, d, allow_nilpotent=kind != "int",
                                           allow_fractional=kind not in ("int", "nil"))
        has_inf = any(v == INF for v, _ in spec)
        if signature is not None:
            ok = block_signature(spec) == signature
        elif kind == "nil":
            ok = has_inf
        elif kind.startswith("ram"):
            ok = expected_ram(spec) == int(kind[3:])
        else:
            ok = True
        if ok:
            return m, spec, eigcols
    raise RuntimeError(f"no {kind or signature} matrix of size {d} drawn")


def reconjugated(rng, drawn):
    """A (matrix, spectrum, eigcols) draw moved to a new random basis: the
    block-diagonal D behind the matrix is recovered from its eigenvector
    bases, and S*D*S^-1 is returned with the same spectrum and with the
    columns of S as its eigenvector bases."""
    m0, spec, eigcols0 = drawn
    d = len(m0)
    vals = list(eigcols0)
    cols = [c for v in vals for c in eigcols0[v]]
    s0 = [[c[i] for c in cols] for i in range(d)]
    dmat = oracles.mat_mul(oracles.mat_mul(oracles.inverse(s0), m0), s0)
    s = unimodular(rng, d)
    m = oracles.mat_mul(oracles.mat_mul(s, dmat), oracles.inverse(s))
    eigcols, j = {}, 0
    for v in vals:
        eigcols[v] = [[s[i][j + k] for i in range(d)] for k in range(len(eigcols0[v]))]
        j += len(eigcols0[v])
    return m, spec, eigcols


def slope_mixed_conjugated(rng, p, d):
    """S*D*S^-1 whose rational characteristic polynomial has a slope-mixed
    factor, so that ``spectral_data`` must split it by Hensel lifting
    (``slope_factorization``) and work with p-adic bases.

    D holds the companion block of t^2 + t + p, irreducible over Q for
    p in (2, 3, 5) (its discriminant 1 - 4p is negative), whose Newton
    polygon gives one root of valuation 1 and one unit root; the other
    blocks are integral, with valuations outside {0, 1}.  Returns
    (matrix, spectrum, eigvecs): eigvecs maps each valuation to a basis of
    its eigenspace, exact for the integral blocks and, for the two roots
    lambda of the mixed block, the eigenvector S (1 + lambda, 1) with
    lambda lifted to MIXED_DIGITS p-adic digits."""
    blocks = [("mixed", 2, [[F(0), F(-p)], [F(1), F(-1)]])]
    pool = [F(v) for v in (-3, -2, -1, 2, 3)]
    left = d - 2
    while left > 0:
        size = rng.randint(1, left)
        v = pool.pop(rng.randrange(len(pool)))
        blocks.append((v, size, int_block(p, int(v), size)))
        left -= size
    dmat = [[F(0)] * d for _ in range(d)]
    spans, off = {}, 0
    for v, size, b in blocks:
        for i, row in enumerate(b):
            dmat[off + i][off:off + size] = row
        spans[v] = range(off, off + size)
        off += size
    s = unimodular(rng, d)
    m = oracles.mat_mul(oracles.mat_mul(s, dmat), oracles.inverse(s))
    eigvecs = {v: [[s[i][j] for i in range(d)] for j in cols]
               for v, cols in spans.items() if v != "mixed"}
    for rho, x0 in ((F(0), -1), (F(1), 0)):
        lam = oracles.hensel_root((p, 1, 1), x0, p, MIXED_DIGITS)
        eigvecs[rho] = [[s[i][0] * (1 + lam) + s[i][1] for i in range(d)]]
    spec = sorted((v, len(cols)) for v, cols in eigvecs.items())
    return m, spec, eigvecs


MIXED_DIGITS = 60


# --------------------------------------------------------------------------
# linear-build: many distinct matrices, each analysed once
# --------------------------------------------------------------------------


LINEAR_KINDS = {2: ("int", "nil", "ram2")}
LINEAR_KINDS.update({d: ("int", "nil", "ram2", "ram3") for d in (3, 4)})
LINEAR_KINDS.update({d: ("int", "nil", "ram2", "ram3", "ram6") for d in (5, 6, 7, 8)})


class LinearBuild:
    name = "linear-build"
    # Block structure drives the cost (an ExtContext with ram = 6 costs about
    # three times ram = 1), so every round holds each (d, kind) stratum once;
    # kinds are drawn from rand_conjugated by rejection.  Strata are
    # interleaved so that every prefix of a round mixes sizes.
    STRATA = [(d, LINEAR_KINDS[d][j]) for j in range(5) for d in (2, 5, 8, 3, 6, 4, 7)
              if j < len(LINEAR_KINDS[d])]

    # (d, p) of the slope-mixed matrices.  Their kernels hit the known
    # defect `slope-mixed-kernel` on most draws, so they are drawn from a
    # fixed key, the same on every seed: the failure count of a run then
    # does not depend on the seed.
    MIXED = [(2, 2), (2, 3), (2, 5), (3, 3), (5, 5), (8, 2)]

    def __init__(self, seed, perturb=False):
        self.seed = seed
        self.perturb = perturb

    def warmup(self):
        return self.problem(conjugated_of_kind(_rng("warmup"), 2, 4, "ram2"), 2, "ram2",
                            "warmup")

    def round(self, r):
        """The block structure of each stratum's matrix comes from a fixed
        key, the same on every seed, and the seed draws its basis: so the
        mix of spectra, which sets most of the cost, does not move with the
        seed, while the matrices do."""
        out = []
        for i, (d, kind) in enumerate(self.STRATA):
            p = (2, 3, 5)[(r + i) % 3]
            shape = conjugated_of_kind(_rng("shape", r, i), p, d, kind)
            out.append(self.problem(reconjugated(_rng(self.seed, r, i), shape), p, kind,
                                    f"linear d={d} p={p} {kind} #{r}.{i}"))
        for i, (d, p) in enumerate(self.MIXED):
            drawn = slope_mixed_conjugated(_rng("mixed", r, i), p, d)
            out.insert(5 * i + 3, self.problem(drawn, p, "mixed",
                                               f"linear d={d} p={p} mixed #{r}.m{i}"))
        return out

    def problem(self, drawn, p, kind, name):
        m, spec, eigcols = drawn
        if self.perturb:  # self-check: a deliberately wrong expected spectrum
            spec = [(v + 1 if v != INF else F(-100), k) for v, k in spec]
        thresholds = gap_thresholds(p, spec)
        gaps = sorted(a for a, hyp in thresholds if hyp)
        a_split = gaps[len(gaps) // 2]

        def compute():
            sa = spectral.spectrum_abs(m, p)
            hyp = [spectral.is_hyperbolic(m, p, a) for a, _ in thresholds]
            s = spectral.splitting_at(m, p, a_split)
            n = spectral.adapted_norm(m, p)
            return sa, hyp, s, n, spectral.operator_norm(m, p, n)

        def check(res, chk):
            sa, hyp, s, n, r = res
            chk.expect(list(sa) == list(spec), f"spectrum {sa} != {spec}")
            chk.expect(hyp == [h for _, h in thresholds], "hyperbolicity verdicts")
            for _ in hyp:
                chk.verdict(True)  # exact by construction of is_hyperbolic
            for part, side in ((s.stable, 1), (s.centre, 0), (s.unstable, -1)):
                want = [c for v, cols in eigcols.items()
                        if cmp_abs(a_split, v, p) == side for c in cols]
                spans = oracles.near_span(part, want, p, MIXED_DIGITS // 3) \
                    if kind == "mixed" else same_span(part, want)
                chk.expect(spans, f"splitting part {side} at {a_split}")
            check_adapted_norm(chk, m, p, spec, eigcols, n, r)

        return Problem(name, compute, check,
                       defect="slope-mixed-kernel" if kind == "mixed" else None)


# --------------------------------------------------------------------------
# norm-query: a few matrices, many queries through one adapted norm
# --------------------------------------------------------------------------


class NormQuery:
    name = "norm-query"
    D = 5
    VECTORS = 8
    HORIZON = 20

    # One fixed block structure per matrix slot.  Each slot's block-diagonal
    # part (valuations included) comes from a fixed key, the same on every
    # seed, and the seed draws the basis: so seeds differ in the matrices
    # but hardly in the work each query does.  A ram = 2 query costs about
    # three times a ram = 1 one and a ram = 3 query about twice a ram = 2
    # one; with 3 + 3 + 4 slots the median problem lies inside the ram = 2
    # cluster and the p75 tail inside the ram = 3 one, neither on the edge
    # between two clusters.
    SLOTS = [
        (2, (("i", 1), ("i", 2), ("i", 2))),
        (3, (("i", 1), ("i", 3), ("n", 1))),
        (2, (("i", 1), ("i", 2), ("n", 2))),
        (3, (("f", 2), ("i", 1), ("i", 2))),
        (5, (("f", 2), ("i", 1), ("n", 2))),
        (5, (("f", 2), ("i", 3))),
        (2, (("f", 3), ("i", 2))),
        (3, (("f", 3), ("i", 1), ("n", 1))),
        (5, (("f", 3), ("i", 2))),
        (2, (("f", 3), ("i", 1), ("i", 1))),
    ]
    RAMIFIED = 3  # slots from this index on have ram > 1

    def __init__(self, seed, perturb=False):
        self.seed = seed
        self.perturb = perturb
        self._mats = None

    @property
    def mats(self):
        """The slot matrices, drawn on first use (with the first round, so
        outside set-up): three with ram = 1, three with ram = 2, four with
        ram = 3."""
        if self._mats is None:
            self._mats = [(p,) + reconjugated(_rng(self.seed, "matrices", i),
                                              self.shape(i))
                          for i, (p, _) in enumerate(self.SLOTS)]
        return self._mats

    def shape(self, i):
        p, sig = self.SLOTS[i]
        return conjugated_of_kind(_rng("norm-shape", i), p, self.D,
                                  signature=tuple(sorted(sig)))

    def warmup(self):
        p, sig = self.SLOTS[4]
        mat = (p,) + conjugated_of_kind(_rng("warmup"), p, self.D, signature=tuple(sorted(sig)))
        return self.problem(mat, _rng("warmup"), "warmup")

    def round(self, r):
        return [self.problem(self.mats[i], _rng(self.seed, r, i),
                             f"norm ram{'>1' if i >= self.RAMIFIED else '=1'} m{i} #{r}")
                for i in (0, 3, 6, 1, 4, 7, 2, 5, 8, 9)]

    def problem(self, mat, rng, name):
        p, m, spec, eigcols = mat
        keys = list(eigcols)
        vecs = []
        for k in range(self.VECTORS):
            rho = keys[k % len(keys)]
            x = [F(0)] * self.D
            while all(c == 0 for c in x):
                for b in eigcols[rho]:
                    lam = F(rng.randint(-9, 9), rng.choice([1, 3, p * p]))
                    x = [xc + lam * bc for xc, bc in zip(x, b)]
            vecs.append((rho, x, oracles.mat_vec(m, x)))
        integral = [v for v, _ in spec if v != INF and v.denominator == 1]
        rho_w = rng.choice(integral)
        if self.perturb:
            rho_w += 1
        a = F(p) ** -int(rho_w)

        def compute():
            n = spectral.adapted_norm(m, p)
            pairs = [(n.norm_exp(x), n.norm_exp(mx)) for _, x, mx in vecs]
            w = spectral.nonhyperbolicity_witness(m, p, a, horizon=self.HORIZON)
            v, exps = list(w.vector), []
            for _ in range(self.HORIZON + 1):
                exps.append(n.norm_exp(v))
                v = oracles.mat_vec(m, v)
            return n, pairs, w, exps

        def check(res, chk):
            n, pairs, w, exps = res
            for (rho, _, _), (ex, emx) in zip(vecs, pairs):
                chk.expect(ex != INF and (ex * n.ram).denominator == 1,
                           f"norm exponent {ex} outside the value group")
                if rho == INF:
                    chk.expect(emx >= ex + n.eps_exp, f"E_inf: {ex} -> {emx}")
                else:
                    chk.expect(emx == ex + rho, f"scaling on E_{rho}: {ex} -> {emx}")
            chk.verdict(w.constant)
            chk.expect(w.constant and w.rho == rho_w, f"witness at rho={rho_w}")
            cols = eigcols.get(rho_w, [])
            chk.expect(cols and oracles.rank(cols + [list(w.vector)]) == len(cols),
                       "witness vector outside its eigenspace")
            chk.expect(all(e - k * rho_w == exps[0] for k, e in enumerate(exps)),
                       "witness orbit not constant over the horizon")

        return Problem(name, compute, check)


# --------------------------------------------------------------------------
# map-certify: polynomial maps through classification, radii, membership
# and invariant graphs
# --------------------------------------------------------------------------

MODES = {dynamics.UNIFORMLY_ATTRACTIVE: dynamics.CONTRACTING,
         dynamics.STABLY_NEUTRAL: dynamics.ISOMETRIC,
         dynamics.NON_EXPANDING: dynamics.INVARIANT}


def expected_label(spec):
    vs = [v for v, _ in spec]
    if any(v == INF for v in vs):
        return dynamics.HAS_EXPANSION
    if all(v > 0 for v in vs):
        return dynamics.UNIFORMLY_ATTRACTIVE
    if all(v == 0 for v in vs):
        return dynamics.STABLY_NEUTRAL
    if all(v >= 0 for v in vs):
        return dynamics.NON_EXPANDING
    return dynamics.HAS_EXPANSION


def map_with_spectrum(rng, p, d, deg, valuations, mixed=False, nterms=3):
    """``rand_poly_map`` draw whose linear part's spectrum and eigenspaces
    are known: replay the generator's own ``rand_conjugated`` call."""
    while True:
        state = rng.getstate()
        m, spec, eigcols = rand_conjugated(rng, p, d, allow_nilpotent=False,
                                           allow_fractional=False,
                                           valuations=valuations)
        if not mixed or (any(v > 0 for v, _ in spec) and any(v < 0 for v, _ in spec)):
            break
    rng.setstate(state)
    f = rand_poly_map(rng, p, d, deg, valuations=valuations, nterms=nterms)
    if dynamics.linear_part(f) != m:
        raise RuntimeError("rand_poly_map no longer matches rand_conjugated")
    return f, spec, eigcols


def check_certificate(f, cert, p, rng, chk, points_per_shell=20):
    """Criterion-8 check: the ball certificate holds pointwise on 3 shells."""
    n = cached_norm(cert.norm)
    d = f.nvars
    for _ in range(100):
        z0 = [rand_unit(rng, p) for _ in range(d)]
        e0 = n.norm_exp(z0)
        if e0 != INF and e0.denominator == 1:
            break
    else:
        chk.errors.append("no integral-norm seed direction for the certificate check")
        return
    for shell in range(3):
        k = cert.radius_exp + shell
        checked = 0
        for j in range(points_per_shell):
            # the first point is p^(k - e0) z0, on the shell by homogeneity;
            # the others scale each coordinate by its own unit
            units = [F(1)] * d if j == 0 else [rand_unit(rng, p) for _ in range(d)]
            x = [u * c * F(p) ** int(k - e0) for u, c in zip(units, z0)]
            ex = n.norm_exp(x)
            if ex != k:
                continue
            ey = n.norm_exp(oracles.poly_eval(f.tables(), x))
            ok = {dynamics.INVARIANT: ey >= ex, dynamics.ISOMETRIC: ey == ex,
                  dynamics.CONTRACTING: ey >= ex + cert.contraction_exp}[cert.mode]
            if not chk.expect(ok, f"{cert.mode} certificate fails at shell {k}"):
                return
            checked += 1
        if not chk.expect(checked, f"no point of shell {k} checked"):
            return


def check_linearization(f, n, k, p, rng, chk, pairs=10):
    """Criterion-9 check: ||F(z) - F(y)|| == ||A (z - y)|| inside the ball."""
    a = dynamics.linear_part(f)
    tables = f.tables()
    d = f.nvars
    n = cached_norm(n)
    done = 0
    for _ in range(20 * pairs):
        z = [rand_unit(rng, p) * F(p) ** (int(k) + rng.randint(3, 6)) for _ in range(d)]
        y = [rand_unit(rng, p) * F(p) ** (int(k) + rng.randint(3, 6)) for _ in range(d)]
        if z == y or n.norm_exp(z) < k or n.norm_exp(y) < k:
            continue
        fz, fy = oracles.poly_eval(tables, z), oracles.poly_eval(tables, y)
        lhs = n.norm_exp([u - w for u, w in zip(fz, fy)])
        rhs = n.norm_exp(oracles.mat_vec(a, [u - w for u, w in zip(z, y)]))
        if not chk.expect(lhs == rhs, f"not an isometry with A inside p^-{k}"):
            return
        done += 1
        if done == pairs:
            return
    chk.expect(False, f"only {done} of {pairs} pairs inside p^-{k} checked")


def classify_problem(f, spec, name, defect=None):
    p = f.prime
    want = expected_label(spec)

    def compute():
        return dynamics.classify_fixed_point(f)

    def check(r, chk):
        chk.expect(r.label == want, f"label {r.label} != {want}")
        chk.expect(list(r.spectrum) == list(spec), f"spectrum {r.spectrum} != {spec}")
        if want in MODES:
            chk.verdict(r.certificate is not None)
            if chk.expect(r.certificate is not None,
                          f"no {MODES[want]} certificate although one exists"):
                check_certificate(f, r.certificate, p, _rng(name, "cert"), chk)

    return Problem(name, compute, check, defect)


def radius_problem(f, name, defect=None):
    p = f.prime
    a = dynamics.linear_part(f)

    def compute():
        n = spectral.adapted_norm(a, p)
        try:
            return n, dynamics.linearization_radius(f, n)
        except dynamics.RadiusNotFound as exc:
            return n, Raised(exc)

    def check(res, chk):
        n, k = res
        chk.verdict(not isinstance(k, Raised))
        if chk.expect(not isinstance(k, Raised),
                      f"{k!r} although a linearization radius exists"):
            check_linearization(f, n, k, p, _rng(name, "pairs"), chk)

    return Problem(name, compute, check, defect)


def _certified(verdict):
    return verdict.verdict in (dynamics.CERTIFIED_MEMBER, dynamics.CERTIFIED_NON_MEMBER)


def _check_member(chk, v, member, what):
    """Count the verdict; it must be certified and match the oracle.  Every
    point the benchmark asks about has a finite certificate by construction:
    a non-member's orbit leaves the threshold's growth bound in finitely many
    steps, and a member is the fixed point, lies on an exact polynomial
    graph, or lies in the stable subspace of a linear map."""
    chk.verdict(_certified(v))
    if chk.expect(_certified(v), f"{what}: {v.verdict} although a certificate exists"):
        reached_zero = INF in v.trace
        want = dynamics.CERTIFIED_MEMBER if (member or reached_zero) \
            else dynamics.CERTIFIED_NON_MEMBER
        chk.expect(v.verdict == want, f"{what}: {v.verdict}, expected {want}")


def below_membership_problem(f, spec, rng, name):
    """Thresholds below the whole spectrum: only the fixed point is locally
    a member (criterion 7c); points are pushed into the linearization ball."""
    p, d = f.prime, f.nvars
    vmax = max(v for v, _ in spec)
    a = threshold_between(p, vmax, vmax + 1)
    b = second_threshold(p, vmax, vmax + 1, a)
    x0 = [rand_unit(rng, p) * F(p) ** rng.randint(2, 5) for _ in range(d)]
    lin = dynamics.linear_part(f)

    def compute():
        n = spectral.adapted_norm(lin, p)
        k = dynamics.linearization_radius(f, n)
        shift = max(0, ceil(k - n.norm_exp(x0)) + 1)
        xs = [c * F(p) ** shift for c in x0]
        zero = [F(0)] * d
        return [dynamics.stable_membership(f, t, x) for t in (a, b) for x in (zero, xs)]

    def check(vs, chk):
        za, xa, zb, xb = vs
        for v in (za, zb):
            _check_member(chk, v, True, "fixed point")
        for v in (xa, xb):
            _check_member(chk, v, False, "point in the linearization ball")
        chk.expect(xa.verdict == xb.verdict, f"verdicts differ in one gap: "
                   f"{xa.verdict} at {a}, {xb.verdict} at {b}")

    return Problem(name, compute, check)


def into_dominance_ball(f, x, ru):
    """x scaled by p^s, s >= 3, into the ball where ``stable_membership``
    certifies a point with a dominant unstable component: the smallest
    radius p^-k whose remainder Lipschitz bound beats the slowest unstable
    expansion p^-ru.  A point outside that ball escapes too, but no orbit
    point re-enters it, so no certificate would apply."""
    p = f.prime
    n = spectral.adapted_norm(dynamics.linear_part(f), p)
    k = next(kk for kk in range(65) if dynamics.remainder_lipschitz(f, kk, n) > ru)
    shift = max(3, ceil(k - n.norm_exp(x)))
    return [c * F(p) ** shift for c in x]


def gap_membership_problem(f, spec, eigcols, v1, v2, name, both=True):
    """Thresholds inside the gap (v1, v2): the fixed point is a member, a
    small point on an eigenvector with |lambda| > a is not, and both
    thresholds of the gap must agree (criterion 7b).  The point is pushed
    into the dominance ball when generated, outside any timing."""
    p, d = f.prime, f.nvars
    a = threshold_between(p, v1, v2)
    ts = [a, second_threshold(p, v1, v2, a)] if both else [a]
    xu = into_dominance_ball(f, eigcols[v1][0], v1)
    zero = [F(0)] * d

    def compute():
        return [(dynamics.stable_membership(f, t, zero),
                 dynamics.stable_membership(f, t, xu)) for t in ts]

    def check(vs, chk):
        for vz, vx in vs:
            _check_member(chk, vz, True, "fixed point")
            _check_member(chk, vx, False, "unstable eigenvector point")
        chk.expect(len({vx.verdict for _, vx in vs}) == 1,
                   f"verdicts differ in one gap: {[vx.verdict for _, vx in vs]}")

    return Problem(name, compute, check)


def linear_membership_problem(f, eigcols, rng, name):
    """Linear maps (criterion 6): x is a member iff its components on the
    eigenspaces with |lambda| >= a vanish, which holds by construction."""
    p, d = f.prime, f.nvars
    a = F(1)
    stable = [c for v, cols in eigcols.items() if cmp_abs(a, v, p) == 1 for c in cols]
    other = [c for v, cols in eigcols.items() if cmp_abs(a, v, p) != 1 for c in cols]

    def combo(vectors):
        x = [F(0)] * d
        for b in vectors:
            lam = F(rng.randint(1, 6)) * rng.choice((1, -1))
            x = [xc + lam * bc for xc, bc in zip(x, b)]
        return x

    points = [(combo(stable), True), (combo(stable), True),
              ([s + o for s, o in zip(combo(stable), combo(other))], False),
              (combo(other), False)]

    def compute():
        return [dynamics.stable_membership(f, a, x) for x, _ in points]

    def check(vs, chk):
        for v, (_, member) in zip(vs, points):
            _check_member(chk, v, member, "linear map point")

    return Problem(name, compute, check)


def graph_problem(f, eigcols, a, order, name, coefficients=None):
    """Stable graph at a through ``order``; its truncated residual must be
    zero and its bases must span the oracle's eigenspaces."""
    p = f.prime
    base = [c for v, cols in eigcols.items() if cmp_abs(a, v, p) == 1 for c in cols]
    comp = [c for v, cols in eigcols.items() if cmp_abs(a, v, p) != 1 for c in cols]

    def compute():
        gs = manifolds.graph_series(f, a, manifolds.STABLE, order=order)
        return gs, manifolds.residual(f, gs)

    def check(res, chk):
        gs, r = res
        chk.expect(all(t == {} for t in r), "nonzero graph residual")
        chk.expect(gs.order == order, f"order {gs.order} != {order}")
        chk.expect(same_span(gs.base_basis, base), "graph base basis")
        chk.expect(same_span(gs.complement_basis, comp), "graph complement basis")
        if coefficients is not None:
            chk.expect(gs.coefficients == coefficients,
                       f"coefficients {gs.coefficients} != {coefficients}")

    return Problem(name, compute, check)


def paper_family(rng, p):
    """F(x, y) = (lam x, mu y + c x^2) with |lam| < 1 < |mu|: its stable
    graph is exactly y = alpha x^2, alpha = c / (lam^2 - mu)."""
    lam = F(p) ** rng.randint(1, 2)
    mu = F(p) ** -rng.randint(1, 2)
    c = rand_unit(rng, p) * F(p) ** rng.randint(0, 2)
    return family_map(p, lam, mu, c)


def family_map(p, lam, mu, c):
    f = dynamics.PolyMap.from_tables([{(1, 0): lam}, {(0, 1): mu, (2, 0): c}], p, 2)
    spec = sorted([(oracles.val(mu, p), 1), (oracles.val(lam, p), 1)])
    eigcols = {oracles.val(lam, p): [[F(1), F(0)]], oracles.val(mu, p): [[F(0), F(1)]]}
    return f, spec, eigcols, c / (lam * lam - mu)


def family_membership_problem(f, spec, alpha, rng, name):
    """Points on the exact stable graph are members; points off it are not."""
    p = f.prime
    (v1, _), (v2, _) = spec
    a = threshold_between(p, v1, v2)
    ts = (a, second_threshold(p, v1, v2, a))
    xs = [rand_unit(rng, p) * F(p) ** rng.randint(1, 3) for _ in range(2)]
    on = [xs[0], alpha * xs[0] ** 2]
    off = [xs[1], alpha * xs[1] ** 2 + rand_unit(rng, p)]

    def compute():
        return [(dynamics.stable_membership(f, t, on),
                 dynamics.stable_membership(f, t, off)) for t in ts]

    def check(vs, chk):
        for von, voff in vs:
            _check_member(chk, von, True, "point on the stable graph")
            _check_member(chk, voff, False, "point off the stable graph")

    return Problem(name, compute, check)


DEFECT_MAP = ("2x+2^-100x^2 over Q_2", [{(1,): F(2), (2,): F(1, 2 ** 100)}], 2)


class MapCertify:
    name = "map-certify"
    VALUATIONS = (-2, -1, 0, 1, 2)
    # random maps: one per (d, degree, p)
    STRATA = [(d, deg, p) for deg in (2, 3) for p in (2, 3, 5) for d in (1, 2, 3)]
    # the pinned degree-3, 3-variable in-gap membership problem (see README)
    HEAVY = ("heavy", 3)

    def __init__(self, seed, perturb=False):
        self.seed = seed
        self.perturb = perturb

    def warmup(self):
        f, spec, _ = map_with_spectrum(_rng("warmup"), 2, 2, 2, (1, 2))
        return classify_problem(f, spec, "warmup")

    def heavy_problem(self):
        f, spec, eigcols = map_with_spectrum(_rng(*self.HEAVY), 2, 3, 3, (-2, -1, 1, 2),
                                             mixed=True)
        vs = sorted({v for v, _ in spec})
        v1, v2 = next((u, w) for u, w in zip(vs, vs[1:]) if u < 0 < w)
        return gap_membership_problem(f, spec, eigcols, v1, v2,
                                      "heavy: d=3 deg=3 in-gap membership", both=False)

    def round(self, r):
        out = [self.heavy_problem()] if r == 0 else []
        for i, (d, deg, p) in enumerate(self.STRATA):
            rng = _rng(self.seed, r, i)
            f, spec, eigcols = map_with_spectrum(rng, p, d, deg, self.VALUATIONS)
            if self.perturb:
                spec = [(v + 1, k) for v, k in spec]
            tag = f"d={d} deg={deg} p={p} #{r}.{i}"
            out.append(classify_problem(f, spec, f"classify {tag}"))
            out.append(radius_problem(f, f"radius {tag}"))
            if all(v != 0 for v, _ in spec):
                out.append(below_membership_problem(f, spec, rng, f"member-below {tag}"))
        # six per round, so that the p95 tail lies inside this cluster
        for i, p in enumerate((2, 3, 5, 2, 3, 5)):
            rng = _rng(self.seed, r, "mixed", i)
            f, spec, eigcols = map_with_spectrum(rng, p, 2, 2, (-2, -1, 1, 2), mixed=True)
            tag = f"d=2 deg=2 p={p} #{r}.m{i}"
            v1 = max(v for v, _ in spec if v < 0)
            v2 = min(v for v, _ in spec if v > 0)
            out.append(gap_membership_problem(f, spec, eigcols, v1, v2, f"member-gap {tag}"))
            out.append(graph_problem(f, eigcols, F(1), 4 + (r + i) % 5, f"graph {tag}"))
        for i, (d, p) in enumerate(((2, 2), (3, 3), (4, 5))):
            rng = _rng(self.seed, r, "linear", i)
            f, spec, eigcols = map_with_spectrum(rng, p, d, 1, (-2, -1, 1, 2), mixed=True,
                                                 nterms=0)
            out.append(linear_membership_problem(f, eigcols, rng,
                                                 f"member-linear d={d} p={p} #{r}.{i}"))
        for i, p in enumerate((2, 3)):
            rng = _rng(self.seed, r, "family", i)
            f, spec, eigcols, alpha = paper_family(rng, p)
            tag = f"family p={p} #{r}.{i}"
            out.append(graph_problem(f, eigcols, F(1), 4 + (r + 2 * i + 1) % 5,
                                     f"graph {tag}", (((2,), (alpha,)),)))
            out.append(family_membership_problem(f, spec, alpha, rng, f"member {tag}"))
        f, spec, eigcols, alpha = family_map(2, F(2), F(1, 2), F(1))
        out.append(classify_problem(f, spec, f"classify paper map #{r}"))
        out.append(graph_problem(f, eigcols, F(1), 4 + r % 5, f"graph paper map #{r}",
                                 (((2,), (F(2, 7),)),)))
        label, tables, p = DEFECT_MAP
        f = dynamics.PolyMap.from_tables(tables, p, 1)
        spec = [(F(1), 1)]
        out.append(classify_problem(f, spec, f"classify {label} #{r}",
                                    defect="classify-2x+2^-100x^2"))
        out.append(radius_problem(f, f"radius {label} #{r}", defect="radius-2x+2^-100x^2"))
        return out


# --------------------------------------------------------------------------
# cli-batch: JSON problem files through fresh CLI processes
# --------------------------------------------------------------------------


def fmt(x):
    """The CLI's canonical string for a valuation or rational."""
    return "inf" if x == INF else str(F(x))


def parse_vec(v):
    return [F(c) for c in v]


@dataclass
class CliRun:
    code: int
    out: str
    err: str
    maxrss_kb: int
    cpu_s: float  # user + system CPU seconds of the CLI child
    trace: dict | None = None


class CliBatch:
    name = "cli-batch"

    def __init__(self, seed, perturb=False, workdir="bench_out", src="src"):
        self.seed = seed
        self.perturb = perturb
        self.workdir = workdir
        self.src = os.path.abspath(src)
        self.traced = False  # set by the runner for the traced pass
        self.child = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                  "cli_child.py")
        os.makedirs(workdir, exist_ok=True)

    def env(self):
        return dict(os.environ, PYTHONPATH=self.src)

    def run_cli(self, argv, tag):
        out_path = os.path.join(self.workdir, f"{tag}.out")
        err_path = os.path.join(self.workdir, f"{tag}.err")
        trace_path = os.path.join(self.workdir, f"{tag}.trace.json")
        if self.traced:
            cmd = [sys.executable, self.child, trace_path] + argv
        else:
            cmd = [sys.executable, "-m", "ultradyn.cli"] + argv
        with open(out_path, "w") as out, open(err_path, "w") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=self.env())
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        with open(err_path) as fh:
            stderr = fh.read()
        trace = None
        if self.traced and os.path.exists(trace_path):
            with open(trace_path) as fh:
                trace = json.load(fh)
            os.remove(trace_path)
        os.remove(out_path)
        os.remove(err_path)
        return CliRun(proc.returncode, stdout, stderr, usage.ru_maxrss,
                      usage.ru_utime + usage.ru_stime, trace)

    def problem(self, name, command, doc, flags, expect_code, check_doc, defect=None):
        tag = name.replace(" ", "_").replace("/", "_").replace("#", "")
        path = os.path.join(self.workdir, f"{tag}.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        argv = [command, "--input", path] + flags

        def compute():
            return self.run_cli(argv, tag)

        def check(run, chk):
            chk.expect(run.code in (0, 2, 3, 4), f"exit code {run.code}")
            chk.expect("Traceback" not in run.err, "traceback on stderr")
            if not chk.expect(run.code == expect_code,
                              f"exit code {run.code}, expected {expect_code}"):
                return
            if expect_code == 0:
                check_doc(json.loads(run.out), chk)

        return Problem(name, compute, check, defect, command)

    # -- documents and their oracles -------------------------------------

    def warmup(self):
        rng = _rng("warmup")
        return self.norm_problem(rng, 2, "warmup")

    def _matrix_doc(self, rng, p, d, mixed=True):
        m, spec, eigcols = rand_conjugated(rng, p, d, allow_nilpotent=mixed,
                                           allow_fractional=mixed)
        return {"prime": p, "matrix": [[str(c) for c in row] for row in m]}, m, spec, eigcols

    def spectrum_problem(self, rng, p, name):
        doc, _, spec, _ = self._matrix_doc(rng, p, rng.randint(3, 4))
        if self.perturb:
            spec = [(v + 1 if v != INF else v, k) for v, k in spec]
        want = [{"v": fmt(v), "m": k}
                for v, k in sorted(spec, key=lambda e: (e[0] != INF, -e[0] if e[0] != INF else 0))]

        def check_doc(out, chk):
            chk.expect(out == {"entries": want}, f"spectrum {out} != {want}")

        return self.problem(name, "spectrum", doc, [], 0, check_doc)

    def split_problem(self, rng, p, name):
        doc, _, spec, eigcols = self._matrix_doc(rng, p, rng.randint(3, 4))
        gaps = sorted(a for a, hyp in gap_thresholds(p, spec) if hyp)
        a = gaps[len(gaps) // 2]

        def check_doc(out, chk):
            for key, side in (("stable", 1), ("centre", 0), ("unstable", -1)):
                want = [c for v, cols in eigcols.items()
                        if cmp_abs(a, v, p) == side for c in cols]
                got = [parse_vec(v) for v in out[key]]
                chk.expect(same_span(got, want), f"split {key} at {a}")

        return self.problem(name, "split", doc, ["--a", str(a)], 0, check_doc)

    def hyperbolic_problem(self, rng, p, name):
        while True:
            doc, _, spec, eigcols = self._matrix_doc(rng, p, rng.randint(3, 4))
            integral = [v for v, _ in spec if v != INF and v.denominator == 1]
            if integral:
                break
        rho = rng.choice(integral)

        def check_doc(out, chk):
            w = out.get("witness", {})
            chk.expect(out["hyperbolic"] is False, "hyperbolic at a spectrum value")
            chk.verdict(w.get("constant") is True)
            chk.expect(w.get("constant") is True and w.get("rho") == fmt(rho),
                       f"witness {w}")
            cols = eigcols[rho]
            chk.expect(oracles.rank(cols + [parse_vec(w["vector"])]) == len(cols),
                       "witness vector outside its eigenspace")
            exps = [F(e) for e in w["exponents"]]
            chk.expect(len(exps) == 21 and all(e - k * rho == exps[0]
                                               for k, e in enumerate(exps)),
                       "witness exponents not constant")

        return self.problem(name, "hyperbolic", doc, ["--a", str(F(p) ** -int(rho))],
                            0, check_doc)

    def norm_problem(self, rng, p, name):
        doc, _, spec, _ = self._matrix_doc(rng, p, rng.randint(3, 4))
        finite = [v for v, _ in spec if v != INF]
        has_inf = any(v == INF for v, _ in spec)

        def check_doc(out, chk):
            chk.expect(out["ram"] == expected_ram(spec), f"ram {out['ram']}")
            eps = None if out["eps_exp"] == "none" else F(out["eps_exp"])
            chk.expect((eps is not None) == has_inf, "eps_exp presence")
            if eps is not None:
                chk.expect(eps > max(finite, default=0), "nilpotent contraction")
            want = expected_operator_norm(spec, eps)
            chk.expect(out["operator_norm_exp"] == fmt(want),
                       f"operator norm {out['operator_norm_exp']} != {fmt(want)}")
            chk.expect(len(out["weights"]) == len(doc["matrix"]), "weights")

        return self.problem(name, "norm", doc, [], 0, check_doc)

    def _map_doc(self, f, **extra):
        doc = {"prime": f.prime,
               "map": [[[list(m), str(c)] for m, c in comp] for comp in f.components]}
        doc.update(extra)
        return doc

    def classify_problem(self, f, spec, name, defect=None):
        want = expected_label(spec)

        def check_doc(out, chk):
            chk.expect(out["class"] == want, f"class {out['class']} != {want}")
            chk.expect(out["spectrum"] == [{"v": fmt(v), "m": k} for v, k in spec],
                       "classify spectrum")
            if want in MODES:
                cert = out.get("certificate")
                chk.verdict(cert is not None)
                chk.expect(cert is not None and cert["mode"] == MODES[want],
                           f"no {MODES[want]} certificate although one exists")

        return self.problem(name, "classify", self._map_doc(f), [], 0, check_doc, defect)

    def graph_problem(self, f, alpha, order, name):
        def check_doc(out, chk):
            want = [{"multi_index": [2], "vector": [str(alpha)]}]
            chk.expect(out["coefficients"] == want, f"graph {out['coefficients']}")
            chk.expect(out["order"] == order, "graph order")

        return self.problem(name, "graph", self._map_doc(f, a="1", mode="Stable"),
                            ["--order", str(order)], 0, check_doc)

    def member_problem(self, f, alpha, rng, name):
        x = rand_unit(rng, f.prime) * F(f.prime) ** rng.randint(1, 3)
        doc = self._map_doc(f, a="1", point=[str(x), str(alpha * x * x)])

        def check_doc(out, chk):
            v = out["verdict"]
            chk.verdict(v.startswith("Certified"))
            chk.expect(v == dynamics.CERTIFIED_MEMBER, f"member verdict {v}")

        return self.problem(name, "member", doc, [], 0, check_doc)

    def orbit_problem(self, rng, p, name):
        f, _, _ = map_with_spectrum(rng, p, 2, 2, (-1, 1, 2))
        x = [rand_unit(rng, p) * F(p) ** rng.randint(0, 2) for _ in range(2)]
        steps = rng.randint(3, 4)
        pts = [x]
        for _ in range(steps):
            pts.append(oracles.poly_eval(f.tables(), pts[-1]))
        want = [{"point": [str(c) for c in z], "norm_exp": fmt(oracles.vec_val(z, p))}
                for z in pts]

        def check_doc(out, chk):
            chk.expect(out["orbit"] == want, "orbit")

        return self.problem(name, "orbit", self._map_doc(f, point=[str(c) for c in x],
                                                         steps=steps),
                            [], 0, check_doc)

    def round(self, r):
        rng = _rng(self.seed, r)
        p = (2, 3, 5)[r % 3]
        f, _, _, alpha = paper_family(rng, 2 + r % 2)
        cf, cspec, _ = map_with_spectrum(rng, p, 1 + r % 2, 2, (1, 2))
        out = [
            self.spectrum_problem(rng, p, f"spectrum #{r}"),
            self.norm_problem(rng, p, f"norm #{r}"),
            self.orbit_problem(rng, p, f"orbit #{r}"),
            self.split_problem(rng, p, f"split #{r}"),
            self.classify_problem(cf, cspec, f"classify #{r}"),
            self.hyperbolic_problem(rng, p, f"hyperbolic #{r}"),
            self.graph_problem(f, alpha, 4 + r % 5, f"graph #{r}"),
            self.member_problem(f, alpha, rng, f"member #{r}"),
        ]
        out += self.defect_problems(r, f)
        return out

    def defect_problems(self, r, f):
        """ROADMAP item 3 inputs: each must be a schema error (exit 4)."""
        label, tables, p = DEFECT_MAP
        dm = dynamics.PolyMap.from_tables(tables, p, 1)
        out = [self.classify_problem(dm, [(F(1), 1)], f"classify {label} #{r}",
                                     defect="cli-classify-2x+2^-100x^2")]
        cases = [
            ("graph", dict(a="1", mode="Stable", order="x"), "cli-graph-order-x"),
            ("member", dict(a="1", point=["1", "1"], horizon="5"), "cli-member-horizon-5"),
            ("graph", dict(a="1", mode="Stable", order=True), "cli-graph-order-true"),
            ("orbit", dict(point=["1", "1"], steps=-3), "cli-orbit-steps-minus-3"),
        ]
        for command, extra, defect in cases:
            out.append(self.problem(f"{defect} #{r}", command, self._map_doc(f, **extra),
                                    [], 4, lambda out, chk: None, defect))
        return out


WORKLOADS = {w.name: w for w in (LinearBuild, NormQuery, MapCertify, CliBatch)}
