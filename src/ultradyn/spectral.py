"""Spectral analysis of linear maps over Q_p: eigenvalue absolute values,
splittings along a radius threshold, adapted ultrametric norms and exact
operator norms.

Absolute values are handled as valuation exponents (|x| = p^-v), so every
comparison against a rational threshold a is exact integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import comb, gcd, inf as INF, isqrt, lcm

from .errors import PreconditionViolated
from .field import (
    DEFAULT_PRECISION,
    ExtElement,
    NONZERO,
    PadicNumber,
    RationalContext,
    _INTEGERS,
    _Record,
    _bval,
    _ival,
    compare_threshold,
    valuation_of_rational,
)
from .polyalg import (
    Polynomial,
    _check_square,
    _dot,
    _hash_once,
    _kept,
    charpoly,
    cmat,
    coerce,
    cvec,
    identity,
    infer_context,
    kernel_basis,
    invariant_unit_lattice,
    mat_inverse,
    mat_mul,
    mat_vec,
    newton_polygon,
    poly_eval_matrix,
    row_reduce,
    slope_factorization,
    solve,
    _monic_scale,
    _slope_split,
    _zdivmod,
    _zinverse,
    _zkernel,
    _zmat,
    _zrow_reduce,
    _zscale,
    _zunit_lattice,
)

# --------------------------------------------------------------------------
# spectral data: generalized eigenspaces grouped by eigenvalue valuation
# --------------------------------------------------------------------------


class SpectralBlock(_Record):
    """Generalized eigenspace sum for one eigenvalue valuation rho.

    |eigenvalue| = p^-rho; rho == INF is the nilpotent part.  The basis is
    exact rational whenever the corresponding charpoly factor is rational,
    and is then also kept as the integer vectors it came from (_zeigenspace),
    (D, u) pairs with u / D the vector (_zbasis, outside ==, hash and repr()).
    """

    rho: object  # Fraction or INF
    dim: int
    basis: tuple  # ambient column vectors
    _zbasis: object = None


class SpectralData(_Record):
    prime: int
    charpoly: Polynomial
    blocks: tuple  # SpectralBlocks, rho increasing (INF last)
    _zm: object = None  # over Q, (D_M, D_M M) for adapted_norm (_zmat)

    @cached_property
    def _zwinv(self):
        """Over Q, W^-1 for W the block bases side by side, as (D, row)
        pairs from the blocks' integer vectors by one integer elimination
        (_zinverse); kept outside == and repr(), None if a block is p-adic."""
        if any(b._zbasis is None for b in self.blocks):
            return None
        return _zinverse([z for b in self.blocks for z in b._zbasis])

    @cached_property
    def _winv(self):
        """_zwinv as Fraction rows, None if a block is p-adic."""
        return self._zwinv and [[Fraction(x, den) for x in row] for den, row in self._zwinv]


# --------------------------------------------------------------------------
# exact slope factors: split over Z/p^N, checked in Z[t]
# --------------------------------------------------------------------------


def _rational_factors(cp: Polynomial):
    """(s, f, {rho: g}): f = s^N cp(t/s) is cp made monic in Z[t], s from
    _monic_scale of its core (cp without its t^k factor), and g = s^n
    g_rho(t/s) for every root valuation rho whose whole Q_p slope factor
    g_rho (its n roots of valuation rho, with multiplicity) lies in Q[t];
    such a block gets an exact rational basis.

    The core of f is split at its slopes by _slope_split, mod p^N with
    p^N > 2 B and B Mignotte's bound (Math. Comp. 28, 1974) on the
    coefficients of a monic factor of f in Z[t].  Each factor g is read in
    symmetric residues and kept when it divides f exactly and its Newton
    polygon is the one segment of its slope, which proves g = g_rho.  By
    Gauss's lemma a rational g_rho lies in Z[t] within the bound, so it is
    always found."""
    p = cp.prime
    k = next(i for i, c in enumerate(cp.coeffs) if c)
    core = cp.coeffs[k:]
    n, s = len(core) - 1, _monic_scale(core)
    f = [c.numerator * (s ** (n - i) // c.denominator) for i, c in enumerate(core)]
    out = {INF: [0] * k + [1]} if k else {}
    segs = newton_polygon(Polynomial(core, p)).segments
    if len(segs) <= 1:
        out.update((rho, f) for rho, _ in segs)
        return s, [0] * k + f, out
    shift = valuation_of_rational(s, p)
    bound = 2 * comb(n, n // 2) * (isqrt(sum(c * c for c in f)) + 1)
    digits = 1
    while p**digits <= bound:
        digits += 1
    mod = p**digits
    scaled = [(rho + shift, mult) for rho, mult in segs]
    for (r, mult), g in zip(scaled, _slope_split(f, scaled, p, digits)):
        g = [x - mod if 2 * x > mod else x for x in g]
        if (not any(_zdivmod(f, g)[1])
                and newton_polygon(Polynomial.from_rationals(g, p)).segments == ((r, mult),)):
            out[r - shift] = g
    return s, [0] * k + f, out


def _zeigenspace(zm, s, f, g):
    """ker g_rho(M) as _zkernel's basis of it, in (D, u) pairs, for M given
    as zm = (D_M, A), A = D_M M integral, and f and g = s^n g_rho(t/s) from
    _rational_factors.  Since sum_i q_i s^i D_M^(deg q - i) A^i is a
    multiple of q(M) for q = s^deg q q_rho(t/s), the Krylov vectors
    A^j w, j < n, of w = h(M) e_i, h = f quo g, lie in the kernel, which
    each start vector's A^n w confirms, and are taken for i = 1, 2, ...
    until they reach rank n: all of them span image h(M) = ker g(M).
    Reduced from the last column back (_zrow_reduce), with each pivot
    scaled to 1 and the rows ordered by pivot column, they are the identity
    on the free columns of g(M), which is _zkernel's basis; each is kept
    over its least denominator."""
    (dm, a), n, d = zm, len(g) - 1, len(zm[1])
    hc, gc = ([c * s**i * dm ** (len(q) - 1 - i) for i, c in enumerate(q)]
              for q in (_zdivmod(f, g)[0], g))
    rows, pivots = [], []
    for i in range(d):
        w = [hc[-1] if j == i else 0 for j in range(d)]
        for c in reversed(hc[:-1]):
            w = mat_vec(a, w)
            w[i] += c
        ks = [w]
        for _ in range(n):
            ks.append(mat_vec(a, ks[-1]))
        if any(_dot(gc, col) for col in zip(*ks)):
            raise PreconditionViolated("a Krylov vector is not in the kernel of its factor")
        rows += [v[::-1] for v in ks[:n]]
        pivots = _zrow_reduce(rows, d)
        del rows[len(pivots):]
        if len(pivots) >= n:
            break
    out = []  # each u / D in lowest terms, D > 0
    for c, row in zip(reversed(pivots), reversed(rows)):
        k = gcd(*row) if row[c] > 0 else -gcd(*row)
        out.append((row[c] // k, [x // k for x in reversed(row)]))
    return out


def spectral_data(m, p: int, precision: int = DEFAULT_PRECISION,
                  cp: Polynomial = None) -> SpectralData:
    """Group the spectrum of m by eigenvalue valuation and compute the
    generalized eigenspace sum of each group.  cp is the charpoly of m, if
    the caller already has it.

    Both kinds of slope factor come from the one integer slope splitter,
    polyalg._slope_split.  _rational_factors gives the monic integer form f
    of the charpoly, and a valuation whose whole slope factor g is rational
    keeps an exact rational basis of ker g(M), read off the Krylov vectors
    of h(M), h = f quo g, with no g(M) formed (_zeigenspace), and its
    integer vectors are kept in the block.  What is left of f once every
    rational factor is divided out on plain ints is split by
    slope_factorization, and its blocks get capped-precision p-adic bases,
    the kernels of their g(M).
    """
    ctx = infer_context(m, p, precision)
    d = len(m)
    cp = cp or charpoly(m, p, precision)
    rest, tagged, zm = cp.coeffs, [], None  # (rho, slope factor, integer basis if rational)
    if isinstance(ctx, RationalContext):
        zm = _zmat(m)
        s, f, rational = _rational_factors(cp)
        rest = f
        for rho, g in rational.items():
            rest, r = _zdivmod(rest, g)
            if any(r):
                raise PreconditionViolated("inexact polynomial division")
            tagged.append((rho, g, _zeigenspace(zm, s, f, g)))
        rest = [Fraction(c, s ** (len(rest) - 1 - i)) for i, c in enumerate(rest)]
    if len(rest) > 1:
        tagged += [(sf.root_valuation, list(sf.factor.coeffs), None)
                   for sf in slope_factorization(Polynomial(tuple(rest), p), precision)]
    blocks = []
    for rho, cs, zbasis in sorted(tagged, key=lambda t: (t[0] == INF, t[0])):
        if zbasis is not None:
            basis = [[Fraction(x, den) for x in u] for den, u in zbasis]
        else:
            fctx = infer_context(cs, p, precision)
            basis = kernel_basis(poly_eval_matrix(cvec(cs, fctx), cmat(m, fctx), fctx),
                                 p, precision)
        if len(basis) != len(cs) - 1:
            raise PreconditionViolated(
                f"eigenspace dimension {len(basis)} != multiplicity {len(cs) - 1}"
            )
        blocks.append(SpectralBlock(rho, len(basis), tuple(tuple(v) for v in basis), zbasis))
    if sum(b.dim for b in blocks) != d:
        raise PreconditionViolated("eigenspace dimensions do not sum to dim")
    return SpectralData(p, cp, tuple(blocks), zm)


def spectrum_abs(m, p: int, precision: int = DEFAULT_PRECISION):
    """[(rho, mult)] sorted by decreasing absolute value p^-rho."""
    return list(_analysis(m, p, precision).spectrum)


def is_hyperbolic(m, p: int, a, precision: int = DEFAULT_PRECISION) -> bool:
    """True iff no eigenvalue has absolute value exactly a."""
    return _analysis(m, p, precision).is_hyperbolic(a)


# --------------------------------------------------------------------------
# splitting along a threshold
# --------------------------------------------------------------------------


class Splitting(_Record):
    """Direct sum decomposition at radius a: stable (|.| < a), centre
    (|.| = a), unstable (|.| > a), with the basis change to block coords."""

    prime: int
    a: Fraction
    stable: tuple
    centre: tuple
    unstable: tuple
    w: tuple  # columns: stable then centre then unstable
    winv: tuple  # rows: ambient -> block coordinates

    def dims(self):
        return (len(self.stable), len(self.centre), len(self.unstable))


def splitting_at(m, p: int, a, precision: int = DEFAULT_PRECISION) -> Splitting:
    return _analysis(m, p, precision).splitting(a)


def _basis_change(vecs, winv, order, ctx):
    """(W, W^-1) over ctx for W with columns vecs[j], j in order: over Q the
    rows of winv (the vecs' inverse) in that order, else mat_inverse of W."""
    w = [[coerce(vecs[j][i], ctx) for j in order] for i in range(len(order))]
    if winv is not None and isinstance(ctx, RationalContext):
        return w, [winv[j] for j in order]
    return w, mat_inverse(w, ctx)


# --------------------------------------------------------------------------
# adapted norms
# --------------------------------------------------------------------------


def _restrict(m, basis, ctx):
    """R with M B = B R, B the basis side by side: over Q_p one solve of B
    with every image as a right-hand side.  Over Q, m comes as (D_M, D_M M),
    the basis as (D_j, u_j) pairs and R goes as (den, A) in lowest terms:
    V = L B is integral for L the lcm of the D_j, and Y = D_M R solves
    V Y = (D_M M) V, one elimination (_zrow_reduce) of [V | D_M M V]."""
    if not isinstance(ctx, RationalContext):
        vs, mm = cmat(basis, ctx), cmat(m, ctx)
        return solve([list(r) for r in zip(*vs)],
                     [list(r) for r in zip(*(mat_vec(mm, v) for v in vs))], ctx)
    dm, a = m
    k, ld = len(basis), lcm(*[den for den, _ in basis])
    vs = [[x * (ld // den) for x in u] for den, u in basis]
    rows = [[v[i] for v in vs] + [_dot(row, v) for v in vs] for i, row in enumerate(a)]
    if len(_zrow_reduce(rows, k)) < k or any(x for row in rows[k:] for x in row[k:]):
        raise PreconditionViolated("basis not independent or its span not invariant")
    lp = lcm(*[rows[r][r] for r in range(k)])
    out = [[x * (lp // row[r]) for x in row[k:]] for r, row in enumerate(rows[:k])]
    g = gcd(dm * lp, *[x for row in out for x in row])
    return dm * lp // g, [[x // g for x in row] for row in out]


def _nilpotent_chains(n, ctx):
    """Jordan chain starters for a nilpotent matrix; returns a basis as
    chains [v_0, ..., v_{l-1}] with N v_k = v_{k-1} (v_0 in ker N).  Over Q
    n comes as (D, A) with N = A / D, A integral, as _restrict gives it, and
    the vectors are (E, u) pairs: the powers A^i have the kernels of N^i
    (_zkernel), N^i v is (D^i E, A^i u), and independence is the rank of the
    integer vectors (_zrow_reduce)."""
    ring = ctx
    if isinstance(ctx, RationalContext):
        (den, n), ring = n, _INTEGERS
        kernel = lambda a: _zkernel([list(r) for r in a])
        image = lambda i, v: (v[0] * den**i, mat_vec(powers[i], v[1]))
        rank = lambda vs: len(_zrow_reduce([list(u) for _, u in vs], d))
    else:
        kernel = lambda a: kernel_basis(a, ctx.p, ctx.precision)
        image = lambda i, v: mat_vec(powers[i], v)
        rank = lambda vs: len(row_reduce(vs, ctx)[1])
    d = len(n)
    powers = [identity(d, ring)]
    for _ in range(d):
        powers.append(mat_mul(n, powers[-1]))
    s = next(i for i in range(d + 1) if all(
        ctx.zeroness(x) != NONZERO for row in powers[i] for x in row))
    kernels = [kernel(powers[i]) if i else [] for i in range(s + 1)]

    starters = []  # (vector, length)
    for i in range(s, 0, -1):
        reduced = list(kernels[i - 1]) + [image(l - i, v) for v, l in starters if l > i]
        for v in kernels[i]:
            if rank(reduced + [v]) == len(reduced) + 1:
                starters.append((v, i))
                reduced.append(v)
    return [[image(l - 1 - k, v) for k in range(l)] for v, l in starters]


def _pi_power(x, k, p, ram):
    """The record of pi^k x, 0 <= k < ram, pi^ram = p, for x over the base
    field: x in slot k, exact zeros of x's own ring elsewhere."""
    coeffs = [PadicNumber.zero(p) if isinstance(x, PadicNumber) else Fraction(0)] * ram
    coeffs[k] = x
    return ExtElement(p, ram, tuple(coeffs))


def _pi_piece(e, v, p, ram):
    """(k, p^q v) with pi^e v = pi^k p^q v, e = q ram + k, 0 <= k < ram."""
    q, k = divmod(e, ram)
    return k, [x * Fraction(p) ** q if q else x for x in v]


def _zpieces(pieces, pairs, p, ram):
    """Over Q, (z / g, e + ram v(g / (D L))) for each (e, D, u) of pieces:
    pi^e sum_j (u_j / D) (y_j / D_j) over the (D_j, y_j) of pairs is
    pi^e z / (D L), L the lcm of the D_j, and the content g of z is divided
    out, as the pairs come unreduced, to keep every query's integers small."""
    dl = lcm(*[dj for dj, _ in pairs])
    cols = list(zip(*[[x * (dl // dj) for x in y] for dj, y in pairs]))
    out = []
    for e, den, u in pieces:
        z = mat_vec(cols, u)
        g = gcd(*z)
        out.append(([x // g for x in z], e + ram * (_ival(g, p) - _ival(den * dl, p))))
    return out


class NormBlock(_Record):
    rho: object  # Fraction or INF
    t: tuple  # block coords -> norm coords (rows)
    tinv: tuple  # t^-1: norm coords -> block coords (rows)
    weights: tuple  # per-coordinate valuation offsets (Fractions)
    # (s, T_0, s', T'_0), 0 <= s_i, s'_j < ram: t = diag(pi^s) T_0 and tinv =
    # T'_0 diag(pi^s'), T_0 (rows) and T'_0 (columns) over the base field
    _pi: object = None


class AdaptedNorm(_Record):
    """Ultrametric norm in which m acts with exact rate p^-rho on each
    spectral block (and with norm < eps on the nilpotent block).

    norm_exp(x) = min_i ( v((T Winv x)_i) + q_i ) over the global basis; the
    norm itself is p^(-norm_exp(x)).  T is block diagonal, with entries in
    Q_p(pi), pi^ram = p.  adapted_norm forms each row of a block's t, and
    each column of its tinv, as one pi-power times a base-field vector,
    keeps those pieces (NormBlock._pi) and writes t and tinv from them as
    ExtElement records (pi-slot coefficients, no arithmetic), so
    v((T Winv x)_i) = v(row_i . x) + s_i/ram with row_i over the base field.
    Over Q it also forms, from the integer pairs of its build, the integer
    rows of T Winv and columns of its inverse with their offsets (_zrows,
    _zcols).  Every query reads the norm through one read-out (_readout):
    those over Q, or the base-field T_0 Winv (_pi_rows) and W T'_0
    (_pi_cols) when the norm or the query (x for norm_exp, M for
    operator_norm, the map for the remainder bounds of dynamics) holds a
    PadicNumber; those two are built on first use, or for transform(), and
    kept (outside repr() and ==), as is the hash.  adapted_norm(m, p)
    returns one interned norm per matrix and eps."""

    prime: int
    ram: int
    winv: tuple  # ambient -> stacked block coordinates
    w: tuple
    blocks: tuple  # NormBlocks in stacking order
    eps_exp: object = None  # nilpotent contraction exponent j, if any
    _zrows: object = None  # over Q, (z_i, offset_i) per row of T Winv
    _zcols: object = None  # over Q, (z_j, offset_j) per column of its inverse

    __hash__ = _hash_once

    @cached_property
    def _pi_rows(self):
        """(s, T_0 Winv): row i of T Winv is pi^(s_i) times row i of the
        base-field T_0 Winv."""
        s, rows, off = [], [], 0
        for sb, t0, _, _ in (b._pi for b in self.blocks):
            s += sb
            rows += mat_mul(t0, self.winv[off:off + len(t0)])
            off += len(t0)
        return s, rows

    @cached_property
    def _pi_cols(self):
        """(s', the columns of W T'_0): column j of (T Winv)^-1 = W T^-1 is
        pi^(s'_j) times column j of the base-field W T'_0."""
        s, cols, off = [], [], 0
        for _, _, sb, t0cols in (b._pi for b in self.blocks):
            wb = [r[off:off + len(sb)] for r in self.w]
            s += sb
            cols += [mat_vec(wb, c) for c in t0cols]
            off += len(sb)
        return s, cols

    def transform(self):
        """T Winv as a matrix of ExtElement records, pi^ram = p."""
        s, rows = self._pi_rows
        return [[_pi_power(x, si, self.prime, self.ram) for x in row]
                for si, row in zip(s, rows)]

    @property
    def weights(self):
        return [q for b in self.blocks for q in b.weights]

    def _readout(self, p, sizes, rational, cols=False):
        """(exact, pairs): the rows of T Winv, or with cols the columns of
        (T Winv)^-1, as (vector, offset) pairs, offsets in units of 1/ram:
        v((T Winv)_il) + q_i = v(row_il) + off_i/ram and
        v(((T Winv)^-1)_lj) - q_j = v(col_jl) + coff_j/ram.  Over Q, when the
        query's vector, matrix or map holds no PadicNumber (rational), the
        integer _zrows or _zcols (exact is True: the caller scales its data
        to integers); else _pi_rows or _pi_cols with offsets
        s_i + ram q_i or s'_j - ram q_j.  p must be the norm's prime, and
        sizes, the set of the query's sizes, {d} for its dimension d."""
        if p != self.prime or sizes != {len(self.w)}:
            raise PreconditionViolated(f"a query over Q_{p} of size {sorted(sizes)} of a"
                                       f" norm over Q_{self.prime} in dimension {len(self.w)}")
        pairs = self._zcols if cols else self._zrows
        if pairs is not None and rational:
            return True, pairs
        sign, (s, vs) = (-1, self._pi_cols) if cols else (1, self._pi_rows)
        return False, [(v, si + sign * int(q * self.ram)) for si, v, q in zip(s, vs, self.weights)]

    def _read(self, rows, y):
        """ram v(row . y) + off for each (row, off) of rows from _readout,
        INF where it is zero: one dot product and one int valuation per row,
        for integer, rational and p-adic rows alike."""
        p, ram = self.prime, self.ram
        return [ram * _bval(_dot(row, y), p) + off for row, off in rows]

    def _units(self, x):
        """(units, shift) with v((T Winv x)_i) + q_i = (u_i - shift)/ram for
        each norm coordinate i (u_i INF where it is zero): over Q, with x
        rational and of the norm's size, read off _zrows and E x, E the lcm
        of the denominators of x, with shift = ram v(E); else the ring
        read-out, with shift 0, which refuses x of another size or prime."""
        rows = self._zrows
        if (rows is not None and len(x) == len(rows)
                and not any(isinstance(c, PadicNumber) for c in x)):
            den, y = _zscale(x)
            return self._read(rows, y), self.ram * _ival(den, self.prime)
        infer_context(x, self.prime)  # refuses a PadicNumber of another prime
        return self._read(self._readout(self.prime, {len(x)}, False)[1], x), 0

    def _coord_exps(self, x):
        """v((T Winv x)_i) + q_i for each norm coordinate i (INF where it is
        zero)."""
        units, shift = self._units(x)
        return [u if u == INF else Fraction(u - shift, self.ram) for u in units]

    def norm_exp(self, x):
        """Valuation exponent of ||x|| for x over the base field; INF for x = 0."""
        units, shift = self._units(x)
        u = min(units)
        return u if u == INF else Fraction(u - shift, self.ram)


def adapted_norm(m, p: int, eps=None, precision: int = DEFAULT_PRECISION,
                 data: SpectralData = None) -> AdaptedNorm:
    """Build an ultrametric norm adapted to the spectral decomposition of m
    (data, if given; else the norm kept by m's interned analysis).

    Finite-valuation blocks: scale by p^-rho to a flat-polygon matrix, take
    the gauge of an invariant unit lattice (an exact isometry up to the
    factor p^-rho).  invariant_unit_lattice certifies B L inside L; the
    block is ker g_rho(M) for a certified slope factor g_rho, so the scaled
    B has unit determinant and B L = L.  It comes over the base field as
    L = W diag(pi_b^k), pi_b^e = p for e the denominator of rho, and its
    t = L^-1 and tinv = L are written as ExtElement records of the norm's
    Q_p(pi), pi^ram = p, one pi-power per row of t and per column of tinv.
    Nilpotent block: Jordan chains scaled by lambda = p^j with p^-j < eps.
    """
    if data is None:
        return _analysis(m, p, precision).norm(eps)
    if eps is not None:
        eps = Fraction(eps)
        if eps <= 0:
            raise PreconditionViolated("eps must be positive")
    finite = [b for b in data.blocks if b.rho != INF]
    ram = lcm(1, *(Fraction(b.rho).denominator for b in finite)) if finite else 1
    vecs = [v for b in data.blocks for v in b.basis]
    w, winv = _basis_change(vecs, data._winv, range(len(m)), infer_context(vecs, p, precision))
    blocks, eps_exp, off = [], None, 0
    zrows, zcols = ([], []) if data._zwinv is not None else (None, None)
    for b in data.blocks:
        rational = b._zbasis is not None  # and then so is m, and data._zm is set
        if rational:
            bctx = RationalContext(p)
            rest = _restrict(data._zm, b._zbasis, bctx)
        else:
            bctx = infer_context([m] + [list(v) for v in b.basis], p, precision)
            rest = _restrict(m, [list(v) for v in b.basis], bctx)
        # row i of t is pi^es_i rows_i and column i of tinv pi^-es_i cols_i, rows
        # and cols over the base field, as (D, integer vector) pairs over Q
        if b.rho == INF:
            if eps is None:
                # default: subordinate to the smallest nonzero |eigenvalue|
                vmax = max((Fraction(f.rho) for f in finite), default=Fraction(0))
                j = int(vmax) + 1
            else:
                j = 0
                while compare_threshold(eps, Fraction(j), p) <= 0:
                    j += 1  # smallest j with p^-j < eps
            eps_exp = j
            chains = _nilpotent_chains(rest, bctx)
            cols = [v for chain in chains for v in chain]
            weights = [Fraction(-k * j) for chain in chains for k in range(len(chain))]
            rows = _zinverse(cols) if rational else mat_inverse([*map(list, zip(*cols))], bctx)
            es = [0] * b.dim
        else:
            ks, cols, rows = (_zunit_lattice(*rest, p, *Fraction(b.rho).as_integer_ratio())
                              if rational else invariant_unit_lattice(rest, p, b.rho, precision))
            if not rational:
                cols = [list(c) for c in zip(*cols)]
            s = ram // Fraction(b.rho).denominator  # pi_b = pi^s
            es = [-k * s for k in ks]
            weights = [Fraction(0)] * b.dim
        if zrows is not None:  # over Q, and then every block is rational
            zrows += _zpieces([(e + int(q * ram), *r) for e, r, q in zip(es, rows, weights)],
                              data._zwinv[off:off + b.dim], p, ram)
            zcols += _zpieces([(-e - int(q * ram), *c) for e, c, q in zip(es, cols, weights)],
                              b._zbasis, p, ram)
        if rational:
            rows, cols = ([[Fraction(x, den) for x in u] for den, u in vs] for vs in (rows, cols))
        slots, t0 = zip(*[_pi_piece(e, r, p, ram) for e, r in zip(es, rows)])
        cslots, t0cols = zip(*[_pi_piece(-e, c, p, ram) for e, c in zip(es, cols)])
        put = (lambda x, k: x) if b.rho == INF else (lambda x, k: _pi_power(x, k, p, ram))
        blocks.append(NormBlock(
            b.rho, tuple(tuple(put(x, k) for x in row) for k, row in zip(slots, t0)),
            tuple(tuple(put(c[i], k) for k, c in zip(cslots, t0cols)) for i in range(b.dim)),
            tuple(weights), (slots, t0, cslots, t0cols)))
        off += b.dim
    return AdaptedNorm(p, ram, tuple(tuple(r) for r in winv), tuple(tuple(r) for r in w),
                       tuple(blocks), eps_exp, zrows, zcols)


def operator_norm(m, p: int, norm: AdaptedNorm):
    """Exact exponent r with ||Mx|| <= p^-r ||x||, attained.

    For a weighted sup norm the operator norm is
    min_{i,j} ( v(A'_ij) + q_i - q_j ) with A' = (T Winv) M (T Winv)^-1 the
    matrix of M in the norm basis, that is min_ij v(P_i M R_j) +
    (off_i + coff_j)/ram over the norm's rows P_i and columns R_j with
    their offsets (AdaptedNorm._readout), each read by AdaptedNorm._read.
    Over Q, with M rational, each entry is an integer dot product of P_i
    with (D_M M) R_j, less v(D_M); a PadicNumber in M or in the norm reads
    the base-field rows and columns instead.  An exact zero entry is
    skipped; an O-term still enters.
    """
    sizes, rational = {len(m), *map(len, m)}, isinstance(infer_context(m, p), RationalContext)
    exact, rows = norm._readout(p, sizes, rational)
    dm, a = _zmat(m) if exact else (1, m)
    best = INF
    for c, coff in norm._readout(p, sizes, rational, cols=True)[1]:
        best = min(best, coff + min(norm._read(rows, mat_vec(a, c))))
    return best if best == INF else Fraction(best - norm.ram * _ival(dm, p), norm.ram)


# --------------------------------------------------------------------------
# one analysis per matrix
# --------------------------------------------------------------------------


class LinearAnalysis(_Record):
    """Spectral analysis of one matrix m over Q_p.  Each part is computed on
    first use and kept, so whoever holds the analysis pays once for the
    charpoly, the blocks, the sides of the spectrum and the splitting at each
    a, each adapted norm and the non-hyperbolicity witness at each (a,
    horizon); the spectrum and its sides need only the charpoly.  The free
    functions share an interned one per matrix (_analysis)."""

    m: tuple
    p: int
    precision: int = DEFAULT_PRECISION

    def __init__(self, m, p, precision=DEFAULT_PRECISION):
        super().__init__(tuple(tuple(r) for r in m), p, precision)

    @cached_property
    def charpoly(self) -> Polynomial:
        return charpoly(self.m, self.p, self.precision)

    @cached_property
    def spectrum(self):
        """[(rho, mult)] sorted by decreasing absolute value p^-rho."""
        return sorted(newton_polygon(self.charpoly).root_valuations,
                      key=lambda t: (t[0] == INF, t[0]))

    @cached_property
    def data(self) -> SpectralData:
        return spectral_data(self.m, self.p, self.precision, cp=self.charpoly)

    @_kept()
    def sides(self, a) -> tuple:
        """compare_threshold(a, rho, p) per root valuation rho, once per a, in
        the spectrum's order, which is the blocks' (one block per rho)."""
        return tuple(compare_threshold(a, rho, self.p) for rho, _ in self.spectrum)

    def is_hyperbolic(self, a) -> bool:
        """True iff no eigenvalue has absolute value exactly a."""
        return 0 not in self.sides(a)

    @_kept()
    def splitting(self, a) -> Splitting:
        """The spectral blocks grouped by |eigenvalue| against a, built once
        per a."""
        a, p, data = Fraction(a), self.p, self.data
        sides = [side for side, b in zip(self.sides(a), data.blocks, strict=True)
                 for _ in b.basis]
        # the positions of the stable, centre and unstable block vectors
        parts = [[j for j, side in enumerate(sides) if side == want] for want in (1, 0, -1)]
        vecs = [v for b in data.blocks for v in b.basis]
        w, winv = _basis_change(vecs, data._winv, [j for part in parts for j in part],
                                infer_context(vecs, p, self.precision))
        return Splitting(p, a, *(tuple(vecs[j] for j in part) for part in parts),
                         tuple(tuple(r) for r in w), tuple(tuple(r) for r in winv))

    @_kept()
    def norm(self, eps=None) -> AdaptedNorm:
        """The adapted norm of m for eps, built once per eps."""
        return adapted_norm(self.m, self.p, eps, self.precision, data=self.data)

    @_kept()
    def _witness(self, a, horizon):
        """nonhyperbolicity_witness of m at a, built once per (a, horizon).
        Over Q the orbit runs on integers, as D^n E m^n v0; p-adic data
        keeps the ring arithmetic."""
        m, p = self.m, self.p
        centre = next((b for side, b in zip(self.sides(a), self.data.blocks, strict=True)
                       if side == 0), None)
        if centre is None:
            raise PreconditionViolated(f"map is hyperbolic at {a}: no witness")
        v0 = list(centre.basis[0])
        norm = self.norm()
        ctx = infer_context([m, v0], p, self.precision)
        if isinstance(ctx, RationalContext):
            # the orbit V_n = D^n E m^n v0 over Z, for D and E the lcms of the
            # denominators of m and v0: norm_exp is linear in its argument, so
            # norm_exp(m^n v0) = norm_exp(V_n) - n v(D) - v(E)
            dm, mm = self.data._zm
            den, v = _zscale(v0)
            vd, ve = _ival(dm, p), _ival(den, p)
        else:
            mm, v, vd, ve = cmat(m, ctx), cvec(v0, ctx), 0, 0
        exps = []
        for n in range(horizon + 1):
            exps.append(norm.norm_exp(v) - (n * vd + ve))
            v = mat_vec(mm, v)
        rho = Fraction(centre.rho)
        constant = all(e == exps[0] + n * rho for n, e in enumerate(exps))
        return Witness(tuple(v0), a, rho, tuple(exps), constant)


@lru_cache(maxsize=16)
def _interned(key, d, p, precision):
    xs = [x if isinstance(x, PadicNumber) else Fraction(*x) for x in key]
    return LinearAnalysis([xs[i * d:(i + 1) * d] for i in range(d)], p, precision)


def _analysis(m, p, precision=DEFAULT_PRECISION) -> LinearAnalysis:
    """m's LinearAnalysis, interned by content for the 16 most recent: equal
    entries (a PadicNumber with its prec, a rational as its integer ratio,
    which hashes faster than a Fraction), p and precision share one; a
    matrix that is not square is refused before."""
    _check_square(m)
    return _interned(tuple([x if isinstance(x, PadicNumber) else x.as_integer_ratio()
                            for r in m for x in r]), len(m), p, precision)


# --------------------------------------------------------------------------
# non-hyperbolicity witness
# --------------------------------------------------------------------------


class Witness(_Record):
    """A vector v with a^-n ||m^n v|| constant in the adapted norm: the
    defining obstruction to hyperbolicity at radius a."""

    vector: tuple
    a: Fraction
    rho: Fraction  # a == p^-rho
    exponents: tuple  # norm_exp(m^n v) for n = 0..horizon
    constant: bool


def nonhyperbolicity_witness(m, p: int, a, horizon: int = 20,
                             precision: int = DEFAULT_PRECISION):
    """Witness vector showing a is in the spectrum of absolute values: the
    first basis vector v0 of the centre block, with norm_exp(m^n v0) for
    n = 0..horizon.  The witness at each (a, horizon) is a kept part of m's
    interned analysis, so a repeated query returns the same record."""
    if horizon < 0:  # dynamics._check_horizon's message; spectral loads no dynamics
        raise PreconditionViolated(f"horizon must be >= 0, got {horizon}")
    a = Fraction(a)
    return _analysis(m, p, precision)._witness(a, horizon)
