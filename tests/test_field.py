"""Base arithmetic: valuations, threshold comparison, capped precision; the
ExtElement record, and the Q_p(pi) ring of tests/reference.py that the
adapted-norm oracles compute in."""

from fractions import Fraction
from functools import reduce
from math import inf as INF
from operator import add, mul, sub, truediv

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultradyn.field import (
    DEFAULT_PRECISION,
    ExtElement,
    PadicContext,
    PadicNumber,
    RationalContext,
    _bval,
    _is_prime,
    _ival,
    compare_threshold,
    valuation_of_rational,
)
from ultradyn.errors import DivisionByZero, PrecisionExhausted, PreconditionViolated
from ultradyn.polyalg import _dot

from reference import PiElement, PiRing

PRIMES = (2, 3, 5)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda q: q != 0)
primes = st.sampled_from(PRIMES)


# -- primality ----------------------------------------------------------------


def test_is_prime_past_trial_division():
    """Miller-Rabin past trial division by the primes up to 41: a sieve
    below 10^4, the Mersenne prime 2^61 - 1, and three composites with no
    factor up to 37, 1763 = 41 * 43, 3215031751 = 151 * 751 * 28351, a
    strong pseudoprime to the bases 2, 3, 5 and 7, and psi_12 =
    399165290221 * 798330580441, a strong pseudoprime to every base 2..37."""
    n = 10**4
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]
    assert _is_prime(2**61 - 1) and _is_prime(10007)
    assert 41 * 43 == 1763 and 151 * 751 * 28351 == 3215031751
    assert not _is_prime(1763) and not _is_prime(3215031751)
    psi12 = 318665857834031151167461
    assert psi12 == 399165290221 * 798330580441 and not _is_prime(psi12)


# -- valuation of rationals --------------------------------------------------


def test_valuation_oracles():
    assert valuation_of_rational(Fraction(8), 2) == 3
    assert valuation_of_rational(Fraction(3, 4), 2) == -2
    assert valuation_of_rational(Fraction(0), 2) == INF
    assert valuation_of_rational(Fraction(9, 5), 3) == 2
    assert valuation_of_rational(Fraction(1, 25), 5) == -2


@given(nonzero_rationals, nonzero_rationals, primes)
def test_valuation_multiplicative(a, b, p):
    assert valuation_of_rational(a * b, p) == \
        valuation_of_rational(a, p) + valuation_of_rational(b, p)


@given(nonzero_rationals, nonzero_rationals, primes)
def test_valuation_ultrametric(a, b, p):
    if a + b == 0:
        return
    va, vb = valuation_of_rational(a, p), valuation_of_rational(b, p)
    vs = valuation_of_rational(a + b, p)
    assert vs >= min(va, vb)
    if va != vb:
        assert vs == min(va, vb)


def _plain_ival(n, p):
    """v_p(n) by one division per unit of valuation."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v


@settings(max_examples=200)
@given(st.sampled_from((2, 3, 5, 7, 10007)), st.integers(0, 500), st.integers(1, 10 ** 40),
       st.sampled_from((1, -1)))
def test_ival_matches_the_division_loop(p, v, u, sign):
    """_ival (the lowest set bit for p = 2, a squaring ladder past v = 4
    for odd p) equals the plain loop, for v up to 500 and both signs; u
    may hold p itself."""
    n = sign * u * p ** v
    assert _ival(n, p) == _plain_ival(n, p) >= v


# -- threshold comparison ----------------------------------------------------


def _compare_oracle(a: Fraction, v, p: int) -> int:
    """Exact independent comparison of a with p^{-v} (v = num/den)."""
    if v == INF:
        return 1 if a > 0 else 0
    num, den = v.numerator, v.denominator
    lhs = a ** den            # compare a^den with p^{-num}
    if num >= 0:
        l, r = lhs * p ** num, Fraction(1)
    else:
        l, r = lhs, Fraction(p) ** (-num)
    return (l > r) - (l < r)


@given(nonzero_rationals.filter(lambda q: q > 0),
       st.fractions(min_value=Fraction(-6), max_value=Fraction(6),
                    max_denominator=4),
       primes)
def test_compare_threshold_matches_oracle(a, v, p):
    assert compare_threshold(a, v, p) == _compare_oracle(a, v, p)


@given(primes, st.integers(min_value=-5, max_value=5))
def test_compare_threshold_on_value(p, k):
    assert compare_threshold(Fraction(p) ** (-k), Fraction(k), p) == 0
    assert compare_threshold(Fraction(p) ** (-k), Fraction(k + 1), p) == 1
    assert compare_threshold(Fraction(p) ** (-k), Fraction(k - 1), p) == -1


def test_compare_threshold_infinite_valuation():
    assert compare_threshold(Fraction(1, 7), INF, 2) == 1


# -- capped-precision numbers ------------------------------------------------


@given(rationals, primes)
def test_padic_from_rational_roundtrip(q, p):
    x = PadicNumber.from_rational(q, p)
    if q == 0:
        assert x.is_exact_zero
    else:
        assert x.val == valuation_of_rational(q, p)
        # the stored unit agrees with q / p^val modulo p^prec
        u = q / Fraction(p) ** x.val
        assert (u.numerator * pow(u.denominator, -1, p ** x.prec)
                - x.unit) % p ** x.prec == 0


@given(rationals, rationals, primes)
def test_padic_ring_ops_track_rationals(a, b, p):
    xa, xb = PadicNumber.from_rational(a, p), PadicNumber.from_rational(b, p)
    for op, ref in ((xa + xb, a + b), (xa * xb, a * b), (xa - xb, a - b)):
        vref = valuation_of_rational(ref, p)
        if op.is_exact_zero:
            assert ref == 0 or vref >= DEFAULT_PRECISION
        else:
            assert op.val == vref or op.is_uncertain


@given(rationals, nonzero_rationals, primes)
def test_padic_division(a, b, p):
    xa, xb = PadicNumber.from_rational(a, p), PadicNumber.from_rational(b, p)
    q = xa / xb
    vref = valuation_of_rational(a / b, p)
    if not q.is_exact_zero:
        assert q.val == vref


def test_padic_divide_by_zero():
    with pytest.raises(DivisionByZero):
        PadicNumber.from_rational(Fraction(1), 2) / PadicNumber.zero(2)


@given(nonzero_rationals, nonzero_rationals, primes, st.sampled_from((1, 8, 64, 100)))
def test_padic_mixed_operands_promote(a, q, p, prec):
    # an int or Fraction operand is promoted at the PadicNumber's precision
    x = PadicNumber.from_rational(a, p, prec)

    def up(r):
        return PadicNumber.from_rational(r, p, prec)

    assert q + x == up(q) + x
    assert x - 1 == x - up(1)
    assert 1 - x == up(1) - x
    assert 2 * x == up(2) * x
    assert x / q == x / up(q)
    assert 1 / x == up(1) / x


@pytest.mark.parametrize("x", [PadicNumber.zero(2), PadicNumber.o_term(2, 5)])
def test_padic_mixed_operand_next_to_zero_or_o_term(x):
    # an exact zero or an O-term sets no precision: promote at the default
    up = PadicNumber.from_rational(3, 2, DEFAULT_PRECISION)
    assert Fraction(3) + x == up + x == x + 3
    assert x - Fraction(3) == x - up
    assert 3 * x == up * x
    assert (Fraction(3) + PadicNumber.zero(2)).prec == DEFAULT_PRECISION


def test_padic_mixed_operand_errors():
    x = PadicNumber.from_rational(5, 2)
    with pytest.raises(PreconditionViolated):
        x + PadicNumber.from_rational(5, 3)
    with pytest.raises(PreconditionViolated):
        x * PadicNumber.from_rational(5, 3)
    with pytest.raises(TypeError):
        x + 1.5
    with pytest.raises(TypeError):
        1.5 * x
    with pytest.raises(TypeError):
        x / "2"


def test_o_term_absorbs():
    # adding a high-order unknown term must not sharpen the known part
    x = PadicNumber.from_rational(Fraction(3), 2)
    o = PadicNumber.o_term(2, 5)
    s = x + o
    assert s.val == 0
    assert s.prec <= 5


# -- integer valuations --------------------------------------------------------


def _capped(p, q, a):
    """The capped-precision value of q known to absolute precision a (INF:
    exactly), with the Fraction valuation of valuation_of_rational: an exact
    zero, the O-term O(p^a) when v(q) >= a, else the unit of q / p^v(q) to
    a - v(q) digits."""
    if a == INF:
        assert q == 0
        return PadicNumber(p, INF, 0, 0)
    v = valuation_of_rational(q, p)
    if v >= a:
        return PadicNumber(p, Fraction(a), 0, 0)
    u, m = q / Fraction(p) ** v, p ** int(a - v)
    return PadicNumber(p, v, u.numerator * pow(u.denominator, -1, m) % m, int(a - v))


def _lift(x):
    """(rational value, absolute precision) of x: an O-term is 0 to its bound."""
    if not x.prec:
        return Fraction(0), x.val
    return x.unit * Fraction(x.prime) ** x.val, x.val + x.prec


def _reference_op(op, x, y):
    """x op y as _capped gives it from the operands' rational values and
    absolute precisions."""
    (qx, ax), (qy, ay) = _lift(x), _lift(y)
    if op in "+-":
        return _capped(x.prime, qx + qy if op == "+" else qx - qy, min(ax, ay))
    if x.val == INF or (op == "*" and y.val == INF):
        return PadicNumber.zero(x.prime)
    rel = min(x.prec, y.prec)
    if op == "*":
        return _capped(x.prime, qx * qy, x.val + y.val + rel)
    return _capped(x.prime, qx / qy if x.prec else 0, x.val - y.val + rel)


def _int_valued(x):
    return type(x.val) is int or x.val == INF


@st.composite
def padics(draw, p):
    """Exact zeros, O-terms and known values of either sign of valuation, at
    low precision so that sums cancel digits."""
    kind = draw(st.sampled_from(("zero", "o", "known", "known")))
    if kind == "zero":
        return PadicNumber.zero(p)
    if kind == "o":
        return PadicNumber.o_term(p, draw(st.integers(-4, 8)))
    q = draw(nonzero_rationals) * Fraction(p) ** draw(st.integers(-4, 4))
    return PadicNumber.from_rational(q, p, draw(st.integers(1, 12)))


OPS = {"+": add, "-": sub, "*": mul, "/": truediv}


def _check_op(op, a, b, ua, ub):
    """a op b, with ua and ub the PadicNumbers a and b stand for."""
    try:
        out = OPS[op](a, b)
    except (DivisionByZero, PrecisionExhausted):
        assert op == "/" and not ub.prec  # by an exact zero or an O-term
        return
    assert _int_valued(out) and out == _reference_op(op, ua, ub), (a, op, b)


@given(st.data(), primes)
@example(None, 2)
def test_padic_valuations_are_ints_and_results_match_the_reference(data, p):
    if data is None:  # x + y == 0 and x - x: full cancellation to an O-term
        x = PadicNumber.from_rational(Fraction(5, 4), p, 6)
        cases = [(x, PadicNumber.from_rational(Fraction(-5, 4), p, 6)), (x, x)]
        q = Fraction(7, 3) * p**2
    else:
        cases = [(data.draw(padics(p)), data.draw(padics(p))) for _ in range(8)]
        q = data.draw(nonzero_rationals)
    for x, y in cases:
        assert _int_valued(x) and _int_valued(y)
        for op in OPS:
            _check_op(op, x, y, x, y)
        # an int or Fraction beside x, on either side, is promoted at x's
        # precision (the default next to a zero or an O-term)
        prec = x.prec or DEFAULT_PRECISION
        for r in (q, q.numerator):
            up = _capped(p, Fraction(r), valuation_of_rational(r, p) + prec)
            assert PadicNumber.from_rational(r, p, prec) == up
            for op in OPS:
                _check_op(op, x, r, x, up)
                _check_op(op, r, x, up, x)


@given(st.data(), st.sampled_from((2, 3, 5, 7)))
def test_reflected_operators_are_the_forward_ones(data, p):
    """q + x and q * x, with an int or a Fraction q (0 included) on the
    left, equal x + q and x * q in (val, unit, prec), and what promoting q
    at x's precision and operating in its place gives, for known values,
    O-terms and exact zeros x."""
    x = data.draw(padics(p))
    q = data.draw(st.one_of(st.integers(-10**6, 10**6), rationals))
    up = x._operand(q)
    for op in (add, mul):
        assert op(q, x) == op(x, q) == op(up, x)


@given(st.data(), st.sampled_from((2, 3, 5, 7)))
@example(None, 2)
def test_sums_are_o_terms_zeros_or_keep_a_digit(data, p):
    """A sum or difference of two PadicNumbers is an exact zero, an O-term,
    or a known value with prec >= 1 and a unit not divisible by p: no sum
    reaches prec <= 0, so _known needs no floor."""
    if data is None:  # full cancellation of two known values
        x = PadicNumber.from_rational(Fraction(5, 4), p, 6)
        pairs = [(x, -x), (x, x)]
    else:
        pairs = [(data.draw(padics(p)), data.draw(padics(p))) for _ in range(8)]
    for x, y in pairs:
        for s in (x + y, x - y):
            assert (s.val == INF or (s.prec, s.unit) == (0, 0)
                    or (s.prec >= 1 and s.unit % p and s.unit < p**s.prec)), (x, y, s)


@given(st.one_of(st.integers(-10**6, 10**6), rationals), primes)
@example(0, 2)
@example(Fraction(0), 3)
@example(Fraction(-250, 9), 5)
def test_rational_valuations_are_ints_inside_the_library(q, p):
    """_bval and RationalContext.val give v_p(numerator) - v_p(denominator)
    of an int or a Fraction as an int, INF for 0, equal to the Fraction of
    valuation_of_rational."""
    want = valuation_of_rational(q, p)
    assert type(want) is Fraction or (q == 0 and want == INF)
    for got in (_bval(q, p), RationalContext(p).val(q)):
        assert got == want and (type(got) is int or (q == 0 and got == INF)), (q, p, got)


def _fold(row, v):
    """repr of the left fold of the products, or the error it raises."""
    try:
        return repr(reduce(add, map(mul, row, v)))
    except (DivisionByZero, PrecisionExhausted) as exc:
        return type(exc).__name__


@given(st.data(), primes)
@example(None, 2)
def test_dot_is_the_left_fold_of_its_products(data, p):
    """_dot matches functools.reduce(add, map(mul, row, v)) in repr (the
    same PadicNumber bytes, or the same error) on rows that mix ints,
    Fractions and PadicNumbers with exact zeros, O-terms and mixed
    precisions."""
    if data is None:  # an exact zero first, an O-term, then 4 and 10 digits
        row = [PadicNumber.zero(p), 3, Fraction(1, p), PadicNumber.from_rational(5, p, 4)]
        v = [PadicNumber.o_term(p, 3), PadicNumber.from_rational(7, p, 10), 0, Fraction(2, 3)]
    else:
        n = data.draw(st.integers(1, 6))
        entry = st.one_of(st.integers(-50, 50), rationals, padics(p))
        row, v = ([data.draw(entry) for _ in range(n)] for _ in range(2))
    try:
        got = repr(_dot(row, v))
    except (DivisionByZero, PrecisionExhausted) as exc:
        got = type(exc).__name__
    assert got == _fold(row, v), (row, v)


def test_o_term_takes_the_ceiling_of_its_bound():
    assert PadicNumber.o_term(3, Fraction(3, 2)) == PadicNumber.o_term(3, 2)
    assert type(PadicNumber.o_term(3, Fraction(-4, 2)).val) is int


def _padic_numbers(obj):
    """Every PadicNumber inside a record, tuple, list or ExtElement, with the
    records' private fields."""
    if isinstance(obj, PadicNumber):
        yield obj
    elif isinstance(obj, (tuple, list)):
        for x in obj:
            yield from _padic_numbers(x)
    elif hasattr(obj, "_fields"):
        for f in obj._fields:
            yield from _padic_numbers(getattr(obj, f))


def test_padic_build_holds_int_valuations_and_reads_fractions():
    """Over Q_3 the companion of t^2 + t + 3 (roots of valuation 0 and 1)
    beside a ram 2 block and a nilpotent one: every PadicNumber of the
    spectral data, the splitting and the adapted norm has an int valuation,
    and the public readers still give Fractions, as they do over Q (where
    the library reads int valuations too): newton_polygon's vertices and
    segments, norm_exp, operator_norm, standard_norm_exp and
    remainder_lipschitz."""
    from ultradyn import dynamics, polyalg, spectral
    from helpers import _embed, companion, frac_block, nilp_block

    p, d = 3, 5
    m = [[Fraction(0)] * d for _ in range(d)]
    for off, block in ((0, companion([p, 1, 1])), (2, frac_block(p, 1, 2)), (4, nilp_block(1))):
        _embed(m, block, off)
    an = spectral.LinearAnalysis(m, p)
    norm = an.norm()
    xs = [[PadicNumber.from_rational(Fraction(i - j, p ** j), p, 20) for j in range(d)]
          for i in range(3)]
    built = list(_padic_numbers([an.data, an.splitting(1), norm, norm._pi_rows, norm._pi_cols]))
    assert len(built) > 50 and all(map(_int_valued, built))
    assert sum(x.val < 0 for x in built if x.val != INF) > 0
    rhos = [r for r, _ in an.spectrum]
    assert INF in rhos and all(type(r) is Fraction for r in rhos if r != INF)
    assert all(type(norm.norm_exp(x)) is Fraction for x in xs)
    assert type(spectral.operator_norm(m, p, norm)) is Fraction
    assert type(dynamics.standard_norm_exp(xs[1], p)) is Fraction
    assert type(valuation_of_rational(9, p)) is Fraction
    # the same readers over Q, and of a PadicNumber vector or map coefficient
    ctx = PadicContext(p)
    diag = [[Fraction(p), Fraction(0)], [Fraction(0), Fraction(1, p)]]
    cps = [an.charpoly, polyalg.charpoly(diag, p)]
    for cp in cps + [polyalg.Polynomial(tuple(map(ctx.from_rational, c.coeffs)), p) for c in cps]:
        poly = polyalg.newton_polygon(cp)
        assert all(type(v) is Fraction for _, v in poly.vertices), poly
        assert all(type(r) is Fraction for r, _ in poly.segments), poly
    x = [Fraction(p, 2), Fraction(1, p * p)]
    for a, n in ((diag, spectral.adapted_norm(diag, p)), (m, norm)):
        for y in (x, [ctx.from_rational(c) for c in x]):
            y = y + [Fraction(0)] * (len(a) - 2)
            assert type(n.norm_exp(y)) is Fraction
            assert type(dynamics.standard_norm_exp(y, p)) is Fraction
            f = dynamics.PolyMap.from_tables(
                [{**{tuple(int(l == j) for l in range(len(a))): c for j, c in enumerate(row) if c},
                  tuple(2 * int(l == i) for l in range(len(a))): y[i]}
                 for i, row in enumerate(a)], p)
            assert type(dynamics.remainder_lipschitz(f, 1, n)) is Fraction
        assert type(spectral.operator_norm(a, p, n)) is Fraction


# -- Eisenstein extension elements ------------------------------------------


def test_ext_element_is_a_print_only_record():
    x = ExtElement(3, 2, (Fraction(1, 3), PadicNumber.zero(3)))
    assert repr(x) == "Ext(p=3,e=2,[Fraction(1, 3), 0 (p=3)])"
    with pytest.raises(TypeError):
        x * x
    # the reference ring reads a record of a smaller ram into its own
    assert PiRing(3, 4).lift(x).coeffs == (Fraction(1, 3), PadicNumber.zero(3),
                                           PadicNumber.zero(3), PadicNumber.zero(3))


def test_pi_valuation():
    pi = PiElement.pi(2, 3)
    assert pi.valuation() == Fraction(1, 3)
    assert (pi * pi * pi).valuation() == 1  # pi^ram = p


@given(nonzero_rationals, primes, st.sampled_from((2, 3)))
def test_ext_embedding_preserves_valuation(q, p, ram):
    x = PiElement.from_base(Fraction(q), p, ram)
    assert x.valuation() == valuation_of_rational(q, p)


@given(st.lists(rationals, min_size=6, max_size=6),
       st.tuples(nonzero_rationals, *[rationals] * 5), primes, st.sampled_from((2, 3, 6)))
@example([0, 5, 0, 0, 0, 0], [3, 0, 0, 0, 0, 0], 2, 2)  # a base-field divisor
def test_ext_division_roundtrip(a, b, p, ram):
    # a divisor with several nonzero pi-slots: the columns of its
    # multiplication matrix wrap around through pi^ram = p
    xa, xb = (PiElement(p, ram, tuple(Fraction(c) for c in v[:ram])) for v in (a, b))
    q = xa / xb
    assert (q * xb).coeffs == xa.coeffs


@pytest.mark.parametrize("ram", [1, 2])
@pytest.mark.parametrize("num", [Fraction(1), Fraction(0), PadicNumber.from_rational(1, 2)])
@pytest.mark.parametrize("bound", [70, 3])
def test_ext_division_by_unknown_valuation(ram, num, bound):
    # no certified nonzero coefficient: above the zero threshold (70) or
    # below it (3), and whatever the numerator, as for PadicNumber
    x = PiElement.from_base(num, 2, ram)
    with pytest.raises(PrecisionExhausted, match="^division by a value of unknown valuation$"):
        x / PiElement.from_base(PadicNumber.o_term(2, bound), 2, ram)
    with pytest.raises(DivisionByZero):
        x / PiElement.from_base(PadicNumber.zero(2), 2, ram)


@pytest.mark.parametrize("other", [PadicNumber.zero(2), PadicNumber.o_term(2, 5)])
def test_ext_sum_keeps_rational_precision(other):
    # a Fraction promoted next to an exact zero or an O-term keeps the
    # default precision, not one digit
    x = PiElement.from_base(Fraction(3), 2, 1) + PiElement.from_base(other, 2, 1)
    c = x.coeffs[0]
    assert (c.unit, c.val, c.prec) == (3, 0, DEFAULT_PRECISION if other.is_exact_zero else 5)


def test_ext_from_base_zero_slots_follow_the_arithmetic():
    # the pi-slots of a p-adic x are p-adic exact zeros, as a product gives them
    x = PadicNumber.from_rational(2, 3)
    y = PiElement.from_base(x, 3, 2)
    z = y * PiRing(3, 2).one
    assert y == z
    assert repr(y) == repr(z)


@settings(max_examples=40)
@given(nonzero_rationals, nonzero_rationals, primes)
def test_ext_ultrametric(a, b, p):
    ram = 3
    xa = PiElement.from_base(Fraction(a), p, ram) * PiElement.pi(p, ram)
    xb = PiElement.from_base(Fraction(b), p, ram) * PiElement.pi(p, ram, 2)
    s = xa + xb
    assert s.valuation() == min(xa.valuation(), xb.valuation())


# -- contexts ----------------------------------------------------------------


def test_padic_context_zeroness_thresholds():
    ctx = PadicContext(2, precision=10)
    assert ctx.zeroness(PadicNumber.zero(2)) == 0          # exact zero
    assert ctx.zeroness(ctx.from_rational(Fraction(3))) == 1
    assert ctx.zeroness(PadicNumber.o_term(2, 12)) == 0    # below threshold
    assert ctx.zeroness(PadicNumber.o_term(2, 4)) == 2     # uncertain


def test_ext_context_roundtrip():
    ctx = PiRing(3, 2)
    x = ctx.from_rational(Fraction(5, 9))
    assert ctx.val(x) == -2
