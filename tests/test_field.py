"""Base arithmetic: valuations, threshold comparison, capped precision; the
ExtElement record, and the Q_p(pi) ring of tests/reference.py that the
adapted-norm oracles compute in."""

from fractions import Fraction
from math import inf as INF

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ultradyn.field import (
    DEFAULT_PRECISION,
    ExtElement,
    PadicContext,
    PadicNumber,
    _is_prime,
    compare_threshold,
    valuation_of_rational,
)
from ultradyn.errors import DivisionByZero, PrecisionExhausted, PreconditionViolated

from reference import PiElement, PiRing

PRIMES = (2, 3, 5)

rationals = st.fractions(
    min_value=Fraction(-10**6), max_value=Fraction(10**6), max_denominator=10**4)
nonzero_rationals = rationals.filter(lambda q: q != 0)
primes = st.sampled_from(PRIMES)


# -- primality ----------------------------------------------------------------


def test_is_prime_past_trial_division():
    """Miller-Rabin past trial division by the primes up to 37: a sieve
    below 10^4, the Mersenne prime 2^61 - 1, and two composites with no
    factor up to 37, 1763 = 41 * 43 and 3215031751 = 151 * 751 * 28351,
    a strong pseudoprime to the bases 2, 3, 5 and 7."""
    n = 10**4
    sieve = [False, False] + [True] * (n - 2)
    for i in range(2, 100):
        if sieve[i]:
            sieve[i * i::i] = [False] * len(range(i * i, n, i))
    assert [k for k in range(n) if _is_prime(k)] == [k for k in range(n) if sieve[k]]
    assert _is_prime(2**61 - 1) and _is_prime(10007)
    assert 41 * 43 == 1763 and 151 * 751 * 28351 == 3215031751
    assert not _is_prime(1763) and not _is_prime(3215031751)


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
