"""Ground-field arithmetic: exact rationals with p-adic valuation, capped
precision p-adic numbers, and totally ramified Eisenstein extensions pi^e = p.

Valuations are Fractions (math.inf for exact zero).  Absolute values are
never materialised as floats; all order comparisons against a rational
threshold are done in integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf as INF

from .errors import DivisionByZero, PrecisionExhausted, PreconditionViolated

# Honest relative precision below which known (non O-term) results refuse to
# exist.  O-terms (valuation lower bounds) are always allowed.
MIN_PRECISION = 1

DEFAULT_PRECISION = 64

# Zeroness verdicts used by linear algebra.
ZERO, NONZERO, UNCERTAIN = 0, 1, 2


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin, valid far beyond 64-bit inputs we see
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _ival(n: int, p: int) -> int:
    """v_p of a nonzero integer."""
    v = 0
    while not n % p:
        n //= p
        v += 1
    return v


def valuation_of_rational(q, p: int):
    """Exact p-adic valuation of a rational; INF for zero."""
    q = Fraction(q)
    if q == 0:
        return INF
    return Fraction(_ival(q.numerator, p) - _ival(q.denominator, p))


def compare_threshold(a, v, p: int) -> int:
    """Exact ordering of a positive rational a against p^{-v}.

    Returns -1 if a < p^{-v}, 0 if equal, +1 if a > p^{-v}.  v may be a
    Fraction or INF (p^{-INF} = 0, so the answer is +1).
    """
    a = Fraction(a)
    if a <= 0:
        raise PreconditionViolated("threshold must be positive")
    if v == INF:
        return 1
    v = Fraction(v)
    u, w = a.numerator, a.denominator
    r, s = v.numerator, v.denominator
    # compare a^s against p^{-r}
    if r >= 0:
        lhs, rhs = u**s * p**r, w**s
    else:
        lhs, rhs = u**s, w**s * p ** (-r)
    return (lhs > rhs) - (lhs < rhs)


@dataclass(frozen=True)
class PadicNumber:
    """unit * p^val + O(p^(val + prec)).

    Exact zero is val == INF.  prec == 0 with unit == 0 is an O-term: a value
    only known to have valuation >= val.  Otherwise unit is a p-adic unit
    reduced mod p^prec.
    """

    prime: int
    val: object  # Fraction/int, INF for exact zero
    unit: int
    prec: int

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicNumber":
        return cls(p, INF, 0, 0)

    @classmethod
    def o_term(cls, p: int, bound) -> "PadicNumber":
        """A value known only to satisfy v >= bound."""
        return cls(p, bound, 0, 0)

    @classmethod
    def from_rational(cls, q, p: int, prec: int = DEFAULT_PRECISION) -> "PadicNumber":
        q = Fraction(q)
        if q == 0:
            return cls.zero(p)
        v = valuation_of_rational(q, p)
        num, den = q.numerator, q.denominator
        num //= p ** max(0, v.numerator if v >= 0 else 0)
        den //= p ** max(0, -v.numerator if v < 0 else 0)
        m = p**prec
        unit = num % m * pow(den % m, -1, m) % m
        return cls(p, v, unit, prec)

    # -- predicates --------------------------------------------------------

    @property
    def is_exact_zero(self) -> bool:
        return self.val == INF

    @property
    def is_uncertain(self) -> bool:
        return self.prec == 0 and self.val != INF

    def _operand(self, other):
        """other as a PadicNumber of self's prime; None if it is not a number
        of this ring.  An int or Fraction is promoted at self's precision, or
        at DEFAULT_PRECISION next to an exact zero or an O-term (prec 0)."""
        if isinstance(other, PadicNumber):
            if self.prime != other.prime:
                raise PreconditionViolated("prime mismatch")
            return other
        if isinstance(other, (int, Fraction)):
            return PadicNumber.from_rational(other, self.prime, self.prec or DEFAULT_PRECISION)
        return None

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _known(p, val, unit, prec):
        """Normalise a candidate known value, stripping p factors of unit."""
        if prec <= 0:
            return PadicNumber.o_term(p, val)
        m = p**prec
        unit %= m
        if unit == 0:
            return PadicNumber.o_term(p, val + prec)
        k = 0
        while unit % p == 0:
            unit //= p
            k += 1
        prec -= k
        if prec < MIN_PRECISION:
            raise PrecisionExhausted(
                f"result precision {prec} below floor {MIN_PRECISION}"
            )
        return PadicNumber(p, val + k, unit % p**prec, prec)

    def __add__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        p = self.prime
        x, y = self, other
        if x.is_exact_zero:
            return y
        if y.is_exact_zero:
            return x
        if x.is_uncertain or y.is_uncertain:
            if x.is_uncertain and not y.is_uncertain:
                x, y = y, x  # x known, y O-term
            if x.is_uncertain:  # both uncertain
                return PadicNumber.o_term(p, min(x.val, y.val))
            # x known, y = O(p^{y.val})
            if y.val <= x.val:
                return PadicNumber.o_term(p, min(x.val, y.val))
            prec = min(x.prec, int(y.val - x.val))
            return self._known(p, x.val, x.unit, prec)
        if x.val > y.val:
            x, y = y, x
        shift = int(y.val - x.val)
        abs_prec = min(x.val + x.prec, y.val + y.prec)
        prec = int(abs_prec - x.val)
        unit = x.unit + y.unit * p**shift
        return self._known(p, x.val, unit, prec)

    def __neg__(self):
        if self.is_exact_zero or self.is_uncertain:
            return self
        m = self.prime**self.prec
        return PadicNumber(self.prime, self.val, (-self.unit) % m, self.prec)

    def __sub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else self + (-other)

    def __mul__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        p = self.prime
        if self.is_exact_zero or other.is_exact_zero:
            return PadicNumber.zero(p)
        if self.is_uncertain or other.is_uncertain:
            return PadicNumber.o_term(p, self.val + other.val)
        prec = min(self.prec, other.prec)
        unit = self.unit * other.unit % p**prec
        return PadicNumber(p, self.val + other.val, unit, prec)

    def __truediv__(self, other):
        other = self._operand(other)
        if other is None:
            return NotImplemented
        p = self.prime
        if other.is_exact_zero:
            raise DivisionByZero("division by exact zero")
        if other.is_uncertain:
            raise PrecisionExhausted("division by a value of unknown valuation")
        if self.is_exact_zero:
            return PadicNumber.zero(p)
        if self.is_uncertain:
            return PadicNumber.o_term(p, self.val - other.val)
        prec = min(self.prec, other.prec)
        m = p**prec
        unit = self.unit * pow(other.unit % m, -1, m) % m
        return PadicNumber(p, self.val - other.val, unit, prec)

    # int or Fraction on the left: promote it, then operate in its place
    def __radd__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other + self

    def __rsub__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other - self

    def __rmul__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other * self

    def __rtruediv__(self, other):
        other = self._operand(other)
        return NotImplemented if other is None else other / self

    # -- misc --------------------------------------------------------------

    def __repr__(self):
        if self.is_exact_zero:
            return f"0 (p={self.prime})"
        if self.is_uncertain:
            return f"O({self.prime}^{self.val})"
        return (
            f"{self.unit % self.prime**min(4, self.prec)}*{self.prime}^{self.val}"
            f"+O({self.prime}^{self.val + self.prec})"
        )


# --------------------------------------------------------------------------
# Eisenstein extensions pi^e = p
# --------------------------------------------------------------------------


def _bval(c, p):
    if isinstance(c, PadicNumber):
        return c.val
    return valuation_of_rational(c, p)


def _bzeroness(c, threshold):
    if isinstance(c, PadicNumber):
        if c.is_exact_zero:
            return ZERO
        if c.is_uncertain:
            return ZERO if c.val >= threshold else UNCERTAIN
        return NONZERO
    return ZERO if c == 0 else NONZERO


@dataclass(frozen=True)
class ExtElement:
    """Element of Q_p(pi), pi^ram = p: a polynomial in pi of degree < ram.

    Coefficients are exact Fractions or capped PadicNumbers; the value group
    is (1/ram) Z.
    """

    prime: int
    ram: int
    coeffs: tuple

    @classmethod
    def from_base(cls, c, p: int, ram: int) -> "ExtElement":
        """c in Q_p(pi); the pi-slots are exact zeros of c's own ring, as
        lift_ram gives them."""
        return cls(p, 1, (Fraction(c) if isinstance(c, int) else c,)).lift_ram(ram)

    @classmethod
    def pi(cls, p: int, ram: int, k: int = 1) -> "ExtElement":
        """pi^k for any integer k (negative powers use pi^{-1} = pi^{e-1}/p)."""
        q, r = divmod(k, ram)
        coeffs = [Fraction(0)] * ram
        coeffs[r] = Fraction(p) ** q
        return cls(p, ram, tuple(coeffs))

    def _check(self, other):
        if (self.prime, self.ram) != (other.prime, other.ram):
            raise PreconditionViolated("extension context mismatch")

    def lift_ram(self, new_ram: int) -> "ExtElement":
        """Re-express in a larger extension; new_ram must be a multiple.  The
        new pi-slots are exact zeros of the element's own coefficient ring, as
        arithmetic in the larger extension would give them."""
        if new_ram % self.ram:
            raise PreconditionViolated("ramification indices incompatible")
        k = new_ram // self.ram
        padic = any(isinstance(c, PadicNumber) for c in self.coeffs)
        coeffs = [PadicNumber.zero(self.prime) if padic else Fraction(0)] * new_ram
        for i, c in enumerate(self.coeffs):
            coeffs[i * k] = c
        return ExtElement(self.prime, new_ram, tuple(coeffs))

    def __add__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        self._check(other)
        return ExtElement(self.prime, self.ram,
                          tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return ExtElement(self.prime, self.ram, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        self._check(other)
        p, e = self.prime, self.ram
        acc = [Fraction(0)] * e
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                term, k = a * b, i + j
                if k >= e:  # pi^e = p
                    term, k = term * p, k - e
                acc[k] = acc[k] + term
        return ExtElement(p, e, tuple(acc))

    def __truediv__(self, other):
        if not isinstance(other, ExtElement):
            return NotImplemented
        self._check(other)
        # solve (mult-by-other) y = self in the power basis of pi
        from . import polyalg  # local import to avoid a cycle

        p, e = self.prime, self.ram
        zs = [_bzeroness(c, INF) for c in other.coeffs]
        if NONZERO not in zs:
            if UNCERTAIN in zs:
                raise PrecisionExhausted("division by a value of unknown valuation")
            raise DivisionByZero("division by exact zero in extension")
        # column j is other * pi^j: its coefficients shifted down j slots,
        # the ones that wrap past pi^(e-1) times pi^e = p
        b = other.coeffs
        mat = [[b[i - j] if i >= j else b[i - j] * p for j in range(e)] for i in range(e)]
        ctx = polyalg.infer_context([mat, list(self.coeffs)], p)
        sol = polyalg.solve(polyalg.cmat(mat, ctx),
                            [[polyalg.coerce(c, ctx)] for c in self.coeffs], ctx)
        return ExtElement(p, e, tuple(x for x, in sol))

    def valuation(self):
        """Exact valuation in (1/ram)Z; distinct pi-powers cannot collide."""
        best = INF
        for i, c in enumerate(self.coeffs):
            v = _bval(c, self.prime)
            if v != INF:
                best = min(best, v + Fraction(i, self.ram))
        return best

    def __repr__(self):
        return f"Ext(p={self.prime},e={self.ram},{list(self.coeffs)})"


# --------------------------------------------------------------------------
# Ring contexts used by the generic linear algebra
# --------------------------------------------------------------------------


class RationalContext:
    """Exact rationals viewed inside Q_p."""

    def __init__(self, p: int):
        self.p = p

    zero = Fraction(0)
    one = Fraction(1)

    def from_rational(self, q):
        return Fraction(q)

    def val(self, x):
        return valuation_of_rational(x, self.p)

    def zeroness(self, x):
        return ZERO if x == 0 else NONZERO


class PadicContext:
    def __init__(self, p: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.precision = precision
        self.zero = PadicNumber.zero(p)
        self.one = PadicNumber.from_rational(1, p, precision)

    def from_rational(self, q):
        return PadicNumber.from_rational(q, self.p, self.precision)

    # val and zeroness take an exact Fraction too, held beside PadicNumbers
    def val(self, x):
        return _bval(x, self.p)

    def zeroness(self, x):
        return _bzeroness(x, self.precision)


class ExtContext:
    def __init__(self, p: int, ram: int, precision: int = DEFAULT_PRECISION):
        self.p = p
        self.ram = ram
        self.precision = precision
        self.zero = ExtElement.from_base(Fraction(0), p, ram)
        self.one = ExtElement.from_base(Fraction(1), p, ram)

    def from_rational(self, q):
        return ExtElement.from_base(Fraction(q), self.p, self.ram)

    def val(self, x):
        return x.valuation()

    def zeroness(self, x):
        verdict = ZERO
        for c in x.coeffs:
            z = _bzeroness(c, self.precision)
            if z == NONZERO:
                return NONZERO
            if z == UNCERTAIN:
                verdict = UNCERTAIN
        return verdict
