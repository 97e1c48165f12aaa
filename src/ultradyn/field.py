"""Ground-field arithmetic: exact rationals with p-adic valuation and capped
precision p-adic numbers, and a print-only record (ExtElement) of values of
the totally ramified Eisenstein extensions pi^e = p.

A PadicNumber's valuation is an int (math.inf for exact zero), since every
value held is in Q_p itself; valuation_of_rational and the library's public
readers (spectra, norm exponents, operator norms) give Fractions.  Absolute
values are never materialised as floats; all order comparisons against a
rational threshold are done in integer arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil, inf as INF
from operator import attrgetter

from .errors import DivisionByZero, PrecisionExhausted, PreconditionViolated

# Honest relative precision below which known (non O-term) results refuse to
# exist.  O-terms (valuation lower bounds) are always allowed.
MIN_PRECISION = 1

DEFAULT_PRECISION = 64

# The graph modes of manifolds.graph_series, defined here so that the CLI
# checks a mode before it loads any analysis module.
MODES = STABLE, CENTRE_STABLE, CENTRE, UNSTABLE = "Stable", "CentreStable", "Centre", "Unstable"

# Zeroness verdicts used by linear algebra.
ZERO, NONZERO, UNCERTAIN = 0, 1, 2


# psi_13: below it Miller-Rabin on the primes up to 41 is deterministic
# (Sorenson and Webster, Math. Comp. 86, 2017); the CLI refuses the rest.
PRIME_LIMIT = 3317044064679887385961981
_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Miller-Rabin on _BASES, deterministic for n < PRIME_LIMIT."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _BASES:
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


_set = object.__setattr__


class _Record:
    """Base of the library's immutable value records, built with no code
    generation.  Fields are the class's annotated names in order, taken by
    position or keyword, defaulting to the class attribute.  repr() is
    Name(field=value, ...), == holds within one class, hash is the fields'
    hash, and a field named _x stays out of all three.  cached_property works."""

    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)  # own annotations only, since 3.10
        cls._shown = tuple(f for f in cls._fields if not f.startswith("_"))
        cls._key = attrgetter(*cls._shown)

    def __init__(self, *args, **kw):
        names, cls = self._fields, type(self)
        if kw or len(args) != len(names):
            rest = names[len(args):]
            if (len(args) > len(names) or kw.keys() - set(rest)
                    or [f for f in rest if f not in kw and not hasattr(cls, f)]):
                raise TypeError(f"{cls.__name__}{args}, {kw}: the fields are {names}")
            args += tuple(kw[f] if f in kw else getattr(cls, f) for f in rest)
        for name, value in zip(names, args):
            _set(self, name, value)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._shown)
        return f"{type(self).__qualname__}({shown})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PadicNumber(_Record):
    """unit * p^val + O(p^(val + prec)).

    Exact zero is val == INF.  prec == 0 with unit == 0 is an O-term: a value
    only known to have valuation >= val.  Otherwise unit is a p-adic unit
    reduced mod p^prec.  Every operation builds one, so the constructor is
    written out and the fields are slots; __reduce__ rebuilds one through it
    for copy and pickle, which would otherwise assign the slots.
    """

    __slots__ = ("prime", "val", "unit", "prec")
    prime: int
    val: object  # int, INF for exact zero
    unit: int
    prec: int

    def __init__(self, prime, val, unit, prec):
        _set(self, "prime", prime)
        _set(self, "val", val)
        _set(self, "unit", unit)
        _set(self, "prec", prec)

    def __reduce__(self):
        return PadicNumber, (self.prime, self.val, self.unit, self.prec)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, p: int) -> "PadicNumber":
        return cls(p, INF, 0, 0)

    @classmethod
    def o_term(cls, p: int, bound) -> "PadicNumber":
        """A value known only to satisfy v >= bound, that is v >= ceil(bound)."""
        return cls(p, ceil(bound), 0, 0)

    @classmethod
    def from_rational(cls, q, p: int, prec: int = DEFAULT_PRECISION) -> "PadicNumber":
        q = q if q.__class__ in (int, Fraction) else Fraction(q)
        if not q:
            return cls.zero(p)
        num, den = q.numerator, q.denominator
        vn, vd = _ival(num, p), _ival(den, p)
        m = p**prec
        unit = num // p**vn % m * pow(den // p**vd % m, -1, m) % m
        return cls(p, vn - vd, unit, prec)

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

    def _sum(self, y, sign):
        """self + sign * y.  Two known values (prec > 0: neither an exact
        zero nor an O-term) of one prime take the first branch, with no
        promotion and no negated copy of y."""
        x, p = self, self.prime
        if y.__class__ is not PadicNumber or y.prime != p:
            y = x._operand(y)
            if y is None:
                return NotImplemented
        if x.prec and y.prec:
            if x.val <= y.val:
                prec = min(x.prec, y.val + y.prec - x.val)
                return x._known(p, x.val, x.unit + sign * y.unit * p ** (y.val - x.val), prec)
            prec = min(y.prec, x.val + x.prec - y.val)
            return x._known(p, y.val, x.unit * p ** (x.val - y.val) + sign * y.unit, prec)
        y = -y if sign < 0 else y
        if x.val == INF:
            return y
        if y.val == INF:
            return x
        if x.prec:
            x, y = y, x  # x = O(p^{x.val}), y known or an O-term
        if not y.prec or x.val <= y.val:
            return PadicNumber.o_term(p, min(x.val, y.val))
        return x._known(p, y.val, y.unit, min(y.prec, x.val - y.val))

    def __add__(self, other):
        return self._sum(other, 1)

    def __sub__(self, other):
        return self._sum(other, -1)

    def __neg__(self):
        if not self.prec:  # an exact zero or an O-term
            return self
        m = self.prime**self.prec
        return PadicNumber(self.prime, self.val, (-self.unit) % m, self.prec)

    def __mul__(self, other):
        p, y = self.prime, other
        if y.__class__ is not PadicNumber or y.prime != p:
            y = self._operand(y)
            if y is None:
                return NotImplemented
        if self.prec and y.prec:
            prec = min(self.prec, y.prec)
            return PadicNumber(p, self.val + y.val, self.unit * y.unit % p**prec, prec)
        if self.val == INF or y.val == INF:  # records are immutable: hand the zero back
            return self if self.val == INF else y
        return PadicNumber.o_term(p, self.val + y.val)

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
# base-field valuations and zeroness; Eisenstein extension records pi^e = p
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


class ExtElement(_Record):
    """A value of Q_p(pi), pi^ram = p, as the coefficients of 1, pi, ...,
    pi^(ram-1): exact Fractions or capped PadicNumbers.  A record for repr()
    and the CLI, with no arithmetic: the library reads each adapted norm as
    pi-exponents and base-field rows instead."""

    prime: int
    ram: int
    coeffs: tuple

    def __repr__(self):
        return f"Ext(p={self.prime},e={self.ram},{list(self.coeffs)})"


# --------------------------------------------------------------------------
# Ring contexts of the generic linear algebra and the series kernel: Q, Q_p
# and the integers that dynamics scales a rational table to (_IntegerContext)
# --------------------------------------------------------------------------


class RationalContext:
    """Exact rationals viewed inside Q_p."""

    def __init__(self, p: int):
        self.p = p

    zero = Fraction(0)
    one = Fraction(1)

    def from_rational(self, q):
        return q if type(q) is Fraction else Fraction(q)  # no copy of a Fraction

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


class _IntegerContext:
    """Plain ints.  Zeroness is the truth value: bool(x) is ZERO (0) or
    NONZERO (1)."""

    zero = 0
    one = 1
    zeroness = staticmethod(bool)
