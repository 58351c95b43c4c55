"""Log-domain scalar arithmetic and special functions.

Everything downstream (Chen-Stein coefficients, truncation factors, the
random-orientation model on the n-cube) routinely produces magnitudes like
2**-100 or C(100, 70)**2 / 2**100 that a plain float cannot hold without an
overflow/underflow cliff.  This module provides a signed log-magnitude scalar
(:class:`LogScalar`) plus the handful of special functions the bound
formulas need: lgamma, log-sum-exp, log(1 - e^-x) and an exp that saturates
instead of raising.

All functions are pure; values are immutable and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

__all__ = [
    "LogScalar",
    "log_gamma",
    "log_sum_exp",
    "log1mexp",
]

_LN2 = math.log(2.0)


def log_gamma(x: float) -> float:
    """Natural log of the Gamma function for x > 0.

    Raises ValueError for x <= 0 (the reflection branch is never needed
    here, and silently returning values at the poles would hide bugs).
    """
    if x <= 0.0:
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def log_sum_exp(xs: Iterable[float]) -> float:
    """ln(sum of e^x over xs), evaluated without overflow.

    An empty sequence returns -inf (the log of an empty sum), by convention.
    """
    values = list(xs)
    if not values:
        return -math.inf
    hi = max(values)
    if math.isinf(hi):  # +inf dominates; all -inf stays -inf
        return hi
    return hi + math.log(math.fsum([math.exp(x - hi) for x in values]))


def _log_sum_exp2(x: float, y: float) -> float:
    """``log_sum_exp([x, y])`` bit for bit, without the list.

    The larger term gives e^0 = 1.0, and math.fsum of two doubles is their
    correctly rounded sum, which is what 1.0 + e^(lo - hi) rounds to.
    """
    hi, lo = (x, y) if x >= y else (y, x)
    if math.isinf(hi):  # +inf dominates; all -inf stays -inf
        return hi
    return hi + math.log(1.0 + math.exp(lo - hi))


def log1mexp(x: float) -> float:
    """ln(1 - e^-x) for x > 0.

    Uses the standard two-branch split at x = ln 2: below it 1 - e^-x loses
    precision, so go through expm1; above it log1p is the accurate form.
    """
    if x <= 0.0:
        raise ValueError(f"log1mexp requires x > 0, got {x}")
    if x < _LN2:
        return math.log(-math.expm1(-x))
    return math.log1p(-math.exp(-x))


def _saturating_exp(x: float) -> float:
    """e^x that saturates instead of raising: +inf above 709 (math.exp raises
    OverflowError past 709.78) and 0.0 at or below -745 (about the smallest
    subnormal)."""
    if x > 709.0:
        return math.inf
    if x <= -745.0:
        return 0.0
    return math.exp(x)


def _lse2(a: float, b: float) -> float:
    # Two-term log-sum-exp; symmetric in (a, b) so LogScalar addition commutes
    # bit-for-bit.
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    hi, lo = (a, b) if a >= b else (b, a)
    return hi + math.log1p(math.exp(lo - hi))


@dataclass(frozen=True, slots=True)
class LogScalar:
    """A real number stored as sign and natural log of magnitude.

    ``sign`` is -1, 0 or +1 and ``logmag`` is ln|x| (-inf iff sign == 0).
    Multiplication and division are exact in log space; addition and
    subtraction route through log-sum-exp with sign handling, so the usual
    caveat about catastrophic cancellation of nearly equal magnitudes
    applies, exactly as for floats.

    ``LogScalar(sign, logmag)`` checks both fields.  The constructors and
    the arithmetic build their results with the unchecked ``_make``: their
    sign is valid by construction, so one comparison of the logmag with
    -inf (see ``_nonzero``) stands in for the whole check.
    """

    sign: int
    logmag: float

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if (self.sign == 0) != (self.logmag == -math.inf):
            raise ValueError("sign == 0 must coincide with logmag == -inf")
        if math.isnan(self.logmag):
            raise ValueError("logmag must not be NaN")

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "LogScalar":
        return _ZERO

    @classmethod
    def from_float(cls, x) -> "LogScalar":
        """Build from a float or an (arbitrarily large) int."""
        if isinstance(x, LogScalar):
            return x
        if x == 0:
            return _ZERO
        sign = 1 if x > 0 else -1
        # math.log accepts big ints directly, so exact integer inputs such as
        # binomial coefficients keep full log precision.
        return _nonzero(sign, math.log(x if sign > 0 else -x))

    @classmethod
    def from_log(cls, logmag: float) -> "LogScalar":
        """The positive number e^logmag (zero at -inf)."""
        if logmag == -math.inf:
            return _ZERO
        return _nonzero(1, logmag)

    # -- conversions ---------------------------------------------------------

    def to_float(self) -> float:
        """Nearest float; underflows to 0.0 and overflows to +-inf."""
        if self.sign == 0:
            return 0.0
        return self.sign * _saturating_exp(self.logmag)

    def __float__(self) -> float:
        return self.to_float()

    # -- arithmetic ----------------------------------------------------------

    def __neg__(self) -> "LogScalar":
        if self.sign == 0:
            return self
        return _make(-self.sign, self.logmag)

    def __mul__(self, other: "LogScalar") -> "LogScalar":
        other = LogScalar.from_float(other)
        if self.sign == 0 or other.sign == 0:
            return _ZERO
        return _nonzero(self.sign * other.sign, self.logmag + other.logmag)

    def __truediv__(self, other: "LogScalar") -> "LogScalar":
        other = LogScalar.from_float(other)
        if other.sign == 0:
            raise ZeroDivisionError("division by zero LogScalar")
        if self.sign == 0:
            return _ZERO
        return _nonzero(self.sign * other.sign, self.logmag - other.logmag)

    def __add__(self, other: "LogScalar") -> "LogScalar":
        other = LogScalar.from_float(other)
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        if self.sign == other.sign:
            return _nonzero(self.sign, _lse2(self.logmag, other.logmag))
        # Opposite signs: the larger magnitude wins.
        if self.logmag == other.logmag:
            return _ZERO
        big, small = (self, other) if self.logmag > other.logmag else (other, self)
        return _nonzero(big.sign, big.logmag + log1mexp(big.logmag - small.logmag))

    def __sub__(self, other: "LogScalar") -> "LogScalar":
        return self + (-LogScalar.from_float(other))

    def __repr__(self) -> str:
        if self.sign == 0:
            return "LogScalar(0)"
        prefix = "-" if self.sign < 0 else ""
        return f"LogScalar({prefix}exp({self.logmag!r}))"


_new_scalar = object.__new__
_set_sign = LogScalar.sign.__set__  # the slots' own setters, which the
_set_logmag = LogScalar.logmag.__set__  # frozen __setattr__ does not guard


def _make(sign: int, logmag: float) -> LogScalar:
    """A LogScalar from fields known to be valid, without the field check."""
    scalar = _new_scalar(LogScalar)
    _set_sign(scalar, sign)
    _set_logmag(scalar, logmag)
    return scalar


def _nonzero(sign: int, logmag: float) -> LogScalar:
    """A LogScalar of sign +-1 and a computed logmag, checked by one test.

    From valid operands, arithmetic gives a logmag of -inf only past the
    float range (such as -1e308 - 1e308) and NaN only from inf - inf
    (inf/inf, inf + inf); the constructors get NaN only as input.  Each
    fails ``logmag > -inf`` and goes to the checked constructor, which
    refuses it.
    """
    if logmag > -math.inf:
        return _make(sign, logmag)
    return LogScalar(sign, logmag)


_ZERO = _make(0, -math.inf)
