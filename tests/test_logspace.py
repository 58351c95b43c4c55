import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poientropy.logspace import (
    LogScalar,
    log1mexp,
    log_gamma,
    log_sum_exp,
)

# High-precision references (40-digit mpmath evaluation, frozen).
LN_10_FACTORIAL = 15.104412573075515
HALF_LN_PI = 0.5723649429247001
LOG1MEXP_AT_1 = -0.45867514538708189


class TestLogGamma:
    def test_gamma_of_one_is_zero(self):
        assert log_gamma(1.0) == 0.0

    def test_integer_factorial(self):
        assert log_gamma(11) == pytest.approx(LN_10_FACTORIAL, rel=1e-12)

    def test_half_integer_closed_form(self):
        assert log_gamma(0.5) == pytest.approx(HALF_LN_PI, rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            log_gamma(x)


class TestLogSumExp:
    def test_two_equal_terms(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_shift_invariance_without_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(
            1000.0 + math.log(2.0), rel=1e-15
        )

    def test_extreme_spread_stays_finite_nonnegative(self):
        value = log_sum_exp([0.0, -745.0])
        # exp(-745) is subnormal; the correction is at or below float
        # resolution but must never come back negative.
        assert 0.0 <= value <= 1e-300

    def test_empty_sequence_is_minus_infinity(self):
        assert log_sum_exp([]) == -math.inf

    def test_all_minus_infinity(self):
        assert log_sum_exp([-math.inf, -math.inf]) == -math.inf


class TestLog1mexp:
    def test_branch_point_value(self):
        assert log1mexp(math.log(2.0)) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_reference_at_one(self):
        assert log1mexp(1.0) == pytest.approx(LOG1MEXP_AT_1, rel=1e-12)

    def test_small_argument_leading_order(self):
        # 1 - e^-x ~ x, so the log tracks ln(x) to first order.
        assert log1mexp(1e-10) == pytest.approx(math.log(1e-10), abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, -1.0])
    def test_rejects_nonpositive(self, x):
        with pytest.raises(ValueError):
            log1mexp(x)

    @given(st.floats(min_value=1e-300, max_value=700.0))
    def test_complement_identity(self, x):
        # exp(log1mexp(x)) + exp(-x) == 1 on the whole supported range.
        value = log1mexp(x)
        assert value < 0.0
        assert math.exp(value) + math.exp(-x) == pytest.approx(1.0, abs=1e-12)


def _signed(logmag, sign):
    scalar = LogScalar.from_log(logmag)
    return scalar if sign > 0 else -scalar


def _scalars(min_log=-500.0, max_log=500.0):
    return st.builds(
        _signed,
        st.floats(min_value=min_log, max_value=max_log),
        st.sampled_from([-1, 1]),
    ) | st.just(LogScalar.zero())


class TestLogScalar:
    def test_zero_invariant(self):
        z = LogScalar.zero()
        assert z.sign == 0 and z.logmag == -math.inf
        with pytest.raises(ValueError):
            LogScalar(0, 1.0)
        with pytest.raises(ValueError):
            LogScalar(1, -math.inf)
        with pytest.raises(ValueError):
            LogScalar(2, 0.0)

    @given(
        st.floats(min_value=1e-300, max_value=1e300),
        st.sampled_from([-1.0, 1.0]),
    )
    def test_round_trip(self, magnitude, sign):
        x = sign * magnitude
        back = LogScalar.from_float(x).to_float()
        assert back == pytest.approx(x, rel=1e-12)

    def test_exact_cancellation_in_log_space(self):
        product = LogScalar.from_float(2**-100) * LogScalar.from_float(2**100)
        assert product.to_float() == 1.0

    def test_opposite_equal_magnitudes_add_to_zero(self):
        total = LogScalar.from_float(1.0) + LogScalar.from_float(-1.0)
        assert total.sign == 0

    def test_big_integer_coefficient_product(self):
        # b1 of the n=100, k=95 orientation model, against exact rationals.
        exact = float(Fraction(101 * math.comb(100, 95) ** 2, 2**100))
        got = (
            LogScalar.from_float(101 * math.comb(100, 95) ** 2)
            * LogScalar.from_float(2**-100)
        ).to_float()
        assert got == pytest.approx(exact, rel=1e-12)

    def test_division_by_zero_raises(self):
        with pytest.raises(ZeroDivisionError):
            LogScalar.from_log(0.0) / LogScalar.zero()

    def test_subtraction_through_signs(self):
        a = LogScalar.from_float(3.0)
        b = LogScalar.from_float(10.0)
        assert (a - b).to_float() == pytest.approx(-7.0, rel=1e-12)

    @given(_scalars(), _scalars())
    def test_addition_commutes_exactly(self, a, b):
        assert (a + b) == (b + a)

    @settings(max_examples=300)
    @given(_scalars(), _scalars(), _scalars())
    def test_addition_associates_to_operand_scale(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        gap = left - right
        if gap.sign == 0:
            return
        scale = max(x.logmag for x in (a, b, c) if x.sign != 0)
        assert gap.logmag <= math.log(1e-10) + scale

    @given(_scalars(min_log=-200, max_log=200), _scalars(min_log=-200, max_log=200))
    def test_multiplication_matches_floats(self, a, b):
        product = (a * b).to_float()
        assert product == pytest.approx(a.to_float() * b.to_float(), rel=1e-12)


class TestLogScalarValueContract:
    """What every LogScalar promises, however it was made: it is frozen,
    hashes by value, never holds NaN, and keeps its arithmetic on the class
    (where tracing code can wrap it)."""

    @staticmethod
    def _made_every_way():
        three = LogScalar.from_float(3.0)
        return {
            "constructed": LogScalar(1, 1.5),
            "sum": three + LogScalar.from_float(4.0),
            "difference": three - LogScalar.from_float(10.0),
            "product": three * three,
            "quotient": three / LogScalar.from_float(2.0),
            "negation": -three,
            "from_log": LogScalar.from_log(-700.0),
            "from_float": three,
            "zero": LogScalar.zero(),
        }

    @pytest.mark.parametrize("field", ["sign", "logmag"])
    def test_fields_cannot_be_assigned(self, field):
        for how, value in self._made_every_way().items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, field, 1)
            assert not hasattr(value, "__dict__"), how

    def test_equal_values_hash_equally(self):
        three = LogScalar.from_float(3.0)
        pairs = [
            (LogScalar(1, math.log(9.0)), three * three),
            (LogScalar(1, math.log(3.0)), LogScalar.from_log(math.log(3.0))),
            (LogScalar(-1, math.log(3.0)), -three),
            (LogScalar(0, -math.inf), three - three),
            (LogScalar(0, -math.inf), LogScalar.zero()),
        ]
        for built, computed in pairs:
            assert built == computed
            assert hash(built) == hash(computed)
        assert len({three * three, LogScalar(1, math.log(9.0)), three}) == 2

    @pytest.mark.parametrize(
        "make",
        [
            lambda: LogScalar.from_log(math.nan),
            lambda: LogScalar.from_float(math.nan),
            lambda: LogScalar.from_log(math.inf) / LogScalar.from_log(math.inf),
            lambda: LogScalar.from_log(math.inf) + LogScalar.from_log(math.inf),
            lambda: LogScalar(1, math.nan),
        ],
        ids=["from_log", "from_float", "inf/inf", "inf+inf", "constructor"],
    )
    def test_nan_is_refused(self, make):
        with pytest.raises(ValueError, match="NaN"):
            make()

    def test_underflow_past_the_float_range_is_refused(self):
        tiny = LogScalar.from_log(-1e308)
        with pytest.raises(ValueError):
            tiny * tiny

    def test_arithmetic_lives_on_the_class(self):
        methods = vars(LogScalar)
        for name in ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__"):
            assert callable(methods[name]), name
