"""Each fast path equals, bit for bit, the plain form it stands in for.

The golden files pin the certificate path only at the inputs they hold;
these tests hold the rewritten helpers to their plain forms on random
inputs.  Values are compared as their bytes, so a signed zero or a
last-bit difference fails.
"""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from poientropy import poisson
from poientropy.logspace import _log_sum_exp2, log_sum_exp

_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_EXTENDED = st.floats(allow_nan=False)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _outward_cumsum_reference(steps: np.ndarray, i: int) -> np.ndarray:
    # The builder as it was: both sums accumulated into views of one array,
    # the lower one negated in place.
    out = np.empty(steps.size + 1)
    out[i] = 0.0
    np.add.accumulate(steps[i:], out=out[i + 1:])
    if i:
        down = out[i - 1::-1]
        np.add.accumulate(steps[i - 1::-1], out=down)
        np.negative(down, out=down)
    return out


def _log_pmf_ratios_reference(lam: float, lo: int, hi: int) -> np.ndarray:
    # Integer j, cast to float by the division.
    j = np.arange(lo + 1, hi + 1)
    if lam < 1.0:
        steps = math.log(lam) - np.log(j)
    else:
        steps = np.log(lam / j)
    return _outward_cumsum_reference(steps, min(max(int(lam), lo), hi) - lo)


def _normalised_entropy_reference(log_w: np.ndarray, i: int) -> tuple:
    w = np.exp(log_w)
    w[i] = 0.0
    rest = float(np.add.reduce(w))
    log_s = math.log1p(rest)
    return log_s - float(w @ log_w) / (1.0 + rest), log_s


class TestTwoTermLogSum:
    @settings(max_examples=400, deadline=None)
    @given(x=_EXTENDED, y=_EXTENDED)
    @example(x=math.inf, y=math.inf)
    @example(x=-math.inf, y=-math.inf)
    @example(x=math.inf, y=-math.inf)
    @example(x=-math.inf, y=math.inf)
    @example(x=-math.inf, y=3.5)
    @example(x=0.0, y=-0.0)
    @example(x=-0.0, y=0.0)
    @example(x=1.0, y=1.0 - 746.0)
    def test_equals_log_sum_exp(self, x, y):
        assert _bits(_log_sum_exp2(x, y)) == _bits(log_sum_exp([x, y]))
        assert _bits(_log_sum_exp2(y, x)) == _bits(log_sum_exp([y, x]))

    @settings(max_examples=200, deadline=None)
    @given(x=_FINITE)
    def test_equal_terms(self, x):
        assert _bits(_log_sum_exp2(x, x)) == _bits(log_sum_exp([x, x]))

    @settings(max_examples=200, deadline=None)
    @given(
        x=st.floats(min_value=-1e6, max_value=1e6),
        gap=st.floats(min_value=745.0, max_value=1e6),
    )
    def test_gap_beyond_the_exponent_range(self, x, gap):
        # e^(lo - hi) is subnormal or 0, and 1.0 plus it rounds to 1.0.
        assert _bits(_log_sum_exp2(x, x - gap)) == _bits(log_sum_exp([x, x - gap]))
        assert _bits(_log_sum_exp2(x - gap, x)) == _bits(log_sum_exp([x - gap, x]))


class TestSeriesWindow:
    @settings(max_examples=200, deadline=None)
    # Steps are log-ratios: bounded so that no partial sum overflows.
    @given(steps=st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=40))
    @example(steps=[1.0, -1.0, 0.0, -0.0])
    @example(steps=[0.0, -0.0, 0.0])
    def test_builder_at_every_mode_index(self, steps):
        steps = np.array(steps, dtype=np.float64)
        for i in range(steps.size + 1):
            got = poisson._outward_cumsum(steps, i)
            assert got.tobytes() == _outward_cumsum_reference(steps, i).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        lam=st.floats(min_value=1e-6, max_value=1000.0),
        spread=st.floats(min_value=1.0, max_value=12.0),
    )
    @example(lam=1.0, spread=7.4)
    @example(lam=1000.0, spread=7.4)
    def test_log_pmf_ratios(self, lam, spread):
        reach = spread * (math.sqrt(lam) + 1.0)
        lo, hi = max(0, math.floor(lam - reach)), math.ceil(lam + reach)
        got = poisson._log_pmf_ratios(lam, lo, hi)
        assert got.tobytes() == _log_pmf_ratios_reference(lam, lo, hi).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(
        log_w=st.lists(st.floats(min_value=-800.0, max_value=0.0), min_size=1, max_size=600),
        data=st.data(),
    )
    def test_normalised_entropy(self, log_w, data):
        i = data.draw(st.integers(min_value=0, max_value=len(log_w) - 1))
        log_w[i] = 0.0
        log_w = np.array(log_w, dtype=np.float64)
        got = poisson._normalised_entropy(log_w, i)
        want = _normalised_entropy_reference(log_w, i)
        assert list(map(_bits, got)) == list(map(_bits, want))
