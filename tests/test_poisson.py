import math

import mpmath
import numpy as np
import pytest

from poientropy import poisson
from poientropy.exact import tv_to_poisson
from poientropy.poisson import (
    SERIES_ASYMPTOTIC_SWITCH,
    SERIES_LAMBDA_CEILING,
    EntropyValue,
    binomial_entropy,
    chen_stein_residual,
    poisson_entropy,
    poisson_entropy_asymptotic,
    poisson_entropy_series,
    poisson_log_pmf,
)

# Poisson entropies from a 40-digit mpmath evaluation of the defining series
# (frozen as oracle values; the package route must land on them).
H_SERIES_REFERENCE = {
    0.5: 0.9276374674957974,
    1.0: 1.3048422422562515,
    5.0: 2.2043952434283679,
    20.0: 2.9125264001823181,
}
H_AT_1E6 = 8.326693728853435

# H(Po(lam)) at lam = 10 ** (j / 4), j = -12..48 (1e-3 .. 1e12), frozen from
# a 34-digit mpmath evaluation of Malmsten's integral for E[ln Z!]:
#   H = lam - lam ln lam + int_0^inf e^-t / t [lam - (1 - exp(-lam (1 - e^-t))) / (1 - e^-t)] dt.
# test_table_matches_direct_sum re-derives a few entries by another route.
MPMATH_REFERENCE = {
    -12: "0.007908101804632483247755948798754509321",
    -11: "0.01303963416942412190788196951781797080",
    -10: "0.02136927538109063550381481163261000300",
    -9: "0.03476823628443102131206800957337717325",
    -8: "0.05608631134259101071158813177491156889",
    -7: "0.08954831543577130049402413884530759499",
    -6: "0.1411890420259951445157385325681699909",
    -5: "0.2191764824408779024130615361878178556",
    -4: "0.3336769965012326325386730484807527915",
    -3: "0.4956228189249610772326121037018777425",
    -2: "0.7135074113887494589847873094463323445",
    -1: "0.9877777309871293437568560199521832352",
    0: "1.304842242256251484308800012107587606",
    1: "1.637639568526421834759735276587553683",
    2: "1.960222947980283571617582805798478144",
    3: "2.265668161957633775277933310588638657",
    4: "2.561409935274909122596534696011572879",
    5: "2.853225511743881363427917041946120355",
    6: "3.143198660962049790304801420149772292",
    7: "3.432205105211555391483780571549684379",
    8: "3.720686072260258886849593744086540153",
    9: "4.008876817936456710486514767239226515",
    10: "4.296905957961876301966372481836918065",
    11: "4.584844714061157381591251124253942998",
    12: "4.872732797642850646198357618153811060",
    13: "5.160592434357344241360096316406997844",
    14: "5.448436089462081205925701937266945212",
    15: "5.736270762255512169983762128446776411",
    16: "6.024100385442711320785108900060594822",
    17: "6.311927169507538902964252284893794779",
    18: "6.599752357168223704505227566756763266",
    19: "6.887576647152846429572578807423265606",
    20: "7.175400432352286899046405561091354480",
    21: "7.463223933694954044092676262550249698",
    22: "7.751047275414743317213588051267839290",
    23: "8.038870527372471531443630912505844242",
    24: "8.326693728853434793781526210180590023",
    25: "8.614516901949275260506969677115802421",
    26: "8.902340059083003247145892940966748577",
    27: "9.190163207240580549919904252608803792",
    28: "9.477986350350498885843247050011864585",
    29: "9.765809490621910483824750388533109689",
    30: "10.05363262929711260651738761844315704",
    31: "10.34145576707470023853761634454592668",
    32: "10.62927890434752214035229550236529557",
    33: "10.91710204133649339520532725254729213",
    34: "11.20492517816584379380468110496723170",
    35: "11.49274831490543267761862798143359816",
    36: "11.78057145159454498648629128243247880",
    37: "12.06839458825527224917060181877692300",
    38: "12.35621772490003742304151794280091762",
    39: "12.64404086153582647551098686751723373",
    40: "12.93186399816656782853653700982738590",
    41: "13.21968713479447071739644206749635702",
    42: "13.50751027142077733242698658600515361",
    43: "13.79533340804618636221959693229466595",
    44: "14.08315654467109067054594523716962073",
    45: "14.37097968129571107644125754563174720",
    46: "14.65880281792017193093367762152755567",
    47: "14.94662595454454298162211092616481168",
    48: "15.23444909116886351255494508951180289",
}


def _geometric_tail_bound(lam, k):
    """Certified upper bound on P(Z > k) for Z ~ Po(lam), needs k + 2 > lam.

    Successive pmf ratios beyond k are at most r = lam / (k + 2) < 1, so the
    tail is dominated by the geometric series pmf(k+1) / (1 - r).
    """
    r = lam / (k + 2)
    return math.exp(poisson_log_pmf(lam, k + 1) - math.log1p(-r))


class TestLogPmf:
    def test_mean_one_values(self):
        assert poisson_log_pmf(1.0, 0) == pytest.approx(-1.0, rel=1e-15)
        assert poisson_log_pmf(1.0, 1) == pytest.approx(-1.0, rel=1e-15)

    def test_mode_matches_stirling_scale(self):
        # At k = lam the pmf is ~ 1/sqrt(2 pi lam) with O(1/lam) corrections.
        lam = 4060.0
        assert poisson_log_pmf(lam, 4060) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi * lam), abs=1e-3
        )

    def test_mass_near_mean_dominates(self):
        lam = 4060.0
        width = int(6 * math.sqrt(lam))
        ks = range(4060 - width, 4060 + width + 1)
        mass = math.fsum(math.exp(poisson_log_pmf(lam, k)) for k in ks)
        assert mass > 0.999

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf])
    def test_rejects_bad_mean(self, lam):
        with pytest.raises(ValueError):
            poisson_log_pmf(lam, 0)

    def test_rejects_negative_k(self):
        with pytest.raises(ValueError):
            poisson_log_pmf(1.0, -1)

    @pytest.mark.parametrize("lam", [0.1, 1.0, 10.0, 100.0])
    def test_normalization_with_certified_tail(self, lam):
        K = int(20 * lam + 50)
        total = math.fsum(math.exp(poisson_log_pmf(lam, k)) for k in range(K + 1))
        tail = _geometric_tail_bound(lam, K)
        assert 1.0 - tail <= total <= 1.0 + 1e-12

    @pytest.mark.parametrize("lam", [0.5, 3.0, 40.0])
    def test_tail_bound_dominates_true_tail(self, lam):
        # Each K puts P(Z > K) near 1e-6, far above the ~1e-16 rounding of
        # the on-support sums, so a missing or halved tail cannot pass.
        K = {0.5: 6, 3.0: 14, 40.0: 75}[lam]
        true_tail = math.fsum(
            math.exp(poisson_log_pmf(lam, k)) for k in range(K + 1, K + 400)
        )
        assert true_tail > 1e-7
        assert _geometric_tail_bound(lam, K) >= true_tail
        # Po(lam) conditioned on Z <= K is P(Z > K) from Po(lam) in total
        # variation; tv_to_poisson sums that tail down to a 1e-300 remainder.
        head = np.exp([poisson_log_pmf(lam, j) for j in range(K + 1)])
        tv = tv_to_poisson(head / head.sum(), lam, tol=1e-300)
        assert tv == pytest.approx(true_tail, rel=1e-6)


class TestEntropySeries:
    @pytest.mark.parametrize("lam,expected", sorted(H_SERIES_REFERENCE.items()))
    def test_against_high_precision_reference(self, lam, expected):
        value = poisson_entropy_series(lam, tol=1e-10)
        assert value.nats == pytest.approx(expected, abs=1e-12)
        assert value.certified_abs_error <= 1e-10
        assert value.method == "series"

    def test_certificate_shrinks_with_tol(self):
        loose = poisson_entropy_series(30.0, tol=1e-4)
        tight = poisson_entropy_series(30.0, tol=1e-12)
        assert tight.certified_abs_error <= loose.certified_abs_error
        assert loose.nats == pytest.approx(tight.nats, abs=1e-4)

    def test_rejects_bad_tol(self):
        with pytest.raises(ValueError):
            poisson_entropy_series(1.0, tol=0.0)

    def test_steers_large_mean_to_asymptotic(self):
        assert SERIES_LAMBDA_CEILING < 2e7
        with pytest.raises(ValueError, match="asymptotic"):
            poisson_entropy_series(2e7, tol=1e-4)

    def test_agrees_with_asymptotic_at_4060(self):
        series = poisson_entropy_series(4060.0, tol=1e-6)
        asym = poisson_entropy_asymptotic(4060.0)
        assert abs(series.nats - asym.nats) <= 1e-4
        assert series.nats == pytest.approx(5.573, abs=1e-3)


class TestEntropyAsymptotic:
    @pytest.mark.parametrize(
        "lam,expected",
        [(1e6, 8.327), (1e10, 12.932), (7.5288e7, 10.487)],
    )
    def test_reference_values(self, lam, expected):
        assert poisson_entropy_asymptotic(lam).nats == pytest.approx(
            expected, abs=1e-3
        )

    def test_frozen_regression_at_1e6(self):
        assert poisson_entropy_asymptotic(1e6).nats == pytest.approx(
            H_AT_1E6, abs=1e-12
        )

    def test_error_field_is_heuristic_scale(self):
        value = poisson_entropy_asymptotic(100.0)
        assert value.certified_abs_error == pytest.approx(1e-6, rel=1e-12)
        assert value.method == "asymptotic"

    def test_rejects_small_mean(self):
        with pytest.raises(ValueError):
            poisson_entropy_asymptotic(0.5)


class TestEntropyDispatch:
    def test_small_mean_uses_series(self):
        value = poisson_entropy(1.0)
        assert value.method == "series"
        assert value.nats == pytest.approx(1.30484, abs=1e-5)

    @pytest.mark.parametrize(
        "lam,expected", [(1225.0, 4.974), (142506.0, 7.353)]
    )
    def test_reference_values(self, lam, expected):
        assert poisson_entropy(lam).nats == pytest.approx(expected, abs=1e-3)

    @pytest.mark.parametrize("lam", [10.0, 31.6, 100.0, 316.0, 1000.0])
    def test_routes_agree_across_switch_range(self, lam):
        series = poisson_entropy_series(lam, tol=1e-10).nats
        asym = poisson_entropy_asymptotic(lam).nats
        assert abs(series - asym) <= 1e-4

    @pytest.mark.parametrize("lam", [50.0, 200.0, 1000.0])
    def test_expansion_error_tracks_cubic_scale(self, lam):
        series = poisson_entropy_series(lam, tol=1e-9).nats
        asym = poisson_entropy_asymptotic(lam).nats
        assert abs(series - asym) <= lam**-3 + 1e-6

    def test_cutoff_is_configurable(self):
        assert SERIES_ASYMPTOTIC_SWITCH == 1000.0
        assert poisson_entropy(1001.0).method == "asymptotic"
        assert poisson_entropy(999.0).method == "series"


class TestBinomialEntropy:
    def test_single_fair_coin(self):
        assert binomial_entropy(1, 0.5).nats == pytest.approx(math.log(2.0), rel=1e-12)

    def test_two_fair_coins(self):
        # Direct enumeration of (1/4, 1/2, 1/4).
        expected = -(0.25 * math.log(0.25) * 2 + 0.5 * math.log(0.5))
        assert binomial_entropy(2, 0.5).nats == pytest.approx(expected, rel=1e-12)

    def test_degenerate_probabilities(self):
        assert binomial_entropy(10, 0.0).nats == 0.0
        assert binomial_entropy(10, 1.0).nats == 0.0

    def test_converges_to_poisson_entropy(self):
        h_po = H_SERIES_REFERENCE[1.0]
        assert abs(binomial_entropy(10**4, 1e-4).nats - h_po) <= 2e-4

    @pytest.mark.parametrize("lam", [0.5, 1.0, 5.0, 20.0])
    def test_increasing_in_n_and_below_poisson(self, lam):
        # Poisson is the maximum-entropy Bernoulli-sum law of a given mean;
        # a light sweep here, the full n <= 2048 sweep runs in acceptance.
        h_po = poisson_entropy(lam).nats
        previous = -math.inf
        for n in range(max(1, int(math.ceil(lam))), 257):
            h = binomial_entropy(n, lam / n).nats
            assert h >= previous - 1e-12
            assert h <= h_po + 1e-9
            previous = h

    @pytest.mark.parametrize(
        "n,p", [(10, 0.3), (100, 0.01), (500, 0.5), (1000, 0.999), (2048, 20 / 2048)]
    )
    def test_against_high_precision_reference(self, n, p):
        with mpmath.workdps(40):
            q = mpmath.mpf(p)
            log_pmf = [
                mpmath.log(mpmath.binomial(n, k)) + k * mpmath.log(q) + (n - k) * mpmath.log1p(-q)
                for k in range(n + 1)
            ]
            expected = mpmath.fsum(-mpmath.exp(lp) * lp for lp in log_pmf)
            assert abs(binomial_entropy(n, p).nats - expected) <= 1e-13

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            binomial_entropy(0, 0.5)
        with pytest.raises(ValueError):
            binomial_entropy(3, 1.5)


class TestChenSteinResidual:
    def test_constant_function_telescopes(self):
        assert abs(chen_stein_residual(1.0, lambda k: 1.0, 40)) <= 1e-12

    def test_indicator_function(self):
        f = lambda k: 1.0 if k == 3 else 0.0
        assert abs(chen_stein_residual(2.0, f, 60)) <= 1e-10

    def test_capped_identity_function(self):
        assert abs(chen_stein_residual(5.0, lambda k: min(k, 7), 100)) <= 1e-8

    def test_requires_wide_cutoff(self):
        with pytest.raises(ValueError):
            chen_stein_residual(5.0, lambda k: 1.0, 40)

    def test_vanishes_for_random_bounded_functions(self):
        rng = np.random.default_rng(7)
        for trial in range(100):
            lam = float(rng.choice([0.5, 2.0, 5.0]))
            K = int(10 * lam) + 40
            table = rng.uniform(-1.0, 1.0, K + 2)
            residual = chen_stein_residual(lam, lambda k: table[k], K)
            assert abs(residual) <= 1e-8


def _grid_lambda(j):
    return 10.0 ** (j / 4)


def _error(value, j):
    with mpmath.workdps(40):
        return float(abs(mpmath.mpf(value.nats) - mpmath.mpf(MPMATH_REFERENCE[j])))


def _direct_entropy(lam, lo=0, hi=None):
    """-sum p_k ln p_k over lo..hi at 40 digits (hi defaults to past 1e-45)."""
    with mpmath.workdps(40):
        x = mpmath.mpf(lam)
        if hi is None:
            hi = int(lam + 30 * math.sqrt(lam) + 60)
        log_p = [k * mpmath.log(x) - x - mpmath.loggamma(k + 1) for k in range(lo, hi + 1)]
        return mpmath.fsum(-mpmath.exp(lp) * lp for lp in log_p)


class TestCertificateAgainstMpmath:
    @pytest.mark.parametrize("j", [-12, -4, 0, 4, 8])
    def test_table_matches_direct_sum(self, j):
        direct = _direct_entropy(_grid_lambda(j))
        with mpmath.workdps(40):
            assert abs(direct - mpmath.mpf(MPMATH_REFERENCE[j])) <= mpmath.mpf("1e-30")

    def test_series_certificate_holds_up_to_ceiling(self):
        for j in range(-12, 29):  # 1e-3 .. 1e7
            value = poisson_entropy_series(_grid_lambda(j))
            assert _error(value, j) <= value.certified_abs_error, j

    def test_dispatch_certificate_holds_up_to_1e12(self):
        for j in range(-12, 49):
            value = poisson_entropy(_grid_lambda(j))
            assert _error(value, j) <= value.certified_abs_error, j

    @pytest.mark.parametrize("tol", [1e-3, 1e-6, 1e-13])
    def test_series_certificate_holds_at_other_tolerances(self, tol):
        for j in range(-12, 29, 3):
            value = poisson_entropy_series(_grid_lambda(j), tol=tol)
            assert _error(value, j) <= value.certified_abs_error, (j, tol)
            assert value.certified_abs_error <= max(tol, 1e-8)

    def test_series_certificate_is_not_vacuous(self):
        # At the default tol the rounding budget stays small up to 1e5.
        for j in range(-12, 21):
            assert poisson_entropy_series(_grid_lambda(j)).certified_abs_error <= 2e-9

    @pytest.mark.parametrize("lam", [5e-324, 1e-320, 1e-300, 1e-200])
    def test_subnormal_and_tiny_means(self, deadline, lam):
        # H = lam (1 - ln lam) + O(lam^2 ln lam); lam / j underflows here.
        value = poisson_entropy(lam)
        expected = lam * (1.0 - math.log(lam))
        assert abs(value.nats - expected) <= max(1e-12 * expected, 1e-322)
        assert value.certified_abs_error <= 1e-14

    def test_large_mean_series_is_accurate(self):
        # The old gammaln series was off by 7e-3 nats here.
        value = poisson_entropy_series(1e6)
        assert abs(value.nats - H_AT_1E6) <= 1e-10
        assert value.certified_abs_error <= 1e-8


class TestWindowBounds:
    """The series' truncation and rounding bounds on deliberately narrow windows."""

    LAM = 50.0

    @pytest.mark.parametrize(
        "lo,hi", [(15, 150), (25, 150), (0, 85), (0, 100), (22, 88), (10, 200)]
    )
    def test_bounds_cover_the_truncated_window(self, lo, hi):
        nats, truncation, rounding = poisson._window_entropy(self.LAM, lo, hi)
        with mpmath.workdps(40):
            err = float(abs(mpmath.mpf(nats) - _direct_entropy(self.LAM)))
        assert err <= truncation + rounding
        # The tail bounds are tight to a small factor, not just finite.
        assert truncation <= 4.0 * err + 1e-10

    def test_log_pmf_ratios_against_mpmath(self):
        lam, lo, hi = 1234.5, 1000, 1500
        got = poisson._log_pmf_ratios(lam, lo, hi)
        with mpmath.workdps(40):
            x = mpmath.mpf(lam)
            log_pm = 1234 * mpmath.log(x) - mpmath.loggamma(1235)
            want = [k * mpmath.log(x) - mpmath.loggamma(k + 1) - log_pm for k in range(lo, hi + 1)]
        assert got[1234 - lo] == 0.0
        assert max(abs(float(g - w)) for g, w in zip(got, want)) <= 1e-12


class TestToleranceValidation:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, 0.0, -1e-9])
    def test_library_rejects_bad_tol(self, tol):
        with pytest.raises(ValueError, match="tol"):
            poisson_entropy_series(5.0, tol=tol)
        with pytest.raises(ValueError, match="tol"):
            poisson_entropy(5e6, tol=tol)


class TestEntropyValue:
    @pytest.mark.parametrize(
        "nats, error, field",
        [
            (math.nan, 0.0, "nats"),
            (1.0, math.nan, "certified_abs_error"),
            (math.nan, math.nan, "nats"),
            (1.0, -1e-300, "certified_abs_error"),
        ],
    )
    def test_refuses_nan_and_negative_error(self, nats, error, field):
        with pytest.raises(ValueError, match=field):
            EntropyValue(nats=nats, certified_abs_error=error)

    def test_infinite_error_is_vacuous_not_wrong(self):
        value = EntropyValue(nats=1.0, certified_abs_error=math.inf, method="series")
        assert value.certified_abs_error == math.inf
        assert EntropyValue(0.0, 0.0) == EntropyValue(0.0, 0.0, method="other")
