import copy
import dataclasses
import inspect
import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

from poientropy.bounds import (
    ConditionCheck,
    ConditionViolated,
    EntropyBoundReport,
    MomentSummary,
    NoApplicableBound,
    _log_b,
    best_independent_bound,
    entropy_bound_general,
    entropy_bound_independent,
    entropy_bound_independent_sharp,
    g_of_p,
)
from poientropy.chenstein import (
    ChenSteinCoefficients,
    TvBoundReport,
    coefficients_independent,
    tv_upper_agg,
)
from poientropy.exact import exact_distribution, pmf_entropy
from poientropy.logspace import LogScalar
from poientropy.models import arithmetic_moments, hypercube_coefficients
from poientropy.poisson import EntropyValue, poisson_entropy_series

BRACKET_CONST = (6.0 * math.log(2.0 * math.pi) + 1.0) / 12.0

# Independent mpmath recomputation (40 digits) of the first arithmetic-system
# case: lam = a n (n+1), theta = 2a(2n+1)/3 with a = 1e-10, n = 1e8.
EX1_COROLLARY_EPS = 0.5878672480574357
EX1_PROPOSITION_EPS = 0.2047351801396994
EX1_G = 0.008844365973021746
EX1_POINT = 8.224326143783586
EX1_REL = 0.012446927356744598


def _ex1_moments():
    lam = 1e-10 * (10**8 * (10**8 + 1))
    theta = 2e-10 * (2 * 10**8 + 1) / 3.0
    return MomentSummary(lam=lam, sum_p_squared=theta * lam, m=10**8)


def _coeffs(b1=0.0, b2=0.0, b3=0.0, lam=1.0, m=None, log2_m=None):
    return ChenSteinCoefficients(
        b1=LogScalar.from_float(b1),
        b2=LogScalar.from_float(b2),
        b3=LogScalar.from_float(b3),
        lam=LogScalar.from_float(lam),
        m=m,
        log2_m=log2_m,
    )


def _recorded_a(coeffs):
    """The a(lambda) that entropy_bound_general records, refused or not."""
    try:
        checks = entropy_bound_general(coeffs).conditions
    except ConditionViolated as exc:
        checks = exc.checks
    return next(c.actual for c in checks if c.name == "a(lambda)")


def _log_b_of(lam, m=None, log2_m=None):
    """ln b(lam) as the reports take it, from validated coefficients."""
    coeffs = _coeffs(lam=lam, m=m, log2_m=log2_m)
    return _log_b(coeffs.lam.logmag, coeffs.log_m_minus_1)


class TestAOfLambda:
    def test_equals_twice_unclamped_agg_exactly(self):
        for probs in ([0.01] * 10, [0.3, 0.2], [0.9, 0.9, 0.9]):
            coeffs = coefficients_independent(probs)
            assert _recorded_a(coeffs) == 2.0 * tv_upper_agg(coeffs)

    def test_independent_reference(self):
        coeffs = coefficients_independent([0.01] * 10)
        expected = 2.0 * (-math.expm1(-0.1) / 0.1) * 1e-3
        assert 2.0 * tv_upper_agg(coeffs) == pytest.approx(expected, rel=1e-12)

    def test_orientation_model_value(self):
        b1 = Fraction(31 * 4060**2, 2**30)
        b2 = Fraction(30 * 406 * 3654, 2**28)
        coeffs = _coeffs(b1=float(b1), b2=float(b2), lam=4060.0, log2_m=30.0)
        assert 2.0 * tv_upper_agg(coeffs) == pytest.approx(
            float(2 * (b1 + b2) / 4060), rel=1e-12
        )
        assert 2.0 * tv_upper_agg(coeffs) == pytest.approx(3.161e-4, rel=1e-3)

    def test_zero_coefficients(self):
        assert 2.0 * tv_upper_agg(_coeffs(lam=2.0, m=5)) == 0.0

    def test_saturates_past_float_overflow(self):
        # (b1 + b2)(1 - e^-lam)/lam is about 2e308 at lam = 1e-300.
        coeffs = _coeffs(b1=1e308, b2=1e308, lam=1e-300, log2_m=10.0)
        assert tv_upper_agg(coeffs) == math.inf
        with pytest.raises(ConditionViolated, match="a\\(lambda\\)"):
            entropy_bound_general(coeffs)
        assert _recorded_a(coeffs) == math.inf


class TestBOfLambda:
    def test_boundary_case_lam_1_m_2(self):
        # Exponent is -(1 + ln(1/e)) = 0, so b is the bare bracket
        # 1 + 1 + (6 ln(2 pi) + 1)/12.
        expected = 2.0 + BRACKET_CONST
        assert math.exp(_log_b_of(1.0, m=2)) == pytest.approx(expected, rel=1e-12)

    def test_log_value_retained_under_underflow(self):
        log_b = _log_b_of(1e6, m=10**8)
        assert math.exp(log_b) == 0.0
        m1 = 10**8 - 1
        expected_log = (
            math.log(1e12 + BRACKET_CONST)
            - (1e6 + m1 * (math.log(m1) - math.log(1e6) - 1.0))
        )
        assert log_b == pytest.approx(expected_log, rel=1e-12)

    def test_log2_m_form(self):
        log_b = _log_b_of(4060.0, log2_m=30.0)
        m1 = 2.0**30 - 1.0
        expected_log = math.log(4060.0**2 + BRACKET_CONST) - (
            4060.0 + m1 * (math.log(m1) - math.log(4060.0) - 1.0)
        )
        assert math.exp(log_b) == 0.0
        assert log_b == pytest.approx(expected_log, rel=1e-12)

    def test_positive_exponent_returns_large_value(self):
        # m - 1 < lam e flips the exponent sign; the value is huge but real.
        expected = (100.0 + BRACKET_CONST) * math.exp(
            -(10.0 + 2.0 * (math.log(2.0) - math.log(10.0) - 1.0))
        )
        assert math.exp(_log_b_of(10.0, m=3)) == pytest.approx(expected, rel=1e-12)

    def test_small_mean_includes_positive_part_term(self):
        bracket = 0.5 * (1.0 - math.log(0.5)) + 0.25 + BRACKET_CONST
        expected = bracket * math.exp(
            -(0.5 + 3.0 * (math.log(3.0) - math.log(0.5) - 1.0))
        )
        assert math.exp(_log_b_of(0.5, m=4)) == pytest.approx(expected, rel=1e-12)

    def test_huge_log2_m_underflows_to_zero_gracefully(self):
        assert _log_b_of(LogScalar.from_log(800.0), log2_m=2000.0) == -math.inf

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            _log_b_of(1.0)
        with pytest.raises(ValueError):
            _log_b_of(1.0, m=4, log2_m=2.0)
        with pytest.raises(ValueError):
            _log_b_of(1.0, m=1)
        with pytest.raises(ValueError):
            _log_b_of(0.0, m=4)


class TestGeneralBound:
    @pytest.mark.parametrize(
        "n,k,expected_rel",
        [(30, 27, 0.16e-2), (50, 48, 1.5e-9), (100, 95, 1.6e-19)],
    )
    def test_orientation_rows_match_reference(self, n, k, expected_rel):
        from poientropy.models import hypercube_coefficients

        report = entropy_bound_general(hypercube_coefficients(n, k))
        assert report.relative_error == pytest.approx(expected_rel, rel=0.05)

    def test_report_structure(self):
        coeffs = coefficients_independent([0.01] * 50)
        report = entropy_bound_general(coeffs)
        assert report.theorem_id == "theorem4"
        assert report.convention == "two-sided-centered"
        lo, hi = report.interval
        assert hi - lo == pytest.approx(2.0 * report.epsilon, rel=1e-12)
        assert lo <= report.point_estimate <= hi
        assert report.point_estimate == report.h_poisson.nats
        assert report.epsilon == pytest.approx(report.a_term + report.b_term, rel=1e-12)
        assert report.relative_error == pytest.approx(
            report.epsilon / report.h_poisson.nats, rel=1e-12
        )
        assert len(report.conditions) == 2
        assert all(c.satisfied for c in report.conditions)

    def test_a_condition_violation(self):
        with pytest.raises(ConditionViolated, match="a\\(lambda\\)"):
            entropy_bound_general(_coeffs(b1=1.0, lam=1.0, m=100))

    def test_lambda_condition_violation(self):
        with pytest.raises(ConditionViolated, match="lambda"):
            entropy_bound_general(_coeffs(b1=1e-4, lam=5.0, m=3))

    def test_single_index_set_is_refused_by_its_hypothesis(self):
        # lam <= m - 1 = 0 cannot hold, so m = 1 is a refusal, not an error.
        coeffs = coefficients_independent(MomentSummary(lam=0.5, sum_p_squared=0.1, m=1))
        with pytest.raises(ConditionViolated) as info:
            entropy_bound_general(coeffs)
        lam_check = next(c for c in info.value.checks if c.name == "lambda")
        assert (lam_check.required, lam_check.actual, lam_check.satisfied) == (0.0, 0.5, False)

    def test_lambda_check_refuses_a_tie_in_the_logs(self):
        # ln(1e15 + 0.1) and ln(1e15) are the same double, but lam > m - 1.
        coeffs = coefficients_independent(
            MomentSummary(lam=1e15 + 0.1, sum_p_squared=1.0, m=10**15 + 1)
        )
        with pytest.raises(ConditionViolated, match="lambda <= 1e[+]15 not certified within"):
            entropy_bound_general(coeffs)
        below = MomentSummary(lam=1e15 - 1000.0, sum_p_squared=1.0, m=10**15 + 1)
        assert entropy_bound_general(coefficients_independent(below)).theorem_id == "theorem4"

    def test_condition_error_carries_actual_values(self):
        try:
            entropy_bound_general(_coeffs(b1=1.0, lam=1.0, m=100))
        except ConditionViolated as exc:
            failed = [c for c in exc.checks if not c.satisfied]
            assert failed[0].name == "a(lambda)"
            assert failed[0].actual == pytest.approx(
                2.0 * -math.expm1(-1.0), rel=1e-12
            )
        else:
            pytest.fail("expected ConditionViolated")

    def test_monotone_in_each_coefficient(self):
        # a ln((m+2)/a) increases in a below 1/2, so epsilon grows with each b.
        base = dict(b1=1e-3, b2=5e-4, b3=1e-4, lam=100.0, m=10**6)
        eps0 = entropy_bound_general(_coeffs(**base)).epsilon
        for name in ("b1", "b2", "b3"):
            grown = dict(base)
            grown[name] *= 4.0
            assert entropy_bound_general(_coeffs(**grown)).epsilon > eps0

    def test_extreme_range_mean_beyond_float(self):
        # lam = e^800 with m = 2^2000: everything must stay finite in logs.
        coeffs = ChenSteinCoefficients(
            b1=LogScalar.from_log(-2000.0),
            b2=LogScalar.zero(),
            b3=LogScalar.zero(),
            lam=LogScalar.from_log(800.0),
            log2_m=2000.0,
        )
        report = entropy_bound_general(coeffs)
        expected_h = 0.5 * (math.log(2.0 * math.pi) + 1.0 + 800.0)
        assert report.h_poisson.nats == pytest.approx(expected_h, rel=1e-12)
        assert report.epsilon == 0.0
        assert report.epsilon_log == pytest.approx(
            math.log(2.0) - 2800.0 + math.log(2000.0 * math.log(2.0) + 2800.0),
            rel=1e-6,
        )


class TestIndependentBound:
    def test_reference_case(self):
        report = entropy_bound_independent(_ex1_moments())
        assert report.theorem_id == "corollary1"
        assert report.epsilon == pytest.approx(EX1_COROLLARY_EPS, rel=1e-12)
        assert report.epsilon == pytest.approx(0.588, abs=2e-3)
        assert report.convention == "one-sided-midpoint"
        lo, hi = report.interval
        assert hi == report.h_poisson.nats
        assert hi - lo == pytest.approx(report.epsilon, rel=1e-12)

    def test_zero_second_moment_leaves_only_truncation_term(self):
        moments = MomentSummary(lam=1.0, sum_p_squared=0.0, m=10)
        report = entropy_bound_independent(moments)
        assert report.a_term == 0.0
        assert report.epsilon == pytest.approx(math.exp(_log_b_of(1.0, m=10)), rel=1e-12)

    @pytest.mark.parametrize("sum_p2", [math.nan, math.inf, -1e-300])
    def test_moment_summary_rejects_bad_sum_p_squared(self, sum_p2):
        with pytest.raises(ValueError, match="sum_p_squared"):
            MomentSummary(lam=1.0, sum_p_squared=sum_p2, m=10)

    def test_condition_violation(self):
        moments = MomentSummary(lam=2.0, sum_p_squared=1.8, m=3)
        with pytest.raises(ConditionViolated, match="tv_factor_sum_p2"):
            entropy_bound_independent(moments)

    def test_index_set_beyond_the_float_range(self):
        # m - 1 overflows a float: the lambda check still holds, with its
        # limit reported as inf, as theorem 4 reports it for the same system.
        moments = MomentSummary(lam=1.0, sum_p_squared=0.1, m=10**400)
        general = entropy_bound_general(coefficients_independent(moments))
        assert general.epsilon == pytest.approx(116.70236941506232, rel=1e-12)
        for report in (entropy_bound_independent(moments), best_independent_bound(moments)):
            check = next(c for c in report.conditions if c.name == "lambda")
            assert (check.required, check.actual, check.satisfied) == (math.inf, 1.0, True)
            assert 0.0 < report.epsilon <= general.epsilon

    def test_lambda_check_is_exact_above_two_to_the_53(self):
        # m - 1 = 2^53 + 3 rounds to the float 2^53 + 4, which is lam: only
        # an exact comparison sees that lam exceeds m - 1.
        moments = MomentSummary(lam=float(2**53 + 4), sum_p_squared=1.0, m=2**53 + 4)
        with pytest.raises(NoApplicableBound) as excinfo:
            best_independent_bound(moments)
        failed = [c.name for c in excinfo.value.checks if not c.satisfied]
        assert failed == ["lambda"]

    def test_contains_exact_gap_for_small_system(self):
        rng = np.random.default_rng(17)
        probs = rng.uniform(0.0, 0.05, 50)
        moments = MomentSummary.from_probs(probs)
        report = entropy_bound_independent(moments)
        h_z = poisson_entropy_series(moments.lam, tol=1e-10).nats
        h_w = pmf_entropy(exact_distribution(probs)).nats
        assert 0.0 <= h_z - h_w <= report.epsilon + 1e-9


class TestGOfP:
    def test_reference_case(self):
        assert g_of_p(_ex1_moments()) == pytest.approx(EX1_G, rel=1e-12)

    def test_small_mean_uses_tv_branch(self):
        moments = MomentSummary(lam=0.1, sum_p_squared=0.005, m=10)
        expected = 2.0 * 0.05 * -math.expm1(-0.1)
        assert g_of_p(moments) == pytest.approx(expected, rel=1e-12)

    def test_improvement_factor_limit(self):
        # theta -> 0, lam -> inf: g / (2 theta (1 - e^-lam)) -> 3/(4e).
        moments = MomentSummary(lam=1e6, sum_p_squared=1e6 * 1e-8, m=10**9)
        ratio = g_of_p(moments) / (2.0 * moments.theta)
        assert ratio == pytest.approx(3.0 / (4.0 * math.e), rel=1e-3)

    def test_domain_error_at_theta_one(self):
        moments = MomentSummary(lam=1.0, sum_p_squared=1.0, m=2)
        with pytest.raises(ValueError, match="theta"):
            g_of_p(moments)


class TestIndependentSharpBound:
    def test_reference_case(self):
        report = entropy_bound_independent_sharp(_ex1_moments())
        assert report.theorem_id == "proposition1"
        assert report.epsilon == pytest.approx(EX1_PROPOSITION_EPS, rel=1e-12)
        assert report.point_estimate == pytest.approx(EX1_POINT, rel=1e-12)
        assert report.relative_error == pytest.approx(EX1_REL, rel=1e-12)
        assert report.epsilon == pytest.approx(0.205, abs=2e-3)
        assert report.point_estimate == pytest.approx(8.224, abs=2e-3)

    def test_zero_second_moment_leaves_only_truncation_term(self):
        moments = MomentSummary(lam=1.0, sum_p_squared=0.0, m=10)
        report = entropy_bound_independent_sharp(moments)
        assert report.epsilon == pytest.approx(math.exp(_log_b_of(1.0, m=10)), rel=1e-12)

    def test_g_condition_violation(self):
        # theta = 0.9 at moderate mean saturates the min at 1 - e^-lam, and
        # g = 2 * 0.9 * (1 - e^-10) > 1/2.
        moments = MomentSummary(lam=10.0, sum_p_squared=9.0, m=100)
        with pytest.raises(ConditionViolated, match="g"):
            entropy_bound_independent_sharp(moments)

    def test_no_improvement_when_min_saturates(self):
        # Wherever min(...) picks 1 - e^-lam, g equals the plain coefficient
        # 2c and the two raw main terms coincide; the sharp rule never loses.
        for lam, theta, m in ((10.0, 0.5, 10**6), (0.2, 0.9, 100)):
            moments = MomentSummary(lam=lam, sum_p_squared=theta * lam, m=m)
            g = g_of_p(moments)
            two_c = 2.0 * theta * -math.expm1(-lam)
            log_m2 = math.log(m + 2)
            prop_term = g * math.log((m + 2) / g)
            cor_term = two_c * (log_m2 - math.log(two_c))
            assert prop_term >= cor_term - 1e-12 * max(1.0, cor_term)


class TestBestIndependentBound:
    def test_sharp_rule_wins_reference_case(self):
        report = best_independent_bound(_ex1_moments())
        assert report.theorem_id == "proposition1"
        assert report.epsilon == pytest.approx(EX1_PROPOSITION_EPS, rel=1e-12)

    def test_tie_goes_to_plain_rule_at_high_theta(self):
        moments = MomentSummary(lam=0.2, sum_p_squared=0.18, m=10)
        report = best_independent_bound(moments)
        assert report.theorem_id == "corollary1"

    def test_no_applicable_bound_lists_all_failures(self):
        moments = MomentSummary.from_probs([0.9, 0.9])
        with pytest.raises(NoApplicableBound) as excinfo:
            best_independent_bound(moments)
        failed = {c.name for c in excinfo.value.checks if not c.satisfied}
        assert "tv_factor_sum_p2" in failed
        assert "lambda" in failed
        assert "g" in failed

    def test_crossover_regression(self):
        # At lam = 1e6, m = 1e8 the sharpened rule strictly improves for
        # small theta; for theta = 0.9 its coefficient saturates to the plain
        # one (equal raw bounds) and both rules' hypotheses fail anyway.
        sharp = entropy_bound_independent_sharp(_ex1_moments())
        plain = entropy_bound_independent(_ex1_moments())
        assert sharp.epsilon < plain.epsilon

        moments_high = MomentSummary(lam=1e6, sum_p_squared=0.9e6, m=10**8)
        with pytest.raises(ConditionViolated):
            entropy_bound_independent(moments_high)
        with pytest.raises(ConditionViolated):
            entropy_bound_independent_sharp(moments_high)
        g = g_of_p(moments_high)
        assert g == pytest.approx(2.0 * 0.9 * -math.expm1(-1e6), rel=1e-12)


class TestEnclosure:
    def test_overflowed_epsilon_keeps_each_convention(self):
        # m - 1 = lam (1 + 1e-10) at lam = 1e200: b's exponent
        # lam + (m-1)(ln((m-1)/lam) - 1) rounds to 0, so b(lam) ~ lam**2
        # overflows and every rule's eps is inf.
        moments = MomentSummary(lam=1e200, sum_p_squared=1e-10, m=10**200 + 10**190)
        two = entropy_bound_general(coefficients_independent(moments))
        one = entropy_bound_independent(moments)
        h = two.h_poisson.nats
        assert two.epsilon == one.epsilon == math.inf
        assert two.interval == (-math.inf, math.inf) and two.point_estimate == h
        assert two.relative_error == math.inf and two.notes == ""
        assert one.interval == (-math.inf, h) and one.point_estimate == -math.inf
        assert one.relative_error == math.inf and "vacuous" in one.notes


class TestCertificateSoundness:
    def test_sign_and_containment_on_random_systems(self):
        rng = np.random.default_rng(23)
        for _ in range(60):
            n = int(rng.integers(20, 200))
            probs = rng.uniform(0.0, 0.1, n)
            moments = MomentSummary.from_probs(probs)
            h_z = poisson_entropy_series(moments.lam, tol=1e-10).nats
            h_w = pmf_entropy(exact_distribution(probs)).nats
            gap = h_z - h_w
            assert gap >= -1e-9  # Poisson maximises entropy at fixed mean
            best = best_independent_bound(moments)
            assert gap <= best.epsilon + 1e-9
            general = entropy_bound_general(coefficients_independent(probs))
            assert abs(gap) <= general.epsilon + 1e-9


class TestRefusalContract:
    """A refusal keeps its checks as ``args``, so it survives the pickle and
    copy round trips a process pool puts it through, with the same text."""

    @staticmethod
    def _refusals():
        with pytest.raises(ConditionViolated) as theorem4:
            entropy_bound_general(hypercube_coefficients(60, 30))
        with pytest.raises(NoApplicableBound) as independent:
            best_independent_bound(MomentSummary.from_probs([0.9, 0.9]))
        return theorem4.value, independent.value

    def test_text(self):
        theorem4, independent = self._refusals()
        assert str(theorem4) == "condition violated: a(lambda) <= 0.5 violated (actual 24.8239)"
        assert str(independent) == (
            "no applicable bound: tv_factor_sum_p2 <= 0.25 violated (actual 0.751231); "
            "lambda <= 1 violated (actual 1.8); g <= 0.5 violated (actual 1.50246)"
        )
        assert theorem4.args == (theorem4.checks,)

    def test_refusal_evaluates_no_entropy(self, monkeypatch):
        # A refusal raises before ln(m + 2), b(lambda) or H(Z) is evaluated,
        # with the same text and checks as when it evaluated ln(m + 2) first.
        from poientropy import bounds

        calls = []

        def counted(name, original):
            return lambda *args: calls.append(name) or original(*args)

        for name in ("_entropy", "_log_b"):
            monkeypatch.setattr(bounds, name, counted(name, getattr(bounds, name)))
        plus_2 = ChenSteinCoefficients.log_m_plus_2.fget
        monkeypatch.setattr(
            ChenSteinCoefficients, "log_m_plus_2", property(counted("log_m_plus_2", plus_2))
        )
        with pytest.raises(ConditionViolated) as theorem4:
            entropy_bound_general(hypercube_coefficients(30, 20))
        with pytest.raises(NoApplicableBound) as independent:
            best_independent_bound(arithmetic_moments(0.9 / 2000, 1000))
        assert calls == []
        assert str(theorem4.value) == (
            "condition violated: a(lambda) <= 0.5 violated (actual 3.22721)"
        )
        assert str(independent.value) == (
            "no applicable bound: tv_factor_sum_p2 <= 0.25 violated (actual 0.6003); "
            "g <= 0.5 violated (actual 1.2006)"
        )

        def fields(exc):
            return [(c.name, c.required.hex(), c.actual.hex(), c.satisfied) for c in exc.checks]

        assert fields(theorem4.value) == [
            ("a(lambda)", "0x1.0000000000000p-1", "0x1.9d15426400016p+1", False),
            ("lambda", "0x1.fffffff7ffff8p+29", "0x1.ca7356ffffff4p+24", True),
        ]
        assert fields(independent.value) == [
            ("tv_factor_sum_p2", "0x1.0000000000000p-2", "0x1.335a858793dd6p-1", False),
            ("lambda", "0x1.f380000000000p+9", "0x1.c273333333333p+8", True),
            ("g", "0x1.0000000000000p-1", "0x1.335a858793dd9p+0", False),
        ]
        # The counters see the work of a certificate that is issued.
        entropy_bound_general(hypercube_coefficients(40, 5))
        assert sorted(calls) == ["_entropy", "_log_b", "log_m_plus_2"]

    @pytest.mark.parametrize(
        "round_trip", [lambda e: pickle.loads(pickle.dumps(e)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, round_trip):
        for exc in self._refusals():
            again = round_trip(exc)
            assert type(again) is type(exc)
            assert again.checks == exc.checks
            assert str(again) == str(exc)


_H = EntropyValue(nats=1.5, certified_abs_error=1e-12, method="series")
_CHECK = ConditionCheck(name="lambda", required=9.0, actual=2.0, satisfied=True)
# One value per field, in field order, for each record type.
_RECORDS = {
    EntropyValue: (1.5, 1e-12, "series"),
    ConditionCheck: ("lambda", 9.0, 2.0, True),
    EntropyBoundReport: (
        "theorem4", "two-sided-centered", 2.0, _H, 0.1, 0.0, 0.1, (1.4, 1.6), 1.5,
        0.1 / 1.5, (_CHECK,), math.log(0.1), -math.inf, math.log(0.1),
        math.log(0.1) - math.log(1.5), "",
    ),
    TvBoundReport: (0.1, 0.05, 0.001, None, ""),
    ChenSteinCoefficients: (
        LogScalar.from_float(0.1), LogScalar.zero(), LogScalar.zero(),
        LogScalar.from_float(2.0), 10, None,
    ),
    MomentSummary: (2.0, 0.1, 10),
}


class TestRecordContract:
    """What every record type promises, however its __init__ is built: it is
    frozen and slotted, its signature lists its fields with their defaults,
    and positional and keyword construction agree."""

    @staticmethod
    def _built(cls):
        values = _RECORDS[cls]
        names = [f.name for f in dataclasses.fields(cls)]
        return cls(*values), cls(**dict(zip(names, values))), names

    @pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
    def test_frozen_and_slotted(self, cls):
        record, _, names = self._built(cls)
        assert not hasattr(record, "__dict__")
        for name in names:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(record, name, None)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(record, name)

    @pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
    def test_signature_lists_the_fields(self, cls):
        listed = [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]
        declared = [
            (f.name, inspect.Parameter.empty if f.default is dataclasses.MISSING else f.default)
            for f in dataclasses.fields(cls)
        ]
        assert listed == declared

    @pytest.mark.parametrize("cls", list(_RECORDS), ids=lambda c: c.__name__)
    def test_positional_and_keyword_construction_agree(self, cls):
        positional, keyword, names = self._built(cls)
        assert positional == keyword and hash(positional) == hash(keyword)
        assert [getattr(keyword, name) for name in names] == list(_RECORDS[cls])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: EntropyValue(math.nan, 0.0),
            lambda: ChenSteinCoefficients(-0.1, 0.0, 0.0, 1.0, m=10),
            lambda: MomentSummary(lam=1.0, sum_p_squared=2.0, m=10),
        ],
        ids=["nan-entropy", "negative-coefficient", "theta-above-1"],
    )
    def test_post_init_still_refuses(self, build):
        with pytest.raises(ValueError):
            build()
