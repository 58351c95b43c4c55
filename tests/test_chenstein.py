import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from poientropy.chenstein import (
    ChenSteinCoefficients,
    DependencySpec,
    MomentSummary,
    coefficients_from_spec,
    coefficients_independent,
    dependency_spec_from_dict,
    tv_bound_report,
    tv_lower_barbour_hall,
    tv_upper_agg,
    tv_upper_barbour_hall,
    tv_upper_lecam,
)
from poientropy.logspace import LogScalar
from poientropy.poisson import InputError, poisson_entropy

# Exact rationals for the n=30, k=27 orientation model:
#   b1 = 31 * 4060^2 / 2^30,  b2 = 30 * C(29,27) * C(29,26) / 2^28.
B1_30_27 = Fraction(31 * 4060**2, 2**30)
B2_30_27 = Fraction(30 * 406 * 3654, 2**28)


def _chain_spec():
    # Three indicators in a path; neighbourhoods are the graph neighbours.
    return DependencySpec(
        m=3,
        marginals=[0.1, 0.2, 0.3],
        neighborhoods={0: [0, 1], 1: [0, 1, 2], 2: [1, 2]},
        pair_expectations={(0, 1): 0.05, (1, 2): 0.1},
        b3_terms=[0.01, 0.0, 0.02],
    )


def _pair_moment(spec, a, b):
    """p_ab read from the CSR arrays; b must lie in B_a \\ {a}."""
    lo, hi = spec.indptr[a], spec.indptr[a + 1]
    row = spec.indices[lo:hi].tolist()
    assert b != a and b in row
    return float(spec.pair_moments[lo + row.index(b)])


class TestDependencySpec:
    def test_requires_self_in_neighbourhood(self):
        with pytest.raises(ValueError, match="contain"):
            DependencySpec(2, [0.5, 0.5], {0: [1], 1: [1]}, {(0, 1): 0.2}, "zero")

    def test_requires_positive_marginals(self):
        with pytest.raises(ValueError):
            DependencySpec(1, [0.0], {0: [0]}, {}, "zero")

    def test_pair_expectation_bounded_by_marginals(self):
        with pytest.raises(ValueError):
            DependencySpec(
                2, [0.1, 0.2], {0: [0, 1], 1: [0, 1]}, {(0, 1): 0.15}, "zero"
            )

    def test_missing_pair_expectation_for_neighbour(self):
        with pytest.raises(ValueError, match="missing pair_expectation"):
            DependencySpec(2, [0.1, 0.2], {0: [0, 1], 1: [0, 1]}, {}, "zero")

    def test_b3_must_be_explicit_or_zero(self):
        with pytest.raises(ValueError, match="zero"):
            DependencySpec(1, [0.1], {0: [0]}, {}, "later")
        with pytest.raises(ValueError):
            DependencySpec(1, [0.1], {0: [0]}, {}, [-0.5])

    def test_symmetric_completion_of_pairs(self):
        spec = _chain_spec()
        assert _pair_moment(spec, 1, 0) == _pair_moment(spec, 0, 1) == 0.05
        assert _pair_moment(spec, 2, 1) == _pair_moment(spec, 1, 2) == 0.1

    def test_from_dict_with_string_keys(self):
        spec = dependency_spec_from_dict(
            {
                "m": 2,
                "marginals": {"0": 0.1, "1": 0.1},
                "neighborhoods": {"0": [0, 1], "1": [0, 1]},
                "pair_expectations": [[0, 1, 0.1]],
                "b3": "zero",
            }
        )
        coeffs = coefficients_from_spec(spec)
        assert coeffs.b2.to_float() == pytest.approx(0.2, rel=1e-12)

    def test_python_index_maps_read_as_documents_do(self):
        listed = DependencySpec(2, [0.1, 0.2], [[0, 1], [0, 1]], [[0, 1, 0.05]], "zero")
        mapped = DependencySpec(
            2, {1: 0.2, "0": 0.1}, {"1": [0, 1], 0: [0, 1]}, [[0, 1, 0.05]], "zero"
        )
        for field in ("marginals", "indptr", "indices", "pair_moments"):
            assert getattr(mapped, field).tobytes() == getattr(listed, field).tobytes()
        with pytest.raises(ValueError, match="^marginals is missing index 1$"):
            DependencySpec(2, {0: 0.1}, [[0], [1]], [], "zero")
        with pytest.raises(ValueError, match="^marginals must be a list or an index map$"):
            DependencySpec(1, 0.5, [[0]], [], "zero")
        # Only the two indices of a triple are tested for bools, not its value.
        with pytest.raises(ValueError, match=r"^p_\(0,1\)=1.0 must lie in"):
            DependencySpec(2, [0.1, 0.2], [[0, 1], [0, 1]], [[0, 1, True]], "zero")

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="missing field"):
            dependency_spec_from_dict({"m": 1})


class TestCoefficients:
    def test_independent_pair_reduction(self):
        spec = DependencySpec(
            2, [0.1, 0.2], {0: [0], 1: [1]}, {}, "zero"
        )
        coeffs = coefficients_from_spec(spec)
        assert coeffs.b1.to_float() == pytest.approx(0.05, rel=1e-12)
        assert coeffs.b2.sign == 0
        assert coeffs.b3.sign == 0
        assert coeffs.lam.to_float() == pytest.approx(0.3, rel=1e-12)

    def test_fully_dependent_pair(self):
        # X_1 = X_2 ~ Bern(0.1): p_12 = p_21 = 0.1.
        spec = DependencySpec(
            2, [0.1, 0.1], {0: [0, 1], 1: [0, 1]}, {(0, 1): 0.1}, "zero"
        )
        coeffs = coefficients_from_spec(spec)
        assert coeffs.b1.to_float() == pytest.approx(0.04, rel=1e-12)
        assert coeffs.b2.to_float() == pytest.approx(0.2, rel=1e-12)
        assert coeffs.b3.sign == 0

    def test_chain_against_brute_force_double_sums(self):
        spec = _chain_spec()
        coeffs = coefficients_from_spec(spec)
        p = spec.marginals
        b1 = sum(p[a] * p[b] for a in range(3) for b in spec.neighborhoods[a])
        b2 = sum(
            _pair_moment(spec, a, b)
            for a in range(3)
            for b in spec.neighborhoods[a]
            if b != a
        )
        assert coeffs.b1.to_float() == pytest.approx(b1, rel=1e-12)
        assert coeffs.b2.to_float() == pytest.approx(b2, rel=1e-12)
        assert coeffs.b3.to_float() == pytest.approx(0.03, rel=1e-12)
        assert coeffs.lam.to_float() == pytest.approx(0.6, rel=1e-12)
        assert coeffs.m == 3

    def test_independent_constructor(self):
        coeffs = coefficients_independent([0.01] * 10)
        assert coeffs.b1.to_float() == pytest.approx(1e-3, rel=1e-12)
        assert coeffs.lam.to_float() == pytest.approx(0.1, rel=1e-12)
        assert coeffs.m == 10
        single = coefficients_independent([1.0])
        assert single.b1.to_float() == pytest.approx(1.0)
        assert single.lam.to_float() == pytest.approx(1.0)
        with pytest.raises(ValueError):
            coefficients_independent([])

    def test_coefficients_validation(self):
        with pytest.raises(ValueError, match="exactly one"):
            ChenSteinCoefficients(
                b1=LogScalar.zero(), b2=LogScalar.zero(), b3=LogScalar.zero(),
                lam=LogScalar.from_log(0.0), m=4, log2_m=2.0,
            )
        with pytest.raises(ValueError, match="non-negative"):
            ChenSteinCoefficients(
                b1=LogScalar.from_float(-1.0), b2=LogScalar.zero(),
                b3=LogScalar.zero(), lam=LogScalar.from_log(0.0), m=4,
            )


def _refused_field(build, **fields) -> str:
    with pytest.raises(ValueError) as info:
        build(**fields)
    return info.value.field


class TestInputRefusals:
    """Each range rule is the value type's; a refusal names its field."""

    _VALID = {"b1": 0.1, "b2": 0.0, "b3": 0.0, "lam": 2.0}

    @pytest.mark.parametrize("field", ["b1", "b2", "b3", "lam"])
    @pytest.mark.parametrize(
        "value", [math.nan, math.inf, -math.inf, LogScalar.from_log(math.inf)]
    )
    def test_coefficient_must_be_finite(self, field, value):
        fields = {**self._VALID, field: value, "m": 10}
        assert _refused_field(ChenSteinCoefficients, **fields) == field

    @pytest.mark.parametrize("log2_m", [0.0, 0.5, math.nan, math.inf])
    def test_log2_m_must_be_finite_and_at_least_one(self, log2_m):
        assert _refused_field(ChenSteinCoefficients, **self._VALID, log2_m=log2_m) == "log2_m"

    @pytest.mark.parametrize(
        "m", [2.5, True, math.inf, 0, "3", np.True_, Fraction(5, 2)]
    )
    def test_m_must_be_an_integer_index_set_size(self, m):
        assert _refused_field(ChenSteinCoefficients, **self._VALID, m=m) == "m"
        assert _refused_field(MomentSummary, lam=1.0, sum_p_squared=0.1, m=m) == "m"

    def test_integral_float_m_is_stored_as_int(self):
        assert ChenSteinCoefficients(**self._VALID, m=1e8).m == 10**8
        moments = MomentSummary(lam=1.0, sum_p_squared=0.1, m=1e15)
        assert moments.m == 10**15 and isinstance(moments.m, int)

    @pytest.mark.parametrize(
        "fields, field",
        [
            ({"lam": math.nan, "sum_p_squared": 0.0}, "lam"),
            ({"lam": math.inf, "sum_p_squared": 0.0}, "lam"),
            ({"lam": 1.0, "sum_p_squared": math.nan}, "sum_p_squared"),
            ({"lam": 1.0, "sum_p_squared": 2.0}, "theta"),
        ],
    )
    def test_moment_summary_names_the_field(self, fields, field):
        assert _refused_field(MomentSummary, **fields, m=10) == field

    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: ChenSteinCoefficients(b1="x", b2=0.0, b3=0.0, lam=1.0, m=10), "b1"),
            (lambda: ChenSteinCoefficients(b1=None, b2=0.0, b3=0.0, lam=1.0, m=10), "b1"),
            (lambda: ChenSteinCoefficients(b1=[1.0], b2=0.0, b3=0.0, lam=1.0, m=10), "b1"),
            (lambda: ChenSteinCoefficients(b1=0.1, b2=0.0, b3=0.0, lam="2", m=10), "lam"),
            (lambda: MomentSummary(lam=None, sum_p_squared=0.1, m=10), "lam"),
            (lambda: MomentSummary(lam="x", sum_p_squared=0.1, m=10), "lam"),
            (lambda: MomentSummary(lam=1.0, sum_p_squared="0.1", m=10), "sum_p_squared"),
            (lambda: poisson_entropy("x"), "lam"),
            (lambda: poisson_entropy(1.0, tol=[1e-9]), "tol"),
            (lambda: tv_bound_report(lam=1.0, sum_p_squared="x"), "sum_p_squared"),
            (lambda: ChenSteinCoefficients(b1=-(10**400), b2=0.0, b3=0.0, lam=1.0, m=10), "b1"),
            (lambda: MomentSummary(lam=10**400, sum_p_squared=0.1, m=10), "lam"),
            (lambda: poisson_entropy(1.0, tol=10**400), "tol"),
        ],
        ids=[
            "coefficient-str", "coefficient-none", "coefficient-list", "coefficient-numeral",
            "moments-lam-none", "moments-lam-str", "moments-numeral", "entropy-lam-str",
            "entropy-tol-list", "tv-report-str", "coefficient-huge-int", "moments-huge-int",
            "entropy-tol-huge-int",
        ],
    )
    def test_input_outside_the_floats_is_an_input_error(self, build, field):
        with pytest.raises(InputError) as info:
            build()
        assert info.value.field == field


class TestBarbourHallAndLeCam:
    def test_upper_reference_value(self):
        # (1 - e^-0.1)/0.1 * 1e-3
        expected = -math.expm1(-0.1) / 0.1 * 1e-3
        assert tv_upper_barbour_hall(0.1, 1e-3) == pytest.approx(expected, rel=1e-12)

    def test_upper_large_mean(self):
        # At lam = 1e6 the factor is 1/lam exactly at float precision.
        assert tv_upper_barbour_hall(1e6, 1.3334e4) == pytest.approx(
            0.013334, rel=1e-9
        )

    def test_lower_reference_values(self):
        assert tv_lower_barbour_hall(0.1, 1e-3) == pytest.approx(3.125e-5, rel=1e-12)
        assert tv_lower_barbour_hall(4.0, 0.08) == pytest.approx(6.25e-4, rel=1e-12)

    def test_zero_second_moment(self):
        assert tv_upper_barbour_hall(2.0, 0.0) == 0.0
        assert tv_lower_barbour_hall(2.0, 0.0) == 0.0
        assert tv_upper_lecam(0.0) == 0.0

    def test_lecam_is_identity(self):
        assert tv_upper_lecam(1e-3) == 1e-3
        # Vacuous values (> 1) are returned as-is.
        assert tv_upper_lecam(1.3334e4) == 1.3334e4

    @pytest.mark.parametrize("lam", np.geomspace(1e-3, 1e6, 19).tolist())
    @pytest.mark.parametrize("sum_p2", [1e-6, 1e-2, 1.0])
    def test_ratio_at_most_32_and_lecam_dominated(self, lam, sum_p2):
        lower = tv_lower_barbour_hall(lam, sum_p2)
        upper = tv_upper_barbour_hall(lam, sum_p2)
        assert lower <= upper
        assert upper / lower <= 32.0 + 1e-9
        assert upper <= tv_upper_lecam(sum_p2)

    def test_improvement_factor_for_large_mean(self):
        # upper / lecam -> 1/lam once e^-lam is negligible.
        lam = 1e6
        ratio = tv_upper_barbour_hall(lam, 1.0) / tv_upper_lecam(1.0)
        assert ratio * lam == pytest.approx(1.0, rel=1e-12)


class TestAggBound:
    def test_reduction_to_barbour_hall(self):
        coeffs = coefficients_independent([0.01] * 10)
        assert tv_upper_agg(coeffs) == pytest.approx(
            tv_upper_barbour_hall(0.1, 1e-3), rel=1e-12
        )

    def test_reduction_on_random_systems(self):
        rng = np.random.default_rng(2)
        for _ in range(25):
            probs = rng.uniform(0, 1, int(rng.integers(1, 40)))
            if probs.sum() == 0:
                continue
            coeffs = coefficients_independent(probs)
            expected = tv_upper_barbour_hall(
                float(probs.sum()), float((probs**2).sum())
            )
            assert tv_upper_agg(coeffs) == pytest.approx(expected, rel=1e-12)

    def test_orientation_model_value(self):
        coeffs = ChenSteinCoefficients(
            b1=LogScalar.from_float(float(B1_30_27)),
            b2=LogScalar.from_float(float(B2_30_27)),
            b3=LogScalar.zero(),
            lam=LogScalar.from_float(4060),
            log2_m=30.0,
        )
        expected = float((B1_30_27 + B2_30_27) / 4060)  # 1 - e^-4060 == 1
        assert tv_upper_agg(coeffs) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(1.580e-4, rel=1e-3)

    def test_b3_only_system(self):
        coeffs = ChenSteinCoefficients(
            b1=LogScalar.zero(), b2=LogScalar.zero(),
            b3=LogScalar.from_float(0.1), lam=LogScalar.from_log(0.0), m=10,
        )
        assert tv_upper_agg(coeffs) == pytest.approx(0.1, rel=1e-12)

    def test_b3_scaling_beyond_sqrt_branch(self):
        coeffs = ChenSteinCoefficients(
            b1=LogScalar.zero(), b2=LogScalar.zero(),
            b3=LogScalar.from_float(0.1), lam=LogScalar.from_float(4.0), m=10,
        )
        assert tv_upper_agg(coeffs) == pytest.approx(0.1 * 1.4 / 2.0, rel=1e-12)


class TestTvBoundReport:
    def test_independent_report_invariants(self):
        report = tv_bound_report(
            lam=0.1, sum_p_squared=1e-3,
            coeffs=coefficients_independent([0.01] * 10),
        )
        assert report.bh_lower <= report.bh_upper <= report.lecam_upper
        assert report.bh_upper / report.bh_lower <= 32.0 + 1e-9
        assert report.agg_upper == pytest.approx(report.bh_upper, rel=1e-12)

    def test_coefficients_only_report(self):
        coeffs = ChenSteinCoefficients(
            b1=LogScalar.from_float(0.2), b2=LogScalar.from_float(0.1),
            b3=LogScalar.zero(), lam=LogScalar.from_float(2.0), log2_m=20.0,
        )
        report = tv_bound_report(coeffs=coeffs)
        assert report.lecam_upper is None
        assert report.bh_upper is None
        assert report.agg_upper is not None

    def test_vacuous_values_annotated_not_clamped(self):
        report = tv_bound_report(lam=1e6, sum_p_squared=1.3334e4)
        assert report.lecam_upper == 1.3334e4
        assert "vacuous" in report.method_notes

    def test_requires_some_input(self):
        with pytest.raises(ValueError):
            tv_bound_report()


class TestSpecValidation:
    def test_out_of_range_neighbour_index(self):
        with pytest.raises(ValueError, match="out-of-range"):
            DependencySpec(2, [0.1, 0.2], {0: [0, 2], 1: [1]}, {}, "zero")
        with pytest.raises(ValueError, match="out-of-range"):
            DependencySpec(2, [0.1, 0.2], {0: [0], 1: [-1, 1]}, {}, "zero")

    def test_conflicting_mirrored_pair_values(self):
        with pytest.raises(ValueError, match="conflicting"):
            DependencySpec(
                2, [0.1, 0.2], {0: [0, 1], 1: [0, 1]},
                {(0, 1): 0.05, (1, 0): 0.06}, "zero",
            )

    def test_conflicting_repeated_triples(self):
        with pytest.raises(ValueError, match="conflicting"):
            DependencySpec(
                2, [0.1, 0.2], [[0, 1], [0, 1]],
                [[0, 1, 0.05], [0, 1, 0.06]], "zero",
            )

    def test_diagonal_pair(self):
        with pytest.raises(ValueError, match="diagonal"):
            DependencySpec(2, [0.1, 0.2], {0: [0], 1: [1]}, {(1, 1): 0.1}, "zero")

    def test_out_of_range_pair_index(self):
        with pytest.raises(ValueError, match="out-of-range"):
            DependencySpec(2, [0.1, 0.2], {0: [0], 1: [1]}, {(0, 5): 0.01}, "zero")

    def test_repeated_neighbours_collapse(self):
        spec = DependencySpec(
            3, [0.1, 0.2, 0.3], {0: [1, 0, 1, 0], 1: [1], 2: [2, 2]},
            {(0, 1): 0.05}, "zero",
        )
        assert spec.neighborhoods == (frozenset({0, 1}), frozenset({1}), frozenset({2}))
        assert spec.indptr.tolist() == [0, 2, 3, 4]
        assert spec.indices.tolist() == [0, 1, 1, 2]
        assert spec.pair_moments.tolist() == [0.0, 0.05, 0.0, 0.0]
        b1 = 0.1 * 0.1 + 0.1 * 0.2 + 0.2 * 0.2 + 0.3 * 0.3
        assert coefficients_from_spec(spec).b1.to_float() == pytest.approx(b1, rel=1e-14)

    def test_arrays_are_read_only(self):
        spec = _chain_spec()
        with pytest.raises(ValueError):
            spec.marginals[0] = 0.5
        with pytest.raises(AttributeError):
            spec.m = 4

    @pytest.mark.parametrize(
        "doc, field",
        [
            ([1, 2], "JSON object"),
            ({"m": None, "marginals": [], "neighborhoods": [],
              "pair_expectations": [], "b3": "zero"}, "m must be an integer"),
            ({"m": 1, "marginals": 0.5, "neighborhoods": [[0]],
              "pair_expectations": [], "b3": "zero"}, "marginals"),
            ({"m": 1, "marginals": [0.5], "neighborhoods": [7],
              "pair_expectations": [], "b3": "zero"}, "neighbourhood"),
            ({"m": 2, "marginals": [0.5, 0.5], "neighborhoods": [[0, 1], [0, 1]],
              "pair_expectations": [[0, 1]], "b3": "zero"}, r"\[a, b, value\]"),
            ({"m": 1, "marginals": [0.5], "neighborhoods": [[0]],
              "pair_expectations": 3, "b3": "zero"}, "pair_expectations"),
            ({"m": 1, "marginals": [0.5], "neighborhoods": [[0]],
              "pair_expectations": [], "b3": 0}, "b3_terms"),
            ({"m": 1, "marginals": [0.5], "neighborhoods": [[0]],
              "pair_expectations": [], "b3": [float("nan")]}, "b3 terms"),
            ({"m": 1, "marginals": [10**400], "neighborhoods": [[0]],
              "pair_expectations": [], "b3": "zero"}, "marginals"),
            ({"m": 2, "marginals": [0.5, 0.5], "neighborhoods": [[0, 1], [0, 1]],
              "pair_expectations": [[0, 1, 10**400]], "b3": "zero"}, r"\[a, b, value\]"),
            ({"m": 1, "marginals": [0.5], "neighborhoods": [[0]],
              "pair_expectations": [], "b3": [10**400]}, "b3_terms"),
            # Non-integral numbers and booleans are refused, not truncated.
            ({"m": 2.9, "marginals": [0.5, 0.5], "neighborhoods": [[0], [1]],
              "pair_expectations": [], "b3": "zero"}, "m must be an integer"),
            ({"m": True, "marginals": [0.5], "neighborhoods": [[0]],
              "pair_expectations": [], "b3": "zero"}, "m must be an integer"),
            ({"m": 3, "marginals": [0.1] * 3, "neighborhoods": [[0, 1.7], [1], [2]],
              "pair_expectations": [[0, 1, 0.01]], "b3": "zero"}, "B_0 has non-integer"),
            ({"m": 3, "marginals": [0.1] * 3, "neighborhoods": [[0], [True], [2]],
              "pair_expectations": [], "b3": "zero"}, "B_1 has non-integer"),
            ({"m": 3, "marginals": [0.1] * 3, "neighborhoods": [[0, 1], [0, 1], [2]],
              "pair_expectations": [[0, 1.2, 0.01]], "b3": "zero"}, "non-integer indices"),
            ({"m": 3, "marginals": [0.1] * 3, "neighborhoods": [[0, 1], [0, 1], [2]],
              "pair_expectations": [[False, True, 0.01]], "b3": "zero"}, "non-integer indices"),
            # NaN is not an integer, an infinity is out of range; a pair
            # index is tested for its range first.
            *[
                ({"m": 3, "marginals": [0.1] * 3, "neighborhoods": [[0], [1, bad], [2]],
                  "pair_expectations": [], "b3": "zero"}, f"^neighbourhood B_1 has {why} indices$")
                for bad, why in [
                    (math.nan, "non-integer"), (math.inf, "out-of-range"),
                    (-math.inf, "out-of-range"), (3.0, "out-of-range"),
                    (True, "non-integer"), (False, "non-integer"),
                ]
            ],
            *[
                ({"m": 3, "marginals": [0.1] * 3, "neighborhoods": [[0, 1], [0, 1], [2]],
                  "pair_expectations": [[0, bad, 0.01]], "b3": "zero"}, f"^pair expectation {why}$")
                for bad, why in [
                    (math.nan, r"\(0,nan\) has out-of-range indices"),
                    (math.inf, r"\(0,inf\) has out-of-range indices"),
                    (-math.inf, r"\(0,-inf\) has out-of-range indices"),
                    (3.0, r"\(0,3\) has out-of-range indices"),
                    (True, r"\[0, True, 0.01\] has non-integer indices"),
                    (False, r"\[0, False, 0.01\] has non-integer indices"),
                ]
            ],
        ],
    )
    def test_malformed_documents_raise_value_error(self, doc, field):
        with pytest.raises(ValueError, match=field):
            dependency_spec_from_dict(doc)


def _exact_log(x: Fraction) -> float:
    # ln of a positive rational far outside the float range.
    shift = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log(float(x / Fraction(2) ** shift)) + shift * math.log(2.0)


@st.composite
def _sparse_systems(draw):
    """A random sparse dependency graph with consistent pair moments.

    Neighbourhoods may be asymmetric and repeat entries; some marginals sit
    near 1e-200, where p_a p_b underflows a float.
    """
    m = draw(st.integers(1, 9))
    marginal = st.one_of(st.floats(1e-6, 1.0), st.floats(1e-201, 1e-199))
    p = draw(st.lists(marginal, min_size=m, max_size=m))
    hoods = []
    for a in range(m):
        others = draw(st.lists(st.integers(0, m - 1), max_size=2 * m))
        hoods.append(draw(st.permutations([a] + others)))
    moments = {}
    for a in range(m):
        for b in set(hoods[a]) - {a}:
            key = (min(a, b), max(a, b))
            if key not in moments:
                share = draw(st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0)))
                moments[key] = min(p[a], p[b]) * share
    oriented = {}
    for (a, b), value in moments.items():
        oriented[(b, a) if draw(st.booleans()) else (a, b)] = value
    b3 = draw(
        st.one_of(
            st.just("zero"),
            st.lists(st.one_of(st.just(0.0), st.floats(0.0, 0.5)), min_size=m, max_size=m),
        )
    )
    return m, p, hoods, oriented, b3


class TestVectorisedCoefficients:
    @settings(max_examples=150, deadline=None)
    @given(system=_sparse_systems(), as_document=st.booleans())
    def test_matches_exact_double_sums(self, system, as_document):
        m, p, hoods, moments, b3 = system
        if as_document:
            spec = dependency_spec_from_dict(
                {
                    "m": m,
                    "marginals": p,
                    "neighborhoods": hoods,
                    "pair_expectations": [[a, b, v] for (a, b), v in moments.items()],
                    "b3": b3,
                }
            )
        else:
            spec = DependencySpec(m, p, dict(enumerate(hoods)), moments, b3)
        coeffs = coefficients_from_spec(spec)

        exact_p = [Fraction(x) for x in p]
        pair = {frozenset(key): Fraction(v) for key, v in moments.items()}
        expected = {
            "lam": sum(exact_p),
            "b1": sum(exact_p[a] * exact_p[b] for a in range(m) for b in set(hoods[a])),
            "b2": sum(
                (pair[frozenset((a, b))] for a in range(m) for b in set(hoods[a]) - {a}),
                Fraction(0),
            ),
            "b3": Fraction(0) if b3 == "zero" else sum(map(Fraction, b3), Fraction(0)),
        }
        for name, value in expected.items():
            got = getattr(coeffs, name)
            if value == 0:
                assert got.sign == 0, name
            else:
                assert got.sign == 1, name
                assert abs(got.logmag - _exact_log(value)) <= 1e-12, name
        assert coeffs.m == m

    def test_underflowing_products_still_count(self):
        spec = DependencySpec(
            2, [1e-200, 2e-200], [[0, 1], [0, 1]], {(0, 1): 1e-200}, "zero"
        )
        coeffs = coefficients_from_spec(spec)
        b1 = Fraction(1e-200) ** 2 + 2 * Fraction(1e-200) * Fraction(2e-200) \
            + Fraction(2e-200) ** 2
        assert coeffs.b1.logmag == pytest.approx(_exact_log(b1), abs=1e-12)
        assert coeffs.b2.logmag == pytest.approx(math.log(2e-200), abs=1e-12)

    def test_moving_window_at_m_1e5(self):
        # Head runs of length r in m + r - 1 coins of bias q: p = q^r,
        # B_a = {b : |a - b| < r} and p_ab = q^(r + |a - b|).
        m, r, q = 100_000, 4, 0.3
        p = q**r
        spec = dependency_spec_from_dict(
            {
                "m": m,
                "marginals": [p] * m,
                "neighborhoods": [
                    list(range(max(0, a - r + 1), min(m, a + r))) for a in range(m)
                ],
                "pair_expectations": [
                    [a, b, q ** (r + b - a)]
                    for a in range(m)
                    for b in range(a + 1, min(m, a + r))
                ],
                "b3": "zero",
            }
        )
        coeffs = coefficients_from_spec(spec)
        entries = m * (2 * r - 1) - r * (r - 1)
        assert coeffs.lam.to_float() == pytest.approx(m * p, rel=1e-12)
        assert coeffs.b1.to_float() == pytest.approx(entries * p * p, rel=1e-12)
        b2 = 2 * sum((m - d) * q ** (r + d) for d in range(1, r))
        assert coeffs.b2.to_float() == pytest.approx(b2, rel=1e-12)
        assert coeffs.b3.sign == 0
