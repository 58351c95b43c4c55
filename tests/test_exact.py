import math
import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest

import poientropy
from poientropy.bounds import MomentSummary, entropy_bound_independent
from poientropy.chenstein import tv_lower_barbour_hall, tv_upper_barbour_hall
from poientropy import exact
from poientropy.exact import (
    DEFAULT_MAX_N,
    BernoulliSystem,
    Pmf,
    exact_distribution,
    pmf_entropy,
    tv_to_poisson,
)
from poientropy.poisson import InputError, binomial_entropy, poisson_entropy_series

# Hand computation for probs=[0.1] against Po(0.1): the only positive part of
# the difference is at k=1, so d_TV = 0.1 - 0.1 e^-0.1.
TV_SINGLE_P01 = 0.009516258196404039


def _binomial_pmf(n, p):
    return np.array(
        [math.comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)]
    )


class TestExactDistribution:
    def test_single_variable(self):
        pmf = exact_distribution([0.5])
        assert np.allclose(pmf.mass, [0.5, 0.5], atol=0, rtol=0)

    def test_two_fair_coins(self):
        pmf = exact_distribution([0.5, 0.5])
        assert np.allclose(pmf.mass, [0.25, 0.5, 0.25], atol=1e-15)

    def test_matches_closed_form_binomial(self):
        pmf = exact_distribution([0.1] * 10)
        assert np.max(np.abs(pmf.mass - _binomial_pmf(10, 0.1))) <= 1e-12

    def test_mean_is_sum_of_probs(self):
        rng = np.random.default_rng(3)
        probs = rng.uniform(0, 1, 37)
        pmf = exact_distribution(probs)
        mean = float(np.dot(np.arange(pmf.mass.size), pmf.mass))
        assert mean == pytest.approx(float(np.sum(probs)), rel=1e-12)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        probs = rng.uniform(0, 0.5, 200)
        base = exact_distribution(probs).mass
        for seed in range(3):
            shuffled = probs.copy()
            np.random.default_rng(seed).shuffle(shuffled)
            assert np.max(np.abs(exact_distribution(shuffled).mass - base)) <= 1e-12

    def test_cap_points_to_bound_pipeline(self):
        with pytest.raises(ValueError, match="bound"):
            exact_distribution([0.1] * (DEFAULT_MAX_N + 1))

    def test_rejects_invalid_systems(self):
        with pytest.raises(ValueError):
            BernoulliSystem([])
        with pytest.raises(ValueError):
            BernoulliSystem([0.5, 1.5])
        with pytest.raises(ValueError):
            BernoulliSystem([-0.1])


class TestBernoulliSystem:
    @pytest.mark.parametrize(
        "probs, message",
        [
            ([], "at least one variable"),
            ([0.5, 1.5], r"lie in \[0, 1\]"),
            ([-0.1], r"lie in \[0, 1\]"),
            ([0.5, math.nan], r"lie in \[0, 1\]"),
            ([math.inf], r"lie in \[0, 1\]"),
            ([-math.inf, 0.5], r"lie in \[0, 1\]"),
            (["abc"], "could not convert"),
        ],
    )
    def test_refusals_name_probs(self, probs, message):
        with pytest.raises(InputError, match=message) as refused:
            BernoulliSystem(probs)
        assert refused.value.field == "probs"

    @pytest.mark.parametrize("probs", [[[0.1, 0.2], [0.3, 0.4]], [[0.5]], [[]], np.zeros((2, 1, 2))])
    def test_refuses_inputs_that_are_not_1d(self, probs):
        # [[0.1, 0.2], [0.3, 0.4]] was once read as n = 4, lam = 1.0.
        for build in (BernoulliSystem, MomentSummary.from_probs, exact_distribution):
            with pytest.raises(InputError, match="1-d") as refused:
                build(probs)
            assert refused.value.field == "probs"

    def test_a_scalar_is_one_variable(self):
        system = BernoulliSystem(0.25)
        assert (system.n, system.lam, system.sum_p_squared) == (1, 0.25, 0.0625)

    def test_moments_are_the_sums_of_its_own_copy(self):
        probs = np.random.default_rng(4).uniform(0.0, 0.3, 1000)
        system = BernoulliSystem(probs)
        assert system.lam == float(np.sum(probs))
        assert system.sum_p_squared == float(np.sum(probs**2))
        # The caller's array is copied, and the copy cannot be written, so
        # the moments summed at construction stay those of system.probs.
        probs[:] = 1.0
        assert system.lam == float(np.sum(system.probs)) < 1000.0
        with pytest.raises(ValueError):
            system.probs[0] = 1.0


# Fractional bits of the fixed-point reference below.  The recurrence is a
# convex combination, so each step adds at most one unit of 2^-_REF_BITS to an
# entry's error: n <= 400 keeps it under 1e-418, far below the relative
# precision of every entry above _SMALLEST_NORMAL.
_REF_BITS = 1400
_SMALLEST_NORMAL = 2.2250738585072014e-308
_SMALLEST_SUBNORMAL = math.ulp(0.0)


def _reference_pmf(probs):
    """The two-tap recurrence in fixed point, rounded to 40 digits by mpmath.

    Each double p is num / 2^e exactly, so (a (2^e - num) + b num) >> e is the
    update (1 - p) a + p b truncated once to the fixed-point grid."""
    coeffs = [1 << _REF_BITS]
    for p in probs:
        num, den = float(p).as_integer_ratio()
        shift = den.bit_length() - 1
        coeffs = [
            (a * (den - num) + b * num) >> shift
            for a, b in zip(coeffs + [0], [0] + coeffs)
        ]
    with mpmath.workdps(40):
        return [mpmath.ldexp(c, -_REF_BITS) for c in coeffs]


class TestAgainstHighPrecisionReference:
    @pytest.mark.parametrize("n", [1, 2, 3, 15, 16, 17, 63, 64, 65, 400])
    @pytest.mark.parametrize("p_max", [0.02, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("pinned", [False, True])
    def test_entries_and_entropy(self, n, p_max, pinned):
        probs = np.random.default_rng([n, int(100 * p_max)]).uniform(0.0, p_max, n)
        if pinned:
            probs[::3] = 0.0
            probs[1::4] = 1.0
        pmf = exact_distribution(probs)
        reference = _reference_pmf(probs)
        assert pmf.mass.size == n + 1
        assert np.all(pmf.mass >= 0.0)
        for got, want in zip(pmf.mass, reference):
            if want >= _SMALLEST_NORMAL:
                assert abs(got - want) <= 1e-13 * want
            else:
                # The subnormal tail is rounded once, from normal scaled
                # values, so it stays within two of its units.
                assert abs(got - want) <= 2 * _SMALLEST_SUBNORMAL
        with mpmath.workdps(40):
            entropy = -mpmath.fsum(w * mpmath.log(w) for w in reference if w > 0)
        assert abs(pmf_entropy(pmf).nats - float(entropy)) <= 1e-13


class TestBandOffsets:
    def test_pinned_runs_shift_both_ends(self):
        # The first blocks are all 1.0 and the last all 0.0, so the band
        # starts at 100 and ends at or below n - 50 from the first build on.
        probs = np.concatenate(
            [np.ones(100), np.random.default_rng(9).uniform(0.0, 0.02, 150), np.zeros(50)]
        )
        mass = exact_distribution(probs).mass
        nonzero = np.flatnonzero(mass)
        assert nonzero[0] == 100 and nonzero[-1] <= 250
        for got, want in zip(mass, _reference_pmf(probs)):
            if want >= _SMALLEST_NORMAL:
                assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("ones, zeros", [(0, 0), (7, 0), (0, 7), (4000, 1), (1, 4000)])
    def test_point_masses_are_exact(self, ones, zeros):
        probs = np.random.default_rng(ones).permutation([1.0] * ones + [0.0] * zeros + [1.0])
        expected = np.zeros(probs.size + 1)
        expected[ones + 1] = 1.0
        assert np.array_equal(exact_distribution(probs).mass, expected)


# Entries of the two-tap loop below this are compared to no fixed relative
# tolerance: an error of a few subnormal ulps in a neighbour is large
# relative to an entry just above the smallest normal.
_COMPARED_FLOOR = 1e-300


def _two_tap_pmf(probs, length):
    """The first ``length`` pmf entries by the one-factor-at-a-time loop.

    Each step's entry k reads only entries k and k - 1, so cutting the list
    at ``length`` changes none of the entries kept."""
    mass = np.zeros(length)
    mass[0] = 1.0
    for p in probs:
        mass[1:] = mass[1:] * (1.0 - p) + mass[:-1] * p
        mass[0] *= 1.0 - p
    return mass


def _assert_matches_two_tap(mass, probs, length):
    want = _two_tap_pmf(probs, length)
    got = mass[:length]
    compared = want >= _COMPARED_FLOOR
    assert np.all(np.abs(got - want)[compared] <= 1e-12 * want[compared])
    assert np.all(got[~compared] < 1e-290)


class TestBandedTree:
    """Systems whose pmf band is far narrower than n + 1 entries."""

    @pytest.fixture
    def convolutions(self, monkeypatch):
        """The operand lengths of every np.convolve call, in order.

        Every call must also stay out of subnormal arithmetic and clear of
        overflow: each operand entry finite and at least 2^-564 (the scaled
        image of the smallest subnormal), each output entry below 2^1023."""
        calls = []
        convolve = np.convolve

        def spy(a, v):
            calls.append((len(a), len(v)))
            for operand in (a, v):
                assert np.all(np.isfinite(operand))
                assert np.min(operand) >= 2.0**-564
            out = convolve(a, v)
            assert np.max(out) < 2.0**1023
            return out

        monkeypatch.setattr(np, "convolve", spy)
        return calls

    def test_band_starts_above_zero(self, convolutions):
        probs = np.random.default_rng(5000).uniform(0.4, 0.6, 5000)
        mass = exact_distribution(probs).mass
        nonzero = np.flatnonzero(mass)
        assert 1000 < nonzero[0] and nonzero[-1] < 4000
        _assert_matches_two_tap(mass, probs, mass.size)
        assert max(min(pair) for pair in convolutions) <= exact._MAX_DOT

    def test_band_ends_far_below_n(self, convolutions):
        probs = np.random.default_rng(30_000).uniform(0.0, 1e-3, 30_000)
        mass = exact_distribution(probs).mass
        assert np.flatnonzero(mass)[-1] < 400
        _assert_matches_two_tap(mass, probs, 400)
        # Trimmed to its band, every piece merges in the tree.
        assert all(a + v - 1 <= exact._MAX_DOT for a, v in convolutions)

    def test_scattered_pinned_entries(self, convolutions):
        rng = np.random.default_rng(3000)
        probs = rng.uniform(0.0, 0.5, 3000)
        probs[rng.choice(3000, 1500, replace=False)] = rng.choice([0.0, 1.0], 1500)
        mass = exact_distribution(probs).mass
        ones = int(np.count_nonzero(probs == 1.0))
        nonzero = np.flatnonzero(mass)
        assert nonzero[0] >= ones
        assert nonzero[-1] <= ones + np.count_nonzero((probs > 0.0) & (probs < 1.0))
        _assert_matches_two_tap(mass, probs, mass.size)

    # For this family the tree merges every block below n = 2200, and at
    # n = 2300 it stops one merge short and the fold takes the last step.
    @pytest.mark.parametrize("n, folds", [(2200, False), (2300, True)])
    def test_tree_hands_over_to_fold(self, convolutions, n, folds):
        probs = np.random.default_rng(0).uniform(0.25, 0.75, n)
        mass = exact_distribution(probs).mass
        _assert_matches_two_tap(mass, probs, mass.size)
        assert len(convolutions) == math.isqrt(n - 1)  # one per block but one
        # Only a fold step can make a piece longer than _MAX_DOT.
        assert any(a + v - 1 > exact._MAX_DOT for a, v in convolutions) == folds
        assert max(min(pair) for pair in convolutions) <= exact._MAX_DOT

    def test_no_subnormal_operand_at_n_30000(self, convolutions):
        # The system of the BLAS-thread test: its tails run below 1e-308 in
        # every merge from the first tree level on.
        probs = np.random.default_rng(2012).uniform(0.0, 0.5, 30_000)
        mass = exact_distribution(probs).mass
        assert mass[0] == 0.0 and mass[-1] == 0.0
        mean = float(np.dot(np.arange(mass.size), mass))
        assert mean == pytest.approx(math.fsum(probs), rel=1e-12)
        assert len(convolutions) > 100

    @pytest.mark.parametrize("pinned", [False, True])
    def test_cap_is_finite_and_normalised(self, convolutions, pinned):
        # At n = DEFAULT_MAX_N the scaled products come closest to overflow
        # (the spy bounds every output by 2^1023), and with 50 000 ones the
        # band must start at exactly their count.
        n = DEFAULT_MAX_N
        rng = np.random.default_rng(n)
        if pinned:
            probs = np.concatenate([np.ones(n // 2), rng.uniform(0.0, 1e-3, n // 2)])
        else:
            probs = rng.uniform(0.0, 1.0, n)
        mass = exact_distribution(probs).mass
        assert np.all(np.isfinite(mass))
        assert Pmf(mass).support_size == n + 1
        if pinned:
            assert np.flatnonzero(mass)[0] == n // 2


def _mass_digest(threads):
    """Start a process with ``threads`` BLAS threads that hashes the pmf bytes
    of one seeded system at n = 30 000."""
    code = (
        "import hashlib, numpy as np\n"
        "from poientropy.exact import exact_distribution\n"
        "probs = np.random.default_rng(2012).uniform(0.0, 0.5, 30_000)\n"
        "print(hashlib.sha256(exact_distribution(probs).mass.tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(poientropy.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=path)
    return subprocess.Popen(
        [sys.executable, "-c", code], env=env, stdout=subprocess.PIPE, text=True
    )


def test_bytes_do_not_depend_on_blas_threads():
    # At this n a balanced product-tree fold would end in a convolution of two
    # 1.5e4-entry halves, whose dots are long enough for OpenBLAS to split
    # across threads and so round differently.
    procs = [_mass_digest(threads) for threads in (1, 2)]
    digests = [proc.communicate(timeout=60)[0].strip() for proc in procs]
    assert all(proc.returncode == 0 for proc in procs)
    assert digests[0] == digests[1]
    assert len(digests[0]) == 64


class TestPmfEntropy:
    def test_point_mass_is_zero(self):
        assert pmf_entropy(Pmf([1.0])).nats == 0.0

    def test_direct_three_point_value(self):
        assert pmf_entropy(Pmf([0.25, 0.5, 0.25])).nats == pytest.approx(
            1.5 * math.log(2.0), rel=1e-12
        )

    def test_cross_module_binomial_equality(self):
        pmf = exact_distribution([0.3] * 20)
        assert pmf_entropy(pmf).nats == pytest.approx(
            binomial_entropy(20, 0.3).nats, abs=1e-10
        )

    def test_pmf_validation(self):
        with pytest.raises(ValueError):
            Pmf([0.5, 0.4])  # does not sum to 1
        with pytest.raises(ValueError):
            Pmf([1.2, -0.2])

    @pytest.mark.parametrize(
        "mass",
        [[math.nan, 0.5, 0.5], [0.5, 0.5, math.nan], [math.nan], [0.5, math.inf, 0.5]],
    )
    def test_non_numbers_are_refused(self, mass):
        # A NaN entry fails both "< 0" and "|sum - 1| > 1e-10", so it must be
        # refused by tests that a NaN cannot pass.
        with pytest.raises(ValueError, match="pmf"):
            Pmf(mass)
        with pytest.raises(ValueError, match="pmf"):
            pmf_entropy(mass)


class TestTvToPoisson:
    def test_hand_computed_single_variable(self):
        pmf = exact_distribution([0.1])
        assert tv_to_poisson(pmf, 0.1) == pytest.approx(TV_SINGLE_P01, rel=1e-12)

    def test_law_of_small_numbers_trend(self):
        lam = 2.0
        distances = []
        for n in (10, 20, 40, 80):
            pmf = exact_distribution([lam / n] * n)
            distances.append(tv_to_poisson(pmf, lam))
        assert all(a > b for a, b in zip(distances, distances[1:]))

    def test_range(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            probs = rng.uniform(0, 1, int(rng.integers(1, 60)))
            pmf = exact_distribution(probs)
            lam = float(np.sum(probs)) or 0.5
            tv = tv_to_poisson(pmf, lam)
            assert 0.0 <= tv <= 1.0

    def test_rejects_bad_arguments(self):
        pmf = exact_distribution([0.2])
        with pytest.raises(ValueError):
            tv_to_poisson(pmf, 0.0)
        with pytest.raises(ValueError):
            tv_to_poisson(pmf, 1.0, tol=-1.0)

    def test_rejects_nan_mass(self):
        # Once returned as 0.0 through the final clamp.
        with pytest.raises(ValueError, match="pmf"):
            tv_to_poisson([math.nan, 0.5, 0.5], 1.0)
        with pytest.raises(ValueError, match="pmf"):
            tv_to_poisson([0.5, 0.5, math.nan], 1.0)


class TestOracleAgainstBounds:
    """The exact oracle must sit inside every analytic enclosure."""

    def _random_systems(self, count, seed=20120904):
        rng = np.random.default_rng(seed)
        for _ in range(count):
            n = int(rng.integers(5, 201))
            yield BernoulliSystem(rng.uniform(0.0, 0.2, n))

    def test_tv_sandwich_on_random_systems(self):
        for system in self._random_systems(200):
            pmf = exact_distribution(system)
            tv = tv_to_poisson(pmf, system.lam)
            lower = tv_lower_barbour_hall(system.lam, system.sum_p_squared)
            upper = tv_upper_barbour_hall(system.lam, system.sum_p_squared)
            assert lower - 1e-9 <= tv <= upper + 1e-9

    def test_entropy_difference_containment(self):
        for system in self._random_systems(200, seed=8):
            moments = MomentSummary.from_probs(system)
            report = entropy_bound_independent(moments)
            h_z = poisson_entropy_series(system.lam, tol=1e-10).nats
            h_w = pmf_entropy(exact_distribution(system)).nats
            gap = h_z - h_w
            assert -1e-9 <= gap <= report.epsilon + 1e-9
