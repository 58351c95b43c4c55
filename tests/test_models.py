import concurrent.futures
import math
import os
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from poientropy import models
from poientropy.bounds import entropy_bound_general
from poientropy.models import (
    HYPERCUBE_MAX_N,
    MC_MAX_DIMENSION,
    MC_MAX_REPLICATES,
    _MC_PARALLEL_MIN_N,
    _mc_chunk_counts,
    _mc_scratch,
    arithmetic_moments,
    hypercube_coefficients,
    hypercube_monte_carlo,
    reproduce_example1,
    reproduce_table1,
)
from poientropy.poisson import InputError

# Independent mpmath recomputation of the first arithmetic-system case.
EX1_COROLLARY_EPS = 0.5878672480574357
EX1_PROPOSITION_EPS = 0.2047351801396994


def _reference_outdegrees(n, chunk_size, seed_seq):
    """Every vertex's outdegree in every replicate of one chunk, as a
    (2^n, chunk_size) integer array, counted edge by edge.

    Reads the same coin words as the bit-sliced kernel (bit j of lane l is
    replicate 64 l + j) but counts each vertex's outward edges directly.
    """
    lanes = -(-chunk_size // 64)
    coins = np.random.default_rng(seed_seq).integers(
        0, 1 << 64, size=(n, 1 << (n - 1), lanes), dtype=np.uint64
    )
    bits = np.unpackbits(coins.view(np.uint8), axis=2, bitorder="little")
    bits = bits[:, :, :chunk_size]
    outdeg = np.zeros((1 << n, chunk_size), dtype=np.uint8)
    for v in range(1 << n):
        for d in range(n):
            edge = (v & ((1 << d) - 1)) | ((v >> (d + 1)) << d)
            outdeg[v] += bits[d, edge] ^ ((v >> d) & 1)
    return outdeg


class TestArithmeticMoments:
    def test_first_case_closed_form(self):
        moments = arithmetic_moments(1e-10, 10**8)
        assert moments.lam == pytest.approx(1_000_000.01, abs=1e-8)
        assert moments.theta == pytest.approx(0.0133, abs=1e-4)
        assert moments.m == 10**8

    def test_second_case_closed_form(self):
        moments = arithmetic_moments(1e-14, 10**12)
        assert moments.lam == pytest.approx(1e10 + 0.01, rel=1e-12)
        assert moments.theta == pytest.approx(0.0133, abs=1e-4)

    def test_small_case_by_direct_summation(self):
        moments = arithmetic_moments(0.05, 3)
        assert moments.lam == pytest.approx(0.6, rel=1e-14)
        assert moments.sum_p_squared == pytest.approx(0.14, rel=1e-12)
        assert moments.theta == pytest.approx(0.14 / 0.6, rel=1e-12)

    @pytest.mark.parametrize("n", [1, 7, 100, 1234, 10**4])
    @pytest.mark.parametrize("scale", [1.0, 0.3])
    def test_matches_brute_force_sums(self, n, scale):
        a = scale / (2.0 * n)
        p = 2.0 * a * np.arange(1, n + 1)
        moments = arithmetic_moments(a, n)
        assert moments.lam == pytest.approx(float(np.sum(p)), rel=1e-10)
        assert moments.sum_p_squared == pytest.approx(float(np.sum(p**2)), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError, match="probability"):
            arithmetic_moments(0.2, 10)  # p_10 = 4 > 1
        with pytest.raises(ValueError):
            arithmetic_moments(0.1, 0)
        with pytest.raises(ValueError):
            arithmetic_moments(-1e-3, 10)

    @pytest.mark.parametrize(
        "a,n,field",
        [(0.2, 10, "a"), (-1e-3, 10, "a"), (0.1, 0, "n"), (0.01, 2.5, "n"),
         (0.01, True, "n"), (0.01, math.nan, "n"), (0.01, math.inf, "n"),
         (0.01, "10", "n"), (0.01, Fraction(5, 2), "n")],
    )
    def test_refusal_names_the_field(self, a, n, field):
        with pytest.raises(InputError) as info:
            arithmetic_moments(a, n)
        assert info.value.field == field

    def test_integral_float_n_is_accepted(self):
        assert arithmetic_moments(1e-10, 1e8) == arithmetic_moments(1e-10, 10**8)


class TestHypercubeCoefficients:
    def test_closed_forms_against_exact_rationals(self):
        coeffs = hypercube_coefficients(30, 27)
        assert coeffs.lam.to_float() == pytest.approx(4060.0, rel=1e-12)
        assert coeffs.b1.to_float() == pytest.approx(
            float(Fraction(31 * 4060**2, 2**30)), rel=1e-12
        )
        assert coeffs.b2.to_float() == pytest.approx(
            float(Fraction(30 * 406 * 3654, 2**28)), rel=1e-12
        )
        assert coeffs.b3.sign == 0
        assert coeffs.log2_m == 30.0

    def test_lambda_reference_values(self):
        assert hypercube_coefficients(50, 44).lam.to_float() == pytest.approx(
            1.589e7, rel=1e-3
        )
        assert hypercube_coefficients(100, 95).b1.to_float() == pytest.approx(
            float(Fraction(101 * math.comb(100, 95) ** 2, 2**100)), rel=1e-12
        )

    @pytest.mark.parametrize("n,k", [(12, 0), (12, 12)])
    def test_edge_orders_use_empty_binomial_convention(self, n, k):
        coeffs = hypercube_coefficients(n, k)
        assert coeffs.lam.to_float() == 1.0
        assert coeffs.b2.sign == 0
        assert coeffs.b1.to_float() == pytest.approx((n + 1) * 2.0**-n, rel=1e-12)

    @pytest.mark.parametrize("n,k", [(30, 27), (50, 48), (100, 70)])
    def test_symmetry_pair_identical(self, n, k):
        lhs, rhs = hypercube_coefficients(n, k), hypercube_coefficients(n, n - k)
        assert lhs.lam.logmag == rhs.lam.logmag
        assert lhs.b1.logmag == rhs.b1.logmag
        assert lhs.b2.logmag == rhs.b2.logmag
        assert lhs.b3.sign == rhs.b3.sign == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            hypercube_coefficients(0, 0)
        with pytest.raises(ValueError):
            hypercube_coefficients(10, 11)

    @pytest.mark.parametrize(
        "n,k,field",
        [(2.5, 1, "n"), (2.5, 1.9, "n"), (3, 1.9, "k"), (True, False, "n"),
         (3, np.True_, "k"), (math.nan, 1, "n"), (math.inf, 1, "n"), ("3", 1, "n")],
    )
    def test_non_integral_order_is_refused_not_truncated(self, n, k, field):
        with pytest.raises(InputError) as info:
            hypercube_coefficients(n, k)
        assert info.value.field == field

    def test_integral_floats_are_accepted(self):
        lhs, rhs = hypercube_coefficients(30.0, 27.0), hypercube_coefficients(30, 27)
        assert (lhs.lam.logmag, lhs.b1.logmag, lhs.b2.logmag) == (
            rhs.lam.logmag, rhs.b1.logmag, rhs.b2.logmag
        )
        assert hypercube_coefficients(np.int64(12), np.int64(11)).lam.to_float() == 12.0

    def test_dimension_cap_names_the_field(self):
        assert HYPERCUBE_MAX_N == 10_000
        hypercube_coefficients(HYPERCUBE_MAX_N, 1)
        with pytest.raises(ValueError) as info:
            hypercube_coefficients(HYPERCUBE_MAX_N + 1, 1)
        assert info.value.field == "n"


class TestHypercubeMonteCarlo:
    @pytest.mark.parametrize(
        "n,k,lam", [(4, 2, 6.0), (6, 3, 20.0), (8, 5, 56.0), (10, 8, 45.0)]
    )
    def test_mean_matches_closed_form(self, n, k, lam):
        mc = hypercube_monte_carlo(n, k, 100_000, master_seed=5)
        z = abs(mc.mean_w - mc.lam_closed_form) / mc.mean_std_err
        assert z <= 4.0
        assert mc.lam_closed_form == lam

    def test_pmf_normalised_and_entropy_positive(self):
        mc = hypercube_monte_carlo(5, 3, 50_000, master_seed=9)
        assert float(np.sum(mc.pmf)) == pytest.approx(1.0, abs=1e-12)
        assert mc.entropy_plugin > 0.0
        assert mc.entropy_jackknife_se > 0.0

    def test_deterministic_for_fixed_seed(self):
        first = hypercube_monte_carlo(6, 3, 30_000, master_seed=42)
        second = hypercube_monte_carlo(6, 3, 30_000, master_seed=42)
        assert np.array_equal(first.counts, second.counts)

    def test_deterministic_across_thread_counts(self):
        n = _MC_PARALLEL_MIN_N
        serial = hypercube_monte_carlo(n, 3, 50_000, master_seed=42, threads=1)
        threaded = hypercube_monte_carlo(n, 3, 50_000, master_seed=42, threads=4)
        assert np.array_equal(serial.counts, threaded.counts)

    def test_small_dimensions_run_on_one_thread(self, monkeypatch):
        # Below _MC_PARALLEL_MIN_N a second worker costs more than it saves.
        # The simulator imports its pool only where it runs threads, so the
        # pool is taken away where that import reads it.
        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", None)
        mc = hypercube_monte_carlo(_MC_PARALLEL_MIN_N - 1, 3, 3 * 4096, 0, threads=2)
        assert int(mc.counts.sum()) == 3 * 4096

    # Each n reduces its counter's columns in its own order, so every n up
    # to 12 runs once.
    @pytest.mark.parametrize(
        "chunk_size,n",
        sorted({(c, n) for c in (1, 100, 4096) for n in (1, 3, 6, 10)}
               | {(100, n) for n in range(1, 13)}),
    )
    def test_bit_sliced_chunk_matches_per_replicate_reference(self, n, chunk_size):
        scratch = _mc_scratch(n, 64)
        seq = np.random.SeedSequence(11, spawn_key=(n, chunk_size))
        outdeg = _reference_outdegrees(n, chunk_size, seq)
        for k in range(n + 1):
            got = _mc_chunk_counts(n, k, chunk_size, seq, scratch)
            want = np.bincount((outdeg == k).sum(axis=0), minlength=(1 << n) + 1)
            assert np.array_equal(got, want)

    def test_scratch_rows_per_dimension(self):
        # The most planes the outdegree counter holds at once, n = 1..16; the
        # n = 16 row count sets MC_MAX_DIMENSION's 224 MiB per worker.
        rows = (1, 2, 3, 3, 4, 4, 5, 5, 5, 5, 6, 6, 6, 6, 7, 7)
        assert tuple(_mc_scratch(n, 1).shape[0] for n in range(1, 17)) == rows
        assert 64 * _mc_scratch(16, 1).nbytes == 224 << 20

    @pytest.mark.parametrize(
        "cpus,pool_workers", [(3, [3]), (None, [])], ids=["3-cpus", "cpu-count-unknown"]
    )
    def test_workers_capped_at_cpu_count(self, monkeypatch, cpus, pool_workers):
        # Every worker holds its own scratch, so workers beyond the CPUs only
        # add memory.  The stand-in pool records its size and runs its tasks
        # serially, starting no thread.
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return [fn(item) for item in items]

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        n, replicates = _MC_PARALLEL_MIN_N, 4 * 4096
        capped = hypercube_monte_carlo(n, 3, replicates, master_seed=5, threads=64)
        assert sizes == pool_workers
        serial = hypercube_monte_carlo(n, 3, replicates, master_seed=5, threads=1)
        assert np.array_equal(capped.counts, serial.counts)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_reused_scratch_serves_a_short_last_chunk(self, threads):
        # Three chunks (4096, 4096, 100 replicates): at one or two threads a
        # worker runs a full chunk and then the short one in the same scratch.
        n, k, replicates = _MC_PARALLEL_MIN_N, 4, 2 * 4096 + 100
        fresh = sum(
            _mc_chunk_counts(
                n, k, size, np.random.SeedSequence(entropy=17, spawn_key=(i,)),
                _mc_scratch(n, -(-size // 64)),
            )
            for i, size in enumerate((4096, 4096, 100))
        )
        mc = hypercube_monte_carlo(n, k, replicates, master_seed=17, threads=threads)
        assert np.array_equal(mc.counts, fresh)

    @pytest.mark.parametrize(
        "n,k,field", [(4.5, 2, "n"), (4, 2.5, "k"), (True, 0, "n"), (4, False, "k")]
    )
    def test_non_integral_order_is_refused(self, n, k, field):
        with pytest.raises(InputError) as info:
            hypercube_monte_carlo(n, k, 10, master_seed=0)
        assert info.value.field == field

    @pytest.mark.parametrize(
        "field,value",
        [("replicates", 100.5), ("replicates", True), ("replicates", "100"),
         ("master_seed", 1.5), ("master_seed", np.True_), ("threads", 1.5)],
    )
    def test_non_integral_count_is_refused(self, field, value):
        kwargs = {"replicates": 100, "master_seed": 0, "threads": 1, field: value}
        with pytest.raises(InputError) as info:
            hypercube_monte_carlo(4, 2, **kwargs)
        assert info.value.field == field

    def test_integral_float_order_is_accepted(self):
        lhs = hypercube_monte_carlo(4.0, 2.0, 500, master_seed=1)
        rhs = hypercube_monte_carlo(4, 2, 500, master_seed=1)
        assert (lhs.n, lhs.k) == (4, 2)
        assert np.array_equal(lhs.counts, rhs.counts)

    @pytest.mark.parametrize("n,k", [(1, 0), (1, 1), (6, 3), (6, 6)])
    @pytest.mark.parametrize("replicates", [100, 5000])
    def test_ragged_tail_drops_padding_bits(self, n, k, replicates):
        # Neither count is a multiple of 64 or of the 4096-replicate chunk.
        serial = hypercube_monte_carlo(n, k, replicates, master_seed=3, threads=1)
        threaded = hypercube_monte_carlo(n, k, replicates, master_seed=3, threads=3)
        assert int(serial.counts.sum()) == replicates
        assert np.array_equal(serial.counts, threaded.counts)

    def test_plugin_entropy_inside_dependent_certificate(self):
        # (14, 13) has b2 > 0 and meets theorem 4's hypotheses, eps = 0.42
        # nats: the plug-in entropy of W must land in [H(Z) - eps, H(Z) + eps]
        # up to 4 jackknife standard errors.
        coeffs = hypercube_coefficients(14, 13)
        assert coeffs.b2.to_float() > 0.0
        report = entropy_bound_general(coeffs)
        h_z, eps = report.h_poisson.nats, report.epsilon
        assert eps == pytest.approx(0.420, abs=1e-3)
        mc = hypercube_monte_carlo(14, 13, 16_384, master_seed=2012)
        slack = eps + 4.0 * mc.entropy_jackknife_se
        assert h_z - slack <= mc.entropy_plugin <= h_z + slack

    def test_dimension_limit_refused_before_allocating(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="2\\^n"):
                hypercube_monte_carlo(MC_MAX_DIMENSION + 1, 2, 4096, master_seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert MC_MAX_DIMENSION == 16
        assert peak < 1 << 20

    def test_replicate_ceiling_refused_at_once(self, deadline):
        assert MC_MAX_REPLICATES == 10**8
        with pytest.raises(ValueError, match="replicates"):
            hypercube_monte_carlo(3, 1, MC_MAX_REPLICATES + 1, master_seed=0)

    def test_validation(self):
        with pytest.raises(ValueError, match="2\\^n"):
            hypercube_monte_carlo(21, 2, 10, master_seed=0)
        with pytest.raises(ValueError):
            hypercube_monte_carlo(4, 5, 10, master_seed=0)
        with pytest.raises(ValueError):
            hypercube_monte_carlo(4, 2, 0, master_seed=0)

    def test_negative_seed_names_the_field(self):
        with pytest.raises(ValueError) as info:
            hypercube_monte_carlo(4, 2, 10, master_seed=-1)
        assert info.value.field == "master_seed"

    def test_note_disclaims_certificate_checking(self):
        mc = hypercube_monte_carlo(4, 4, 1_000, master_seed=0)
        assert "a(lambda)" in mc.note


class TestReproduceExample1:
    def test_first_case_values(self):
        case = reproduce_example1()[0]
        assert case.corollary.epsilon == pytest.approx(EX1_COROLLARY_EPS, rel=1e-12)
        assert case.proposition.epsilon == pytest.approx(
            EX1_PROPOSITION_EPS, rel=1e-12
        )
        assert case.best.theorem_id == "proposition1"
        assert case.best.point_estimate == pytest.approx(8.224, abs=2e-3)
        assert case.reference["corollary_epsilon_nats"] == 0.588

    def test_second_case_flags_unreproduced_figure(self):
        case = reproduce_example1()[1]
        assert case.moments.lam == pytest.approx(1e10 + 0.01, rel=1e-12)
        assert case.best.h_poisson.nats == pytest.approx(12.932, abs=1e-3)
        # The recomputed relative error is ~1%, far from the published 0.04%;
        # both figures are carried, with an explanatory note, unreconciled.
        assert case.best.relative_error > 10 * case.reference["relative_error"]
        assert "not reproduced" in case.reference["note"]

    def test_tol_reaches_the_entropy_routine(self):
        with pytest.raises(ValueError, match="tol"):
            reproduce_example1(tol=float("nan"))


@pytest.fixture(scope="module")
def rows():
    return reproduce_table1()


class TestReproduceTable1:
    def test_ten_rows(self, rows):
        assert len(rows) == 10

    def test_lambda_matches_reference_to_four_digits(self, rows):
        for row in rows:
            assert row.lam == pytest.approx(row.reference_lambda, rel=5e-4)

    def test_entropy_matches_reference_display(self, rows):
        for row in rows:
            assert row.entropy_nats == pytest.approx(
                row.reference_entropy_nats, abs=1e-3
            )

    def test_relative_error_matches_reference_display(self, rows):
        # The source displays 2 significant digits; match within 5% relative.
        for row in rows:
            assert row.relative_error == pytest.approx(
                row.reference_relative_error, rel=0.05
            )

    def test_all_conditions_satisfied(self, rows):
        for row in rows:
            assert all(c.satisfied for c in row.report.conditions)

    def test_tol_reaches_the_entropy_routine(self):
        # Every row takes the asymptotic route, whose value does not depend
        # on tol, so only a refused tol shows that it is passed on.
        with pytest.raises(ValueError, match="tol"):
            reproduce_table1(tol=float("nan"))
