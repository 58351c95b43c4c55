"""Closed-form constructors and simulators for two worked models.

*Arithmetic system*: independent indicators with p_i = 2 a i for
i = 1..n, which has the closed moments lam = a n (n + 1) and
theta = 2 a (2n + 1)/3.  Used to exercise the independent-case bounds at
scales (n up to 1e12) where the sequence must never be materialised.

*Random orientations on the n-cube*: every one of the n 2^(n-1) edges of
{0,1}^n is oriented by an independent fair coin, and W counts the vertices
with exactly k edges pointing outward.  The 2^n indicators are
Bern(2^-n C(n,k)), pairwise dependent only across edges, giving the
closed-form Chen-Stein coefficients

    lam = C(n, k)
    b1  = 2^-n (n + 1) C(n, k)^2       (neighbourhoods include the vertex itself)
    b2  = n 2^(2-n) C(n-1, k) C(n-1, k-1)
    b3  = 0   (edges outside a vertex's neighbourhood are irrelevant to it)

with index-set size m = 2^n.  A bit-sliced Monte Carlo simulator (n <= 16)
validates the closed-form mean and the k <-> n-k symmetry.  It checks no
certificate itself, but theorem 4's hypotheses do hold at simulable sizes
for k near 0 or n: entropy_bound_general certifies (n, k) = (12, 11) with
eps = 1.04 nats, (14, 13) with 0.420, (14, 12) with 2.70 and (16, 15) with
0.159, so a simulated plug-in entropy can be held against the certificate.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .bounds import (
    EntropyBoundReport,
    MomentSummary,
    best_independent_bound,
    entropy_bound_general,
    entropy_bound_independent,
    entropy_bound_independent_sharp,
)
from .chenstein import ChenSteinCoefficients
from .logspace import LogScalar
from .poisson import InputError, _integer

__all__ = [
    "arithmetic_moments",
    "hypercube_coefficients",
    "hypercube_monte_carlo",
    "MonteCarloResult",
    "Example1Case",
    "Table1Row",
    "reproduce_example1",
    "reproduce_table1",
]

_LN2 = math.log(2.0)

# Vertices per counting block of the simulator: at most 255, so that a
# block's per-replicate uint8 match count cannot wrap.
_COUNT_ROWS = 64

# Replicates per RNG chunk.  Fixed as part of the determinism contract: each
# chunk draws from SeedSequence(master_seed, chunk_index), so results are
# bit-identical no matter how many threads process the chunks.
_MC_CHUNK = 4096

# Smallest n at which a second simulating thread pays for handing over the
# GIL at every numpy call: on a 2-vCPU host one 8192-replicate call at n = 9
# takes about 3.0 ms on one thread and 3.7 ms on two, at n = 10 6.0 and 4.8
# ms, at n = 11 14.7 and 9.7 ms.
_MC_PARALLEL_MIN_N = 10

# Each simulating thread holds _mc_adders(n)[2] scratch rows of 2^n words per
# 64 replicates (the outdegree counter's planes: 7 rows, 224 MiB, at n = 16)
# and one dimension's 2^(n-1) coin words (16 MiB).  One n = 16 chunk peaks at
# 0.29 GB of RSS and takes about a second; n = 17 would double both.
MC_MAX_DIMENSION = 16

# Largest accepted replicate count: 1e8 replicates already take hours at
# n = 16.
MC_MAX_REPLICATES = 10**8

# Largest accepted hypercube dimension for the closed forms: the exact
# binomials C(n, k) take about 10 ms at n = 1e4 but 0.57 s at 1e5 and 4.5 s
# at 3e5.
HYPERCUBE_MAX_N = 10_000


def _cube_order(n, k, limit: int, why: str = "") -> tuple:
    """(n, k) as ints with 1 <= n <= limit and 0 <= k <= n; ``why`` leads
    the message that refuses n."""
    n, k = _integer(n, "n"), _integer(k, "k")
    if not 1 <= n <= limit:
        raise InputError("n", f"{why}n must lie in 1..{limit}, got {n}")
    if not 0 <= k <= n:
        raise InputError("k", f"k must lie in 0..n, got k={k}, n={n}")
    return n, k


def arithmetic_moments(a: float, n: int) -> MomentSummary:
    """Closed-form moments of the system p_i = 2 a i, i = 1..n.

    lam = a n (n+1) and sum p_i^2 = theta lam with theta = 2 a (2n+1)/3.
    Requires an integer n >= 1 and 2 a n <= 1 so the largest p_i is a
    probability; a refusal is an InputError naming ``a`` or ``n``.  The
    products use exact integer factors, so nothing is lost to summation order
    even at n = 1e12.
    """
    n = _integer(n, "n")
    if n < 1:
        raise InputError("n", f"n must be >= 1, got {n}")
    if not a > 0.0:
        raise InputError("a", f"a must be > 0, got {a}")
    if 2.0 * a * n > 1.0 + 1e-15:
        raise InputError("a", f"2 a n = {2.0 * a * n} exceeds 1; p_n is not a probability")
    lam = a * (n * (n + 1))
    theta = 2.0 * a * (2 * n + 1) / 3.0
    return MomentSummary(lam=lam, sum_p_squared=theta * lam, m=n)


def hypercube_coefficients(n: int, k: int) -> ChenSteinCoefficients:
    """Closed-form Chen-Stein coefficients of the n-cube orientation model.

    Exact big-integer binomials feed the log-domain scalars, so n = 100
    (lam^2 ~ 1e50 against 2^-100) is routine.  The empty-binomial convention
    C(n-1, -1) = C(n-1, n) = 0 makes the k = 0 and k = n rows well defined
    with b2 = 0.  Requires integers 1 <= n <= HYPERCUBE_MAX_N and
    0 <= k <= n; a refusal is an InputError naming the field.
    """
    n, k = _cube_order(n, k, HYPERCUBE_MAX_N)
    # Each log is ln(exact integer) + j ln 2, one scalar per field.
    c_nk = math.comb(n, k)
    if k == 0 or k == n:
        b2 = LogScalar.zero()
    else:
        pairs = n * math.comb(n - 1, k) * math.comb(n - 1, k - 1)
        b2 = LogScalar.from_log(math.log(pairs) + (2 - n) * _LN2)
    return ChenSteinCoefficients(
        b1=LogScalar.from_log(math.log((n + 1) * c_nk * c_nk) - n * _LN2),
        b2=b2,
        b3=LogScalar.zero(),
        lam=LogScalar.from_log(math.log(c_nk)),
        log2_m=float(n),
    )


@dataclass(frozen=True)
class MonteCarloResult:
    """Empirical summary of simulated orientation counts."""

    n: int
    k: int
    replicates: int
    master_seed: int
    counts: np.ndarray = field(compare=False)
    mean_w: float
    mean_std_err: float
    pmf: np.ndarray = field(compare=False)
    entropy_plugin: float
    entropy_jackknife_se: float
    lam_closed_form: float
    note: str = field(default="", compare=False)


@functools.lru_cache(maxsize=None)
def _mc_adders(n: int) -> tuple:
    """Carry-save schedule of the simulator's outdegree counter at dimension n.

    Returns (steps, bits, rows).  Every dimension's coin plane joins column 0
    of a column-wise sum.  A column that reaches three planes is full-added
    in place: the sum stays in the column, the carry joins the next one and
    one row is freed.  After the last dimension a column left with two
    planes is half-added.  Column j then holds bit j of every outdegree.
    ``steps[d]`` is the scratch row that takes dimension d's plane and the
    adders that follow it, each a tuple of rows (carry, ..., sum): three for
    a full adder, two for a half adder.  ``bits[j]`` is the row of bit j and
    ``rows`` the most rows held at once.
    """
    columns, free, rows, steps = [[]], [], 0, []
    for d in range(n):
        if free:
            row = free.pop()
        else:
            row, rows = rows, rows + 1
        columns[0].append(row)
        adders = []
        for j, column in enumerate(columns):
            if len(column) == 3 or (d == n - 1 and len(column) == 2):
                adders.append(tuple(column))
                if len(column) == 3:
                    free.append(column[1])
                if j + 1 == len(columns):
                    columns.append([])
                columns[j + 1].append(column[0])
                columns[j] = [column[-1]]
        steps.append((row, tuple(adders)))
    return tuple(steps), tuple(column[0] for column in columns), rows


def _mc_scratch(n: int, lanes: int) -> np.ndarray:
    # One worker's outdegree planes for chunks of up to 64 * lanes replicates,
    # as rows of (vertex, lane) words; a chunk with fewer lanes uses the
    # leading words of each row.  The counter holds 1, 2, 3, 3, 4, 4, 5, 5, 5,
    # 5, 6, 6, 6, 6, 7, 7 rows at n = 1..16.  At n = 15 an order held to 6
    # rows would need 62 or more adder passes instead of 55.
    return np.empty((_mc_adders(n)[2], (1 << n) * lanes), dtype=np.uint64)


def _mc_chunk_counts(n, k, chunk_size, seed_seq, scratch):
    # Bit-sliced: bit j of every uint64 word belongs to replicate 64 * lane + j,
    # so each word operation below advances 64 replicates at once.
    rng = np.random.default_rng(seed_seq)
    size = 1 << n
    lanes = -(-chunk_size // 64)
    # The outdegree planes live in the worker's scratch, so no dimension and
    # no chunk maps fresh pages (they cost more than the word operations here).
    words = scratch[:, : size * lanes].reshape(-1, size, lanes)
    steps, bit_rows, _ = _mc_adders(n)
    for d, (row, adders) in enumerate(steps):
        # Raw 64-bit generator outputs (the words rng.bytes would give, read
        # as little-endian uint64): one fair coin per bit, one word per edge
        # and lane.  Drawn a dimension at a time, they are the words of one
        # (n, 2^(n-1), lanes) draw.  Edge e of dimension d joins the two
        # vertices whose index is e with a bit inserted at position d.
        edges = rng.integers(
            0, 1 << 64, size=(size >> (d + 1), 1 << d, lanes), dtype=np.uint64
        )
        # Orientation bit XOR endpoint bit = "points outward from this vertex":
        # the coin where bit d of the vertex is 0, its complement where it is 1.
        halves = words[row].reshape(size >> (d + 1), 2, 1 << d, lanes)
        np.copyto(halves[:, 0], edges)
        np.invert(edges, out=halves[:, 1])
        # In-place adders that need no temporary: the carry ends in a, the
        # sum in the last row.
        for adder in adders:
            if len(adder) == 3:
                a, b, c = (words[r] for r in adder)
                b ^= a
                a ^= c
                c ^= b
                a |= b
                a ^= c
            else:
                a, b = (words[r] for r in adder)
                b ^= a
                a |= b
                a ^= b
    # A vertex matches when every outdegree bit equals the same bit of k.
    for j, row in enumerate(bit_rows):
        if not (k >> j) & 1:
            np.invert(words[row], out=words[row])
    match = words[bit_rows[0]]
    for row in bit_rows[1:]:
        match &= words[row]
    # Count each replicate's matching vertices _COUNT_ROWS vertices at a time:
    # a block's unpacked bits stay small, and its uint8 sums cannot wrap.
    w = np.zeros(64 * lanes, dtype=np.int64)
    match = match.view(np.uint8)
    for row in range(0, size, _COUNT_ROWS):
        bits = np.unpackbits(match[row : row + _COUNT_ROWS], axis=1, bitorder="little")
        w += np.add.reduce(bits, axis=0, dtype=np.uint8)
    # Bits past chunk_size pad the last lane; they are not replicates.
    return np.bincount(w[:chunk_size], minlength=size + 1)


def hypercube_monte_carlo(
    n: int,
    k: int,
    replicates: int,
    master_seed: int,
    threads: int = 1,
) -> MonteCarloResult:
    """Simulate the orientation count W and summarise it empirically.

    Each replicate orients all n 2^(n-1) edges independently and counts the
    vertices with exactly k outward edges.  Replicates are processed in
    fixed-size chunks whose RNG streams derive from (master_seed,
    chunk_index), so the result is bit-identical for any ``threads`` value;
    below n = ``_MC_PARALLEL_MIN_N`` one thread runs them all.  Within a
    chunk the simulation is bit-sliced: bit j of each uint64 word is
    replicate j of its 64-replicate lane, and a word-wide carry-save counter
    of in-place full adders sums the outdegrees into one bit-plane per bit.
    At most one thread per CPU runs, since each holds its own scratch.
    Returns the empirical mean with its standard error, the empirical pmf,
    and the plug-in entropy with a jackknife standard error (plug-in bias is
    not quantified).  A refused argument raises an InputError naming it.
    """
    n, k = _cube_order(
        n, k, MC_MAX_DIMENSION, "simulation holds 2^n vertex words per 64 replicates; "
    )
    replicates = _integer(replicates, "replicates")
    master_seed = _integer(master_seed, "master_seed")
    threads = _integer(threads, "threads")
    if not 1 <= replicates <= MC_MAX_REPLICATES:
        raise InputError(
            "replicates", f"replicates must lie in 1..{MC_MAX_REPLICATES}, got {replicates}"
        )
    if master_seed < 0:
        raise InputError("master_seed", f"master_seed must be >= 0, got {master_seed}")
    if threads < 1:
        raise InputError("threads", f"threads must be >= 1, got {threads}")

    n_chunks = -(-replicates // _MC_CHUNK)
    # One worker per CPU at most: each holds its own scratch (224 MiB at n = 16).
    workers = (
        min(threads, n_chunks, os.cpu_count() or 1) if n >= _MC_PARALLEL_MIN_N else 1
    )

    def tally(first):
        # Worker ``first`` runs chunks first, first + workers, ... in one
        # scratch and adds each chunk's counts into its own total as the chunk
        # finishes.
        total = np.zeros((1 << n) + 1, dtype=np.int64)
        scratch = _mc_scratch(n, -(-min(_MC_CHUNK, replicates) // 64))
        for i in range(first, n_chunks, workers):
            size = min(_MC_CHUNK, replicates - i * _MC_CHUNK)
            seed_seq = np.random.SeedSequence(entropy=master_seed, spawn_key=(i,))
            total += _mc_chunk_counts(n, k, size, seed_seq, scratch)
        return total

    # Integer sums do not depend on order, so the counts are the same bytes
    # for every thread count.
    if workers == 1:
        counts = tally(0)
    else:
        # Imported here: concurrent.futures pulls in logging, which every other
        # caller of the library would pay for at import.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            counts = sum(pool.map(tally, range(workers)))

    total = int(counts.sum())
    support = np.arange(counts.size, dtype=np.float64)
    mean = float(np.dot(support, counts)) / total
    var = float(np.dot((support - mean) ** 2, counts)) / max(total - 1, 1)
    mean_se = math.sqrt(var / total)
    pmf = counts / total

    entropy, jack_se = _plugin_entropy_jackknife(counts)
    return MonteCarloResult(
        n=n,
        k=k,
        replicates=replicates,
        master_seed=master_seed,
        counts=counts,
        mean_w=mean,
        mean_std_err=mean_se,
        pmf=pmf,
        entropy_plugin=entropy,
        entropy_jackknife_se=jack_se,
        lam_closed_form=float(math.comb(n, k)),
        note=(
            "simulation validates the closed-form mean and symmetry and checks "
            "no certificate; theorem 4's hypothesis a(lambda) <= 1/2 holds "
            "only for k near 0 or n (e.g. n = 14, k = 13: eps = 0.42 nats), "
            "where entropy_plugin can be compared with entropy_bound_general"
        ),
    )


def _plugin_entropy_jackknife(counts: np.ndarray):
    """Plug-in entropy of a count vector and its leave-one-out jackknife SE.

    Deleting one observation of value w only changes the w count, so the
    n distinct leave-one-out entropies are computed from the count sums in
    O(support) rather than O(replicates).
    """
    total = int(counts.sum())
    nz = counts[counts > 0].astype(np.float64)
    h_plugin = math.log(total) - float(np.dot(nz, np.log(nz))) / total
    if total < 2:
        return h_plugin, 0.0

    s_full = float(np.dot(nz, np.log(nz)))
    c = nz
    s_wo = s_full - c * np.log(c) + np.where(c > 1, (c - 1) * np.log(np.maximum(c - 1, 1)), 0.0)
    h_wo = math.log(total - 1) - s_wo / (total - 1)
    h_bar = float(np.dot(c, h_wo)) / total
    var_jack = (total - 1) / total * float(np.dot(c, (h_wo - h_bar) ** 2))
    return h_plugin, math.sqrt(var_jack)


# ---------------------------------------------------------------------------
# Reference reproductions: published figures are carried alongside the
# recomputed ones so reports can print them side by side.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Example1Case:
    """One parameterisation of the arithmetic system with reference figures."""

    a: float
    n: int
    moments: MomentSummary
    corollary: EntropyBoundReport
    proposition: EntropyBoundReport
    best: EntropyBoundReport
    reference: dict = field(compare=False)


_EXAMPLE1_REFERENCE = (
    {
        "h_poisson_nats": 8.327,
        "corollary_epsilon_nats": 0.588,
        "proposition_epsilon_nats": 0.205,
        "point_estimate_nats": 8.224,
        "relative_error": 0.012,
    },
    {
        "h_poisson_nats": 12.932,
        "point_estimate_nats": 12.932,
        "relative_error": 0.0004,
        "note": (
            "the published 0.04% relative error is not reproduced by direct "
            "evaluation of these bound formulas (recomputation gives about "
            "1%); both figures are reported without reconciliation"
        ),
    },
)


def reproduce_example1(tol: float = 1e-9) -> list:
    """Run both arithmetic-system cases through the independent bounds.

    ``tol`` is the certified tolerance of every Poisson-entropy evaluation.
    """
    cases = []
    for (a, n), ref in zip(((1e-10, 10**8), (1e-14, 10**12)), _EXAMPLE1_REFERENCE):
        moments = arithmetic_moments(a, n)
        cases.append(
            Example1Case(
                a=a,
                n=n,
                moments=moments,
                corollary=entropy_bound_independent(moments, tol=tol),
                proposition=entropy_bound_independent_sharp(moments, tol=tol),
                best=best_independent_bound(moments, tol=tol),
                reference=dict(ref),
            )
        )
    return cases


@dataclass(frozen=True)
class Table1Row:
    """One (n, k) row of the orientation-model benchmark."""

    n: int
    k: int
    lam: float
    entropy_nats: float
    relative_error: float
    report: EntropyBoundReport = field(compare=False)
    reference_lambda: float = field(compare=False, default=math.nan)
    reference_entropy_nats: float = field(compare=False, default=math.nan)
    reference_relative_error: float = field(compare=False, default=math.nan)
    reference_format: str = field(compare=False, default="fraction")


# (n, k, lambda, H in nats, relative error, display format of the source).
_TABLE1_REFERENCE = (
    (30, 27, 4.060e3, 5.573, 0.16e-2, "percent"),
    (30, 26, 2.741e4, 6.528, 0.94e-2, "percent"),
    (30, 25, 1.425e5, 7.353, 4.33e-2, "percent"),
    (50, 48, 1.225e3, 4.974, 1.5e-9, "fraction"),
    (50, 44, 1.589e7, 9.710, 1.0e-5, "fraction"),
    (50, 40, 1.027e10, 12.945, 4.8e-3, "fraction"),
    (100, 95, 7.529e7, 10.487, 1.6e-19, "fraction"),
    (100, 85, 2.533e17, 21.456, 2.6e-10, "fraction"),
    (100, 75, 2.425e23, 28.342, 1.9e-4, "fraction"),
    (100, 70, 2.937e25, 30.740, 2.1e-2, "percent"),
)


def reproduce_table1(tol: float = 1e-9) -> list:
    """Recompute all ten benchmark rows of the orientation model.

    ``tol`` is the certified tolerance of every Poisson-entropy evaluation.
    Every row satisfies the certificate hypotheses; a ConditionViolated here
    would mean the closed forms are wrong, so it is allowed to propagate.
    """
    rows = []
    for n, k, ref_lam, ref_h, ref_rel, ref_fmt in _TABLE1_REFERENCE:
        coeffs = hypercube_coefficients(n, k)
        report = entropy_bound_general(coeffs, tol=tol)
        rows.append(
            Table1Row(
                n=n,
                k=k,
                lam=coeffs.lam.to_float(),
                entropy_nats=report.h_poisson.nats,
                relative_error=report.relative_error,
                report=report,
                reference_lambda=ref_lam,
                reference_entropy_nats=ref_h,
                reference_relative_error=ref_rel,
                reference_format=ref_fmt,
            )
        )
    return rows
