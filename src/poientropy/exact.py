"""Exact oracle for sums of independent Bernoulli variables.

The distribution of W = X_1 + ... + X_n with independent X_i ~ Bern(p_i)
(the Poisson-binomial law) is the coefficient list of the product

    (P_W(0), ..., P_W(n)) = (1-p_1, p_1) * ... * (1-p_n, p_n).

``exact_distribution`` forms it in three stages.  The probabilities are
cut into blocks of width ceil(sqrt(n)) (the last one padded with p = 0,
whose factor (1, 0) multiplies exactly), and every block's polynomial is
built by the two-tap update vectorised across blocks.  Adjacent pieces are
then merged pairwise with ``np.convolve``, level by level, while the merged
pieces stay at or under ``_MAX_DOT`` entries, and the pieces left are folded
left to right.  That is about 2 sqrt(n) Python-level steps for at most
n^2 / 2 multiply-adds.

Every piece holds its true entries times 2^510, and keeps only the run from
its first to its last entry whose true value is at least 2^-1074, the
smallest subnormal, with that run's offset.  So at each merge an entry
whose true value is under 2^-1074 is dropped, and nothing else is; such
entries (most of them when the p_i are small, and both ends once n is in
the thousands) are never convolved again.  The scale keeps the kept
entries, and their products, out of the subnormal range, where x86 takes
microcode assists that made the convolutions several times slower.  Each
convolution's output is multiplied by 2^-510, exactly, and the final band
once more, which is the only step that can round into the subnormal range.
Nothing overflows: a piece's scaled mass is about 2^510, so a product's is
about 2^1020 < 2^1024.

Every term is non-negative, so there is no cancellation and no entry can go
negative.  This is deliberately the trustworthy route: every analytic bound
in the package is tested against the pmf, entropy and exact total variation
distance produced here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from .poisson import (
    EntropyValue,
    InputError,
    _check_lambda,
    _check_tol,
    _log_pmf_ratios,
    poisson_log_pmf,
)

__all__ = [
    "BernoulliSystem",
    "Pmf",
    "exact_distribution",
    "pmf_entropy",
    "tv_to_poisson",
]

# n above which the dense convolution is refused; the bound pipeline is the
# intended tool at that scale.
DEFAULT_MAX_N = 100_000

_SMALLEST_SUBNORMAL = math.ulp(0.0)

# Scale of every piece in ``exact_distribution``: a piece holds its true
# entries times _SCALE, and _FLOOR is the scaled image of 2^-1074, below
# which ``_band`` drops an end entry.
_SCALE = math.ldexp(1.0, 510)
_UNSCALE = math.ldexp(1.0, -510)
_FLOOR = math.ldexp(1.0, 510 - 1074)

# Longest piece the tree in ``exact_distribution`` builds, and so the longest
# dot product its convolutions take.  It sits well below the 10 000 terms
# above which OpenBLAS (0.3.31, as bundled with numpy 2.4) splits a dot
# across threads, and far above the roughly 280 taps from which
# np.convolve's per-output cost stops mattering.
_MAX_DOT = 2048


@dataclass(frozen=True)
class BernoulliSystem:
    """An independent Bernoulli system given by its success probabilities.

    The probabilities are copied into a read-only 1-d array and checked in
    one pass, and lam = sum p_i and sum p_i^2 are summed once, here.  A
    refusal is an InputError naming ``probs``.
    """

    probs: np.ndarray
    lam: float = field(init=False, repr=False, compare=False)
    sum_p_squared: float = field(init=False, repr=False, compare=False)

    def __init__(self, probs):
        try:
            probs = np.array(probs, dtype=np.float64, ndmin=1)
        except (TypeError, ValueError, OverflowError) as exc:
            raise InputError("probs", str(exc)) from None
        if probs.ndim != 1:
            raise InputError(
                "probs", f"probabilities must form a 1-d list, got shape {probs.shape}"
            )
        if probs.size == 0:
            raise InputError("probs", "a Bernoulli system needs at least one variable")
        # Both comparisons are false for NaN, and one of them for +-inf.
        if not ((probs >= 0.0) & (probs <= 1.0)).all():
            raise InputError("probs", "all probabilities must lie in [0, 1]")
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        object.__setattr__(self, "lam", float(np.add.reduce(probs)))
        object.__setattr__(self, "sum_p_squared", float(np.add.reduce(probs * probs)))

    @property
    def n(self) -> int:
        return int(self.probs.size)


@dataclass(frozen=True)
class Pmf:
    """Dense probability mass function on {0, ..., n}."""

    mass: np.ndarray

    def __init__(self, mass):
        mass = np.asarray(mass, dtype=np.float64)
        if mass.ndim != 1 or mass.size == 0:
            raise ValueError("pmf must be a non-empty 1-d array")
        # Both tests are written so that a NaN fails them.
        if not np.all(mass >= 0.0):
            raise ValueError("pmf entries must be non-negative")
        total = float(np.sum(mass))
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"pmf must sum to 1 within 1e-10, got {total!r}")
        object.__setattr__(self, "mass", mass)

    @property
    def support_size(self) -> int:
        return int(self.mass.size)


def _as_probs(system) -> np.ndarray:
    if isinstance(system, BernoulliSystem):
        return system.probs
    return BernoulliSystem(system).probs


def _band(values: np.ndarray, offset: int):
    """The run of the scaled piece ``values`` from its first to its last
    entry at or above ``_FLOOR``, and the offset of that run.

    Only end entries whose true value is under 2^-1074, the smallest
    subnormal, are dropped: the result could hold none of them.  The pmf of
    a Bernoulli sum is log-concave, so every entry inside the run is at
    least the smaller of its two ends."""
    if values[0] >= _FLOOR and values[-1] >= _FLOOR:
        return offset, values
    kept = np.flatnonzero(values >= _FLOOR)
    return offset + int(kept[0]), values[kept[0] : kept[-1] + 1]


def _merge(a: np.ndarray, b: np.ndarray, offset: int):
    """The band of the product of two scaled pieces, scaled back to 2^510.

    Both scaled masses are about 2^510, so the convolution's entries stay
    under 2^1023, and multiplying by 2^-510 is exact for every entry the
    band keeps."""
    product = np.convolve(a, b)
    product *= _UNSCALE
    return _band(product, offset)


def exact_distribution(system) -> Pmf:
    """Poisson-binomial pmf of a Bernoulli system by a band-limited tree fold.

    The ceil(sqrt(n))-wide block polynomials are merged pairwise while the
    merged pieces stay at or under ``_MAX_DOT`` entries, then folded left to
    right.  Every piece holds its true entries times 2^510, from the block
    build on, and after every convolution it is scaled back to 2^510 and cut
    to the band of entries whose true value is at least 2^-1074.  So each
    merge drops only entries under the smallest subnormal, no convolution
    takes a subnormal operand, and none can overflow (a piece's scaled mass
    is about 2^510, a product's about 2^1020).  The final band is scaled by
    2^-510 once, the one step that can round into the subnormal range.

    Determinism: np.convolve takes dot products as long as its shorter
    operand, and no tree operand or fold piece is longer than
    max(_MAX_DOT, ceil(sqrt(n)) + 1) entries, which is ``_MAX_DOT`` for n up
    to 2047^2 (so for every n up to ``DEFAULT_MAX_N``).  BLAS splits only
    far longer dots across threads, and the merge order depends on n and
    the band lengths alone, so on a given machine the result is the same
    bytes whatever the BLAS thread count.  A different BLAS build or CPU
    kernel may change it at rounding level, as may reordering the
    probabilities.
    """
    probs = _as_probs(system)
    n = probs.size
    if n > DEFAULT_MAX_N:
        raise ValueError(
            f"n={n} exceeds the exact-oracle cap {DEFAULT_MAX_N}; use the bound "
            "pipeline (chenstein/bounds modules) at this scale"
        )
    width = math.isqrt(n - 1) + 1  # ceil(sqrt(n))
    blocks = -(-n // width)
    padded = np.zeros(blocks * width, dtype=np.float64)
    padded[:n] = probs
    padded = padded.reshape(blocks, width).T.copy()
    complement = 1.0 - padded
    # Column b is block b's polynomial, lowest degree first.  Step j
    # multiplies every column by (1 - p, p), p from row j of ``padded``;
    # only the first j + 2 rows can be nonzero by then.
    poly = np.zeros((width + 1, blocks), dtype=np.float64)
    poly[0] = _SCALE
    shifted = np.empty((width, blocks), dtype=np.float64)
    for j in range(width):
        head = poly[: j + 2]
        np.multiply(head[:-1], padded[j], out=shifted[: j + 1])
        head *= complement[j]
        head[1:] += shifted[: j + 1]

    pieces = [_band(column, 0) for column in poly.T]
    while len(pieces) > 1:
        pairs = list(zip(pieces[0::2], pieces[1::2]))
        if max(a.size + b.size - 1 for (_, a), (_, b) in pairs) > _MAX_DOT:
            break
        merged = [_merge(a, b, i + j) for (i, a), (j, b) in pairs]
        pieces = merged + pieces[len(pairs) * 2 :]
    offset, band = pieces[0]
    for i, piece in pieces[1:]:
        offset, band = _merge(band, piece, offset + i)
    mass = np.zeros(n + 1, dtype=np.float64)
    mass[offset : offset + band.size] = band * _UNSCALE
    return Pmf(mass)


def pmf_entropy(pmf: Pmf) -> EntropyValue:
    """-sum m_k ln m_k in nats, with 0 ln 0 = 0."""
    mass = pmf.mass if isinstance(pmf, Pmf) else Pmf(pmf).mass
    # A zero entry meets ln of the smallest subnormal, which is finite, so
    # its term is exactly 0; every positive entry keeps its own log.
    logs = np.log(np.maximum(mass, _SMALLEST_SUBNORMAL))
    nats = -float(np.add.reduce(mass * logs))
    return EntropyValue(
        nats=nats,
        certified_abs_error=1e-14 * mass.size,
        method="exact",
    )


def tv_to_poisson(pmf: Pmf, lam: float, tol: float = 1e-12) -> float:
    """Exact d_TV between a finite-support pmf and Po(lam).

    On a countable space the total variation distance is half the L1
    distance.  Over the support {0..n} the difference is summed directly;
    beyond it the finite pmf is zero, so the remaining contribution is the
    Poisson tail P(Z > n).  That tail is accumulated by direct summation
    (never as 1 minus a near-1 partial sum, which would cancel) until the
    certified geometric remainder drops below ``tol``.
    """
    mass = pmf.mass if isinstance(pmf, Pmf) else Pmf(pmf).mass
    lam = _check_lambda(lam)
    tol = _check_tol(tol)
    n = mass.size - 1

    log_pois = _log_pmf_ratios(lam, 0, n) + poisson_log_pmf(lam, min(int(lam), n))
    on_support = float(np.add.reduce(np.abs(mass - np.exp(log_pois))))

    # P(Z > n): sum pmf terms upward, by ln p_j = ln p_(j-1) + ln(lam / j),
    # until the geometric remainder p_j r / (1 - r), r = lam / (j + 1) < 1,
    # is at most tol.
    log_p = float(log_pois[-1])
    tail_terms = []
    j = n
    while True:
        j += 1
        log_p += math.log(lam / j)
        tail_terms.append(math.exp(log_p))
        r = lam / (j + 1)
        if r < 1.0 and tail_terms[-1] * r <= tol * (1.0 - r):
            break
    tail = math.fsum(tail_terms)

    tv = 0.5 * (on_support + tail)
    # Mathematically tv <= 1; guard the few-ulp float excursions only.
    return min(1.0, max(0.0, tv))
