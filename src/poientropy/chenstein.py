"""Chen-Stein dependency coefficients and total-variation bounds.

For indicators {X_a} over an index set I with neighbourhoods of dependence
B_a (a in B_a required), the classical coefficients are

    b1 = sum_a sum_{b in B_a} p_a p_b
    b2 = sum_a sum_{b in B_a, b != a} p_ab,   p_ab = E[X_a X_b]
    b3 = sum_a s_a,  s_a = E| E[X_a - p_a | sigma(X_b : b outside B_a)] |

and the Arratia-Goldstein-Gordon theorem bounds the total variation
distance of W = sum X_a from Po(lam), lam = sum p_a, by

    d_TV <= (b1 + b2) (1 - e^-lam)/lam + b3 min(1, 1.4/sqrt(lam)).

For independent summands (B_a = {a}) this collapses to the Barbour-Hall
upper bound ((1 - e^-lam)/lam) sum p_i^2, which together with the matching
lower bound (1/32) min(1, 1/lam) sum p_i^2 brackets the exact distance
within a factor of 32.  Le Cam's older bound sum p_i^2 is kept for
comparison.

Sources: Arratia, Goldstein & Gordon (1989, 1990); Barbour & Hall (1984);
Le Cam (1960).  Total variation here is half the L1 distance; some older
tables use the un-halved convention and differ by a factor of 2.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .exact import BernoulliSystem
from .logspace import LogScalar, _log_sum_exp2, _saturating_exp, log1mexp
from .poisson import InputError, _check_lambda, _integer, _real, _slot_init

__all__ = [
    "DependencySpec",
    "dependency_spec_from_dict",
    "ChenSteinCoefficients",
    "MomentSummary",
    "TvBoundReport",
    "coefficients_from_spec",
    "coefficients_independent",
    "tv_upper_barbour_hall",
    "tv_lower_barbour_hall",
    "tv_upper_lecam",
    "tv_upper_agg",
    "tv_bound_report",
]

_LN2 = math.log(2.0)


@dataclass(frozen=True, eq=False)
class DependencySpec:
    """Marginals, neighbourhoods and pair moments for a dependent system.

    ``marginals`` gives p_a and ``neighborhoods`` B_a for each index a, each
    as a list or a map keyed by a (an int or its string).  ``pair_expectations``
    gives p_ab = E[X_a X_b] for ordered index pairs (a, b) with
    b in B_a \\ {a}, either as a mapping
    {(a, b): p_ab} or as [a, b, p_ab] triples; since that moment is
    symmetric, each unordered pair may be supplied once and is mirrored
    automatically.  ``b3_terms`` is either a sequence of the long-range
    terms s_a >= 0 or the literal string "zero" asserting the structural
    claim b3 = 0 (valid when indicators are independent of everything
    outside their neighbourhood).
    Computing s_a in general needs model-specific reasoning, so it is always
    caller-supplied.

    The spec is validated and stored once, as read-only CSR arrays:
    ``marginals`` (float64, length m); ``indptr`` and ``indices``, where
    ``indices[indptr[a]:indptr[a + 1]]`` is B_a sorted and without repeats;
    and ``pair_moments``, p_ab for each off-diagonal CSR entry (0.0 on the
    diagonal ones).  ``neighborhoods`` is a view derived from these arrays.
    """

    m: int
    marginals: np.ndarray
    indptr: np.ndarray
    indices: np.ndarray
    pair_moments: np.ndarray
    b3_terms: Union[np.ndarray, str]

    def __init__(self, m, marginals, neighborhoods, pair_expectations, b3_terms):
        m = _index_set_size(m)
        p = _float_array(_indexed_field(marginals, m, "marginals"), "marginals")
        if p.size != m:
            raise ValueError(f"expected {m} marginals, got {p.size}")
        bad = np.flatnonzero(~((p > 0.0) & (p <= 1.0)))
        if bad.size:
            a = int(bad[0])
            raise ValueError(f"marginal p_{a}={float(p[a])} must lie in (0, 1]")

        indptr, indices = _neighbourhood_csr(neighborhoods, m)
        moments = _pair_moments(pair_expectations, p, indptr, indices)

        if isinstance(b3_terms, str):
            if b3_terms != "zero":
                raise ValueError(
                    "b3_terms must be a sequence of s_a values or the literal 'zero'"
                )
            b3 = "zero"
        else:
            b3 = _float_array(b3_terms, "b3_terms")
            if b3.size != m:
                raise ValueError(f"expected {m} b3 terms, got {b3.size}")
            if not np.all(np.isfinite(b3) & (b3 >= 0.0)):
                raise ValueError("b3 terms s_a must be finite and >= 0")

        for name, value in (
            ("m", m), ("marginals", p), ("indptr", indptr), ("indices", indices),
            ("pair_moments", moments), ("b3_terms", b3),
        ):
            if isinstance(value, np.ndarray):
                value.flags.writeable = False
            object.__setattr__(self, name, value)

    @functools.cached_property
    def neighborhoods(self) -> tuple:
        """B_a for each index a, as frozensets."""
        flat = self.indices.tolist()
        bounds = self.indptr.tolist()
        return tuple(frozenset(flat[lo:hi]) for lo, hi in zip(bounds, bounds[1:]))


def _index_set_size(raw) -> int:
    """``raw`` as an index-set size m >= 1 by the rule of :func:`_integer`."""
    try:
        m = _integer(raw, "m")
    except InputError:
        m = 0
    if m < 1:
        raise InputError("m", f"index set size m must be an integer >= 1, got {raw!r}")
    return m


def _check_sum_p_squared(value: float) -> None:
    value = _real(value, "sum_p_squared")
    if not (math.isfinite(value) and value >= 0.0):
        raise InputError("sum_p_squared", f"sum_p_squared must be finite and >= 0, got {value}")


def _float_array(raw, name: str) -> np.ndarray:
    try:
        values = np.array(raw, dtype=np.float64)
    except (TypeError, ValueError, OverflowError):
        values = None
    if values is None or values.ndim != 1:
        raise ValueError(f"{name} must be a list of numbers")
    return values


def _neighbourhood_csr(neighborhoods, m: int) -> tuple:
    """(indptr, indices) of the neighbourhoods, each row sorted and deduplicated."""
    rows = _indexed_field(neighborhoods, m, "neighborhoods")
    if len(rows) < m:
        raise ValueError(f"missing neighbourhood for index {len(rows)}")
    try:
        sizes = np.fromiter(map(len, rows), dtype=np.int64, count=m)
        flat = np.fromiter(
            itertools.chain.from_iterable(rows), dtype=np.float64, count=int(sizes.sum())
        )
    except (TypeError, ValueError, OverflowError):
        raise ValueError("each neighbourhood must be a list of integer indices") from None

    owner = np.repeat(np.arange(m, dtype=np.int64), sizes)
    a = _first_non_integral(flat, owner, rows.__getitem__)  # an infinity is out of range below
    if a is not None:
        raise ValueError(f"neighbourhood B_{a} has non-integer indices")
    has_self = np.zeros(m, dtype=bool)
    has_self[owner[flat == owner]] = True
    lacking = np.flatnonzero(~has_self)[:1]
    stray = owner[(flat < 0) | (flat >= m)][:1]
    if lacking.size or stray.size:
        a = int(np.concatenate([lacking, stray]).min())
        if not has_self[a]:
            raise ValueError(f"neighbourhood B_{a} must contain {a} itself")
        raise ValueError(f"neighbourhood B_{a} has out-of-range indices")

    keys = np.sort(owner * m + flat.astype(np.int64))
    owner, flat = np.divmod(keys[_first_of_runs(keys)], m)
    indptr = np.zeros(m + 1, dtype=np.int64)
    np.cumsum(np.bincount(owner, minlength=m), out=indptr[1:])
    return indptr, flat


def _first_non_integral(values: np.ndarray, owner: np.ndarray, raw_group):
    """The first group holding an index that is not an integer, or None.

    ``values`` are the indices read as floats, ``owner`` the non-decreasing
    group of each, and ``raw_group(g)`` the raw indices of group g.  A
    fraction or NaN shows in the floats; a bool reads as 0 or 1, so only the
    groups holding 0 or 1 ahead of the first fraction are searched for one.
    """
    fractional = owner[np.trunc(values) != values][:1]
    low = owner[(values == 0.0) | (values == 1.0)]
    low = low[_first_of_runs(low)]
    if fractional.size:
        low = low[low < fractional[0]]
    for g in low.tolist():
        if bool in set(map(type, raw_group(g))):
            return g
    return int(fractional[0]) if fractional.size else None


def _first_of_runs(sorted_keys: np.ndarray) -> np.ndarray:
    """True at the first entry of each run of equal keys."""
    first = np.ones(sorted_keys.size, dtype=bool)
    first[1:] = sorted_keys[1:] != sorted_keys[:-1]
    return first


def _pair_table(pairs) -> tuple:
    """The [a, b, p_ab] entries of a mapping or of triples, and a (k, 3) array of them."""
    if isinstance(pairs, Mapping):
        try:
            pairs = [(*key, value) for key, value in pairs.items()]
        except TypeError:
            raise ValueError("pair_expectations keys must be (a, b) index pairs") from None
    try:
        if set(map(len, pairs)) <= {3}:
            flat = itertools.chain.from_iterable(pairs)
            return pairs, np.fromiter(flat, dtype=np.float64, count=3 * len(pairs)).reshape(-1, 3)
    except (TypeError, ValueError, OverflowError):
        pass
    for entry in pairs if isinstance(pairs, (list, tuple)) else ():
        try:
            np.fromiter(entry, dtype=np.float64, count=3)
            ok = len(entry) == 3
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValueError(f"pair_expectations entries must be [a, b, value], got {entry}")
    raise ValueError("pair_expectations must be a list of [a, b, value] entries")


def _pair_moments(pairs, p: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """p_ab for each off-diagonal CSR entry (0.0 on the diagonal), validated.

    Each supplied pair is keyed by min(a, b) m + max(a, b), which mirrors it;
    every off-diagonal entry is looked up among the sorted keys.
    """
    m = p.size
    entries, table = _pair_table(pairs)
    a_raw, b_raw, value = table.T
    inside = (a_raw >= 0) & (a_raw < m) & (b_raw >= 0) & (b_raw < m)
    if not inside.all():
        i = int(np.argmin(inside))
        raise ValueError(
            f"pair expectation ({a_raw[i]:g},{b_raw[i]:g}) has out-of-range indices"
        )
    i = _first_non_integral(
        table[:, :2].ravel(), np.repeat(np.arange(len(table)), 2),
        lambda i: itertools.islice(entries[i], 2),
    )
    if i is not None:
        raise ValueError(f"pair expectation {entries[i]} has non-integer indices")
    a, b = a_raw.astype(np.int64), b_raw.astype(np.int64)
    diagonal = np.flatnonzero(a == b)
    if diagonal.size:
        i = int(diagonal[0])
        raise ValueError(f"pair expectation given for diagonal ({a[i]},{a[i]})")
    cap = np.minimum(p[a], p[b])
    outside = np.flatnonzero(~((value >= 0.0) & (value <= cap + 1e-15)))
    if outside.size:
        i = int(outside[0])
        raise ValueError(
            f"p_({a[i]},{b[i]})={float(value[i])} must lie in "
            f"[0, min(p_a, p_b)={float(cap[i])}]"
        )

    keys = np.minimum(a, b) * m + np.maximum(a, b)
    order = np.argsort(keys, kind="stable")
    keys, value = keys[order], value[order]
    first = _first_of_runs(keys)
    clash = np.flatnonzero(~first[1:] & (value[1:] != value[:-1]))
    if clash.size:
        lo, hi = divmod(int(keys[clash[0] + 1]), m)
        raise ValueError(f"conflicting values for pair expectation {(lo, hi)}")
    keys, value = keys[first], value[first]

    owner = np.repeat(np.arange(m, dtype=np.int64), np.diff(indptr))
    off = owner != indices
    rows, cols = owner[off], indices[off]
    wanted = np.minimum(rows, cols) * m + np.maximum(rows, cols)
    keys = np.append(keys, np.iinfo(np.int64).max)  # a sentinel above every key
    at = np.searchsorted(keys, wanted)
    found = keys[at] == wanted
    if not found.all():
        i = int(np.flatnonzero(~found)[0])
        raise ValueError(
            f"missing pair_expectation for declared neighbour pair ({rows[i]},{cols[i]})"
        )
    moments = np.zeros(indices.size)
    moments[off] = value[at]
    return moments


def dependency_spec_from_dict(doc: Mapping) -> DependencySpec:
    """Build a DependencySpec from the documented JSON layout.

    Expected fields: ``m`` (int), ``marginals`` (list, or map of 0-based
    index to probability), ``neighborhoods`` (same keying, values are index
    lists), ``pair_expectations`` (list of [a, b, value] triples) and ``b3``
    (list of s_a values or the string "zero").  Every malformed document
    raises ValueError.
    """
    if not isinstance(doc, Mapping):
        raise ValueError("dependency spec document must be a JSON object")
    try:
        fields = [doc[k] for k in ("m", "marginals", "neighborhoods", "pair_expectations", "b3")]
    except KeyError as exc:
        raise ValueError(f"dependency spec document missing field {exc}") from None
    return DependencySpec(*fields)


def _indexed_field(raw, m: int, name: str):
    """The entries of ``raw`` for indices 0..m-1, from a list (or another
    sequence, returned as it is; an array is read as its nested lists) or a
    map keyed by each index as an int or its string."""
    if isinstance(raw, Mapping):
        out = []
        for a in range(m):
            if a in raw:
                out.append(raw[a])
            elif str(a) in raw:
                out.append(raw[str(a)])
            else:
                raise ValueError(f"{name} is missing index {a}")
        return out
    if isinstance(raw, np.ndarray):
        raw = raw.tolist()
    if isinstance(raw, str) or not isinstance(raw, Sequence):
        raise ValueError(f"{name} must be a list or an index map")
    return raw


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class ChenSteinCoefficients:
    """The (b1, b2, b3, lam) tuple plus the index-set size.

    All four quantities live in log space so the random-orientation model at
    n = 100 (with lam^2 ~ 1e50 against 2^-100) stays representable.  The
    index-set size is ``m`` for sizes that fit an int, or ``log2_m`` for
    huge index sets such as the 2^n cube vertices; exactly one is set.
    Each field is range-checked; a refusal is an InputError naming it.
    """

    b1: LogScalar
    b2: LogScalar
    b3: LogScalar
    lam: LogScalar
    m: Optional[int] = None
    log2_m: Optional[float] = None

    def __post_init__(self):
        for name, raw in zip(_COEFFICIENT_FIELDS, (self.b1, self.b2, self.b3, self.lam)):
            # A LogScalar's own fields are valid, so only the range is left.
            if type(raw) is not LogScalar or raw.sign < 0 or raw.logmag == math.inf:
                getattr(ChenSteinCoefficients, name).__set__(self, _coefficient(name, raw))
        if self.lam.sign == 0:
            raise InputError("lam", "lam must be positive")
        if (self.m is None) == (self.log2_m is None):
            raise InputError("m", "exactly one of m and log2_m must be given")
        if self.m is not None:
            ChenSteinCoefficients.m.__set__(self, _index_set_size(self.m))
        elif not 1.0 <= self.log2_m < math.inf:
            raise InputError("log2_m", f"log2_m must be finite and >= 1, got {self.log2_m}")

    @property
    def log_m(self) -> float:
        """ln of the index-set size."""
        if self.m is not None:
            return math.log(self.m)
        return self.log2_m * _LN2

    @property
    def log_m_minus_1(self) -> float:
        """ln(m - 1); the 1 is dropped once 2^log2_m overflows a float, far
        below log precision by then."""
        if self.m is not None:
            if self.m < 2:
                raise ValueError("m - 1 requires m >= 2")
            return math.log(self.m - 1)
        if self.log2_m >= 1024.0:
            return self.log2_m * _LN2
        return math.log(2.0**self.log2_m - 1.0)

    @property
    def log_m_plus_2(self) -> float:
        """ln(m + 2); for a size given as log2_m the +2 is dropped below float
        resolution."""
        if self.m is not None:
            return math.log(self.m + 2)
        log_m = self.log_m
        if log_m > 690.0:
            return log_m
        return log_m + math.log1p(2.0 * math.exp(-log_m))


_COEFFICIENT_FIELDS = ("b1", "b2", "b3", "lam")


def _coefficient(name: str, value) -> LogScalar:
    """``value`` as a finite, non-negative LogScalar, or an InputError naming
    ``name``; a real number is converted, anything else is refused."""
    if not isinstance(value, (LogScalar, numbers.Real)):
        raise InputError(name, f"{name} must be a real number, got {value!r}")
    if not isinstance(value, LogScalar) and value == value:  # not NaN
        value = LogScalar.from_float(value)
    if not isinstance(value, LogScalar) or value.sign < 0 or value.logmag == math.inf:
        raise InputError(name, f"{name} must be finite and non-negative, got {float(value)}")
    return value


def _log_sum(log_terms: np.ndarray) -> LogScalar:
    """The sum of e^x over ``log_terms`` as a LogScalar (-inf terms add 0).

    The terms are shifted by their maximum and added with math.fsum, so a
    term whose exponential underflows a float still counts.
    """
    hi = float(log_terms.max()) if log_terms.size else -math.inf
    if hi == -math.inf:
        return LogScalar.zero()
    # fsum reads a memoryview of the float64 buffer without making numpy scalars.
    return LogScalar.from_log(hi + math.log(math.fsum(memoryview(np.exp(log_terms - hi)))))


def coefficients_from_spec(spec: DependencySpec) -> ChenSteinCoefficients:
    """Evaluate the b1/b2/b3 double sums of a materialised dependency spec.

    Each sum is one log-sum-exp over the spec's arrays: b1 over
    ln p_a + ln p_b for every CSR entry, b2 over the positive pair moments,
    lam and b3 over their own terms.
    """
    log_p = np.log(spec.marginals)
    b1 = _log_sum(np.repeat(log_p, np.diff(spec.indptr)) + log_p[spec.indices])
    moments = spec.pair_moments
    b2 = _log_sum(np.log(moments[moments > 0.0]))
    if isinstance(spec.b3_terms, str):
        b3 = LogScalar.zero()
    else:
        s = spec.b3_terms
        b3 = _log_sum(np.log(s[s > 0.0]))
    return ChenSteinCoefficients(b1=b1, b2=b2, b3=b3, lam=_log_sum(log_p), m=spec.m)


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class MomentSummary:
    """First and second moment mass of an independent Bernoulli system.

    Only lam = sum p_i, sum p_i^2 and the index-set size m are needed by the
    independent-case bounds, so huge systems (n up to 1e12 in the arithmetic
    model) never have to be materialised.  A refusal is an InputError naming
    the field (``theta`` when sum_p_squared exceeds lam).
    """

    lam: float
    sum_p_squared: float
    m: int

    def __post_init__(self):
        _check_lambda(self.lam)
        _check_sum_p_squared(self.sum_p_squared)
        MomentSummary.m.__set__(self, _index_set_size(self.m))
        if self.theta > 1.0 + 1e-12:
            raise InputError(
                "theta",
                f"theta = sum_p_squared/lam = {self.theta} exceeds 1; "
                "not a probability system"
            )

    @property
    def theta(self) -> float:
        """Normalised second moment, theta = (sum p_i^2)/lam <= max p_i."""
        return self.sum_p_squared / self.lam

    @classmethod
    def from_probs(cls, probs) -> "MomentSummary":
        system = probs if isinstance(probs, BernoulliSystem) else BernoulliSystem(probs)
        return cls(lam=system.lam, sum_p_squared=system.sum_p_squared, m=system.n)


def coefficients_independent(system) -> ChenSteinCoefficients:
    """Coefficients for independent summands: B_a = {a}, so b1 = sum p_i^2
    and b2 = b3 = 0.  Takes a MomentSummary, a BernoulliSystem or the
    probabilities themselves."""
    moments = system if isinstance(system, MomentSummary) else MomentSummary.from_probs(system)
    return ChenSteinCoefficients(
        b1=LogScalar.from_float(moments.sum_p_squared),
        b2=LogScalar.zero(),
        b3=LogScalar.zero(),
        lam=LogScalar.from_float(moments.lam),
        m=moments.m,
    )


def log_bh_factor(log_lam: float) -> float:
    """ln((1 - e^-lam)/lam) from ln(lam)."""
    if log_lam > 6.62:  # lam > 750: 1 - e^-lam is exactly 1.0 in doubles
        return -log_lam
    return log1mexp(math.exp(log_lam)) - log_lam


def tv_upper_barbour_hall(lam: float, sum_p_squared: float) -> float:
    """Barbour-Hall upper bound ((1 - e^-lam)/lam) * sum p_i^2."""
    _check_lambda(lam)
    _check_sum_p_squared(sum_p_squared)
    if sum_p_squared == 0.0:
        return 0.0
    return math.exp(log_bh_factor(math.log(lam)) + math.log(sum_p_squared))


def tv_lower_barbour_hall(lam: float, sum_p_squared: float) -> float:
    """Barbour-Hall lower bound (1/32) min(1, 1/lam) * sum p_i^2."""
    _check_lambda(lam)
    _check_sum_p_squared(sum_p_squared)
    return (1.0 / 32.0) * min(1.0, 1.0 / lam) * sum_p_squared


def tv_upper_lecam(sum_p_squared: float) -> float:
    """Le Cam's bound: d_TV <= sum p_i^2 (may exceed 1; reported as-is)."""
    _check_sum_p_squared(sum_p_squared)
    return sum_p_squared


def log_tv_upper_agg(coeffs: ChenSteinCoefficients) -> float:
    """ln of the AGG bound (b1+b2)(1-e^-lam)/lam + b3 min(1, 1.4/sqrt(lam))."""
    log_lam = coeffs.lam.logmag
    b12 = coeffs.b1 + coeffs.b2
    log_12 = b12.logmag + log_bh_factor(log_lam) if b12.sign != 0 else -math.inf
    if coeffs.b3.sign == 0:
        return log_12
    log_3 = coeffs.b3.logmag + min(0.0, math.log(1.4) - 0.5 * log_lam)
    if log_12 == -math.inf:  # log_sum_exp of one part x is x + ln 1.0 = x
        return log_3
    return _log_sum_exp2(log_12, log_3)


def tv_upper_agg(coeffs: ChenSteinCoefficients) -> float:
    """Arratia-Goldstein-Gordon total variation upper bound.

    Returned unclamped: values above 1 are vacuous but faithful to the
    formula, and report builders annotate rather than clamp them.
    """
    return _saturating_exp(log_tv_upper_agg(coeffs))


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class TvBoundReport:
    """All total-variation bounds available for one system.

    The Barbour-Hall and Le Cam entries hold only for independent summands
    and are None unless (lam, sum_p_squared) were given, which asserts
    independence; ``agg_upper`` is None unless coefficients were given.
    ``method_notes`` records vacuous (> 1) values and the unclamped AGG
    figure.
    """

    lecam_upper: Optional[float]
    bh_upper: Optional[float]
    bh_lower: Optional[float]
    agg_upper: Optional[float]
    method_notes: str = field(default="", compare=False)


def tv_bound_report(
    lam: Optional[float] = None,
    sum_p_squared: Optional[float] = None,
    coeffs: Optional[ChenSteinCoefficients] = None,
) -> TvBoundReport:
    """Assemble every applicable TV bound for one system.

    Pass coefficients for any system, for the AGG bound alone.  Pass
    (lam, sum_p_squared) only for independent summands: the Barbour-Hall
    and Le Cam bounds they give do not hold for dependent ones, whose
    marginals can put the exact TV above them.  Pass both, for one
    independent system, to see all the bounds side by side.
    """
    if coeffs is None and (lam is None or sum_p_squared is None):
        raise ValueError("need either (lam, sum_p_squared) or coefficients")

    notes = []
    lecam = bh_up = bh_lo = agg = None
    if lam is not None and sum_p_squared is not None:
        lecam = tv_upper_lecam(sum_p_squared)
        bh_up = tv_upper_barbour_hall(lam, sum_p_squared)
        bh_lo = tv_lower_barbour_hall(lam, sum_p_squared)
    if coeffs is not None:
        agg = tv_upper_agg(coeffs)
        notes.append(f"agg_unclamped={agg!r}")
    if lecam is not None and lecam > 1.0:
        notes.append("lecam_upper > 1 is vacuous (d_TV <= 1 always)")
    if agg is not None and agg > 1.0:
        notes.append("agg_upper > 1 is vacuous (d_TV <= 1 always)")
    return TvBoundReport(lecam, bh_up, bh_lo, agg, "; ".join(notes))
