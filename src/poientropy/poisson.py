"""Poisson and binomial primitives, including certified Poisson entropy.

The entropy of Z ~ Po(lam) in nats, H(Z) = -sum_k p_k ln p_k, has no closed
form.  Two evaluation routes are provided:

* :func:`poisson_entropy_series` sums -p_k ln p_k directly over a window
  lam +- c (sqrt(lam) + 1), so its cost is O(sqrt(lam)).  The pmf is built
  from cumulative sums of ln(lam / j) outward from the mode and normalised
  over the window, so no term is larger than the result and nothing cancels.
  Its certificate is a proven bound on the error: both tails (geometric
  ratio bounds), the normalisation, and an explicit float-rounding budget.
* :func:`poisson_entropy_asymptotic` uses the large-mean expansion
  H(Z) ~ 0.5 ln(2 pi e lam) - 1/(12 lam) - 1/(24 lam^2); its error field is
  the heuristic 1/lam^3 (or a few ulps of H, whichever is larger) and is
  labelled as such (the expansion's remainder is not controlled here).

:func:`poisson_entropy` dispatches between the two, and
:func:`chen_stein_residual` evaluates the characterising identity
lam E[f(Z+1)] - E[Z f(Z)], which vanishes exactly for Poisson Z.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .logspace import log_gamma

__all__ = [
    "EntropyValue",
    "poisson_log_pmf",
    "poisson_entropy_series",
    "poisson_entropy_asymptotic",
    "poisson_entropy",
    "binomial_entropy",
    "chen_stein_residual",
]

_LN_2PI = math.log(2.0 * math.pi)
_EPS = 2.0**-52  # twice the unit roundoff of a double

# Above this mean the series route is rejected as uneconomical; callers are
# steered to the asymptotic expansion instead.
SERIES_LAMBDA_CEILING = 1.0e7

# Dispatch point between series and asymptotic evaluation.  At 1000
# the expansion error ~ lam^-3 = 1e-9 is already far below display precision
# while the series cost is still sub-millisecond.
SERIES_ASYMPTOTIC_SWITCH = 1000.0


def _slot_init(cls):
    """Give the frozen, slotted dataclass ``cls`` (declared ``init=False``)
    its ``__init__``: the dataclass signature and defaults, each field stored
    through its slot's own setter, then ``__post_init__`` if the class has
    one.

    A frozen dataclass's own ``__init__`` calls ``object.__setattr__`` once
    per field; the slot setters are what that call ends in, without the
    name lookup.  The function is built once, when the class is.
    """
    scope, params, body = {}, [], ""
    for f in fields(cls):
        scope[f"_set_{f.name}"] = vars(cls)[f.name].__set__
        if f.default is MISSING:
            params.append(f.name)
        else:
            scope[f"_default_{f.name}"] = f.default
            params.append(f"{f.name}=_default_{f.name}")
        body += f"  _set_{f.name}(self, {f.name})\n"
    if hasattr(cls, "__post_init__"):
        body += "  self.__post_init__()\n"
    source = (
        f"def _make({', '.join(scope)}):\n"
        f" def __init__(self, {', '.join(params)}):\n{body}"
        " return __init__\n"
    )
    namespace = {}
    exec(source, {"__name__": cls.__module__}, namespace)
    init = namespace["_make"](**scope)
    init.__qualname__ = f"{cls.__qualname__}.__init__"
    init.__annotations__ = {f.name: f.type for f in fields(cls)} | {"return": None}
    cls.__init__ = init
    return cls


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class EntropyValue:
    """An entropy in nats together with an absolute-error certificate.

    ``certified_abs_error`` bounds the whole error of the returned value,
    float rounding included.  For the series route it is proven; for the
    asymptotic route it is a heuristic (see ``method``).  Neither field may
    be NaN; an infinite error is allowed, since it claims nothing.
    """

    nats: float
    certified_abs_error: float
    method: str = field(default="", compare=False)

    def __post_init__(self):
        if self.nats != self.nats:
            raise ValueError("nats must not be NaN")
        if not self.certified_abs_error >= 0.0:
            raise ValueError(f"certified_abs_error must be >= 0, got {self.certified_abs_error}")


class InputError(ValueError):
    """An argument outside its valid range; ``field`` names the argument."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


def _integer(raw, name: str) -> int:
    """``raw`` as an int; a bool, a string or a non-integral number is
    refused with an InputError naming ``name``, not truncated (30.0 is
    accepted as 30)."""
    if type(raw) is int:
        return raw
    try:
        value = int(raw)
    except (TypeError, ValueError, OverflowError):
        value = None
    if value is None or value != raw or isinstance(raw, (bool, np.bool_)):
        raise InputError(name, f"{name} must be an integer, got {raw!r}")
    return value


def _real(raw, name: str) -> float:
    """``raw`` as a float, an int beyond the float range as +-inf; a string
    or anything else that is not a real number is refused with an
    InputError naming ``name``."""
    if type(raw) is float:
        return raw
    if not isinstance(raw, numbers.Real):
        raise InputError(name, f"{name} must be a real number, got {raw!r}")
    try:
        return float(raw)
    except OverflowError:  # an int beyond the float range
        return math.inf if raw > 0 else -math.inf


def _check_lambda(lam: float) -> float:
    lam = _real(lam, "lam")
    if not (lam > 0.0) or math.isinf(lam):
        raise InputError("lam", f"Poisson mean must lie in (0, inf), got {lam}")
    return lam


def _check_tol(tol: float) -> float:
    tol = _real(tol, "tol")
    if not 0.0 < tol < math.inf:
        raise InputError("tol", f"tol must be finite and > 0, got {tol}")
    return tol


def _outward_cumsum(steps: np.ndarray, i: int) -> np.ndarray:
    """ln(p_k / p_i) from the log-ratios steps[k] = ln(p_(k+1) / p_k).

    Cumulative sums taken outward from index i.  With i the mode, the steps
    on each side share a sign, so no partial sum is larger than the final
    one and nothing cancels.
    """
    out = np.empty(steps.size + 1)
    out[i] = 0.0
    np.add.accumulate(steps[i:], out=out[i + 1:])
    if i:
        np.negative(np.add.accumulate(steps[i - 1::-1]), out=out[i - 1::-1])
    return out


def _log_pmf_ratios(lam: float, lo: int, hi: int) -> np.ndarray:
    """ln(p_k / p_m) for k = lo..hi, where m = floor(lam) clipped to [lo, hi].

    Built from the steps ln(p_j / p_(j-1)) = ln(lam / j), so there is no
    k ln(lam) - ln(k!) cancellation.
    """
    j = np.arange(lo + 1.0, hi + 1.0)  # float, so lam / j needs no cast
    if lam < 1.0:
        # ln(lam) and -ln(j) share a sign, so subtracting loses nothing,
        # whereas lam / j may underflow.
        steps = math.log(lam) - np.log(j)
    else:
        steps = np.log(lam / j)
    return _outward_cumsum(steps, min(max(int(lam), lo), hi) - lo)


def _normalised_entropy(log_w: np.ndarray, i: int) -> tuple:
    """(-sum p ln p, ln S) for p_k = w_k / S, w = exp(log_w), log_w[i] = 0."""
    w = np.exp(log_w)
    w[i] = 0.0  # the weight 1 at i enters through log1p
    rest = float(np.add.reduce(w))
    log_s = math.log1p(rest)
    # ndarray.dot and @ both end in the same BLAS dot; the method call is cheaper.
    return log_s - float(w.dot(log_w)) / (1.0 + rest), log_s


def poisson_log_pmf(lam: float, k: int) -> float:
    """ln P(Z = k) = k ln(lam) - lam - ln(k!) for Z ~ Po(lam)."""
    lam = _check_lambda(lam)
    if k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    if k == 0:
        return -lam
    return k * math.log(lam) - lam - log_gamma(k + 1)


def _entropy_tail(log_p_edge: float, log_x: float) -> tuple:
    """Bounds on the entropy terms and the mass beyond a window edge.

    ``log_p_edge`` is an upper bound on ln p at the edge, and ``log_x`` is
    ln x, where x > 1 is (edge + 1) / lam past the upper edge or lam / edge
    past the lower one.  With l = -ln p_edge >= 1, the term t = -p ln p
    changes by the factor (1 + ln x_k / l_k) / x_k at each step away from
    the window, which is at most q = (1 + ln x / l) / x < 1, so the tail of
    t is at most t_edge q / (1 - q).  Every -ln p there is at least l, so
    the tail mass is at most that bound over l.  Returns (entropy bound,
    mass bound).
    """
    ell = -log_p_edge
    if not ell >= 1.0:
        return math.inf, math.inf
    q = math.exp(-log_x) * (1.0 + log_x / ell)
    if q >= 1.0:
        return math.inf, math.inf
    entropy = math.exp(log_p_edge) * ell * q / (1.0 - q)
    return entropy, entropy / ell


def _window_entropy(lam: float, lo: int, hi: int) -> tuple:
    """(-sum p ln p over lo..hi normalised, truncation bound, rounding bound).

    Requires lo <= floor(lam) <= hi, lo < lam and hi + 1 > lam.  The
    window's weights w_k = p_k / p_m are normalised by their sum S, which
    puts 1/S in place of the true p_m, and 1/S >= p_m.
    """
    log_w = _log_pmf_ratios(lam, lo, hi)
    nats, log_s = _normalised_entropy(log_w, int(lam) - lo)

    # Tails beyond the window.  The pmf is increasing below the mode and
    # decreasing above it, and p_k <= w_k / S.
    # ln x as a difference of logs: (hi + 1) / lam overflows for tiny lam.
    log_lam = math.log(lam)
    first, last = float(log_w[0]), float(log_w[-1])
    tail, mass = _entropy_tail(last - log_s, math.log(hi + 1) - log_lam)
    if lo > 0:
        lower = _entropy_tail(first - log_s, log_lam - math.log(lo))
        tail, mass = tail + lower[0], mass + lower[1]
    if not mass <= 0.5:
        return nats, math.inf, 0.0
    # With the window's mass 1 - tau, the normalised sum is
    # H_win / (1 - tau) + ln(1 - tau), so H minus it lies between
    # -tau H_win / (1 - tau) and tail + tau / (1 - tau), and H_win <= H + 1.
    # The bounds are evaluated from rounded weights, hence the 1e-6 slack.
    truncation = max(tail + 2.0 * mass, 2.0 * mass * (nats + 2.0)) * (1.0 + 1e-6)

    # Rounding: each ln(p_k / p_m) is off by at most N eps (1 + max|ln w|)
    # (steps and cumulative sums, whose terms share a sign), plus a few eps
    # from exp; relative log-weight errors delta move the normalised entropy
    # by at most 2 H max|delta|; the two final sums and the division add
    # N eps (1 + H).
    n = log_w.size
    delta = n * _EPS * (1.0 - min(first, last)) + 8.0 * _EPS
    rounding = 2.0 * nats * delta + (n + 4) * _EPS * (1.0 + nats)
    return nats, truncation, rounding


def poisson_entropy_series(lam: float, tol: float = 1e-9) -> EntropyValue:
    """Entropy of Po(lam) by direct summation over a certified window.

    Sums -p_k ln p_k over k in lam +- c (sqrt(lam) + 1), widening c until
    the truncation bound (both tails and the normalisation) is at most
    tol / 2.  The certificate is that bound plus the explicit rounding
    budget of the sum.  Cost is O(sqrt(lam)).  Rejects means above
    ``SERIES_LAMBDA_CEILING`` (1e7), where the asymptotic route is
    accurate and cheaper.
    """
    lam = _check_lambda(lam)
    tol = _check_tol(tol)
    if lam > SERIES_LAMBDA_CEILING:
        raise InputError(
            "lam",
            f"series evaluation rejected for lam={lam:g} > ceiling {SERIES_LAMBDA_CEILING:g}; "
            "use poisson_entropy_asymptotic"
        )

    # A normal tail beyond c standard deviations is about e^(-c^2 / 2).
    spread = 1.0 + math.sqrt(2.0 * max(1.0, -math.log(tol)))
    while True:
        reach = spread * (math.sqrt(lam) + 1.0)
        lo = max(0, math.floor(lam - reach))
        hi = math.ceil(lam + reach)
        nats, truncation, rounding = _window_entropy(lam, lo, hi)
        if truncation <= 0.5 * tol:
            break
        spread *= 1.25
    return EntropyValue(nats, truncation + rounding, "series")


def _poisson_entropy_log_mean(log_lam: float) -> EntropyValue:
    """The large-mean expansion, driven by ln(lam) so lam itself may overflow.

    The expansion's next term is -19 / (360 lam^3), about 0.05 lam^-3, and
    the formula rounds to within 4 ulps of H, so max(lam^-3, 8 ulp(H))
    covers both.  It stays a heuristic: the terms after the next one are
    not bounded here.  Above lam ~ 1e5 the 8 ulps are the larger.
    """
    inv = math.exp(-log_lam)
    nats = 0.5 * (_LN_2PI + 1.0 + log_lam) - inv / 12.0 - inv * inv / 24.0
    err = max(inv**3, 8.0 * math.ulp(nats))
    return EntropyValue(nats, err, "asymptotic")


def poisson_entropy_asymptotic(lam: float) -> EntropyValue:
    """Large-mean expansion 0.5 ln(2 pi e lam) - 1/(12 lam) - 1/(24 lam^2).

    Requires lam >= 1.  The reported error max(1/lam^3, 8 ulp(H)) is a
    heuristic scale for the first omitted correction plus rounding, not a
    proven remainder bound; reports built on it flag the certificate as
    heuristic.
    """
    lam = _check_lambda(lam)
    if lam < 1.0:
        raise InputError("lam", f"asymptotic expansion requires lam >= 1, got {lam}")
    return _poisson_entropy_log_mean(math.log(lam))


def poisson_entropy(lam: float, tol: float = 1e-9) -> EntropyValue:
    """Entropy of Po(lam): series for lam <= SERIES_ASYMPTOTIC_SWITCH, expansion above.

    The series branch calls :func:`poisson_entropy_series`, which checks tol
    itself; the other branch checks it here and evaluates the expansion.
    """
    lam = _check_lambda(lam)
    if lam <= SERIES_ASYMPTOTIC_SWITCH:
        return poisson_entropy_series(lam, tol)
    _check_tol(tol)
    return _poisson_entropy_log_mean(math.log(lam))


def binomial_entropy(n: int, p: float) -> EntropyValue:
    """Entropy of Binomial(n, p) in nats by full enumeration over k = 0..n.

    These entropies increase with n towards H(Po(n p)) when the mean is held
    fixed (Poisson is the maximum-entropy law among Bernoulli-sum
    distributions of a given mean), which is exercised as a property test.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p == 0.0 or p == 1.0:
        return EntropyValue(nats=0.0, certified_abs_error=0.0, method="exact")

    # ln(p_j / p_(j-1)) = ln((n - j + 1) / j) + ln(p / (1 - p)), summed
    # outward from the mode and normalised over the whole support.
    j = np.arange(1, n + 1)
    steps = np.log((n + 1 - j) / j) + (math.log(p) - math.log1p(-p))
    mode = min(math.floor((n + 1) * p), n)
    nats = _normalised_entropy(_outward_cumsum(steps, mode), mode)[0]
    # Rounding estimate; comfortably inside the 1e-10 * n contract.
    return EntropyValue(
        nats=nats, certified_abs_error=1e-12 * (n + 1), method="exact"
    )


def chen_stein_residual(lam: float, f, cutoff: int) -> float:
    """sum_{k=0}^{cutoff} pmf(k) * (lam f(k+1) - k f(k)) for Z ~ Po(lam).

    The full expectation lam E[f(Z+1)] - E[Z f(Z)] is exactly zero for every
    bounded f; truncating at ``cutoff`` leaves a residual of magnitude at
    most sup|f| * (lam + cutoff) * P(Z > cutoff).  Requires cutoff >= 10 lam
    so that truncation, not the identity, dominates the result.
    """
    lam = _check_lambda(lam)
    if cutoff < 10.0 * lam:
        raise ValueError(
            f"cutoff must be >= 10 * lam, got cutoff={cutoff}, lam={lam}"
        )
    terms = []
    for k in range(cutoff + 1):
        pk = math.exp(poisson_log_pmf(lam, k))
        terms.append(pk * (lam * f(k + 1) - k * f(k)))
    return math.fsum(terms)
