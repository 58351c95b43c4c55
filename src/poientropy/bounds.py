"""Certified bounds on |H(Z) - H(W)| for Poisson approximation of entropy.

W is a sum of (possibly dependent, non-identically distributed) Bernoulli
indicators over an index set of size m, Z ~ Po(lam) has the same mean, and
entropies are in nats.  With the Chen-Stein coefficients b1, b2, b3 of
:mod:`poientropy.chenstein`, define

    a(lam) = 2 [ (b1 + b2) (1 - e^-lam)/lam + b3 min(1, 1.4/sqrt(lam)) ]
    b(lam) = [ (lam ln(e/lam))_+ + lam^2 + (6 ln(2 pi) + 1)/12 ]
             * exp( -[lam + (m - 1) ln((m - 1)/(lam e))] )

(a is twice the Arratia-Goldstein-Gordon total-variation bound; b controls
the truncation of the Poisson law to a finite support).  Then, whenever
a(lam) <= 1/2 and lam <= m - 1,

    |H(Z) - H(W)| <= a(lam) ln((m + 2)/a(lam)) + b(lam).

For independent summands two one-sided refinements apply (the Poisson law
maximises entropy among Bernoulli sums of a given mean, so H(Z) >= H(W)):
with c = ((1 - e^-lam)/lam) sum p_i^2 <= 1/4 and lam <= m - 1,

    0 <= H(Z) - H(W) <= 2c ln((m + 2)/(2c)) + b(lam)

and, sharper when theta = (sum p_i^2)/lam is small,

    0 <= H(Z) - H(W) <= g ln((m + 2)/g) + b(lam),
    g = 2 theta min(1 - e^-lam, 3/(4e (1 - sqrt(theta))^{3/2})),

valid when additionally g <= 1/2.  The sharpened coefficient improves on 2c
by at most the factor 3/(4e) ~ 0.276 (theta -> 0, lam -> inf) and reduces
to it when the min saturates.

Each rule so certifies gap_low <= H(Z) - H(W) <= eps, where eps is its
right-hand side and gap_low = -eps (two-sided, theorem 4) or 0 (one-sided,
the refinements).  Its report encloses H(W) in [H(Z) - eps, H(Z) - gap_low],
takes the midpoint H(Z) - (eps + gap_low)/2 as the point estimate, and the
half-width over the midpoint, ((eps - gap_low)/2)/midpoint, as the relative
error, with its natural log.

Condition failures raise structured errors rather than clamping: outside
their hypotheses these inequalities simply say nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Callable, Sequence

from .chenstein import (
    ChenSteinCoefficients,
    MomentSummary,
    log_bh_factor,
    log_tv_upper_agg,
)
from .logspace import _log_sum_exp2, _saturating_exp, log_sum_exp
from .poisson import (
    EntropyValue,
    _check_tol,
    _poisson_entropy_log_mean,
    _slot_init,
    poisson_entropy,
)

__all__ = [
    "MomentSummary",
    "ConditionCheck",
    "ConditionViolated",
    "NoApplicableBound",
    "EntropyBoundReport",
    "g_of_p",
    "entropy_bound_general",
    "entropy_bound_independent",
    "entropy_bound_independent_sharp",
    "best_independent_bound",
]

_LN2 = math.log(2.0)
_LN_HALF = -_LN2
# ln((6 ln(2 pi) + 1) / 12), the log of the truncation bracket's constant term.
_LOG_BRACKET_CONST = math.log((6.0 * math.log(2.0 * math.pi) + 1.0) / 12.0)

RULE_GENERAL = "theorem4"
RULE_INDEPENDENT = "corollary1"
RULE_INDEPENDENT_SHARP = "proposition1"

_SATISFIED = attrgetter("satisfied")


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class ConditionCheck:
    """One recorded hypothesis check: ``name`` must not exceed ``required``."""

    name: str
    required: float
    actual: float
    satisfied: bool


class _FailedChecks(ValueError):
    """Base of the refusals: keeps ``checks`` and lists the failed ones.

    ``args`` is ``(checks,)``, so a refusal pickles and copies; the message
    is formatted only when it is read.  A failed check whose actual value
    does not exceed its requirement was refused by a rounding margin, and
    its text says so.
    """

    headline = ""

    def __init__(self, checks: Sequence[ConditionCheck]):
        self.checks = list(checks)
        super().__init__(self.checks)

    def __str__(self) -> str:
        detail = "; ".join(
            f"{c.name} <= {c.required:g} "
            + ("not certified within the rounding margin" if c.actual <= c.required else "violated")
            + f" (actual {c.actual:g})"
            for c in self.checks
            if not c.satisfied
        )
        return f"{self.headline}: {detail}"


class ConditionViolated(_FailedChecks):
    """A bound's hypothesis fails; the bound is inapplicable, not clamped."""

    headline = "condition violated"


class NoApplicableBound(_FailedChecks):
    """Neither independent-case bound applies to the given moments."""

    headline = "no applicable bound"


@_slot_init
@dataclass(frozen=True, slots=True, init=False)
class EntropyBoundReport:
    """A certified enclosure of H(W) around the Poisson entropy H(Z).

    Rule ``theorem_id`` certifies gap_low <= H(Z) - H(W) <= epsilon, with
    ``epsilon = a_term + b_term`` and gap_low = -epsilon for a two-sided rule
    or 0 for a one-sided one, as ``convention`` says.  ``interval`` is
    [H(Z) - epsilon, H(Z) - gap_low], ``point_estimate`` its midpoint and
    ``relative_error`` its half-width over the midpoint (infinite, with a
    note, when the midpoint is not positive).  The *_log fields carry
    natural logs of quantities that may underflow a float (b_term routinely
    does); ``relative_error_log`` is that of ``relative_error``.
    """

    theorem_id: str
    convention: str
    lam: float
    h_poisson: EntropyValue
    a_term: float
    b_term: float
    epsilon: float
    interval: tuple
    point_estimate: float
    relative_error: float
    conditions: tuple
    a_term_log: float = field(default=-math.inf, compare=False)
    b_term_log: float = field(default=-math.inf, compare=False)
    epsilon_log: float = field(default=-math.inf, compare=False)
    relative_error_log: float = field(default=-math.inf, compare=False)
    notes: str = field(default="", compare=False)


def _log_b(log_lam: float, log_m1: float) -> float:
    """ln b(lam) from ln(lam) and ln(m - 1); -inf once the exponent overflows.

    Kept in log space because the routine underflow (exponents like -1e8 for
    the worked models) would otherwise lose its value.  When m - 1 < lam e
    the exponent turns positive and the (possibly huge) value the formula
    gives is returned.
    """
    if log_lam < 1.0:  # lam < e, so (lam ln(e/lam))_+ is positive
        log_bracket = log_sum_exp(
            [2.0 * log_lam, _LOG_BRACKET_CONST, log_lam + math.log(1.0 - log_lam)]
        )
    else:
        log_bracket = _log_sum_exp2(2.0 * log_lam, _LOG_BRACKET_CONST)

    # Exponent lam + (m-1) (ln(m-1) - ln(lam) - 1), with overflow handled
    # sign-by-sign so huge m degrades to b = 0 rather than NaN.
    lam_f = _saturating_exp(log_lam)
    m1_f = _saturating_exp(log_m1)
    paren = log_m1 - log_lam - 1.0
    if math.isinf(m1_f):
        second = 0.0 if paren == 0.0 else math.copysign(math.inf, paren)
    else:
        second = m1_f * paren
    if math.isinf(lam_f) and second == -math.inf:
        exponent = -math.inf
    else:
        exponent = lam_f + second

    if exponent == math.inf:
        return -math.inf
    return log_bracket - exponent


def _main_term(log_coeff: float, log_m2: float) -> tuple:
    """x ln((m+2)/x) and its log for a log-domain coefficient x <= 1/2.

    The x -> 0 limit is 0, which is also what the formula must return when
    the coefficient underflows completely (b1 = b2 = b3 = 0).
    """
    if log_coeff == -math.inf:
        return 0.0, -math.inf
    log_term = log_coeff + math.log(log_m2 - log_coeff)
    return _saturating_exp(log_term), log_term


def _entropy(lam: float, log_lam: float, tol: float) -> EntropyValue:
    """H(Z); a mean that overflows a float is evaluated from ln(lam)."""
    if math.isinf(lam):
        _check_tol(tol)
        return _poisson_entropy_log_mean(log_lam)
    return poisson_entropy(lam, tol)


def _certify(
    rules: Sequence[tuple],
    checks: tuple,
    lam: float,
    log_lam: float,
    log_m1: float,
    log_m2_of: Callable[[], float],
    tol: float,
    refusal: type,
) -> EntropyBoundReport:
    """The report of the smallest certificate among ``rules`` whose checks hold.

    Each rule is an entry (rule id, ln x, checks, two-sided) whose epsilon
    is x ln((m+2)/x) + b(lam); a tie in epsilon goes to the earlier entry.
    ``checks`` holds every check of every rule, each once.  If no rule
    applies, raises ``refusal`` with them before any other work; otherwise
    ln(m + 2) (from ``log_m2_of()``), b(lam) and H(Z) are evaluated once for
    all the rules that do.
    """
    applicable = [rule for rule in rules if all(map(_SATISFIED, rule[2]))]
    if not applicable:
        raise refusal(checks)
    log_m2 = log_m2_of()
    log_b = _log_b(log_lam, log_m1)
    b_term = _saturating_exp(log_b)
    best = None
    for rule_id, log_coeff, rule_checks, two_sided in applicable:
        a_term, a_term_log = _main_term(log_coeff, log_m2)
        eps = a_term + b_term
        if best is None or eps < best[0]:
            best = eps, a_term, a_term_log, rule_id, rule_checks, two_sided
    eps, a_term, a_term_log, rule_id, rule_checks, two_sided = best
    eps_log = _log_sum_exp2(a_term_log, log_b)

    # The enclosure of gap_low <= H(Z) - H(W) <= eps: the interval
    # [H(Z) - eps, H(Z) - gap_low], its midpoint H(Z) - (eps + gap_low)/2 and
    # its half-width (eps - gap_low)/2.  A two-sided rule (gap_low = -eps)
    # sets the shift 0 and the half-width eps directly, since eps - eps is
    # NaN at eps = inf and 2 eps overflows above half the float ceiling.
    if two_sided:
        convention, gap_low, shift, half, log_half = "two-sided-centered", -eps, 0.0, eps, eps_log
    else:
        convention, gap_low = "one-sided-midpoint", 0.0
        shift = half = 0.5 * eps
        log_half = eps_log - _LN2
    h = _entropy(lam, log_lam, tol)
    nats = h.nats
    point = nats - shift
    notes = ""
    if point > 0.0:
        rel_log = log_half - math.log(point)
        rel = half / point if half > 0.0 else _saturating_exp(rel_log)
    else:
        rel, rel_log, notes = math.inf, math.inf, "bound is vacuous (wider than H(Z))"
    # Positional, in field order: binding sixteen keywords costs more.
    return EntropyBoundReport(
        rule_id, convention, lam, h, a_term, b_term, eps, (nats - eps, nats - gap_low), point,
        rel, rule_checks, a_term_log, log_b, eps_log, rel_log, notes,
    )


def entropy_bound_general(
    coeffs: ChenSteinCoefficients, tol: float = 1e-9
) -> EntropyBoundReport:
    """Two-sided certificate |H(Z) - H(W)| <= a ln((m+2)/a) + b.

    Applies to dependent systems through their Chen-Stein coefficients.
    Hypotheses a(lam) <= 1/2 and lam <= m - 1 are checked and recorded;
    violation raises :class:`ConditionViolated` naming the failed
    inequality and its actual value.
    """
    log_tv = log_tv_upper_agg(coeffs)
    log_a = _LN2 + log_tv
    a_value = 2.0 * _saturating_exp(log_tv)  # a(lambda) = 2 tv_upper_agg(coeffs)
    lam = coeffs.lam.to_float()
    # ln(m - 1) = ln 0 at m = 1, where the check lam <= m - 1 below refuses.
    log_lam, log_m1 = coeffs.lam.logmag, -math.inf if coeffs.m == 1 else coeffs.log_m_minus_1
    # ln lam and ln(m - 1) each carry up to an ulp of rounding, so nearly
    # equal lam and m - 1 can share one log.  Since ulp(x) <= 2**-52 |x|, the
    # margin spans at least one ulp of each log: it refuses such a tie (and
    # so every exact tie but ln 1 = 0) rather than certify lam > m - 1.
    margin = 2**-52 * (abs(log_lam) + abs(log_m1))
    checks = (
        ConditionCheck("a(lambda)", 0.5, a_value, log_a <= _LN_HALF),
        ConditionCheck("lambda", _saturating_exp(log_m1), lam, log_lam <= log_m1 - margin),
    )
    return _certify(
        ((RULE_GENERAL, log_a, checks, True),), checks,
        lam, log_lam, log_m1, lambda: coeffs.log_m_plus_2, tol, ConditionViolated,
    )


def g_of_p(moments: MomentSummary) -> float:
    """Sharpened coefficient g = 2 theta min(1 - e^-lam, 3/(4e (1-sqrt(theta))^{3/2})).

    Degenerates at theta >= 1 (the (1 - sqrt(theta))^{3/2} branch vanishes),
    which is rejected as a domain error.
    """
    theta = moments.theta
    if theta >= 1.0:
        raise ValueError(f"g is undefined for theta >= 1, got theta={theta}")
    if theta == 0.0:
        return 0.0
    branch_tv = -math.expm1(-moments.lam)
    branch_sharp = 3.0 / (4.0 * math.e * (1.0 - math.sqrt(theta)) ** 1.5)
    return 2.0 * theta * min(branch_tv, branch_sharp)


def _independent_bound(
    rules: tuple, moments: MomentSummary, tol: float, refusal: type
) -> EntropyBoundReport:
    """:func:`_certify` over the independent-case ``rules``, both one-sided;
    a tie goes to the plain rule.

    Both rules need c = ((1 - e^-lam)/lam) sum p_i^2 <= 1/4 and
    lam <= m - 1; the sharpened rule adds g <= 1/2 (and theta < 1).
    ln(lam), ln(m - 1) and ln(m + 2) are taken by the same ``math.log``
    calls as ``coefficients_independent``'s.
    """
    log_lam = math.log(moments.lam)
    if moments.sum_p_squared == 0.0:
        log_c = -math.inf
    else:
        log_c = math.log(moments.sum_p_squared) + log_bh_factor(log_lam)
    c = _saturating_exp(log_c)
    m = moments.m
    try:
        limit = float(m - 1)
    except OverflowError:  # m - 1 beyond the float range
        limit = math.inf
    checks = (
        ConditionCheck("tv_factor_sum_p2", 0.25, c, log_c <= math.log(0.25)),
        # An exact comparison: a float against an int compares their values.
        ConditionCheck("lambda", limit, moments.lam, moments.lam <= m - 1),
    )
    entries = []
    if RULE_INDEPENDENT in rules:
        entries.append((RULE_INDEPENDENT, _LN2 + log_c, checks, False))
    if RULE_INDEPENDENT_SHARP in rules:
        theta_ok = moments.theta < 1.0
        g = g_of_p(moments) if theta_ok else math.inf
        checks += (ConditionCheck("g", 0.5, g, theta_ok and g <= 0.5),)
        log_g = math.log(g) if g > 0.0 else -math.inf
        entries.append((RULE_INDEPENDENT_SHARP, log_g, checks, False))
    return _certify(
        entries, checks, moments.lam, log_lam,
        -math.inf if m == 1 else math.log(m - 1), lambda: math.log(m + 2), tol, refusal,
    )


def entropy_bound_independent(
    moments: MomentSummary, tol: float = 1e-9
) -> EntropyBoundReport:
    """One-sided certificate 0 <= H(Z) - H(W) <= 2c ln((m+2)/(2c)) + b.

    The caller asserts independence of the summands by calling this; only
    the moment summary is needed.  Hypotheses: c <= 1/4 and lam <= m - 1.
    """
    return _independent_bound((RULE_INDEPENDENT,), moments, tol, ConditionViolated)


def entropy_bound_independent_sharp(
    moments: MomentSummary, tol: float = 1e-9
) -> EntropyBoundReport:
    """One-sided certificate with the sharpened coefficient g.

    Requires the plain independent-case hypotheses (c <= 1/4, lam <= m - 1)
    plus g <= 1/2 and theta < 1.
    """
    return _independent_bound((RULE_INDEPENDENT_SHARP,), moments, tol, ConditionViolated)


def best_independent_bound(
    moments: MomentSummary, tol: float = 1e-9
) -> EntropyBoundReport:
    """The smaller of the two independent-case certificates that apply.

    Ties go to the plain bound (the sharpened coefficient reduces to it when
    its min saturates).  Raises :class:`NoApplicableBound` listing the
    checks of both rules if neither applies; a check the two rules share
    is listed once.
    """
    return _independent_bound(
        (RULE_INDEPENDENT, RULE_INDEPENDENT_SHARP), moments, tol, NoApplicableBound
    )
