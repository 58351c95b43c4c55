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

Condition failures raise structured errors rather than clamping: outside
their hypotheses these inequalities simply say nothing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from .chenstein import (
    ChenSteinCoefficients,
    MomentSummary,
    log_bh_factor,
    log_tv_upper_agg,
)
from .logspace import _saturating_exp, log_sum_exp
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
# (6 ln(2 pi) + 1) / 12, the constant term of the truncation bracket.
_BRACKET_CONST = (6.0 * math.log(2.0 * math.pi) + 1.0) / 12.0

RULE_GENERAL = "theorem4"
RULE_INDEPENDENT = "corollary1"
RULE_INDEPENDENT_SHARP = "proposition1"


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
    is formatted only when it is read.
    """

    headline = ""

    def __init__(self, checks: Sequence[ConditionCheck]):
        self.checks = list(checks)
        super().__init__(self.checks)

    def __str__(self) -> str:
        detail = "; ".join(
            f"{c.name} <= {c.required:g} violated (actual {c.actual:g})"
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

    ``epsilon = a_term + b_term`` is the total certified error.  Two-sided
    rules give interval [H(Z) - eps, H(Z) + eps] with point estimate H(Z)
    and relative error eps/H(Z); one-sided rules give [H(Z) - eps, H(Z)]
    with the midpoint as point estimate and (eps/2)/midpoint as relative
    error.  The *_log fields carry natural logs of quantities that may
    underflow a float (b_term routinely does).
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
    notes: str = field(default="", compare=False)


def _log_b(log_lam: float, log_m1: float) -> float:
    """ln b(lam) from ln(lam) and ln(m - 1); -inf once the exponent overflows.

    Kept in log space because the routine underflow (exponents like -1e8 for
    the worked models) would otherwise lose its value.  When m - 1 < lam e
    the exponent turns positive and the (possibly huge) value the formula
    gives is returned.
    """
    parts = [2.0 * log_lam, math.log(_BRACKET_CONST)]
    if log_lam < 1.0:  # lam < e, so (lam ln(e/lam))_+ is positive
        parts.append(log_lam + math.log(1.0 - log_lam))
    log_bracket = log_sum_exp(parts)

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
    return poisson_entropy(lam, tol=tol)


def _report(
    rule: str,
    lam: float,
    log_coeff: float,
    checks: tuple,
    h: EntropyValue,
    log_b: float,
    log_m2: float,
) -> EntropyBoundReport:
    """The report of ``rule`` with coefficient exp(``log_coeff``).

    Theorem 4 is two-sided about H(Z); the independent-case rules are
    one-sided, since H(Z) >= H(W) there.
    """
    a_term, a_term_log = _main_term(log_coeff, log_m2)
    b_term = _saturating_exp(log_b)
    eps = a_term + b_term
    eps_log = log_sum_exp([a_term_log, log_b])

    nats = h.nats
    notes = ""
    if rule == RULE_GENERAL:
        convention = "two-sided-centered"
        interval, point = (nats - eps, nats + eps), nats
        rel = eps / nats if eps > 0.0 else _saturating_exp(eps_log - math.log(nats))
    else:
        convention = "one-sided-midpoint"
        interval, point = (nats - eps, nats), nats - 0.5 * eps
        if point > 0.0:
            rel = (0.5 * eps) / point
        else:
            rel = math.inf
            notes = "bound is vacuous (wider than H(Z))"
    return EntropyBoundReport(
        theorem_id=rule,
        convention=convention,
        lam=lam,
        h_poisson=h,
        a_term=a_term,
        b_term=b_term,
        epsilon=eps,
        interval=interval,
        point_estimate=point,
        relative_error=rel,
        conditions=checks,
        a_term_log=a_term_log,
        b_term_log=log_b,
        epsilon_log=eps_log,
        notes=notes,
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
    m1_f = _saturating_exp(log_m1)

    a_ok, lam_ok = log_a <= _LN_HALF, log_lam <= log_m1
    checks = (
        ConditionCheck("a(lambda)", 0.5, a_value, a_ok),
        ConditionCheck("lambda", m1_f, lam, lam_ok),
    )
    if not (a_ok and lam_ok):
        raise ConditionViolated(checks)
    return _report(
        RULE_GENERAL, lam, log_a, checks,
        _entropy(lam, log_lam, tol), _log_b(log_lam, log_m1), coeffs.log_m_plus_2,
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


def _independent_terms(moments: MomentSummary, log_lam: float) -> dict:
    """ln of each independent-case rule's coefficient, with its checks.

    Both rules need c = ((1 - e^-lam)/lam) sum p_i^2 <= 1/4 and
    lam <= m - 1; the sharpened rule adds g <= 1/2 (and theta < 1).
    """
    if moments.sum_p_squared == 0.0:
        log_c = -math.inf
    else:
        log_c = math.log(moments.sum_p_squared) + log_bh_factor(log_lam)
    c = _saturating_exp(log_c)
    limit = float(moments.m - 1)
    shared = (
        ConditionCheck("tv_factor_sum_p2", 0.25, c, log_c <= math.log(0.25)),
        ConditionCheck("lambda", limit, moments.lam, moments.lam <= limit),
    )
    theta_ok = moments.theta < 1.0
    g = g_of_p(moments) if theta_ok else math.inf
    return {
        RULE_INDEPENDENT: (_LN2 + log_c, shared),
        RULE_INDEPENDENT_SHARP: (
            math.log(g) if g > 0.0 else -math.inf,
            shared + (ConditionCheck("g", 0.5, g, theta_ok and g <= 0.5),),
        ),
    }


def _independent_bound(
    rules: tuple, moments: MomentSummary, tol: float, refusal: type
) -> EntropyBoundReport:
    """The smallest certificate among ``rules`` whose checks hold.

    Ties go to the plain rule.  H(Z) and b(lam) are evaluated once for all
    of the rules, from ln(lam), ln(m - 1) and ln(m + 2) taken here by the
    same ``math.log`` calls as ``coefficients_independent``'s.  If none
    applies, raises ``refusal`` with every check of every rule, a check the
    rules share listed once.
    """
    log_lam = math.log(moments.lam)
    terms = _independent_terms(moments, log_lam)
    applicable = [rule for rule in rules if all(c.satisfied for c in terms[rule][1])]
    if not applicable:
        checks = {}
        for rule in rules:
            for check in terms[rule][1]:
                checks.setdefault((check.name, check.required, check.actual), check)
        raise refusal(checks.values())
    # Every applicable rule requires lam <= m - 1, so m >= 2 here.
    h = _entropy(moments.lam, log_lam, tol)
    log_b = _log_b(log_lam, math.log(moments.m - 1))
    log_m2 = math.log(moments.m + 2)
    candidates = [
        _report(rule, moments.lam, *terms[rule], h, log_b, log_m2) for rule in applicable
    ]
    return min(candidates, key=lambda r: (r.epsilon, r.theorem_id != RULE_INDEPENDENT))


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
