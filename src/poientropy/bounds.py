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
from typing import Optional, Sequence, Union

from .chenstein import (
    ChenSteinCoefficients,
    log_bh_factor,
    log_tv_upper_agg,
    tv_upper_agg,
)
from .exact import BernoulliSystem
from .logspace import LogScalar, log_sum_exp
from .poisson import (
    EntropyValue,
    _check_tol,
    _poisson_entropy_log_mean,
    poisson_entropy,
)

__all__ = [
    "MomentSummary",
    "ConditionCheck",
    "ConditionViolated",
    "NoApplicableBound",
    "EntropyBoundReport",
    "a_of_lambda",
    "b_of_lambda",
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


@dataclass(frozen=True)
class MomentSummary:
    """First and second moment mass of an independent Bernoulli system.

    Only lam = sum p_i, sum p_i^2 and the index-set size m are needed by the
    independent-case bounds, so huge systems (n up to 1e12 in the arithmetic
    model) never have to be materialised.
    """

    lam: float
    sum_p_squared: float
    m: int

    def __post_init__(self):
        if not self.lam > 0.0 or math.isinf(self.lam):
            raise ValueError(f"lam must lie in (0, inf), got {self.lam}")
        if not (math.isfinite(self.sum_p_squared) and self.sum_p_squared >= 0.0):
            raise ValueError(
                f"sum_p_squared must be finite and >= 0, got {self.sum_p_squared}"
            )
        if self.m < 1:
            raise ValueError(f"m must be >= 1, got {self.m}")
        if self.theta > 1.0 + 1e-12:
            raise ValueError(
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


@dataclass(frozen=True)
class ConditionCheck:
    """One recorded hypothesis check: ``name`` must not exceed ``required``."""

    name: str
    required: float
    actual: float
    satisfied: bool


class _FailedChecks(ValueError):
    """Base of the refusals: keeps ``checks`` and lists the failed ones."""

    headline = ""

    def __init__(self, checks: Sequence[ConditionCheck]):
        self.checks = list(checks)
        failed = [c for c in self.checks if not c.satisfied]
        detail = "; ".join(
            f"{c.name} <= {c.required:g} violated (actual {c.actual:g})" for c in failed
        )
        super().__init__(f"{self.headline}: {detail}")


class ConditionViolated(_FailedChecks):
    """A bound's hypothesis fails; the bound is inapplicable, not clamped."""

    headline = "condition violated"


class NoApplicableBound(_FailedChecks):
    """Neither independent-case bound applies to the given moments."""

    headline = "no applicable bound"


@dataclass(frozen=True)
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


def a_of_lambda(coeffs: ChenSteinCoefficients) -> float:
    """a(lam): exactly twice the unclamped AGG total-variation bound."""
    return 2.0 * tv_upper_agg(coeffs)


def b_of_lambda(
    lam: Union[float, LogScalar], m: Optional[int] = None, log2_m: Optional[float] = None
) -> LogScalar:
    """The support-truncation term b(lam), evaluated entirely in log space.

    Returns a LogScalar so that the routine underflow (exponents like -1e8
    for the worked models) keeps its log value instead of collapsing
    silently to 0.0; callers convert with ``float()`` for display.  When
    m - 1 < lam e the exponent turns positive and the value is returned as
    the (possibly huge) number the formula gives - never an error, never
    silently wrong.
    """
    lam_ls = LogScalar.from_float(lam) if not isinstance(lam, LogScalar) else lam
    if lam_ls.sign != 1:
        raise ValueError("lam must be > 0")
    if (m is None) == (log2_m is None):
        raise ValueError("exactly one of m and log2_m must be given")
    if m is not None:
        if m < 2:
            raise ValueError(f"m must be >= 2, got {m}")
        log_m1 = math.log(m - 1)
    else:
        log_m1 = log2_m * _LN2 if log2_m * _LN2 > 710.0 else math.log(2.0**log2_m - 1.0)

    log_lam = lam_ls.logmag
    parts = [2.0 * log_lam, math.log(_BRACKET_CONST)]
    if log_lam < 1.0:  # lam < e, so (lam ln(e/lam))_+ is positive
        parts.append(log_lam + math.log(1.0 - log_lam))
    log_bracket = log_sum_exp(parts)

    # Exponent lam + (m-1) (ln(m-1) - ln(lam) - 1), with overflow handled
    # sign-by-sign so huge m degrades to b = 0 rather than NaN.
    lam_f = math.exp(log_lam) if log_lam < 709.0 else math.inf
    m1_f = math.exp(log_m1) if log_m1 < 709.0 else math.inf
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
        return LogScalar.zero()
    return LogScalar.from_log(log_bracket - exponent)


def _main_term(log_coeff: float, log_m2: float) -> tuple:
    """x ln((m+2)/x) and its log for a log-domain coefficient x <= 1/2.

    The x -> 0 limit is 0, which is also what the formula must return when
    the coefficient underflows completely (b1 = b2 = b3 = 0).
    """
    if log_coeff == -math.inf:
        return 0.0, -math.inf
    log_term = log_coeff + math.log(log_m2 - log_coeff)
    value = math.exp(log_term) if log_term > -745.0 else 0.0
    return value, log_term


def _entropy_for(lam_ls: LogScalar, tol: float) -> EntropyValue:
    lam_f = lam_ls.to_float()
    if math.isinf(lam_f):
        _check_tol(tol)
        return _poisson_entropy_log_mean(lam_ls.logmag)
    return poisson_entropy(lam_f, tol=tol)


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
    a_value = 2.0 * math.exp(log_tv) if log_tv > -745.0 else 0.0  # as a_of_lambda
    lam_f = coeffs.lam.to_float()
    m1_f = math.exp(coeffs.log_m_minus_1) if coeffs.log_m_minus_1 < 709 else math.inf

    checks = (
        ConditionCheck("a(lambda)", 0.5, a_value, log_a <= _LN_HALF),
        ConditionCheck("lambda", m1_f, lam_f, coeffs.lam.logmag <= coeffs.log_m_minus_1),
    )
    if not all(c.satisfied for c in checks):
        raise ConditionViolated(checks)

    h = _entropy_for(coeffs.lam, tol)
    a_term, a_term_log = _main_term(log_a, coeffs.log_m_plus_2)
    b_ls = b_of_lambda(coeffs.lam, m=coeffs.m, log2_m=coeffs.log2_m)
    b_term = b_ls.to_float()
    eps_log = log_sum_exp([a_term_log, b_ls.logmag])
    eps = a_term + b_term

    rel = eps / h.nats if eps > 0.0 else (
        math.exp(eps_log - math.log(h.nats)) if eps_log > -math.inf else 0.0
    )
    return EntropyBoundReport(
        theorem_id=RULE_GENERAL,
        convention="two-sided-centered",
        lam=lam_f,
        h_poisson=h,
        a_term=a_term,
        b_term=b_term,
        epsilon=eps,
        interval=(h.nats - eps, h.nats + eps),
        point_estimate=h.nats,
        relative_error=rel,
        conditions=checks,
        a_term_log=a_term_log,
        b_term_log=b_ls.logmag,
        epsilon_log=eps_log,
    )


def _one_sided_report(
    rule: str,
    moments: MomentSummary,
    log_coeff: float,
    checks: tuple,
    h: EntropyValue,
    b_ls: LogScalar,
) -> EntropyBoundReport:
    """Assemble a one-sided report from the rule's coefficient and the
    H(Z) and b(lam) it shares with the other independent-case rule."""
    log_m2 = math.log(moments.m + 2)
    a_term, a_term_log = _main_term(log_coeff, log_m2)
    b_term = b_ls.to_float()
    eps = a_term + b_term
    eps_log = log_sum_exp([a_term_log, b_ls.logmag])

    point = h.nats - 0.5 * eps
    notes = ""
    if point > 0.0:
        rel = (0.5 * eps) / point
    else:
        rel = math.inf
        notes = "bound is vacuous (wider than H(Z))"
    return EntropyBoundReport(
        theorem_id=rule,
        convention="one-sided-midpoint",
        lam=moments.lam,
        h_poisson=h,
        a_term=a_term,
        b_term=b_term,
        epsilon=eps,
        interval=(h.nats - eps, h.nats),
        point_estimate=point,
        relative_error=rel,
        conditions=checks,
        a_term_log=a_term_log,
        b_term_log=b_ls.logmag,
        epsilon_log=eps_log,
        notes=notes,
    )


def _log_corollary_coeff(moments: MomentSummary) -> float:
    """ln of c = ((1 - e^-lam)/lam) sum p_i^2 (-inf when the sum is 0)."""
    if moments.sum_p_squared == 0.0:
        return -math.inf
    return math.log(moments.sum_p_squared) + log_bh_factor(math.log(moments.lam))


def _lambda_check(moments: MomentSummary) -> ConditionCheck:
    limit = float(moments.m - 1)
    return ConditionCheck("lambda", limit, moments.lam, moments.lam <= limit)


def _shared_terms(moments: MomentSummary, tol: float) -> tuple:
    """H(Z) and b(lam), which both independent-case rules use unchanged."""
    return poisson_entropy(moments.lam, tol=tol), b_of_lambda(moments.lam, m=moments.m)


def _corollary_terms(moments: MomentSummary) -> tuple:
    """ln(2c) and the checks of the plain rule; raises if a check fails."""
    log_c = _log_corollary_coeff(moments)
    c = math.exp(log_c) if log_c > -745.0 else 0.0
    checks = (
        ConditionCheck("tv_factor_sum_p2", 0.25, c, log_c <= math.log(0.25)),
        _lambda_check(moments),
    )
    if not all(ck.satisfied for ck in checks):
        raise ConditionViolated(checks)
    return _LN2 + log_c if log_c > -math.inf else -math.inf, checks


def entropy_bound_independent(
    moments: MomentSummary, tol: float = 1e-9
) -> EntropyBoundReport:
    """One-sided certificate 0 <= H(Z) - H(W) <= 2c ln((m+2)/(2c)) + b.

    The caller asserts independence of the summands by calling this; only
    the moment summary is needed.  Hypotheses: c <= 1/4 and lam <= m - 1.
    """
    log_coeff, checks = _corollary_terms(moments)
    return _one_sided_report(
        RULE_INDEPENDENT, moments, log_coeff, checks, *_shared_terms(moments, tol)
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


def _proposition_terms(moments: MomentSummary) -> tuple:
    """ln g and the checks of the sharpened rule; raises if a check fails."""
    log_c = _log_corollary_coeff(moments)
    c = math.exp(log_c) if log_c > -745.0 else 0.0
    theta_ok = moments.theta < 1.0
    g = g_of_p(moments) if theta_ok else math.inf
    checks = (
        ConditionCheck("tv_factor_sum_p2", 0.25, c, log_c <= math.log(0.25)),
        _lambda_check(moments),
        ConditionCheck("g", 0.5, g, theta_ok and g <= 0.5),
    )
    if not all(ck.satisfied for ck in checks):
        raise ConditionViolated(checks)
    return (math.log(g) if g > 0.0 else -math.inf), checks


def entropy_bound_independent_sharp(
    moments: MomentSummary, tol: float = 1e-9
) -> EntropyBoundReport:
    """One-sided certificate with the sharpened coefficient g.

    Requires the plain independent-case hypotheses (c <= 1/4, lam <= m - 1)
    plus g <= 1/2 and theta < 1.
    """
    log_coeff, checks = _proposition_terms(moments)
    return _one_sided_report(
        RULE_INDEPENDENT_SHARP, moments, log_coeff, checks, *_shared_terms(moments, tol)
    )


def best_independent_bound(
    moments: MomentSummary, tol: float = 1e-9
) -> EntropyBoundReport:
    """The smaller of the two independent-case certificates that apply.

    Ties go to the plain bound (the sharpened coefficient reduces to it when
    its min saturates).  Raises :class:`NoApplicableBound` listing the
    checks of both rules if neither applies; a check the two rules share
    is listed once.
    """
    applicable = []
    checks = {}
    for rule, terms in (
        (RULE_INDEPENDENT, _corollary_terms),
        (RULE_INDEPENDENT_SHARP, _proposition_terms),
    ):
        try:
            applicable.append((rule, *terms(moments)))
        except ConditionViolated as exc:
            for check in exc.checks:
                checks.setdefault((check.name, check.required, check.actual), check)
    if not applicable:
        raise NoApplicableBound(checks.values())
    shared = _shared_terms(moments, tol)
    candidates = [
        _one_sided_report(rule, moments, log_coeff, rule_checks, *shared)
        for rule, log_coeff, rule_checks in applicable
    ]
    best = min(candidates, key=lambda r: (r.epsilon, r.theorem_id != RULE_INDEPENDENT))
    return best
