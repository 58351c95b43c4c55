"""Bit-identity golden for the certificate path.

``tests/data/certificate_golden.json`` holds, as ``float.hex`` strings, the
values that the library path computes from closed forms, with no CLI in
between, and ``tests/data/independent_golden.json`` those it computes for
explicit independent systems.  Each row is a list, and ends with an
outcome: the rule, epsilon, a_term_log, b_term_log and H(Z) of a report,
or "refused" and each check's ``actual``.

* ``hypercube`` rows are [n, k, lam, b1, b2, tv_upper_agg, *outcome]: the
  logmags of ``hypercube_coefficients``, ``tv_upper_agg`` of those
  coefficients and the outcome of ``entropy_bound_general``;
* ``arithmetic`` rows are [a, n, *outcome] for 200 seeded
  ``arithmetic_moments`` points through ``best_independent_bound``;
* ``independent`` rows are [n, p_max, tv, best, general] for 102 seeded
  ``BernoulliSystem``s (n from 20 to 5000, p ~ U(0, p_max)): ``tv_to_poisson``
  of the exact pmf, and the outcomes of ``best_independent_bound`` and of
  ``entropy_bound_general(coefficients_independent(system))``.

The test requires every bit to match.  Regenerate the files
(``PYTHONPATH=src python tests/test_certificate_golden.py``) only with a
change that means to move these numbers, and say which.

On the arithmetic points and some of the independent systems, another test
holds every rule's report to the enclosure formula of :mod:`poientropy.bounds`.
"""

import json
import math
import pathlib
import sys
from fractions import Fraction

import numpy as np
import pytest

from poientropy.bounds import (
    ConditionViolated,
    NoApplicableBound,
    best_independent_bound,
    entropy_bound_general,
    entropy_bound_independent,
    entropy_bound_independent_sharp,
)
from poientropy.chenstein import MomentSummary, coefficients_independent, tv_upper_agg
from poientropy.exact import BernoulliSystem, exact_distribution, tv_to_poisson
from poientropy.models import arithmetic_moments, hypercube_coefficients

_DATA = pathlib.Path(__file__).parent / "data"
# Each golden file with the parts it holds.
GOLDEN = {
    _DATA / "certificate_golden.json": ("hypercube", "arithmetic"),
    _DATA / "independent_golden.json": ("independent",),
}

_ARITHMETIC_SEED = 20120629
_ARITHMETIC_POINTS = 200
_INDEPENDENT_SEED = 20120702
_INDEPENDENT_SYSTEMS = 102
_INDEPENDENT_P_MAX = (0.02, 0.1, 0.5)


def _hypercube_orders() -> list:
    """Every k for n <= 20, and 12 k per n at larger n, both ends included."""
    orders = [(n, k) for n in range(1, 21) for k in range(n + 1)]
    for n in (30, 50, 70, 100, 1000, 10000):
        ks = {0, 1, 2, n // 4, n // 2, (3 * n) // 4, n - 5, n - 4, n - 3, n - 2, n - 1, n}
        orders += [(n, k) for k in sorted(ks)]
    return orders


def _arithmetic_points() -> list:
    """(a, n) with n log-uniform in [1, 1e12] and u = 2 a n log-uniform in
    [1e-4, 1], so both certified and refused systems occur."""
    rng = np.random.default_rng(_ARITHMETIC_SEED)
    points = []
    for _ in range(_ARITHMETIC_POINTS):
        n = int(round(10.0 ** rng.uniform(0.0, 12.0)))
        u = 10.0 ** rng.uniform(-4.0, 0.0)
        points.append((u / (2.0 * n), n))
    return points


def _independent_systems() -> list:
    """(n, p_max, system) with n log-uniform in [20, 5000] and p ~ U(0, p_max),
    p_max taking each of 0.02, 0.1 and 0.5 in turn."""
    rng = np.random.default_rng(_INDEPENDENT_SEED)
    systems = []
    for i in range(_INDEPENDENT_SYSTEMS):
        n = int(round(10.0 ** rng.uniform(math.log10(20.0), math.log10(5000.0))))
        p_max = _INDEPENDENT_P_MAX[i % len(_INDEPENDENT_P_MAX)]
        systems.append((n, p_max, BernoulliSystem(rng.uniform(0.0, p_max, n))))
    return systems


def _outcome(certify, *args) -> list:
    try:
        report = certify(*args)
    except (ConditionViolated, NoApplicableBound) as exc:
        return ["refused"] + [check.actual.hex() for check in exc.checks]
    return [report.theorem_id] + [
        value.hex()
        for value in (report.epsilon, report.a_term_log, report.b_term_log, report.h_poisson.nats)
    ]


def compute_golden() -> dict:
    hypercube = []
    for n, k in _hypercube_orders():
        coeffs = hypercube_coefficients(n, k)
        logs = [value.logmag.hex() for value in (coeffs.lam, coeffs.b1, coeffs.b2)]
        hypercube.append(
            [n, k, *logs, tv_upper_agg(coeffs).hex(), *_outcome(entropy_bound_general, coeffs)]
        )
    arithmetic = [
        [a.hex(), n, *_outcome(best_independent_bound, arithmetic_moments(a, n))]
        for a, n in _arithmetic_points()
    ]
    independent = [
        [
            n,
            p_max,
            tv_to_poisson(exact_distribution(system), system.lam).hex(),
            _outcome(best_independent_bound, MomentSummary.from_probs(system)),
            _outcome(entropy_bound_general, coefficients_independent(system)),
        ]
        for n, p_max, system in _independent_systems()
    ]
    return {"hypercube": hypercube, "arithmetic": arithmetic, "independent": independent}


def _load_golden() -> dict:
    golden = {}
    for path in GOLDEN:
        golden.update(json.loads(path.read_text(encoding="utf-8")))
    return golden


def test_certificate_path_is_bit_identical():
    golden = _load_golden()
    now = compute_golden()
    for part in ("hypercube", "arithmetic", "independent"):
        assert len(now[part]) == len(golden[part])
        moved = [(old, new) for old, new in zip(golden[part], now[part]) if old != new]
        assert moved == [], f"{len(moved)} {part} entries moved, first {moved[:1]}"


def test_golden_covers_both_outcomes():
    golden = _load_golden()
    assert all(path.stat().st_size < 100_000 for path in GOLDEN)
    outcomes = {
        "hypercube": [row[6:] for row in golden["hypercube"]],
        "arithmetic": [row[2:] for row in golden["arithmetic"]],
        "independent best": [row[3] for row in golden["independent"]],
        "independent general": [row[4] for row in golden["independent"]],
    }
    assert {row[0] for row in outcomes["hypercube"]} == {"theorem4", "refused"}
    assert {row[0] for row in outcomes["arithmetic"]} == {
        "corollary1", "proposition1", "refused",
    }
    assert {row[0] for row in outcomes["independent best"]} == {
        "corollary1", "proposition1", "refused",
    }
    assert {row[0] for row in outcomes["independent general"]} == {"theorem4", "refused"}
    # Every certified epsilon reads back as a finite float.
    assert all(
        math.isfinite(float.fromhex(row[1]))
        for rows in outcomes.values() for row in rows if row[0] != "refused"
    )


def _log(x: Fraction) -> float:
    return math.log(x.numerator) - math.log(x.denominator)


def test_every_rule_reports_its_gap_enclosure():
    """Each report encloses gap_low <= H(Z) - H(W) <= eps, gap_low = -eps for
    theorem 4 and 0 for the one-sided rules: interval [H - eps, H - gap_low],
    point H - (eps + gap_low)/2, relative error (eps - gap_low)/2 over the
    point, with its log.  Exact ends come from Fractions of H and eps."""
    moments = [arithmetic_moments(a, n) for a, n in _arithmetic_points()]
    moments += [MomentSummary.from_probs(system) for _, _, system in _independent_systems()[:12]]
    # A subnormal eps, and an eps that underflows to 0 against a tiny H(Z).
    moments += [MomentSummary(1.0, 1e-320, 10**6), MomentSummary(1e-285, 0.0, 3)]
    certifiers = (
        lambda m: entropy_bound_general(coefficients_independent(m)),
        entropy_bound_independent,
        entropy_bound_independent_sharp,
        best_independent_bound,
    )
    seen = {"theorem4": 0, "corollary1": 0, "proposition1": 0}
    for moment in moments:
        for certify in certifiers:
            try:
                report = certify(moment)
            except (ConditionViolated, NoApplicableBound):
                continue
            seen[report.theorem_id] += 1
            two_sided = report.theorem_id == "theorem4"
            assert report.convention == ("two-sided-centered" if two_sided else "one-sided-midpoint")
            h, eps = Fraction(report.h_poisson.nats), Fraction(report.epsilon)
            low = -eps if two_sided else Fraction(0)
            half, point = (eps - low) / 2, h - (eps + low) / 2
            assert report.interval == (float(h - eps), float(h - low))
            assert report.point_estimate == float(point)
            assert point > 0 and report.notes == ""
            rel, rel_log = report.relative_error, report.relative_error_log
            log_half = report.epsilon_log - (0.0 if two_sided else math.log(2.0))
            assert rel_log == pytest.approx(log_half - _log(point), rel=1e-14, abs=1e-12)
            if float(half) >= sys.float_info.min:
                assert rel == pytest.approx(float(half / point), rel=1e-15)
                assert rel_log == pytest.approx(_log(half / point), rel=1e-12, abs=1e-12)
            elif half > 0:  # a subnormal eps keeps fewer digits than its log
                assert rel_log == pytest.approx(_log(half / point), abs=1e-5)
            else:  # the half-width underflowed: the relative error comes from its log
                assert rel == pytest.approx(math.exp(rel_log), rel=1e-12)
            if sys.float_info.min <= rel < math.inf:
                assert rel_log == pytest.approx(math.log(rel), rel=1e-12, abs=1e-12)
    assert min(seen.values()) >= 10, seen


def _regenerate() -> None:
    golden = compute_golden()
    _DATA.mkdir(exist_ok=True)
    for path, names in GOLDEN.items():
        # One compact row a line keeps the file small and its diffs readable.
        parts = [
            f' "{part}": [\n'
            + ",\n".join(json.dumps(row, separators=(",", ":")) for row in golden[part])
            + "\n ]"
            for part in names
        ]
        lines = ",\n".join(parts)
        path.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
        counts = ", ".join(f"{len(golden[part])} {part}" for part in names)
        print(f"wrote {counts} entries to {path}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
