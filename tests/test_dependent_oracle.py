"""Exact checks of the dependent-summand certificates through the CLI.

The model is the count W of moving-window head runs: m + r - 1 independent
coins with P(head) = q, and X_a = 1 when coins a, ..., a + r - 1 all land
heads (a = 0, ..., m - 1).  Its dependency spec has closed forms: p_a = q^r,
B_a = {b : |a - b| < r}, p_ab = q^(r + |a - b|) and b3 = 0, since X_a is
independent of every X_b outside B_a.  b2 > 0 whenever r >= 2.

The exact law of W comes from a dynamic program over the coins, with state
(trailing run of heads capped at r, count so far); it is checked against
enumeration of every coin sequence on small systems.  From it the exact
d_TV(W, Po(lam)) and H(W) are computed here, independently of the library,
and compared with what ``tv-bounds --spec`` and ``entropy-bound --spec``
print.
"""

import itertools
import json
import math

import numpy as np
import pytest

from poientropy.bounds import ConditionViolated, entropy_bound_general
from poientropy.chenstein import coefficients_from_spec, dependency_spec_from_dict
from poientropy.cli import main

# q per (m, r): small q is certified, q = 0.2 is refused for most (m, r).
_GRID = [
    (m, r, q)
    for m in (100, 300, 1000)
    for r in (2, 3, 4)
    for q in (0.02, 0.05, 0.1, 0.2)
]

# Printed figures carry 6 significant digits.
_ROUNDING = 1e-5


def head_run_law(m: int, r: int, q: float) -> np.ndarray:
    """P(W = w), w = 0..m, by a dynamic program over the m + r - 1 coins."""
    law = np.zeros((r + 1, m + 1))  # law[run, w], run capped at r
    law[0, 0] = 1.0
    for _ in range(m + r - 1):
        step = np.zeros_like(law)
        step[0] = (1.0 - q) * law.sum(axis=0)
        step[1:r] = q * law[: r - 1]
        # A run reaching r completes the window that ends at this coin.
        step[r, 1:] = q * (law[r - 1, :-1] + law[r, :-1])
        law = step
    return law.sum(axis=0)


def head_run_enumerated(m: int, r: int, q: float) -> np.ndarray:
    """P(W = w) by summing over every coin sequence."""
    law = np.zeros(m + 1)
    for coins in itertools.product((0, 1), repeat=m + r - 1):
        heads = sum(coins)
        w = sum(all(coins[a : a + r]) for a in range(m))
        law[w] += q**heads * (1.0 - q) ** (len(coins) - heads)
    return law


def head_run_spec(m: int, r: int, q: float) -> dict:
    return {
        "m": m,
        "marginals": [q**r] * m,
        "neighborhoods": [list(range(max(0, a - r + 1), min(m, a + r))) for a in range(m)],
        "pair_expectations": [
            [a, b, q ** (r + b - a)] for a in range(m) for b in range(a + 1, min(m, a + r))
        ],
        "b3": "zero",
    }


def exact_tv(law: np.ndarray, lam: float) -> float:
    """d_TV(W, Po(lam)) for W supported on 0..len(law) - 1."""
    k = np.arange(len(law))
    log_fact = np.array([math.lgamma(i + 1.0) for i in k])
    poisson = np.exp(k * math.log(lam) - lam - log_fact)
    return 0.5 * (np.abs(law - poisson).sum() + max(0.0, 1.0 - poisson.sum()))


def exact_entropy(law: np.ndarray) -> float:
    p = law[law > 0.0]
    return float(-(p * np.log(p)).sum())


# (name, spec, exact law of W, lam): the head-run grid, plus X_1 = X_2 ~
# Bern(1/2), whose W is 0 or 2 with probability 1/2 each.
_SYSTEMS = [
    (f"m{m}-r{r}-q{q}", head_run_spec(m, r, q), head_run_law(m, r, q), m * q**r)
    for m, r, q in _GRID
] + [
    (
        "twin-coins",
        {"m": 2, "marginals": [0.5, 0.5], "neighborhoods": [[0, 1], [0, 1]],
         "pair_expectations": [[0, 1, 0.5]], "b3": "zero"},
        np.array([0.5, 0.0, 0.5]),
        1.0,
    ),
]


def _machine(capsys, *argv):
    code = main([*argv, "--format", "machine"])
    return code, json.loads(capsys.readouterr().out)


def _value(entry) -> float:
    return float(entry["value"])


@pytest.mark.parametrize(
    "m, r, q", [(5, 2, 0.3), (8, 3, 0.6), (10, 2, 0.1), (11, 3, 0.45), (12, 1, 0.2)]
)
def test_law_matches_enumeration(m, r, q):
    law = head_run_law(m, r, q)
    assert np.abs(law - head_run_enumerated(m, r, q)).max() < 1e-13
    assert law.sum() == pytest.approx(1.0, abs=1e-14)


def test_twin_coins_exact_tv():
    # |1/2 - e^-1| + e^-1 + |1/2 - e^-1/2| + P(Po(1) >= 3), halved.
    assert exact_tv(np.array([0.5, 0.0, 0.5]), 1.0) == pytest.approx(0.448, abs=5e-4)


def test_grid_mixes_certified_and_refused_dependent_systems():
    certified = 0
    for m, r, q in _GRID:
        coeffs = coefficients_from_spec(dependency_spec_from_dict(head_run_spec(m, r, q)))
        assert coeffs.b2.to_float() > 0.0
        try:
            entropy_bound_general(coeffs)
            certified += 1
        except ConditionViolated:
            pass
    assert 0 < certified < len(_GRID)


@pytest.mark.parametrize(
    "spec, law, lam", [s[1:] for s in _SYSTEMS], ids=[s[0] for s in _SYSTEMS]
)
def test_spec_bounds_hold_against_exact_law(capsys, tmp_path, spec, law, lam):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec), encoding="utf-8")

    code, doc = _machine(capsys, "tv-bounds", "--spec", str(path))
    assert code == 0
    # Barbour-Hall and Le Cam assume independence; a spec gets AGG alone.
    assert set(doc["results"]) == {"agg_upper"}
    assert exact_tv(law, lam) <= _value(doc["results"]["agg_upper"]) * (1.0 + _ROUNDING)

    code, doc = _machine(capsys, "entropy-bound", "--spec", str(path))
    if code == 3:
        assert "a(lambda) <= 0.5 violated" in doc["error"]
        return
    assert code == 0
    h_w = exact_entropy(law)
    low = _value(doc["results"]["interval_low"])
    high = _value(doc["results"]["interval_high"])
    assert low - _ROUNDING * abs(low) <= h_w <= high + _ROUNDING * abs(high)
