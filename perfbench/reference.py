"""Closed-form references the benchmark checks the library against.

Everything here is independent of the library code paths it checks: the
moving-window coefficients come from their closed forms, the hypercube and
arithmetic hypotheses from exact integers, and the Poisson entropies either
from an mpmath integral at 32 significant digits (the fixed lambda grid) or
from a float window sum / four-term expansion good to ~1e-10 nats (the
lambda values the certificate sweeps produce).  None of this runs inside a
timed region or inside ``setup_s``.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

# Poisson-entropy grids of the certificate-grid workload: four points per
# decade, fixed so that the certificate audit covers the same values on every
# seed.  The series grid stops at 1e5 because the series route costs O(lam).
POISSON_GRID = tuple(10.0 ** (j / 4) for j in range(-12, 49))  # 1e-3 .. 1e12
SERIES_GRID = tuple(10.0 ** (j / 4) for j in range(-12, 21))  # 1e-3 .. 1e5

REF_DIGITS = 32
_CACHE_KEY = {"version": 1, "digits": REF_DIGITS}


# ---------------------------------------------------------------------------
# moving-window head runs (Arratia, Goldstein & Gordon 1990)
# ---------------------------------------------------------------------------


def moving_window(m: int, r: int, q: float) -> dict:
    """lam, b1, b2, AGG bound and a(lam) of the m-window, run-length-r model.

    X_a is the product of coins a .. a+r-1 with bias q, so p_a = q^r,
    E[X_a X_b] = q^(r+|a-b|) for |a-b| < r, B_a = {b : |a-b| < r} and b3 = 0.
    """
    p = q**r
    lam = m * p
    neighbour_terms = m * (2 * r - 1) - r * (r - 1)
    b1 = p * p * neighbour_terms
    b2 = 2.0 * math.fsum((m - d) * q ** (r + d) for d in range(1, r))
    agg = (b1 + b2) * -math.expm1(-lam) / lam
    return {
        "lam": lam,
        "b1": b1,
        "b2": b2,
        "agg": agg,
        "a": 2.0 * agg,
        "neighbour_terms": neighbour_terms,
    }


def moving_window_q(m: int, r: int, a_target: float) -> float:
    """The coin bias q at which the moving-window model has a(lam) = a_target."""
    lo, hi = 1e-6, 0.9
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if moving_window(m, r, mid)["a"] < a_target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def moving_window_spec(m: int, r: int, q: float) -> dict:
    """The model as a dependency-spec document (the CLI's ``--spec`` layout)."""
    p = q**r
    return {
        "m": m,
        "marginals": [p] * m,
        "neighborhoods": [list(range(max(0, a - r + 1), min(m, a + r))) for a in range(m)],
        "pair_expectations": [
            [a, b, q ** (r + b - a)] for a in range(m) for b in range(a + 1, min(m, a + r))
        ],
        "b3": "zero",
    }


# ---------------------------------------------------------------------------
# certificate hypotheses of the closed-form models
# ---------------------------------------------------------------------------


def hypercube_a(n: int, k: int) -> float:
    """a(lam) = 2 (b1 + b2)(1 - e^-lam)/lam of the n-cube orientation model.

    (b1 + b2)/lam = [(n+1) C(n,k)^2 + 4 n C(n-1,k) C(n-1,k-1)] / (2^n C(n,k))
    is formed exactly in integers before the one rounding to float.
    """
    c = math.comb(n, k)
    cross = 0 if k in (0, n) else 4 * n * math.comb(n - 1, k) * math.comb(n - 1, k - 1)
    ratio = Fraction((n + 1) * c * c + cross, (1 << n) * c)
    return 2.0 * float(ratio) * -math.expm1(-float(c))


def arithmetic_c(a: float, n: int) -> tuple:
    """(lam, c) of the arithmetic system p_i = 2 a i, c = (1 - e^-lam) theta."""
    lam = a * (n * (n + 1))
    theta = 2.0 * a * (2 * n + 1) / 3.0
    return lam, theta * -math.expm1(-lam)


def refusal_predicted(value: float, limit: float, lam: float, m_minus_1: float):
    """True/False when the closed form decides ``value <= limit and lam <= m-1``.

    Returns None when ``value`` sits within 1e-9 (relative) of ``limit``,
    where float rounding in the library may legitimately decide either way.
    """
    if lam > m_minus_1:
        return True
    if abs(value - limit) <= 1e-9 * limit:
        return None
    return value > limit


# ---------------------------------------------------------------------------
# Poisson entropy
# ---------------------------------------------------------------------------


def poisson_entropy_float(lam: float) -> float:
    """H(Po(lam)) in nats to ~1e-10, for the 1e-3-nat checks of the sweeps.

    Up to lam = 1e4 this sums -p ln p over lam +- (12 sqrt(lam) + 40), where
    the dropped tails are below 1e-30; above it the expansion
    0.5 ln(2 pi e lam) - 1/(12 lam) - 1/(24 lam^2) - 19/(360 lam^3), whose
    next term is ~1e-17 at lam = 1e4 (checked against the mpmath integral).
    """
    if lam > 1e4:
        return (
            0.5 * math.log(2.0 * math.pi * math.e * lam)
            - 1.0 / (12.0 * lam)
            - 1.0 / (24.0 * lam**2)
            - 19.0 / (360.0 * lam**3)
        )
    width = 12.0 * math.sqrt(lam) + 40.0
    log_lam = math.log(lam)
    terms = []
    for k in range(max(0, int(lam - width)), int(lam + width) + 1):
        log_p = k * log_lam - lam - math.lgamma(k + 1)
        terms.append(-math.exp(log_p) * log_p)
    return math.fsum(terms)


def poisson_entropy_mp(lam: float, digits: int = REF_DIGITS) -> str:
    """H(Po(lam)) to ``digits`` significant digits, as a decimal string.

    Uses Malmsten's integral for ln k! averaged over Po(lam):

        E[ln Z!] = int_0^inf e^-t/t [lam - (1 - exp(-lam (1 - e^-t)))/(1 - e^-t)] dt

    and H = lam - lam ln lam + E[ln Z!].  The working precision adds the
    digits that the final cancellation (of size lam ln lam) costs.
    """
    import mpmath as mp

    guard = 12 + max(0, int(math.log10(max(lam, 1.0) * max(1.0, math.log(max(lam, 2.0))))) + 1)
    with mp.workdps(digits + guard):
        x = mp.mpf(lam)

        def integrand(t):
            s = -mp.expm1(-t)
            return mp.exp(-t) / t * (x + mp.expm1(-x * s) / s)

        points = [mp.mpf(0)]
        cut = mp.mpf("0.1") / x
        while cut < 1:
            points.append(cut)
            cut *= 30
        points += [mp.mpf(1), mp.inf]
        value = x - x * mp.log(x) + mp.quad(integrand, points)
        return mp.nstr(value, digits + 3, strip_zeros=False)


def _grid() -> list:
    return sorted(set(POISSON_GRID) | set(SERIES_GRID))


def _read_cache(path: Path) -> dict:
    if path.exists():
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        if doc.get("key") == _CACHE_KEY:
            return doc["refs"]
    return {}


def build_grid_cache(cache_dir: Path) -> None:
    """Compute the missing mpmath references and store them in ``cache_dir``."""
    path = cache_dir / "poisson_refs.json"
    refs = _read_cache(path)
    for lam in _grid():
        if repr(lam) not in refs:
            refs[repr(lam)] = poisson_entropy_mp(lam)
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"key": _CACHE_KEY, "refs": refs}, handle, indent=1, sort_keys=True)
    os.replace(tmp, path)


def poisson_grid_references(cache_dir: Path) -> dict:
    """mpmath references (decimal strings) for every lambda of the two grids.

    The grid is fixed, so the values are computed once per checkout (about
    30 s) and kept in ``cache_dir``.  They are computed in a child process so
    that mpmath's memory does not count in the benchmark's ``peak_rss_mb``.
    """
    path = cache_dir / "poisson_refs.json"
    refs = _read_cache(path)
    if any(repr(lam) not in refs for lam in _grid()):
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), str(cache_dir)],
            check=True,
            timeout=600,
        )
        refs = _read_cache(path)
    return {lam: refs[repr(lam)] for lam in _grid()}


if __name__ == "__main__":
    build_grid_cache(Path(sys.argv[1]))
