"""The four benchmark workloads: seeded inputs, the timed operation, checks.

A workload's inputs come in *rounds*; its op set is its first ``ROUNDS``
rounds, which every pass of a run replays in the same order.  A round holds
the same mix of input classes (strata of size, bias, command or route) on
every seed, with seeded draws inside each class and a seeded order, so the
work in an op set barely depends on the seed while the inputs do.

``run_op`` is the only timed code; it calls the library through its module
namespaces (``exact.exact_distribution`` rather than a name bound at import)
so that the tracer's wrappers are seen.  ``check`` runs outside the timed
region and returns None when the output is correct, or a one-line reason.
A refusal (``ConditionViolated``, ``NoApplicableBound``, exit code 3) is
returned by ``run_op`` as an output, and ``check`` accepts it only where the
closed form predicts it.

``faults`` names references that ``check`` perturbs on purpose; the smoke
test uses them to prove that every check can fail.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from poientropy import bounds, chenstein, cli, exact, models, poisson

import reference as ref

# Slack of the oracle sandwich, as in the acceptance suite's criterion 5.
SANDWICH_SLACK = 1e-9
# Acceptance-suite tolerance on H(Z).
ENTROPY_TOL = 1e-3
# Standard errors allowed between the simulated mean and C(n, k).
MC_SE_LIMIT = 5.0


def _rng(seed: int, workload_id: int, *key: int) -> np.random.Generator:
    # One stream per (workload, round); the key-less stream is for set-up.
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(workload_id, *key)))


def _log_uniform(rng, lo: float, hi: float, stratum: int, strata: int) -> float:
    u = (stratum + rng.uniform()) / strata
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _order(rng, ops: list) -> list:
    return [ops[i] for i in rng.permutation(len(ops))]


def _refused(exc) -> dict:
    return {"refused": type(exc).__name__}


class _Workload:
    ROUNDS = 1
    MIN_OPS = 20  # so that the median has 10 ops beyond it

    def __init__(self, seed: int, workdir: Path, cache_dir: Path):
        self.seed = seed

    def op_set(self, rounds=None) -> list:
        """The ops every pass runs: the first ``rounds`` (default ROUNDS)
        rounds, and more rounds while there are fewer than MIN_OPS ops."""
        ops, index = [], 0
        while index < (rounds or self.ROUNDS) or len(ops) < self.MIN_OPS:
            ops += self.round_inputs(index)
            index += 1
        return ops


# ---------------------------------------------------------------------------
# oracle-sandwich
# ---------------------------------------------------------------------------


class OracleSandwich(_Workload):
    """Random independent systems through the exact oracle and every bound."""

    name = "oracle-sandwich"
    ident = 1
    N_RANGE = (20, 5000)
    N_STRATA = 8
    P_MAX = (0.02, 0.1, 0.5)
    ROUNDS = 5
    FAULTS = ("tv", "entropy", "refusal")

    def round_inputs(self, index: int) -> list:
        # Round ``index`` draws n from sub-stratum ``index`` of every stratum,
        # so the op set as a whole is stratified ROUNDS times finer.
        rng = _rng(self.seed, self.ident, index)
        ops = []
        for stratum in range(self.N_STRATA):
            for p_max in self.P_MAX:
                cell = stratum * self.ROUNDS + index
                n = _log_uniform(rng, *self.N_RANGE, cell, self.N_STRATA * self.ROUNDS)
                ops.append(rng.uniform(0.0, p_max, int(round(n))))
        return _order(rng, ops)

    def smoke_inputs(self) -> list:
        return sorted(self.round_inputs(0), key=len)[:6]

    def warmup_input(self):
        rng = _rng(self.seed, self.ident)
        return rng.uniform(0.0, 0.1, 20).tolist()

    @staticmethod
    def run_op(probs):
        system = exact.BernoulliSystem(probs)
        pmf = exact.exact_distribution(system)
        h_w = exact.pmf_entropy(pmf)
        tv = exact.tv_to_poisson(pmf, system.lam)
        h_z = poisson.poisson_entropy_series(system.lam)
        try:
            best = bounds.best_independent_bound(bounds.MomentSummary.from_probs(system))
        except bounds.NoApplicableBound as exc:
            best = _refused(exc)
        try:
            general = bounds.entropy_bound_general(chenstein.coefficients_independent(system))
        except bounds.ConditionViolated as exc:
            general = _refused(exc)
        return {"h_w": h_w.nats, "tv": tv, "h_z": h_z.nats, "best": best, "general": general}

    def check(self, probs, out, faults=frozenset()):
        probs = np.asarray(probs, dtype=np.float64)
        lam = math.fsum(probs)
        sum_p2 = math.fsum(probs * probs)
        lower = min(1.0, 1.0 / lam) * sum_p2 / 32.0
        upper = -math.expm1(-lam) / lam * sum_p2
        tv = out["tv"] * (64.0 if "tv" in faults else 1.0)
        if not lower - SANDWICH_SLACK <= tv <= upper + SANDWICH_SLACK:
            return f"exact TV {tv!r} outside Barbour-Hall [{lower!r}, {upper!r}]"

        h_w = out["h_w"] + (1.0 if "entropy" in faults else 0.0)
        gap = out["h_z"] - h_w
        refuse = ref.refusal_predicted(2.0 * upper, 0.5, lam, probs.size - 1)
        if "refusal" in faults and refuse is not None:
            refuse = not refuse
        for label, report in (("best", out["best"]), ("general", out["general"])):
            refused = isinstance(report, dict)
            if refuse is not None and refused != refuse:
                return f"{label}: refusal {refused} but closed form predicts {refuse}"
            if refused:
                continue
            eps = report.epsilon + SANDWICH_SLACK
            low = -SANDWICH_SLACK if label == "best" else -eps
            if not low <= gap <= eps:
                return f"{label}: exact gap {gap!r} outside certificate [{low!r}, {eps!r}]"
        return None


# ---------------------------------------------------------------------------
# dependent-spec
# ---------------------------------------------------------------------------


class DependentSpec(_Workload):
    """Moving-window head-run specs through ``cli.main`` in-process.

    m stays at or below 1000 (one op up to ~0.1 s): a run takes each op's
    fastest pass, which needs ops short enough to land inside the quiet
    stretches of a shared machine.
    """

    name = "dependent-spec"
    ident = 2
    M_RANGE = (100, 1000)
    M_STRATA = 6
    RUNS = (2, 3, 4)
    A_RANGE = (0.125, 2.0)  # log-uniform target a(lam); half lie below 1/2
    COMMANDS = ("entropy-bound", "tv-bounds")
    ROUNDS = 1
    FAULTS = ("lambda", "a", "agg", "exit")

    def __init__(self, seed: int, workdir: Path, cache_dir: Path):
        # The spec files are written once, here; every pass runs each of
        # them through both commands.  Each spec draws m from its own sub-stratum, and r walks the
        # sub-strata of each stratum in a fixed cyclic (Latin) order, so the
        # cost of the whole set barely depends on the seed.  The target a(lam)
        # is a Latin sample over the specs in seeded order.
        super().__init__(seed, workdir, cache_dir)
        rng = _rng(seed, self.ident)
        runs = len(self.RUNS)
        cells = self.M_STRATA * runs
        a_cells = rng.permutation(cells)
        self.specs = []
        for stratum in range(self.M_STRATA):
            for i, r in enumerate(self.RUNS):
                cell = stratum * runs + (i + stratum) % runs
                m = int(round(_log_uniform(rng, *self.M_RANGE, cell, cells)))
                a_target = _log_uniform(rng, *self.A_RANGE, int(a_cells[len(self.specs)]), cells)
                q = ref.moving_window_q(m, r, a_target)
                path = workdir / f"spec-m{stratum}-r{r}.json"
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump(ref.moving_window_spec(m, r, q), handle)
                self.specs.append({"path": str(path), "m": m, "r": r, "q": q})

    def round_inputs(self, index: int) -> list:
        rng = _rng(self.seed, self.ident, index)
        ops = [dict(spec, command=cmd) for spec in self.specs for cmd in self.COMMANDS]
        return _order(rng, ops)

    def smoke_inputs(self) -> list:
        small = sorted(self.specs, key=lambda s: s["m"] * s["r"])[:3]
        return [dict(spec, command=cmd) for spec in small for cmd in self.COMMANDS]

    def warmup_input(self):
        spec = min(self.specs, key=lambda s: s["m"] * s["r"])
        return dict(spec, command="entropy-bound")

    @staticmethod
    def run_op(op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([op["command"], "--spec", op["path"], "--format", "machine"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def check(self, op, out, faults=frozenset()):
        closed = ref.moving_window(op["m"], op["r"], op["q"])
        lam_ref = closed["lam"] * (1.001 if "lambda" in faults else 1.0)
        a_ref = closed["a"] * (1.001 if "a" in faults else 1.0)
        agg_ref = closed["agg"] * (1.001 if "agg" in faults else 1.0)

        if op["command"] == "tv-bounds":
            expected = {0}
        else:
            refuse = ref.refusal_predicted(closed["a"], 0.5, closed["lam"], op["m"] - 1)
            expected = {0, 3} if refuse is None else {3 if refuse else 0}
        if "exit" in faults:
            expected = {0, 3} - expected
        if out["code"] not in expected:
            return f"exit code {out['code']}, expected {sorted(expected)}: {out['stderr'].strip()}"
        try:
            doc = json.loads(out["stdout"])
        except json.JSONDecodeError as exc:
            return f"output is not JSON: {exc}"

        printed = []
        if op["command"] == "tv-bounds":
            printed.append(("agg_upper", doc["results"]["agg_upper"]["value"], agg_ref))
        else:
            conditions = {c["name"]: c["actual"] for c in doc["conditions"]}
            printed.append(("a(lambda)", conditions["a(lambda)"], a_ref))
            printed.append(("lambda condition", conditions["lambda"], lam_ref))
            if out["code"] == 0:
                printed.append(("lambda", doc["results"]["lambda"]["value"], lam_ref))
        for label, text, want in printed:
            if not _matches_6_digits(text, want):
                return f"{label} printed {text}, closed form {want!r}"
        return None


def _matches_6_digits(text: str, want: float) -> bool:
    """True when ``text`` is ``want`` rounded to 6 significant digits.

    Allows half a unit in the sixth digit plus 1e-12 relative for the
    library's own summation error, so a value on a rounding boundary passes.
    """
    got = float(text)
    if want == 0.0:
        return got == 0.0
    unit = 10.0 ** (math.floor(math.log10(abs(got or want))) - 5)
    return abs(got - want) <= 0.5 * unit * (1 + 1e-9) + 1e-12 * abs(want)


# ---------------------------------------------------------------------------
# certificate-grid
# ---------------------------------------------------------------------------


class CertificateGrid(_Workload):
    """Closed-form certificate sweeps and Poisson-entropy routes, interleaved."""

    name = "certificate-grid"
    ident = 3
    HYPERCUBE_N = range(10, 101)
    ARITH_OPS = 256
    ARITH_N = (10.0, 1e12)
    ARITH_U = (1e-3, 0.999)  # u = 2 a n, log-uniform; u > ~3/8 refuses
    ROUNDS = 1
    FAULTS = ("poisson-ref", "refusal")

    def __init__(self, seed: int, workdir: Path, cache_dir: Path):
        super().__init__(seed, workdir, cache_dir)
        self.grid_refs = ref.poisson_grid_references(cache_dir)
        self._grid_float = {lam: float(v) for lam, v in self.grid_refs.items()}
        self._float_refs = {}
        self.hyper_a = {
            (n, k): ref.hypercube_a(n, k) for n in self.HYPERCUBE_N for k in range(n + 1)
        }

    def round_inputs(self, index: int) -> list:
        rng = _rng(self.seed, self.ident, index)
        ops = [("hypercube", n, k) for (n, k) in self.hyper_a]
        # Latin-hypercube pairing of the n and u strata.
        for i, j in enumerate(rng.permutation(self.ARITH_OPS)):
            n = int(round(_log_uniform(rng, *self.ARITH_N, i, self.ARITH_OPS)))
            u = _log_uniform(rng, *self.ARITH_U, int(j), self.ARITH_OPS)
            ops.append(("arithmetic", u / (2.0 * n), n))
        ops += [("poisson_entropy", lam) for lam in ref.POISSON_GRID]
        ops += [("poisson_entropy_series", lam) for lam in ref.SERIES_GRID]
        return _order(rng, ops)

    def smoke_inputs(self) -> list:
        ops = self.round_inputs(0)
        picked = []
        for kind in ("hypercube", "arithmetic", "poisson_entropy", "poisson_entropy_series"):
            picked += [op for op in ops if op[0] == kind][:3]
        return picked

    def warmup_input(self):
        return ["hypercube", 30, 27]

    @staticmethod
    def run_op(op):
        kind = op[0]
        if kind == "hypercube":
            coeffs = models.hypercube_coefficients(op[1], op[2])
            try:
                report = bounds.entropy_bound_general(coeffs)
            except bounds.ConditionViolated as exc:
                report = _refused(exc)
            return {"report": report, "tv": chenstein.tv_bound_report(coeffs=coeffs)}
        if kind == "arithmetic":
            moments = models.arithmetic_moments(op[1], op[2])
            try:
                report = bounds.best_independent_bound(moments)
            except bounds.NoApplicableBound as exc:
                report = _refused(exc)
            tv = chenstein.tv_bound_report(lam=moments.lam, sum_p_squared=moments.sum_p_squared)
            return {"report": report, "tv": tv}
        if kind == "poisson_entropy":
            return {"value": poisson.poisson_entropy(op[1])}
        return {"value": poisson.poisson_entropy_series(op[1])}

    def _float_ref(self, lam: float) -> float:
        if lam not in self._float_refs:
            self._float_refs[lam] = ref.poisson_entropy_float(lam)
        return self._float_refs[lam]

    def check(self, op, out, faults=frozenset()):
        kind = op[0]
        shift = 2.0 * ENTROPY_TOL if "poisson-ref" in faults else 0.0
        if kind in ("poisson_entropy", "poisson_entropy_series"):
            h, want = out["value"].nats, self._grid_float[op[1]] + shift
        else:
            if kind == "hypercube":
                n, k = op[1], op[2]
                lam = float(math.comb(n, k))
                refuse = ref.refusal_predicted(self.hyper_a[(n, k)], 0.5, lam, 2.0**n - 1)
            else:
                lam, c = ref.arithmetic_c(op[1], op[2])
                refuse = ref.refusal_predicted(c, 0.25, lam, op[2] - 1)
            if "refusal" in faults and refuse is not None:
                refuse = not refuse
            refused = isinstance(out["report"], dict)
            if refuse is not None and refused != refuse:
                return f"{op}: refusal {refused} but closed form predicts {refuse}"
            if refused:
                return None
            h, want = out["report"].h_poisson.nats, self._float_ref(lam) + shift
        if not abs(h - want) <= ENTROPY_TOL:
            return f"{op}: H(Z) = {h!r}, reference {want!r}"
        return None


# ---------------------------------------------------------------------------
# hypercube-mc
# ---------------------------------------------------------------------------


class HypercubeMC(_Workload):
    """The orientation simulator at one and two threads on the same inputs.

    One operation is the pair (threads=1, then threads=2), so the check can
    compare their counts.  Each round holds n = 6 once, n = 8 twice and
    n = 10 once, which puts the median inside the n = 8 cluster of
    latencies rather than on a boundary between clusters.
    """

    name = "hypercube-mc"
    ident = 4
    DIMENSIONS = (6, 8, 8, 10)
    REPLICATES = 8192  # two RNG chunks of 4096, so two threads can share an op
    ROUNDS = 6
    FAULTS = ("mean", "threads")

    def round_inputs(self, index: int) -> list:
        rng = _rng(self.seed, self.ident, index)
        ops = [
            {"n": n, "k": int(rng.integers(0, n + 1)), "seed": int(rng.integers(2**31))}
            for n in self.DIMENSIONS
        ]
        return _order(rng, ops)

    def smoke_inputs(self) -> list:
        return [op for op in self.round_inputs(0) if op["n"] < 10]

    def warmup_input(self):
        return next(op for op in self.round_inputs(0) if op["n"] == 6)

    @classmethod
    def run_op(cls, op):
        return [
            models.hypercube_monte_carlo(op["n"], op["k"], cls.REPLICATES, op["seed"], threads=t)
            for t in (1, 2)
        ]

    def check(self, op, out, faults=frozenset()):
        one, two = out
        lam = float(math.comb(op["n"], op["k"]))
        if "mean" in faults:
            lam = 1.5 * lam + 1.0
        if abs(one.mean_w - lam) > MC_SE_LIMIT * one.mean_std_err:
            return f"mean {one.mean_w!r} is more than {MC_SE_LIMIT} SE from C(n,k) = {lam!r}"
        counts = two.counts.copy()
        if "threads" in faults:
            counts[0] += 1
        if not np.array_equal(one.counts, counts):
            return "threads=1 and threads=2 counts differ"
        return None


WORKLOADS = {w.name: w for w in (OracleSandwich, DependentSpec, CertificateGrid, HypercubeMC)}


def make(name: str, seed: int, workdir: Path, cache_dir: Path):
    return WORKLOADS[name](seed, workdir, cache_dir)
