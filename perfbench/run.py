#!/usr/bin/env python3
"""poientropy benchmark: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Workloads (see ``BENCHMARK.json`` for why each was chosen): oracle-sandwich,
dependent-spec, certificate-grid, hypercube-mc.  The library is imported
from ``src/`` of the checkout; nothing is installed.

Load is one closed-loop client in this process: the next operation starts
when the previous one returns.  A run builds its workload's op set from the
seed and replays it in passes for ``--seconds`` (at least one pass).  Only
the library call is timed; input generation and output checks sit outside
it.  Every output of every pass is checked, and one that fails its check
counts in ``failed``.

Each op's latency is the 90th percentile of its repeats in the run.  The
machine is shared, and other tenants' load switches it between a contended
level (identical repeats about 2x slower, present in nearly every run) and
quiet stretches that come and go over seconds to minutes.  Over 15-45
repeats the 90th percentile reads the contended level; it was the steadiest
statistic across runs, where the mean, median and minimum moved with the
quiet stretches.

``--trace 0`` prints the end-to-end metrics:

* ``ops_per_s``: op-set size over the sum of the ops' latencies;
* ``latency_p50_ms``: median op latency (nearest rank);
* ``latency_tail_ms``: latency at the highest of p50, p90, p99, p99.9, ...
  with at least 10 ops beyond it (percentile and count in the detail line);
* ``setup_s``: median over ``SETUP_LAUNCHES`` fresh interpreters of the
  wall time to import ``poientropy`` and ``poientropy.cli`` and finish the
  workload's warm-up operation (input files are written beforehand);
* ``peak_rss_mb``: ``ru_maxrss`` of this process.

The failed fraction is ``failed / attempted`` of the result line; it is
not a metric of its own because its value is 0.

``--trace 1`` gives the per-layer metrics.  It runs untraced passes for
half of ``--seconds``, as many passes again with the tracer installed
(``trace.py``), and then one traced round of each other workload, so that
every layer is measured on every traced run: a metric whose layer the named
workload never reaches comes from those coverage rounds, and the detail line
says which.  ``trace.overhead_frac`` is the median traced pass's ops per
second over the median untraced pass's, minus 1.  Spans are written to
``perfbench/_results/``.

``--smoke`` runs a handful of operations per workload, proves that every
output check fails on a deliberately perturbed reference, and runs every
workload briefly in both modes to validate the result line.

The last line of standard output is the JSON result; the line before it is
a JSON ``detail`` object with provenance, the tail percentile, set-up
samples and failure messages.  The same detail is written to
``perfbench/_results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from array import array
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK_DIR = BENCH / "_work"
CACHE_DIR = BENCH / "_cache"
RESULTS_DIR = BENCH / "_results"

SETUP_LAUNCHES = 7
SPAN_CAP = 1_000_000  # spans kept in memory by one traced pass


def _load_library():
    """Put ``src/`` of this checkout first on the path and import the library."""
    package = ROOT / "src" / "poientropy" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: {package.relative_to(ROOT)} not found; run from a checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import poientropy

    if Path(poientropy.__file__).resolve() != package.resolve():
        raise SystemExit(f"perfbench: imported poientropy from {poientropy.__file__}")
    return poientropy


def _declared_metrics() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    return {
        "end_to_end": [(m["name"], m["unit"]) for m in doc["end_to_end"]],
        "per_layer": [(m["name"], m["unit"]) for m in doc["per_layer"]],
        "workloads": [w["name"] for w in doc["workloads"]],
    }


# ---------------------------------------------------------------------------
# provenance
# ---------------------------------------------------------------------------


def provenance(seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            commit = done.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "poientropy").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Pass:
    """Latencies (ns) and failures of one pass over an op set."""

    def __init__(self):
        self.latency_ns = array("q")
        self.failures = []

    @property
    def ops(self) -> int:
        return len(self.latency_ns)

    @property
    def seconds(self) -> float:
        return sum(self.latency_ns) / 1e9


def run_pass(wl, ops, tracer=None, op_base=0) -> Pass:
    """Closed loop over ``ops``: each op starts when the previous one returns."""
    result = Pass()
    clock = time.perf_counter_ns
    for index, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_base + index)
        t0 = clock()
        try:
            out, error = wl.run_op(op), None
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            out, error = None, f"{type(exc).__name__}: {exc}"
        t1 = clock()
        if tracer is not None:
            tracer.end_op(**_op_counters(out))
        result.latency_ns.append(t1 - t0)
        if error is None:
            try:
                error = wl.check(op, out)
            except (KeyError, TypeError, ValueError, IndexError) as exc:
                error = f"output not checkable: {type(exc).__name__}: {exc}"
        if error:
            result.failures.append(error)
    return result


def repeat_passes(wl, ops, seconds, max_passes=None, tracer=None) -> list:
    """Passes over ``ops`` while another pass fits in ``seconds`` (at least one)."""
    passes = []
    started = time.perf_counter()
    while not passes or (
        (time.perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds
        and (max_passes is None or len(passes) < max_passes)
        and (tracer is None or tracer.span_count < SPAN_CAP)
    ):
        passes.append(run_pass(wl, ops, tracer, op_base=len(passes) * len(ops)))
    return passes


def per_op_p90(passes) -> list:
    """Each op's 90th-percentile latency (ns) over the passes."""
    samples = np.array([np.frombuffer(p.latency_ns, dtype=np.int64) for p in passes])
    return np.quantile(samples, 0.9, axis=0).tolist()


def _op_counters(out) -> dict:
    if isinstance(out, dict) and "stdout" in out:
        return {"cli_out_bytes": len(out["stdout"].encode("utf-8"))}
    return {}


def latency_summary(latency_ns) -> dict:
    """Nearest-rank median and the highest ladder percentile with >= 10 beyond."""
    ordered = sorted(latency_ns)
    n = len(ordered)

    def at(beyond):
        return ordered[n - beyond - 1] / 1e6

    summary = {"samples": n, "p50_ms": at(n // 2)}
    tail = None
    for fraction, label in [(2, 50.0)] + [(10**j, 100.0 * (1 - 10.0**-j)) for j in range(1, 8)]:
        beyond = n // fraction
        if beyond < 10:
            break
        tail = {"percentile": label, "value_ms": at(beyond), "samples_beyond": beyond}
    summary["tail"] = tail
    return summary


def measure_setup(name: str, warmup, workdir: Path, launches: int) -> list:
    """Wall time of fresh interpreters that import the library and run one op."""
    path = workdir / "warmup.json"
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(warmup, handle)
    samples = []
    for _ in range(launches):
        t0 = time.perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "coldstart.py"), name, str(path)],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
        )
        samples.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"cold-start probe failed ({done.returncode}): {done.stderr.strip()}")
    return samples


# ---------------------------------------------------------------------------
# one benchmark run
# ---------------------------------------------------------------------------


def run(name, seed, seconds, trace, rounds=None, launches=SETUP_LAUNCHES):
    """One benchmark run; returns (result line dict, detail dict).

    ``rounds`` shrinks the op set (the smoke test uses one round).
    """
    import workloads

    declared = _declared_metrics()
    detail = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace}
    detail["provenance"] = provenance(seed)
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)).relative_to(ROOT)
    try:
        wl = workloads.make(name, seed, workdir, CACHE_DIR)
        ops = wl.op_set(rounds)
        wl.run_op(wl.warmup_input())  # lazy set-up inside the library, untimed
        if trace:
            values, passes = _traced(name, wl, ops, seed, seconds, workdir, detail)
            units = declared["per_layer"]
        else:
            setup = measure_setup(name, wl.warmup_input(), workdir, launches)
            passes = repeat_passes(wl, ops, seconds)
            latency = per_op_p90(passes)
            summary = latency_summary(latency)
            detail.update(
                {
                    "op_set": len(ops),
                    "passes": len(passes),
                    "pass_ops_per_s": [p.ops / p.seconds for p in passes],
                    "latency": summary,
                    "setup_samples_s": setup,
                }
            )
            values = {
                "ops_per_s": len(latency) / (sum(latency) / 1e9),
                "latency_p50_ms": summary["p50_ms"],
                "latency_tail_ms": summary["tail"]["value_ms"] if summary["tail"] else None,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = declared["end_to_end"]
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    attempted = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    detail["failed_frac"] = len(failures) / attempted
    detail["failures"] = failures[:10]
    missing = [metric for metric, _ in units if values.get(metric) is None]
    if missing:
        raise RuntimeError(f"no value for {missing}")
    line = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {metric: {"value": float(values[metric]), "unit": unit} for metric, unit in units},
    }
    return line, detail


def _traced(name, wl, ops, seed, seconds, workdir, detail):
    import trace
    import workloads

    others = [workloads.make(o, seed, workdir, CACHE_DIR) for o in workloads.WORKLOADS if o != name]
    for other in others:
        other.run_op(other.warmup_input())

    untraced = repeat_passes(wl, ops, seconds / 2)
    tracer = trace.Tracer()
    tracer.install()
    try:
        traced = repeat_passes(wl, ops, math.inf, max_passes=len(untraced), tracer=tracer)
        base = len(traced) * len(ops)
        coverage = []
        for other in others:
            coverage.append(run_pass(other, other.round_inputs(0), tracer, op_base=base))
            base += coverage[-1].ops
    finally:
        tracer.uninstall()

    overhead = statistics.median(p.seconds for p in untraced) / statistics.median(
        p.seconds for p in traced
    ) - 1.0
    grid_refs = next(w for w in [wl] + others if hasattr(w, "grid_refs")).grid_refs
    own_ops = range(len(traced) * len(ops))
    values = trace.layer_metrics(trace.SpanView(tracer, own_ops), grid_refs)
    fallback = trace.layer_metrics(trace.SpanView(tracer, range(own_ops.stop, base)), grid_refs)
    sources = {}
    for metric, value in values.items():
        if value is None:
            values[metric] = fallback[metric]
            sources[metric] = "coverage rounds of " + ", ".join(o.name for o in others)
        else:
            sources[metric] = name
    values["trace.overhead_frac"] = overhead
    sources["trace.overhead_frac"] = name

    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    spans_path = RESULTS_DIR / f"spans-{name}-seed{seed}.npz"
    tracer.save(spans_path)
    detail.update(
        {
            "op_set": len(ops),
            "untraced_passes": len(untraced),
            "traced_passes": len(traced),
            "spans": tracer.span_count,
            "spans_file": str(spans_path.relative_to(ROOT)),
            "metric_sources": sources,
        }
    )
    return values, untraced + traced + coverage


# ---------------------------------------------------------------------------
# smoke test
# ---------------------------------------------------------------------------


def smoke() -> int:
    """Handful-of-ops run of every workload, fault injection and schema check."""
    import workloads

    declared = _declared_metrics()
    problems = []
    if sorted(declared["workloads"]) != sorted(workloads.WORKLOADS):
        problems.append(f"BENCHMARK.json workloads {declared['workloads']} != code")
    WORK_DIR.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="smoke-", dir=WORK_DIR)).relative_to(ROOT)
    try:
        for name in workloads.WORKLOADS:
            wl = workloads.make(name, 1, workdir, CACHE_DIR)
            outputs = [(op, wl.run_op(op)) for op in wl.smoke_inputs()]
            clean = [e for op, out in outputs if (e := wl.check(op, out))]
            if clean:
                problems.append(f"{name}: clean check failed: {clean[0]}")
            for fault in wl.FAULTS:
                caught = sum(bool(wl.check(op, out, frozenset([fault]))) for op, out in outputs)
                print(f"smoke: {name}: fault {fault!r} failed {caught}/{len(outputs)} ops")
                if caught == 0:
                    problems.append(f"{name}: perturbed reference {fault!r} went unnoticed")
    finally:
        shutil.rmtree(ROOT / workdir, ignore_errors=True)

    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            line, _ = run(name, 1, 0.0, trace, rounds=1, launches=1)
            problems += [f"{name} trace={trace}: {p}" for p in _schema_problems(line, declared, trace)]
            print(f"smoke: {name} trace={trace}: {line['attempted']} ops, {line['failed']} failed")
    for problem in problems:
        print(f"smoke: FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def _schema_problems(line, declared, trace) -> list:
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(line)}")
    if not (isinstance(line["attempted"], int) and line["attempted"] >= 1):
        problems.append("attempted must be an int >= 1")
    if not isinstance(line["failed"], int) or line["failed"] != 0 or line["correct"] is not True:
        problems.append(f"failed={line['failed']} correct={line['correct']}")
    want = declared["per_layer" if trace else "end_to_end"]
    got = [(k, v["unit"]) for k, v in line["metrics"].items()]
    if got != want:
        problems.append(f"metrics {got} != declared {want}")
    for key, entry in line["metrics"].items():
        if set(entry) != {"value", "unit"} or not math.isfinite(entry["value"]):
            problems.append(f"metric {key} = {entry}")
        elif not trace and entry["value"] <= 0.0:
            problems.append(f"end-to-end metric {key} is not positive")
    return problems


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="self-test instead of a run")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    os.chdir(ROOT)
    _load_library()
    if args.smoke:
        return smoke()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    line, detail = run(args.workload, args.seed, args.seconds, args.trace)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"result": line, "detail": detail}, handle, indent=1)
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
