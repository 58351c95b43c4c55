"""Command-line surface and structured output documents.

Every command prints one output document to stdout in the selected format
(``pretty`` text, ``machine`` JSON, or ``csv``).  Numeric results are
emitted as decimal strings with 6 significant digits and an explicit unit
tag; values whose magnitude falls below 1e-300 carry a natural-log
companion field so underflowed certificates stay meaningful.  Entropy
fields are nats unless ``--bits`` asks for a display-time conversion.

Exit codes: 0 success, 2 usage or input error, 3 a bound's hypothesis
failed (the inequality and its actual value are printed), 1 when the
reader closes stdout before the document is written (a broken pipe).
The library checks every range; this module parses text and names flags.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bounds import (
    ConditionViolated,
    MomentSummary,
    NoApplicableBound,
    best_independent_bound,
    entropy_bound_general,
    entropy_bound_independent,
    entropy_bound_independent_sharp,
)
from .chenstein import (
    ChenSteinCoefficients,
    coefficients_from_spec,
    coefficients_independent,
    dependency_spec_from_dict,
    tv_bound_report,
)
from .exact import BernoulliSystem, exact_distribution, pmf_entropy, tv_to_poisson
from .models import (
    hypercube_coefficients,
    hypercube_monte_carlo,
    reproduce_example1,
    reproduce_table1,
)
from .poisson import (
    InputError,
    _check_tol,
    poisson_entropy,
    poisson_entropy_asymptotic,
    poisson_entropy_series,
)

_LN2 = math.log(2.0)
_LOG_FLOOR = 1e-300  # below this magnitude a log_value companion is attached

# Each --rule with the certificate it runs on an --independent moment summary.
_CERTIFIERS = {
    "theorem4": lambda moments, tol: entropy_bound_general(
        coefficients_independent(moments), tol=tol
    ),
    "corollary": entropy_bound_independent,
    "proposition": entropy_bound_independent_sharp,
    "best": best_independent_bound,
}

# The flag that carries each library field, one table per input source.
_MOMENT_FLAGS = {
    "lam": "--lambda",
    "sum_p_squared": "--sum-p2",
    "m": "--m",
    "theta": "--sum-p2 against --lambda",
}
_COEFF_FLAGS = {
    "b1": "--coeffs field b1",
    "b2": "--coeffs field b2",
    "b3": "--coeffs field b3",
    "lam": "--coeffs field lambda",
    "log2_m": "--coeffs field log2m",
}
_HYPERCUBE_FLAGS = {
    "n": "--n",
    "k": "--k against --n",
    "replicates": "--replicates",
    "master_seed": "--seed",
}


# ---------------------------------------------------------------------------
# document assembly
# ---------------------------------------------------------------------------


def _num(value, unit, log_value=None):
    entry = {"value": float(value), "unit": unit}
    if log_value is not None and abs(float(value)) < _LOG_FLOOR:
        entry["log_value"] = float(log_value)
    return entry


def _fmt6(x) -> str:
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.6g}"


def _condition_entries(checks):
    return [
        {
            "name": c.name,
            "required": _fmt6(c.required),
            "actual": _fmt6(c.actual),
            "satisfied": bool(c.satisfied),
        }
        for c in checks
    ]


def _relative_errors(report):
    """The relative error, with its log companion, and its percentage."""
    return {
        "relative_error": _num(report.relative_error, "fraction", report.relative_error_log),
        "relative_error_percent": _num(100.0 * report.relative_error, "percent"),
    }


def _report_results(report):
    lo, hi = report.interval
    return {
        "rule": report.theorem_id,
        "convention": report.convention,
        "lambda": _num(report.lam, "dimensionless"),
        "h_poisson": _num(report.h_poisson.nats, "nats"),
        "h_poisson_certified_abs_error": _num(
            report.h_poisson.certified_abs_error, "nats"
        ),
        "h_poisson_method": report.h_poisson.method,
        "a_term": _num(report.a_term, "nats", report.a_term_log),
        "b_term": _num(report.b_term, "nats", report.b_term_log),
        "epsilon": _num(report.epsilon, "nats", report.epsilon_log),
        "interval_low": _num(lo, "nats"),
        "interval_high": _num(hi, "nats"),
        "point_estimate": _num(report.point_estimate, "nats"),
        **_relative_errors(report),
    }


def _document(args, results, conditions=None, notes=None):
    # Input echo must stay lossless (full float precision) so that re-feeding
    # it reproduces byte-identical results; 6-digit display is for results.
    inputs = {
        key: (repr(value) if isinstance(value, float) else value)
        for key, value in args._inputs.items()
    }
    doc = {
        "tool": "poientropy",
        "version": __version__,
        "command": ["poientropy"] + list(args._argv),
        "inputs": inputs,
        "results": results,
    }
    if conditions:
        doc["conditions"] = conditions
    if notes:
        doc["notes"] = list(notes)
    return doc


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _to_bits(entry):
    out = dict(entry)
    out["value"] = entry["value"] / _LN2
    out["unit"] = "bits"
    if "log_value" in entry:
        out["log_value"] = entry["log_value"] - math.log(_LN2)
    return out


def _stringify(node, bits):
    if isinstance(node, dict):
        if set(node) >= {"value", "unit"}:
            entry = _to_bits(node) if bits and node["unit"] == "nats" else node
            out = {"value": _fmt6(entry["value"]), "unit": entry["unit"]}
            if "log_value" in entry:
                out["log_value"] = _fmt6(entry["log_value"])
            return out
        return {key: _stringify(sub, bits) for key, sub in node.items()}
    if isinstance(node, list):
        return [_stringify(item, bits) for item in node]
    if isinstance(node, float):
        return _fmt6(node)
    return node


def _flat_items(node, prefix=""):
    if isinstance(node, dict):
        if set(node) >= {"value", "unit"}:
            text = f"{node['value']} {node['unit']}"
            if "log_value" in node:
                text += f" (ln = {node['log_value']})"
            yield prefix, text
            return
        for key, sub in node.items():
            yield from _flat_items(sub, f"{prefix}.{key}" if prefix else key)
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from _flat_items(item, f"{prefix}[{i}]")
    else:
        yield prefix, str(node)


def _render(doc, fmt, bits):
    doc = _stringify(doc, bits)
    if fmt == "machine":
        return json.dumps(doc, indent=2, sort_keys=True)
    if fmt == "csv":
        lines = ["field,value"]
        for key, text in _flat_items(doc):
            text = str(text).replace('"', '""')
            lines.append(f'{key},"{text}"')
        return "\n".join(lines)
    lines = [f"poientropy {doc['command'][1] if len(doc['command']) > 1 else ''} (v{doc['version']})"]
    for section in ("inputs", "results", "conditions", "notes", "error"):
        if section not in doc:
            continue
        if isinstance(doc[section], str):
            lines.append(f"{section}: {doc[section]}")
            continue
        lines.append(f"{section}:")
        for key, text in _flat_items(doc[section]):
            lines.append(f"  {key} = {text}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# input parsing helpers
# ---------------------------------------------------------------------------


def _flagged(flags: dict, build, *args, **kwargs):
    """``build(*args, **kwargs)``, with a refused field named by its flag."""
    try:
        return build(*args, **kwargs)
    except InputError as exc:
        raise ValueError(f"{flags[exc.field]}: {exc}") from None


def _number(flag: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValueError(f"{flag} is not a number: {text!r}") from None


def _parse_probs(text: str) -> list:
    if os.path.isfile(text):
        with open(text, "r", encoding="utf-8") as handle:
            text = handle.read()
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError("no probabilities found")
    return [float(tok) for tok in tokens]


def _parse_moments(args) -> MomentSummary:
    if args.lam is None or args.sum_p2 is None or args.m is None:
        raise ValueError("--independent requires --lambda, --sum-p2 and --m")
    return _flagged(
        _MOMENT_FLAGS, MomentSummary,
        lam=args.lam, sum_p_squared=args.sum_p2, m=_number("--m", args.m),
    )


def _load_spec(path: str) -> ChenSteinCoefficients:
    """The coefficients of the spec file ``path``; refusals name --spec and the path."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return coefficients_from_spec(dependency_spec_from_dict(json.load(handle)))
    except (OSError, ValueError, RecursionError) as exc:
        raise ValueError(f"--spec {path}: {exc}") from None


def _parse_coeffs(text: str) -> ChenSteinCoefficients:
    tokens = text.split(",")
    if len(tokens) != len(_COEFF_FLAGS):
        raise ValueError(
            f"--coeffs expects 5 values b1,b2,b3,lambda,log2m, got {len(tokens)}"
        )
    values = map(_number, _COEFF_FLAGS.values(), tokens)
    return _flagged(_COEFF_FLAGS, ChenSteinCoefficients, **dict(zip(_COEFF_FLAGS, values)))


def _bound_inputs(args):
    """Resolve the three mutually exclusive entropy-bound input sources.

    Returns (moments, coeffs): the moment summary for --independent, else
    the coefficients.
    """
    sources = [args.independent, args.spec is not None, args.coeffs is not None]
    if sum(sources) != 1:
        raise ValueError(
            "exactly one input source required: --independent, --spec or --coeffs"
        )
    if args.independent:
        return _parse_moments(args), None
    if args.spec is not None:
        return None, _load_spec(args.spec)
    return None, _parse_coeffs(args.coeffs)


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------


def _cmd_poisson_entropy(args):
    flags = {"lam": f"--lambda {args.lam!r} under --method {args.method}"}
    if args.method == "asymptotic":
        value = _flagged(flags, poisson_entropy_asymptotic, args.lam)
    else:
        route = poisson_entropy_series if args.method == "series" else poisson_entropy
        value = _flagged(flags, route, args.lam, tol=args.tol)
    notes = []
    if value.method == "asymptotic":
        notes.append("certified_abs_error of the asymptotic route is heuristic")
    return _document(
        args,
        {
            "entropy": _num(value.nats, "nats"),
            "certified_abs_error": _num(value.certified_abs_error, "nats"),
            "method": value.method,
        },
        notes=notes,
    )


def _cmd_entropy_bound(args):
    moments, coeffs = _bound_inputs(args)
    if moments is None:
        if args.rule not in (None, "theorem4"):
            raise ValueError(
                "--spec/--coeffs inputs support only --rule theorem4 "
                "(the other rules assume independent summands)"
            )
        report = entropy_bound_general(coeffs, tol=args.tol)
    else:
        report = _CERTIFIERS[args.rule or "best"](moments, tol=args.tol)
    notes = [report.notes] if report.notes else None
    return _document(
        args,
        _report_results(report),
        conditions=_condition_entries(report.conditions),
        notes=notes,
    )


def _cmd_tv_bounds(args):
    # Barbour-Hall and Le Cam hold only for independent summands, so a
    # --spec or --coeffs input gets the AGG bound alone.
    moments, coeffs = _bound_inputs(args)
    if moments is None:
        report = tv_bound_report(coeffs=coeffs)
    else:
        report = tv_bound_report(
            lam=moments.lam,
            sum_p_squared=moments.sum_p_squared,
            coeffs=coefficients_independent(moments),
        )
    results = {}
    for name in ("lecam_upper", "bh_upper", "bh_lower", "agg_upper"):
        value = getattr(report, name)
        if value is not None:
            results[name] = _num(value, "probability")
    notes = [report.method_notes] if report.method_notes else None
    return _document(args, results, notes=notes)


def _cmd_exact(args):
    try:
        system = BernoulliSystem(_parse_probs(args.probs))
        pmf = exact_distribution(system)
        tv = tv_to_poisson(pmf, system.lam, tol=args.tol)
    except (OSError, ValueError) as exc:
        # Every field of this input source is the --probs list.
        raise ValueError(f"--probs: {exc}") from None
    entropy = pmf_entropy(pmf)
    results = {
        "n": system.n,
        "lambda": _num(system.lam, "dimensionless"),
        "sum_p_squared": _num(system.sum_p_squared, "dimensionless"),
        "entropy": _num(entropy.nats, "nats"),
        "entropy_certified_abs_error": _num(entropy.certified_abs_error, "nats"),
        "tv_to_poisson": _num(tv, "probability"),
    }
    if pmf.support_size <= 201:
        results["pmf"] = [_num(p, "probability") for p in pmf.mass]
    return _document(args, results)


def _env_threads() -> int:
    """The POIENTROPY_THREADS simulation thread count; below 1 means 1."""
    text = os.environ.get("POIENTROPY_THREADS", "1")
    try:
        return max(1, int(text))
    except ValueError:
        raise ValueError(f"POIENTROPY_THREADS must be an integer, got {text!r}") from None


def _cmd_hypercube(args):
    coeffs = _flagged(_HYPERCUBE_FLAGS, hypercube_coefficients, args.n, args.k)
    results = {
        "lambda": _num(coeffs.lam.to_float(), "dimensionless", coeffs.lam.logmag),
        "b1": _num(coeffs.b1.to_float(), "dimensionless", coeffs.b1.logmag),
        "b2": _num(coeffs.b2.to_float(), "dimensionless", coeffs.b2.logmag),
        "b3": _num(coeffs.b3.to_float(), "dimensionless", coeffs.b3.logmag),
        "log2_m": _num(coeffs.log2_m, "dimensionless"),
    }
    notes = []
    conditions = None
    if args.simulate:
        mc = _flagged(
            _HYPERCUBE_FLAGS, hypercube_monte_carlo,
            args.n, args.k, args.replicates, args.seed, threads=_env_threads(),
        )
        results["simulation"] = {
            "replicates": mc.replicates,
            "seed": mc.master_seed,
            "mean_w": _num(mc.mean_w, "dimensionless"),
            "mean_std_err": _num(mc.mean_std_err, "dimensionless"),
            "entropy_plugin": _num(mc.entropy_plugin, "nats"),
            "entropy_jackknife_se": _num(mc.entropy_jackknife_se, "nats"),
            "pmf_nonzero": {
                str(w): _num(mc.pmf[w], "probability")
                for w in np.nonzero(mc.counts)[0]
            },
        }
        notes.append(mc.note)
    else:
        try:
            report = entropy_bound_general(coeffs, tol=args.tol)
            results["bound"] = _report_results(report)
            conditions = _condition_entries(report.conditions)
        except ConditionViolated as exc:
            conditions = _condition_entries(exc.checks)
            notes.append(f"entropy certificate inapplicable: {exc}")
    return _document(args, results, conditions=conditions, notes=notes)


def _cmd_table1(args):
    rows = []
    for row in reproduce_table1(tol=args.tol):
        rows.append(
            {
                "n": row.n,
                "k": row.k,
                "lambda": _num(row.lam, "dimensionless"),
                "entropy": _num(row.entropy_nats, "nats"),
                **_relative_errors(row.report),
                "reference_lambda": _num(row.reference_lambda, "dimensionless"),
                "reference_entropy": _num(row.reference_entropy_nats, "nats"),
                "reference_relative_error": _num(
                    row.reference_relative_error, "fraction"
                ),
                "reference_format": row.reference_format,
            }
        )
    return _document(args, {"rows": rows})


def _cmd_example1(args):
    cases = []
    for case in reproduce_example1(tol=args.tol):
        entry = {
            "a": _num(case.a, "dimensionless"),
            "n": case.n,
            "lambda": _num(case.moments.lam, "dimensionless"),
            "theta": _num(case.moments.theta, "dimensionless"),
            "corollary_epsilon": _num(case.corollary.epsilon, "nats"),
            "proposition_epsilon": _num(case.proposition.epsilon, "nats"),
            "best_rule": case.best.theorem_id,
            "h_poisson": _num(case.best.h_poisson.nats, "nats"),
            "point_estimate": _num(case.best.point_estimate, "nats"),
            "relative_error": _num(case.best.relative_error, "fraction"),
            "reference": {
                key: (_num(value, "nats") if "nats" in key else value)
                for key, value in case.reference.items()
            },
        }
        cases.append(entry)
    return _document(args, {"cases": cases})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--format", choices=("pretty", "machine", "csv"), default="pretty",
        help="output document format",
    )
    common.add_argument(
        "--tol", type=float, default=1e-9,
        help="certified tolerance for series evaluations (default 1e-9)",
    )
    common.add_argument(
        "--bits", action="store_true",
        help="display entropies in bits (conversion at format time only)",
    )

    parser = argparse.ArgumentParser(
        prog="poientropy",
        description=(
            "Certified error bounds for approximating the entropy of a sum of "
            "Bernoulli variables by a Poisson entropy of the same mean."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("poisson-entropy", parents=[common],
                       help="entropy of Po(lambda) with a certified error")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--method", choices=("auto", "series", "asymptotic"),
                   default="auto")
    p.set_defaults(handler=_cmd_poisson_entropy)

    bound_sources = argparse.ArgumentParser(add_help=False)
    bound_sources.add_argument("--independent", action="store_true",
                               help="moment-summary input for independent summands")
    bound_sources.add_argument("--lambda", dest="lam", type=float)
    bound_sources.add_argument("--sum-p2", dest="sum_p2", type=float)
    bound_sources.add_argument("--m", dest="m")
    bound_sources.add_argument("--spec", help="JSON dependency spec file")
    bound_sources.add_argument("--coeffs", help="b1,b2,b3,lambda,log2m")

    p = sub.add_parser("entropy-bound", parents=[common, bound_sources],
                       help="certified |H(Z) - H(W)| bound")
    p.add_argument("--rule", choices=_CERTIFIERS, default=None)
    p.set_defaults(handler=_cmd_entropy_bound)

    p = sub.add_parser("tv-bounds", parents=[common, bound_sources],
                       help="total-variation bounds for one system")
    p.set_defaults(handler=_cmd_tv_bounds)

    p = sub.add_parser("exact", parents=[common],
                       help="exact oracle: pmf, entropy and exact TV distance")
    p.add_argument("--probs", required=True,
                   help="file of probabilities, or an inline comma/space list")
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("hypercube", parents=[common],
                       help="random-orientation model coefficients and bound")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--simulate", action="store_true")
    p.add_argument("--replicates", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(handler=_cmd_hypercube)

    p = sub.add_parser("table1", parents=[common],
                       help="recompute the ten orientation-model benchmark rows")
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("example1", parents=[common],
                       help="recompute both arithmetic-system cases")
    p.set_defaults(handler=_cmd_example1)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    args._argv = argv
    args._inputs = {
        key: value
        for key, value in sorted(vars(args).items())
        if not key.startswith("_") and key not in ("handler",) and value is not None
    }

    try:
        _flagged({"tol": "--tol"}, _check_tol, args.tol)
        doc = args.handler(args)
    except (ConditionViolated, NoApplicableBound) as exc:
        doc = {
            "tool": "poientropy",
            "version": __version__,
            "command": ["poientropy"] + argv,
            "error": str(exc),
            "conditions": _condition_entries(exc.checks),
        }
        return _emit(_render(doc, args.format, args.bits), 3)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"poientropy: error: {exc}", file=sys.stderr)
        return 2
    return _emit(_render(doc, args.format, args.bits), 0)


def _emit(text: str, code: int) -> int:
    """Print ``text`` and return ``code``, or 1 if the reader has gone away."""
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # raise a second BrokenPipeError.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    return code


def entry_point() -> None:
    raise SystemExit(main())
