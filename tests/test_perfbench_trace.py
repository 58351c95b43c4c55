"""The benchmark's span tracer still fits the library it patches.

``perfbench/trace.py`` wraps the public functions of every layer and counts
``LogScalar`` arithmetic per op; ``perfbench/run.py --trace 1`` and
``--smoke`` abort when that count is missing.  This holds it against the
library so that a change to either side shows here first.
"""

import importlib.util
from pathlib import Path

from poientropy import bounds
from poientropy.logspace import LogScalar
from poientropy.models import hypercube_coefficients

TRACE_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "trace.py"


def _load_trace():
    # Loaded by path: as ``trace`` it would shadow the standard-library module.
    spec = importlib.util.spec_from_file_location("perfbench_trace", TRACE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_logscalar_arithmetic_of_a_certificate():
    tracer = _load_trace().Tracer()
    coeffs = hypercube_coefficients(30, 27)
    originals = (bounds.entropy_bound_general, LogScalar.__add__)
    tracer.install()
    try:
        tracer.begin_op(0)
        bounds.entropy_bound_general(coeffs)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert (bounds.entropy_bound_general, LogScalar.__add__) == originals
    assert tracer.op_counts[0]["logscalar_ops"] > 0
    name_id = tracer.names.index("bounds.entropy_bound_general")
    assert (name_id, 0) in zip(tracer.name, tracer.op)


def test_tracer_wraps_the_poisson_entropy_series():
    # Each call of the series route, direct or through poisson_entropy, is a
    # span of its own.
    from poientropy import poisson

    tracer = _load_trace().Tracer()
    original = poisson.poisson_entropy_series
    tracer.install()
    try:
        assert poisson.poisson_entropy_series is not original
        tracer.begin_op(0)
        poisson.poisson_entropy_series(2.5)
        poisson.poisson_entropy(2.5)
        tracer.end_op()
    finally:
        tracer.uninstall()
    assert poisson.poisson_entropy_series is original
    name_id = tracer.names.index("poisson.poisson_entropy_series")
    assert list(tracer.name).count(name_id) == 2
