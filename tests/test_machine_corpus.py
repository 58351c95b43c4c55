"""Replay a committed corpus of CLI commands, byte for byte.

``tests/data/machine_corpus.json`` holds, for each command, its argv, its
exit code and its ``--format machine`` stdout, plus the dependency-spec
documents that the ``--spec`` commands read (written to a temporary
directory and named by relative path, so the echoed path is stable).

Refactors of the bounds and coefficient layers must keep every byte.
Regenerate the file (``PYTHONPATH=src python tests/test_machine_corpus.py``)
only with a change that means to alter the output, and name the commands
and fields that moved.
"""

import contextlib
import io
import json
import os
import pathlib
import random
import sys
import tempfile

from poientropy.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "machine_corpus.json"

# (lambda, sum p^2, m): certified and refused moment summaries, including
# both Example 1 systems, a zero sum p^2 and a mean above m - 1.
_MOMENTS = (
    ("1000000.01", "13333.3335333", "1e8"),
    ("10000000000.01", "133333333.333", "1e12"),
    ("5", "0.01", "100"),
    ("2.5", "0.3", "1000"),
    ("0.5", "0", "10"),
    ("3", "0", "3"),
    ("0.001", "1e-7", "2"),
    ("10", "2", "50"),
    ("10", "5", "50"),
    ("50", "40", "100"),
    ("1e6", "1e5", "1e9"),
    ("7", "0.02", "7"),
    ("1e-300", "1e-301", "5"),
    ("400", "0.5", "1e15"),
)

# b1,b2,b3,lambda,log2m: orientation rows, pure b3, zero coefficients,
# refusals and an index set of 2^1000.
_COEFFS = (
    "0.47589801251888275,0.16579672694206238,0,4060,30",
    "0.1,0.05,0,20,10",
    "0,0,0,5,8",
    "0,0,0.001,1e6,40",
    "0.3,0.3,0.3,1,3",
    "1e-40,1e-41,0,1e30,1000",
    "0.01,0,0,100,6",
    "0.2,0.1,0.05,2,1",
)

_SPECS = {
    "window.json": {
        "m": 6,
        "marginals": [0.05] * 6,
        "neighborhoods": [[b for b in range(6) if abs(a - b) < 2] for a in range(6)],
        "pair_expectations": [[a, a + 1, 0.001] for a in range(5)],
        "b3": "zero",
    },
    "long_range.json": {
        "m": 4,
        "marginals": [0.02, 0.04, 0.01, 0.03],
        "neighborhoods": [[0], [1], [2], [3]],
        "pair_expectations": [],
        "b3": [0.001, 0.0, 0.002, 0.0005],
    },
    "refused.json": {
        "m": 2,
        "marginals": [0.3, 0.3],
        "neighborhoods": [[0, 1], [0, 1]],
        "pair_expectations": [[0, 1, 0.3]],
        "b3": "zero",
    },
    "index_map.json": {
        "m": 3,
        "marginals": {"0": 0.1, "1": 0.05, "2": 0.1},
        "neighborhoods": {"0": [0, 1], "1": [0, 1, 2], "2": [1, 2]},
        "pair_expectations": [[0, 1, 0.01], [1, 2, 0.005]],
        "b3": "zero",
    },
}

# (n, k) rows of the orientation model, certified and refused.
_HYPERCUBE = (
    (30, 27), (50, 48), (100, 95), (100, 70), (12, 11), (14, 13), (16, 15),
    (14, 12), (10, 5), (3, 1), (1, 0), (1, 1), (20, 0), (20, 20), (40, 2),
    (200, 199),
)

# (n, k, replicates, seed) of simulated orientation counts: one short chunk,
# a full chunk and a short one, and two full chunks and a short one, so that
# any change to the simulator's kernel must reproduce its counts exactly.
_SIMULATE = ((3, 1, 100, 7), (6, 4, 5000, 2012), (9, 8, 8292, 321))

# (n, p_max, seed) of exact-oracle systems: n <= 200, so that the pmf is
# printed, and every printed entry at least 1e-300, so that each is a
# rounding of a normal double and no subnormal tail is pinned.
_EXACT = ((5, 1.0, 1), (40, 0.02, 2), (80, 0.5, 3), (120, 0.1, 4), (200, 0.5, 5), (200, 1.0, 6))


def _exact_probs(n: int, p_max: float, seed: int) -> str:
    rng = random.Random(seed)
    return ",".join(f"{rng.uniform(0.0, p_max):.4g}" for _ in range(n))


def corpus_commands() -> list:
    """The corpus argv lists, in replay order."""
    machine = ["--format", "machine"]
    commands = [
        ["table1", *machine],
        ["table1", *machine, "--bits"],
        ["example1", *machine],
        ["example1", *machine, "--tol", "1e-6"],
    ]
    commands += [["hypercube", "--n", str(n), "--k", str(k), *machine] for n, k in _HYPERCUBE]
    commands += [
        ["hypercube", "--n", str(n), "--k", str(k), "--simulate",
         "--replicates", str(r), "--seed", str(seed), *machine]
        for n, k, r, seed in _SIMULATE
    ]
    for lam, sum_p2, m in _MOMENTS:
        source = ["--independent", "--lambda", lam, "--sum-p2", sum_p2, "--m", m]
        commands.append(["entropy-bound", *source, *machine])
        for rule in ("theorem4", "corollary", "proposition", "best"):
            commands.append(["entropy-bound", *source, "--rule", rule, *machine])
        commands.append(["tv-bounds", *source, *machine])
    for coeffs in _COEFFS:
        commands.append(["entropy-bound", "--coeffs", coeffs, *machine])
        commands.append(["tv-bounds", "--coeffs", coeffs, *machine])
    commands.append(["entropy-bound", "--coeffs", _COEFFS[0], "--rule", "theorem4", *machine])
    for name in _SPECS:
        commands.append(["entropy-bound", "--spec", name, *machine])
        commands.append(["tv-bounds", "--spec", name, *machine])
    commands.append(["entropy-bound", "--spec", "window.json", "--rule", "theorem4", *machine])
    for n, p_max, seed in _EXACT:
        commands.append(["exact", "--probs", _exact_probs(n, p_max, seed), *machine])
    return commands


def replay(argv: list) -> tuple:
    """(exit code, stdout) of one command run in-process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _write_specs(directory: pathlib.Path, specs: dict) -> None:
    for name, doc in specs.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")


def test_machine_output_is_byte_identical(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    _write_specs(tmp_path, corpus["specs"])
    monkeypatch.chdir(tmp_path)
    moved = []
    for entry in corpus["commands"]:
        code, out = replay(entry["argv"])
        if code != entry["exit"]:
            moved.append(f"{entry['argv']}: exit {entry['exit']} -> {code}")
        elif out != entry["stdout"]:
            old, new = entry["stdout"].splitlines(), out.splitlines()
            line = next(
                (i for i, pair in enumerate(zip(old, new)) if pair[0] != pair[1]),
                min(len(old), len(new)),
            )
            moved.append(f"{entry['argv']}: stdout line {line + 1} moved")
    assert len(corpus["commands"]) >= 100
    assert moved == []


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch)
        _write_specs(directory, _SPECS)
        here = pathlib.Path.cwd()
        try:
            os.chdir(directory)
            entries = []
            for argv in corpus_commands():
                code, out = replay(argv)
                entries.append({"argv": argv, "exit": code, "stdout": out})
        finally:
            os.chdir(here)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(
        json.dumps({"specs": _SPECS, "commands": entries}, indent=1) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} commands to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
