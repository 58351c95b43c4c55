"""Replay a committed corpus of bad CLI inputs.

``tests/data/input_error_corpus.json`` holds, for each command, its argv,
the environment it sets, the input flag it breaks and its exit code.  Every
flag of every command is fed nan, inf, a negative value, junk text and a
value just out of range; the dependency-spec documents that the ``--spec``
commands read are written to a temporary directory.

A replayed command must keep its exit code, and a command that exits 2 must
name the flag it breaks on stderr.  Regenerate the file
(``PYTHONPATH=src python tests/test_input_error_corpus.py``) only with a
change that means to alter an exit code, and name the commands that moved.
"""

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

from poientropy.cli import main

CORPUS = pathlib.Path(__file__).parent / "data" / "input_error_corpus.json"

_BAD = ("nan", "inf", "-1", "abc")

_MOMENTS = {"--lambda": "2", "--sum-p2": "0.1", "--m": "10"}
_COEFF_FIELDS = ("b1", "b2", "b3", "lambda", "log2m")
_COEFFS = ("0.1", "0.05", "0", "20", "10")
_HYPERCUBE = {"--n": "6", "--k": "5", "--replicates": "100", "--seed": "3"}

_VALID_SPEC = {
    "m": 3,
    "marginals": [0.05, 0.05, 0.05],
    "neighborhoods": [[0, 1], [0, 1, 2], [1, 2]],
    "pair_expectations": [[0, 1, 0.001], [1, 2, 0.001]],
    "b3": "zero",
}

# Each document breaks one field of the valid spec above.
_SPECS = {
    "bad_marginal.json": {**_VALID_SPEC, "marginals": [0.05, "nan", 0.05]},
    "inf_marginal.json": {**_VALID_SPEC, "marginals": [0.05, 1e400, 0.05]},
    "negative_marginal.json": {**_VALID_SPEC, "marginals": [0.05, -0.1, 0.05]},
    "zero_m.json": {**_VALID_SPEC, "m": 0},
    "negative_m.json": {**_VALID_SPEC, "m": -1},
    "junk_m.json": {**_VALID_SPEC, "m": "abc"},
    "stray_neighbour.json": {**_VALID_SPEC, "neighborhoods": [[0, 1], [0, 1, 3], [1, 2]]},
    "negative_neighbour.json": {**_VALID_SPEC, "neighborhoods": [[0, -1], [0, 1, 2], [1, 2]]},
    "pair_above_marginal.json": {**_VALID_SPEC, "pair_expectations": [[0, 1, 0.06], [1, 2, 0.001]]},
    "nan_pair.json": {**_VALID_SPEC, "pair_expectations": [[0, 1, "nan"], [1, 2, 0.001]]},
    "negative_b3.json": {**_VALID_SPEC, "b3": [0.0, -1.0, 0.0]},
    "junk_b3.json": {**_VALID_SPEC, "b3": "abc"},
    "missing_field.json": {key: value for key, value in _VALID_SPEC.items() if key != "b3"},
    "valid.json": _VALID_SPEC,
}
_NOT_JSON = {"not_json.json": "{not json", "empty.json": ""}


def _independent(**changes) -> list:
    values = {**_MOMENTS, **changes}
    argv = ["--independent"]
    for flag, value in values.items():
        argv += [flag, value]
    return argv


def _coeffs(field: str, value: str) -> str:
    tokens = list(_COEFFS)
    tokens[_COEFF_FIELDS.index(field)] = value
    return ",".join(tokens)


def _hypercube(simulate: bool, **changes) -> list:
    values = {**_HYPERCUBE, **changes}
    argv = ["hypercube"] + (["--simulate"] if simulate else [])
    for flag, value in values.items():
        argv.append(f"{flag}={value}")
    return argv


def corpus_commands() -> list:
    """(argv, environment, broken flag) for each command, in replay order."""
    out = []

    def add(argv, flag, env=None):
        out.append((argv, env or {}, flag))

    # poisson-entropy: --lambda under each route, --method.
    for value in _BAD + ("0",):
        add(["poisson-entropy", f"--lambda={value}"], "--lambda")
    add(["poisson-entropy", "--method", "series", "--lambda", "1.0000001e7"], "--lambda")
    add(["poisson-entropy", "--method", "asymptotic", "--lambda", "0.5"], "--lambda")
    add(["poisson-entropy", "--lambda", "5", "--method", "abc"], "--method")

    # --independent: each moment flag, the joint sum p^2 <= lambda, --rule,
    # a missing flag and two sources at once.
    for command in ("entropy-bound", "tv-bounds"):
        for flag, edges in (
            ("--lambda", ("0", "1e-320")),
            ("--sum-p2", ("-1e-300", "2.5")),
            ("--m", ("0", "2.5", "1e400")),
        ):
            for value in _BAD + edges:
                add([command, *_independent(**{flag: value})], flag)
    add(["entropy-bound", *_independent(), "--rule", "abc"], "--rule")
    add(["entropy-bound", "--independent", "--lambda", "2", "--m", "10"], "--sum-p2")
    add(["tv-bounds", *_independent(), "--coeffs", ",".join(_COEFFS)], "--coeffs")

    # --coeffs: every field, the field count.
    for field in _COEFF_FIELDS:
        for value in _BAD:
            add(["entropy-bound", f"--coeffs={_coeffs(field, value)}"], "--coeffs")
    for field, value in (("b1", "-1e-300"), ("lambda", "0"), ("log2m", "0.999"),
                         ("log2m", "1e400")):
        add(["entropy-bound", f"--coeffs={_coeffs(field, value)}"], "--coeffs")
        add(["tv-bounds", f"--coeffs={_coeffs(field, value)}"], "--coeffs")
    add(["entropy-bound", "--coeffs", "0.1,0.05,0,20"], "--coeffs")
    add(["entropy-bound", "--coeffs", ",".join(_COEFFS), "--rule", "corollary"], "--rule")

    # --spec: missing files, documents that are not JSON, broken fields.
    for value in ("nan", "missing.json"):
        add(["entropy-bound", "--spec", value], "--spec")
    for name in _NOT_JSON:
        add(["tv-bounds", "--spec", name], "--spec")
    for name in _SPECS:
        if name != "valid.json":
            add(["entropy-bound", "--spec", name], "--spec")
    add(["tv-bounds", "--spec", "bad_marginal.json"], "--spec")
    add(["entropy-bound", "--spec", "valid.json", "--rule", "proposition"], "--rule")

    # exact --probs.
    for value in _BAD + ("1.0000001", "0,0", ""):
        add(["exact", f"--probs={value}"], "--probs")

    # hypercube: each flag, with and without --simulate where it matters.
    for value in _BAD + ("0", "10001"):
        add(_hypercube(False, **{"--n": value}), "--n")
    add(_hypercube(True, **{"--n": "17", "--k": "16"}), "--n")
    for value in _BAD + ("7",):
        add(_hypercube(False, **{"--k": value}), "--k")
    for value in _BAD + ("0", "100000001"):
        add(_hypercube(True, **{"--replicates": value}), "--replicates")
    for value in _BAD:
        add(_hypercube(True, **{"--seed": value}), "--seed")
    add(_hypercube(False, **{"--seed": "-1"}), "--seed")
    for value in ("abc", "1.5"):
        add(_hypercube(True), "POIENTROPY_THREADS", {"POIENTROPY_THREADS": value})

    # --tol on every command.
    valid = {
        "poisson-entropy": ["poisson-entropy", "--lambda", "5"],
        "entropy-bound": ["entropy-bound", *_independent()],
        "tv-bounds": ["tv-bounds", f"--coeffs={','.join(_COEFFS)}"],
        "exact": ["exact", "--probs", "0.1,0.2"],
        "hypercube": _hypercube(False),
        "hypercube-simulate": _hypercube(True),
        "table1": ["table1"],
        "example1": ["example1"],
    }
    for value in _BAD + ("0",):
        add(valid["entropy-bound"] + [f"--tol={value}"], "--tol")
    for name, argv in valid.items():
        if name != "entropy-bound":
            add(argv + ["--tol", "0"], "--tol")
    return out


def replay(argv: list, env: dict) -> tuple:
    """(exit code, stderr) of one command run in-process under ``env``."""
    saved = {key: os.environ.get(key) for key in env}
    os.environ.update(env)
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        for key, value in saved.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value
    return code, err.getvalue()


def _write_specs(directory: pathlib.Path, specs: dict, texts: dict) -> None:
    for name, doc in specs.items():
        (directory / name).write_text(json.dumps(doc), encoding="utf-8")
    for name, text in texts.items():
        (directory / name).write_text(text, encoding="utf-8")


def test_input_errors_keep_exit_code_and_name_the_flag(tmp_path, monkeypatch):
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    _write_specs(tmp_path, corpus["specs"], corpus["texts"])
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("POIENTROPY_THREADS", raising=False)
    moved, unnamed = [], []
    for entry in corpus["commands"]:
        code, err = replay(entry["argv"], entry["env"])
        if code != entry["exit"]:
            moved.append(f"{entry['argv']}: exit {entry['exit']} -> {code}")
        elif code == 2 and entry["flag"] not in err:
            unnamed.append(f"{entry['argv']}: {err.strip()}")
    assert len(corpus["commands"]) >= 80
    assert sum(entry["exit"] == 2 for entry in corpus["commands"]) >= 80
    assert moved == []
    assert unnamed == []


def _regenerate() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        directory = pathlib.Path(scratch)
        _write_specs(directory, _SPECS, _NOT_JSON)
        here = pathlib.Path.cwd()
        try:
            os.chdir(directory)
            entries = []
            for argv, env, flag in corpus_commands():
                code, err = replay(argv, env)
                entries.append({"argv": argv, "env": env, "flag": flag, "exit": code})
                if code == 2 and flag not in err:
                    print(f"does not name {flag}: {argv}: {err.strip()}", file=sys.stderr)
        finally:
            os.chdir(here)
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(
        json.dumps({"specs": _SPECS, "texts": _NOT_JSON, "commands": entries}, indent=1)
        + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(entries)} commands to {CORPUS}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
