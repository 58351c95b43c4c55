import contextlib
import io
import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from poientropy import cli
from poientropy.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestPoissonEntropyCommand:
    def test_large_mean_reference(self, capsys):
        code, out, _ = run_cli(capsys, "poisson-entropy", "--lambda", "1e6")
        assert code == 0
        assert "8.32669 nats" in out
        assert "asymptotic" in out

    def test_series_method(self, capsys):
        code, out, _ = run_cli(
            capsys, "poisson-entropy", "--lambda", "1", "--method", "series"
        )
        assert code == 0
        assert "1.30484 nats" in out

    def test_zero_mean_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "poisson-entropy", "--lambda", "0")
        assert code == 2
        assert "error" in err

    def test_bits_display_conversion(self, capsys):
        _, nats_out, _ = run_cli(
            capsys, "poisson-entropy", "--lambda", "1", "--format", "machine"
        )
        _, bits_out, _ = run_cli(
            capsys, "poisson-entropy", "--lambda", "1", "--format", "machine", "--bits"
        )
        nats = float(json.loads(nats_out)["results"]["entropy"]["value"])
        bits = float(json.loads(bits_out)["results"]["entropy"]["value"])
        assert json.loads(bits_out)["results"]["entropy"]["unit"] == "bits"
        assert bits == pytest.approx(nats / 0.6931471805599453, rel=1e-4)


class TestEntropyBoundCommand:
    def test_reference_proposition(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy-bound", "--independent", "--lambda", "1000000.01",
            "--sum-p2", "13333.3335333", "--m", "1e8",
            "--rule", "proposition", "--format", "machine",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["rule"] == "proposition1"
        assert float(doc["results"]["epsilon"]["value"]) == pytest.approx(
            0.205, abs=2e-3
        )
        assert doc["results"]["epsilon"]["unit"] == "nats"

    def test_coefficients_input_orientation_row(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy-bound",
            "--coeffs", "0.47589801251888275,0.16579672694206238,0,4060,30",
            "--format", "machine",
        )
        assert code == 0
        doc = json.loads(out)
        rel = float(doc["results"]["relative_error_percent"]["value"])
        assert rel == pytest.approx(0.16, rel=0.05)

    def test_condition_violation_exit_code(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy-bound", "--independent", "--lambda", "2",
            "--sum-p2", "1.8", "--m", "3",
        )
        assert code == 3
        assert "tv_factor_sum_p2" in out
        assert "0.778" in out  # the actual value of the failed inequality

    def test_underflowed_term_carries_log_value(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "entropy-bound", "--independent", "--lambda", "1000000.01",
            "--sum-p2", "13333.3335333", "--m", "1e8",
            "--rule", "corollary", "--format", "machine",
        )
        assert code == 0
        b_term = json.loads(out)["results"]["b_term"]
        assert b_term["value"] == "0"
        assert float(b_term["log_value"]) < -1e8

    def test_relative_error_log_value_is_its_log(self, capsys):
        # A one-sided rule's relative error is (eps/2)/(H(Z) - eps/2), and its
        # log companion must be the log of that, not ln(eps) - ln H(Z).
        entries = []
        for rule in ("theorem4", "corollary", "proposition", "best"):
            code, out, _ = run_cli(
                capsys, "entropy-bound", "--independent", "--lambda", "1",
                "--sum-p2", "1e-320", "--m", "1e6", "--rule", rule, "--format", "machine",
            )
            assert code == 0
            entries.append(json.loads(out)["results"]["relative_error"])
        code, out, _ = run_cli(capsys, "table1", "--format", "machine")
        assert code == 0
        entries += [row["relative_error"] for row in json.loads(out)["results"]["rows"]]
        logged = [e for e in entries if "log_value" in e and float(e["value"]) > 0.0]
        assert len(logged) >= 4
        for entry in logged:
            assert abs(float(entry["log_value"]) - math.log(float(entry["value"]))) < 1e-3

    def test_exactly_one_source_required(self, capsys):
        code, _, err = run_cli(capsys, "entropy-bound", "--independent")
        assert code == 2
        code, _, err = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "1",
            "--sum-p2", "0.1", "--m", "4", "--coeffs", "0,0,0,1,2",
        )
        assert code == 2

    @pytest.mark.parametrize("m", ["1e400", "inf", "nan", "2.5", "0", "abc"])
    def test_bad_m_is_input_error_naming_the_field(self, capsys, m):
        code, _, err = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "2",
            "--sum-p2", "0.1", "--m", m,
        )
        assert code == 2
        assert "--m" in err

    def test_nan_sum_p2_is_input_error_naming_the_field(self, capsys):
        code, _, err = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "1",
            "--sum-p2", "nan", "--m", "10",
        )
        assert code == 2
        assert "--sum-p2" in err

    def test_spec_file_input(self, capsys, tmp_path):
        doc = {
            "m": 2,
            "marginals": [0.1, 0.1],
            "neighborhoods": [[0, 1], [0, 1]],
            "pair_expectations": [[0, 1, 0.1]],
            "b3": "zero",
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "entropy-bound", "--spec", str(path), "--format", "machine"
        )
        # Fully dependent pair at p = 0.1: a(lambda) = 0.435 <= 1/2, so the
        # certificate applies.
        assert code == 0
        parsed = json.loads(out)
        assert parsed["results"]["rule"] == "theorem4"
        assert float(parsed["results"]["epsilon"]["value"]) > 0

    def test_spec_file_condition_violation(self, capsys, tmp_path):
        # Same structure at p = 0.3: a(lambda) = 1.44 > 1/2 -> exit 3.
        doc = {
            "m": 2,
            "marginals": [0.3, 0.3],
            "neighborhoods": [[0, 1], [0, 1]],
            "pair_expectations": [[0, 1, 0.3]],
            "b3": "zero",
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(
            capsys, "entropy-bound", "--spec", str(path), "--format", "machine"
        )
        assert code == 3
        assert "a(lambda)" in out

    def test_spec_rejects_independent_rules(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"m": 1, "marginals": [0.1], "neighborhoods": [[0]],
                        "pair_expectations": [], "b3": "zero"})
        )
        code, _, err = run_cli(
            capsys, "entropy-bound", "--spec", str(path), "--rule", "corollary"
        )
        assert code == 2
        assert "independent" in err

    def test_bad_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, _ = run_cli(capsys, "entropy-bound", "--spec", str(path))
        assert code == 2

    def test_deeply_nested_json_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, _, err = run_cli(capsys, "tv-bounds", "--spec", str(path))
        assert code == 2
        assert f"--spec {path}" in err

    @pytest.mark.parametrize("rule", ["theorem4", "corollary", "best"])
    def test_single_index_moments_fail_the_lambda_hypothesis(self, capsys, rule):
        code, out, _ = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "0.5",
            "--sum-p2", "0.1", "--m", "1", "--rule", rule, "--format", "machine",
        )
        assert code == 3
        assert "lambda <= 0 violated" in json.loads(out)["error"]

    @pytest.mark.parametrize("rule", ["theorem4", "corollary"])
    def test_lambda_just_above_m_minus_1_fails_the_lambda_hypothesis(self, capsys, rule):
        code, out, _ = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "1000000000000000.1",
            "--sum-p2", "1", "--m", "1000000000000001", "--rule", rule, "--format", "machine",
        )
        assert code == 3
        lam_check = next(c for c in json.loads(out)["conditions"] if c["name"] == "lambda")
        assert lam_check["satisfied"] is False

    def test_single_index_spec_fails_the_lambda_hypothesis(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"m": 1, "marginals": [0.1], "neighborhoods": [[0]],
                        "pair_expectations": [], "b3": "zero"})
        )
        code, out, _ = run_cli(
            capsys, "entropy-bound", "--spec", str(path), "--format", "machine"
        )
        assert code == 3
        assert "lambda <= 0 violated" in json.loads(out)["error"]

    @pytest.mark.parametrize(
        "field, value",
        [("m", 2.9), ("m", True), ("m", "3"), ("neighborhoods", [[0, 1.7], [1], [2]]),
         ("pair_expectations", [[0, 1.2, 0.001]])],
    )
    def test_non_integral_spec_value_names_spec_and_path(self, capsys, tmp_path, field, value):
        doc = {"m": 3, "marginals": [0.05] * 3, "neighborhoods": [[0, 1], [0, 1], [2]],
               "pair_expectations": [[0, 1, 0.001]], "b3": "zero"}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**doc, field: value}))
        for command in ("entropy-bound", "tv-bounds"):
            code, _, err = run_cli(capsys, command, "--spec", str(path))
            assert code == 2
            assert f"--spec {path}" in err

    @pytest.mark.parametrize(
        "coeffs, field",
        [
            ("0.1,0.1,0,4060,0", "log2m"),
            ("0.1,0.1,0,4060,0.5", "log2m"),
            ("0.1,0.1,0,4060,inf", "log2m"),
            ("0.1,0.1,0,nan,30", "lambda"),
            ("0.1,0.1,0,0,30", "lambda"),
            ("0.1,0.1,0,inf,30", "lambda"),
            ("-0.1,0.1,0,4060,30", "b1"),
            ("0.1,nan,0,4060,30", "b2"),
            ("0.1,0.1,inf,4060,30", "b3"),
            ("0.1,x,0,4060,30", "b2"),
            ("0.1,0.1,0,4060", "5 values"),
            ("0.1,0.1,0,4060,30,1", "5 values"),
        ],
    )
    def test_bad_coeffs_name_the_field(self, capsys, coeffs, field):
        code, _, err = run_cli(capsys, "entropy-bound", f"--coeffs={coeffs}")
        assert code == 2
        assert "--coeffs" in err
        assert field in err

    def test_refusal_lists_each_check_once(self, capsys):
        code, out, _ = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "50",
            "--sum-p2", "40", "--m", "100", "--format", "machine",
        )
        assert code == 3
        doc = json.loads(out)
        names = [c["name"] for c in doc["conditions"]]
        assert sorted(names) == ["g", "lambda", "tv_factor_sum_p2"]
        assert doc["error"].count("tv_factor_sum_p2") == 1


class TestTvBoundsCommand:
    def test_overflowing_aggregate_saturates(self, capsys):
        # (b1 + b2)(1 - e^-lam)/lam is about 2e308 at lam = 1e-300.
        coeffs = "--coeffs=1e308,1e308,0,1e-300,10"
        code, out, _ = run_cli(capsys, "tv-bounds", coeffs, "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["agg_upper"]["value"] == "inf"
        assert "agg_upper > 1 is vacuous" in doc["notes"][0]
        code, out, _ = run_cli(capsys, "entropy-bound", coeffs, "--format", "machine")
        assert code == 3
        assert "a(lambda) <= 0.5 violated (actual inf)" in json.loads(out)["error"]

    def test_spec_is_loaded_once(self, capsys, tmp_path, monkeypatch):
        path = tmp_path / "spec.json"
        path.write_text(
            json.dumps({"m": 3, "marginals": [0.1, 0.2, 0.3],
                        "neighborhoods": [[0, 1], [0, 1, 2], [1, 2]],
                        "pair_expectations": [[0, 1, 0.05], [1, 2, 0.1]],
                        "b3": [0.01, 0.0, 0.02]})
        )
        loads = []
        build = cli.dependency_spec_from_dict
        monkeypatch.setattr(
            cli, "dependency_spec_from_dict", lambda doc: loads.append(1) or build(doc)
        )
        code, out, _ = run_cli(
            capsys, "tv-bounds", "--spec", str(path), "--format", "machine"
        )
        assert code == 0
        assert len(loads) == 1
        results = json.loads(out)["results"]
        # Barbour-Hall and Le Cam assume independence, so a spec gets AGG alone.
        assert set(results) == {"agg_upper"}
        # (b1 + b2)(1 - e^-0.6)/0.6 + b3 with b1 = 0.3, b2 = 0.3, b3 = 0.03.
        agg = 0.6 * -math.expm1(-0.6) / 0.6 + 0.03
        assert float(results["agg_upper"]["value"]) == pytest.approx(agg, rel=1e-5)

    def test_independent_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "tv-bounds", "--independent", "--lambda", "0.1",
            "--sum-p2", "1e-3", "--m", "10", "--format", "machine",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert float(results["bh_upper"]["value"]) == pytest.approx(
            9.5163e-4, rel=1e-3
        )
        assert float(results["bh_lower"]["value"]) == pytest.approx(
            3.125e-5, rel=1e-3
        )
        assert float(results["lecam_upper"]["value"]) == pytest.approx(1e-3)
        assert float(results["agg_upper"]["value"]) == pytest.approx(
            9.5163e-4, rel=1e-3
        )

    def test_nan_sum_p2_is_input_error_naming_the_field(self, capsys):
        code, _, err = run_cli(
            capsys, "tv-bounds", "--independent", "--lambda", "1",
            "--sum-p2", "nan", "--m", "10",
        )
        assert code == 2
        assert "--sum-p2" in err

    def test_coefficients_only_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "tv-bounds", "--coeffs", "0.1,0.05,0,2,20",
            "--format", "machine",
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert "agg_upper" in results
        assert "bh_upper" not in results


class TestExactCommand:
    def test_inline_single_probability(self, capsys):
        code, out, _ = run_cli(capsys, "exact", "--probs", "0.1")
        assert code == 0
        assert "0.00951626 probability" in out

    def test_probs_from_file(self, capsys, tmp_path):
        path = tmp_path / "probs.txt"
        path.write_text("0.1, 0.2\n0.3\n")
        code, out, _ = run_cli(capsys, "exact", "--probs", str(path), "--format", "machine")
        assert code == 0
        doc = json.loads(out)
        assert doc["results"]["n"] == 3
        assert float(doc["results"]["lambda"]["value"]) == pytest.approx(0.6)
        assert len(doc["results"]["pmf"]) == 4

    def test_invalid_probability_is_input_error(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--probs", "1.5")
        assert code == 2


class TestHypercubeCommand:
    def test_coefficients_and_bound(self, capsys):
        code, out, _ = run_cli(
            capsys, "hypercube", "--n", "30", "--k", "27", "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["results"]["lambda"]["value"]) == 4060.0
        assert float(doc["results"]["bound"]["relative_error_percent"]["value"]) == (
            pytest.approx(0.16, rel=0.05)
        )

    def test_inapplicable_bound_still_reports_coefficients(self, capsys):
        # n=10, k=8 has b1 ~ 21.7: the certificate hypothesis fails, but the
        # command's job is the coefficients.
        code, out, _ = run_cli(
            capsys, "hypercube", "--n", "10", "--k", "8", "--format", "machine"
        )
        assert code == 0
        doc = json.loads(out)
        assert float(doc["results"]["b1"]["value"]) == pytest.approx(21.7, rel=0.05)
        assert any("inapplicable" in note for note in doc["notes"])

    def test_simulation_mean(self, capsys):
        code, out, _ = run_cli(
            capsys, "hypercube", "--n", "4", "--k", "4", "--simulate",
            "--replicates", "20000", "--seed", "7", "--format", "machine",
        )
        assert code == 0
        doc = json.loads(out)
        mean = float(doc["results"]["simulation"]["mean_w"]["value"])
        assert mean == pytest.approx(1.0, abs=0.05)

    @pytest.mark.parametrize("value", ["abc", "2.5", ""])
    def test_bad_thread_variable_names_it(self, capsys, monkeypatch, value):
        monkeypatch.setenv("POIENTROPY_THREADS", value)
        code, out, err = run_cli(
            capsys, "hypercube", "--n", "3", "--k", "1", "--simulate",
            "--replicates", "100",
        )
        assert code == 2
        assert out == ""
        assert "POIENTROPY_THREADS" in err

    @pytest.mark.parametrize("value", ["-3", "0", "1", "2"])
    def test_thread_variable_below_one_means_one(self, capsys, monkeypatch, value):
        argv = ["hypercube", "--n", "3", "--k", "1", "--simulate", "--replicates",
                "5000", "--format", "machine"]
        monkeypatch.delenv("POIENTROPY_THREADS", raising=False)
        _, serial, _ = run_cli(capsys, *argv)
        monkeypatch.setenv("POIENTROPY_THREADS", value)
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert out == serial

    def test_simulation_above_dimension_limit_is_input_error(self, capsys):
        code, _, err = run_cli(
            capsys, "hypercube", "--n", "17", "--k", "16", "--simulate",
            "--replicates", "10",
        )
        assert code == 2
        assert "2^n" in err


class TestReproductionCommands:
    def test_table1_has_ten_rows_with_reference_columns(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "machine")
        assert code == 0
        rows = json.loads(out)["results"]["rows"]
        assert len(rows) == 10
        assert {"relative_error", "reference_relative_error"} <= set(rows[0])

    def test_example1_carries_unreproduced_note(self, capsys):
        code, out, _ = run_cli(capsys, "example1", "--format", "machine")
        assert code == 0
        cases = json.loads(out)["results"]["cases"]
        assert len(cases) == 2
        assert cases[0]["best_rule"] == "proposition1"
        assert "not reproduced" in cases[1]["reference"]["note"]

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "table1", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "field,value"


class TestDocumentContract:
    def test_byte_identical_reruns(self, capsys):
        argv = ["entropy-bound", "--independent", "--lambda", "1000000.01",
                "--sum-p2", "13333.3335333", "--m", "1e8", "--rule", "best",
                "--format", "machine"]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second

    def test_command_echo_round_trips(self, capsys):
        argv = ["hypercube", "--n", "6", "--k", "3", "--simulate",
                "--replicates", "5000", "--seed", "11", "--format", "machine"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        echoed = json.loads(out)["command"]
        assert echoed[0] == "poientropy"
        code, replay, _ = run_cli(capsys, *echoed[1:])
        assert code == 0
        assert replay == out

    def test_every_result_number_carries_a_unit(self, capsys):
        _, out, _ = run_cli(
            capsys, "entropy-bound", "--independent", "--lambda", "2",
            "--sum-p2", "0.1", "--m", "10", "--format", "machine",
        )
        doc = json.loads(out)

        def walk(node):
            if isinstance(node, dict):
                if "value" in node:
                    assert "unit" in node
                else:
                    for sub in node.values():
                        walk(sub)
            elif isinstance(node, list):
                for sub in node:
                    walk(sub)

        walk(doc["results"])

    def test_version_field_matches_package(self, capsys):
        import poientropy

        _, out, _ = run_cli(capsys, "table1", "--format", "machine")
        assert json.loads(out)["version"] == poientropy.__version__


class TestModuleInvocation:
    def test_closed_stdout_exits_without_traceback(self):
        # The read end is closed before the child starts, so its first
        # write always meets a broken pipe.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "poientropy", "table1"],
                stdout=write_end, stderr=subprocess.PIPE, timeout=60,
            )
        finally:
            os.close(write_end)
        err = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in err
        assert "BrokenPipeError" not in err

    def test_python_dash_m_entry(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poientropy", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0.1.0"

    def test_missing_subcommand_exits_2(self):
        proc = subprocess.run(
            [sys.executable, "-m", "poientropy"], capture_output=True, text=True
        )
        assert proc.returncode == 2

    def test_nan_tol_on_exact_exits_2_naming_the_flag(self):
        # NaN fails every comparison, so a loop that stops on "<= tol" would
        # never end; the timeout turns such a hang into a failure.
        proc = subprocess.run(
            [sys.executable, "-m", "poientropy", "exact", "--probs", "0.1", "--tol", "nan"],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 2
        assert "--tol" in proc.stderr

    def test_import_does_not_load_scipy(self):
        code = (
            "import sys, poientropy, poientropy.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_does_not_load_thread_pools(self):
        # concurrent.futures (and logging with it) is for the multi-threaded
        # simulator alone, so it is imported where that runs.
        code = (
            "import sys, poientropy, poientropy.cli; "
            "print(sorted(m for m in ('concurrent.futures', 'logging') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"


_COEFF_TOKENS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10, 10**6).map(str),
    st.sampled_from(["", "x", "1e400", "-0", "nan", "inf", " 1", "0x10", "1_0", "1e-320"]),
)
_JUNK = st.recursive(
    st.one_of(
        st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
        st.sampled_from([10**400, -(10**400)]),
        st.floats(allow_nan=True, allow_infinity=True),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=2), inner, max_size=3)
    ),
    max_leaves=8,
)


@st.composite
def _spec_texts(draw):
    """A spec file's text: a valid spec, the same with one field or one list
    entry broken, or not JSON."""
    m = draw(st.integers(1, 6))
    p = draw(st.lists(st.floats(1e-3, 1.0), min_size=m, max_size=m))
    hoods = [sorted({a} | set(draw(st.lists(st.integers(0, m - 1), max_size=3)))) for a in range(m)]
    pairs = {}
    for a in range(m):
        for b in hoods[a]:
            if b != a:
                pairs[(min(a, b), max(a, b))] = min(p[a], p[b]) * draw(st.floats(0.0, 1.0))
    doc = {
        "m": m,
        "marginals": p,
        "neighborhoods": hoods,
        "pair_expectations": [[a, b, v] for (a, b), v in pairs.items()],
        "b3": draw(st.one_of(st.just("zero"), st.lists(st.floats(0.0, 0.1), min_size=m, max_size=m))),
    }
    action = draw(st.sampled_from(["keep", "drop", "replace", "poke", "garble"]))
    if action == "drop":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif action == "replace":
        doc[draw(st.sampled_from(sorted(doc)))] = draw(_JUNK)
    elif action == "poke":
        entries = doc[draw(st.sampled_from(["marginals", "neighborhoods", "pair_expectations"]))]
        if entries:
            entries[draw(st.integers(0, len(entries) - 1))] = draw(_JUNK)
        else:
            entries.append(draw(_JUNK))
    elif action == "garble":
        return draw(st.text(max_size=20))
    return json.dumps(doc)


# One --independent or --probs value: junk, a non-finite or out-of-range
# number, or a valid one.
_VALUE_TOKENS = st.one_of(
    _COEFF_TOKENS, st.sampled_from(["-inf", "-1e400", "-1"]), st.text(max_size=4)
)
_MOMENT_FLAGS = ("--lambda", "--sum-p2", "--m")


@st.composite
def _moment_argv(draw):
    """Valid --independent inputs with one field replaced by a drawn token.

    Returns the argv tail and the flag whose value was replaced."""
    lam = draw(st.floats(1e-6, 1e6))
    values = {
        "--lambda": repr(lam),
        "--sum-p2": repr(lam * draw(st.floats(0.0, 1.0))),
        "--m": str(draw(st.integers(1, 10**9))),
    }
    broken = draw(st.sampled_from(_MOMENT_FLAGS))
    values[broken] = draw(_VALUE_TOKENS)
    joined = draw(st.booleans())
    argv = ["--independent"]
    for flag in _MOMENT_FLAGS:
        argv += [f"{flag}={values[flag]}"] if joined else [flag, values[flag]]
    return argv, broken


# Every subcommand takes --tol; one valid invocation of each.
_TOL_COMMANDS = {
    "poisson-entropy": ["poisson-entropy", "--lambda", "5", "--method", "series"],
    "entropy-bound": ["entropy-bound", "--independent", "--lambda", "1", "--sum-p2", "0.01", "--m", "100"],
    "tv-bounds": ["tv-bounds", "--independent", "--lambda", "1", "--sum-p2", "0.01", "--m", "100"],
    "exact": ["exact", "--probs", "0.1,0.2,0.9"],
    "hypercube": ["hypercube", "--n", "10", "--k", "9"],
    "table1": ["table1"],
    "example1": ["example1"],
}


# One hypercube value: a small or negative integer, one past a limit (--n,
# --replicates), a huge integer, or junk.  No valid value is large enough to
# make the command slow.
_HYPERCUBE_TOKENS = st.one_of(
    st.integers(-10, 300).map(str),
    st.sampled_from(
        ["10001", str(10**8 + 1), str(10**30), "-0", "1e3", "nan", "", "x", " 1", "1_0"]
    ),
    st.text(max_size=4),
)
_HYPERCUBE_FLAGS = ("--n", "--k", "--replicates", "--seed")


@st.composite
def _hypercube_argv(draw):
    """Valid hypercube inputs, with or without --simulate, with one flag's
    value replaced by a drawn token.

    Returns the argv tail and the flag whose value was replaced."""
    simulate = draw(st.booleans())
    n = draw(st.integers(1, 6 if simulate else 200))
    values = {
        "--n": str(n),
        "--k": str(draw(st.integers(0, n))),
        "--replicates": str(draw(st.integers(1, 200))),
        "--seed": str(draw(st.integers(0, 10**6))),
    }
    broken = draw(st.sampled_from(_HYPERCUBE_FLAGS))
    values[broken] = draw(_HYPERCUBE_TOKENS)
    argv = ["--simulate"] if simulate else []
    for flag in _HYPERCUBE_FLAGS:
        argv.append(f"{flag}={values[flag]}")
    return argv, broken


class TestCliFuzz:
    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["entropy-bound", "tv-bounds"]),
        fmt=st.sampled_from(["machine", "pretty", "csv"]),
        tokens=st.lists(_COEFF_TOKENS, max_size=7),
        joined=st.booleans(),
    )
    # 2^1024 overflows a float although 1024 ln 2 < 710.
    @example(command="entropy-bound", fmt="machine", tokens=["0", "0", "0", "5", "1024"], joined=False)
    @example(command="entropy-bound", fmt="csv", tokens=["0.1", "0", "0", "5", "1024.2"], joined=True)
    def test_coeffs_input_never_raises(self, command, fmt, tokens, joined):
        text = ",".join(tokens)
        argv = [command, "--format", fmt]
        argv += [f"--coeffs={text}"] if joined else ["--coeffs", text]
        code, _, err = _run_quietly(argv)
        assert code in (0, 2, 3)
        if code == 2:
            assert "--coeffs" in err

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["entropy-bound", "tv-bounds"]),
        fmt=st.sampled_from(["machine", "pretty", "csv"]),
        text=_spec_texts(),
    )
    def test_spec_input_never_raises(self, tmp_path, command, fmt, text):
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        code, _, err = _run_quietly([command, "--spec", str(path), "--format", fmt])
        assert code in (0, 2, 3)
        if code == 2:
            assert f"--spec {path}" in err

    @settings(max_examples=200, deadline=None)
    @given(
        command=st.sampled_from(["entropy-bound", "tv-bounds"]),
        fmt=st.sampled_from(["machine", "pretty", "csv"]),
        drawn=_moment_argv(),
    )
    @example(
        command="tv-bounds", fmt="machine",
        drawn=(["--independent", "--lambda", "1", "--sum-p2", "nan", "--m", "10"], "--sum-p2"),
    )
    def test_independent_inputs_never_raise(self, command, fmt, drawn):
        tail, broken = drawn
        code, _, err = _run_quietly([command, "--format", fmt] + tail)
        assert code in (0, 2, 3)
        if code == 2:
            assert broken in err

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        fmt=st.sampled_from(["machine", "pretty", "csv"]),
        tokens=st.lists(st.one_of(_VALUE_TOKENS, st.floats(0.0, 1.0).map(repr)), max_size=6),
        sep=st.sampled_from([",", " ", ", "]),
    )
    def test_probs_input_never_raises(self, tmp_path, monkeypatch, fmt, tokens, sep):
        # A junk token must not name a file by accident.
        monkeypatch.chdir(tmp_path)
        code, _, err = _run_quietly(["exact", "--format", fmt, f"--probs={sep.join(tokens)}"])
        assert code in (0, 2)
        if code == 2:
            assert "--probs" in err

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(sorted(_TOL_COMMANDS)),
        fmt=st.sampled_from(["machine", "pretty", "csv"]),
        token=st.one_of(
            _VALUE_TOKENS, st.sampled_from(["1e-9", "0.5", "1e-300", "1e300"])
        ),
        joined=st.booleans(),
    )
    def test_tol_input_never_raises(self, deadline, command, fmt, token, joined):
        argv = _TOL_COMMANDS[command] + ["--format", fmt]
        argv += [f"--tol={token}"] if joined else ["--tol", token]
        code, _, err = _run_quietly(argv)
        if _positive_finite(token):
            assert code in (0, 3)
        else:
            assert code == 2
            assert "--tol" in err

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(fmt=st.sampled_from(["machine", "pretty", "csv"]), drawn=_hypercube_argv())
    @example(fmt="machine", drawn=(["--n=0", "--k=0"], "--n"))
    @example(fmt="machine", drawn=(["--n=1000000", "--k=500000"], "--n"))
    def test_hypercube_inputs_never_raise(self, deadline, fmt, drawn):
        tail, broken = drawn
        code, _, err = _run_quietly(["hypercube", "--format", fmt] + tail)
        assert code in (0, 2, 3)
        if code == 2:
            assert broken in err

    @settings(
        max_examples=200, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        method=st.sampled_from(["auto", "series", "asymptotic"]),
        fmt=st.sampled_from(["machine", "pretty", "csv"]),
        token=st.one_of(
            _VALUE_TOKENS,
            st.sampled_from(["0.5", "1", "1e7", "1.0000001e7", "1e12", "1e300", "1e-300"]),
        ),
    )
    @example(method="series", fmt="machine", token="1e12")
    @example(method="asymptotic", fmt="machine", token="0.5")
    def test_poisson_entropy_lambda_never_raises(self, deadline, method, fmt, token):
        argv = ["poisson-entropy", "--method", method, "--format", fmt, f"--lambda={token}"]
        code, _, err = _run_quietly(argv)
        assert code in (0, 2)
        if code == 2:
            assert "--lambda" in err
            if _positive_finite(token):
                # A valid number refused by the chosen route.
                assert "--method" in err


def _positive_finite(token):
    try:
        value = float(token)
    except ValueError:
        return False
    return math.isfinite(value) and value > 0.0


def _run_quietly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
