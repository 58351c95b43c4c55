import json
import subprocess
import sys

import pytest

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


class TestTvBoundsCommand:
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
