import io
import json
import math

import pytest

from hbfourier.cli import main


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def write_scenario(tmp_path, doc, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


ATOM_SIGMA = {
    "sigma": 1.0,
    "atoms": [{"t": 1.0, "c": 2.0}],
    "density": None,
    "task": {"command": "ineq", "tau": math.pi / 2, "n": 0, "output": "json"},
}

TRIANGLE_CASE2 = {
    "sigma": 1.0,
    "atoms": [{"t": 1.0, "c": -0.5}],
    "density": {"nodes": [0.0, 1.0], "values": [1.0, 1.0]},
    "task": {"command": "zeros-classify", "output": "json"},
}


class TestIneq:
    def test_global_equality_exit_zero(self, tmp_path):
        code, text = run_cli(["ineq", write_scenario(tmp_path, ATOM_SIGMA)])
        assert code == 0
        doc = json.loads(text)
        assert doc["global_equality"] is True
        assert doc["summary"] == "global equality"

    def test_hypothesis_violation_exit_two(self, tmp_path):
        doc = {
            "sigma": 1.0,
            "atoms": [{"t": 0.0, "c": 2.0}, {"t": 1.0, "c": -1.0}],
            "density": None,
            "task": {"command": "ineq", "tau": 0.0, "n": 0, "output": "json"},
        }
        code, text = run_cli(["ineq", write_scenario(tmp_path, doc)])
        assert code == 2
        lines = text.strip().splitlines()
        record = json.loads(lines[-1])
        assert record["violation"]["property"] == "grid_hypothesis_E_nonneg"
        assert set(record["violation"]) == {"property", "location", "observed", "bound"}


class TestZeros:
    def test_classify_borderline_scenario(self, tmp_path):
        code, text = run_cli(["zeros-classify", write_scenario(tmp_path, TRIANGLE_CASE2)])
        assert code == 0
        doc = json.loads(text)
        assert doc["verdict"] == "one_lower_zero"
        assert doc["lower_zero"]["im"] == pytest.approx(-1.59362426004004, abs=1e-8)

    def test_count_with_rect_flag(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 0.0, "c": 2.0}, {"t": 1.0, "c": -1.0}]}
        code, text = run_cli(
            ["zeros-count", write_scenario(tmp_path, doc), "--rect=-1,1,-2,-0.1", "--out", "json"]
        )
        assert code == 0
        assert json.loads(text)["count"] == 1

    def test_imag_command(self, tmp_path):
        doc = {k: v for k, v in TRIANGLE_CASE2.items() if k != "task"}
        code, text = run_cli(["zeros-imag", write_scenario(tmp_path, doc), "--out", "json"])
        assert code == 0
        assert json.loads(text)["y_star"] == pytest.approx(-1.59362426004004, abs=1e-8)


class TestDemos:
    def test_growth_limit_reports_sign_change(self):
        code, text = run_cli(["demo", "growth-limit", "--a=-0.75", "--out", "json"])
        assert code == 0
        doc = json.loads(text)
        assert doc["sign_change"] is True
        assert doc["d_at_0.1"] < 0.0 < doc["d_at_100"]

    def test_atom_sigma_demo(self):
        code, text = run_cli(["demo", "atom-sigma", "--out", "json"])
        assert code == 0
        assert json.loads(text)["global_equality"] is True

    def test_triangle_demo(self):
        code, text = run_cli(["demo", "triangle-case2", "--out", "json"])
        assert code == 0
        assert json.loads(text)["verdict"] == "one_lower_zero"

    def test_unknown_demo_is_input_error(self):
        code, _ = run_cli(["demo", "nope"])
        assert code == 1


class TestEvalAndDeterminism:
    def test_eval_csv_columns(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}]}
        path = write_scenario(tmp_path, doc)
        code, text = run_cli(["eval", path, "--grid", "0:1:0.5", "--out", "csv"])
        assert code == 0
        header = text.splitlines()[0]
        assert header == "x,F_re,F_im,G,H,C,S,Delta,E,margin"

    def test_byte_determinism(self, tmp_path):
        path = write_scenario(tmp_path, TRIANGLE_CASE2)
        _, first = run_cli(["eval", path, "--grid=-3:3:0.01", "--out", "csv"])
        _, second = run_cli(["eval", path, "--grid=-3:3:0.01", "--out", "csv"])
        assert first == second

    def test_identities_gate(self, tmp_path):
        doc = {"sigma": 2.0, "atoms": [{"t": 0.5, "c": 1.0}, {"t": 2.0, "c": -0.5}]}
        code, text = run_cli(["identities", write_scenario(tmp_path, doc), "--out", "json"])
        assert code == 0
        parsed = json.loads(text)
        assert parsed["max_linear_residual"] <= 1e-10 * parsed["linear_scale"]


class TestInputErrors:
    def test_missing_file(self):
        code, _ = run_cli(["ineq", "/nonexistent/path.json"])
        assert code == 1

    def test_invalid_scenario(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 2.0, "c": 1.0}]}
        code, _ = run_cli(["ineq", write_scenario(tmp_path, doc)])
        assert code == 1

    def test_unknown_task_field(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 1.0}], "task": {"command": "ineq", "bogus": 3}}
        code, _ = run_cli(["ineq", write_scenario(tmp_path, doc)])
        assert code == 1

    def test_command_mismatch(self, tmp_path):
        code, _ = run_cli(["interp", write_scenario(tmp_path, ATOM_SIGMA)])
        assert code == 1

    def test_missing_scenario_argument(self):
        code, _ = run_cli(["ineq"])
        assert code == 1

    @pytest.mark.parametrize(
        "task",
        [
            {"grid": {"start": [1], "stop": 2}},
            {"grid": {"start": 0, "stop": "x"}},
            {"rect": [0, 1, None, 2]},
            {"tau": "abc"},
            {"n": None},
            {"terms": 1e400},
        ],
    )
    def test_malformed_task_field(self, tmp_path, task):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}], "task": task}
        code, text = run_cli(["eval", write_scenario(tmp_path, doc)])
        assert code == 1
        assert text == ""


def strict_json_lines(text):
    """Parse every stdout line, refusing the NaN and Infinity tokens."""

    def refuse(token):
        raise ValueError(f"non-finite JSON token {token}")

    return [json.loads(line, parse_constant=refuse) for line in text.splitlines()]


class TestNonFinite:
    @pytest.mark.parametrize(
        "flags",
        [["--tau", "nan"], ["--tau=-inf"], ["--alpha", "nan"], ["--tol", "inf"], ["--grid=0:nan:1"], ["--rect=0,1,nan,2"]],
    )
    def test_task_field_refused(self, flags):
        code, text = run_cli(["demo", "atom-sigma", *flags, "--out", "json"])
        assert code == 1
        assert text == ""

    def test_nan_in_scenario_task_refused(self, tmp_path):
        doc = dict(ATOM_SIGMA, task=dict(ATOM_SIGMA["task"], tau=math.nan))
        code, text = run_cli(["ineq", write_scenario(tmp_path, doc)])
        assert code == 1
        assert text == ""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["identities", "ineq"])
    @pytest.mark.parametrize("output", ["json", "table"])
    def test_overflowing_gate_input_is_a_violation(self, tmp_path, command, output):
        doc = {"sigma": 1.0, "atoms": [{"t": 0.0, "c": 1e300}, {"t": 1.0, "c": 1e300}]}
        code, text = run_cli([command, write_scenario(tmp_path, doc), "--out", output])
        assert code == 2
        docs = strict_json_lines(text)
        assert len(docs) == 1
        assert docs[0]["violation"]["property"] == "nonfinite"


class TestPosdef:
    def test_posdef_verdict_on_triangle(self, tmp_path):
        doc = {k: v for k, v in TRIANGLE_CASE2.items() if k != "task"}
        code, text = run_cli(["posdef", write_scenario(tmp_path, doc), "--out", "json"])
        assert code == 0
        parsed = json.loads(text)
        assert parsed["s_nonneg"] is True
        assert parsed["f0"] == pytest.approx(1.0)
        assert parsed["note"] == "grid-verified"

    def test_table_output(self, tmp_path):
        doc = {k: v for k, v in TRIANGLE_CASE2.items() if k != "task"}
        code, text = run_cli(["posdef", write_scenario(tmp_path, doc)])
        assert code == 0
        assert "s_nonneg" in text


class TestInterp:
    def test_interp_on_fejer_scenario(self, tmp_path):
        doc = {
            "sigma": 2.0,
            "atoms": [{"t": 1.0, "c": 0.5}, {"t": 2.0, "c": 0.5}],
            "task": {"command": "interp", "tau": 0.0, "n": 0, "alpha": 0.4, "terms": 2000, "output": "json"},
        }
        code, text = run_cli(["interp", write_scenario(tmp_path, doc), "--grid=-3:3:1.0"])
        assert code == 0
        rows = json.loads(text)
        assert all(row["gap"] <= row["tail_bound"] + 1e-9 for row in rows)
