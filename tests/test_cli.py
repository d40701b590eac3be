import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import hbfourier
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

    def test_inverse_target_contour_through_the_origin(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": -1.0}], "density": {"nodes": [0.0, 1.0], "values": [1.0, 1.0]}}
        argv = ["zeros-count", write_scenario(tmp_path, doc), "--rect=-1,1,-1,0", "--target", "F/z", "--out", "json"]
        code, text = run_cli(argv)
        assert code == 0
        assert json.loads(text)["count"] == 0

    def test_unknown_target_from_a_scenario_is_input_error(self, tmp_path, capsys):
        # the scenario's task target reaches count_zeros unchecked, which refuses it
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}], "task": {"target": "G"}}
        code, text = run_cli(["zeros-count", write_scenario(tmp_path, doc)])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err == "error: unknown target 'G'\n"

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
            {"n": 0.9},
            {"terms": 2.5},
            {"tau": "0.5"},
            {"tau": True},
        ],
    )
    def test_malformed_task_field(self, tmp_path, task):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}], "task": task}
        code, text = run_cli(["eval", write_scenario(tmp_path, doc)])
        assert code == 1
        assert text == ""

    def test_whole_float_accepted(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}], "task": {"n": 0.0, "terms": 20.0}}
        code, _ = run_cli(["eval", write_scenario(tmp_path, doc), "--grid=0:1:0.5"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv", [["demo", "atom-sigma", "--n", "0.9"], ["demo", "atom-sigma", "--out", "xml"], ["bogus"], []]
    )
    def test_malformed_flag_is_input_error(self, capsys, argv):
        code, text = run_cli(argv)
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "task, flags, message",
        [
            ({"grid": [0, 1]}, [], "task.grid: grid must be {start, stop, step?}"),
            ({}, ["--rect=1,2,3"], "task.rect: rect must be [x0, x1, y0, y1]"),
            ({"output": "xml"}, [], "task.output: output must be csv, json, or table"),
            ({}, ["--grid=1:2"], "--grid expects a:b:step"),
            ({}, ["--rect=1,2,x"], "--rect expects x0,x1,y0,y1"),
            ({}, ["--grid=2:1:0.5"], "grid needs stop > start"),
        ],
        ids=["grid_not_an_object", "rect_of_three", "unknown_output", "grid_of_two", "rect_not_a_number", "grid_reversed"],
    )
    def test_refused_task_prints_its_message_on_stderr_only(self, tmp_path, capsys, task, flags, message):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}], "task": task}
        code, text = run_cli(["eval", write_scenario(tmp_path, doc), *flags])
        assert (code, text) == (1, "")
        assert message in capsys.readouterr().err

    def test_demo_without_a_name(self, capsys):
        code, text = run_cli(["demo"])
        assert (code, text) == (1, "")
        assert capsys.readouterr().err.startswith("error: demo needs a name: fejer2,")

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        assert "usage: hbf" in capsys.readouterr().out


class TestViolationRecords:
    """Each failed gate ends its output with one exit-2 record naming its property."""

    def test_identity_residual_linear(self, tmp_path):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": -0.5}], "density": {"nodes": [0.0, 0.5, 1.0], "values": [1.0, 1.0, 1.0]}}
        code, text = run_cli(["identities", write_scenario(tmp_path, doc), "--tol", "1e-300", "--out", "json"])
        assert code == 2
        summary, record = strict_json_lines(text)
        violation = record["violation"]
        assert violation["property"] == "identity_residual_linear"
        assert violation["observed"] == summary["max_linear_residual"] > violation["bound"]

    def test_min_margin(self):
        code, text = run_cli(["demo", "fejer2", "--tol=-0.5", "--out", "json"])
        assert code == 2
        violation = strict_json_lines(text)[-1]["violation"]
        assert violation["property"] == "min_margin"
        assert violation["observed"] < violation["bound"]

    def test_diagnostic(self, tmp_path, capsys):
        # Fejer-2's atoms without the scenario's ineq task: S changes sign
        doc = {"sigma": 2.0, "atoms": [{"t": 1.0, "c": 0.5}, {"t": 2.0, "c": 0.5}]}
        code, text = run_cli(["zeros-imag", write_scenario(tmp_path, doc), "--out", "json"])
        assert code == 2
        assert strict_json_lines(text) == [
            {"violation": {"bound": None, "location": None, "observed": "S(x) >= 0 failed on the grid", "property": "diagnostic"}}
        ]
        assert capsys.readouterr().err == ""


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
    @pytest.mark.parametrize("command", ["identities", "ineq", "eval"])
    @pytest.mark.parametrize("output", ["json", "table", "csv"])
    def test_overflowing_gate_input_is_a_violation(self, tmp_path, command, output):
        doc = {"sigma": 1.0, "atoms": [{"t": 0.0, "c": 1e300}, {"t": 1.0, "c": 1e300}]}
        code, text = run_cli([command, write_scenario(tmp_path, doc), "--out", output])
        assert code == 2
        docs = strict_json_lines(text)
        assert len(docs) == 1
        assert docs[0]["violation"]["property"] == "nonfinite"


class TestZeroMeasure:
    """V = 0 makes every threshold 0; the margin's scale must still read 1, not 0 / 0."""

    DOC = {"sigma": 1.0, "atoms": [], "density": None}
    JSON = {
        "ineq": '{"equality_points": [], "global_equality": true, "hypothesis_note": "grid-verified hypothesis", '
        '"hypothesis_ok": true, "min_margin": 0.0, "summary": "global equality", "worst_relative_margin": 0.0}\n',
        "zeros-classify": '{"c_nonneg": true, "defect": 0.0, "lower_zero": null, "real_zeros": [], '
        '"s_nonneg": true, "verdict": "identically_zero"}\n',
        "posdef": '{"expected_sign": "nonpos", "f0": 0.0, "h_prime_zero": 0.0, "note": "grid-verified", '
        '"pd_bound_ok": true, "s_nonneg": true, "sign_ok": true}\n',
        "zeros-imag": '{"y_star": null}\n',
        "identities": '{"linear_scale": 1e-300, "max_linear_residual": 0.0, "max_quadratic_residual": 0.0, '
        '"quadratic_scale": 1e-300}\n',
    }

    @pytest.mark.parametrize("command", sorted(JSON))
    def test_json_output(self, tmp_path, command):
        assert run_cli([command, write_scenario(tmp_path, self.DOC), "--out", "json"]) == (0, self.JSON[command])

    @pytest.mark.parametrize("command", sorted(JSON))
    def test_table_output(self, tmp_path, command):
        code, text = run_cli([command, write_scenario(tmp_path, self.DOC), "--out", "table"])
        assert code == 0 and text
        if command == "ineq":
            assert "worst_relative_margin: 0.0\n" in text

    def test_ineq_csv_scale_reads_one(self, tmp_path):
        code, text = run_cli(["ineq", write_scenario(tmp_path, self.DOC), "--out", "csv"])
        assert code == 0
        rows = text.splitlines()
        assert rows[0] == "x,margin,E,scale" and len(rows) > 300
        assert all(row.split(",")[1:] == ["0.0", "0.0", "1.0"] for row in rows[1:])


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

    def test_sine_grid_runs_once(self, tmp_path, monkeypatch):
        # recover_pd_profile checks S >= 0; the H'(0) sign report reuses its verdict
        check = hbfourier.zeros._reflected_on_grid
        calls = []
        monkeypatch.setattr(hbfourier.zeros, "_reflected_on_grid", lambda *a, **k: calls.append(1) or check(*a, **k))
        doc = {k: v for k, v in TRIANGLE_CASE2.items() if k != "task"}
        code, text = run_cli(["posdef", write_scenario(tmp_path, doc), "--out", "json"])
        assert code == 0
        parsed = json.loads(text)
        assert parsed["s_nonneg"] is True and parsed["expected_sign"] == "indeterminate"
        assert len(calls) == 1


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

    def test_interp_on_a_many_panel_density(self, tmp_path):
        # 20001 series nodes of the 2049-panel monomial density, past every
        # cluster level, at the default 10000 terms
        from hbfourier.measure import from_monomial_density

        dens = from_monomial_density(1.5, 0.8).density
        doc = {"sigma": 1.0, "density": {"nodes": list(dens.nodes), "values": [*dens.left, dens.right[-1]]}}
        code, text = run_cli(["interp", write_scenario(tmp_path, doc), "--out", "json"])
        assert code == 0
        rows = json.loads(text)
        assert len(rows) == 17 and all(row["gap"] <= row["tail_bound"] for row in rows)

    @pytest.mark.parametrize("perturbation, code", [(0.0, 0), (1e-12, 2)])
    def test_gate_follows_the_scale_of_the_identity(self, tmp_path, monkeypatch, perturbation, code):
        # Fejer-2 scaled by 2^-40: f and the series are near 1e-12, so a gap of
        # 1e-12 is as large as the values, and the default tol 1e-9 is relative
        series = hbfourier.sampling._series_at

        def perturbed(*args):
            out = series(*args)
            return dataclasses.replace(out, value=out.value + perturbation)

        monkeypatch.setattr(hbfourier.sampling, "_series_at", perturbed)
        doc = {
            "sigma": 2.0,
            "atoms": [{"t": 1.0, "c": 0.5 * 2.0**-40}, {"t": 2.0, "c": 0.5 * 2.0**-40}],
            "task": {"command": "interp", "alpha": 0.4, "terms": 2000, "output": "json"},
        }
        assert run_cli(["interp", write_scenario(tmp_path, doc), "--grid=-3:3:1.0"])[0] == code


class TestBudgets:
    """Over-budget grids and series are refused with exit 1 before any allocation."""

    FEJER2 = {"sigma": 2.0, "atoms": [{"t": 1.0, "c": 0.5}, {"t": 2.0, "c": 0.5}]}

    @pytest.fixture(autouse=True)
    def no_arange(self, monkeypatch):
        # np.arange builds both the grid and the series nodes; the refusal must precede it
        def refuse(*args, **kwargs):
            raise AssertionError("np.arange reached before the budget check")

        monkeypatch.setattr(np, "arange", refuse)

    @pytest.mark.parametrize("command", ["ineq", "eval"])
    def test_huge_grid(self, tmp_path, capsys, command):
        code, text = run_cli([command, write_scenario(tmp_path, self.FEJER2), "--grid=0:1e9:1e-3"])
        assert (code, text) == (1, "")
        assert "over the budget" in capsys.readouterr().err

    def test_grid_span_that_overflows(self, tmp_path, capsys):
        code, text = run_cli(["eval", write_scenario(tmp_path, self.FEJER2), "--grid=-1e308:1e308:1"])
        assert (code, text) == (1, "")
        assert "inf points" in capsys.readouterr().err

    @pytest.mark.parametrize("rect", ["-1e5,1e5,-1,-0.1", "-1e308,1e308,-1,-0.1"], ids=["over", "overflowing"])
    @pytest.mark.usefixtures("no_large_linspace")
    def test_huge_contour(self, tmp_path, capsys, rect):
        # the start spaces its points at most pi / (4 sigma) apart, about 1e6 of them on the first rectangle
        code, text = run_cli(["zeros-count", write_scenario(tmp_path, self.FEJER2), f"--rect={rect}"])
        assert (code, text) == (1, "")
        assert "contour start" in capsys.readouterr().err

    def test_huge_series(self, tmp_path, capsys):
        code, text = run_cli(["interp", write_scenario(tmp_path, self.FEJER2), "--terms", "100000000"])
        assert (code, text) == (1, "")
        assert "task.terms" in capsys.readouterr().err


@pytest.mark.usefixtures("no_large_linspace")
def test_classify_refuses_a_real_scan_over_the_budget(tmp_path, capsys):
    # C and S both fail, so classify goes straight to the real-axis scan,
    # which refuses a grid of about 1e8 points before building it
    doc = {"sigma": 1.0, "atoms": [{"t": 0.0, "c": 2.0}, {"t": 1.0, "c": -1.0}], "task": {"command": "zeros-classify"}}
    code, text = run_cli(["zeros-classify", write_scenario(tmp_path, doc), "--rect=-4e6,4e6,-6,-1e-3"])
    assert (code, text) == (1, "")
    assert "over the budget" in capsys.readouterr().err


def test_import_loads_no_scipy():
    # numpy is the only runtime dependency; importing the CLI must not pull scipy in
    src = os.path.dirname(os.path.dirname(hbfourier.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    probe = "import sys, hbfourier.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    result = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"
