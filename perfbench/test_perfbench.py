"""Tests of the benchmark itself: python3 -m pytest perfbench -q

Each correctness check must reject a wrong answer, the oracles must agree
with themselves and with closed forms, and the tracer must restore every
object it replaced.
"""

import cmath
import importlib
import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from hbfourier import measure, zeros  # noqa: E402


@pytest.fixture(scope="module")
def cli_case():
    fx = workloads.build_cli(1)
    return fx, workloads.expect_cli(fx)


def _exact_eval_rows(ex):
    rows = []
    for x, ref in zip(ex["eval_x"], ex["eval_rows"]):
        lhs, rhs = workloads._margin_oracle(ref, ex["mp"]["eval"].sigma, 0, 0.0, x)
        row = {k: float(ref[k]) for k in ("F_re", "F_im", "G", "H", "C", "S", "Delta")}
        row.update(x=x, E=float(ref["C"]), margin=float(lhs - rhs))
        rows.append(row)
    return rows


def test_eval_check_rejects_value_off_in_8th_digit(cli_case):
    fx, ex = cli_case
    check = workloads.cli_checks(fx, ex)["eval"]
    rows = _exact_eval_rows(ex)
    assert check([rows]).status == workloads.OK
    rows[5]["G"] *= 1.0 + 3e-8
    outcome = check([rows])
    assert outcome.status == workloads.WRONG
    assert min(outcome.digits) < workloads.MIN_DIGITS


def test_count_check_rejects_count_off_by_one():
    fx = workloads.build_zeros(3)
    ex = workloads.expect_zeros(fx)
    task = workloads.tasks_zeros(fx, ex, HERE)[0]
    assert task.kind == "count_zeros"
    result = task.run()
    assert task.check(result).status == workloads.OK
    for wrong in (result.count + 1, result.count - 1):
        bad = zeros.ZeroCountResult(wrong, result.winding_residual, result.boundary_samples)
        assert task.check(bad).status == workloads.WRONG


def test_cli_checks_reject_nan_tokens(cli_case):
    fx, ex = cli_case
    ok_child = workloads.ChildResult(0, '{"y_star": -1.25}\n', "", 0, 0.0)
    nan_child = workloads.ChildResult(0, '{"y_star": NaN}\n', "", 0, 0.0)
    with pytest.raises(ValueError):
        workloads._strict_json(nan_child.stdout)
    assert workloads._strict_json(ok_child.stdout) == [{"y_star": -1.25}]

    refuse = workloads.check_refusal
    violation = '{"violation": {"bound": 0.0, "location": null, "observed": "nonfinite", "property": "tau"}}\n'
    assert refuse(workloads.ChildResult(1, "", "error: tau must be finite\n", 0, 0.0)).status == workloads.OK
    assert refuse(workloads.ChildResult(2, violation, "", 0, 0.0)).status == workloads.OK
    assert refuse(workloads.ChildResult(2, '{"min_margin": NaN}\n' + violation, "", 0, 0.0)).status == workloads.FAILED
    assert refuse(workloads.ChildResult(0, '{"max_quadratic_residual": 1.0}\n', "", 0, 0.0)).status == workloads.FAILED
    assert refuse(workloads.ChildResult(1, "", "", 0, 0.0)).status == workloads.FAILED


def test_imag_and_classify_checks_reject_wrong_zero(cli_case):
    fx, ex = cli_case
    checks = workloads.cli_checks(fx, ex)
    y = ex["imag_y"]
    assert checks["zeros-imag"]([{"y_star": y}]).status == workloads.OK
    assert checks["zeros-imag"]([{"y_star": y * (1 + 1e-7)}]).status == workloads.WRONG
    doc = {"verdict": "one_lower_zero", "lower_zero": {"re": 0.0, "im": ex["classify_y"]}}
    assert checks["zeros-classify"]([doc]).status == workloads.OK
    assert checks["zeros-classify"]([dict(doc, verdict="hb")]).status == workloads.WRONG


def test_oracle_is_stable_in_its_precision():
    m = measure.from_monomial_density(1.5, 0.8)
    base = oracle.MpTransforms(m).real_values(0.37)
    old = oracle.DPS
    try:
        oracle.DPS = 80
        finer = oracle.MpTransforms(m).real_values(0.37)
    finally:
        oracle.DPS = old
    for key, value in base.items():
        assert abs(value - finer[key]) <= 1e-40 * max(abs(finer[key]), 1)


def test_oracle_matches_closed_forms():
    # F = (e^{iz} - 1)/(iz) for the unit density, at a real and a complex point
    unit = measure.StieltjesMeasure(1.0, (), measure.PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0]))
    mp = oracle.MpTransforms(unit)
    for z in (0.7, complex(1.3, -2.1)):
        exact = (cmath.exp(1j * z) - 1) / (1j * z)
        assert abs(complex(mp.F(z)) - exact) <= 1e-15
    assert abs(complex(mp.moments(0, 1)[1]) - 0.5) <= 1e-30
    # F = 2 - e^{iz}: zeros at 2 pi k - i ln 2
    zl = oracle.atomic_zeros(measure.StieltjesMeasure(1.0, ((0.0, 2.0), (1.0, -1.0))))
    assert len(zl) == 1 and abs(zl[0][0]) < 1e-15 and abs(zl[0][1] + math.log(2.0)) < 1e-15
    inside = oracle.zeros_in_rect(zl, -1.0, 7.0, -1.0, 0.0)
    assert len(inside) == 2
    # triangle profile with jump -1/2: y* = -u*, e^u (2 - u) = 2
    y = oracle.imaginary_zero(oracle.MpTransforms(workloads.triangle(8, -0.5)))
    assert abs(math.exp(-y) * (2 + y) - 2) < 1e-14
    assert oracle.fejer2_equality_points(-4.0, 10.0) == [-math.pi, math.pi, 3 * math.pi]


def _snapshot():
    objects = {}
    for name in spans.PACKAGE_MODULES:
        mod = importlib.import_module(name)
        for attr, obj in vars(mod).items():
            objects[(name, attr)] = obj
    mmod = importlib.import_module("hbfourier.measure")
    for cls_name, attr in spans.CLASS_METHODS:
        objects[(cls_name, attr)] = getattr(mmod, cls_name).__dict__.get(attr)
    return objects


def test_tracer_restores_everything_it_wrapped():
    before = _snapshot()
    tracer = spans.Tracer()
    tracer.install()
    try:
        during = _snapshot()
        replaced = [key for key in before if during[key] is not before[key]]
        assert ("hbfourier.transforms", "_grid_moments") in replaced
        assert ("hbfourier.inequality", "real_transforms") in replaced
        assert ("hbfourier.zeros", "optimize") in replaced
        m = workloads.triangle(4, -0.5)
        zeros.find_imaginary_zero(m)
        assert tracer.calls(lambda n: n == "zeros.find_imaginary_zero") == 1
        assert tracer.calls(lambda n: n.startswith("scipy.optimize.")) == 1
    finally:
        tracer.restore()
    after = _snapshot()
    assert all(after[key] is before[key] for key in before)
    assert not tracer.missing


def test_benchmark_json_matches_the_runner():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert max(m["bound"] for m in doc["end_to_end"]) == next(
        m["bound"] for m in doc["end_to_end"] if m["name"] == "setup_s"
    )
