"""Command-line front end: scenario execution and table/CSV/JSON emission.

Thin orchestration only; every numerical decision lives in the library
modules.  Exit codes: 0 success, 1 input error, 2 property violation (with a
machine-readable record on stdout).  Output is deterministic byte-for-byte
for fixed inputs: floats are printed with shortest round-trip formatting and
JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import inequality, posdef, sampling, zeros
from .measure import (
    PiecewiseLinearDensity,
    ScenarioError,
    StieltjesMeasure,
    _require_number,
    from_fejer,
    from_pd_profile,
    parse_scenario,
)
from .transforms import identity_residuals, real_transforms

_DEFAULT_TOL = {"ineq": 1e-9, "identities": 1e-10, "interp": 1e-9}

# input budgets, checked before anything is allocated: past them a command
# could exhaust memory before printing anything, so it exits 1 instead
#: points of an evaluation grid (the scenarios and demos use a few thousand)
_MAX_GRID_POINTS = 100_000
#: terms on each side of the interpolation series, which evaluates 2 terms + 1 nodes
_MAX_TERMS = 100_000


@dataclass(frozen=True)
class TaskDescriptor:
    command: str
    grid: tuple = (-10.0, 10.0, None)  # (start, stop, step); None step = the measure's check_step
    rect: tuple = zeros.DEFAULT_LOWER_RECT
    tau: float = 0.0
    n: int = 0
    alpha: float = 0.0
    tol: float | None = None
    terms: int = 10_000
    output: str = "table"
    target: str = "F"

    def resolved_tol(self) -> float:
        if self.tol is not None:
            return self.tol
        return _DEFAULT_TOL[self.command]

    @classmethod
    def from_mapping(cls, command: str, mapping: dict | None) -> "TaskDescriptor":
        task = cls(command=command)
        if not mapping:
            return task
        unknown = set(mapping) - _TASK_FIELDS
        if unknown:
            raise ScenarioError(f"unknown task fields {sorted(unknown)}", "task")
        fields = {}
        if "command" in mapping and mapping["command"] != command:
            raise ScenarioError(
                f"scenario task is {mapping['command']!r}, invoked as {command!r}", "task.command"
            )
        if "grid" in mapping:
            g = mapping["grid"]
            if not (isinstance(g, dict) and {"start", "stop"} <= set(g) <= {"start", "stop", "step"}):
                raise ScenarioError("grid must be {start, stop, step?}", "task.grid")
            fields["grid"] = tuple(
                _number(g[key], f"task.grid.{key}") if key in g else None for key in ("start", "stop", "step")
            )
        if "rect" in mapping:
            r = mapping["rect"]
            if not (isinstance(r, list) and len(r) == 4):
                raise ScenarioError("rect must be [x0, x1, y0, y1]", "task.rect")
            fields["rect"] = tuple(_number(v, "task.rect") for v in r)
        for key in ("tau", "n", "alpha", "tol", "terms"):
            if key in mapping:
                fields[key] = _number(mapping[key], f"task.{key}", whole=key in ("n", "terms"))
        if fields.get("terms", 0) > _MAX_TERMS:
            raise ScenarioError(f"{fields['terms']} exceeds the budget of {_MAX_TERMS}", "task.terms")
        if "output" in mapping:
            if mapping["output"] not in ("csv", "json", "table"):
                raise ScenarioError("output must be csv, json, or table", "task.output")
            fields["output"] = mapping["output"]
        if "target" in mapping:
            fields["target"] = str(mapping["target"])
        return replace(task, **fields)


_TASK_FIELDS = {f.name for f in dataclasses.fields(TaskDescriptor)}


def _number(value, field: str, whole: bool = False):
    """A task field's number, checked as the measure's are; a `whole` one becomes an int."""
    number = _require_number(value, field)
    if whole and not number.is_integer():
        raise ScenarioError(f"expected a whole number, got {value!r}", field)
    return int(number) if whole else number


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real!r}{'+' if value.imag >= 0 else '-'}{abs(value.imag)!r}j"
    return str(value)


def _emit_rows(header, rows, output, out):
    """Rows as JSON for json output, as CSV otherwise (table output too)."""
    if output == "json":
        payload = [dict(zip(header, row)) for row in rows]
        out.write(json.dumps(payload, sort_keys=True, allow_nan=False) + "\n")
    else:
        out.write(",".join(header) + "\n")
        for row in rows:
            out.write(",".join(_fmt(v) for v in row) + "\n")


def _emit_doc(doc: dict, output: str, out):
    if output == "json":
        out.write(json.dumps(doc, sort_keys=True, default=_json_default, allow_nan=False) + "\n")
    else:
        for key in sorted(doc):
            out.write(f"{key}: {_fmt(doc[key]) if not isinstance(doc[key], (list, tuple, dict)) else doc[key]}\n")


def _json_default(obj):
    if isinstance(obj, complex):
        return {"re": obj.real, "im": obj.imag}
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _violation(out, prop: str, location, observed, bound) -> int:
    record = {"violation": {"property": prop, "location": location, "observed": observed, "bound": bound}}
    out.write(json.dumps(record, sort_keys=True, default=_json_default, allow_nan=False) + "\n")
    return 2


def _nonfinite(out, **gate_inputs) -> int | None:
    """Exit-2 record naming the first gate input that holds a NaN or an infinity.

    A comparison with NaN is False, so such an input would pass any gate.
    """
    for name, value in gate_inputs.items():
        value = np.asarray(value, dtype=float)
        bad = value[~np.isfinite(value)]
        if bad.size:
            return _violation(out, "nonfinite", name, str(bad[0]), None)
    return None


def _make_grid(task: TaskDescriptor, measure: StieltjesMeasure) -> np.ndarray:
    start, stop, step = task.grid
    if step is None:
        step = measure.check_step
    if not (stop > start and step > 0):
        raise ValueError("grid needs stop > start and step > 0")
    # a float, so a span that overflows to inf is refused too
    points = (stop - start) / step + 1.0
    if not points <= _MAX_GRID_POINTS:
        raise ValueError(f"grid has about {points:.3g} points, over the budget of {_MAX_GRID_POINTS}")
    return np.arange(start, stop + 0.5 * step, step)


def _run_eval(measure, task, out) -> int:
    grid = _make_grid(task, measure)
    rt = real_transforms(measure, grid, order=1)
    cfg = inequality.OmegaConfig(measure, task.n, task.tau)
    # the mirrored moments serve the margins and E; the direct ones only G, H and Delta
    margin, _, _, e_vals = inequality._margin_pieces(cfg, grid, rt.mirrored)
    columns = {
        "x": grid,
        "F_re": rt.G,
        "F_im": rt.H,
        "G": rt.G,
        "H": rt.H,
        "C": rt.C,
        "S": rt.S,
        "Delta": rt.Delta,
        "E": e_vals,
        "margin": margin,
    }
    if (code := _nonfinite(out, **columns)) is not None:
        return code
    rows = [tuple(float(v) for v in row) for row in zip(*columns.values())]
    _emit_rows(list(columns), rows, task.output, out)
    return 0


def _run_identities(measure, task, out) -> int:
    grid = _make_grid(task, measure)
    res = identity_residuals(measure, grid)
    tol = task.resolved_tol()
    doc = {
        "max_linear_residual": res.max_linear(),
        "max_quadratic_residual": res.max_quadratic(),
        "linear_scale": res.linear_scale,
        "quadratic_scale": res.quadratic_scale,
    }
    if (code := _nonfinite(out, **doc)) is not None:
        return code
    _emit_doc(doc, task.output, out)
    if res.max_linear() > tol * res.linear_scale:
        return _violation(out, "identity_residual_linear", None, res.max_linear(), tol * res.linear_scale)
    if res.max_quadratic() > tol * res.quadratic_scale:
        return _violation(out, "identity_residual_quadratic", None, res.max_quadratic(), tol * res.quadratic_scale)
    return 0


def _run_ineq(measure, task, out) -> int:
    cfg = inequality.OmegaConfig(measure, task.n, task.tau)
    grid = _make_grid(task, measure)
    report = inequality.check_inequality(cfg, grid)
    tol = task.resolved_tol()
    if (code := _nonfinite(out, E=report.e_values, margin=report.margin, scale=report.scale)) is not None:
        return code
    if task.output == "csv":
        header = ["x", "margin", "E", "scale"]
        rows = [
            (float(report.grid[i]), float(report.margin[i]), float(report.e_values[i]), float(report.scale[i]))
            for i in range(len(report.grid))
        ]
        _emit_rows(header, rows, "csv", out)
    else:
        doc = {
            "hypothesis_ok": report.hypothesis_ok,
            "hypothesis_note": "grid-verified hypothesis" if report.hypothesis_ok else "grid hypothesis failed",
            "min_margin": report.min_margin,
            "worst_relative_margin": report.worst_relative_margin,
            "global_equality": report.global_equality,
            "equality_points": list(report.equality_points),
        }
        if report.global_equality:
            doc["summary"] = "global equality"
        _emit_doc(doc, task.output, out)
    if not report.hypothesis_ok:
        loc = float(report.grid[int(np.argmin(report.e_values))])
        return _violation(out, "grid_hypothesis_E_nonneg", loc, float(np.min(report.e_values)), 0.0)
    rel = report.margin / report.scale
    if float(np.min(rel)) < -tol:
        i = int(np.argmin(rel))
        return _violation(out, "min_margin", float(report.grid[i]), float(report.margin[i]), -tol * float(report.scale[i]))
    return 0


def _run_interp(measure, task, out) -> int:
    cfg = inequality.OmegaConfig(measure, task.n, task.tau)
    f = sampling.from_omega_config(cfg, task.alpha)
    grid = _make_grid(task, measure)
    probes = grid[:: max(len(grid) // 16, 1)]
    samples = sampling._node_samples(f, measure.sigma, task.alpha, task.terms)
    # f carries u^n, so sigma f and f' have the scale sigma^(1-n) V of the identity's sides
    slack = task.resolved_tol() * measure.bound(1 - task.n)
    rows = []
    worst = None
    for x in probes:
        lhs = sampling.interp_lhs(f, measure.sigma, task.alpha, float(x))
        rhs = sampling._series_at(samples, measure.sigma, task.alpha, float(x))
        gap = abs(lhs - rhs.value)
        rows.append((float(x), lhs, rhs.value, gap, rhs.tail_bound))
        if gap > rhs.tail_bound + slack:
            worst = (float(x), gap, rhs.tail_bound + slack)
    if (code := _nonfinite(out, gap=[row[3] for row in rows], tail_bound=[row[4] for row in rows])) is not None:
        return code
    _emit_rows(["x", "lhs", "rhs", "gap", "tail_bound"], rows, task.output, out)
    if worst is not None:
        return _violation(out, "interpolation_identity", worst[0], worst[1], worst[2])
    return 0


def _run_zeros_count(measure, task, out) -> int:
    rect = zeros.Rectangle(*task.rect)
    result = zeros.count_zeros(measure, rect, task.target)
    _emit_doc(
        {
            "count": result.count,
            "winding_residual": result.winding_residual,
            "boundary_samples": result.boundary_samples,
            "rect": list(task.rect),
            "target": task.target,
        },
        task.output,
        out,
    )
    return 0


def _run_zeros_classify(measure, task, out) -> int:
    result = zeros.classify(measure, zeros.Rectangle(*task.rect))
    doc = {
        "verdict": result.verdict,
        "real_zeros": [[x, mult] for x, mult in result.real_zeros],
        "lower_zero": result.lower_zero,
        "defect": result.defect,
        "c_nonneg": result.c_nonneg,
        "s_nonneg": result.s_nonneg,
    }
    _emit_doc(doc, task.output, out)
    return 0


def _run_zeros_imag(measure, task, out) -> int:
    y_star = zeros.find_imaginary_zero(measure)
    _emit_doc({"y_star": y_star}, task.output, out)
    return 0


def _run_posdef(measure, task, out) -> int:
    rep = posdef.recover_pd_profile(measure)
    doc = {
        "s_nonneg": rep.s_nonneg,
        "note": "grid-verified" if rep.s_nonneg else "sine hypothesis failed on grid",
        "f0": rep.f0,
        "pd_bound_ok": rep.pd_bound_ok,
    }
    if rep.s_nonneg:  # recover_pd_profile checked the sine hypothesis
        moment_rep = posdef._moment_signs(measure)
        doc["h_prime_zero"] = moment_rep.h_prime_zero
        doc["expected_sign"] = moment_rep.expected_sign
        doc["sign_ok"] = moment_rep.sign_ok
    _emit_doc(doc, task.output, out)
    return 0


_RUNNERS = {
    "eval": _run_eval,
    "identities": _run_identities,
    "ineq": _run_ineq,
    "interp": _run_interp,
    "zeros-count": _run_zeros_count,
    "zeros-classify": _run_zeros_classify,
    "zeros-imag": _run_zeros_imag,
    "posdef": _run_posdef,
}

COMMANDS = (*_RUNNERS, "demo")


def _demo_fixture(name: str):
    if name == "fejer2":
        return from_fejer(2, 1.0, 1.0), {"command": "ineq", "tau": 0.0, "n": 0, "grid": {"start": -20 * math.pi, "stop": 20 * math.pi}}
    if name == "atom-sigma":
        return StieltjesMeasure(1.0, ((1.0, 2.0),)), {"command": "ineq", "tau": math.pi / 2, "n": 0}
    if name == "triangle-case2":
        return from_pd_profile([0.0, 1.0], [1.0, 0.0], -0.5), {"command": "zeros-classify"}
    if name == "ramp":
        dens = PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0])
        return StieltjesMeasure(1.0, (), dens), {"command": "ineq", "tau": -math.pi / 2, "n": 1}
    raise ValueError(f"unknown demo {name!r}")


def _run_demo(args, task_flags, out) -> int:
    name = args.scenario
    if name is None:
        raise ValueError("demo needs a name: fejer2, atom-sigma, triangle-case2, ramp, growth-limit")
    if name == "growth-limit":
        a = args.a if args.a is not None else -0.75
        d_small = inequality.borderline_growth_d(a, 0.1)
        d_large = inequality.borderline_growth_d(a, 100.0)
        _emit_doc(
            {
                "a": a,
                "d_at_0.1": d_small,
                "d_at_100": d_large,
                "sign_change": bool(d_small < 0.0 < d_large),
                "note": "linear growth breaks the Wronskian sign; expected behavior",
            },
            task_flags.get("output", "table"),
            out,
        )
        return 0
    measure, base_task = _demo_fixture(name)
    merged = dict(base_task)
    merged.update(task_flags)
    command = merged.pop("command")
    task = TaskDescriptor.from_mapping(command, merged)
    return _RUNNERS[command](measure, task, out)


def _flag_task_fields(args) -> dict:
    fields: dict = {}
    if args.grid:
        try:
            start, stop, step = (float(v) for v in args.grid.split(":"))
        except ValueError as exc:
            raise ValueError("--grid expects a:b:step") from exc
        fields["grid"] = {"start": start, "stop": stop, "step": step}
    if args.rect:
        try:
            fields["rect"] = [float(v) for v in args.rect.split(",")]
        except ValueError as exc:
            raise ValueError("--rect expects x0,x1,y0,y1") from exc
    for flag in ("tau", "n", "alpha", "tol", "terms", "out", "target"):
        if (value := getattr(args, flag)) is not None:
            fields["output" if flag == "out" else flag] = value
    return fields


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a malformed flag is an input error (exit 1), not argparse's exit 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="hbf",
        description="Finite Fourier-Stieltjes transforms: inequality checks, interpolation, zero classification.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("scenario", nargs="?", help="scenario JSON path (or demo name for the demo command)")
    parser.add_argument("--grid", help="evaluation grid a:b:step")
    parser.add_argument("--rect", help="complex rectangle x0,x1,y0,y1")
    parser.add_argument("--tau", type=float)
    parser.add_argument("--n", type=int)
    parser.add_argument("--alpha", type=float)
    parser.add_argument("--tol", type=float)
    parser.add_argument("--terms", type=int)
    parser.add_argument("--target", choices=("F", "zF", "F/z", "F'", "F''"))
    parser.add_argument("--a", type=float, help="parameter of the growth-limit demo")
    parser.add_argument("--out", choices=("csv", "json", "table"))
    return parser


def main(argv=None, out=None) -> int:
    out = out or sys.stdout
    try:
        args = build_parser().parse_args(argv)
        flag_fields = _flag_task_fields(args)
        if args.command == "demo":
            return _run_demo(args, flag_fields, out)
        if args.scenario is None:
            raise ValueError(f"{args.command} needs a scenario file")
        try:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ValueError(f"cannot read scenario: {exc}") from exc
        measure, task_mapping = parse_scenario(text)
        merged = dict(task_mapping or {})
        merged.update(flag_fields)
        task = TaskDescriptor.from_mapping(args.command, merged)
        return _RUNNERS[args.command](measure, task, out)
    except (ValueError, zeros.BoundaryZeroError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (zeros.DiagnosticFailure, zeros.HypothesisViolation) as exc:
        return _violation(out, "diagnostic", None, str(exc), None)


if __name__ == "__main__":
    sys.exit(main())
