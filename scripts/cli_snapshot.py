#!/usr/bin/env python3
"""Snapshot the `hbf` CLI output of a fixed set of invocations.

Runs every command on the measure of each `scenarios/*.json` file, with
`zeros-count` once per target (F, F', F'', zF and F/z) and once more for F/z
on the rectangle [-1, 1] x [-1, 0], whose top edge passes through z = 0, plus
the five demos, in json and table form, in-process through `hbfourier.cli.main`.
It also runs every command but `interp` on the two 2049-panel
`from_monomial_density` measures, (1.5, 0.8) and (3.0, 2.0), `eval`,
`posdef`, `zeros-classify` and `zeros-imag` on the borderline triangle of 64
panels (density 1 on [0, 1], an atom of -1/2 at 1), and `eval`, every
`zeros-count`, `zeros-classify` and `zeros-imag` on the same triangle of 16
panels, all written as scenario files into a temporary directory.  The
scenarios have one to a few panels, so the evaluator serves them from its
levels of two or four cells or its panel path; the 16-panel triangle's
contours pass through every level of 2 to 16 cells, and the many-panel
measures and the 64-panel triangle show the coarse levels of longer
hierarchies.  `interp` is left out on the monomial measures, since its
series probes about a million points past every cluster level and takes
minutes on 2049 panels.  Every command also runs on two measures whose total
variation V is far from 1, so that a threshold that does not scale with V
shows: `fejer2_ineq.json` with its atoms scaled by 2^-40 (V = 2^-40), and
the zero measure (V = 0); and on two whose type sigma is far from 1, so that
a length that does not scale with 1 / sigma shows: the sigma twins of
`fejer2_ineq.json` (t -> 2^k t, sigma = 2^(k+1)) for k = 10 and -10, with
its task grid and the default rectangle divided by 2^k.  `zeros-count` of F,
F' and F'' and `zeros-classify` also run on `from_fejer(6)`, sigma = 6, whose
phase can turn 38 times along a 40-wide edge of the default rectangle, so
that a contour start that does not scale with 1 / sigma shows.  The three
`ineq` demos also run with `--out csv`, which prints the margin of every grid
point.  With the five scenario files that makes 329 invocations: 26 per
scenario and per measure of V or sigma far from 1, 24 per monomial measure,
8 for the 64-panel triangle, 18 for the 16-panel one, 8 for Fejer-6 and 13
for the demos.
Each invocation's exit code, stdout and stderr go to a file of their own in
OUTDIR, so that `diff -r` of two snapshots shows every byte that moved:

    PYTHONPATH=src python scripts/cli_snapshot.py /tmp/snap_new
    diff -r /tmp/snap_old /tmp/snap_new

For a command other than the scenario's own, the scenario is rewritten with
that command in its task; the task's other fields are kept.  The script exits
1 when any invocation ended in an exception instead of an exit code.
"""

import argparse
import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

from hbfourier.cli import main
from hbfourier.measure import from_fejer, from_monomial_density
from hbfourier.zeros import DEFAULT_LOWER_RECT

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = ("json", "table")
#: (command, extra flags, file tag) run on every scenario
SCENARIO_RUNS = (
    ("eval", [], "eval"),
    ("identities", [], "identities"),
    ("ineq", [], "ineq"),
    ("interp", [], "interp"),
    ("zeros-count", ["--target", "F"], "zeros-count-F"),
    ("zeros-count", ["--target", "F'"], "zeros-count-dF"),
    ("zeros-count", ["--target", "F''"], "zeros-count-ddF"),
    ("zeros-count", ["--target", "zF"], "zeros-count-zF"),
    ("zeros-count", ["--target", "F/z"], "zeros-count-Fz"),
    ("zeros-count", ["--target", "F/z", "--rect=-1,1,-1,0"], "zeros-count-Fz-origin"),
    ("zeros-classify", [], "zeros-classify"),
    ("zeros-imag", [], "zeros-imag"),
    ("posdef", [], "posdef"),
)
DEMOS = ("fejer2", "atom-sigma", "triangle-case2", "ramp", "growth-limit")
#: the demos whose command is `ineq`, run with `--out csv` too
CSV_DEMOS = ("fejer2", "atom-sigma", "ramp")
#: (mu, nu) of the many-panel measures, and the commands not run on them
MANY_PANEL = ((1.5, 0.8), (3.0, 2.0))
MANY_PANEL_SKIP = {"interp"}
#: the zero measure, V = 0
ZERO_MEASURE = {"sigma": 1.0, "atoms": [], "density": None}
#: k of the sigma twins of fejer2_ineq.json: sigma = 2048 and 2^-9
TWINS = (10, -10)
#: panels of each borderline triangle, and the commands run on it
TRIANGLES = (
    (64, {"eval", "posdef", "zeros-classify", "zeros-imag"}),
    (16, {"eval", "zeros-count", "zeros-classify", "zeros-imag"}),
)
#: the runs of SCENARIO_RUNS, by command or file tag, left out on Fejer-6
FEJER6_SKIP = {"eval", "identities", "ineq", "interp", "zeros-imag", "posdef"}
FEJER6_SKIP |= {"zeros-count-zF", "zeros-count-Fz", "zeros-count-Fz-origin"}


def run(argv):
    """(exit code, stdout, stderr) of one in-process invocation."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        try:
            code = main(argv, out=out)
        except Exception as exc:  # a traceback is itself a finding
            code = f"exception {type(exc).__name__}: {exc}"
    return code, out.getvalue(), err.getvalue()


def monomial_scenario(mu: float, nu: float) -> dict:
    """The measure from_monomial_density(mu, nu) as a scenario document."""
    measure = from_monomial_density(mu, nu)
    dens = measure.density
    return {"sigma": measure.sigma, "density": {"nodes": list(dens.nodes), "values": [*dens.left, dens.right[-1]]}}


def triangle_scenario(panels: int) -> dict:
    """The borderline triangle, from_pd_profile of the profile (1 - t)_+ with a
    jump of -1/2 at sigma = 1, on `panels` equal panels, as a scenario document."""
    nodes = [i / panels for i in range(panels + 1)]
    return {"sigma": 1.0, "atoms": [{"t": 1.0, "c": -0.5}], "density": {"nodes": nodes, "values": [1.0] * len(nodes)}}


def scenario_runs(stem: str, doc: dict, workdir: Path, skip=()):
    """(file name, argv) of every run of SCENARIO_RUNS on one scenario document,
    but those whose command or file tag is in `skip`."""
    for command, flags, tag in SCENARIO_RUNS:
        if command in skip or tag in skip:
            continue
        task = dict(doc.get("task") or {}, command=command)
        scenario = workdir / f"{stem}--{command}.json"
        scenario.write_text(json.dumps(dict(doc, task=task)), encoding="utf-8")
        for output in OUTPUTS:
            yield f"{stem}--{tag}--{output}.txt", [command, str(scenario), *flags, "--out", output]


def sigma_twin(doc: dict, k: int) -> dict:
    """The atomic scenario `doc` with t -> 2^k t, and its task's grid and rectangle in x / 2^k."""
    f = 2.0**k
    task = dict(doc["task"], rect=[v / f for v in doc["task"].get("rect", DEFAULT_LOWER_RECT)])
    task["grid"] = {key: v / f for key, v in task["grid"].items()}
    return dict(doc, sigma=doc["sigma"] * f, atoms=[dict(atom, t=atom["t"] * f) for atom in doc["atoms"]], task=task)


def invocations(workdir: Path):
    """(file name, argv) for every invocation of the snapshot."""
    for path in sorted((ROOT / "scenarios").glob("*.json")):
        yield from scenario_runs(path.stem, json.loads(path.read_text(encoding="utf-8")), workdir)
    fejer2 = json.loads((ROOT / "scenarios" / "fejer2_ineq.json").read_text(encoding="utf-8"))
    scaled = dict(fejer2, atoms=[dict(atom, c=atom["c"] * 2.0**-40) for atom in fejer2["atoms"]])
    yield from scenario_runs("fejer2_ineq-scaled-2^-40", scaled, workdir)
    yield from scenario_runs("zero-measure", ZERO_MEASURE, workdir)
    for k in TWINS:
        yield from scenario_runs(f"fejer2_ineq-twin-2^{k}", sigma_twin(fejer2, k), workdir)
    for mu, nu in MANY_PANEL:
        yield from scenario_runs(f"monomial-{mu}-{nu}", monomial_scenario(mu, nu), workdir, MANY_PANEL_SKIP)
    for panels, commands in TRIANGLES:
        skip = {command for command, _, _ in SCENARIO_RUNS} - commands
        yield from scenario_runs(f"triangle-{panels}", triangle_scenario(panels), workdir, skip)
    fejer6 = {"sigma": 6.0, "atoms": [{"t": t, "c": c} for t, c in from_fejer(6).atoms]}
    yield from scenario_runs("fejer6", fejer6, workdir, FEJER6_SKIP)
    for demo in DEMOS:
        for output in OUTPUTS:
            yield f"demo-{demo}--{output}.txt", ["demo", demo, "--out", output]
    for demo in CSV_DEMOS:
        yield f"demo-{demo}--csv.txt", ["demo", demo, "--out", "csv"]


def main_snapshot(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path)
    args = parser.parse_args(argv)
    args.outdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        count = 0
        failed = []
        for name, cli_argv in invocations(Path(tmp)):
            code, stdout, stderr = run(cli_argv)
            (args.outdir / name).write_text(
                f"exit: {code}\n--- stdout\n{stdout}--- stderr\n{stderr}", encoding="utf-8"
            )
            count += 1
            if isinstance(code, str):
                failed.append(name)
    print(f"{count} invocations written to {args.outdir}", file=sys.stderr)
    if failed:
        print(f"{len(failed)} ended in an exception: {', '.join(failed)}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main_snapshot())
