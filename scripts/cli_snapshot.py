#!/usr/bin/env python3
"""Snapshot the `hbf` CLI output of a fixed set of invocations.

Runs every command on the measure of each `scenarios/*.json` file, with
`zeros-count` once per target (F, F', F'', zF and F/z) and once more for F/z
on the rectangle [-1, 1] x [-1, 0], whose top edge passes through z = 0, plus
the five demos, in json and table form, in-process through `hbfourier.cli.main`.
It also runs every command on the two 2049-panel
`from_monomial_density` measures, (1.5, 0.8) and (3.0, 2.0), `eval`,
`posdef`, `zeros-classify` and `zeros-imag` on the borderline triangle of 64
panels (density 1 on [0, 1], an atom of -1/2 at 1), and `eval`, every
`zeros-count`, `zeros-classify` and `zeros-imag` on the same triangle of 16
panels, all written as scenario files into a temporary directory.  The
scenarios have one to a few panels, so the evaluator serves them from its
levels of two or four cells or its panel path; the 16-panel triangle's
contours pass through every level of 2 to 16 cells, and the many-panel
measures and the 64-panel triangle show the coarse levels of longer
hierarchies, and `interp` on them evaluates 20001 nodes past every
cluster level.  Every command also runs on two measures whose total
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
point.  With the five scenario files that makes 333 invocations: 26 per
scenario, per measure of V or sigma far from 1 and per monomial measure,
8 for the 64-panel triangle, 18 for the 16-panel one, 8 for Fejer-6 and 13
for the demos.
Each invocation's exit code, stdout and stderr go to a file of their own in
OUTDIR, so that `diff -r` of two snapshots shows every byte that moved:

    PYTHONPATH=src python scripts/cli_snapshot.py /tmp/snap_new
    diff -r /tmp/snap_old /tmp/snap_new

For a command other than the scenario's own, the scenario is rewritten with
that command in its task; the task's other fields are kept.  The script exits
1 when any invocation ended in an exception instead of an exit code.

`--compare OLD NEW` compares two snapshots field by field instead:

    PYTHONPATH=src python scripts/cli_snapshot.py --compare /tmp/snap_old /tmp/snap_new

For every file that moved it prints each numeric field that moved (a JSON
key or a csv column, list indices dropped) with its largest |change|
relative to the field's largest |value| in the file, old or new, and then
each field's largest relative move over all files.  It exits 1 if a file is
missing from either side, or any exit code, stderr, string, boolean,
integer, None, key, list length or `equality_points` entry moved: those
are verdicts, not last bits.
"""

import argparse
import ast
import contextlib
import io
import json
import math
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
#: (mu, nu) of the many-panel measures
MANY_PANEL = ((1.5, 0.8), (3.0, 2.0))
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
        yield from scenario_runs(f"monomial-{mu}-{nu}", monomial_scenario(mu, nu), workdir)
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


def _parse_value(text: str):
    """A csv or table value as the CLI printed it: a Python literal, or else the string itself."""
    try:
        return ast.literal_eval(text)
    except (ValueError, SyntaxError):
        return text


def _stdout_leaves(stdout: str) -> list:
    """(path, value) of every leaf of a CLI stdout: json lines, csv with a
    header row, or `key: value` table lines; a path is a tuple of keys and
    list indices."""
    lines = stdout.splitlines()
    try:
        docs = [json.loads(line) for line in lines]
    except ValueError:
        docs = None
    if docs is None and lines and "," in lines[0] and ": " not in lines[0]:
        header = lines[0].split(",")
        docs = [[dict(zip(header, map(_parse_value, line.split(",")))) for line in lines[1:]]]
    if docs is None:
        docs = [{key: _parse_value(value) for key, _, value in (line.partition(": ") for line in lines)}]
    leaves = []

    def walk(path, value):
        if isinstance(value, dict):
            for key in value:
                walk(path + (key,), value[key])
        elif isinstance(value, (list, tuple)):
            leaves.append((path + ("len",), len(value)))
            for i, item in enumerate(value):
                walk(path + (i,), item)
        else:
            leaves.append((path, value))

    walk((), docs)
    return leaves


def _snapshot_file(path: Path) -> tuple:
    """(exit line, stdout, stderr) of one snapshot file."""
    text = path.read_text(encoding="utf-8")
    head, rest = text.split("\n--- stdout\n", 1)
    stdout, stderr = rest.rsplit("--- stderr\n", 1)
    return head, stdout, stderr


def compare_snapshots(old: Path, new: Path, out=sys.stdout) -> int:
    """Print the fields that moved between two snapshots; 1 if a verdict moved."""
    names = sorted({p.name for p in old.glob("*.txt")} | {p.name for p in new.glob("*.txt")})
    fatal = []
    worst = {}  # field -> (relative move, file)
    moved = 0
    for name in names:
        if not (old / name).exists() or not (new / name).exists():
            fatal.append(f"{name}: present on one side only")
            continue
        a, b = _snapshot_file(old / name), _snapshot_file(new / name)
        if a == b:
            continue
        moved += 1
        print(name, file=out)
        if a[0] != b[0] or a[2] != b[2]:
            fatal.append(f"{name}: exit code or stderr moved")
            continue
        la, lb = _stdout_leaves(a[1]), _stdout_leaves(b[1])
        if [p for p, _ in la] != [p for p, _ in lb]:
            fatal.append(f"{name}: keys or list lengths moved")
            continue
        delta, size = {}, {}
        for (path, va), (_, vb) in zip(la, lb):
            field = ".".join(str(k) for k in path if not isinstance(k, int))
            if not (isinstance(va, (float, complex)) and isinstance(vb, (float, complex))):
                if va != vb or type(va) is not type(vb):
                    fatal.append(f"{name}: {field} moved from {va!r} to {vb!r}")
                continue
            if "equality_points" in path and va != vb:
                fatal.append(f"{name}: an equality point moved from {va!r} to {vb!r}")
            delta[field] = max(delta.get(field, 0.0), abs(vb - va))
            size[field] = max(size.get(field, 0.0), abs(va), abs(vb))
        for field, d in delta.items():
            if d == 0.0:
                continue
            rel = d / size[field] if size[field] else math.inf
            print(f"  {field}: max |change| {d:.3g}, {rel:.3g} of its largest |value| {size[field]:.3g}", file=out)
            if rel > worst.get(field, (-1.0, ""))[0]:
                worst[field] = (rel, name)
    print(f"{moved} of {len(names)} files moved", file=out)
    for field, (rel, name) in sorted(worst.items()):
        print(f"largest move of {field}: {rel:.3g} of its largest |value|, in {name}", file=out)
    for line in fatal:
        print(f"FATAL {line}", file=out)
    return 1 if fatal else 0


def main_snapshot(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("outdir", type=Path, nargs="?")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare_snapshots(*args.compare)
    if args.outdir is None:
        parser.error("give OUTDIR, or --compare OLD NEW")
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
