"""The scripts, and the CLI commands that replaced a script, print what the library computes."""

import importlib.util
import io
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hbfourier
from hbfourier import find_imaginary_zero, from_pd_profile

ROOT = Path(__file__).resolve().parent.parent
SRC = str(Path(hbfourier.__file__).resolve().parent.parent)


def _run(*argv) -> list:
    """stdout lines of `python argv...` with this package importable; the exit must be 0."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_lower_zero_sweep_counts_the_zero_it_prints():
    # at F(0) = 1e-4, y* = -2e-4 lies above the default rectangle's top edge
    # -1e-3; classify's count rectangle reaches up to y* / 2 and counts it
    lines = _run(str(ROOT / "scripts" / "lower_zero_sweep.py"), "--masses=0.0001,0.5")
    assert lines[0] == "F0,y_star,lower_count"
    assert len(lines) == 3
    for line, f0 in zip(lines[1:], (0.0001, 0.5)):
        mass, y_star, count = line.split(",")
        assert float(mass) == f0
        assert float(y_star) == find_imaginary_zero(from_pd_profile([0.0, 1.0], [1.0, 0.0], f0 - 1.0))
        assert count == "1"


@pytest.mark.parametrize("demo", ["fejer2", "ramp"])
def test_ineq_demo_csv_prints_plain_numbers(demo):
    # the margin sweep of an example family: every field must parse as a float
    lines = _run("-m", "hbfourier", "demo", demo, "--out", "csv")
    assert lines[0] == "x,margin,E,scale"
    assert len(lines) > 100
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 4
        for field in fields:
            float(field)


def _cli_snapshot():
    spec = importlib.util.spec_from_file_location("cli_snapshot", ROOT / "scripts" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    return snapshot


def test_cli_snapshot_has_its_documented_size(tmp_path):
    # the README and the script's docstring state the size of the byte-identity gate
    snapshot = _cli_snapshot()
    names = [name for name, _ in snapshot.invocations(tmp_path)]
    assert len(names) == len(set(names)) == 333
    assert "With the five scenario files that makes 333 invocations" in snapshot.__doc__
    assert "CLI output of 333 fixed invocations" in (ROOT / "README.md").read_text(encoding="utf-8")


def test_paired_rounds_compares_a_tree_with_itself():
    # the tool imports perfbench/workloads.py by path, so this keeps the two in step
    pytest.importorskip("mpmath")
    lines = _run(str(ROOT / "scripts" / "paired_rounds.py"), str(ROOT), str(ROOT), "--workload", "zeros", "--seconds", "0.3")
    assert any(line.startswith("B / A:") for line in lines)


#: a small snapshot in the three stdout forms the CLI prints: json, csv and table
SNAPSHOT = {
    "a--json.txt": '{"equality_points": [1.0, 2.0], "hypothesis_ok": true, "min_margin": 1e-20, "verdict": "hb"}\n',
    "b--csv.txt": "x,margin,E,scale\n0.0,4.0,1.0,4.0\n1.0,2.0,0.5,4.0\n",
    "c--table.txt": "count: 3\nnote: grid-verified\nrect: [-1.0, 1.0]\n",
}


def _write_snapshot(root, files, exits=None):
    root.mkdir(parents=True)
    for name, stdout in files.items():
        (root / name).write_text(f"exit: {(exits or {}).get(name, 0)}\n--- stdout\n{stdout}--- stderr\n", encoding="utf-8")
    return root


def _compare(tmp_path, files, exits=None):
    old = _write_snapshot(tmp_path / "old", SNAPSHOT)
    new = _write_snapshot(tmp_path / "new", files, exits)
    out = io.StringIO()
    return _cli_snapshot().compare_snapshots(old, new, out=out), out.getvalue()


def test_snapshot_compare_reports_last_bits_field_by_field(tmp_path):
    files = dict(SNAPSHOT, **{"b--csv.txt": "x,margin,E,scale\n0.0,4.0,1.0,4.0\n1.0,2.0000000000000004,0.5,4.0\n"})
    files["a--json.txt"] = files["a--json.txt"].replace("1e-20", "-3e-20")
    code, report = _compare(tmp_path, files)
    assert code == 0, report
    lines = report.splitlines()
    assert "c--table.txt" not in lines  # unmoved files are not listed
    assert "  margin: max |change| 4.44e-16, 1.11e-16 of its largest |value| 4" in lines
    assert "  min_margin: max |change| 4e-20, 1.33 of its largest |value| 3e-20" in lines
    assert not any(line.startswith(("  x:", "  E:", "  scale:", "FATAL")) for line in lines)
    assert "2 of 3 files moved" in lines


@pytest.mark.parametrize(
    "name, before, after",
    [
        ("a--json.txt", '"hb"', '"hb_bar"'),  # a string
        ("a--json.txt", "true", "false"),  # a boolean
        ("a--json.txt", "2.0]", "2.0000000000000004]"),  # an equality point
        ("a--json.txt", "2.0]", "2.0, 3.0]"),  # a list length
        ("c--table.txt", "count: 3", "count: 4"),  # an integer
        ("c--table.txt", "grid-verified", "grid hypothesis failed"),
        ("c--table.txt", "count: 3\n", ""),  # a key
    ],
)
def test_snapshot_compare_refuses_a_moved_verdict(tmp_path, name, before, after):
    files = dict(SNAPSHOT)
    assert before in files[name]
    files[name] = files[name].replace(before, after)
    code, report = _compare(tmp_path, files)
    assert code == 1
    assert report.splitlines()[-1].startswith(f"FATAL {name}")


def test_snapshot_compare_refuses_a_moved_exit_or_a_missing_file(tmp_path):
    assert _compare(tmp_path / "exit", SNAPSHOT, {"b--csv.txt": 2})[0] == 1
    files = dict(SNAPSHOT)
    del files["c--table.txt"]
    code, report = _compare(tmp_path / "missing", files)
    assert code == 1
    assert "FATAL c--table.txt: present on one side only" in report


#: a table form that ends in a violation record, as `hbf ineq --out table` prints one
VIOLATION_TABLE = (
    "hypothesis_ok: False\nmin_margin: -0.0011553853895031256\n"
    '{"violation": {"bound": 0.0, "location": -6.669911787194838, "observed": -0.03605764273551924, '
    '"property": "grid_hypothesis_E_nonneg"}}\n'
)


@pytest.mark.parametrize(
    "before, after, fatal",
    [
        ("-0.03605764273551924", "-0.036057642735519244", False),  # observed, a last digit
        ("grid_hypothesis_E_nonneg", "min_margin", True),  # property
        ("-6.669911787194838", "-6.6", False),  # location, a number like any other
    ],
)
def test_snapshot_compare_reads_a_table_forms_violation_as_json(tmp_path, before, after, fatal):
    old = _write_snapshot(tmp_path / "old", {"v--table.txt": VIOLATION_TABLE})
    new = _write_snapshot(tmp_path / "new", {"v--table.txt": VIOLATION_TABLE.replace(before, after)})
    out = io.StringIO()
    code = _cli_snapshot().compare_snapshots(old, new, out=out)
    lines = out.getvalue().splitlines()
    assert code == int(fatal), lines
    if fatal:
        assert lines[-1] == "FATAL v--table.txt: violation.property moved from 'grid_hypothesis_E_nonneg' to 'min_margin'"
    else:
        assert any(line.startswith("  violation.") for line in lines), lines


def test_snapshot_compare_reads_a_csv_forms_violation_as_json(tmp_path):
    stdout = 'x,lhs\n0.5,1.0\n{"violation": {"bound": 1e-10, "location": 0.5, "observed": 2e-10, "property": "p"}}\n'
    old = _write_snapshot(tmp_path / "old", {"w--csv.txt": stdout})
    new = _write_snapshot(tmp_path / "new", {"w--csv.txt": stdout.replace("2e-10", "2.0000000000000003e-10")})
    out = io.StringIO()
    assert _cli_snapshot().compare_snapshots(old, new, out=out) == 0, out.getvalue()
    assert "  violation.observed: max |change| 2.58e-26, 1.29e-16 of its largest |value| 2e-10" in out.getvalue().splitlines()
