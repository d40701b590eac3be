"""The scripts, and the CLI commands that replaced a script, print what the library computes."""

import importlib.util
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


def test_cli_snapshot_has_its_documented_size(tmp_path):
    # the README and the script's docstring state the size of the byte-identity gate
    spec = importlib.util.spec_from_file_location("cli_snapshot", ROOT / "scripts" / "cli_snapshot.py")
    snapshot = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(snapshot)
    names = [name for name, _ in snapshot.invocations(tmp_path)]
    assert len(names) == len(set(names)) == 329
    assert "With the five scenario files that makes 329 invocations" in snapshot.__doc__
    assert "CLI output of 329 fixed invocations" in (ROOT / "README.md").read_text(encoding="utf-8")


def test_paired_rounds_compares_a_tree_with_itself():
    # the tool imports perfbench/workloads.py by path, so this keeps the two in step
    pytest.importorskip("mpmath")
    lines = _run(str(ROOT / "scripts" / "paired_rounds.py"), str(ROOT), str(ROOT), "--workload", "zeros", "--seconds", "0.3")
    assert any(line.startswith("B / A:") for line in lines)
