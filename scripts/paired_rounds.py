#!/usr/bin/env python3
"""Compare two source trees on one benchmark workload, round by round, in one process.

    python scripts/paired_rounds.py SRC_A SRC_B --workload zeros --seconds 40 [--seed 1]

SRC_A and SRC_B are checkouts of the repository (each with `src/hbfourier`).
Each tree's package is imported on its own, and the task list of
`perfbench/workloads.py` (this checkout's copy, read and not changed) is
built once per tree with the same seed.  After one untimed warm-up round
per tree, whole rounds alternate A B B A A B ... until `--seconds` have
passed, so that both trees see the same drift of the machine: sequential runs
on a small shared machine can drift by more than a 20-35% change.

Prints, for each tree: the median round, the pooled task p50 (the median of
every task time, as `perfbench/run.py` reports `task_p50_s`), the median per
task kind, and the fewest probe digits (`accuracy_digits`); then the ratio
B / A of each median and in how many of the round pairs B was faster.  Every
task's output is checked as the benchmark checks it, and a failed or wrong
task stops the run.  The `cli` workload starts child processes from this
checkout, so it is not offered.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import random
import statistics
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_workloads(root: Path, tag: str):
    """perfbench's `workloads` module bound to the hbfourier package under root/src."""
    src = root / "src"
    if not (src / "hbfourier" / "__init__.py").is_file():
        raise SystemExit(f"error: no hbfourier sources under {src}")
    for name in [n for n in sys.modules if n == "hbfourier" or n.startswith("hbfourier.")]:
        del sys.modules[name]
    sys.path.insert(0, str(src))
    try:
        spec = importlib.util.spec_from_file_location(f"workloads_{tag}", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up here
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(src))
        # the module keeps its own package objects; the next tree imports afresh
        for name in [n for n in sys.modules if n == "hbfourier" or n.startswith("hbfourier.")]:
            del sys.modules[name]
    return module


class Side:
    """One tree's tasks, in the benchmark's seeded order, and its timings."""

    def __init__(self, root: Path, tag: str, workload: str, seed: int, workdir: Path):
        self.name = str(root)
        self.wl = load_workloads(root, tag)
        build, expect, make_tasks = self.wl.WORKLOADS[workload]
        fixtures = build(seed)
        self.tasks = make_tasks(fixtures, expect(fixtures), workdir)
        self.order = list(range(len(self.tasks)))
        random.Random(seed).shuffle(self.order)
        self.rounds: list = []
        self.times: dict = {}
        self.digits: list = []

    def run_round(self, record: bool = True):
        start = time.perf_counter()
        for i in self.order:
            task = self.tasks[i]
            t0 = time.perf_counter()
            output = task.run()
            elapsed = time.perf_counter() - t0
            outcome = task.check(output)
            if outcome.status != self.wl.OK:
                raise SystemExit(f"{self.name}: {task.kind}: {outcome.status}: {outcome.note}")
            if task.probe:
                self.digits.extend(outcome.digits)
            if record:
                self.times.setdefault(task.kind, []).append(elapsed)
        if record:
            self.rounds.append(time.perf_counter() - start)

    def summary(self) -> dict:
        pooled = [t for ts in self.times.values() for t in ts]
        return {
            "round": statistics.median(self.rounds),
            "task_p50": statistics.median(pooled),
            "kinds": {k: statistics.median(ts) for k, ts in sorted(self.times.items())},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src_a", type=Path)
    parser.add_argument("src_b", type=Path)
    parser.add_argument("--workload", required=True, choices=("axis", "zeros"))
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    sys.path.insert(0, str(PERFBENCH))  # for `oracle`, which the tasks import
    workdir = Path(os.environ.get("TMPDIR", "/tmp")) / f"paired-rounds-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sides = [
            Side(root.resolve(), tag, args.workload, args.seed, workdir)
            for root, tag in ((args.src_a, "a"), (args.src_b, "b"))
        ]
        for side in sides:
            side.run_round(record=False)
        start, n = time.perf_counter(), 0
        while time.perf_counter() - start < args.seconds:
            for side in sides if n % 2 == 0 else sides[::-1]:
                side.run_round()
            n += 1
    finally:
        for leftover in workdir.glob("*"):
            leftover.unlink()
        workdir.rmdir()

    a, b = (side.summary() for side in sides)
    wins = sum(rb < ra for ra, rb in zip(sides[0].rounds, sides[1].rounds))
    print(f"workload {args.workload}, seed {args.seed}, {n} round pairs")
    for label, side, s in (("A", sides[0], a), ("B", sides[1], b)):
        print(f"{label} {side.name}")
        print(
            f"  round median {1e3 * s['round']:.2f} ms, task p50 {1e6 * s['task_p50']:.0f} us,"
            f" probe digits {min(side.digits):.3f}"
        )
        for kind, t in s["kinds"].items():
            print(f"  {kind:<16} {1e6 * t:9.0f} us")
    print(
        f"B / A: round {b['round'] / a['round']:.3f}, task p50 {b['task_p50'] / a['task_p50']:.3f};"
        f" B faster in {wins} of {n} round pairs"
    )
    for kind in a["kinds"]:
        print(f"  {kind:<16} {b['kinds'][kind] / a['kinds'][kind]:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
