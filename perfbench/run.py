"""Benchmark of hbfourier: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload {axis,zeros,cli} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the package is imported from `src`.  One
process and one thread drive the program in a closed loop with one client;
`cli` starts one child process at a time.  The run

1. times COLD_STARTS fresh interpreters that import hbfourier and build the
   workload's fixtures (after one untimed warm-up start): `setup_s`;
2. builds the fixtures and computes the oracle answers (untimed);
3. runs one untimed warm-up round, then whole rounds of the same tasks in a
   fixed seeded order until `--seconds` have passed, checking every output.

With `--trace 1` it then also runs one round under the span tracer and prints
the per-layer metrics instead of the end-to-end ones.  The last stdout line is
{"correct", "attempted", "failed", "metrics"}; the line before it records the
environment and per-kind timings.
"""

import os

# pinned before numpy is imported here or in any child
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
COLD_STARTS = 5

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_p50_s": "s",
    "peak_rss_mb": "MB",
    "accuracy_digits": "digits",
}
PER_LAYER = {
    "measure.build_s": "s",
    "transforms.grid_calls": "count",
    "transforms.grid_busy_s": "s",
    "transforms.grid_point_panels": "count",
    "transforms.grid_point_panels_per_s": "1/s",
    "transforms.grid_points_per_call": "count",
    "inequality.check_calls": "count",
    "inequality.check_busy_s": "s",
    "inequality.eval_E_calls": "count",
    "inequality.equality_points": "count",
    "sampling.interp_busy_s": "s",
    "sampling.series_terms": "count",
    "zeros.count_calls": "count",
    "zeros.count_busy_s": "s",
    "zeros.boundary_samples": "count",
    "zeros.boundary_samples_per_s": "1/s",
    "zeros.real_zeros_busy_s": "s",
    "zeros.imag_zero_busy_s": "s",
    "zeros.classify_busy_s": "s",
    "zeros.locate_busy_s": "s",
    "posdef.hhat_busy_s": "s",
    "posdef.hhat_samples": "count",
    "posdef.profile_busy_s": "s",
    "scipy.optimize_calls": "count",
    "scipy.optimize_busy_s": "s",
    "cli.import_s": "s",
    "cli.main_busy_s": "s",
    "run.cpu_s": "s",
    "run.wait_s": "s",
    "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("axis", "zeros", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def cold_starts(args: list) -> list:
    """Wall times of COLD_STARTS fresh interpreters, after one untimed start."""
    import workloads

    env = workloads.child_env()
    argv = [sys.executable, str(HERE / "coldstart.py")] + args
    times = []
    for i in range(COLD_STARTS + 1):
        res = workloads.run_child(argv, env, ROOT)
        if res.exit_code != 0:
            raise RuntimeError(f"cold start {args} failed: {res.stderr.strip()[-500:]}")
        if i:
            times.append(res.wall_s)
    return times


class Phase:
    """Outcomes and timings of the rounds run so far."""

    def __init__(self):
        self.times: list = []
        self.kinds: list = []
        self.statuses: list = []
        self.probe_digits: list = []
        self.notes: list = []
        self.child_rss_kb = 0
        self.round_walls: list = []

    def run_round(self, tasks, order):
        import workloads

        start = time.perf_counter()
        for i in order:
            task = tasks[i]
            t0 = time.perf_counter()
            try:
                output = task.run()
            except Exception as exc:  # a refused or crashed operation is a failed one
                elapsed = time.perf_counter() - t0
                outcome = workloads.Outcome(workloads.FAILED, [], f"{type(exc).__name__}: {exc}")
            else:
                elapsed = time.perf_counter() - t0
                if isinstance(output, workloads.ChildResult):
                    self.child_rss_kb = max(self.child_rss_kb, output.maxrss_kb)
                outcome = task.check(output)
            self.times.append(elapsed)
            self.kinds.append(task.kind)
            self.statuses.append(outcome.status)
            if task.probe:
                self.probe_digits.extend(outcome.digits)
            if outcome.status != workloads.OK:
                self.notes.append(f"{task.kind}: {outcome.status}: {outcome.note}")
        self.round_walls.append(time.perf_counter() - start)

    def count(self, status) -> int:
        return sum(1 for s in self.statuses if s == status)


def kind_stats(phase: Phase) -> dict:
    out = {}
    for kind in sorted(set(phase.kinds)):
        ts = sorted(t for t, k in zip(phase.times, phase.kinds) if k == kind)
        out[kind] = {"n": len(ts), "p50_s": statistics.median(ts), "max_s": ts[-1]}
    return out


def _layer_metrics(tracer, build_s, import_s, cpu_s, wait_s, overhead_pct) -> dict:
    def named(*names):
        return lambda n: n in names

    def within(name, ancestor):
        count = 0
        for span_name, _, _, parent in tracer.spans:
            if span_name != name:
                continue
            while parent >= 0:
                if tracer.spans[parent][0] == ancestor:
                    count += 1
                    break
                parent = tracer.spans[parent][3]
        return count

    c = tracer.counters
    grid = named("transforms._grid_moments")
    grid_calls = tracer.calls(grid)
    grid_busy = tracer.busy(grid)
    count_busy = tracer.busy(named("zeros.count_zeros"))
    optimize = lambda n: n.startswith("scipy.optimize.")  # noqa: E731
    return {
        "measure.build_s": build_s,
        "transforms.grid_calls": grid_calls,
        "transforms.grid_busy_s": grid_busy,
        "transforms.grid_point_panels": c["transforms.grid_point_panels"],
        "transforms.grid_point_panels_per_s": c["transforms.grid_point_panels"] / grid_busy if grid_busy else 0.0,
        "transforms.grid_points_per_call": c["transforms.grid_points"] / grid_calls if grid_calls else 0.0,
        "inequality.check_calls": tracer.calls(named("inequality.check_inequality")),
        "inequality.check_busy_s": tracer.busy(named("inequality.check_inequality")),
        "inequality.eval_E_calls": within("transforms.eval_E", "inequality.check_inequality"),
        "inequality.equality_points": c["inequality.equality_points"],
        "sampling.interp_busy_s": tracer.busy(named("sampling.interp_rhs", "sampling.interp_lhs")),
        "sampling.series_terms": c["sampling.series_terms"],
        "zeros.count_calls": tracer.calls(named("zeros.count_zeros")),
        "zeros.count_busy_s": count_busy,
        "zeros.boundary_samples": c["zeros.boundary_samples"],
        "zeros.boundary_samples_per_s": c["zeros.boundary_samples"] / count_busy if count_busy else 0.0,
        "zeros.real_zeros_busy_s": tracer.busy(named("zeros.find_real_zeros")),
        "zeros.imag_zero_busy_s": tracer.busy(named("zeros.find_imaginary_zero")),
        "zeros.classify_busy_s": tracer.busy(named("zeros.classify")),
        "zeros.locate_busy_s": tracer.busy(named("zeros.locate_zero")),
        "posdef.hhat_busy_s": tracer.busy(named("posdef.check_h_hat_identity")),
        "posdef.hhat_samples": c["posdef.hhat_samples"],
        "posdef.profile_busy_s": tracer.busy(named("posdef.recover_pd_profile")),
        "scipy.optimize_calls": tracer.calls(optimize),
        "scipy.optimize_busy_s": tracer.busy(optimize),
        "cli.import_s": import_s,
        "cli.main_busy_s": tracer.busy(named("cli.main")),
        "run.cpu_s": cpu_s,
        "run.wait_s": wait_s,
        "trace.overhead_pct": overhead_pct,
    }


def _cli_in_process(tasks_argv, tracer=None) -> float:
    """Run every cli argv through hbfourier.cli.main in this process."""
    from hbfourier import cli

    start = time.perf_counter()
    for _kind, argv, _refusal in tasks_argv:
        sink = io.StringIO()
        with contextlib.redirect_stderr(io.StringIO()):
            if tracer is None:
                cli.main(argv, out=sink)
            else:
                with tracer.span("cli.main"):
                    cli.main(argv, out=sink)
    return time.perf_counter() - start


def run(args) -> dict:
    import spans
    import workloads

    build, expect, make_tasks = workloads.WORKLOADS[args.workload]
    env_info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
    }

    if args.trace:
        setup_times = cold_starts(["import"])
        tracer = spans.Tracer()
        tracer.install()
        try:
            fixtures = build(args.seed)
        finally:
            tracer.restore()
        build_s = tracer.busy(lambda n: n.startswith("measure."))
    else:
        setup_times = cold_starts(["fixtures", args.workload, str(args.seed)])
        fixtures = build(args.seed)

    expected = expect(fixtures)
    workdir = HERE / "_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tasks = make_tasks(fixtures, expected, workdir)
        order = list(range(len(tasks)))
        random.Random(args.seed).shuffle(order)

        warm = Phase()
        warm.run_round(tasks, order)

        timed = Phase()
        cpu0 = _cpu_s()
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds:
            timed.run_round(tasks, order)
        wall = time.perf_counter() - start
        cpu = _cpu_s() - cpu0

        result_phases = [warm, timed]
        if args.trace:
            tracer = spans.Tracer()
            if args.workload == "cli":
                argvs = workloads.cli_argvs(fixtures, expected, workdir)
                plain = _cli_in_process(argvs)
                tracer.install()
                try:
                    traced_wall = _cli_in_process(argvs, tracer)
                finally:
                    tracer.restore()
            else:
                plain = statistics.median(timed.round_walls)
                traced = Phase()
                tracer.install()
                try:
                    traced.run_round(tasks, order)
                finally:
                    tracer.restore()
                traced_wall = traced.round_walls[0]
                result_phases.append(traced)
            out_dir = HERE / "out"
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.json")
            metrics = _layer_metrics(
                tracer,
                build_s,
                statistics.median(setup_times),
                cpu,
                max(wall - cpu, 0.0),
                100.0 * (traced_wall / plain - 1.0),
            )
            units = PER_LAYER
        else:
            if args.workload == "cli":
                rss_mb = timed.child_rss_kb / 1024.0
            else:
                rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": statistics.median(setup_times),
                "tasks_per_s": len(timed.times) / wall,
                "task_p50_s": statistics.median(timed.times),
                "peak_rss_mb": rss_mb,
                "accuracy_digits": min(timed.probe_digits + warm.probe_digits),
            }
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()  # only once no other run is using it

    wrong = sum(p.count(workloads.WRONG) for p in result_phases)
    notes = sorted(set(n for p in result_phases for n in p.notes))
    env_info.update(
        {
            "rounds": len(timed.round_walls),
            "round_walls_s": timed.round_walls,
            "setup_samples_s": setup_times,
            "kinds": kind_stats(timed),
            "task_p90_s": statistics.quantiles(timed.times, n=10)[-1] if len(timed.times) > 1 else timed.times[0],
            "wrong": wrong,
            "notes": notes,
        }
    )
    print(json.dumps({"info": env_info}, sort_keys=True))
    for note in notes:
        print(f"note: {note}", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": len(timed.statuses),
        "failed": timed.count(workloads.FAILED),
        "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
    }


def _version(module: str) -> str:
    try:
        return __import__(module).__version__
    except ImportError:
        return "absent"


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "hbfourier" / "__init__.py").is_file():
        print(f"error: no hbfourier sources under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if str(HERE) not in sys.path:
        sys.path.insert(0, str(HERE))
    result = run(args)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
