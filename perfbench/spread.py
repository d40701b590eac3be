"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload zeros --seeds 1-10 [--seconds S] [--trace 0|1]

Runs are made one after another from the root of the checkout.  For each
metric it prints the median, the quartiles (statistics.quantiles, n=4) and the
spread (q3 - q1) / median, the figure BENCHMARK.json's bounds are set against.
The raw result lines go to --log, one JSON object per run.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--log", type=Path)
    args = parser.parse_args(argv)
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]

    results = []
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(seconds), "--trace", str(args.trace)]
        start = time.perf_counter()
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent, timeout=600)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["run_wall_s"] = wall
        result["info"] = json.loads(lines[-2])["info"] if len(lines) > 1 else {}
        results.append(result)
        summary = " ".join(f"{k}={v['value']:.5g}" for k, v in sorted(result["metrics"].items()))
        print(
            f"seed {seed}: {wall:.1f} s correct={result['correct']} {result['failed']}/{result['attempted']} {summary}",
            flush=True,
        )
        if args.log:
            with args.log.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(result, sort_keys=True) + "\n")

    print(f"\n{args.workload}: {len(results)} runs of {seconds:g} s")
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else float("nan")
        print(f"  {name:40s} median {med:12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}  spread {spread:7.2%}")
    shares = {r["failed"] / r["attempted"] for r in results}
    print(f"  failed shares: {sorted(shares)}; all correct: {all(r['correct'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
