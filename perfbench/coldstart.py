"""One cold start, run in a fresh interpreter and timed by its parent.

    python3 perfbench/coldstart.py fixtures <workload> <seed>
        import hbfourier and build the workload's fixtures
    python3 perfbench/coldstart.py import
        import hbfourier.cli only

hbfourier must be importable (the benchmark puts `src` on PYTHONPATH).
"""

import sys


def main(argv) -> int:
    if argv[:1] == ["import"]:
        import hbfourier.cli  # noqa: F401

        return 0
    if len(argv) == 3 and argv[0] == "fixtures":
        import workloads

        workloads.WORKLOADS[argv[1]][0](int(argv[2]))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
