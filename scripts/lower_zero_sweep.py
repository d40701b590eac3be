#!/usr/bin/env python3
"""Sweep the endpoint jump of the triangular-profile family and track the
purely imaginary lower zero.

For total mass F(0) strictly between 0 and the left-limit mass the transform
has exactly one zero below the real axis, purely imaginary; outside that open
window it has none.  Prints one line per mass value with `classify`'s located
zero and the argument-principle count that confirms it; a field is empty
where `classify` gives None.
"""

import argparse
import sys

from hbfourier import classify, from_pd_profile


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--masses", type=str, default="-0.25,0,0.25,0.5,0.75,1.0,1.25")
    args = parser.parse_args()
    masses = [float(v) for v in args.masses.split(",")]

    sys.stdout.write("F0,y_star,lower_count\n")
    for f0 in masses:
        c = classify(from_pd_profile([0.0, 1.0], [1.0, 0.0], f0 - 1.0))
        fields = (f0, None if c.lower_zero is None else c.lower_zero.imag, c.lower_count)
        sys.stdout.write(",".join("" if v is None else repr(v) for v in fields) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
