"""repcore benchmark: one closed-loop client, every output checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; repcore is imported from ./src.  The last
line of stdout is the JSON result: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  See perfbench/README.md.
"""

import argparse
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
WORKLOADS = ("verify-prefix", "verify-both-jobs2", "locate-parse", "locate-scan")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="repcore benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repcore", "__init__.py")):
        print(f"error: no repcore sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import harness

    return harness.main(args)


if __name__ == "__main__":
    sys.exit(main())
