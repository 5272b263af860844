"""The reference load, served from a process of its own.

    python3 perfbench/refload.py WORKLOAD

The benchmark starts this helper once per run.  After one untimed warm-up
load, for every line it reads on stdin it runs the workload's reference
load once and answers with the seconds that took.  It exits at the end of
its input.  The load is a small
piece of the workload's kind of work, done by the frozen copy of the
initial code in perfbench/reference, so it tracks the host's speed but not
changes to src/repcore.  In its own process it adds nothing to the
benchmark's peak RSS: the benchmark reads its children's peak before it
reaps this helper.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference"))
from repcore_ref import locate, verify  # noqa: E402

X = "aababbab"
WORD = X * 15 + X[:3] + X[6:] + X * 15  # x^15 x[:3] x[6:] x^15: 245 symbols
TEXT = (X[3:] + X[:3]) * 10_000  # 80,000 symbols of period x, phase 3

LOADS = {
    "verify-prefix": lambda: verify.run(verify.Universe(max_x=6), jobs=1),
    "verify-both-jobs2": lambda: verify.run(verify.Universe(max_x=6, forms="both"), jobs=2),
    "locate-parse": lambda: locate.parses(WORD),
    "locate-scan": lambda: locate.periodic_segments(TEXT, X),
}


def main() -> None:
    load = LOADS[sys.argv[1]]
    load()  # warm-up: the first call also grows the heap and fills caches
    for _ in sys.stdin:
        start = time.perf_counter()
        load()
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
