#!/usr/bin/env python3
"""Mine specs whose core-containing windows are NOT unique.

The uniqueness claim for windows over the interrupt core sounds airtight
but is refuted at |x| = 3: whenever x^e1·x1·x3 glues a low-period run
through the junction that is longer than |x|, the windows covering the
core collide with each other or with rotations of x.  This script lists
the smallest offenders and the run that causes each.

Example:
    python scripts/anchor_collisions.py --max-x 5 --forms prefix

A universe the verifier would reject (for example --e-sums 2, --max-x 17,
--e-sums 3,x or more specs than the cap) ends in a one-line diagnostic on
stderr and exit code 2.  The specs are streamed, so memory does not grow
with the universe.
"""

import argparse
import sys
from itertools import chain, groupby

from repcore import Universe, anchor_windows, core, occurrences
from repcore.errors import RepcoreError
from repcore.interrupts import FORMS
from repcore.verify import enumerate_specs


def longest_run(word):
    best = max((len(list(g)) for _, g in groupby(word)), default=0)
    return best


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--alphabet", type=int, default=2)
    ap.add_argument("--max-x", type=int, default=5)
    ap.add_argument("--e-sums", default="3")
    ap.add_argument("--forms", choices=FORMS, default="both")
    ap.add_argument("--limit", type=int, default=20, help="max offenders to print")
    args = ap.parse_args()

    try:
        e_sums = tuple(int(s) for s in args.e_sums.split(","))
    except ValueError:
        print(f"--e-sums expects a comma-separated integer list, got {args.e_sums!r}",
              file=sys.stderr)
        return 2
    try:
        universe = Universe(
            alphabet_size=args.alphabet,
            min_x=2,
            max_x=args.max_x,
            e_sums=e_sums,
            forms=args.forms,
        )
        specs = enumerate_specs(universe)
        first = next(specs)  # the size check runs on the first spec
    except RepcoreError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    shown = 0
    checked = 0
    for spec in chain([first], specs):
        checked += 1
        rep = core(spec)
        windows = [
            (j, f, occurrences(f, rep.word)) for j, f in anchor_windows(spec, rep)
        ]
        repeated = [(j, f, occ) for j, f, occ in windows if len(occ) != 1]
        if not repeated:
            continue
        shown += 1
        if shown <= args.limit:
            print(
                f"{spec}  W={rep.word}"
                f"  core={rep.core}@[{rep.core_start},{rep.core_end})"
                f"  longest run {longest_run(rep.word)}"
            )
            for j, f, occ in repeated:
                print(f"    window {f!r} at {j} occurs at {occ}")
    print(f"\n{shown} offending specs out of {checked}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
