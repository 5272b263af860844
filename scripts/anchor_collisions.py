#!/usr/bin/env python3
"""Mine specs whose core-containing windows are NOT unique.

The uniqueness claim for windows over the interrupt core sounds airtight
but is refuted at |x| = 3: whenever x^e1·x1·x3 glues a low-period run
through the junction that is longer than |x|, the windows covering the
core collide with each other or with rotations of x.  This script lists
the smallest offenders and the run that causes each.

Example:
    python scripts/anchor_collisions.py --max-x 5 --forms prefix
"""

import argparse
from itertools import groupby

from repcore import Universe, anchor_windows, core, occurrences
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

    universe = Universe(
        alphabet_size=args.alphabet,
        min_x=2,
        max_x=args.max_x,
        e_sums=tuple(int(s) for s in args.e_sums.split(",")),
        forms=args.forms,
    )
    shown = 0
    checked = 0
    for spec in enumerate_specs(universe):
        checked += 1
        rep = core(spec)
        repeated = [
            (j, f, occurrences(f, rep.word))
            for j, f in anchor_windows(spec, rep)
            if len(occurrences(f, rep.word)) != 1
        ]
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


if __name__ == "__main__":
    main()
