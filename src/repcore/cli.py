"""Command-line surface: build, core, occurrences, verify, parse, scan.

Exit codes: 0 success (for verify: all gating claims hold), 1 a gating claim
fails (with --strict-notes: any claim fails) or parse finds no parse, 2 usage
or domain error.
Each subcommand computes its result once and returns (exit code, JSON
document builder, text lines); main prints the document (--json), built
only then, or the lines on stdout.  Diagnostics go to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from itertools import chain
from typing import Callable, Iterable

from .errors import RepcoreError
from .interrupts import FORMS, CoreReport, DeletionSplit, InterruptSpec, build, core
from .locate import SegmentReport, parses, periodic_segments
from .verify import (
    DEFAULT_MAX_CHECKS,
    DEFAULT_MAX_VIOLATIONS,
    ClaimId,
    Universe,
    Witness,
    run,
    verdict,
)
from .words import cyclic_occurrences, occurrences, parse_word

# What a subcommand returns: exit code, a zero-argument callable that
# builds the JSON document (main calls it only under --json), and the text
# lines (main reads them once, only without --json).
_Result = tuple[int, Callable[[], dict], Iterable[str]]


def spec_json(spec: InterruptSpec) -> dict:
    """The five spec fields that core and witness records start with."""
    return {
        "x": spec.split.x,
        "cut1": spec.split.cut1,
        "cut2": spec.split.cut2,
        "e1": spec.e1,
        "e2": spec.e2,
    }


def core_json(spec: InterruptSpec, report: CoreReport) -> dict:
    """The flat core-report record; field names are part of the interface."""
    return {
        **spec_json(spec),
        "word": report.word,
        "junction": report.junction,
        "lcp": report.p_len,
        "lcs": report.s_len,
        "p_tilde": report.p_tilde,
        "s_tilde": report.s_tilde,
        "core": report.core,
        "core_start": report.core_start,
        "core_end": report.core_end,
    }


def witness_json(w: Witness) -> dict:
    return {
        **spec_json(w.spec),
        "factor": w.factor,
        "expected": w.expected,
        "actual": w.actual,
    }


def scan_json(x: str, report: SegmentReport) -> dict:
    """x and the report's segments and jumps, field by field (no asdict)."""
    return {
        "x": x,
        "segments": [
            {"start": s.start, "end": s.end, "phase": s.phase} for s in report.segments
        ],
        "jumps": [
            {
                "left_end": j.left_end,
                "right_start": j.right_start,
                "deleted_mod": j.deleted_mod,
            }
            for j in report.jumps
        ],
    }


def _add_spec_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--x", required=True, help="the period word x")
    sub.add_argument("--cut", type=int, help="prefix form: cut1=K, cut2=|x|")
    sub.add_argument("--cut1", type=int, help="start of the deleted factor")
    sub.add_argument("--cut2", type=int, help="end of the deleted factor")
    sub.add_argument("--e1", type=int, required=True)
    sub.add_argument("--e2", type=int, required=True)


def _spec_from_args(args, parser: argparse.ArgumentParser) -> InterruptSpec:
    x = parse_word(args.x)
    if args.cut is not None:
        if args.cut1 is not None or args.cut2 is not None:
            parser.error("--cut conflicts with --cut1/--cut2")
        cut1, cut2 = args.cut, len(x)
    elif args.cut1 is not None and args.cut2 is not None:
        cut1, cut2 = args.cut1, args.cut2
    else:
        parser.error("give --cut K, or both --cut1 and --cut2")
    return InterruptSpec(DeletionSplit(x, cut1, cut2), args.e1, args.e2)


def _add_text_source(sub: argparse.ArgumentParser) -> None:
    group = sub.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="the text word")
    group.add_argument("--text-file", help="read the text from a file")


def _text_from_args(args, parser: argparse.ArgumentParser) -> str:
    if args.text is not None:
        return parse_word(args.text)
    try:
        with open(args.text_file, "r", encoding="ascii") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        parser.error(f"--text-file {args.text_file!r}: {err}")
    return parse_word(text.removesuffix("\n"))


def _parse_claims(value: str, parser: argparse.ArgumentParser):
    if value == "all":
        return None
    ids = {c.value: c for c in ClaimId}
    chosen = []
    for name in value.split(","):
        name = name.strip()
        if name not in ids:
            parser.error(f"unknown claim {name!r} (choose from {sorted(ids)})")
        chosen.append(ids[name])
    return chosen


def _parse_e_sums(value: str, parser: argparse.ArgumentParser) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in value.split(","))
    except ValueError:
        parser.error(f"--e-sums expects a comma-separated integer list, got {value!r}")


def _cmd_core(args, parser) -> _Result:
    spec = _spec_from_args(args, parser)
    report = core(spec)
    doc = core_json(spec, report)
    lines = [f"{key}: {value}" for key, value in doc.items()]
    return 0, lambda: doc, [*lines, f"u: {report.u}", f"v: {report.v}"]


def _cmd_build(args, parser) -> _Result:
    word = build(_spec_from_args(args, parser))
    return 0, lambda: {"word": word}, [word]


def _cmd_occurrences(args, parser) -> _Result:
    pattern = parse_word(args.pattern)
    text = _text_from_args(args, parser)
    finder = cyclic_occurrences if args.cyclic else occurrences
    positions = finder(pattern, text)
    doc = {"pattern": pattern, "cyclic": bool(args.cyclic), "positions": positions}
    return 0, lambda: doc, [str(pos) for pos in positions]


def _cmd_verify(args, parser) -> _Result:
    universe = Universe(
        alphabet_size=args.alphabet,
        min_x=args.min_x,
        max_x=args.max_x,
        e_sums=_parse_e_sums(args.e_sums, parser),
        forms=args.forms,
    )
    claims = _parse_claims(args.claims, parser)
    reports = run(
        universe,
        claims,
        max_violations=args.max_violations,
        jobs=args.jobs,
        max_checks=args.max_checks,
    )
    ok = verdict(reports, strict_notes=args.strict_notes)

    def doc() -> dict:
        return {
            "universe": asdict(universe),
            "claims": [
                {
                    "id": rep.claim.value,
                    "status": rep.status,
                    "checked": rep.checked,
                    "counterexamples": [witness_json(w) for w in rep.counterexamples],
                }
                for rep in reports
            ],
        }

    lines = []
    for rep in reports:
        lines.append(f"{rep.claim.value}: {rep.status} (checked {rep.checked})")
        lines.extend(f"  {w}" for w in rep.counterexamples)
    lines.append(f"verdict: {'PASS' if ok else 'FAIL'}")
    return (0 if ok else 1), doc, lines


def _cmd_parse(args, parser) -> _Result:
    word = parse_word(args.word)
    found = parses(word, forms=args.forms)
    lines = [
        f"{p.spec} core={p.core.core} at [{p.core.core_start},{p.core.core_end})"
        for p in found
    ]
    return (
        (0 if found else 1),
        lambda: {"word": word, "parses": [core_json(p.spec, p.core) for p in found]},
        lines,
    )


def _cmd_scan(args, parser) -> _Result:
    x = parse_word(args.x)
    text = _text_from_args(args, parser)
    report = periodic_segments(text, x)
    # made as main prints them: text mode never holds every line at once,
    # and --json makes none
    lines = chain(
        (f"segment {s.start} {s.end} phase={s.phase}" for s in report.segments),
        (
            f"jump left_end={j.left_end} right_start={j.right_start}"
            f" deleted_mod={j.deleted_mod}"
            for j in report.jumps
        ),
    )
    return 0, lambda: scan_json(x, report), lines


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repcore",
        description="Interrupted repetitions: cores, claim verification, location.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p_core = subs.add_parser("core", help="compute the core of the interrupt")
    _add_spec_flags(p_core)
    p_core.set_defaults(func=_cmd_core)

    p_build = subs.add_parser("build", help="build the word W")
    _add_spec_flags(p_build)
    p_build.set_defaults(func=_cmd_build)

    p_occ = subs.add_parser("occurrences", help="occurrence positions of a pattern")
    p_occ.add_argument("--pattern", required=True)
    _add_text_source(p_occ)
    p_occ.add_argument("--cyclic", action="store_true",
                       help="count with wraparound")
    p_occ.set_defaults(func=_cmd_occurrences)

    p_verify = subs.add_parser("verify", help="exhaustively check claims")
    default = Universe()
    p_verify.add_argument("--alphabet", type=int, default=default.alphabet_size)
    p_verify.add_argument("--min-x", type=int, default=default.min_x)
    p_verify.add_argument("--max-x", type=int, default=default.max_x)
    p_verify.add_argument("--e-sums", default=",".join(map(str, default.e_sums)))
    p_verify.add_argument("--forms", choices=FORMS, default=default.forms)
    p_verify.add_argument("--claims", default="all")
    p_verify.add_argument("--max-violations", type=int,
                          default=DEFAULT_MAX_VIOLATIONS)
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="upper bound on worker processes; a universe "
                               "too small to pay for a fork runs in one")
    p_verify.add_argument("--strict-notes", action="store_true",
                          help="fail the process on reported-claim violations too")
    p_verify.add_argument("--max-checks", type=int, default=DEFAULT_MAX_CHECKS,
                          help="cap on specs evaluated, one per letter-renaming orbit")
    p_verify.set_defaults(func=_cmd_verify)

    p_parse = subs.add_parser("parse", help="decompose a word into interrupts")
    p_parse.add_argument("--word", required=True)
    p_parse.add_argument("--forms", choices=FORMS, default="both")
    p_parse.set_defaults(func=_cmd_parse)

    p_scan = subs.add_parser("scan", help="maximal periodic segments and jumps")
    p_scan.add_argument("--x", required=True, help="the period word")
    _add_text_source(p_scan)
    p_scan.set_defaults(func=_cmd_scan)

    # Added last, so every subcommand's usage line ends with [--json].  Each
    # subcommand reports its usage errors with its own parser.
    for sub in subs.choices.values():
        sub.add_argument("--json", action="store_true")
        sub.set_defaults(parser=sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, doc, lines = args.func(args, args.parser)
    except RepcoreError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(doc(), sort_keys=True))
    else:
        for line in lines:
            print(line)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
