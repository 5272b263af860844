"""Measurement and reporting for the repcore benchmark (entry point: run.py).

With --trace 0, `end_to_end` measures set-up, then repeats rounds of the
workload's operations until the time is up.  With --trace 1, `per_layer`
runs one round untraced and one round with every layer wrapped in spans,
adds the per-claim pass (verify workloads) or a size ladder (locator
workloads), and writes the spans to .perfbench-out/.  Both check every
output and count failures.
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import repcore.locate as locate
import repcore.verify as verify
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
REFLOAD = os.path.join(HERE, "refload.py")

# What each workload's reference load (refload.py) takes at the reference
# speed: a fixed scale, close to its time on the machine that
# perfbench/README.md describes.
REF_NOMINAL_S = {
    "verify-prefix": 0.40,
    "verify-both-jobs2": 1.20,
    "locate-parse": 0.05,
    "locate-scan": 0.08,
}
# Workloads that run in one process are pinned to one CPU, with the
# reference helper and the set-up interpreters: this host's two vCPUs drift
# in speed independently, and a reference timed on the other one does not
# follow the operations.
ONE_CPU = ("verify-prefix", "locate-parse", "locate-scan")

# Set-up is timed in fresh interpreters, each against a fresh interpreter
# that imports the frozen copy and argparse: start-up speed on this host
# drifts by up to 1.6x between minutes, and the ratio of the two does not.
# REF_SETUP_NOMINAL_S is what the reference import takes at the reference
# speed.
SETUP_PAIRS = 11
SETUP_CODE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "exec(sys.argv[2])\n"
    "print(time.perf_counter() - t)\n"
)
SETUP_IMPORT = "import repcore, repcore.cli\nrepcore.cli.build_parser()"
REF_SETUP_IMPORT = (
    "import argparse, repcore_ref.verify, repcore_ref.locate\n"
    "argparse.ArgumentParser().add_subparsers()"
)
REF_SETUP_NOMINAL_S = 0.040

LADDER_X_LEN = 16
LADDER_CUT = 5
LADDER_E_SUMS = (10, 100, 1000)  # words of 165, 1,605 and 16,005 symbols
LADDER_BUDGET_S = 5.0
LADDER_SCAN = (16_000, 128_000)
LADDER_CHILD = (
    "import sys\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "from repcore.locate import parses\n"
    "parses(sys.stdin.read())\n"
)

# name -> unit, in print order.  Every workload runs one kind of operation,
# and the latency pair and throughput are read for it: a verify run and specs,
# a parses call and symbols parsed, or a periodic_segments call and symbols
# scanned.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
}
CLAIM_IDS = (
    "dft_bound", "theorem1", "theorem1_deletion", "dichotomy", "distinct_count",
    "core_cyclic_unique", "note2_linear", "note3_linear", "note3_cyclic",
)
PER_LAYER = {
    "words.occurrences.calls": "count",
    "words.occurrences.self_s": "s",
    "words.cyclic_occurrences.calls": "count",
    "words.cyclic_occurrences.self_s": "s",
    "words.is_primitive.calls": "count",
    "words.is_primitive.self_s": "s",
    "words.power_prefix.calls": "count",
    "words.power_prefix.symbols": "count",
    "words.power_prefix.self_s": "s",
    "interrupts.core.calls": "count",
    "interrupts.core.self_s": "s",
    "interrupts.anchor_windows.calls": "count",
    "interrupts.anchor_windows.self_s": "s",
    "interrupts.classify_window.calls": "count",
    "interrupts.classify_window.self_s": "s",
    "interrupts.build.calls": "count",
    "interrupts.build.self_s": "s",
    "verify.enumerate_specs.self_s": "s",
    "verify.specs": "count",
    "verify.eval_chunk.self_s": "s",
    "verify.run.self_s": "s",
    **{
        f"verify.claim.{c}.{m}": u
        for c in CLAIM_IDS
        for m, u in (("self_s", "s"), ("checked", "count"), ("violations", "count"))
    },
    "verify.witness_keep_ratio": "ratio",
    "verify.pool.chunks": "count",
    "verify.pool.result_bytes": "B",
    "verify.pool.wait_s": "s",
    "locate.parses.calls": "count",
    "locate.parses.self_s": "s",
    "locate.parses.build_hit_ratio": "ratio",
    "locate.parses.growth_exp": "exponent",
    "locate.parses.ladder_16005_s": "s",
    "locate.parses.ladder_16005_over_budget": "count",
    "locate.periodic_segments.calls": "count",
    "locate.periodic_segments.self_s": "s",
    "locate.periodic_segments.segments": "count",
    "locate.periodic_segments.growth_exp": "exponent",
    "cli.main.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


class Tally:
    """Attempted and failed operations, with the first few problems kept."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems[:3])


def run_op(op, tally: Tally):
    """Run one operation and check its output: (wall time, output or None)."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as err:  # a crash counts as a failed operation
        elapsed = time.perf_counter() - start
        tally.record(op.kind, [f"raised {type(err).__name__}: {err}"])
        return elapsed, None
    elapsed = time.perf_counter() - start
    tally.record(op.kind, op.check(output))
    return elapsed, output


def run_round(ops, tally: Tally, ref: Reference) -> list[tuple[str, int, float, float]]:
    """(kind, units, start, end) per operation, timing the reference before each."""
    samples = []
    for op in ops:
        ref.sample()
        start = time.perf_counter()
        elapsed = run_op(op, tally)[0]
        samples.append((op.kind, op.units, start, start + elapsed))
    return samples


class Reference:
    """Host speed, measured on a frozen copy of the initial code.

    This host's CPU speed drifts by up to 1.7x over minutes and also moves
    from one second to the next, and process CPU time moves with it.  So
    before every operation, and after the last, the benchmark times a fixed
    reference load: the same kind of work done by
    the copy of the initial code in perfbench/reference, served by the
    refload.py helper process.  That copy does not change when repcore does,
    so a faster repcore still shows.  An interval of wall time is scaled by
    the workload's REF_NOMINAL_S divided by the mean of the reference
    timings just before and just after it.

    Use it as a context manager: the helper runs from __enter__ to __exit__.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.samples: list[tuple[float, float]] = []  # (when, seconds)
        self.proc = None

    def __enter__(self) -> "Reference":
        self.proc = subprocess.Popen(
            [sys.executable, "-E", "-s", REFLOAD, self.workload],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, cwd=ROOT,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()

    def sample(self) -> None:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        seconds = float(self.proc.stdout.readline())
        self.samples.append((time.perf_counter(), seconds))

    def scale(self, start: float, end: float) -> float:
        before = [t for when, t in self.samples if when <= start][-1]
        after = next(t for when, t in self.samples if when >= end)
        return REF_NOMINAL_S[self.workload] / ((before + after) / 2)


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method); the value itself for one sample."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure_setup() -> float:
    """Time to import repcore and build the CLI parser in a fresh interpreter.

    The median over SETUP_PAIRS of its ratio to the reference import, run
    just after it, times REF_SETUP_NOMINAL_S.  One extra run of each first
    writes the bytecode caches.
    """
    def child(path: str, code: str) -> float:
        cmd = [sys.executable, "-E", "-s", "-c", SETUP_CODE, path, code]
        return float(subprocess.run(cmd, capture_output=True, text=True, check=True,
                                    cwd=ROOT).stdout)

    pair = (SRC, SETUP_IMPORT), (os.path.join(HERE, "reference"), REF_SETUP_IMPORT)
    for args in pair:
        child(*args)
    times = [[child(*args) for args in pair] for _ in range(SETUP_PAIRS)]
    ratios = [mine / ref for mine, ref in times]
    print(f"setup: {SETUP_PAIRS} pairs, wall min {min(t[0] for t in times) * 1000:.2f} ms,"
          f" median ratio to the reference import {statistics.median(ratios):.3f}")
    return statistics.median(ratios) * REF_SETUP_NOMINAL_S


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it has reaped (the pool workers).

    The reference helper is still running when this is read, so its memory
    is not counted.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak rss: own {own:.1f} MB, reaped children {children:.1f} MB")
    return max(own, children)


def end_to_end(workload: str, seed: int, seconds: float, tally: Tally) -> dict:
    ops, digest = workloads.make_ops(workload, seed)
    print(f"inputs_sha256 {digest}")
    setup_s = measure_setup()
    with Reference(workload) as ref:
        samples = []
        start = time.perf_counter()
        while not samples or time.perf_counter() - start < seconds:
            samples.extend(run_round(ops, tally, ref))
        ref.sample()
        peak = peak_rss_mb()
    # (kind, units, wall seconds, seconds at the reference speed)
    rows = [(kind, units, end - begin, (end - begin) * ref.scale(begin, end))
            for kind, units, begin, end in samples]
    ref_times = [t * 1000 for _, t in ref.samples]
    print(f"reference: {len(ref_times)} timings, median {statistics.median(ref_times):.1f} ms"
          f" (reference speed: {REF_NOMINAL_S[workload] * 1000:.0f} ms)")
    units = sum(row[1] for row in rows)
    wall = [row[2] * 1000 for row in rows]
    print(f"{rows[0][0]}: {len(rows)} calls, {units} units in {sum(wall) / 1000:.3f} s wall ="
          f" {units * 1000 / sum(wall):.1f}/s; wall p50 {statistics.median(wall):.2f} ms,"
          f" p90 {quantile(wall, 90):.2f} ms")
    latencies = [row[3] * 1000 for row in rows]
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak,
        "work_per_s": units / sum(row[3] for row in rows),
        "op_p50_ms": statistics.median(latencies),
        "op_p90_ms": quantile(latencies, 90),
    }


def timed(fn, *args) -> float:
    start = time.perf_counter()
    fn(*args)
    return time.perf_counter() - start


def claim_pass(workload: str, tally: Tally, verify_text: str) -> tuple[dict, tracing.Tracer]:
    """verify.claim.* through the public check_claim over the workload's universe.

    The totals are cross-checked against the claim lines the CLI printed.
    """
    metrics = {f"verify.claim.{c}.{m}": 0 for c in CLAIM_IDS
               for m in ("self_s", "checked", "violations")}
    tracer = tracing.Tracer()
    if workload not in workloads.VERIFY:
        return metrics, tracer
    universe = verify.Universe(**workloads.VERIFY[workload]["universe"])
    specs = list(verify.enumerate_specs(universe))
    printed, _ = workloads.parse_verify_output(verify_text)
    undo = tracing.install(tracer)
    try:
        for claim in verify.ClaimId:
            name = f"verify.claim.{claim.value}"
            check = tracing.wrap_call(tracer, name, verify.check_claim)
            checked = violations = 0
            for spec in specs:
                if verify.applies(claim, spec):
                    result = check(claim, spec)
                    checked += result.checked
                    violations += len(result.violations)
            metrics[f"{name}.self_s"] = tracer.layer(name)[1]
            metrics[f"{name}.checked"] = checked
            metrics[f"{name}.violations"] = violations
            status = "not_applicable" if not checked else "fails" if violations else "holds"
            want = printed.get(claim.value)
            tally.record(
                "claim",
                [] if want == (status, checked)
                else [f"{claim.value}: check_claim gives {status}/{checked}, CLI printed {want}"],
            )
    finally:
        tracing.uninstall(undo)
    return metrics, tracer


def parse_ladder(seed: int, tally: Tally) -> dict:
    """Growth exponent of parses, outside the workload's round."""
    x = workloads.random_primitive(random.Random(seed), LADDER_X_LEN, 2)
    specs = [(x, LADDER_CUT, LADDER_X_LEN, e // 2, e - e // 2) for e in LADDER_E_SUMS]
    small, large = workloads.ParseOp(specs[0]), workloads.ParseOp(specs[1])
    huge = workloads.naive_build(*specs[2])
    t_small = statistics.median(run_op(small, tally)[0] for _ in range(5))
    t_large = run_op(large, tally)[0]
    parse_exp = math.log(t_large / t_small) / math.log(large.units / small.units)

    start = time.perf_counter()
    try:
        subprocess.run([sys.executable, "-E", "-s", "-c", LADDER_CHILD, SRC],
                       input=huge, text=True, timeout=LADDER_BUDGET_S,
                       check=True, cwd=ROOT)
        over = 0
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        over = 1
    ladder_s = time.perf_counter() - start
    print(f"ladder: parses |W|={small.units} {t_small:.4f} s, |W|={large.units}"
          f" {t_large:.3f} s, |W|={len(huge)} {'over' if over else 'within'}"
          f" the {LADDER_BUDGET_S} s budget ({ladder_s:.2f} s)")
    return {
        "locate.parses.growth_exp": parse_exp,
        "locate.parses.ladder_16005_s": ladder_s,
        "locate.parses.ladder_16005_over_budget": over,
    }


def scan_ladder(seed: int) -> dict:
    """Growth exponent of periodic_segments, outside the workload's round."""
    rng = random.Random(seed)
    x = workloads.random_primitive(rng, LADDER_X_LEN, 2)
    scan_t = []
    for total in LADDER_SCAN:
        text, _ = workloads.planted_text(rng, x, total)
        scan_t.append(statistics.median(
            timed(locate.periodic_segments, text, x) for _ in range(3)))
    print(f"ladder: periodic_segments |T|={LADDER_SCAN[0]} {scan_t[0]:.4f} s,"
          f" |T|={LADDER_SCAN[1]} {scan_t[1]:.4f} s")
    return {
        "locate.periodic_segments.growth_exp":
            math.log(scan_t[1] / scan_t[0]) / math.log(LADDER_SCAN[1] / LADDER_SCAN[0]),
    }


def per_layer(workload: str, seed: int, tally: Tally) -> dict:
    ops, digest = workloads.make_ops(workload, seed)
    print(f"inputs_sha256 {digest}")
    tracer = tracing.Tracer()
    with Reference(workload) as ref:
        ref.sample()
        start = time.perf_counter()
        outputs = [run_op(op, tally)[1] for op in ops]
        mid = time.perf_counter()
        ref.sample()
        undo = tracing.install(tracer)
        try:
            restart = time.perf_counter()
            for op in ops:
                run_op(op, tally)
            end = time.perf_counter()
        finally:
            tracing.uninstall(undo)
        ref.sample()
    verify_text = outputs[0][1] if ops[0].kind == "verify" and outputs[0] else ""
    untraced = (mid - start) * ref.scale(start, mid)
    traced = (end - restart) * ref.scale(restart, end)

    metrics = dict.fromkeys(PER_LAYER, 0)
    for name in ("words.occurrences", "words.cyclic_occurrences", "words.is_primitive",
                 "words.power_prefix", "interrupts.core", "interrupts.anchor_windows",
                 "interrupts.classify_window", "interrupts.build", "locate.parses",
                 "locate.periodic_segments"):
        calls, self_s = tracer.layer(name)
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = self_s
    for name in ("verify.enumerate_specs", "verify.eval_chunk", "verify.run", "cli.main"):
        metrics[f"{name}.self_s"] = tracer.layer(name)[1]
    counts = tracer.counts
    built = counts.get("verify.violations_built", 0)
    build_calls = counts.get("locate.build_calls", 0)
    metrics.update({
        "words.power_prefix.symbols": counts.get("words.power_prefix.symbols", 0),
        "verify.specs": counts.get("verify.specs", 0),
        "verify.witness_keep_ratio":
            counts.get("verify.witnesses_reported", 0) / built if built else 0.0,
        "verify.pool.chunks": counts.get("verify.pool.chunks", 0),
        "verify.pool.result_bytes": counts.get("verify.pool.result_bytes", 0),
        "verify.pool.wait_s": counts.get("verify.pool.wait_s", 0.0),
        "locate.parses.build_hit_ratio":
            counts.get("locate.parses.found", 0) / build_calls if build_calls else 0.0,
        "locate.periodic_segments.segments":
            counts.get("locate.periodic_segments.segments", 0),
        "trace.overhead_ratio": traced / untraced,
    })
    print(f"round: {mid - start:.3f} s untraced, {end - restart:.3f} s traced (wall)")
    if tracer.missing:
        print(f"not traced, no such name: {', '.join(tracer.missing)}")

    claims, claim_tracer = claim_pass(workload, tally, verify_text)
    metrics.update(claims)
    if workload == "locate-parse":
        metrics.update(parse_ladder(seed, tally))
    elif workload == "locate-scan":
        metrics.update(scan_ladder(seed))

    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": tracer.to_json(), "claims": claim_tracer.to_json()}, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}"
          f" ({tracer.dropped + claim_tracer.dropped} dropped beyond the cap)")
    return metrics


def main(args) -> int:
    if args.workload in ONE_CPU:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    tally = Tally()
    if args.trace:
        values, units = per_layer(args.workload, args.seed, tally), PER_LAYER
    else:
        values, units = end_to_end(args.workload, args.seed, args.seconds, tally), END_TO_END
    for problem in tally.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"failed_ratio {tally.failed / tally.attempted}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0

