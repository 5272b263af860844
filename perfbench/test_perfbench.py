"""Tests of the benchmark itself: checks catch corrupted results, inputs are
reproducible, the oracles are right and the printed metrics match
BENCHMARK.json.

    python3 -m pytest perfbench
"""

import dataclasses
import json
import os
import random
import subprocess
import sys
from itertools import product

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import repcore.verify  # noqa: E402
from repcore.interrupts import DeletionSplit, InterruptSpec  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.load(open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8"))


def test_flipped_witness_count_fails():
    op = workloads.VerifyOp("verify-prefix")
    code, text = op.run()
    assert op.check((code, text)) == []
    line = next(ln for ln in text.splitlines() if ln.endswith("actual=2"))
    corrupted = text.replace(line, line[: -len("actual=2")] + "actual=3", 1)
    problems = op.check((code, corrupted))
    assert any("digest" in p for p in problems)
    assert any("recount" in p for p in problems)


def test_shifted_segment_end_fails():
    x = "aabab"
    text, junctions = workloads.planted_text(random.Random(7), x, 600)
    op = workloads.ScanOp(x, text, junctions)
    report = op.run()
    assert op.check(report) == []
    first = report.segments[0]
    for shift in (-1, 1):
        moved = dataclasses.replace(first, end=first.end + shift)
        bad = dataclasses.replace(report, segments=(moved,) + report.segments[1:])
        assert op.check(bad)


def test_dropped_parse_fails():
    op = workloads.ParseOp(("aaaba", 0, 1, 4, 4))
    found = op.run()
    assert len(found) >= 2 and op.check(found) == []
    for i in range(len(found)):
        assert op.check(found[:i] + found[i + 1 :])


def test_same_seed_same_inputs():
    for make in (workloads.parse_inputs, workloads.scan_inputs):
        a, b, c = (make(s) for s in (3, 3, 4))
        assert a == b and a != c
        assert workloads.inputs_sha256(a) == workloads.inputs_sha256(b)
        assert workloads.inputs_sha256(a) != workloads.inputs_sha256(c)
    words = workloads.parse_inputs(3)
    assert len(words) == workloads.PARSE_WORDS
    assert max(len(workloads.naive_build(*w)) for w in words) <= 520
    assert [len(x) for x, _, _ in workloads.scan_inputs(3)] == [4, 8, 16, 32, 64]
    assert workloads.make_ops("locate-scan", 3)[1] == workloads.inputs_sha256(
        workloads.scan_inputs(3))


def test_degenerate_words_have_several_parses():
    words = workloads.parse_inputs(1)
    for i, planted in enumerate(words):
        if i % 6 == 5:
            assert len(workloads.naive_parses(workloads.naive_build(*planted))) >= 2


def test_naive_parses_matches_brute_force():
    for length in range(3, 11):
        for letters in product("ab", repeat=length):
            word = "".join(letters)
            brute = sorted(
                (word[:n], c1, c2, e1, s - e1)
                for n in range(1, length // 3 + 1)
                if workloads.naive_primitive(word[:n])
                for c1 in range(n)
                for c2 in range(c1 + 1, n + 1)
                if not (c1 == 0 and c2 == n)
                for s in range(3, length // n + 1)
                for e1 in range(1, s)
                if workloads.naive_build(word[:n], c1, c2, e1, s - e1) == word
            )
            assert workloads.naive_parses(word) == brute, word


def test_tracer_self_time_and_uninstall():
    original = repcore.verify.core
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        assert repcore.verify.core is not original
        repcore.verify.core(InterruptSpec(DeletionSplit.prefix("aab", 2), 1, 2))
    finally:
        tracing.uninstall(undo)
    assert repcore.verify.core is original
    assert tracer.layer("interrupts.core")[0] == 1
    assert tracer.layer("interrupts.build")[0] == 1
    outer = [i for i, k in enumerate(tracer.span_name) if tracer.names[k] == "interrupts.core"][0]
    duration = tracer.span_end[outer] - tracer.span_start[outer]
    total_self = tracer.layer("interrupts.core")[1] + tracer.layer("interrupts.build")[1]
    assert abs(total_self - duration) < 1e-9


def test_metric_tables_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == harness.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_printed_metrics_match_benchmark_json():
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "verify-prefix",
         "--seed", "1", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]
    }


def test_install_skips_missing_names(monkeypatch):
    monkeypatch.delattr(repcore.verify, "anchor_windows")
    tracer = tracing.Tracer()
    tracing.uninstall(tracing.install(tracer))
    assert tracer.missing == ["repcore.verify.anchor_windows"]
    assert not hasattr(repcore.verify, "anchor_windows")


def test_reference_scale_uses_the_timings_around_an_interval():
    ref = harness.Reference("locate-parse")
    ref.samples = [(10.0, 0.1), (20.0, 0.3), (30.0, 0.2)]
    nominal = harness.REF_NOMINAL_S["locate-parse"]
    assert abs(ref.scale(21.0, 29.0) - nominal / 0.25) < 1e-12
    assert abs(ref.scale(10.0, 20.0) - nominal / 0.2) < 1e-12


def test_reference_helper_times_the_load_and_exits():
    with harness.Reference("locate-scan") as ref:
        ref.sample()
        ref.sample()
    assert ref.proc.returncode == 0
    assert len(ref.samples) == 2 and all(t > 0 for _, t in ref.samples)


def test_reference_copy_is_frozen_apart_from_src(monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(HERE, "reference"))
    import repcore_ref.words

    assert repcore_ref.words.occurrences is not repcore.words.occurrences
    assert "reference" in repcore_ref.words.__file__
